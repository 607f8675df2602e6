"""Transcript-equality pins for Algorithm 2's billing pass.

The scheduler bills a run's live Cloud workers in one pass per tick
(``_bill_and_manage``: one usage snapshot, one
``BillingMeter.charge_many`` in launch order, then the idle/Greedy
releases of the workers launched before any short charge) and settles
them the same way at teardown (``stop_all``).  It must be
byte-identical to the historical per-handle loop, kept below as the
oracle (:func:`reference_bill_and_manage`, :func:`reference_stop_all`):
same sequence of non-zero billed amounts (recorded by a spy on each
world's ``bill``/``bill_many``, see ``credit_audit.record_bills``),
same floats in the meter's per-provider dicts, same handle lifecycle
decisions and the same stop order — under arbitrary busy
trajectories, starvation stops between ticks, and escrow exhaustion.
A hypothesis test runs twin worlds through identical random
trajectories and compares full state after every step.  The run keeps
no list of its launched workers, so each world keeps its own.

Also pinned here: ``BillingMeter.charge_many`` against sequential
``charge`` calls and the ``PriceBook`` static-rate cache semantics.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credit_audit import record_bills
from repro.cloud.worker import CloudWorkerHandle
from repro.core.credit import CreditSystem
from repro.core.scheduler import (
    QoSRun,
    SchedulerConfig,
    SpeQuloSScheduler,
)
from repro.core.strategies import (
    DEPLOY_CLOUD_DUP,
    DEPLOY_FLAT,
    SIZE_CONSERVATIVE,
    SIZE_GREEDY,
    StrategyCombo,
)
from repro.economics.billing import BillingMeter
from repro.economics.pricing import PriceBook


# --------------------------------------------------------------- stubs
class _StubUsage:
    """Busy accounting only — what the billing pass reads."""

    def __init__(self):
        self.busy_sec = {}      # node_id -> accumulated busy seconds
        self.busy_now = set()   # node_ids currently computing

    def _snapshot(self, node_ids):
        return ([self.busy_sec.get(n, 0.0) for n in node_ids],
                [n in self.busy_now for n in node_ids])


class _StubServer(_StubUsage):
    """Flat deployment: the DG server's cloud-node accounting."""

    def cloud_busy_seconds(self, node):
        return self.busy_sec.get(node.node_id, 0.0)

    def is_busy(self, node):
        return node.node_id in self.busy_now

    def cloud_usage_of(self, node_ids, now):
        return self._snapshot(node_ids)

    def remove_cloud_node(self, node):
        pass


class _StubCoordinator(_StubUsage):
    """Cloud duplication: the cloud-side server's accounting."""

    def busy_seconds(self, node):
        return self.busy_sec.get(node.node_id, 0.0)

    def busy(self, node):
        return node.node_id in self.busy_now

    def usage_of(self, node_ids, now):
        return self._snapshot(node_ids)

    def remove_worker(self, node):
        pass


class _StubDriver:
    name = "stubcloud"

    def __init__(self):
        self.destroyed = []

    def destroy_node(self, instance):
        self.destroyed.append(instance.node.node_id)


def _build_world(n_handles, provision, greedy, idle_grace,
                 deploy=DEPLOY_FLAT, pooled=False):
    """A scheduler managing one run of ``n_handles`` live workers.

    Returns ``(sched, run, usage, world)``: ``world.launched`` lists
    the handles in launch order and ``world.bills`` records every
    non-zero bill."""
    credits = CreditSystem()
    credits.deposit("u", provision)
    if pooled:
        credits.open_pool("p", "u", provision)
        credits.join_pool("b", "p")
    else:
        credits.order("b", "u", provision)
    cfg = SchedulerConfig(idle_grace=idle_grace)
    sched = SpeQuloSScheduler(SimpleNamespace(now=0.0), info=None,
                              credits=credits, config=cfg)
    combo = StrategyCombo(size=SIZE_GREEDY if greedy
                          else SIZE_CONSERVATIVE, deploy=deploy)
    server = _StubServer()
    run = QoSRun(bot_id="b", server=server, driver=_StubDriver(),
                 monitor=None, oracle=None, combo=combo, started=True)
    usage = server
    if deploy == DEPLOY_CLOUD_DUP:
        usage = run.coordinator = _StubCoordinator()
    sched.runs["b"] = run
    world = SimpleNamespace(launched=[], bills=record_bills(credits))
    for nid in range(n_handles):
        inst = SimpleNamespace(node=SimpleNamespace(node_id=nid),
                               boot_end=0.0)
        handle = CloudWorkerHandle(inst, deploy)
        world.launched.append(handle)
        run.live[nid] = handle
        sched._active_total += 1
        sched._active_by_server[server] = \
            sched._active_by_server.get(server, 0) + 1
    return sched, run, usage, world


# ------------------------------------------------------------- oracle
def _is_busy(run, handle):
    if handle.deploy_mode == DEPLOY_CLOUD_DUP:
        return run.coordinator.busy(handle.node)
    return run.server.is_busy(handle.node)


def reference_stop_all(sched, run, launched, reason):
    """Per-handle teardown: settle and stop each worker in launch order."""
    if run.stop_reason is None:
        run.stop_reason = reason
    for handle in launched:
        sched._stop_handle(run, handle)


def reference_bill_and_manage(sched, run, launched):
    """Algorithm 2, per handle: bill, release idle workers, stop
    everything on exhaustion — the historical loop."""
    now = sched.sim.now
    greedy = run.combo.size == SIZE_GREEDY
    for handle in launched:
        if handle.stopped:
            continue
        if not sched._bill_handle(run, handle):
            reference_stop_all(sched, run, launched,
                               reason="credits exhausted")
            return
        if _is_busy(run, handle):
            handle.ever_assigned = True
            handle.last_busy = now
            continue
        if greedy and not handle.ever_assigned:
            grace = sched.config.greedy_release_grace
        elif sched.config.idle_grace is not None:
            grace = sched.config.idle_grace
        else:
            continue
        if now - handle.last_busy >= grace:
            sched._stop_handle(run, handle)


def _handle_state(launched):
    return [(h.billed_busy, h.last_busy, h.ever_assigned, h.stopped)
            for h in launched]


def _assert_twins_equal(got, ref):
    (s_g, run_g, w_g), (s_r, run_r, w_r) = got, ref
    assert w_g.bills == w_r.bills
    assert s_g.credits.get_order("b").spent == \
        s_r.credits.get_order("b").spent
    assert s_g.meter.spent_by_provider == s_r.meter.spent_by_provider
    assert s_g.meter.cpu_seconds_by_provider == \
        s_r.meter.cpu_seconds_by_provider
    assert _handle_state(w_g.launched) == _handle_state(w_r.launched)
    assert run_g.stop_reason == run_r.stop_reason
    assert run_g.driver.destroyed == run_r.driver.destroyed
    assert list(run_g.live) == [h.node.node_id for h in w_g.launched
                                if not h.stopped]
    assert list(run_g.live) == list(run_r.live)
    assert s_g._active_total == s_r._active_total == len(run_g.live)
    assert s_g._active_by_server[run_g.server] == \
        s_r._active_by_server[run_r.server] == len(run_g.live)


#: busy seconds a worker accrues between two instants: often none or a
#: few (a charge a tiny escrow still covers), sometimes a whole period
_INCREMENT = st.one_of(st.just(0.0), st.floats(0.0, 5.0),
                       st.floats(0.0, 90.0))


def _advance(data, usages, n):
    incs = data.draw(st.lists(_INCREMENT, min_size=n, max_size=n))
    busy = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for usage in usages:
        usage.busy_now = {i for i, b in enumerate(busy) if b}
        for i, inc in enumerate(incs):
            usage.busy_sec[i] = usage.busy_sec.get(i, 0.0) + inc


# ----------------------------------------------- pass transcript equality
@pytest.mark.parametrize("deploy", [DEPLOY_FLAT, DEPLOY_CLOUD_DUP],
                         ids=["flat", "cloud-dup"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_charge_pass_matches_per_handle_oracle(deploy, data):
    n = data.draw(st.integers(1, 6), label="handles")
    greedy = data.draw(st.booleans(), label="greedy")
    idle_grace = data.draw(st.sampled_from([None, 60.0, 180.0]),
                           label="idle_grace")
    # small provisions force clamping and exhaustion mid-pass; big
    # ones keep every charge covered
    provision = data.draw(st.sampled_from([0.02, 0.1, 0.3, 3.0, 1e4]),
                          label="provision")
    pooled = data.draw(st.booleans(), label="pooled")
    got, run_g, use_g, w_g = _build_world(n, provision, greedy,
                                          idle_grace, deploy, pooled)
    ref, run_r, use_r, w_r = _build_world(n, provision, greedy,
                                          idle_grace, deploy, pooled)

    n_ticks = data.draw(st.integers(1, 7), label="ticks")
    now = 0.0
    for _ in range(n_ticks):
        # between ticks: usage accrues, some workers starve
        _advance(data, (use_g, use_r), n)
        now += 30.0
        got.sim.now = ref.sim.now = now
        starved = data.draw(st.lists(st.integers(0, n - 1), max_size=2),
                            label="starved")
        for nid in starved:
            node = SimpleNamespace(node_id=nid)
            got._stop_by_node(run_g, node)
            ref._stop_by_node(run_r, node)
        _assert_twins_equal((got, run_g, w_g), (ref, run_r, w_r))

        _advance(data, (use_g, use_r), n)
        now += 30.0
        got.sim.now = ref.sim.now = now
        got._bill_and_manage(run_g)
        reference_bill_and_manage(ref, run_r, w_r.launched)
        _assert_twins_equal((got, run_g, w_g), (ref, run_r, w_r))

    # teardown settles usage the escrow may no longer cover
    _advance(data, (use_g, use_r), n)
    now += 30.0
    got.sim.now = ref.sim.now = now
    got.stop_all(run_g, reason="bot completed")
    reference_stop_all(ref, run_r, w_r.launched, reason="bot completed")
    _assert_twins_equal((got, run_g, w_g), (ref, run_r, w_r))
    assert not run_g.live


def test_exhausting_tick_takes_the_scalar_fallback():
    """A tick whose charges overrun the escrow stops every worker, in
    the order the per-handle loop would (the scenario the scheduler
    once routed to a scalar replay)."""
    sched, run, srv, world = _build_world(3, provision=0.01, greedy=False,
                                          idle_grace=None)
    for i in range(3):
        srv.busy_sec[i] = 3600.0  # 15 credits each at the paper rate
    sched.sim.now = 60.0
    sched._bill_and_manage(run)
    assert run.stop_reason == "credits exhausted"
    assert all(h.stopped for h in world.launched)
    assert not run.live
    assert run.driver.destroyed == [0, 1, 2]
    assert sched.credits.get_order("b").spent == 0.01
    assert world.bills == [("b", 0.01)]
    # every worker's usage is accounted, even the uncovered ones
    assert sched.meter.cpu_seconds_by_provider == {"stubcloud": 3 * 3600.0}


def test_stop_by_node_uses_the_index():
    sched, run, _srv, world = _build_world(4, provision=100.0, greedy=False,
                                           idle_grace=None)
    target = world.launched[2]
    sched._stop_by_node(run, target.node)
    assert target.stopped
    assert list(run.live) == [0, 1, 3]
    assert sched._active_total == 3
    # a node the run never launched is a no-op
    sched._stop_by_node(run, SimpleNamespace(node_id=999))
    assert len(run.live) == 3


# ------------------------------------------------- charge_many equality
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_charge_many_matches_sequential_charges(data):
    provision = data.draw(st.sampled_from([0.01, 0.5, 20.0, 1e5]))
    deltas = data.draw(st.lists(
        st.floats(-5.0, 400.0, allow_nan=False, allow_infinity=False),
        min_size=0, max_size=10))
    book = PriceBook.uniform(
        data.draw(st.sampled_from([15.0, 3.5, 120.0])))

    def fresh():
        credits = CreditSystem()
        credits.deposit("u", provision)
        credits.order("b", "u", provision)
        return BillingMeter(credits, book), record_bills(credits)

    (seq, seq_bills), (batch, batch_bills) = fresh(), fresh()
    expected_fail = -1
    for i, d in enumerate(deltas):
        billed, asked = seq.charge("b", "p", d, now=60.0)
        if billed < asked - 1e-9:
            expected_fail = i
            break  # the scheduler stops billing here
    got_fail = batch.charge_many("b", "p", deltas, now=60.0)
    assert got_fail == expected_fail
    assert batch_bills == seq_bills
    assert batch.credits.get_order("b").spent == \
        seq.credits.get_order("b").spent
    assert batch.spent_by_provider == seq.spent_by_provider
    assert batch.cpu_seconds_by_provider == seq.cpu_seconds_by_provider


# --------------------------------------------------- static-rate caching
def test_static_book_caches_and_set_rate_invalidates():
    book = PriceBook.uniform(15.0)
    assert book.is_static()
    assert book.rate("ec2", now=0.0) == 15.0
    assert ("ec2", "ondemand") in book._rate_cache
    assert book.rate("ec2", now=9999.0) == 15.0  # served from cache
    book.set_rate("ec2", 30.0)
    assert book._rate_cache == {}  # invalidated
    assert book.rate("ec2", now=0.0) == 30.0


def test_time_varying_book_never_caches():
    book = PriceBook({"spotty": lambda now: 10.0 + now})
    assert not book.is_static()
    assert book.rate("spotty", now=0.0) == 10.0
    assert book.rate("spotty", now=5.0) == 15.0
    assert book._rate_cache == {}
