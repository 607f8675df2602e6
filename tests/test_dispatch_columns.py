"""Transcript-equality pins for the vectorized dispatch plane.

Three layers of PR-playbook pins:

* ``acquire_many`` vs ``k`` sequential scalar ``acquire`` calls — the
  RNG draw sequence and the returned (node, end) pairs must be
  byte-identical under random acquire/release/preempt churn;
* bulk ``_dispatch`` vs the kept scalar reference ``_dispatch_scalar``
  — two identical worlds, one with the bulk path disabled, must emit
  identical observer-event transcripts, stats, event counts and final
  RNG states for both middleware models;
* the ``TaskColumns``/``TaskState`` sync invariant — after arbitrary
  middleware churn, every mirrored column cell equals its object
  field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware import make_server
from repro.middleware.base import TaskState
from repro.middleware.columns import TaskColumns
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task
from trace_oracle import columns_from_raw


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _rand_fleet(seed: int, n: int, ready_at_zero: bool = False):
    """Raw per-node arrays with sorted, non-overlapping intervals.

    ``ready_at_zero`` pulls every node's first interval start to 0 so
    an arrival storm meets a full ready pool — the regime where the
    dispatch ready-hint routes to the bulk pass."""
    g = np.random.default_rng(seed)
    raw = []
    for _ in range(n):
        k = int(g.integers(1, 5))
        pts = np.sort(g.choice(400, size=2 * k, replace=False)).astype(float)
        starts, ends = pts[0::2].copy(), pts[1::2].copy()
        if ready_at_zero:
            starts[0] = 0.0
        raw.append((starts, ends,
                    float(g.integers(1, 4)) * 500.0, "trace"))
    return raw


def _pool_pair(fleet_seed: int, n: int, rng_seed: int):
    """Two structurally identical columnar pools with equal RNG state."""
    raw = _rand_fleet(fleet_seed, n)
    template = columns_from_raw(raw)
    return (NodePool(template.fresh(), rng=np.random.default_rng(rng_seed)),
            NodePool(template.fresh(), rng=np.random.default_rng(rng_seed)))


class _Recorder:
    """Observer recording every emitted event, in order."""

    def __init__(self):
        self.events = []

    def on_task_arrived(self, gtid, t):
        self.events.append(("arrived", gtid, t))

    def on_task_first_assigned(self, gtid, t):
        self.events.append(("first_assigned", gtid, t))

    def on_task_completed(self, gtid, t):
        self.events.append(("completed", gtid, t))

    def on_bot_completed(self, bot_id, t):
        self.events.append(("bot_completed", bot_id, t))


def _bot(seed: int, size: int) -> BagOfTasks:
    g = np.random.default_rng(seed)
    tasks = [Task(task_id=i, nops=float(g.integers(1, 60)) * 1000.0)
             for i in range(size)]
    return BagOfTasks(bot_id="b0", tasks=tasks, category="SMALL")


def _run_world(kind: str, bulk: bool, fleet_seed: int, n_nodes: int,
               rng_seed: int, bot_seed: int, bot_size: int,
               ready_at_zero: bool = False):
    """Assemble and drain one world; return its full transcript."""
    raw = _rand_fleet(fleet_seed, n_nodes, ready_at_zero)
    template = columns_from_raw(raw)
    sim = Simulation(horizon=400_000.0)
    pool = NodePool(template.fresh(),
                    rng=np.random.default_rng(rng_seed))
    server = make_server(kind, sim, pool)
    if not bulk:  # force the scalar reference for every queue length
        server._BULK_MIN = 10 ** 9
    rec = _Recorder()
    server.add_observer(rec)
    server.submit_bot(_bot(bot_seed, bot_size), at=0.0)
    sim.run()
    return (rec.events, vars(server.stats).copy(),
            pool._rng.bit_generator.state, sim.events_processed, sim.now,
            server)


# ---------------------------------------------------------------------------
# acquire_many vs scalar acquire
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(fleet_seed=st.integers(0, 1000), n=st.integers(1, 8),
       rng_seed=st.integers(0, 1000), data=st.data())
def test_acquire_many_equals_sequential_acquires(fleet_seed, n, rng_seed,
                                                 data):
    """Bulk acquisition replays the scalar draw sequence exactly —
    same (node, end) pairs, same RNG state — including dry draws and
    interleaved release/preempt churn between batches."""
    pool_a, pool_b = _pool_pair(fleet_seed, n, rng_seed)
    t = 0.0
    for _round in range(6):
        t += float(data.draw(st.integers(0, 80), label="dt"))
        k = data.draw(st.integers(0, n + 2), label="k")
        got_a = pool_a.acquire_many(t, k)
        got_b = []
        for _ in range(k):
            g = pool_b.acquire(t)
            if g is None:
                break
            got_b.append(g)
        assert ([(nd.node_id, end) for nd, end in got_a]
                == [(nd.node_id, end) for nd, end in got_b])
        assert (pool_a._rng.bit_generator.state
                == pool_b._rng.bit_generator.state)
        t += float(data.draw(st.integers(0, 80), label="dt2"))
        for (na, end_a), (nb, _eb) in zip(got_a, got_b):
            if t < end_a:
                pool_a.release(na, t)
                pool_b.release(nb, t)
            else:
                pool_a.preempted(na, t)
                pool_b.preempted(nb, t)
    assert pool_a._ready_end_of == {
        nid: (end, nid if type(e) is int else e.node_id)
        for nid, (end, e) in pool_b._ready_end_of.items()}


# ---------------------------------------------------------------------------
# bulk _dispatch vs the scalar reference
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["boinc", "xwhep"]),
       fleet_seed=st.integers(0, 400), n_nodes=st.integers(2, 10),
       rng_seed=st.integers(0, 400), bot_seed=st.integers(0, 400),
       bot_size=st.integers(1, 12), ready_zero=st.booleans())
def test_bulk_dispatch_transcript_equals_scalar(kind, fleet_seed, n_nodes,
                                                rng_seed, bot_seed,
                                                bot_size, ready_zero):
    """The bulk pairing pass is byte-identical to the scalar loop:
    observer events, stats, processed event count, final clock and the
    pool RNG state all match under arrival storms, preemption waves,
    BOINC timeouts/reissues (which route the pass back to the scalar
    reference) and XWHEP reissue churn.  ``ready_zero`` fleets start
    with every node available so the ready-hint actually routes the
    storm to the bulk pass (scattered fleets mostly exercise the
    hint's scalar routing)."""
    ev_b, stats_b, rng_b, n_b, now_b, _ = _run_world(
        kind, True, fleet_seed, n_nodes, rng_seed, bot_seed, bot_size,
        ready_at_zero=ready_zero)
    ev_s, stats_s, rng_s, n_s, now_s, _ = _run_world(
        kind, False, fleet_seed, n_nodes, rng_seed, bot_seed, bot_size,
        ready_at_zero=ready_zero)
    assert ev_b == ev_s
    assert stats_b == stats_s
    assert rng_b == rng_s
    assert n_b == n_s
    assert now_b == now_s


def test_bulk_dispatch_path_actually_taken():
    """Guard against the fast path silently never engaging: a fresh
    arrival storm over an available pool must run at least one bulk
    pass."""
    from repro.middleware.base import DISPATCH_STATS, reset_dispatch_stats
    reset_dispatch_stats()
    _run_world("boinc", True, fleet_seed=7, n_nodes=8, rng_seed=1,
               bot_seed=3, bot_size=10, ready_at_zero=True)
    assert DISPATCH_STATS["bulk"] > 0
    reset_dispatch_stats()
    _run_world("xwhep", True, fleet_seed=7, n_nodes=8, rng_seed=1,
               bot_seed=3, bot_size=10, ready_at_zero=True)
    assert DISPATCH_STATS["bulk"] > 0


# ---------------------------------------------------------------------------
# TaskColumns / TaskState sync invariant
# ---------------------------------------------------------------------------
def _assert_in_sync(server):
    cols = server.task_cols
    assert len(cols) == len(server.tasks)
    for st_ in server.tasks.values():
        assert cols.gtids[st_.row] == st_.gtid
        assert bool(cols.done[st_.row]) == st_.done
        assert int(cols.outstanding[st_.row]) == st_.outstanding
        assert int(cols.cloud_dups[st_.row]) == st_.cloud_dups
        fa = cols.first_assign[st_.row]
        if st_.first_assign_time is None:
            assert np.isnan(fa)
        else:
            assert fa == st_.first_assign_time


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["boinc", "xwhep"]),
       fleet_seed=st.integers(0, 300), rng_seed=st.integers(0, 300),
       bot_seed=st.integers(0, 300), bot_size=st.integers(1, 10))
def test_task_columns_stay_in_sync_under_churn(kind, fleet_seed, rng_seed,
                                               bot_seed, bot_size):
    """After a full run — assignments, suspensions, preemptions,
    timeouts, reissues, completions — every mirrored column cell
    equals its TaskState field (the HandleLedger-style invariant)."""
    *_, server = _run_world(kind, True, fleet_seed, 6, rng_seed,
                            bot_seed, bot_size)
    _assert_in_sync(server)


def test_task_columns_grow_by_doubling():
    cols = TaskColumns()
    cap0 = cols.done.shape[0]
    for i in range(cap0 + 1):
        row = cols.add(("b", i))
        assert row == i
    assert cols.done.shape[0] == 2 * cap0
    assert len(cols) == cap0 + 1
    assert not cols.done[:cap0 + 1].any()
    assert np.isnan(cols.first_assign[:cap0 + 1]).all()


def test_standalone_task_state_mutators_work_without_columns():
    st_ = TaskState(gtid=("b", 0), task=Task(task_id=0, nops=1.0))
    st_.add_outstanding(1)
    st_.set_first_assign(5.0)
    st_.add_cloud_dups(1)
    st_.mark_done()
    assert (st_.outstanding, st_.first_assign_time,
            st_.cloud_dups, st_.done) == (1, 5.0, 1, True)


# ---------------------------------------------------------------------------
# wake-up teardown
# ---------------------------------------------------------------------------
def test_teardown_cancels_armed_wakeup():
    """A drained run must not keep a dead dispatch wake-up event in the
    heap once the server is torn down."""
    sim = Simulation(horizon=10_000.0)
    node = Node(0, 1000.0, np.asarray([500.0]), np.asarray([600.0]))
    pool = NodePool([node], rng=np.random.default_rng(0))
    server = make_server("xwhep", sim, pool)
    server.submit_bot(BagOfTasks(
        bot_id="b0", tasks=[Task(task_id=0, nops=1000.0)]), at=0.0)
    sim.run(until=100.0)  # arrival found no node: wake-up armed at 500
    assert server._wakeup is not None and not server._wakeup.cancelled
    server.teardown()
    assert server._wakeup is None
    assert sim.pending() == 0


def test_stop_hook_tears_down_harness_servers():
    """The stop-when-complete watcher wires server teardown through the
    engine's stop hooks: after a stopped run no wake-up survives."""
    from repro.experiments.harness import ScenarioHarness

    harness = ScenarioHarness(horizon=1_000_000.0)
    raw = _rand_fleet(11, 6)
    template = columns_from_raw(raw)
    sim = harness.sim
    pool = NodePool(template.fresh(), rng=np.random.default_rng(2))
    server = make_server("xwhep", sim, pool)
    from repro.cloud.registry import get_driver
    driver = get_driver("simulation", sim, rng=np.random.default_rng(3))
    harness.add_dci("d0", server, driver)
    server.submit_bot(_bot(5, 6), at=0.0)
    harness.stop_when_complete(["b0"])
    harness.run()
    assert server._wakeup is None or server._wakeup.cancelled
