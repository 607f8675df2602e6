"""Fixed-seed drift tests against pre-refactor golden outputs.

The goldens under ``tests/data/`` were captured from the runner code
*before* the world assembly was extracted into
:class:`~repro.experiments.harness.ScenarioHarness` (PR 3).  Every
field is compared with exact equality — the harness refactor (and any
later change to assembly order or RNG stream labels) must keep
single-DCI ``run_execution``/``run_multi_tenant`` and the EDGI
deployment bit-identical.  The ``federated`` goldens came later, from
the per-host pool probes the batched ones replaced: three routed
federations whose routers probe every pool at each arrival.  If a
change *intends* to alter simulation semantics, recapture the goldens
and say so in the commit.

The same runs also pin that a simulation leaves no reference cycles
behind: reference counting alone frees everything a run discards, so
the cyclic collector only has to walk the live world.  And they pin
that a run keeps state proportional to what is live, not to its
history: no bill log, no stopped cloud worker kept by the scheduler
or its driver, and every credit deposited still accounted for.
"""

import contextlib
import gc
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from credit_audit import assert_conserved
from repro.cloud.api import CloudInstance, ComputeDriver
from repro.cloud.worker import CloudWorkerHandle, RescheduleAgent
from repro.core.scheduler import SpeQuloSScheduler
from repro.deployment.edgi import EDGIConfig, EDGIDeployment, run_edgi
from repro.experiments.config import (
    DCISpec,
    ExecutionConfig,
    MultiTenantConfig,
    ScenarioConfig,
)
from repro.experiments.runner import (
    run_execution,
    run_federated,
    run_multi_tenant,
)
from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware.boinc import BoincConfig, BoincServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _load(name):
    with open(os.path.join(_DATA, name)) as fh:
        return json.load(fh)


_GOLDENS = _load("drift_goldens.json")
_EDGI = _load("edgi_goldens.json")


def _held(value):
    """The objects one attribute value holds directly."""
    if isinstance(value, dict):
        return value.values()
    if isinstance(value, (list, tuple, set)):
        return value
    return (value,)


def _check_run_state(sim):
    """Assert what a run keeps, right after it with its world still
    referenced, and return its census: how many cloud worker handles,
    Reschedule agents and cloud instances of this world outlive their
    worker's stop.

    * each driver of the world holds its alive instances only;
    * no ``QoSRun`` references a stopped handle, and no stopped handle
      keeps its agent;
    * the credit ledger holds no bill, and credits are conserved.
    """
    objects = gc.get_objects()
    drivers = [o for o in objects if type(o) is ComputeDriver
               and o.sim is sim]
    for driver in drivers:
        assert len(driver.instances) == driver.running_count(), \
            "the driver keeps destroyed instances"
    live = set()
    for sched in (o for o in objects if type(o) is SpeQuloSScheduler
                  and o.sim is sim):
        assert not [e for e in sched.credits.ledger if e[0] == "bill"]
        assert_conserved(sched.credits)
        for run in sched.runs.values():
            for value in vars(run).values():
                assert not any(type(h) is CloudWorkerHandle and h.stopped
                               for h in _held(value)), \
                    f"run {run.bot_id!r} references a stopped worker"
            for handle in run.live.values():
                live.update(map(id, (handle, handle.agent,
                                     handle.instance)))
    owners = {driver._owner for driver in drivers}
    retained = 0
    for obj in objects:
        kind = type(obj)
        if kind is CloudWorkerHandle:
            if obj.stopped:
                assert obj.agent is None, "a stopped worker keeps its agent"
            mine = obj.instance.owner in owners
        elif kind is CloudInstance:
            mine = obj.owner in owners
        elif kind is RescheduleAgent:
            mine = obj.sim is sim
        else:
            continue
        retained += mine and id(obj) not in live
    return retained


@contextlib.contextmanager
def _post_run_garbage():
    """Yield what each ``Simulation.run`` inside the block left: the
    type names of the garbage found right after it (``garbage``) and
    the census of :func:`_check_run_state` (``retained``, one count
    per run), whose assertions it runs too.

    The collector is off meanwhile.  A collection right before every
    run clears what world assembly left (``ast.literal_eval``, which
    NumPy uses to parse ``.npz`` headers, leaves closure cycles); the
    one right after it, with ``gc.DEBUG_SAVEALL`` and the world still
    referenced, sees only cycles the run itself created.  The state
    checks run in between, so they see such cycles too.
    """
    seen = SimpleNamespace(garbage=[], retained=[])
    run = Simulation.run

    def run_then_collect(self, *args, **kwargs):
        gc.collect()
        try:
            result = run(self, *args, **kwargs)
            seen.retained.append(_check_run_state(self))
            return result
        finally:
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                seen.garbage.extend(type(obj).__name__ for obj in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    Simulation.run = run_then_collect
    try:
        yield seen
    finally:
        Simulation.run = run
        if enabled:
            gc.enable()


@pytest.mark.parametrize("golden", _GOLDENS["execution"],
                         ids=lambda g: "-".join(
                             str(g["config"][k]) for k in
                             ("trace", "middleware", "seed")))
def test_run_execution_matches_pre_harness_golden(golden):
    with _post_run_garbage() as seen:
        res = run_execution(ExecutionConfig(**golden["config"]))
    assert seen.garbage == []
    assert res.makespan == golden["makespan"]
    assert res.censored == golden["censored"]
    assert res.events == golden["events"]
    assert [float(x) for x in res.completion_times] == \
        golden["completion_times"]
    assert [float(x) for x in res.tc_grid] == golden["tc_grid"]
    assert res.credits_provisioned == golden["credits_provisioned"]
    assert res.credits_spent == golden["credits_spent"]
    assert res.workers_launched == golden["workers_launched"]
    assert res.cloud_cpu_hours == golden["cloud_cpu_hours"]
    assert res.server_stats == golden["server_stats"]


@pytest.mark.parametrize("golden", _GOLDENS["multi_tenant"],
                         ids=lambda g: "-".join(
                             str(g["config"][k]) for k in
                             ("trace", "policy", "seed")))
def test_run_multi_tenant_matches_pre_harness_golden(golden):
    with _post_run_garbage() as seen:
        res = run_multi_tenant(MultiTenantConfig(**golden["config"]))
    assert seen.garbage == []
    assert res.events == golden["events"]
    assert res.pool_provisioned == golden["pool_provisioned"]
    assert res.pool_spent == golden["pool_spent"]
    assert res.workers_peak == golden["workers_peak"]
    assert len(res.tenants) == len(golden["tenants"])
    for t, g in zip(res.tenants, golden["tenants"]):
        assert t.user == g["user"]
        assert t.arrival == g["arrival"]
        assert t.makespan == g["makespan"]
        assert t.censored == g["censored"]
        assert t.slowdown == g["slowdown"]
        assert t.credits_spent == g["credits_spent"]
        assert t.workers_launched == g["workers_launched"]


def _scenario(config):
    cfg = dict(config)
    cfg["dcis"] = tuple(DCISpec(**d) for d in cfg["dcis"])
    cfg["categories"] = tuple(cfg["categories"])
    cfg["pricing"] = tuple(tuple(p) for p in cfg["pricing"])
    return ScenarioConfig(**cfg)


@pytest.mark.parametrize("golden", _GOLDENS["federated"],
                         ids=lambda g: g["config"]["routing"])
def test_run_federated_matches_golden(golden):
    """A routed federation, byte for byte: the load-reading routers
    probe every pool (``idle_count``) at each arrival, so these pin the
    pool's probe refiles, which decide what later draws see."""
    with _post_run_garbage() as seen:
        res = run_federated(_scenario(golden["config"]))
    assert seen.garbage == []
    assert res.events == golden["events"]
    assert res.pool_provisioned == golden["pool_provisioned"]
    assert res.pool_spent == golden["pool_spent"]
    assert res.workers_peak == golden["workers_peak"]
    assert [{k: getattr(t, k) for k in g} for t, g in
            zip(res.tenants, golden["tenants"])] == golden["tenants"]
    assert [{k: getattr(d, k) for k in g} for d, g in
            zip(res.dcis, golden["dcis"])] == golden["dcis"]
    assert len(res.tenants) == len(golden["tenants"])
    assert len(res.dcis) == len(golden["dcis"])


def test_stopped_cloud_workers_leave_nothing_behind():
    """A Reschedule federation that launches and stops ~2,000 cloud
    workers, run until its last BoT completes: right after the run, a
    census of every tracked object finds no handle, agent or instance
    of a stopped worker.

    Only a pending event can keep one: a worker stopped before it
    boots, or right after it went idle, is held by its boot or fetch
    event until that event runs, and a simulation stopped at the last
    completion never runs it.  This scenario has no such worker."""
    cfg = ScenarioConfig(
        dcis=(DCISpec(trace="nd", middleware="boinc", provider="stratuslab"),
              DCISpec(trace="nd", middleware="xwhep", provider="ec2")),
        seed=11, n_tenants=16, categories=("SMALL",), bot_size=50,
        strategy="9C-G-R", routing="cheapest_drain", pool_fraction=0.3,
        arrival_rate_per_hour=40.0,
        pricing=(("stratuslab", 6.0), ("ec2", 18.0)), horizon_days=15.0)
    with _post_run_garbage() as seen:
        res = run_federated(cfg)
    assert seen.garbage == []
    assert seen.retained == [0]
    assert not any(t.censored for t in res.tenants)
    assert sum(t.workers_launched for t in res.tenants) > 2000


def test_boinc_delay_bound_timeouts_leave_no_cycles():
    """Replicas whose ``delay_bound`` timer fired (lost for good, or
    returning late) and replicas that finished and cancelled theirs
    are all freed by reference count."""
    sim = Simulation(horizon=1e6)
    # node 0 vanishes mid-task for good; node 2 returns long after
    # delay_bound, and its late result is discarded
    nodes = [Node(0, 1000.0, np.array([0.0]), np.array([1.0])),
             Node(1, 1000.0, np.array([0.0]), np.array([1e6])),
             Node(2, 1000.0, np.array([0.0, 5000.0]), np.array([1.0, 1e6]))]
    server = BoincServer(sim, NodePool(nodes, rng=np.random.default_rng(0)),
                         config=BoincConfig(target_nresults=1, min_quorum=1,
                                            delay_bound=100.0))
    server.submit_bot(BagOfTasks(
        bot_id="b", tasks=[Task(i, 2000.0) for i in range(4)]))
    with _post_run_garbage() as seen:
        sim.run()
    assert seen.garbage == []
    assert server.stats.timeouts >= 2
    assert server.stats.discarded_results >= 1
    assert server.bot_completed("b")


def test_edgi_small_run_matches_pre_harness_golden():
    summary = EDGIDeployment(seed=5, horizon_days=3.0).run(
        duration_days=1.5, n_bots=8, bot_size=120)
    assert summary == _EDGI["small"]


@pytest.mark.slow
def test_edgi_table5_matches_committed_results():
    """The acceptance pin: the default EDGIConfig regenerates exactly
    the Table 5 numbers committed under benchmarks/results/."""
    assert run_edgi(EDGIConfig()) == _EDGI["table5"]
