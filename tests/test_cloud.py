"""Cloud substrate: drivers, instances, worker agents, coordinators."""


import math
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.api import (
    CloudError,
    ComputeDriver,
    ProviderProfile,
    QuotaExceeded,
    peak_concurrency,
)
from repro.cloud.registry import PROVIDER_NAMES, get_driver, list_providers
from repro.cloud.worker import CloudDuplicationCoordinator, RescheduleAgent
from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware.xwhep import XWHepServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task


def bot_of(n, nops=1000.0, bot_id="b"):
    return BagOfTasks(bot_id=bot_id,
                      tasks=[Task(i, nops) for i in range(n)],
                      wall_clock=nops / 1000.0)


# ------------------------------------------------------------ peak sweep
def _tuple_sweep(created, destroyed):
    """The historical peak sweep over sorted ``(t, delta)`` tuples,
    kept as :func:`peak_concurrency`'s reference (``inf``: alive)."""
    deltas = []
    for c, d in zip(created, destroyed):
        deltas.append((c, 1))
        if d != math.inf:
            deltas.append((d, -1))
    peak = cur = 0
    for _t, delta in sorted(deltas):
        cur += delta
        peak = max(peak, cur)
    return peak


# few distinct instants, so equal-time creates and destroys are common
_histories = st.lists(st.tuples(
    st.integers(0, 6).map(lambda k: k * 0.5),
    st.one_of(st.none(), st.integers(0, 4).map(lambda k: k * 0.5))),
    max_size=40).map(lambda rows: (
        [c for c, _d in rows],
        [math.inf if d is None else c + d for c, d in rows]))


@given(_histories)
@settings(max_examples=300, deadline=None)
def test_peak_concurrency_matches_tuple_sweep(history):
    created, destroyed = history
    expected = _tuple_sweep(created, destroyed)
    assert peak_concurrency(created, destroyed) == expected
    assert peak_concurrency(array("d", created),
                            array("d", destroyed)) == expected


def test_peak_concurrency_edges():
    inf = math.inf
    assert peak_concurrency([], []) == 0
    # a destroy and a create at one instant: the destroy goes first
    assert peak_concurrency([0.0, 5.0], [5.0, inf]) == 1
    # never-destroyed instances count to the end of the history
    assert peak_concurrency([3.0, 1.0, 2.0], [inf, inf, inf]) == 3
    assert isinstance(peak_concurrency([0.0], [0.0]), int)


#: driver steps: create, destroy the k-th instance made (destroyed ones
#: included), or advance the clock (by 0: equal instants)
_driver_steps = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40)),
                         max_size=60)


@given(_driver_steps)
@settings(max_examples=200, deadline=None)
def test_driver_history_matches_per_instance_record(steps):
    """The driver keeps alive instances only, yet its CPU·hours and
    peak equal the per-instance figures over every instance it made."""
    sim = SimpleNamespace(now=0.0)
    drv = ComputeDriver(ProviderProfile("p", boot_delay=0.0), sim,
                        rng=np.random.default_rng(0))
    made = []  # [instance, created_at, destroyed_at or None]
    for op, k in steps:
        if op == 0:
            made.append([drv.create_node(), sim.now, None])
        elif op == 1 and made:
            record = made[k % len(made)]
            drv.destroy_node(record[0])  # a second destroy is a no-op
            if record[2] is None:
                record[2] = sim.now
        else:
            sim.now += k * 0.37  # not exact in binary: sums are ordered
        alive = [inst for inst, _c, d in made if d is None]
        assert list(drv.instances.values()) == alive
        assert drv.running_count() == len(alive)
    now = sim.now
    expected = sum(max(0.0, (now if d is None else d) - c)
                   for _inst, c, d in made) / 3600.0
    assert drv.total_cpu_hours() == expected
    assert drv.peak_concurrency() == _tuple_sweep(
        [c for _inst, c, _d in made],
        [math.inf if d is None else d for _inst, _c, d in made])


# ----------------------------------------------------------------- drivers
def test_registry_has_paper_providers():
    for name in ("ec2", "eucalyptus", "rackspace", "opennebula",
                 "stratuslab", "nimbus", "grid5000", "simulation"):
        assert name in PROVIDER_NAMES


def test_registry_unknown_provider():
    with pytest.raises(KeyError):
        get_driver("azure", Simulation())


def test_list_providers_profiles():
    profiles = {p.name: p for p in list_providers()}
    assert profiles["simulation"].boot_delay == 0.0
    assert profiles["ec2"].boot_delay > 0.0
    assert profiles["grid5000"].power_std == 0.0


def test_create_node_boot_delay_and_power():
    sim = Simulation()
    drv = get_driver("ec2", sim, rng=np.random.default_rng(0))
    sim.at(100.0, lambda: None)
    sim.run()
    inst = drv.create_node(tag="t")
    assert inst.created_at == 100.0
    assert inst.boot_end == pytest.approx(100.0 + 120.0)
    assert inst.node.cloud
    assert inst.node.interval_at(inst.boot_end) is not None
    assert inst.node.power > 50


def test_instance_ids_unique_across_drivers():
    sim = Simulation()
    a = get_driver("ec2", sim).create_node()
    b = get_driver("nimbus", sim).create_node()
    assert a.instance_id != b.instance_id


def test_destroy_node_and_cpu_accounting():
    sim = Simulation()
    drv = get_driver("simulation", sim)
    inst = drv.create_node()
    sim.at(7200.0, lambda: drv.destroy_node(inst))
    sim.run()
    assert drv.list_nodes() == [] and drv.instances == {}
    assert list(drv.created) == [0.0]
    assert list(drv.destroyed) == [7200.0]
    assert drv.total_cpu_hours() == pytest.approx(2.0)


def test_destroy_unknown_instance():
    sim = Simulation()
    drv = get_driver("simulation", sim)
    other = get_driver("simulation", sim).create_node()
    with pytest.raises(CloudError):
        drv.destroy_node(other)


def test_destroy_node_is_idempotent_and_checks_ownership():
    sim = Simulation()
    drv = get_driver("simulation", sim)
    inst = drv.create_node()
    drv.destroy_node(inst)
    drv.destroy_node(inst)  # no-op
    assert drv.running_count() == 0 and drv.instances == {}
    assert list(drv.destroyed) == [0.0]
    # another driver's instance, destroyed there, holds a row this
    # driver has too: it is still not this driver's to destroy
    other = get_driver("simulation", sim)
    foreign = other.create_node()
    other.destroy_node(foreign)
    assert foreign.row == inst.row == 0
    with pytest.raises(CloudError):
        drv.destroy_node(foreign)
    alive_foreign = other.create_node()
    with pytest.raises(CloudError):
        drv.destroy_node(alive_foreign)
    assert other.running_count() == 1 and drv.running_count() == 0


def test_quota_enforced():
    sim = Simulation()
    profile = ProviderProfile("tiny", boot_delay=0.0, max_instances=2)
    drv = ComputeDriver(profile, sim)
    drv.create_node()
    drv.create_node()
    with pytest.raises(QuotaExceeded):
        drv.create_node()


def test_quota_frees_on_destroy():
    sim = Simulation()
    profile = ProviderProfile("tiny", boot_delay=0.0, max_instances=1)
    drv = ComputeDriver(profile, sim)
    inst = drv.create_node()
    drv.destroy_node(inst)
    drv.create_node()  # no raise
    assert drv.running_count() == 1
    assert len(drv.list_nodes()) == 1
    assert len(drv.created) == len(drv.destroyed) == 2


# ---------------------------------------------------------------- agents
def build_server(nodes, pool_seed=0):
    sim = Simulation(horizon=1e7)
    pool = NodePool(nodes, rng=np.random.default_rng(pool_seed))
    srv = XWHepServer(sim, pool)
    return sim, srv


def test_reschedule_agent_drains_pending_queue():
    # one very slow regular node, agent handles the rest
    slow = Node(1, 1.0, np.array([0.0]), np.array([1e9]))
    sim, srv = build_server([slow])
    srv.submit_bot(bot_of(5, nops=1000.0))
    cloud = Node.stable(99, power=1000.0)
    agent = RescheduleAgent(sim, srv, cloud)
    agent.start()
    done = {}
    class Obs:
        def on_bot_completed(self, bid, t):
            done["t"] = t
    srv.add_observer(Obs())
    sim.run(until=5e6)
    assert "t" in done
    assert agent.units_fetched >= 4


def test_reschedule_agent_starvation_callback():
    sim, srv = build_server([Node(1, 1000.0, np.array([0.0]),
                                  np.array([1e9]))])
    srv.submit_bot(bot_of(1, nops=1000.0))
    starved = []
    cloud = Node.stable(99, power=1000.0)
    agent = RescheduleAgent(sim, srv, cloud,
                            on_starved=lambda a: starved.append(a))
    sim.at(100.0, agent.start)  # after the BoT completed
    sim.run()
    assert starved == [agent]


def test_reschedule_agent_stop_detaches():
    sim, srv = build_server([Node(1, 1.0, np.array([0.0]),
                                  np.array([1e9]))])
    srv.submit_bot(bot_of(3, nops=1000.0))
    cloud = Node.stable(99, power=1000.0)
    agent = RescheduleAgent(sim, srv, cloud)
    agent.start()
    sim.at(1.5, agent.stop)
    sim.run(until=10.0)
    fetched_at_stop = agent.units_fetched
    sim.run(until=1000.0)
    assert agent.units_fetched == fetched_at_stop


def test_coordinator_sync_orders_pending_before_running():
    slow = Node(1, 1.0, np.array([0.0]), np.array([1e9]))
    sim, srv = build_server([slow])
    srv.submit_bot(bot_of(3, nops=1000.0))
    coord = CloudDuplicationCoordinator(sim, srv, "b")
    def sync():
        fresh = coord.sync()
        assert fresh == 3
        head = coord.queue[0]
        # the never-assigned tasks come first
        assert srv.tasks[head].first_assign_time is None
    sim.at(1.0, sync)
    sim.run(until=2.0)


def test_coordinator_completes_tasks_and_merges():
    slow = Node(1, 1.0, np.array([0.0]), np.array([1e9]))
    sim, srv = build_server([slow])
    srv.submit_bot(bot_of(4, nops=1000.0))
    coord = CloudDuplicationCoordinator(sim, srv, "b")
    cloud = Node.stable(99, power=1000.0)
    done = {}
    class Obs:
        def on_bot_completed(self, bid, t):
            done["t"] = t
    srv.add_observer(Obs())
    def go():
        coord.sync()
        coord.add_worker(cloud)
    sim.at(1.0, go)
    sim.run(until=1e6)
    assert done["t"] < 10.0
    assert coord.completions >= 3
    assert coord.busy_seconds(cloud) > 0


def test_coordinator_skips_tasks_completed_on_dci():
    fast = Node(1, 1000.0, np.array([0.0]), np.array([1e9]))
    sim, srv = build_server([fast])
    srv.submit_bot(bot_of(2, nops=1000.0))
    coord = CloudDuplicationCoordinator(sim, srv, "b")
    starved = []
    coord._on_starved = lambda c, n: starved.append(n)
    cloud = Node.stable(99, power=1000.0)
    def go():
        coord.sync()
        coord.add_worker(cloud)
    sim.at(50.0, go)  # both tasks already done on the DCI by then
    sim.run()
    assert coord.completions == 0
    assert starved  # nothing useful to execute


def test_coordinator_double_sync_no_duplicates():
    slow = Node(1, 1.0, np.array([0.0]), np.array([1e9]))
    sim, srv = build_server([slow])
    srv.submit_bot(bot_of(3, nops=1000.0))
    coord = CloudDuplicationCoordinator(sim, srv, "b")
    def syncs():
        coord.sync()
        assert coord.sync() == 0
        assert coord.backlog() == 3
    sim.at(1.0, syncs)
    sim.run(until=2.0)
