"""SpeQuloS service + Scheduler: the full §3 control loop."""

import numpy as np
import pytest

from repro.cloud.registry import get_driver
from repro.core import scheduler
from repro.core.credit import CREDITS_PER_CPU_HOUR
from repro.core.scheduler import SchedulerConfig
from repro.core.service import SpeQuloS
from repro.core.strategies import parse_combo
from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware.xwhep import XWHepServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task


def bot_of(n, nops=100_000.0, bot_id="b", wall_clock=None):
    return BagOfTasks(
        bot_id=bot_id, tasks=[Task(i, nops) for i in range(n)],
        wall_clock=wall_clock if wall_clock is not None else nops / 1000.0)


def make_stack(nodes, pool_seed=0, scheduler_config=None):
    sim = Simulation(horizon=1e7)
    pool = NodePool(nodes, rng=np.random.default_rng(pool_seed))
    srv = XWHepServer(sim, pool)
    speq = SpeQuloS(sim, scheduler_config=scheduler_config)
    driver = get_driver("simulation", sim, rng=np.random.default_rng(1))
    speq.connect_dci("dci", srv, driver)
    return sim, srv, speq, driver


@pytest.fixture
def launched(monkeypatch):
    """Every cloud worker handle the scheduler creates, in launch
    order (the run itself keeps only the workers not yet stopped)."""
    handles = []
    make = scheduler.CloudWorkerHandle

    def record(instance, deploy_mode):
        handles.append(make(instance, deploy_mode))
        return handles[-1]

    monkeypatch.setattr(scheduler, "CloudWorkerHandle", record)
    return handles


def slow_nodes(n, power=10.0):
    """Stable but slow: tasks take nops/power seconds."""
    return [Node(i, power, np.array([0.0]), np.array([1e9]))
            for i in range(n)]


def run_to_completion(sim, srv, bot_id):
    done = {}
    class Obs:
        def on_bot_completed(self, bid, t):
            if bid == bot_id:
                done["t"] = t
                sim.stop()
    srv.add_observer(Obs())
    sim.run()
    return done.get("t")


def test_register_requires_known_dci():
    sim, srv, speq, _ = make_stack(slow_nodes(2))
    with pytest.raises(KeyError):
        speq.register_qos(bot_of(2), "nowhere")


def test_order_requires_registration():
    sim, srv, speq, _ = make_stack(slow_nodes(2))
    speq.credits.deposit("u", 100.0)
    with pytest.raises(KeyError):
        speq.order_qos("ghost", "u", 50.0)


def straggler_nodes(n_fast=9, fast_power=100.0, slow_power=10.0):
    """n_fast quick nodes plus one straggler: completions stagger, the
    90 % trigger fires early and the last task becomes the tail."""
    nodes = [Node(i, fast_power, np.array([0.0]), np.array([1e9]))
             for i in range(n_fast)]
    nodes.append(Node(n_fast, slow_power, np.array([0.0]),
                      np.array([1e9])))
    return nodes


def test_cloud_workers_start_after_trigger_and_speed_up():
    """9 tasks finish at 1000 s; the straggler would take 10_000 s but
    the 90 %-completion trigger duplicates it onto the cloud."""
    sim, srv, speq, driver = make_stack(straggler_nodes())
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci", parse_combo("9C-C-R"))
    provision = 0.10 * bot.workload_cpu_hours * CREDITS_PER_CPU_HOUR
    speq.credits.deposit("u", provision)
    speq.order_qos(bot.bot_id, "u", provision)
    srv.submit_bot(bot, at=0.0)
    t = run_to_completion(sim, srv, bot.bot_id)
    run = speq.run_for(bot.bot_id)
    assert run.started
    assert run.workers_launched >= 1
    assert speq.credits.spent(bot.bot_id) > 0
    assert t < 2500.0  # tail removed (baseline: 10_000 s)


def test_order_settled_and_refunded_on_completion(launched):
    nodes = slow_nodes(10, power=10.0)
    sim, srv, speq, _ = make_stack(nodes)
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci")
    speq.credits.deposit("u", 1000.0)
    speq.order_qos(bot.bot_id, "u", 500.0)
    srv.submit_bot(bot, at=0.0)
    run_to_completion(sim, srv, bot.bot_id)
    order = speq.credits.get_order(bot.bot_id)
    assert order.closed
    assert speq.credits.balance("u") == pytest.approx(1000.0 - order.spent)
    run = speq.run_for(bot.bot_id)
    assert run.finished
    assert len(launched) == run.workers_launched
    assert all(h.stopped for h in launched)
    assert not run.live


def test_no_credits_no_cloud():
    nodes = slow_nodes(5, power=10.0)
    sim, srv, speq, driver = make_stack(nodes)
    bot = bot_of(5, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci")
    srv.submit_bot(bot, at=0.0)
    run_to_completion(sim, srv, bot.bot_id)
    assert speq.run_for(bot.bot_id).workers_launched == 0
    assert driver.total_cpu_hours() == 0.0


def test_billing_is_busy_time_at_fixed_rate(launched, monkeypatch):
    """Spend is the workers' busy CPU time at the paper's fixed rate.

    The straggler fleet fires the 90 % trigger, so workers launch.  A
    spy on ``_busy_seconds`` records the busy seconds each worker is
    settled on at its stop; the server forgets them right after."""
    settled = {}
    busy_seconds = scheduler.SpeQuloSScheduler._busy_seconds

    def spy(self, run, handle):
        settled[handle] = busy_seconds(self, run, handle)
        return settled[handle]

    monkeypatch.setattr(scheduler.SpeQuloSScheduler, "_busy_seconds", spy)
    sim, srv, speq, _ = make_stack(straggler_nodes())
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci", parse_combo("9C-C-R"))
    speq.credits.deposit("u", 10_000.0)
    speq.order_qos(bot.bot_id, "u", 10_000.0)
    srv.submit_bot(bot, at=0.0)
    run_to_completion(sim, srv, bot.bot_id)
    run = speq.run_for(bot.bot_id)
    assert run.workers_launched > 0
    assert len(launched) == run.workers_launched
    assert set(settled) == set(launched)
    spent = speq.credits.spent(bot.bot_id)
    assert spent > 0.0
    expected = sum(settled.values()) / 3600.0 * CREDITS_PER_CPU_HOUR
    assert spent == pytest.approx(expected, rel=1e-9)
    assert all(srv.cloud_busy_seconds(h.node) == 0.0 for h in launched)


def test_credit_exhaustion_stops_workers():
    cfg = SchedulerConfig(tick_period=60.0)
    sim, srv, speq, driver = make_stack(straggler_nodes(),
                                        scheduler_config=cfg)
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci", parse_combo("9A-G-R"))
    # a tiny order: enough to trigger but not to finish the tail
    speq.credits.deposit("u", 0.5)
    speq.order_qos(bot.bot_id, "u", 0.5)
    srv.submit_bot(bot, at=0.0)
    run_to_completion(sim, srv, bot.bot_id)
    run = speq.run_for(bot.bot_id)
    assert run.stop_reason in ("credits exhausted", "bot completed")
    assert speq.credits.spent(bot.bot_id) <= 0.5 + 1e-6


def test_greedy_releases_never_assigned_workers(launched):
    """Greedy launches S workers; those that get no unit stop after a
    tick instead of lingering."""
    cfg = SchedulerConfig(tick_period=60.0, greedy_release_grace=60.0)
    sim, srv, speq, driver = make_stack(straggler_nodes(),
                                        scheduler_config=cfg)
    # huge wall_clock -> large S; only one task remains to duplicate
    bot = bot_of(10, nops=100_000.0, wall_clock=360_000.0)
    speq.register_qos(bot, "dci", parse_combo("9C-G-D"))
    provision = 0.10 * bot.workload_cpu_hours * CREDITS_PER_CPU_HOUR
    speq.credits.deposit("u", provision)
    speq.order_qos(bot.bot_id, "u", provision)
    srv.submit_bot(bot, at=0.0)
    run_to_completion(sim, srv, bot.bot_id)
    run = speq.run_for(bot.bot_id)
    assert run.workers_launched > 4  # greedy over-provisioned
    # but the extra ones were stopped without ever computing
    assert len(launched) == run.workers_launched
    idle_stopped = [h for h in launched
                    if h.stopped and not h.ever_assigned]
    assert idle_stopped


def test_flat_deployment_joins_pool():
    sim, srv, speq, _ = make_stack(straggler_nodes())
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci", parse_combo("9A-C-F"))
    provision = 0.10 * bot.workload_cpu_hours * CREDITS_PER_CPU_HOUR
    speq.credits.deposit("u", provision)
    speq.order_qos(bot.bot_id, "u", provision)
    srv.submit_bot(bot, at=0.0)
    t = run_to_completion(sim, srv, bot.bot_id)
    assert speq.run_for(bot.bot_id).started
    assert t <= 10_000.0 + 1.0


def test_cloud_duplication_deployment():
    sim, srv, speq, _ = make_stack(straggler_nodes())
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci", parse_combo("9C-C-D"))
    provision = 0.10 * bot.workload_cpu_hours * CREDITS_PER_CPU_HOUR
    speq.credits.deposit("u", provision)
    speq.order_qos(bot.bot_id, "u", provision)
    srv.submit_bot(bot, at=0.0)
    t = run_to_completion(sim, srv, bot.bot_id)
    run = speq.run_for(bot.bot_id)
    assert run.coordinator is not None
    assert run.coordinator.completions >= 1
    assert t < 2500.0  # straggler executed on the cloud side


def test_prediction_flow_through_service():
    nodes = slow_nodes(10, power=10.0)
    sim, srv, speq, _ = make_stack(nodes)
    bot = bot_of(10, nops=100_000.0, wall_clock=10_000.0)
    speq.register_qos(bot, "dci")
    srv.submit_bot(bot, at=0.0)
    preds = {}
    def ask():
        preds["p"] = speq.get_prediction(bot.bot_id)
    sim.at(5000.0, ask)  # nothing finished yet (all complete at 10000)
    run_to_completion(sim, srv, bot.bot_id)
    assert preds["p"] is None  # no completions at 50% of wall time
    # after completion the execution is archived for future alpha fits
    env = speq.env_key("dci", bot.category)
    assert len(speq.info.history(env)) == 1


def test_history_archived_enables_prediction_next_time():
    sim, srv, speq, _ = make_stack(straggler_nodes())
    first = bot_of(10, nops=100_000.0, bot_id="b1", wall_clock=10_000.0)
    speq.register_qos(first, "dci")
    srv.submit_bot(first, at=0.0)
    run_to_completion(sim, srv, "b1")

    second = bot_of(10, nops=100_000.0, bot_id="b2", wall_clock=10_000.0)
    t0 = sim.now
    speq.register_qos(second, "dci")
    srv.submit_bot(second, at=t0)
    preds = {}

    def ask():
        preds["p"] = speq.get_prediction("b2")
    # 9 fast tasks complete 1000 s in; ask mid-flight (90 % done)
    sim.at(t0 + 1500.0, ask)
    sim.run(until=t0 + 2000.0)
    assert preds["p"] is not None
    assert preds["p"].history_size == 1
    assert preds["p"].at_fraction == pytest.approx(0.9)


def test_duplicate_dci_rejected():
    sim, srv, speq, driver = make_stack(slow_nodes(2))
    with pytest.raises(ValueError):
        speq.connect_dci("dci", srv, driver)


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(tick_period=0.0)
    with pytest.raises(ValueError):
        SchedulerConfig(idle_grace=-1.0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_workers=0)


def test_max_workers_cap():
    cfg = SchedulerConfig(max_workers=2)
    sim, srv, speq, _ = make_stack(straggler_nodes(),
                                   scheduler_config=cfg)
    bot = bot_of(10, nops=100_000.0, wall_clock=100_000.0)
    speq.register_qos(bot, "dci", parse_combo("9C-G-R"))
    speq.credits.deposit("u", 1e6)
    speq.order_qos(bot.bot_id, "u", 1e6)
    srv.submit_bot(bot, at=0.0)
    run_to_completion(sim, srv, bot.bot_id)
    assert speq.run_for(bot.bot_id).workers_launched <= 2
