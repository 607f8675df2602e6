"""Multi-tenant QoS arbitration: pools, tenant streams, contention.

The headline scenario (the acceptance bar for the multi-tenant
subsystem): eight concurrent BoTs on one BE-DCI share one credit pool
sized far below aggregate demand.  Under every arbitration policy all
BoTs complete and the pooled spend never exceeds the provision; the
whole scenario is bit-reproducible from its seed; and fair-share ends
with a strictly tighter per-tenant slowdown spread than FIFO.
"""

import numpy as np
import pytest

from repro.core.credit import CreditSystem, InsufficientCredits
from repro.core.scheduler import ARBITRATION_POLICIES, CloudArbiter
from repro.experiments.config import MultiTenantConfig
from repro.experiments.runner import run_multi_tenant
from repro.workload.tenants import generate_tenants, poisson_arrivals


# ---------------------------------------------------------------- pools
def test_pool_open_join_bill_close_cycle():
    cs = CreditSystem()
    cs.deposit("org", 100.0)
    pool = cs.open_pool("p", "org", 60.0)
    assert cs.balance("org") == pytest.approx(40.0)
    cs.join_pool("a", "p")
    cs.join_pool("b", "p")
    assert cs.bill("a", 25.0) == pytest.approx(25.0)
    assert cs.bill("b", 50.0) == pytest.approx(35.0)  # clamped to pool
    assert pool.spent == pytest.approx(60.0)
    assert not cs.has_credits("a") and not cs.has_credits("b")
    spent, refund = cs.close_pool("p")
    assert spent == pytest.approx(60.0) and refund == pytest.approx(0.0)
    assert cs.balance("org") == pytest.approx(40.0)


def test_pool_close_refunds_remainder_and_closes_members():
    cs = CreditSystem()
    cs.deposit("org", 50.0)
    cs.open_pool("p", "org", 50.0)
    cs.join_pool("a", "p")
    cs.bill("a", 10.0)
    # member close pays nothing back on its own
    assert cs.close("a") == (pytest.approx(10.0), 0.0)
    spent, refund = cs.close_pool("p")
    assert spent == pytest.approx(10.0) and refund == pytest.approx(40.0)
    assert cs.balance("org") == pytest.approx(40.0)
    assert cs.bill("a", 5.0) == 0.0  # closed orders bill nothing


def test_pool_spend_never_exceeds_provision_under_any_billing():
    cs = CreditSystem()
    cs.deposit("org", 30.0)
    pool = cs.open_pool("p", "org", 30.0)
    for i in range(6):
        cs.join_pool(f"bot{i}", "p")
    rng = np.random.default_rng(0)
    for _ in range(200):
        cs.bill(f"bot{rng.integers(6)}", float(rng.uniform(0, 5)))
    assert pool.spent <= pool.provisioned + 1e-9
    assert sum(cs.spent(f"bot{i}") for i in range(6)) == \
        pytest.approx(pool.spent)


def test_pool_allowance_caps_member_spend():
    cs = CreditSystem()
    cs.deposit("org", 100.0)
    cs.open_pool("p", "org", 100.0)
    cs.join_pool("a", "p")
    cs.set_allowance("a", 15.0)
    assert cs.remaining_for("a") == pytest.approx(15.0)
    assert cs.bill("a", 40.0) == pytest.approx(15.0)
    assert not cs.has_credits("a")
    cs.set_allowance("a", None)  # lift the cap: pool remainder is back
    assert cs.remaining_for("a") == pytest.approx(85.0)


def test_pool_guards():
    cs = CreditSystem()
    with pytest.raises(InsufficientCredits):
        cs.open_pool("p", "poor", 10.0)
    cs.deposit("org", 20.0)
    cs.open_pool("p", "org", 10.0)
    with pytest.raises(ValueError):
        cs.open_pool("p", "org", 5.0)       # already open
    with pytest.raises(KeyError):
        cs.join_pool("a", "nope")
    cs.join_pool("a", "p")
    with pytest.raises(ValueError):
        cs.join_pool("a", "p")              # open order exists
    with pytest.raises(ValueError):
        cs.open_pool("q", "org", 5.0, expected_members=0)


# -------------------------------------------------------- tenant stream
def test_poisson_arrivals_start_at_zero_and_are_sorted():
    rng = np.random.default_rng(5)
    t = poisson_arrivals(rng, 16, rate_per_hour=4.0)
    assert t[0] == 0.0
    assert np.all(np.diff(t) >= 0)
    with pytest.raises(ValueError):
        poisson_arrivals(rng, 0, 1.0)
    with pytest.raises(ValueError):
        poisson_arrivals(rng, 3, 0.0)


def test_generate_tenants_is_seed_reproducible():
    a = generate_tenants(np.random.default_rng(11), 6, bot_size=20)
    b = generate_tenants(np.random.default_rng(11), 6, bot_size=20)
    assert [t.arrival for t in a] == [t.arrival for t in b]
    assert [t.bot_id for t in a] == [t.bot_id for t in b]
    assert all(x.bot.size == 20 for x in a)


def test_generate_tenants_cycles_categories_and_sets_deadlines():
    subs = generate_tenants(np.random.default_rng(3), 4,
                            categories=("SMALL", "BIG"), bot_size=15,
                            deadline_factor=0.5)
    assert [s.bot.category for s in subs] == ["SMALL", "BIG",
                                              "SMALL", "BIG"]
    for s in subs:
        assert s.deadline == pytest.approx(
            s.arrival + 0.5 * s.bot.size * s.bot.wall_clock)


def test_generate_tenants_explicit_arrivals_validated():
    rng = np.random.default_rng(0)
    subs = generate_tenants(rng, 3, arrivals=[0.0, 5.0, 5.0], bot_size=12)
    assert [s.arrival for s in subs] == [0.0, 5.0, 5.0]
    with pytest.raises(ValueError):
        generate_tenants(rng, 3, arrivals=[0.0, 5.0], bot_size=12)
    with pytest.raises(ValueError):
        generate_tenants(rng, 2, arrivals=[5.0, 1.0], bot_size=12)


# ----------------------------------------------------------- arbitration
def test_arbiter_rejects_unknown_policy():
    with pytest.raises(ValueError):
        CloudArbiter("round-robin")
    with pytest.raises(ValueError):
        CloudArbiter("fifo", max_total_workers=0)


def test_multi_tenant_config_validation():
    good = dict(trace="seti", middleware="boinc", seed=1)
    MultiTenantConfig(**good)
    with pytest.raises(ValueError):
        MultiTenantConfig(**good, policy="lottery")
    with pytest.raises(ValueError):
        MultiTenantConfig(**good, n_tenants=0)
    with pytest.raises(ValueError):
        MultiTenantConfig(**good, categories=("HUGE",))
    with pytest.raises(ValueError):
        MultiTenantConfig(**good, n_tenants=2, arrivals=(0.0,))
    with pytest.raises(ValueError):
        MultiTenantConfig(**good, pool_fraction=0.0)


# ------------------------------------------------- the contended scenario
#: eight SMALL BoTs on one volatile BOINC DCI; the pool holds ~0.6 % of
#: the aggregate declared workload, so whoever is served late under a
#: take-all policy is left to the middleware's day-long result deadline
def _contended(policy: str, seed: int = 99) -> MultiTenantConfig:
    return MultiTenantConfig(
        trace="seti", middleware="boinc", seed=seed, n_tenants=8,
        bot_size=40, strategy="9C-C-D", policy=policy,
        max_total_workers=8, pool_fraction=0.006, deadline_factor=0.5)


@pytest.fixture(scope="module")
def contended_results():
    return {p: run_multi_tenant(_contended(p)) for p in ARBITRATION_POLICIES}


def test_all_policies_complete_all_tenants(contended_results):
    for policy, res in contended_results.items():
        assert len(res.tenants) == 8
        assert res.censored_count == 0, policy
        assert all(t.makespan > 0 for t in res.tenants)


def test_contended_scenario_is_seed_reproducible(contended_results):
    again = run_multi_tenant(_contended("fairshare"))
    base = contended_results["fairshare"]
    assert [t.makespan for t in again.tenants] == \
        [t.makespan for t in base.tenants]
    assert [t.credits_spent for t in again.tenants] == \
        [t.credits_spent for t in base.tenants]
    assert again.pool_spent == base.pool_spent
    assert again.events == base.events


def test_pooled_spend_never_exceeds_provision(contended_results):
    for policy, res in contended_results.items():
        assert res.pool_spent <= res.pool_provisioned + 1e-9, policy
        assert sum(t.credits_spent for t in res.tenants) == \
            pytest.approx(res.pool_spent)


def test_worker_budget_is_respected(contended_results):
    for policy, res in contended_results.items():
        assert res.workers_peak <= 8, policy


def test_fairshare_beats_fifo_on_slowdown_spread(contended_results):
    fifo = contended_results["fifo"]
    fair = contended_results["fairshare"]
    # the contended regime must actually bind: FIFO drains the pool
    assert fifo.pool_used_pct == pytest.approx(100.0, abs=0.5)
    assert fair.slowdown_spread < fifo.slowdown_spread
    # fair-share's equalization also shows in Jain's index
    assert fair.fairness > fifo.fairness


def test_deadline_policy_ran_with_deadlines_set(contended_results):
    res = contended_results["deadline"]
    assert all(t.deadline is not None for t in res.tenants)


def test_service_order_is_edf_under_deadline_policy():
    from repro.core.scheduler import QoSRun

    def stub(bot_id, deadline):
        return QoSRun(bot_id=bot_id, server=None, driver=None,
                      monitor=None, oracle=None, combo=None,
                      deadline=deadline)

    runs = [stub("b0", 300.0), stub("b1", None),
            stub("b2", 100.0), stub("b3", 200.0)]
    edf = CloudArbiter("deadline").service_order(runs, now=0.0)
    assert [r.bot_id for r in edf] == ["b2", "b3", "b0", "b1"]
    fifo = CloudArbiter("fifo").service_order(runs, now=0.0)
    assert [r.bot_id for r in fifo] == ["b0", "b1", "b2", "b3"]


def test_pooled_order_launches_workers_without_arbiter():
    """The arbiter is optional: a pooled order alone must still fund
    cloud workers (regression: _launch used to size against the pooled
    order's own provisioned=0 instead of the pool remainder)."""
    from repro.cloud.registry import get_driver
    from repro.core.service import SpeQuloS
    from repro.infra.catalog import get_trace_spec
    from repro.infra.node import nodes_from_flat
    from repro.infra.pool import NodePool
    from repro.middleware import make_server
    from repro.simulator.engine import Simulation
    from repro.workload.bot import BagOfTasks

    sim = Simulation(horizon=5 * 86400.0)
    nodes = nodes_from_flat(*get_trace_spec("nd").materialize(
        np.random.default_rng(1), 5 * 86400.0, 40))
    server = make_server("xwhep", sim,
                         NodePool(nodes, rng=np.random.default_rng(2)))
    service = SpeQuloS(sim)  # no arbiter
    service.connect_dci("d", server, get_driver("simulation", sim))
    bot = BagOfTasks.homogeneous("b", 40, 3_600_000.0, 11_000.0)
    service.register_qos(bot, "d")
    service.credits.deposit("org", 1000.0)
    service.open_qos_pool("p", "org", 1000.0)
    service.order_qos_pooled("b", "p")
    server.submit_bot(bot)
    sim.run()
    run = service.run_for("b")
    assert run.workers_launched > 0
    pool = service.credits.get_pool("p")
    assert 0.0 < pool.spent <= pool.provisioned


def test_uncontended_single_tenant_all_policies_agree():
    results = {}
    for policy in ARBITRATION_POLICIES:
        cfg = MultiTenantConfig(
            trace="nd", middleware="xwhep", seed=4, n_tenants=1,
            bot_size=30, strategy="9C-C-R", policy=policy,
            pool_fraction=0.10)
        results[policy] = run_multi_tenant(cfg)
    makespans = {p: r.tenants[0].makespan for p, r in results.items()}
    assert len(set(makespans.values())) == 1  # no contention, no policy
    assert all(r.slowdown_spread == pytest.approx(1.0)
               for r in results.values())
