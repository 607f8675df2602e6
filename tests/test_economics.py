"""Economics plane: pricing, billing, deposits — units + invariants.

The hypothesis suites pin the ISSUE's three economics invariants:
pooled spend never exceeds provision under heterogeneous per-provider
rates; billing is additive across providers; a uniform price book
reproduces the fixed-rate totals bit-identically.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credit_audit import record_bills
from repro.core.credit import CREDITS_PER_CPU_HOUR, CreditSystem
from repro.economics import (
    AccountTopUp,
    AllowanceRation,
    BillingMeter,
    DepositSchedule,
    PoolTopUp,
    PriceBook,
    ProviderPricing,
    parse_pricing,
    spot_rate,
)
from repro.simulator.engine import Simulation

PROVIDERS = ("stratuslab", "ec2", "grid5000")


# ---------------------------------------------------------------- pricing
def test_pricebook_default_is_paper_rate():
    book = PriceBook()
    assert book.rate("anything") == CREDITS_PER_CPU_HOUR
    assert book.is_uniform


def test_pricebook_per_provider_rates_and_case():
    book = PriceBook.from_pairs((("StratusLab", 6.0), ("ec2", 18.0)))
    assert book.rate("stratuslab") == 6.0
    assert book.rate("EC2") == 18.0
    assert book.rate("nimbus") == CREDITS_PER_CPU_HOUR
    assert not book.is_uniform
    assert book.providers() == ["ec2", "stratuslab"]


def test_pricebook_time_varying_hook():
    book = PriceBook(rates={"ec2": lambda now: 10.0 + now / 3600.0})
    assert book.rate("ec2", 0.0) == 10.0
    assert book.rate("ec2", 7200.0) == 12.0


def test_pricebook_spot_tier_falls_back_to_ondemand():
    pricing = ProviderPricing(ondemand=18.0, spot=5.0)
    assert pricing.rate(tier="spot") == 5.0
    assert pricing.rate(tier="ondemand") == 18.0
    no_spot = ProviderPricing(ondemand=18.0)
    assert no_spot.rate(tier="spot") == 18.0
    with pytest.raises(ValueError):
        no_spot.rate(tier="reserved")


def test_spot_rate_follows_market_trace():
    from repro.infra.spot import SpotMarket
    market = SpotMarket(np.random.default_rng(7), horizon=86400.0)
    rate = spot_rate(market, credits_per_dollar=100.0)
    for t in (0.0, 3600.0, 40000.0):
        assert rate(t) == pytest.approx(100.0 * market.price_at(t))
    book = PriceBook(rates={"ec2": ProviderPricing(18.0, spot=rate)})
    assert book.rate("ec2", 0.0, tier="spot") == \
        pytest.approx(100.0 * market.price_at(0.0))


def test_parse_pricing_pairs_and_errors():
    assert parse_pricing("stratuslab=6,ec2=18.5") == \
        (("stratuslab", 6.0), ("ec2", 18.5))
    for bad in ("ec2", "ec2=abc", "ec2=-3", "ec2=0"):
        with pytest.raises(ValueError):
            parse_pricing(bad)


def test_provider_profile_carries_price():
    from repro.cloud.registry import get_driver
    sim = Simulation(horizon=10.0)
    driver = get_driver("ec2", sim)
    assert driver.price_per_cpu_hour == 15.0
    book = PriceBook.from_profiles([driver.profile])
    assert book.rate("ec2") == 15.0


# ---------------------------------------------------------------- billing
def _funded_system(provision=1000.0):
    credits = CreditSystem()
    credits.deposit("user", provision)
    return credits


def test_meter_charges_at_provider_rate():
    credits = _funded_system()
    credits.order("bot", "user", 100.0)
    meter = BillingMeter(credits, PriceBook.from_pairs((("ec2", 36.0),)))
    billed, asked = meter.charge("bot", "ec2", 3600.0)
    assert asked == 36.0 and billed == 36.0
    billed, asked = meter.charge("bot", "other", 3600.0)
    assert asked == CREDITS_PER_CPU_HOUR
    assert meter.spent_for("ec2") == 36.0
    assert meter.cpu_seconds_by_provider["ec2"] == 3600.0
    assert meter.total_spent() == credits.spent("bot")


def test_meter_clamps_at_escrow_like_credit_system():
    credits = _funded_system(provision=10.0)
    credits.order("bot", "user", 10.0)
    meter = BillingMeter(credits, PriceBook.from_pairs((("ec2", 36.0),)))
    billed, asked = meter.charge("bot", "ec2", 3600.0)
    assert asked == 36.0 and billed == 10.0
    assert not meter.has_credits("bot")
    assert meter.remaining_for("bot") == 0.0


def test_meter_affordable_cpu_hours():
    meter = BillingMeter(CreditSystem(),
                         PriceBook.from_pairs((("ec2", 30.0),)))
    assert meter.affordable_cpu_hours("ec2", 60.0) == 2.0
    assert meter.affordable_cpu_hours("ec2", 0.0) == 0.0


# ------------------------------------------------- hypothesis invariants
charge_lists = st.lists(
    st.tuples(st.integers(0, 3),                       # bot index
              st.sampled_from(PROVIDERS),              # provider
              st.floats(0.0, 20000.0)),                # busy seconds
    min_size=1, max_size=40)
rate_maps = st.fixed_dictionaries(
    {p: st.floats(0.5, 100.0) for p in PROVIDERS})


@settings(max_examples=60, deadline=None)
@given(rates=rate_maps, charges=charge_lists,
       provision=st.floats(10.0, 500.0))
def test_pooled_spend_never_exceeds_provision(rates, charges, provision):
    """Heterogeneous per-provider rates cannot overdraw a shared pool."""
    credits = _funded_system(provision)
    credits.open_pool("pool", "user", provision)
    bots = [f"bot{i}" for i in range(4)]
    for bot in bots:
        credits.join_pool(bot, "pool")
    meter = BillingMeter(credits, PriceBook(rates=rates))
    for i, provider, busy in charges:
        meter.charge(bots[i], provider, busy)
    pool = credits.get_pool("pool")
    assert pool.spent <= pool.provisioned + 1e-9
    assert pool.remaining >= 0.0


@settings(max_examples=60, deadline=None)
@given(rates=rate_maps, charges=charge_lists)
def test_billing_additive_across_providers(rates, charges):
    """Per-provider buckets sum exactly to the credit system's view."""
    credits = _funded_system(1e9)
    bots = [f"bot{i}" for i in range(4)]
    for bot in bots:
        credits.order(bot, "user", 1e8)
    bills = record_bills(credits)
    meter = BillingMeter(credits, PriceBook(rates=rates))
    for i, provider, busy in charges:
        meter.charge(bots[i], provider, busy)
    total_orders = sum(credits.spent(bot) for bot in bots)
    assert math.isclose(meter.total_spent(), total_orders,
                        rel_tol=0.0, abs_tol=1e-6)
    billed_total = sum(amount for _bot, amount in bills)
    assert math.isclose(meter.total_spent(), billed_total,
                        rel_tol=0.0, abs_tol=1e-6)


@settings(max_examples=60, deadline=None)
@given(charges=charge_lists,
       rate=st.floats(0.5, 100.0),
       provision=st.floats(10.0, 10000.0))
def test_uniform_book_matches_fixed_rate_bit_identically(charges, rate,
                                                         provision):
    """A uniform book reproduces the inline-formula totals exactly —
    same floats, not just close ones (the drift-golden guarantee)."""
    # fund generously (provision/4 escrows x4 can out-round provision);
    # the comparison is about billing totals, not account arithmetic
    metered = _funded_system(10.0 * provision)
    inline = _funded_system(10.0 * provision)
    bots = [f"bot{i}" for i in range(4)]
    for bot in bots:
        metered.order(bot, "user", provision / 4.0)
        inline.order(bot, "user", provision / 4.0)
    meter = BillingMeter(metered, PriceBook.uniform(rate))
    for i, provider, busy in charges:
        meter.charge(bots[i], provider, busy)
        if busy > 0:  # the historical scheduler skipped <= 0 deltas
            inline.bill(bots[i], rate * busy / 3600.0)
    for bot in bots:
        assert metered.spent(bot) == inline.spent(bot)  # bit-identical


# --------------------------------------------------------------- deposits
def test_fund_pool_moves_credits_into_open_pool():
    credits = _funded_system(500.0)
    credits.open_pool("pool", "user", 100.0)
    remaining = credits.fund_pool("pool", "user", 50.0)
    pool = credits.get_pool("pool")
    assert pool.provisioned == 150.0 and remaining == 150.0
    assert credits.balance("user") == 350.0
    assert ("fund_pool", "pool", 50.0) in credits.ledger


def test_fund_pool_rejects_closed_pool_and_overdraft():
    credits = _funded_system(100.0)
    credits.open_pool("pool", "user", 100.0)
    with pytest.raises(Exception):
        credits.fund_pool("pool", "user", 1.0)  # balance now 0
    credits.close_pool("pool")
    with pytest.raises(KeyError):
        credits.fund_pool("pool", "user", 1.0)


def test_deposit_schedule_ticks_over_virtual_time():
    sim = Simulation(horizon=5 * 86400.0)
    credits = CreditSystem()
    credits.deposit("funder", 1000.0)
    credits.deposit("tenants", 100.0)
    credits.open_pool("pool", "tenants", 100.0)
    schedule = DepositSchedule(sim, credits, [
        PoolTopUp("pool", "funder", amount=50.0, period=86400.0,
                  max_total=120.0),
        AccountTopUp("tenants", cap=25.0, period=86400.0),
    ]).start()
    sim.run(until=3.5 * 86400.0)
    pool = credits.get_pool("pool")
    # three periods elapsed; max_total caps the third installment
    assert pool.provisioned == 100.0 + 50.0 + 50.0 + 20.0
    assert credits.balance("tenants") == 25.0
    assert len(schedule.applied) == 6
    assert schedule.total_applied() == 120.0 + 25.0


def test_allowance_ration_resets_member_caps():
    sim = Simulation(horizon=86400.0)
    credits = _funded_system(100.0)
    credits.open_pool("pool", "user", 100.0)
    order = credits.join_pool("bot", "pool")
    DepositSchedule(sim, credits,
                    [AllowanceRation("pool", per_member=10.0,
                                     period=3600.0)]).start()
    sim.run(until=3700.0)
    assert order.allowance == 10.0
    credits.bill("bot", 10.0)
    assert credits.remaining_for("bot") == 0.0   # rationed out
    sim.run(until=7300.0)
    assert order.allowance == 20.0               # spent + per_member
    assert credits.remaining_for("bot") == 10.0


def test_harness_schedule_deposits_verb():
    from repro.experiments.harness import ScenarioHarness
    harness = ScenarioHarness(horizon=2 * 86400.0)
    service = harness.service
    service.credits.deposit("funder", 300.0)
    service.credits.deposit("tenants", 10.0)
    service.open_qos_pool("pool", "tenants", 10.0)
    schedule = harness.schedule_deposits(
        [PoolTopUp("pool", "funder", amount=100.0, period=86400.0)])
    harness.run()
    assert service.credits.get_pool("pool").provisioned == 210.0
    assert schedule.total_applied() == 200.0


# ----------------------------------------------------- scheduler threading
def test_scheduler_meter_defaults_to_config_rate():
    from repro.core.info import InformationModule
    from repro.core.scheduler import SchedulerConfig, SpeQuloSScheduler
    sim = Simulation(horizon=10.0)
    credits = CreditSystem()
    sched = SpeQuloSScheduler(
        sim, InformationModule(), credits,
        SchedulerConfig(credits_per_cpu_hour=21.0))
    assert sched.meter.rate_for("anything") == 21.0
    assert sched.meter.credits is credits


def test_service_exposes_meter_and_pricebook():
    from repro.core.service import SpeQuloS
    sim = Simulation(horizon=10.0)
    book = PriceBook.from_pairs((("ec2", 30.0),))
    service = SpeQuloS(sim, pricebook=book)
    assert service.meter.rate_for("ec2") == 30.0
    assert service.meter.book is book


# ----------------------------------------------------- declarative config
def _dcis(**kw):
    from repro.experiments.config import DCISpec
    return (DCISpec(trace="nd", middleware="xwhep",
                    provider="stratuslab", **kw),
            DCISpec(trace="g5klyo", middleware="xwhep", provider="ec2"))


def test_scenario_config_pricing_validation_and_tuplify():
    from repro.experiments.config import ScenarioConfig
    cfg = ScenarioConfig(dcis=_dcis(), seed=1,
                         pricing=[["stratuslab", 6], ["ec2", 18.0]])
    assert cfg.pricing == (("stratuslab", 6.0), ("ec2", 18.0))
    assert cfg.price_map() == {"stratuslab": 6.0, "ec2": 18.0}
    assert "/priced/" in cfg.label()
    assert hash(cfg)  # stays hashable for the campaign store
    with pytest.raises(ValueError):
        ScenarioConfig(dcis=_dcis(), seed=1, pricing=(("nope", 6.0),))
    with pytest.raises(ValueError):
        ScenarioConfig(dcis=_dcis(), seed=1, pricing=(("ec2", 0.0),))


def test_dcispec_price_overrides_scenario_pricing():
    from repro.experiments.config import DCISpec, ScenarioConfig
    cfg = ScenarioConfig(dcis=_dcis(price=4.0), seed=1,
                         pricing=(("stratuslab", 6.0),))
    assert cfg.price_map()["stratuslab"] == 4.0
    with pytest.raises(ValueError):
        DCISpec(trace="nd", middleware="xwhep", price=0.0)
    # two DCIs quoting the same provider differently is a config error
    specs = (DCISpec(trace="nd", middleware="xwhep", price=4.0),
             DCISpec(trace="seti", middleware="boinc", price=5.0))
    with pytest.raises(ValueError):
        ScenarioConfig(dcis=specs, seed=1)


def test_with_pricing_pairs_scenarios():
    from repro.experiments.config import ScenarioConfig
    base = ScenarioConfig(dcis=_dcis(), seed=1)
    assert base.price_map() == {}
    assert "/priced" not in base.label()
    priced = base.with_pricing((("ec2", 30.0),))
    assert priced.pricing == (("ec2", 30.0),)
    assert priced.with_pricing(None).pricing is None


def test_federated_sweep_pricings_axis_expands():
    from repro.campaign.spec import FederatedSweepSpec
    sweep = FederatedSweepSpec(
        dci_traces=("nd",), dci_middlewares=("xwhep",),
        dci_providers=("ec2",), n_dcis=(1,),
        routings=("least_loaded", "cheapest_drain"),
        pricings=(None, [["ec2", 18.0]]), seeds=(0, 1))
    assert sweep.pricings == (None, (("ec2", 18.0),))
    cfgs = sweep.expand()
    assert len(cfgs) == sweep.n_configs() == 8
    books = {cfg.pricing for cfg in cfgs}
    assert books == {None, (("ec2", 18.0),)}
    assert hash(sweep)


def test_federated_sweep_dci_prices_template_cycles():
    from repro.campaign.spec import FederatedSweepSpec
    sweep = FederatedSweepSpec(
        dci_traces=("nd", "g5klyo"), dci_middlewares=("xwhep",),
        dci_providers=("stratuslab", "ec2"), dci_prices=(6.0, None),
        n_dcis=(2,), seeds=(0,))
    (cfg,) = sweep.expand()
    assert cfg.dcis[0].price == 6.0 and cfg.dcis[1].price is None
    assert cfg.price_map() == {"stratuslab": 6.0}
