"""Economics plane: pricing and billing — units + invariants.

The hypothesis suites pin the three economics invariants: pooled spend
never exceeds provision under heterogeneous per-provider rates;
billing is additive across providers; a uniform price book reproduces
the fixed-rate totals bit-identically.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credit_audit import record_bills
from repro.core.credit import CREDITS_PER_CPU_HOUR, CreditSystem
from repro.economics import BillingMeter, PriceBook, parse_pricing
from repro.simulator.engine import Simulation

PROVIDERS = ("stratuslab", "ec2", "grid5000")


# ---------------------------------------------------------------- pricing
def test_pricebook_default_is_paper_rate():
    book = PriceBook()
    assert book.rate("anything") == CREDITS_PER_CPU_HOUR
    assert book.default == 15.0


def test_pricebook_per_provider_rates_and_case():
    book = PriceBook.from_pairs((("StratusLab", 6.0), ("ec2", 18.0)))
    assert book.rate("stratuslab") == 6.0
    assert book.rate("EC2") == 18.0
    assert book.rate("nimbus") == CREDITS_PER_CPU_HOUR
    assert type(PriceBook({"ec2": 18}).rate("ec2")) is float


def test_pricebook_rejects_callable_and_nonpositive_rates():
    with pytest.raises(TypeError):
        PriceBook(rates={"ec2": lambda now: 10.0 + now / 3600.0})
    for bad in (0.0, -3.0, float("nan")):
        with pytest.raises(ValueError):
            PriceBook(rates={"ec2": bad})
        with pytest.raises(ValueError):
            PriceBook(default=bad)


def test_parse_pricing_pairs_and_errors():
    assert parse_pricing("stratuslab=6,ec2=18.5") == \
        (("stratuslab", 6.0), ("ec2", 18.5))
    for bad in ("ec2", "ec2=abc", "ec2=-3", "ec2=0"):
        with pytest.raises(ValueError):
            parse_pricing(bad)


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
    assert meter.spent_by_provider["ec2"] == 36.0
    assert meter.cpu_seconds_by_provider["ec2"] == 3600.0
    assert sum(meter.spent_by_provider.values()) == credits.spent("bot")


def test_meter_clamps_at_escrow_like_credit_system():
    credits = _funded_system(provision=10.0)
    credits.order("bot", "user", 10.0)
    meter = BillingMeter(credits, PriceBook.from_pairs((("ec2", 36.0),)))
    billed, asked = meter.charge("bot", "ec2", 3600.0)
    assert asked == 36.0 and billed == 10.0
    assert not credits.has_credits("bot")
    assert meter.remaining_for("bot") == 0.0


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
    metered = sum(meter.spent_by_provider.values())
    total_orders = sum(credits.spent(bot) for bot in bots)
    assert math.isclose(metered, total_orders, rel_tol=0.0, abs_tol=1e-6)
    billed_total = sum(amount for _bot, amount in bills)
    assert math.isclose(metered, billed_total, rel_tol=0.0, abs_tol=1e-6)


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


# ----------------------------------------------------- scheduler threading
def test_scheduler_meter_defaults_to_paper_rate():
    from repro.core.info import InformationModule
    from repro.core.scheduler import SpeQuloSScheduler
    sim = Simulation(horizon=10.0)
    credits = CreditSystem()
    sched = SpeQuloSScheduler(sim, InformationModule(), credits)
    assert sched.meter.rate_for("anything") == CREDITS_PER_CPU_HOUR
    assert sched.meter.credits is credits
    book = PriceBook.uniform(21.0)
    sched = SpeQuloSScheduler(sim, InformationModule(), credits,
                              pricebook=book)
    assert sched.meter.book is book
    assert sched.meter.rate_for("anything") == 21.0


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
