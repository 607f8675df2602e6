"""Trace synthesis: renewal, gantt gate, spot market, catalog, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra import intervals as iv
from repro.infra.catalog import TRACE_NAMES, get_trace_spec, list_trace_specs
from repro.infra.gantt import GanttTraceGenerator, gate_windows
from repro.infra.node import nodes_from_flat
from repro.infra.quantile import PiecewiseLogQuantile
from repro.infra.renewal import RenewalTraceGenerator, stationary_availability
from repro.infra.spot import SpotMarket, SpotMarketParams, spot_columns, spot_intervals
from repro.infra.stats import available_count_series, measure_trace

DAY = 86400.0


def small_renewal(power_std=0.0):
    av = PiecewiseLogQuantile((100, 300, 900), tail_factor=10)
    un = PiecewiseLogQuantile((50, 150, 450), tail_factor=10)
    return RenewalTraceGenerator(av, un, 1000.0, power_std)


def _intersect(s1, e1, s2, e2):
    """One-row :func:`intervals.intersect_rows` call."""
    s, e, _ = iv.intersect_rows(s1, e1, np.array([0, s1.size]),
                                s2[None, :], e2[None, :])
    return s, e


def _windows(threshold, period, phase, horizon, depth=1.0):
    """One threshold's gate windows, sentinel pads dropped."""
    s, e = gate_windows(np.array([threshold]), period, phase, horizon,
                        depth=depth)
    real = np.isfinite(s[0])
    return s[0][real], e[0][real]


# ---------------------------------------------------------------- intervals
def test_intersect_basic():
    s, e = _intersect(np.array([0.0, 20.0]), np.array([10.0, 30.0]),
                      np.array([5.0]), np.array([25.0]))
    assert list(s) == [5.0, 20.0]
    assert list(e) == [10.0, 25.0]


def test_intersect_disjoint():
    s, e = _intersect(np.array([0.0]), np.array([10.0]),
                      np.array([20.0]), np.array([30.0]))
    assert s.size == 0


def test_intersect_identity():
    a_s, a_e = np.array([1.0, 5.0]), np.array([3.0, 9.0])
    s, e = _intersect(a_s, a_e, np.array([0.0]), np.array([100.0]))
    assert np.allclose(s, a_s) and np.allclose(e, a_e)


def test_validate_rejects_overlap():
    with pytest.raises(ValueError):
        iv.validate(np.array([0.0, 5.0]), np.array([6.0, 10.0]))


def test_total_length():
    assert iv.total_length(np.array([0.0, 10.0]),
                           np.array([5.0, 12.0])) == 7.0


# ----------------------------------------------------------------- renewal
def test_stationary_availability_formula():
    av = PiecewiseLogQuantile((10, 10, 10), tail_factor=1.0001)
    un = PiecewiseLogQuantile((30, 30, 30), tail_factor=1.0001)
    p = stationary_availability(av, un)
    assert p == pytest.approx(0.25, rel=0.05)


def test_nodes_for_mean_scales_inverse_to_p():
    gen = small_renewal()
    n = gen.nodes_for_mean(100)
    assert n == pytest.approx(100 / gen.p_avail, rel=0.02)


def test_generated_schedules_are_valid_interval_sets():
    gen = small_renewal()
    nodes = nodes_from_flat(*gen.generate(np.random.default_rng(0), 50, 2 * DAY))
    assert len(nodes) == 50
    for n in nodes:
        iv.validate(n.starts, n.ends)
        assert n.starts.size > 0
        assert n.ends[-1] <= 2 * DAY + 1e-9


def test_generated_mean_count_matches_target():
    gen = small_renewal()
    n_nodes = gen.nodes_for_mean(120)
    nodes = nodes_from_flat(*gen.generate(np.random.default_rng(1), n_nodes,
                                  3 * DAY))
    counts = available_count_series(nodes, 3 * DAY, step=300.0)
    assert np.mean(counts) == pytest.approx(120, rel=0.15)


def test_generation_deterministic_per_seed():
    gen = small_renewal()
    a = nodes_from_flat(*gen.generate(np.random.default_rng(9), 5, DAY))
    b = nodes_from_flat(*gen.generate(np.random.default_rng(9), 5, DAY))
    for x, y in zip(a, b):
        assert np.allclose(x.starts, y.starts)
        assert np.allclose(x.ends, y.ends)


def test_power_heterogeneity():
    gen = small_renewal(power_std=250.0)
    powers = gen.draw_power(np.random.default_rng(2), 4000)
    assert np.mean(powers) == pytest.approx(1000, rel=0.05)
    assert np.std(powers) == pytest.approx(250, rel=0.1)
    assert powers.min() >= 50.0


def test_homogeneous_power():
    gen = small_renewal(power_std=0.0)
    powers = gen.draw_power(np.random.default_rng(3), 10)
    assert np.all(powers == 1000.0)


def test_invalid_generate_args():
    gen = small_renewal()
    with pytest.raises(ValueError):
        gen.generate(np.random.default_rng(0), 0, DAY)
    with pytest.raises(ValueError):
        gen.generate(np.random.default_rng(0), 5, 0.0)


# ------------------------------------------------------------------- gantt
def test_gate_windows_always_open_below_range():
    s, e = _windows(0.0, DAY, 0.0, 3 * DAY)
    assert list(s) == [0.0] and list(e) == [3 * DAY]


def test_gate_windows_never_open_above_range():
    s, e = _windows(1.0, DAY, 0.0, 3 * DAY)
    assert s.size == 0


def test_gate_windows_daily_arcs():
    s, e = _windows(0.5, DAY, 0.0, 3 * DAY)
    iv.validate(s, e)
    # threshold at the midline: open half of each day
    assert iv.total_length(s, e) == pytest.approx(1.5 * DAY, rel=0.02)
    assert 2 <= s.size <= 4


def test_gate_window_width_decreases_with_threshold():
    w = []
    for thr in (0.2, 0.5, 0.8):
        s, e = _windows(thr, DAY, 0.0, 10 * DAY)
        w.append(iv.total_length(s, e))
    assert w[0] > w[1] > w[2]


def test_gantt_generator_respects_gate():
    gen = GanttTraceGenerator(small_renewal(), gate_depth=1.0)
    nodes = nodes_from_flat(*gen.generate(np.random.default_rng(4), 40, 3 * DAY))
    for n in nodes:
        iv.validate(n.starts, n.ends)
    # high-threshold nodes participate less
    lo = iv.total_length(nodes[0].starts, nodes[0].ends)
    hi = iv.total_length(nodes[-1].starts, nodes[-1].ends)
    assert lo > hi


def test_gantt_depth_zero_is_plain_renewal():
    gen = GanttTraceGenerator(small_renewal(), gate_depth=0.0)
    nodes = nodes_from_flat(*gen.generate(np.random.default_rng(5), 10, DAY))
    assert all(n.starts.size > 0 for n in nodes)


def test_gantt_invalid_depth():
    with pytest.raises(ValueError):
        GanttTraceGenerator(small_renewal(), gate_depth=1.5)


# -------------------------------------------------------------------- spot
def test_spot_price_respects_floor():
    m = SpotMarket(np.random.default_rng(0), 10 * DAY)
    assert np.all(m.prices >= m.params.floor - 1e-12)


def test_spot_ladder_counts_are_floor_budget_over_price():
    m = SpotMarket(np.random.default_rng(1), DAY)
    counts = m.instance_counts(10.0)
    assert np.all(counts == np.floor(10.0 / m.prices))


def test_spot_ladder_cost_never_exceeds_budget():
    m = SpotMarket(np.random.default_rng(2), 5 * DAY)
    counts = m.instance_counts(10.0)
    assert np.all(counts * m.prices <= 10.0 + 1e-9)


def test_spot_intervals_nested_by_bid_level():
    """Slot i is live whenever slot i+1 is: lower bids are safer."""
    m = SpotMarket(np.random.default_rng(3), 5 * DAY)
    ivs = spot_intervals(m, 10.0, max_instances=20)
    lengths = [iv.total_length(s, e) for s, e in ivs]
    assert all(a >= b - 1e-9 for a, b in zip(lengths, lengths[1:]))


def test_spot_correlated_preemption():
    """A price spike kills the top of the ladder simultaneously."""
    params = SpotMarketParams(spike_rate=1.0 / DAY)
    rng = np.random.default_rng(11)
    m = SpotMarket(rng, 20 * DAY, params)
    counts = m.instance_counts(10.0)
    drops = np.diff(counts)
    assert drops.min() < -5  # mass terminations exist


def test_spot_nodes_power_distribution():
    m = SpotMarket(np.random.default_rng(4), DAY)
    powers = spot_columns(np.random.default_rng(5), m, 10.0, 3000.0, 300.0)[3]
    assert np.mean(powers) == pytest.approx(3000, rel=0.1)


def test_spot_budget_validation():
    m = SpotMarket(np.random.default_rng(6), DAY)
    with pytest.raises(ValueError):
        spot_intervals(m, 0.0)


def test_spot_price_at_lookup():
    m = SpotMarket(np.random.default_rng(7), DAY)
    assert m.price_at(0.0) == m.prices[0]
    assert m.price_at(DAY * 10) == m.prices[-1]  # clamped


# ----------------------------------------------------------------- catalog
def test_catalog_has_all_six_traces():
    assert set(TRACE_NAMES) == {"seti", "nd", "g5klyo", "g5kgre",
                                "spot10", "spot100"}


def test_catalog_lookup_unknown():
    with pytest.raises(KeyError):
        get_trace_spec("lhc")


def test_catalog_table2_values_verbatim():
    seti = get_trace_spec("seti")
    assert seti.mean_nodes == 24391
    assert seti.avail_quartiles == (61, 531, 5407)
    assert seti.power_mean == 1000 and seti.power_std == 250
    g5k = get_trace_spec("g5klyo")
    assert g5k.power_std == 0
    spot = get_trace_spec("spot100")
    assert spot.spot_budget == 100.0


def test_every_spec_materializes_capped():
    rng = np.random.default_rng(8)
    for spec in list_trace_specs():
        nodes = nodes_from_flat(*spec.materialize(rng, DAY, max_nodes=30))
        assert 0 < len(nodes) <= 30
        for n in nodes:
            iv.validate(n.starts, n.ends)


def test_natural_node_count_scales():
    assert get_trace_spec("seti").natural_node_count() > 10000
    assert get_trace_spec("nd").natural_node_count() < 1000


def test_spot_natural_count_is_ladder_cap():
    assert get_trace_spec("spot10").natural_node_count() == int(10 / 0.114)


def test_participation_flags():
    assert get_trace_spec("seti").participation == 0.5   # diurnal gate
    assert get_trace_spec("nd").participation == 1.0
    assert get_trace_spec("g5klyo").participation == 0.5


# ------------------------------------------------------------------- stats
def test_available_count_series_simple():
    from repro.infra.node import Node
    n1 = Node(1, 1000, np.array([0.0]), np.array([1000.0]))
    n2 = Node(2, 1000, np.array([500.0]), np.array([1500.0]))
    counts = available_count_series([n1, n2], 2000.0, step=100.0)
    assert counts.max() == 2
    assert counts.min() >= 0


def test_measure_trace_censors_boundary_intervals():
    from repro.infra.node import Node
    # one giant censored interval + small inner ones
    n = Node(1, 1000,
             np.array([0.0, 5000.0, 5200.0, 5400.0]),
             np.array([4000.0, 5100.0, 5300.0, 6000.0]))
    st = measure_trace([n], 6000.0, step=100.0)
    # first (4000s) and last intervals excluded; inner are 100s each
    assert st.avail_quartiles[1] == pytest.approx(100.0)


def test_measure_trace_quartiles_close_to_targets():
    spec = get_trace_spec("nd")
    nodes = nodes_from_flat(*spec.materialize(np.random.default_rng(10),
                                              4 * DAY))
    st = measure_trace(nodes, 4 * DAY)
    assert st.mean_nodes == pytest.approx(spec.mean_nodes, rel=0.15)
    assert st.avail_quartiles[1] == pytest.approx(
        spec.avail_quartiles[1], rel=0.5)
    assert st.power_mean == pytest.approx(1000, rel=0.1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_renewal_intervals_sorted_disjoint(seed):
    gen = small_renewal()
    nodes = nodes_from_flat(*gen.generate(np.random.default_rng(seed), 3, DAY))
    for n in nodes:
        iv.validate(n.starts, n.ends)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.floats(1.0, 200.0))
def test_property_spot_ladder_monotone(seed, budget):
    m = SpotMarket(np.random.default_rng(seed), DAY)
    counts = m.instance_counts(budget)
    assert np.all(counts >= 0)
    assert counts.max() <= budget / m.params.floor + 1
