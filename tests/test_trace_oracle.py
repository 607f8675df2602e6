"""Columnar trace generation pinned byte for byte to the per-node path.

``TraceSpec.materialize`` and the generators build each
realization straight into ``starts``/``ends``/``offsets``/``power``
columns.  Every test here compares that output — and the RNG state it
leaves behind, which later draws from the same generator depend on —
with the per-node reference in :mod:`trace_oracle`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.catalog import TRACE_NAMES, get_trace_spec
from repro.infra.gantt import GanttTraceGenerator
from repro.infra.node import nodes_from_flat
from repro.infra.quantile import PiecewiseLogQuantile
from repro.infra.renewal import RenewalTraceGenerator
from trace_oracle import flatten, gantt_nodes, reference_materialize

DAY = 86400.0


def assert_same_flat(got, want):
    starts, ends, offsets, power, tags = got
    w_starts, w_ends, w_offsets, w_power, w_tags = want
    assert offsets.dtype == np.int64
    assert offsets.tobytes() == w_offsets.tobytes()
    assert starts.dtype == ends.dtype == power.dtype == np.float64
    assert starts.tobytes() == w_starts.tobytes()
    assert ends.tobytes() == w_ends.tobytes()
    assert power.tobytes() == w_power.tobytes()
    assert tuple(tags) == tuple(w_tags)


def realize_both(name, seed, horizon, cap):
    spec = get_trace_spec(name)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    flat = spec.materialize(rng, horizon, cap)
    ref = reference_materialize(spec, ref_rng, horizon, cap)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return flat, ref


@pytest.mark.parametrize("name", TRACE_NAMES)
@pytest.mark.parametrize("cap", [1, 2, 3, 17, 400])
def test_flat_realization_matches_per_node_path(name, cap):
    flat, ref = realize_both(name, 5 + cap, 3 * DAY, cap)
    assert_same_flat(flat, flatten(ref))


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_node_list_matches_per_node_path(name):
    spec = get_trace_spec(name)
    nodes = nodes_from_flat(*spec.materialize(np.random.default_rng(3),
                                              2 * DAY, 120))
    ref = reference_materialize(spec, np.random.default_rng(3), 2 * DAY,
                                120)
    assert len(nodes) == len(ref)
    for a, b in zip(nodes, ref):
        assert (a.node_id, a.power, a.tag) == (b.node_id, b.power, b.tag)
        assert a.starts.tobytes() == b.starts.tobytes()
        assert a.ends.tobytes() == b.ends.tobytes()


@pytest.mark.parametrize("name", ["seti", "g5kgre"])
def test_long_horizon_matches_per_node_path(name):
    """A 120-day horizon gives every gated row ~120 window columns."""
    flat, ref = realize_both(name, 12, 120 * DAY, 25)
    assert_same_flat(flat, flatten(ref))


def test_bulk_fallback_rows_are_exercised(monkeypatch):
    """Rows the bulk cycles do not cover take the scalar walk, after
    every bulk draw and in row order, on both paths."""
    calls = []
    walk = RenewalTraceGenerator._node_schedule

    def counting(self, rng, horizon):
        calls.append(horizon)
        return walk(self, rng, horizon)

    monkeypatch.setattr(RenewalTraceGenerator, "_node_schedule", counting)
    flat, ref = realize_both("seti", 21, 3 * DAY, 1500)
    assert_same_flat(flat, flatten(ref))
    assert calls and len(calls) % 2 == 0   # same count on both paths


def test_seti_full_window_and_closed_rows():
    """seti's shallow gate (depth 0.4) leaves rows with threshold <= 0.3
    one full-horizon window (the renewal schedule passes through) and
    rows with threshold >= 0.7 none at all."""
    spec = get_trace_spec("seti")
    n = 200
    gated, ref = realize_both("seti", 8, 2 * DAY, n)
    assert_same_flat(gated, flatten(ref))
    # the same draws without the gate: phase first, then the renewal
    rng = np.random.default_rng(8)
    rng.random()
    plain = spec._renewal().generate(rng, n, 2 * DAY)
    thresholds = (np.arange(n) + 0.5) / n
    starts, ends, offsets, _power, _tags = gated
    counts = np.diff(offsets)
    full = np.flatnonzero(thresholds <= 0.3)
    assert full.size and np.all(counts[thresholds >= 0.7] == 0)
    for i in full:
        lo, hi = plain[2][i], plain[2][i + 1]
        assert starts[offsets[i]:offsets[i + 1]].tobytes() == \
            plain[0][lo:hi].tobytes()
        assert ends[offsets[i]:offsets[i + 1]].tobytes() == \
            plain[1][lo:hi].tobytes()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       depth=st.floats(0.0, 1.0), days=st.floats(0.05, 6.0),
       period=st.sampled_from([3600.0, 86400.0]))
@settings(max_examples=60, deadline=None)
def test_gated_generator_matches_per_node_loop(seed, n, depth, days, period):
    renewal = RenewalTraceGenerator(
        PiecewiseLogQuantile((100, 300, 900), tail_factor=10),
        PiecewiseLogQuantile((50, 150, 450), tail_factor=10), 1000.0, 100.0)
    gen = GanttTraceGenerator(renewal, gate_period=period, gate_depth=depth)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    nodes = nodes_from_flat(*gen.generate(rng, n, days * DAY))
    ref = gantt_nodes(gen, ref_rng, n, days * DAY)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_same_flat(flatten(nodes), flatten(ref))
