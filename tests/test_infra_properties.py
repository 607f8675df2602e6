"""Property tests pinning the vectorized availability hot path
float-for-float against scalar reference walks.

The drift goldens pin end-to-end results; these tests pin the
*internal* equivalences those goldens rely on, so a future edit that
re-associates a float sum or drops a boundary case fails here with a
usable message instead of as an opaque golden diff:

* ``intervals.intersect_rows`` (segmented pair enumeration) against the
  two-pointer merge of :mod:`trace_oracle`, row by row;
* ``gantt.gate_windows`` (one row per threshold) against the per-step
  loop of :mod:`trace_oracle`;
* ``RenewalTraceGenerator``'s bulk boundary assembly + clipping
  against a scalar per-node walk using the same float association.

``tests/test_trace_oracle.py`` pins whole realizations against the
per-node path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra import intervals as iv
from repro.infra.catalog import get_trace_spec
from repro.infra.gantt import gate_windows
from repro.infra.node import nodes_from_flat
from repro.infra.renewal import RenewalTraceGenerator
from trace_oracle import gate_windows_scalar, intersect_scalar


# --------------------------------------------------------------- helpers
def _interval_set(rng, n):
    if n == 0:
        return np.empty(0), np.empty(0)
    bounds = np.cumsum(rng.exponential(1.0, 2 * n))
    return bounds[0::2], bounds[1::2]


# ------------------------------------------------------------- intersect
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
       n1=st.integers(0, 40), n2=st.integers(0, 12))
@settings(max_examples=120, deadline=None)
def test_intersect_matches_two_pointer_reference(seed, rows, n1, n2):
    """Rows of different lengths, windows padded by sentinels on both
    sides, against one two-pointer merge per row."""
    _check_intersect(seed, rows, n1, n2)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_intersect_blocks_split_rows_anywhere(monkeypatch, block):
    """Tiny interval blocks cut rows mid-way; the output is unchanged."""
    monkeypatch.setattr(iv, "_BLOCK", block)
    for seed in range(40):
        _check_intersect(seed, rows=4, n1=9, n2=5)


def _check_intersect(seed, rows, n1, n2):
    rng = np.random.default_rng(seed)
    sets = [_interval_set(rng, int(rng.integers(0, n1 + 1)))
            for _ in range(rows)]
    wins = [_interval_set(rng, int(rng.integers(0, n2 + 1)))
            for _ in range(rows)]
    width = n2 + 2
    win_s = np.full((rows, width), np.inf)
    win_e = np.full((rows, width), np.inf)
    for r, (ws, we) in enumerate(wins):
        lead = int(rng.integers(0, width - ws.size + 1))
        win_s[r, :lead] = win_e[r, :lead] = -np.inf
        win_s[r, lead:lead + ws.size] = ws
        win_e[r, lead:lead + we.size] = we
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum([s.size for s, _e in sets], out=offsets[1:])
    starts = np.concatenate([s for s, _e in sets])
    ends = np.concatenate([e for _s, e in sets])
    out_s, out_e, out_off = iv.intersect_rows(starts, ends, offsets,
                                              win_s, win_e)
    for r in range(rows):
        rs, re_ = intersect_scalar(*sets[r], *wins[r])
        assert out_s[out_off[r]:out_off[r + 1]].tobytes() == rs.tobytes()
        assert out_e[out_off[r]:out_off[r + 1]].tobytes() == re_.tobytes()


def test_intersect_with_touching_boundaries_emits_nothing():
    # adjacent-only overlap (hi == lo) must not produce empty intervals
    s, e, offsets = iv.intersect_rows(
        np.array([0.0, 10.0]), np.array([5.0, 15.0]), np.array([0, 2]),
        np.array([[5.0]]), np.array([[10.0]]))
    assert s.size == 0 and e.size == 0 and offsets.tolist() == [0, 0]


# ---------------------------------------------------------- gate_windows
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_gate_windows_matches_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    thresholds = rng.random(int(rng.integers(1, 8)))
    period = float(rng.uniform(10.0, 2e5))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    horizon = float(rng.uniform(50.0, 2e6))
    depth = float(rng.uniform(0.05, 1.0))
    vs, ve = gate_windows(thresholds, period, phase, horizon, depth=depth)
    for row_s, row_e, thr in zip(vs, ve, thresholds.tolist()):
        rs, re_ = gate_windows_scalar(thr, period, phase, horizon,
                                      depth=depth)
        # the real windows, padded by -inf sentinels before, +inf after
        lead = int(np.sum(row_s == -np.inf))
        pads = (np.full(lead, -np.inf),
                np.full(row_s.size - lead - rs.size, np.inf))
        assert row_s.tobytes() == np.concatenate(
            (pads[0], rs, pads[1])).tobytes()
        assert row_e.tobytes() == np.concatenate(
            (pads[0], re_, pads[1])).tobytes()


# ------------------------------------------------------- renewal bulk path
def _assemble_scalar(in_avail, first, t0, av_row, un_row):
    """Per-node walk mirroring the bulk path's exact float association:
    ``starts = (t0 + exclA) + exclG`` with sequentially accumulated
    cumulative sums, ``ends = starts + A``."""
    k = av_row.shape[0]
    if in_avail:
        A = np.concatenate(([first], av_row[:k - 1]))
        G = un_row.copy()
        g_shift = 1  # row starts available: G[j] excluded until j >= 1
    else:
        A = av_row.copy()
        G = np.concatenate(([first], un_row[:k - 1]))
        g_shift = 0  # row starts in a gap: G[0] precedes A[0]
    starts = np.empty(k)
    ends = np.empty(k)
    cum_a = 0.0
    cum_g = 0.0
    for j in range(k):
        excl_a = cum_a
        if g_shift:
            g_term = cum_g          # exclusive sum of gaps
        else:
            g_term = cum_g + G[j]   # inclusive sum of gaps
        starts[j] = (t0 + excl_a) + g_term
        ends[j] = starts[j] + A[j]
        cum_a += A[j]
        cum_g += G[j]
    return starts, ends


def _clip_scalar(starts_row, ends_row, horizon):
    """The historical per-row clip (keep → clip → re-check)."""
    keep = (ends_row > 0.0) & (starts_row < horizon)
    s_arr = np.clip(starts_row[keep], 0.0, None)
    e_arr = np.minimum(ends_row[keep], horizon)
    ok = e_arr > s_arr
    return s_arr[ok], e_arr[ok]


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 12), k=st.integers(2, 24))
@settings(max_examples=80, deadline=None)
def test_bulk_assembly_matches_scalar_walk(seed, n, k):
    rng = np.random.default_rng(seed)
    in_avail = rng.random(n) < 0.5
    first = rng.exponential(100.0, n)
    t0 = -first * rng.random(n)
    av = rng.exponential(300.0, (n, k))
    un = rng.exponential(150.0, (n, k))
    starts, ends = RenewalTraceGenerator._assemble_bulk(
        in_avail, first, t0, av, un)
    for i in range(n):
        rs, re_ = _assemble_scalar(bool(in_avail[i]), float(first[i]),
                                   float(t0[i]), av[i], un[i])
        assert starts[i].tobytes() == rs.tobytes()
        assert ends[i].tobytes() == re_.tobytes()


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 10), k=st.integers(2, 20))
@settings(max_examples=80, deadline=None)
def test_vectorized_clip_matches_per_row_reference(seed, n, k):
    rng = np.random.default_rng(seed)
    horizon = float(rng.uniform(100.0, 5000.0))
    starts = rng.uniform(-500.0, horizon * 1.5, (n, k))
    starts.sort(axis=1)
    ends = starts + rng.exponential(200.0, (n, k))
    flat_s, flat_e, offsets = RenewalTraceGenerator._clip_rows(
        starts, ends, horizon)
    for i in range(n):
        rs, re_ = _clip_scalar(starts[i], ends[i], horizon)
        assert flat_s[offsets[i]:offsets[i + 1]].tobytes() == rs.tobytes()
        assert flat_e[offsets[i]:offsets[i + 1]].tobytes() == re_.tobytes()


def test_generate_bulk_and_fallback_agree_on_interval_invariants():
    """End to end: every generated schedule is sorted, disjoint,
    clipped to [0, horizon], whichever path produced it."""
    spec = get_trace_spec("nd")
    rng = np.random.default_rng(11)
    nodes = nodes_from_flat(*spec.materialize(rng, horizon=86400.0,
                                              max_nodes=60))
    assert nodes
    for node in nodes:
        iv.validate(node.starts, node.ends)
        if node.starts.size:
            assert node.starts[0] >= 0.0
            assert node.ends[-1] <= 86400.0
