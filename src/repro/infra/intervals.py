"""Interval-set algebra helpers (sorted, disjoint [start, end) arrays).

The Grid'5000 model intersects renewal schedules with day/night
participation windows (:func:`intersect_rows`); :func:`validate` and
:func:`total_length` check and measure one node's schedule.  Interval
sets are parallel ``(starts, ends)`` NumPy arrays, sorted and pairwise
disjoint.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["intersect_rows", "total_length", "validate"]

Arr = np.ndarray

#: intervals per vectorized block in :func:`intersect_rows`
_BLOCK = 1 << 14


def validate(starts: Arr, ends: Arr) -> None:
    """Raise ValueError unless (starts, ends) is a valid interval set."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.shape != ends.shape:
        raise ValueError("starts/ends shape mismatch")
    if starts.size == 0:
        return
    if not np.all(ends > starts):
        raise ValueError("empty or inverted interval present")
    if not np.all(starts[1:] >= ends[:-1]):
        raise ValueError("intervals overlap or are unsorted")


def total_length(starts: Arr, ends: Arr) -> float:
    """Sum of interval lengths."""
    if len(starts) == 0:
        return 0.0
    return float(np.sum(np.asarray(ends) - np.asarray(starts)))


def intersect_rows(starts: Arr, ends: Arr, offsets: Arr, win_starts: Arr,
                   win_ends: Arr) -> Tuple[Arr, Arr, Arr]:
    """Intersect every row of a columnar realization with its windows.

    Row ``r`` owns ``starts[offsets[r]:offsets[r+1]]`` and the window set
    ``(win_starts[r], win_ends[r])``: sorted, disjoint, and padded with
    empty sentinel windows — ``(-inf, -inf)`` before the first,
    ``(+inf, +inf)`` after the last.  Interval ``m`` overlaps exactly the
    window columns ``[lo, hi)``, where ``lo`` counts its row's windows
    ending at or before ``starts[m]`` and ``hi`` those starting before
    ``ends[m]`` (the pads fall on the right side of both counts, and
    ``hi >= lo`` because a window ending by the start also starts before
    the end); both are binary searches over the row.  The pairs come out
    as ``(max(start), min(end))`` in row-major (interval, window) order:
    per row, the pair set and order of the classic two-pointer merge.
    Returns ``(starts, ends, offsets)`` of the intersection.
    """
    n_rows, n_win = win_starts.shape
    # +inf pads (below no finite value) to a power-of-two width whose
    # binary-search steps sum past the last real window
    width = 1 << n_win.bit_length()
    pad_s = np.full((n_rows, width), np.inf)
    pad_e = pad_s.copy()
    pad_s[:, :n_win] = win_starts
    pad_e[:, :n_win] = win_ends
    pad_s, pad_e = pad_s.ravel(), pad_e.ravel()
    rows = np.repeat(np.arange(n_rows), np.diff(offsets))
    out_s, out_e = [np.empty(0)], [np.empty(0)]
    counts = [np.empty(0, dtype=np.int64)]
    # blocks of intervals keep every pass's temporaries cache-sized
    for a in range(0, starts.shape[0], _BLOCK):
        s, e = starts[a:a + _BLOCK], ends[a:a + _BLOCK]
        base = rows[a:a + _BLOCK] * width
        lo = _prefix_end(pad_e, base, width, s, np.less_equal)
        n = _prefix_end(pad_s, base, width, e, np.less) - lo
        # concatenated flat window ranges lo..hi: a ramp minus each
        # interval's first output slot, plus its lo
        m = np.repeat(np.arange(s.shape[0]), n)
        w = np.arange(m.shape[0]) - np.repeat(np.cumsum(n) - n - lo, n)
        out_s.append(np.maximum(s[m], pad_s[w]))
        out_e.append(np.minimum(e[m], pad_e[w]))
        counts.append(n)
    bounds = np.zeros(starts.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=bounds[1:])
    return np.concatenate(out_s), np.concatenate(out_e), bounds[offsets]


def _prefix_end(flat_win: Arr, base: Arr, width: int, values: Arr,
                below) -> Arr:
    """Per value, the flat index just past the windows ``below`` it.

    A value's windows are ``flat_win[base:base + width]``, non-decreasing
    and ending in ``+inf``, so ``below(window, value)`` holds on a
    prefix of them.  All values binary-search that prefix in lockstep,
    one power-of-two step per round.
    """
    pos = base.copy()
    step = width >> 1
    while step:
        # invariant: the windows at base..pos-1 are below the value
        np.add(pos, step, out=pos,
               where=below(flat_win[pos + (step - 1)], values))
        step >>= 1
    return pos
