"""Columnar (struct-of-arrays) storage for one trace realization.

A 10^5-host realization as :class:`~repro.infra.node.Node` objects
costs one Python object, two array headers and a per-node validation
pass per host — rebuilt for *every* execution sharing the realization.
:class:`NodeColumns` stores the whole realization as five flat arrays:

* ``starts`` / ``ends`` — every node's availability intervals,
  concatenated in node-id order;
* ``offsets`` — ``int64[n+1]``; node ``i`` owns the slice
  ``starts[offsets[i]:offsets[i+1]]``;
* ``power`` — ``float64[n]`` computing speeds;
* ``cursor`` — ``int64[n]`` per-node scan cursors (absolute flat
  indices), the only mutable column.

The interval arrays, offsets and powers are immutable and shared
zero-copy across executions (they are validated once, in
:meth:`NodeColumns.from_flat`); :meth:`NodeColumns.fresh` hands each
execution its own cursor array — the per-execution cost of "rebuild
all nodes" collapses to one ``offsets[:-1].copy()``.

:class:`ColumnNode` is a flyweight view over one column index exposing
the :class:`~repro.infra.node.Node` API (``node_id``, ``power``,
``interval_at``, ``next_available``...), so the middleware cannot tell
the two apart.  The :class:`~repro.infra.pool.NodePool` goes further
and keeps plain ``int`` indices in its draw lists, materializing a
view only for the node it actually hands out.

Cursor semantics match ``Node._advance`` exactly: monotone ``t``
queries move the cursor to the first interval whose end exceeds ``t``.
Trace nodes are never cloud workers, so ``ColumnNode.cloud`` is always
False (cloud workers stay :class:`~repro.infra.node.Node` objects).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeColumns", "ColumnNode"]

#: how many of a node's remaining intervals one
#: :meth:`NodeColumns.next_available_many` pass looks at (a node whose
#: look-ahead all ended finishes with :meth:`NodeColumns.advance`)
_LOOKAHEAD = 8


class NodeColumns:
    """One trace realization as struct-of-arrays (see module docstring)."""

    __slots__ = ("n", "starts", "ends", "offsets", "power", "tags",
                 "cursor")

    def __init__(self, starts: np.ndarray, ends: np.ndarray,
                 offsets: np.ndarray, power: np.ndarray,
                 tags: Tuple[str, ...], cursor: np.ndarray):
        self.n = len(offsets) - 1
        self.starts = starts
        self.ends = ends
        self.offsets = offsets
        self.power = power
        self.tags = tags
        self.cursor = cursor

    # ------------------------------------------------------------------
    @classmethod
    def from_flat(cls, starts: np.ndarray, ends: np.ndarray,
                  offsets: np.ndarray, power: np.ndarray,
                  tags: Sequence[str]) -> "NodeColumns":
        """Build the template from already-flat arrays, zero-copy.

        This is the layout generation produces and the trace store keeps
        (``starts``/``ends``/``bounds``/``powers``/``tags``), so the
        arrays — mmap-backed on a store hit — become the columns
        directly.  The intervals are validated once here
        (positive-length, sorted, non-overlapping per node) instead of
        once per node per execution.
        """
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        power = np.ascontiguousarray(power, dtype=np.float64)
        if starts.shape != ends.shape:
            raise ValueError("starts and ends must have identical shapes")
        if len(power) and not np.all(power > 0):
            bad = float(power[np.argmax(~(power > 0))])
            raise ValueError(f"node power must be positive, got {bad}")
        total = int(offsets[-1])
        if total:
            if not np.all(ends > starts):
                raise ValueError("intervals must be positive-length")
            # sortedness within each node: every adjacent pair must
            # satisfy starts[k+1] >= ends[k] except across node borders
            gap_ok = starts[1:] >= ends[:-1]
            borders = offsets[1:-1] - 1  # last interval index per node
            gap_ok[borders[(borders >= 0) & (borders < total - 1)]] = True
            if not np.all(gap_ok):
                raise ValueError("intervals must be sorted and "
                                 "non-overlapping")
        for arr in (starts, ends, offsets, power):
            arr.setflags(write=False)
        return cls(starts, ends, offsets, power, tuple(tags),
                   cursor=offsets[:-1].copy())

    def fresh(self) -> "NodeColumns":
        """A per-execution instance: shared immutable columns, own cursor."""
        return NodeColumns(self.starts, self.ends, self.offsets,
                           self.power, self.tags,
                           cursor=self.offsets[:-1].copy())

    # ------------------------------------------------------------------
    # per-node scans (i is the node id; t must be non-decreasing)
    # ------------------------------------------------------------------
    def advance(self, i: int, t: float) -> int:
        """Move node ``i``'s cursor to its first interval with end > t."""
        ends = self.ends
        cursor = self.cursor
        cur = cursor[i]
        hi = self.offsets[i + 1]
        while cur < hi and ends[cur] <= t:
            cur += 1
        cursor[i] = cur
        return cur

    def interval_at(self, i: int, t: float
                    ) -> Optional[Tuple[float, float]]:
        """The availability interval of node ``i`` containing ``t``."""
        cur = self.advance(i, t)
        if cur < self.offsets[i + 1] and self.starts[cur] <= t:
            return (float(self.starts[cur]), float(self.ends[cur]))
        return None

    def next_available(self, i: int, t: float
                       ) -> Optional[Tuple[float, float]]:
        """First interval of node ``i`` with end > t (current or next)."""
        cur = self.advance(i, t)
        if cur >= self.offsets[i + 1]:
            return None
        return (float(self.starts[cur]), float(self.ends[cur]))

    def next_available_many(self, ids: np.ndarray, t: float
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`next_available` for many nodes at once.

        Returns the ``(starts, ends)`` of each node's first interval
        with end > t, NaN where none is left, and leaves every cursor
        exactly where :meth:`advance` would.  A node's ends strictly
        increase, so the intervals :meth:`advance` steps over are
        exactly those of its remaining intervals that ended by ``t``:
        one pass over the next :data:`_LOOKAHEAD` remaining intervals
        of every node counts them, and the rare node whose whole
        look-ahead ended, with intervals left beyond it, finishes with
        :meth:`advance`.  The pass allocates in proportion to
        ``len(ids)``, however many intervals the horizon holds.
        """
        ends = self.ends
        lo = self.cursor[ids]
        hi = self.offsets[ids + 1]
        n = np.minimum(hi - lo, _LOOKAHEAD)  # look-ahead, laid end to end
        stop = np.cumsum(n)
        first = stop - n
        flat = np.arange(n.sum()) + np.repeat(lo - first, n)
        ended = np.concatenate(([0], np.cumsum(ends[flat] <= t)))
        moved = ended[stop] - ended[first]
        lo += moved
        self.cursor[ids] = lo
        for k in np.flatnonzero((moved == n) & (lo < hi)).tolist():
            lo[k] = self.advance(int(ids[k]), t)
        found = lo < hi
        return (np.where(found, self.starts.take(lo, mode="clip"), np.nan),
                np.where(found, ends.take(lo, mode="clip"), np.nan))

    # ------------------------------------------------------------------
    def first_interval(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, start, end) of every node's first interval.

        Nodes without intervals are excluded — used by the pool's
        vectorized initial filing.
        """
        first = self.offsets[:-1]
        ids = np.flatnonzero(first < self.offsets[1:])
        return ids, self.starts[first[ids]], self.ends[first[ids]]

    def view(self, i: int) -> "ColumnNode":
        return ColumnNode(self, i)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NodeColumns n={self.n} "
                f"intervals={self.starts.shape[0]}>")


class ColumnNode:
    """Flyweight `Node`-API view over one :class:`NodeColumns` index.

    Created lazily by the pool for the node it hands to the middleware;
    cheap scalar state (``power``, ``tag``) is bound at construction,
    interval scans delegate to the shared columns (so the cursor is the
    column cursor — one view per (columns, id) pair must be reused,
    which the pool's view cache guarantees).
    """

    __slots__ = ("_cols", "node_id", "power", "tag")

    #: trace nodes are never cloud workers
    cloud = False

    def __init__(self, cols: NodeColumns, i: int):
        self._cols = cols
        self.node_id = int(i)
        self.power = float(cols.power[i])
        self.tag = cols.tags[i]

    # -- Node API ------------------------------------------------------
    @property
    def starts(self) -> np.ndarray:
        o = self._cols.offsets
        return self._cols.starts[o[self.node_id]:o[self.node_id + 1]]

    @property
    def ends(self) -> np.ndarray:
        o = self._cols.offsets
        return self._cols.ends[o[self.node_id]:o[self.node_id + 1]]

    def interval_at(self, t: float) -> Optional[Tuple[float, float]]:
        return self._cols.interval_at(self.node_id, t)

    def available_at(self, t: float) -> bool:
        return self._cols.interval_at(self.node_id, t) is not None

    def next_available(self, t: float) -> Optional[Tuple[float, float]]:
        return self._cols.next_available(self.node_id, t)

    def availability_fraction(self, until: float) -> float:
        if until <= 0:
            return 0.0
        starts, ends = self.starts, self.ends
        clipped = np.clip(ends, None, until) - np.clip(starts, None, until)
        total = float(np.sum(np.maximum(clipped, 0.0)))
        return total / until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ColumnNode {self.node_id} power={self.power:.0f} "
                f"intervals={self.starts.shape[0]}>")
