"""Node model: a computing resource with an availability schedule.

A node alternates between *available* intervals (it can fetch and run
tasks) and *unavailable* gaps (desktop user came back, best-effort job
preempted, spot price exceeded the bid...).  The schedule is stored as
two parallel NumPy arrays of interval starts and ends; the node keeps a
cursor so "what interval contains / follows time t" is amortized O(1)
during a forward-moving simulation.

Cloud workers reuse the same class with a single ``[start, inf)``
interval — the middleware does not care where a worker comes from,
which mirrors how SpeQuloS cloud workers impersonate ordinary desktop
grid workers (paper §3.1).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Node", "nodes_from_flat"]

#: the ``ends`` of every stable node: one shared, read-only ``[inf]``
_STABLE_ENDS = np.array([math.inf])
_STABLE_ENDS.flags.writeable = False


class Node:
    """A (possibly volatile) computing resource.

    Parameters
    ----------
    node_id:
        Unique identifier within one simulation.
    power:
        Computing speed in number of operations per second (Table 2's
        ``avg. power`` column; tasks carry a ``nops`` cost).
    starts, ends:
        Sorted, non-overlapping availability intervals
        ``[starts[i], ends[i])``.  May be empty (a node that never
        shows up).
    cloud:
        True for provisioned cloud workers (stable, billed resources).
    """

    __slots__ = ("node_id", "power", "starts", "ends", "cloud", "_idx", "tag")

    def __init__(self, node_id: int, power: float,
                 starts: np.ndarray, ends: np.ndarray,
                 cloud: bool = False, tag: str = ""):
        if power <= 0:
            raise ValueError(f"node power must be positive, got {power}")
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if starts.shape != ends.shape:
            raise ValueError("starts and ends must have identical shapes")
        if starts.size and not (np.all(ends > starts)
                                and np.all(starts[1:] >= ends[:-1])):
            raise ValueError("intervals must be positive-length, sorted "
                             "and non-overlapping")
        self.node_id = int(node_id)
        self.power = float(power)
        self.starts = starts
        self.ends = ends
        self.cloud = bool(cloud)
        self.tag = tag
        self._idx = 0  # cursor: first interval with end > last queried t

    # ------------------------------------------------------------------
    @classmethod
    def stable(cls, node_id: int, power: float, start: float = 0.0,
               tag: str = "cloud") -> "Node":
        """A never-failing node (cloud worker), available from ``start``.

        Same validation and state as ``cls(node_id, power, [start],
        [inf], cloud=True, tag=tag)``, with scalar checks in place of
        the array reductions (one is built per provisioned worker).
        """
        if power <= 0:
            raise ValueError(f"node power must be positive, got {power}")
        start = float(start)
        if not start < math.inf:
            raise ValueError("intervals must be positive-length, sorted "
                             "and non-overlapping")
        node = cls.__new__(cls)
        node.node_id = int(node_id)
        node.power = float(power)
        node.starts = np.array([start])
        node.ends = _STABLE_ENDS
        node.cloud = True
        node.tag = tag
        node._idx = 0
        return node

    # ------------------------------------------------------------------
    def _advance(self, t: float) -> None:
        """Move the cursor to the first interval whose end is > t."""
        ends = self.ends
        i = self._idx
        n = ends.shape[0]
        while i < n and ends[i] <= t:
            i += 1
        self._idx = i

    def interval_at(self, t: float) -> Optional[Tuple[float, float]]:
        """The availability interval containing ``t``, or None.

        ``t`` must be non-decreasing across calls (forward simulation).
        """
        self._advance(t)
        i = self._idx
        if i < self.starts.shape[0] and self.starts[i] <= t:
            return (float(self.starts[i]), float(self.ends[i]))
        return None

    def available_at(self, t: float) -> bool:
        """Whether the node is available at time ``t``."""
        return self.interval_at(t) is not None

    def next_available(self, t: float) -> Optional[Tuple[float, float]]:
        """First interval (start, end) with end > t and start >= ... .

        If ``t`` falls inside an interval, that interval is returned;
        otherwise the next future interval, or None if the node never
        comes back.
        """
        self._advance(t)
        i = self._idx
        if i >= self.starts.shape[0]:
            return None
        return (float(self.starts[i]), float(self.ends[i]))

    def availability_fraction(self, until: float) -> float:
        """Fraction of [0, until) during which the node is available."""
        if until <= 0:
            return 0.0
        clipped = np.clip(self.ends, None, until) - np.clip(self.starts, None, until)
        total = float(np.sum(np.maximum(clipped, 0.0)))
        return total / until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "cloud" if self.cloud else "volatile"
        return (f"<Node {self.node_id} {kind} power={self.power:.0f} "
                f"intervals={self.starts.shape[0]}>")


def nodes_from_flat(starts: np.ndarray, ends: np.ndarray,
                    offsets: np.ndarray, power: np.ndarray,
                    tags: Optional[Sequence[str]] = None) -> List[Node]:
    """A columnar realization as ``Node`` objects (ids ``0..n-1``) that
    view, not copy, the arrays: node ``i`` owns
    ``starts[offsets[i]:offsets[i+1]]``.  ``tags`` defaults to ``""``."""
    bounds = np.asarray(offsets).tolist()
    n = len(bounds) - 1
    if tags is None:
        tags = ("",) * n
    return [Node(i, float(power[i]), starts[bounds[i]:bounds[i + 1]],
                 ends[bounds[i]:bounds[i + 1]], tag=tags[i])
            for i in range(n)]
