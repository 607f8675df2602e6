"""Best-effort Grid availability model (Grid'5000 Gantt substitution).

Paper §4.1.1: "a node is available in Best Effort Grid traces when it
does not compute regular tasks" — the authors derived ``g5klyo`` and
``g5kgre`` from the December-2010 Gantt utilization charts of the Lyon
and Grenoble clusters.  Cluster utilization has two time scales:

* *fast churn* — regular jobs start and finish continuously, so a
  best-effort slot lives seconds-to-minutes (Table 2's quartiles:
  median 51 s on Lyon!);
* *slow tides* — nights and week-ends leave large parts of the cluster
  free, which is why the available-node count swings between 6 and 226
  on Lyon (mean 90.6, std 105.4 — larger than the mean).

We model the fast churn with the same quartile-fitted alternating
renewal process as desktop grids, and the slow tide with a sinusoidal
*participation gate*: node ``i`` of ``N`` only participates while
``gate(t) >= i/N`` where ``gate`` oscillates with a one-day period.
Intersecting the two interval sets reproduces both scales without any
proprietary data.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.infra.intervals import intersect_rows
from repro.infra.renewal import FlatNodes, RenewalTraceGenerator

__all__ = ["GanttTraceGenerator", "gate_windows"]


def gate_windows(thresholds: np.ndarray, period: float, phase: float,
                 horizon: float, depth: float = 1.0,
                 base: float = 0.5) -> Tuple[np.ndarray, np.ndarray]:
    """Time windows where ``base + (depth/2)*sin(2*pi*t/period + phase)``
    exceeds each threshold, one row per threshold.

    Row ``i`` is a sorted disjoint interval set over [0, horizon) for
    ``thresholds[i]``, padded to a common width with empty sentinel
    windows: ``(-inf, -inf)`` before its first window and
    ``(+inf, +inf)`` after its last (the layout
    :func:`~repro.infra.intervals.intersect_rows` consumes).  With the
    default ``base=0.5, depth=1.0`` the gate spans [0, 1] and threshold
    ``r`` is exceeded during an arc of each period.
    """
    if period <= 0 or horizon <= 0:
        raise ValueError("period and horizon must be positive")
    amp = depth / 2.0
    lo, hi = base - amp, base + amp
    thresholds = np.asarray(thresholds, dtype=float)
    # one window per period at t = lo_off + k*period, k = -1, 0, 1, ...
    # while t < horizon; one spare column past the last possible window
    k = np.arange(-1, int(math.ceil(horizon / period)) + 2, dtype=float)
    starts = np.full((thresholds.shape[0], k.shape[0]), np.inf)
    ends = starts.copy()
    full = thresholds <= lo
    starts[full, 0] = 0.0
    ends[full, 0] = horizon
    arcs = np.flatnonzero(~full & (thresholds < hi))
    # sin(x) > s on (asin(s), pi - asin(s)) within each 2*pi cycle; the
    # asin and the float modulo stay scalar Python math
    a = [math.asin(s) for s in ((thresholds[arcs] - base) / amp).tolist()]
    w = period / (2.0 * math.pi)
    lo_off = np.array([(x * w - phase * w) % period for x in a])
    width = (math.pi - 2.0 * np.array(a)) * w
    t = lo_off[:, None] + k * period
    e0 = t + width[:, None]
    after = t >= horizon
    before = ~after & ~(e0 > 0.0)
    starts[arcs] = np.where(after, np.inf, np.where(
        before, -np.inf, np.maximum(0.0, t)))
    ends[arcs] = np.where(after, np.inf, np.where(
        before, -np.inf, np.minimum(horizon, e0)))
    return starts, ends


class GanttTraceGenerator:
    """Renewal churn modulated by a day-period participation gate.

    Parameters
    ----------
    renewal:
        The fast-churn generator (quartile-fitted, power 3000 nops/s
        and homogeneous for Grid'5000 per Table 2).
    gate_period:
        Tide period in seconds (default one day).
    gate_depth:
        0 disables the tide (plain renewal); 1 gives full swings where
        at the trough almost no node participates.
    """

    def __init__(self, renewal: RenewalTraceGenerator,
                 gate_period: float = 86400.0, gate_depth: float = 1.0):
        if not 0.0 <= gate_depth <= 1.0:
            raise ValueError("gate_depth must be in [0, 1]")
        self.renewal = renewal
        self.gate_period = float(gate_period)
        self.gate_depth = float(gate_depth)

    def nodes_for_mean(self, mean_available: float) -> int:
        """Node count matching Table 2's mean available count.

        The sinusoidal gate halves average participation (mean gate
        value is ``base=0.5``), on top of the renewal availability.
        """
        p = self.renewal.p_avail
        participation = 0.5 if self.gate_depth > 0 else 1.0
        return max(1, int(round(mean_available / (p * participation))))

    def generate(self, rng: np.random.Generator, n_nodes: int,
                 horizon: float) -> FlatNodes:
        """Columnar schedules: renewal churn ∩ participation windows.

        Node ``i`` of ``n_nodes`` participates above threshold
        ``(i + 0.5) / n_nodes``.  Every node's windows are computed in
        one pass and intersected with the bulk renewal schedules in one
        segmented pass; returns ``(starts, ends, offsets, power)`` like
        :meth:`RenewalTraceGenerator.generate`.
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        phase = rng.random() * 2.0 * math.pi
        starts, ends, offsets, power = self.renewal.generate(
            rng, n_nodes, horizon)
        if self.gate_depth <= 0.0:
            return starts, ends, offsets, power
        thresholds = (np.arange(n_nodes) + 0.5) / n_nodes
        win_s, win_e = gate_windows(thresholds, self.gate_period, phase,
                                    horizon, depth=self.gate_depth)
        starts, ends, offsets = intersect_rows(starts, ends, offsets,
                                               win_s, win_e)
        return starts, ends, offsets, power
