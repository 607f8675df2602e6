"""Alternating-renewal synthesis of node availability traces.

Substitutes for the Failure Trace Archive datasets (``seti``, ``nd``)
and the Grid'5000 Gantt-derived traces (``g5klyo``, ``g5kgre``) that the
paper replays but that are not available offline.

Model
-----
Each node is an independent alternating renewal process: availability
durations ~ ``avail_dist``, unavailability durations ~ ``unavail_dist``
(both :class:`~repro.infra.quantile.PiecewiseLogQuantile` fitted to the
Table 2 quartiles).  Nodes start in stationary phase: the first period
is drawn *length-biased* and the origin falls uniformly inside it, so
the aggregate available-node count is stationary from t=0.  The paper
samples BoT submissions at arbitrary offsets of months-long traces; a
stationary start plus a fresh seed per execution reproduces that
protocol without materializing months of intervals.

The node count needed to hit Table 2's *mean available nodes* column is
``mean / p_avail`` where ``p_avail = E[avail] / (E[avail]+E[unavail])``
is the single-node stationary availability.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.infra.quantile import PiecewiseLogQuantile

__all__ = ["FlatNodes", "RenewalTraceGenerator", "stationary_availability"]

#: one realization, columnar: ``(starts, ends, offsets, power)``
FlatNodes = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def stationary_availability(avail: PiecewiseLogQuantile,
                            unavail: PiecewiseLogQuantile) -> float:
    """Long-run fraction of time a renewal node is available.

    For an alternating renewal process this is
    ``E[avail] / (E[avail] + E[unavail])``.
    """
    ma = avail.mean()
    mu = unavail.mean()
    return ma / (ma + mu)


def _length_biased(dist: PiecewiseLogQuantile, rng: np.random.Generator,
                   candidates: int = 16) -> float:
    """Draw one duration from the length-biased version of ``dist``.

    The interval containing a uniformly random time point is distributed
    length-biased; we approximate by importance-resampling a small
    candidate batch with probability proportional to duration.
    """
    c = dist.sample(rng, candidates)
    w = c / c.sum()
    return float(rng.choice(c, p=w))


class RenewalTraceGenerator:
    """Generates per-node availability interval schedules.

    Parameters
    ----------
    avail_dist / unavail_dist:
        Duration distributions (seconds).
    power_mean / power_std:
        Node computing power, drawn i.i.d. normal and truncated at
        ``power_min`` (Table 2's power columns: desktop nodes
        1000 +- 250 nops/s, grid and cloud nodes 3000 nops/s).
    """

    def __init__(self, avail_dist: PiecewiseLogQuantile,
                 unavail_dist: PiecewiseLogQuantile,
                 power_mean: float, power_std: float,
                 power_min: float = 50.0):
        if power_mean <= 0 or power_std < 0:
            raise ValueError("power_mean must be > 0 and power_std >= 0")
        self.avail_dist = avail_dist
        self.unavail_dist = unavail_dist
        self.power_mean = float(power_mean)
        self.power_std = float(power_std)
        self.power_min = float(power_min)
        self._p_avail: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def p_avail(self) -> float:
        """Stationary availability probability of a single node."""
        if self._p_avail is None:
            self._p_avail = stationary_availability(
                self.avail_dist, self.unavail_dist)
        return self._p_avail

    def nodes_for_mean(self, mean_available: float) -> int:
        """Node count whose mean simultaneous availability matches."""
        return max(1, int(round(mean_available / self.p_avail)))

    # ------------------------------------------------------------------
    def draw_power(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample node powers (normal, truncated at ``power_min``)."""
        if self.power_std == 0.0:
            return np.full(size, self.power_mean)
        p = rng.normal(self.power_mean, self.power_std, size)
        return np.maximum(p, self.power_min)

    def _node_schedule(self, rng: np.random.Generator,
                       horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """One node's (starts, ends) arrays covering [0, horizon).

        Vectorized: cycles (one availability + one gap) are drawn in
        bulk, cumulative-summed into interval boundaries, and clipped
        to the horizon; the rare short draw extends in a loop.
        """
        in_avail = rng.random() < self.p_avail
        # Stationary start: t=0 falls uniformly inside a length-biased
        # first period, so the walk begins at a negative offset.
        first_dist = self.avail_dist if in_avail else self.unavail_dist
        first = _length_biased(first_dist, rng)
        t0 = -first * rng.random()

        cycle = self.avail_dist.mean() + self.unavail_dist.mean()
        est = max(8, int((horizon - t0) / cycle * 1.4) + 4)
        av_parts = []
        un_parts = []
        covered = t0 + first
        while True:
            av = self.avail_dist.sample(rng, est)
            un = self.unavail_dist.sample(rng, est)
            av_parts.append(av)
            un_parts.append(un)
            covered += float(av.sum() + un.sum())
            if covered >= horizon:
                break
            est = max(8, est // 2)
        av = np.concatenate(av_parts) if len(av_parts) > 1 else av_parts[0]
        un = np.concatenate(un_parts) if len(un_parts) > 1 else un_parts[0]

        if in_avail:
            # periods: first(avail), un[0], av[0], un[1], av[1], ...
            starts = np.empty(av.shape[0] + 1)
            ends = np.empty_like(starts)
            starts[0] = t0
            ends[0] = t0 + first
            gap_cum = np.cumsum(un)
            av_cum = np.concatenate(([0.0], np.cumsum(av[:-1])))
            starts[1:] = ends[0] + gap_cum + av_cum
            ends[1:] = starts[1:] + av
        else:
            # periods: first(gap), av[0], un[0], av[1], un[1], ...
            gap_ends = t0 + first + np.concatenate(
                ([0.0], np.cumsum(un[:-1] + av[:-1])))
            starts = gap_ends
            ends = gap_ends + av
        keep = (ends > 0.0) & (starts < horizon)
        starts = np.clip(starts[keep], 0.0, None)
        ends = np.minimum(ends[keep], horizon)
        keep = ends > starts
        return starts[keep], ends[keep]

    def _length_biased_batch(self, rng: np.random.Generator, n: int,
                             dist: PiecewiseLogQuantile,
                             candidates: int = 16) -> np.ndarray:
        """Vectorized length-biased draws (one per row)."""
        c = dist.ppf(rng.random((n, candidates)))
        w = c / c.sum(axis=1, keepdims=True)
        u = rng.random(n)
        idx = (np.cumsum(w, axis=1) < u[:, None]).sum(axis=1)
        return c[np.arange(n), np.minimum(idx, candidates - 1)]

    def generate(self, rng: np.random.Generator, n_nodes: int,
                 horizon: float) -> FlatNodes:
        """Schedules of ``n_nodes`` nodes over [0, horizon), columnar.

        Returns ``(starts, ends, offsets, power)``: node ``i`` owns
        ``starts[offsets[i]:offsets[i+1]]`` (the layout of
        :class:`~repro.infra.columns.NodeColumns` and the trace store).

        Bulk path: all nodes' cycle durations are drawn as matrices and
        turned into interval boundaries with row-wise cumulative sums
        (the 24k-node ``seti`` trace generates in seconds this way).
        Rows whose drawn cycles do not cover the horizon — rare, the
        cycle count carries a 1.5x margin — fall back to the exact
        scalar walk, one row at a time in row order after every bulk
        draw, so the RNG draw sequence is the historical per-node one.
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        powers = self.draw_power(rng, n_nodes)
        cycle = self.avail_dist.mean() + self.unavail_dist.mean()
        k = max(4, int(horizon / cycle * 1.5) + 6)
        n = n_nodes

        in_avail = rng.random(n) < self.p_avail
        first = np.where(
            in_avail,
            self._length_biased_batch(rng, n, self.avail_dist),
            self._length_biased_batch(rng, n, self.unavail_dist))
        t0 = -first * rng.random(n)
        av = self.avail_dist.ppf(rng.random((n, k)))
        un = self.unavail_dist.ppf(rng.random((n, k)))

        starts, ends = self._assemble_bulk(in_avail, first, t0, av, un)
        covered = ends[:, -1] >= horizon
        flat_s, flat_e, bulk_offsets = self._clip_rows(
            starts[covered], ends[covered], horizon)

        fallback = np.flatnonzero(~covered)
        walks = [self._node_schedule(rng, horizon) for _ in fallback]
        counts = np.zeros(n, dtype=np.int64)
        counts[covered] = np.diff(bulk_offsets)
        counts[fallback] = [s.shape[0] for s, _e in walks]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        out_s = np.empty(offsets[-1])
        out_e = np.empty(offsets[-1])
        # covered rows keep their row-major order, so one masked store
        # places every bulk interval; fallback rows fill the gaps
        from_bulk = np.repeat(covered, counts)
        out_s[from_bulk] = flat_s
        out_e[from_bulk] = flat_e
        for i, (s_arr, e_arr) in zip(fallback, walks):
            out_s[offsets[i]:offsets[i + 1]] = s_arr
            out_e[offsets[i]:offsets[i + 1]] = e_arr
        return out_s, out_e, offsets, powers

    @staticmethod
    def _assemble_bulk(in_avail: np.ndarray, first: np.ndarray,
                       t0: np.ndarray, av: np.ndarray, un: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Durations → unclipped interval boundary matrices (pure math).

        Uniform layout: avail durations A[j], gap durations G[j]; for
        rows starting available the first avail period is ``first``,
        otherwise the first gap is.  Split out so property tests can
        pin the float association against a scalar reference walk.
        """
        n, k = av.shape
        ia = in_avail[:, None]
        A = np.where(ia, np.hstack([first[:, None], av[:, :k - 1]]), av)
        G = np.where(ia, un, np.hstack([first[:, None], un[:, :k - 1]]))
        cumA = np.cumsum(A, axis=1)
        cumG = np.cumsum(G, axis=1)
        exclA = np.hstack([np.zeros((n, 1)), cumA[:, :-1]])
        exclG = np.hstack([np.zeros((n, 1)), cumG[:, :-1]])
        starts = t0[:, None] + exclA + np.where(ia, exclG, cumG)
        ends = starts + A
        return starts, ends

    @staticmethod
    def _clip_rows(starts: np.ndarray, ends: np.ndarray, horizon: float
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clip boundary rows to [0, horizon) — all rows at once.

        Replaces the historical per-row mask/clip loop with one
        elementwise pass (same comparisons, same clip floats); returns
        row-major flattened arrays plus per-row offsets, so row ``r``
        owns ``flat[offsets[r]:offsets[r+1]]``.
        """
        if starts.size == 0:
            empty = np.empty(0)
            return empty, empty, np.zeros(starts.shape[0] + 1, dtype=np.int64)
        clipped_s = np.clip(starts, 0.0, None)
        clipped_e = np.minimum(ends, horizon)
        keep = ((ends > 0.0) & (starts < horizon)
                & (clipped_e > clipped_s))
        counts = keep.sum(axis=1)
        offsets = np.zeros(starts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return clipped_s[keep], clipped_e[keep], offsets
