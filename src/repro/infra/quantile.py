"""Piecewise log-linear quantile functions.

Table 2 of the paper publishes availability / unavailability *duration
quartiles* for every BE-DCI trace.  To synthesize traces that honour
those quartiles exactly we sample durations through an explicit
quantile function built from the published points:

* the quantile function passes through (0.25, Q1), (0.50, Q2),
  (0.75, Q3) exactly;
* below Q1 it extends log-linearly down to a floor ``q_min``
  (default Q1/4, clamped to >= 1 s);
* above Q3 it extends log-linearly up to ``q_max = Q3 * tail_factor``,
  giving a controllable heavy upper tail.  The tail matters: Grid'5000
  best-effort availability has a sub-minute *median* but hour-long free
  windows at night, and without those windows long tasks would never
  complete (see DESIGN.md §3.2).

Interpolation is linear in (u, log d) space, i.e. between two anchor
quantiles the distribution is log-uniform — a neutral choice that keeps
all three quartiles exact no matter the tail parameters.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["PiecewiseLogQuantile"]


class PiecewiseLogQuantile:
    """Sampler for positive durations matching given quartiles.

    Parameters
    ----------
    quartiles:
        (Q1, Q2, Q3) of the target duration distribution, seconds.
    tail_factor:
        ``q_max = Q3 * tail_factor`` is the maximum sampled duration.
    floor_factor:
        ``q_min = max(1, Q1 * floor_factor)`` is the minimum.
    """

    def __init__(self, quartiles: Sequence[float], tail_factor: float = 40.0,
                 floor_factor: float = 0.25):
        q1, q2, q3 = (float(q) for q in quartiles)
        if not (0 < q1 <= q2 <= q3):
            raise ValueError(f"quartiles must be positive and sorted: {quartiles}")
        if tail_factor < 1.0:
            raise ValueError("tail_factor must be >= 1")
        if not (0 < floor_factor <= 1.0):
            raise ValueError("floor_factor must be in (0, 1]")
        q_min = max(1.0, q1 * floor_factor)
        q_max = q3 * tail_factor
        # Guard against degenerate anchor sets (all quartiles equal).
        eps = 1e-9
        self._u = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        self._logq = np.log(np.maximum.accumulate(
            np.array([q_min, q1, q2 + eps, q3 + 2 * eps, q_max + 3 * eps])))
        self.quartiles = (q1, q2, q3)
        self.q_min = q_min
        self.q_max = q_max
        self._mean: Optional[float] = None

    # ------------------------------------------------------------------
    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Quantile function: map uniforms in [0,1] to durations."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise ValueError("u must lie in [0, 1]")
        return np.exp(np.interp(u, self._u, self._logq))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` durations."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self.ppf(rng.random(size))

    def mean(self) -> float:
        """Numerical mean of the distribution (trapezoid over the ppf).

        Computed once per instance: the anchors never change, and trace
        generation asks for the mean on every scalar fallback row.
        """
        if self._mean is None:
            u = np.linspace(0.0, 1.0, 20001)
            self._mean = float(np.trapezoid(self.ppf(u), u))
        return self._mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        q1, q2, q3 = self.quartiles
        return (f"PiecewiseLogQuantile(Q1={q1:.0f}, Q2={q2:.0f}, Q3={q3:.0f}, "
                f"max={self.q_max:.0f})")
