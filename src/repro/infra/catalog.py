"""The six BE-DCI traces of Table 2, as generation targets.

Every :class:`TraceSpec` carries the statistics published in Table 2 of
the paper (mean/min/max available nodes, duration quartiles, node
power) and knows how to *materialize* itself into columnar node
schedules:

* ``seti``, ``nd``      — desktop grids: quartile-fitted alternating
  renewal (`repro.infra.renewal`);
* ``g5klyo``, ``g5kgre`` — best-effort grids: renewal churn modulated by
  a day-period participation gate (`repro.infra.gantt`);
* ``spot10``, ``spot100`` — EC2 spot bid ladders over a synthetic price
  market (`repro.infra.spot`).

``materialize(..., max_nodes=...)`` caps the node count: execution
campaigns do not need all 24 391 seti nodes when a BoT can only occupy
a few thousand workers at once (DESIGN.md §4).  The Table 2 benchmark
materializes the full-size traces to report faithful statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.infra.gantt import GanttTraceGenerator
from repro.infra.quantile import PiecewiseLogQuantile
from repro.infra.renewal import RenewalTraceGenerator
from repro.infra.spot import SpotMarket, SpotMarketParams, spot_columns

__all__ = ["TraceSpec", "TRACE_NAMES", "get_trace_spec", "list_trace_specs"]

#: Trace family: drives which generator materializes the spec.
DESKTOP_GRID = "desktop_grid"
BEST_EFFORT_GRID = "best_effort_grid"
SPOT = "spot"

#: BE-DCI class labels used by Table 1 of the paper.
DCI_CLASS_LABEL = {
    DESKTOP_GRID: "Desktop Grids",
    BEST_EFFORT_GRID: "Best Effort Grids",
    SPOT: "Spot Instances",
}


@dataclass(frozen=True)
class TraceSpec:
    """Generation target for one BE-DCI availability trace (Table 2)."""

    name: str
    family: str
    length_days: float
    mean_nodes: float
    std_nodes: float
    min_nodes: int
    max_nodes: int
    avail_quartiles: Tuple[float, float, float]
    unavail_quartiles: Tuple[float, float, float]
    power_mean: float
    power_std: float
    #: upper-tail extension of the duration distributions (DESIGN.md §3)
    avail_tail_factor: float = 40.0
    unavail_tail_factor: float = 40.0
    #: best-effort grids: day/night participation-gate depth (0 = no
    #: tide; 1 = full swings).  Deep gates reproduce large count swings
    #: but chop long availability runs into window-sized pieces, so
    #: traces with long Q3 availability use a shallow gate.
    gate_depth: float = 1.0
    #: spot-only: the constant hourly budget S of the bid ladder
    spot_budget: Optional[float] = None
    spot_params: SpotMarketParams = field(default_factory=SpotMarketParams)

    # ------------------------------------------------------------------
    def _renewal(self) -> RenewalTraceGenerator:
        avail = PiecewiseLogQuantile(self.avail_quartiles,
                                     tail_factor=self.avail_tail_factor)
        unavail = PiecewiseLogQuantile(self.unavail_quartiles,
                                       tail_factor=self.unavail_tail_factor)
        return RenewalTraceGenerator(avail, unavail,
                                     self.power_mean, self.power_std)

    def natural_node_count(self) -> int:
        """Node count implied by Table 2's mean-available column."""
        if self.family == SPOT:
            assert self.spot_budget is not None
            return int(self.spot_budget / self.spot_params.floor)
        if self._gated():
            gen = GanttTraceGenerator(self._renewal(),
                                      gate_depth=self.gate_depth)
            return gen.nodes_for_mean(self.mean_nodes)
        return self._renewal().nodes_for_mean(self.mean_nodes)

    def _gated(self) -> bool:
        """Whether materialization applies the day/night gate.

        Best-effort grids always do (cluster load tides); desktop grids
        do when ``gate_depth`` > 0 (volunteer diurnal cycles — the
        source of seti's 15868..31092 count swings).
        """
        if self.family == BEST_EFFORT_GRID:
            return True
        return self.family == DESKTOP_GRID and self.gate_depth > 0.0

    @property
    def participation(self) -> float:
        """Mean fraction of the population the gate lets participate
        (node-cap heuristics divide by this)."""
        return 0.5 if self._gated() else 1.0

    def materialize(self, rng: np.random.Generator, horizon: float,
                    max_nodes: Optional[int] = None) -> Tuple:
        """Generate node schedules over ``[0, horizon)`` seconds.

        ``max_nodes`` caps the materialized population; when capped the
        per-node behaviour (churn, power) is unchanged, only the pool
        depth shrinks, which does not alter execution dynamics as long
        as the cap exceeds the BoT's peak worker demand.

        Returns the columnar realization the trace cache and store keep,
        ``(starts, ends, offsets, power, tags)``: node ``i`` owns
        ``starts[offsets[i]:offsets[i+1]]``.  Object consumers wrap it
        with :func:`~repro.infra.node.nodes_from_flat`.
        """
        natural = self.natural_node_count()
        n = natural if max_nodes is None else min(natural, int(max_nodes))
        if n <= 0:
            raise ValueError("node cap must be positive")
        if self.family == SPOT:
            assert self.spot_budget is not None
            market = SpotMarket(rng, horizon, self.spot_params)
            starts, ends, offsets, power = spot_columns(
                rng, market, self.spot_budget, self.power_mean,
                self.power_std, max_instances=n)
        elif self._gated():
            gen = GanttTraceGenerator(self._renewal(),
                                      gate_depth=self.gate_depth)
            starts, ends, offsets, power = gen.generate(rng, n, horizon)
        else:
            starts, ends, offsets, power = self._renewal().generate(
                rng, n, horizon)
        return starts, ends, offsets, power, (self.name,) * n

    @property
    def dci_class(self) -> str:
        """Human-readable BE-DCI class (Table 1 row label)."""
        return DCI_CLASS_LABEL[self.family]


def _build_catalog() -> Dict[str, TraceSpec]:
    """Table 2 of the paper, verbatim targets."""
    return {
        "seti": TraceSpec(
            name="seti", family=DESKTOP_GRID, length_days=120,
            mean_nodes=24391, std_nodes=6793, min_nodes=15868, max_nodes=31092,
            avail_quartiles=(61, 531, 5407),
            unavail_quartiles=(174, 501, 3078),
            power_mean=1000, power_std=250,
            avail_tail_factor=40, unavail_tail_factor=60,
            gate_depth=0.4),
        "nd": TraceSpec(
            name="nd", family=DESKTOP_GRID, length_days=413.87,
            mean_nodes=180, std_nodes=4.129, min_nodes=77, max_nodes=501,
            avail_quartiles=(952, 3840, 26562),
            unavail_quartiles=(640, 960, 1920),
            power_mean=1000, power_std=250,
            avail_tail_factor=20, unavail_tail_factor=30,
            gate_depth=0.0),
        "g5klyo": TraceSpec(
            name="g5klyo", family=BEST_EFFORT_GRID, length_days=31,
            mean_nodes=90.573, std_nodes=105.4, min_nodes=6, max_nodes=226,
            avail_quartiles=(21, 51, 63),
            unavail_quartiles=(191, 236, 480),
            power_mean=3000, power_std=0,
            # sub-minute median churn but hour-long night windows:
            avail_tail_factor=600, unavail_tail_factor=40),
        "g5kgre": TraceSpec(
            name="g5kgre", family=BEST_EFFORT_GRID, length_days=31,
            mean_nodes=474.69, std_nodes=178.7, min_nodes=184, max_nodes=591,
            avail_quartiles=(5, 182, 11268),
            unavail_quartiles=(23, 547, 6891),
            power_mean=3000, power_std=0,
            avail_tail_factor=20, unavail_tail_factor=20,
            gate_depth=0.35),
        "spot10": TraceSpec(
            name="spot10", family=SPOT, length_days=90,
            mean_nodes=82.186, std_nodes=3.814, min_nodes=29, max_nodes=87,
            avail_quartiles=(4415, 5432, 17109),
            unavail_quartiles=(4162, 5034, 9976),
            power_mean=3000, power_std=300,
            spot_budget=10.0),
        "spot100": TraceSpec(
            name="spot100", family=SPOT, length_days=90,
            mean_nodes=823.95, std_nodes=4.945, min_nodes=196, max_nodes=877,
            avail_quartiles=(1063, 5566, 22490),
            unavail_quartiles=(383, 1906, 10274),
            power_mean=3000, power_std=300,
            spot_budget=100.0),
    }


_CATALOG = _build_catalog()
TRACE_NAMES: Tuple[str, ...] = tuple(_CATALOG)


def get_trace_spec(name: str) -> TraceSpec:
    """Look up one of the six Table 2 traces by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; available: {', '.join(TRACE_NAMES)}"
        ) from None


def list_trace_specs() -> List[TraceSpec]:
    """All six Table 2 trace specs, catalog order."""
    return [_CATALOG[n] for n in TRACE_NAMES]
