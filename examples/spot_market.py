#!/usr/bin/env python
"""Cloud spot instances as a Best-Effort DCI (§2.1, §4.1.1).

The paper's ``spot10`` / ``spot100`` traces come from a clever bidding
strategy on Amazon EC2 spot instances: to spend a constant S dollars
per hour, place persistent bids at prices S/i for i = 1..n.  Whenever
the market price is p, exactly floor(S/p) bids are above water, so the
fleet self-regulates — and a price spike terminates the *top of the
ladder at once*, which is what makes spot infrastructures fail in
correlated bursts rather than one desktop at a time.

This example synthesizes a 30-day market, builds the S=$10 ladder, and
then runs a SMALL BoT on the resulting BE-DCI with and without
SpeQuloS.

Run:  python examples/spot_market.py
"""

import numpy as np

from repro.experiments import ExecutionConfig, run_execution
from repro.infra.spot import SpotMarket, ladder_counts, spot_intervals
from repro.infra.stats import measure_trace
from repro.infra.catalog import get_trace_spec
from repro.infra.node import nodes_from_flat

DAY = 86400.0


def main() -> None:
    rng = np.random.default_rng(7)
    market = SpotMarket(rng, horizon=30 * DAY)
    print("synthetic c1.large spot market, 30 days:")
    print(f"  price range : {market.prices.min():.3f} .. "
          f"{market.prices.max():.3f} $/h (floor "
          f"{market.params.floor})")

    counts = ladder_counts(market, budget=10.0)
    print(f"\nbid ladder for S=$10/h (bids at 10/i):")
    print(f"  instances   : mean {counts.mean():.1f}, min {counts.min()}, "
          f"max {counts.max()}")
    print(f"  total cost  : <= $10/h by construction "
          f"(worst hour: ${(counts * market.prices).max():.2f})")
    drops = np.diff(counts)
    print(f"  biggest correlated termination: {-drops.min()} instances "
          "at once (price spike kills the ladder top)")

    # availability seen by individual ladder slots
    ivs = spot_intervals(market, 10.0)
    spans = [float(np.sum(e - s)) for s, e in ivs if len(s)]
    print(f"  slot uptime : most robust {spans[0] / DAY:.1f} days, most "
          f"fragile {spans[-1] / DAY:.1f} days of 30")

    # Table 2 style statistics of the materialized trace
    spec = get_trace_spec("spot10")
    nodes = nodes_from_flat(*spec.materialize(np.random.default_rng(8),
                                              4 * DAY))
    st = measure_trace(nodes, 4 * DAY)
    print(f"\nspot10 trace vs paper targets: mean {st.mean_nodes:.0f} "
          f"(target {spec.mean_nodes:.0f}), max {st.max_nodes} "
          f"(target {spec.max_nodes})")

    print("\nrunning a SMALL BoT on the spot BE-DCI (XWHEP)...")
    base = ExecutionConfig(trace="spot10", middleware="xwhep",
                           category="SMALL", seed=42, bot_size=250)
    plain = run_execution(base)
    speq = run_execution(base.with_strategy("9C-C-R"))
    print(f"  no SpeQuloS : {plain.makespan:8.0f} s "
          f"(slowdown {plain.slowdown:.2f}x)")
    print(f"  SpeQuloS    : {speq.makespan:8.0f} s "
          f"(credits spent {speq.credits_used_pct:.1f} %)")
    print("\nspot fleets are comparatively stable between spikes, so the "
          "paper finds the smallest SpeQuloS gains here (Figure 6).")


if __name__ == "__main__":
    main()
