"""Per-node reference for columnar trace generation (test oracle).

The generators build every realization straight into flat columns
(``starts``/``ends``/``offsets``/``power``).  This module keeps the
historical per-node path they replaced, so tests can pin the columnar
output byte for byte against it:

* :func:`gate_windows_scalar` — one node's participation windows, the
  per-step loop;
* :func:`intersect_scalar` — the two-pointer interval-set merge;
* :func:`renewal_nodes` / :func:`gantt_nodes` / :func:`spot_nodes` —
  the per-node renewal walk, the per-node gate + intersect loop and the
  per-slot spot ladder, building ``Node`` lists;
* :func:`reference_materialize` — ``TraceSpec.materialize`` as it was
  before generation went columnar;
* :func:`flat_from_raw` / :func:`flatten` / :func:`columns_from_raw` —
  per-node tuples or ``Node`` lists concatenated into the columnar
  layout (or a ``NodeColumns`` template), for comparisons and fixtures.

Every function draws from the RNG in the historical order, so a caller
can also compare generator states afterwards.
"""

import math

import numpy as np

from repro.infra.catalog import SPOT
from repro.infra.columns import NodeColumns
from repro.infra.gantt import GanttTraceGenerator
from repro.infra.node import Node
from repro.infra.spot import SpotMarket, spot_intervals


def gate_windows_scalar(threshold, period, phase, horizon,
                        depth=1.0, base=0.5):
    """Windows where the gate exceeds ``threshold``: the per-step loop."""
    amp = depth / 2.0
    lo, hi = base - amp, base + amp
    if threshold <= lo:
        return np.array([0.0]), np.array([horizon])
    if threshold >= hi:
        return np.empty(0), np.empty(0)
    s = (threshold - base) / amp
    a = math.asin(s)
    w = period / (2.0 * math.pi)
    lo_off = (a * w - phase * w) % period
    width = (math.pi - 2.0 * a) * w
    starts, ends = [], []
    k0 = -1
    t = lo_off + k0 * period
    while t < horizon:
        s0, e0 = t, t + width
        if e0 > 0:
            starts.append(max(0.0, s0))
            ends.append(min(horizon, e0))
        k0 += 1
        t = lo_off + k0 * period
    return np.asarray(starts), np.asarray(ends)


def intersect_scalar(s1, e1, s2, e2):
    """Intersection of two sorted disjoint interval sets (two-pointer)."""
    out_s, out_e = [], []
    i = j = 0
    n1, n2 = len(s1), len(s2)
    while i < n1 and j < n2:
        lo = max(s1[i], s2[j])
        hi = min(e1[i], e2[j])
        if hi > lo:
            out_s.append(float(lo))
            out_e.append(float(hi))
        # advance whichever interval ends first
        if e1[i] <= e2[j]:
            i += 1
        else:
            j += 1
    return np.asarray(out_s), np.asarray(out_e)


def renewal_nodes(gen, rng, n_nodes, horizon, tag=""):
    """The per-node renewal path: bulk rows sliced node by node, each
    uncovered row replaced by a scalar walk as the loop reaches it."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    powers = gen.draw_power(rng, n_nodes)
    cycle = gen.avail_dist.mean() + gen.unavail_dist.mean()
    k = max(4, int(horizon / cycle * 1.5) + 6)
    n = n_nodes
    in_avail = rng.random(n) < gen.p_avail
    first = np.where(
        in_avail,
        gen._length_biased_batch(rng, n, gen.avail_dist),
        gen._length_biased_batch(rng, n, gen.unavail_dist))
    t0 = -first * rng.random(n)
    av = gen.avail_dist.ppf(rng.random((n, k)))
    un = gen.unavail_dist.ppf(rng.random((n, k)))
    starts, ends = gen._assemble_bulk(in_avail, first, t0, av, un)
    covered = ends[:, -1] >= horizon
    flat_s, flat_e, offsets = gen._clip_rows(
        starts[covered], ends[covered], horizon)
    nodes = []
    row = 0
    for i in range(n):
        if covered[i]:
            s_arr = flat_s[offsets[row]:offsets[row + 1]]
            e_arr = flat_e[offsets[row]:offsets[row + 1]]
            row += 1
        else:
            s_arr, e_arr = gen._node_schedule(rng, horizon)
        nodes.append(Node(i, float(powers[i]), s_arr, e_arr, tag=tag))
    return nodes


def gantt_nodes(gen, rng, n_nodes, horizon, tag=""):
    """The per-node gated path: one window set and one merge per node."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    phase = rng.random() * 2.0 * math.pi
    base_nodes = renewal_nodes(gen.renewal, rng, n_nodes, horizon, tag=tag)
    if gen.gate_depth <= 0.0:
        return base_nodes
    nodes = []
    for i, bn in enumerate(base_nodes):
        thr = (i + 0.5) / n_nodes
        gs, ge = gate_windows_scalar(thr, gen.gate_period, phase, horizon,
                                     depth=gen.gate_depth)
        s, e = intersect_scalar(bn.starts, bn.ends, gs, ge)
        nodes.append(Node(i, bn.power, s, e, tag=tag))
    return nodes


def spot_nodes(rng, market, budget, power_mean, power_std,
               max_instances=None, tag="spot"):
    """The bid ladder as one ``Node`` per slot."""
    intervals = spot_intervals(market, budget, max_instances)
    n = len(intervals)
    if power_std > 0:
        powers = np.maximum(rng.normal(power_mean, power_std, n), 50.0)
    else:
        powers = np.full(n, power_mean)
    return [Node(i, float(powers[i]), s, e, tag=tag)
            for i, (s, e) in enumerate(intervals)]


def reference_materialize(spec, rng, horizon, max_nodes=None):
    """``TraceSpec.materialize`` through the per-node reference path."""
    natural = spec.natural_node_count()
    n = natural if max_nodes is None else min(natural, int(max_nodes))
    if spec.family == SPOT:
        market = SpotMarket(rng, horizon, spec.spot_params)
        return spot_nodes(rng, market, spec.spot_budget, spec.power_mean,
                          spec.power_std, max_instances=n, tag=spec.name)
    if spec._gated():
        gen = GanttTraceGenerator(spec._renewal(),
                                  gate_depth=spec.gate_depth)
        return gantt_nodes(gen, rng, n, horizon, tag=spec.name)
    return renewal_nodes(spec._renewal(), rng, n, horizon, tag=spec.name)


def flat_from_raw(raw):
    """Per-node ``(starts, ends, power, tag)`` tuples, in node-id order,
    concatenated into the columnar layout ``(starts, ends, offsets,
    power, tags)`` that ``TraceSpec.materialize`` returns and
    ``NodeColumns.from_flat`` takes."""
    if any(s.shape != e.shape for s, e, _p, _t in raw):
        raise ValueError("starts and ends must have identical shapes")
    offsets = np.zeros(len(raw) + 1, dtype=np.int64)
    np.cumsum([s.shape[0] for s, _e, _p, _t in raw], out=offsets[1:])
    starts, ends, power, tags = zip(*raw) if raw else ((),) * 4
    return (np.concatenate((np.empty(0), *starts)),
            np.concatenate((np.empty(0), *ends)), offsets,
            np.array(power, dtype=np.float64), tuple(tags))


def columns_from_raw(raw):
    """A ``NodeColumns`` template built from per-node tuples."""
    return NodeColumns.from_flat(*flat_from_raw(raw))


def flatten(nodes):
    """A node list in the columnar layout (see :func:`flat_from_raw`)."""
    return flat_from_raw([(n.starts, n.ends, n.power, n.tag)
                          for n in nodes])
