"""Engine hot-path benchmark — events/sec, scale sweep, trace store.

Emits ``benchmarks/results/BENCH_engine.json``, the machine-readable
perf record CI uploads as an artifact:

* event-loop throughput of the 10^4-node seti reference execution,
  cold and warm, gated against the recorded PR 6 seed (a warm
  regression below the seed fails the bench);
* a 10^3 / 10^4 / 10^5-node federated scale sweep (events/sec and
  peak RSS per point) — the ROADMAP's million-host trajectory;
* the cProfile top-30 of the 10^5-node scenario, saved next to the
  JSON (both are untracked; CI uploads them as artifacts in the slow
  lane) — a diagnostic, not a gate;
* the cold-vs-warm wall time of materializing a seti-class trace
  realization through the shared on-disk :class:`~repro.experiments.
  trace_store.TraceStore`, for the columnar path runs use (warm must
  stay at least 5x faster) and, recorded only, the ``Node``-list path.
"""

import cProfile
import contextlib
import functools
import gc
import io
import json
import os
import pstats
import resource
import time

from repro.core.scheduler import SpeQuloSScheduler
from repro.economics.billing import BillingMeter
from repro.economics.pricing import PriceBook
from repro.infra.pool import NodePool
from repro.experiments import (
    DCISpec,
    ExecutionConfig,
    ScenarioConfig,
    run_execution,
    run_federated,
)
from repro.experiments import trace_store as ts
from repro.experiments.harness import TraceCache
from repro.experiments.report import results_dir
from repro.experiments.trace_store import TraceStore

# seti-class realization: 10^4 hosts over a few days is the shape the
# paper's biggest campaigns materialize over and over across shards
SETI_CAP = 10_000
SETI_HORIZON = 3 * 86400.0
WARM_SHARDS = 4

#: events/sec of the 10^4-node seti/boinc/SMALL execution recorded at
#: the PR 6 seed (benchmarks/results/BENCH_engine.json@PR6).  The hard
#: gate was "no regression versus the recorded seed" at first; it now
#: asks for 1.25x the seed.
PR6_EVENTS_PER_SEC = 36_577.9

#: warm throughput hard gate, as a multiple of the recorded seed: a
#: regression back under 1.25x the seed means the hot path (one
#: billing pass per tick, static-rate fast path, O(1) occupancy
#: counters) silently got slower.
GATE_MULTIPLIER = 1.25

#: warm reference-execution repetitions; the best repetition is the
#: throughput record (single-shot walls on shared CI boxes are noisy)
WARM_ROUNDS = 3

#: federated scale sweep, ascending so ru_maxrss (a process-lifetime
#: high-water mark) approximates a per-point peak
SCALE_NODES = (1_000, 10_000, 100_000)

#: events/sec of the 10^5-node sweep point recorded at the PR 8 seed
#: (BENCH_engine.json@PR8).  PR 10 vectorized the dispatch plane
#: (columnar pool promotion, bulk acquire + pairing, assembly-skeleton
#: cache), so the point must now clear SWEEP_GATE_MULTIPLIER x this.
PR8_SWEEP_100K_EPS = 6_631.8
SWEEP_GATE_MULTIPLIER = 1.3

_JSON_PATH = os.path.join(results_dir(), "BENCH_engine.json")
_PROFILE_PATH = os.path.join(results_dir(), "PROFILE_engine_100k.txt")


def _peak_rss_kb() -> int:
    """Linux ru_maxrss is KB (no psutil in the image)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _merge_payload(section: dict) -> None:
    """Read-modify-write the bench JSON (tests fill it in sequence)."""
    payload = {"bench": "engine"}
    if os.path.exists(_JSON_PATH):
        with open(_JSON_PATH) as fh:
            payload = json.load(fh)
    payload.update(section)
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _materialize_fresh(seed: int, columns: bool) -> float:
    """Wall seconds for a fresh L1 (new shard) to realize the trace, as
    the ``NodeColumns`` runs build pools from or as a ``Node`` list."""
    cache = TraceCache()
    t0 = time.perf_counter()
    if columns:
        realization = cache.materialize_columns("seti", seed, SETI_CAP,
                                                SETI_HORIZON)
    else:
        realization = cache.materialize("seti", seed, SETI_CAP,
                                        SETI_HORIZON)
    wall = time.perf_counter() - t0
    assert len(realization) == SETI_CAP
    return wall


class _HotPathCounters:
    """Call counts (and the tick wall) of the engine's hot entry points.

    :meth:`installed` wraps each entry point on its class for the
    duration of one run and restores the originals afterwards, so the
    counts describe exactly that run and nothing in ``src/`` keeps
    process-wide state for the bench.
    """

    def __init__(self):
        self.ticks = 0
        self.tick_wall = 0.0
        self.charges = 0
        self.charge_batches = 0
        self.rate_lookups = 0
        self.draws = 0
        self.ghost_compactions = 0

    def _tick(self, orig):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.ticks += 1
                self.tick_wall += time.perf_counter() - t0
        return wrapper

    def _charge(self, orig):
        def wrapper(meter, bot_id, provider, busy_seconds, *args, **kwargs):
            if busy_seconds > 0:
                self.charges += 1
            return orig(meter, bot_id, provider, busy_seconds,
                        *args, **kwargs)
        return wrapper

    def _charge_many(self, orig):
        def wrapper(meter, bot_id, provider, busy_deltas, *args, **kwargs):
            fail = orig(meter, bot_id, provider, busy_deltas,
                        *args, **kwargs)
            # charges priced: the positive deltas up to the shortfall
            billed = busy_deltas if fail < 0 else busy_deltas[:fail + 1]
            self.charges += sum(1 for b in billed if b > 0)
            self.charge_batches += 1
            return fail
        return wrapper

    def _counter(self, attr, orig):
        def wrapper(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            return orig(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        targets = (
            (SpeQuloSScheduler, "_tick", self._tick),
            (BillingMeter, "charge", self._charge),
            (BillingMeter, "charge_many", self._charge_many),
            (PriceBook, "rate",
             functools.partial(self._counter, "rate_lookups")),
            (NodePool, "_draw", functools.partial(self._counter, "draws")),
            (NodePool, "_compact_ghosts",
             functools.partial(self._counter, "ghost_compactions")),
        )
        originals = []
        try:
            for owner, name, make in targets:
                orig = owner.__dict__[name]
                originals.append((owner, name, orig))
                setattr(owner, name, functools.wraps(orig)(make(orig)))
            yield self
        finally:
            for owner, name, orig in originals:
                setattr(owner, name, orig)


def _federated_config(total_nodes: int) -> ScenarioConfig:
    """A two-DCI seti federation with ``total_nodes`` hosts overall.

    ``DCISpec.max_nodes`` overrides the automatic node cap, so the
    10^5 point materializes 2 x 50 000 hosts of the seti trace (its
    natural size is 86 631 hosts — no synthetic padding needed).
    """
    per_dci = total_nodes // 2
    return ScenarioConfig(
        dcis=(DCISpec(trace="seti", middleware="boinc",
                      max_nodes=per_dci),
              DCISpec(trace="seti", middleware="xwhep",
                      max_nodes=per_dci)),
        seed=11, n_tenants=4, categories=("SMALL",), bot_size=250,
        horizon_days=3.0)


def test_engine_throughput_and_trace_store(tmp_path, scale):
    # --- event-loop throughput over one full execution ----------------
    cfg = ExecutionConfig(trace="seti", middleware="boinc",
                          category="SMALL", seed=1)
    res_cold = run_execution(cfg)   # pays trace realization / L1 fill
    cold_eps = res_cold.events / res_cold.wall_seconds
    warm_walls = []
    for _ in range(WARM_ROUNDS):
        res = run_execution(cfg)
        assert res.events == res_cold.events  # same seed, same trajectory
        warm_walls.append(res.wall_seconds)
    warm_wall = min(warm_walls)
    warm_eps = res_cold.events / warm_wall
    speedup_vs_seed = warm_eps / PR6_EVENTS_PER_SEC

    # --- cold vs warm trace materialization through the store ---------
    # a fresh store in tmp so the timings are genuinely cold; each warm
    # round models another executor shard (fresh L1, shared L2).  One
    # realization per path (seed), so each path has its own cold start.
    store = TraceStore(root=str(tmp_path / "traces"))
    prev = ts.set_default_trace_store(store)
    walls = {}
    try:
        for seed, columns in ((42, True), (43, False)):
            cold = _materialize_fresh(seed, columns)
            warm = [_materialize_fresh(seed, columns)
                    for _ in range(WARM_SHARDS)]
            walls[columns] = (cold, warm, cold / (sum(warm) / len(warm)))
        assert store.saves == 2
        assert store.loads == 2 * WARM_SHARDS
        store_bytes = store.file_bytes()
    finally:
        ts.set_default_trace_store(prev)
    cold, store_warm_walls, store_speedup = walls[True]
    store_warm = sum(store_warm_walls) / len(store_warm_walls)
    nodes_cold, nodes_warm, nodes_speedup = walls[False]

    _merge_payload({
        "scale": scale.name,
        "events": res_cold.events,
        "run_wall_seconds": round(warm_wall, 3),
        "events_per_second": round(warm_eps, 1),
        "cold_run_wall_seconds": round(res_cold.wall_seconds, 3),
        "cold_events_per_second": round(cold_eps, 1),
        "seed_events_per_second": PR6_EVENTS_PER_SEC,
        "speedup_vs_seed": round(speedup_vs_seed, 2),
        "peak_rss_kb": _peak_rss_kb(),
        "trace_store": {
            "nodes": SETI_CAP,
            "horizon_seconds": SETI_HORIZON,
            "cold_seconds": round(cold, 4),
            "warm_seconds_mean": round(store_warm, 4),
            "warm_seconds": [round(w, 4) for w in store_warm_walls],
            "speedup": round(store_speedup, 1),
            "store_bytes": store_bytes,
            "node_list": {
                "cold_seconds": round(nodes_cold, 4),
                "warm_seconds_mean": round(
                    sum(nodes_warm) / len(nodes_warm), 4),
                "speedup": round(nodes_speedup, 1),
            },
        },
    })
    print(f"\n[bench json saved to {_JSON_PATH}]")
    print(f"[engine] warm {warm_eps:,.0f} events/s over "
          f"{res_cold.events:,} events ({speedup_vs_seed:.2f}x the "
          f"recorded seed, cold {cold_eps:,.0f}); trace store warm-up "
          f"{store_speedup:.1f}x (cold {cold:.2f}s, "
          f"warm {store_warm * 1e3:.0f}ms; Node list {nodes_speedup:.1f}x)")

    # regression gates: warm events/sec must clear GATE_MULTIPLIER x
    # the recorded seed, and a warm trace store must stay >= 5x cold on the
    # columnar path (the Node-list ratio mostly measures Node
    # construction once generation is cheap, so it is recorded only)
    gate = GATE_MULTIPLIER * PR6_EVENTS_PER_SEC
    assert warm_eps >= gate, (
        f"warm throughput regressed below {GATE_MULTIPLIER}x the "
        f"recorded seed: {warm_eps:,.0f} < {gate:,.0f} events/s")
    assert store_speedup >= 5.0, (
        f"warm trace store only {store_speedup:.1f}x faster than cold "
        f"(cold {cold:.3f}s, warm {store_warm:.3f}s)")


def test_engine_scale_sweep_and_profile(scale):
    """10^3..10^5-node federated sweep + cProfile of the 10^5 point.

    Runs with automatic GC off (collect first, re-enable after): gen-2
    pause time scales with the host process's live heap — a full tier-1
    session holds thousands of collected test items — and cProfile
    attributes each pause to whichever allocation triggered it, which
    would swamp the per-tick cost this test gates on.
    """
    gc.collect()
    gc.disable()
    try:
        _scale_sweep_and_profile(scale)
    finally:
        gc.enable()


def _scale_sweep_and_profile(scale):
    sweep = []
    for total in SCALE_NODES:
        cfg = _federated_config(total)
        t0 = time.perf_counter()
        res = run_federated(cfg)
        wall = time.perf_counter() - t0
        sweep.append({
            "nodes": total,
            "events": res.events,
            "wall_seconds": round(res.wall_seconds, 3),
            "events_per_second": round(res.events / res.wall_seconds, 1),
            "peak_rss_kb": _peak_rss_kb(),
        })
        print(f"[scale] {total:>7,} nodes: {res.events:,} events, "
              f"{res.events / res.wall_seconds:,.0f} events/s "
              f"(outer wall {wall:.2f}s, rss {_peak_rss_kb():,} KB)")

    # profile the 10^5-node scenario end to end (world assembly + run),
    # counting its hot entry points for the sections below
    counts = _HotPathCounters()
    profiler = cProfile.Profile()
    with counts.installed():
        profiler.enable()
        res = run_federated(_federated_config(SCALE_NODES[-1]))
        profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(30)
    top30 = buf.getvalue()
    with open(_PROFILE_PATH, "w") as fh:
        fh.write(f"# cProfile top-30 (cumulative) — "
                 f"{SCALE_NODES[-1]:,}-node federated scenario\n")
        fh.write(top30)
    print(f"[profile saved to {_PROFILE_PATH}]")

    # Algorithm 2 tick cost: core/scheduler.py's cumulative share of
    # the profiled run wall (recorded as a diagnostic)
    tick_cum = sum(
        ct for (fname, _lineno, func), (_cc, _nc, _tt, ct, _callers)
        in stats.stats.items()
        if func == "_tick" and fname.replace(os.sep, "/").endswith(
            "core/scheduler.py"))
    sched_share = tick_cum / res.wall_seconds
    ticks = counts.ticks
    charges = counts.charges
    scheduler_section = {
        "ticks": ticks,
        "tick_wall_seconds": round(counts.tick_wall, 3),
        "mean_tick_us": round(counts.tick_wall / max(1, ticks) * 1e6, 1),
        "charges": charges,
        "charge_batches": counts.charge_batches,
        "charges_per_second": round(charges / res.wall_seconds, 1),
        "rate_lookups": counts.rate_lookups,
        "profile_share": round(sched_share, 4),
    }
    print(f"[scheduler] {ticks:,} ticks, "
          f"{scheduler_section['mean_tick_us']:.0f}us/tick, "
          f"{charges:,} charges "
          f"({scheduler_section['charges_per_second']:,.0f}/s), "
          f"{counts.rate_lookups:,} rate lookups, "
          f"{sched_share:.1%} of the profiled run wall")

    # dispatch-plane cost: the fraction of the profiled wall (the
    # "in X seconds" figure at the top of PROFILE_engine_100k.txt —
    # pstats' total_tt) spent inside base._dispatch or pool.acquire.
    # Two adjustments keep the number an honest measure of *pairing
    # machinery* rather than assignment volume:
    #   - acquire reached *through* _dispatch is already inside
    #     _dispatch's cumulative time, so only acquire's time under
    #     other callers adds — summing both cumtimes outright would
    #     double-count the nested subtree and could push a "share"
    #     past 100%;
    #   - the per-assignment `_execute` payload (replica bookkeeping,
    #     timeout + progress event scheduling) runs once per pairing,
    #     so its subtree is subtracted back out: a model that assigns
    #     more tasks should not read as a slower dispatcher.
    def _profile_key(name, tail):
        for key in stats.stats:
            fname, _lineno, func = key
            if func == name and fname.replace(os.sep, "/").endswith(tail):
                return key
        return None

    disp_key = _profile_key("_dispatch", "middleware/base.py")
    acq_key = _profile_key("acquire", "infra/pool.py")
    dispatch_cum = stats.stats[disp_key][3] if disp_key else 0.0
    dispatches = stats.stats[disp_key][1] if disp_key else 0
    if acq_key is not None:
        _cc, _nc, _tt, acq_ct, acq_callers = stats.stats[acq_key]
        nested = sum(ct for caller, (_c, _n, _t, ct)
                     in acq_callers.items() if caller == disp_key)
        dispatch_cum += max(0.0, acq_ct - nested)
    for key, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if key[2] != "_execute" or "middleware" not in key[0]:
            continue
        dispatch_cum -= sum(ct for caller, (_c, _n, _t, ct)
                            in callers.items() if caller == disp_key)
    dispatch_cum = max(0.0, dispatch_cum)
    dispatch_share = dispatch_cum / stats.total_tt
    dispatch_section = {
        "acquires": counts.draws,
        "dispatches": dispatches,
        "ghost_compactions": counts.ghost_compactions,
        "profile_share": round(dispatch_share, 4),
    }
    print(f"[dispatch] {counts.draws:,} acquires in "
          f"{dispatches:,} dispatch passes, "
          f"{counts.ghost_compactions} ghost compactions, "
          f"pairing share {dispatch_share:.1%} of the profiled run wall")

    _merge_payload({
        "scale_sweep": sweep,
        "profile_100k": {
            "nodes": SCALE_NODES[-1],
            "events": res.events,
            "profiled_wall_seconds": round(res.wall_seconds, 3),
            "top30_path": os.path.relpath(_PROFILE_PATH,
                                          start=os.getcwd()),
        },
        "scheduler": scheduler_section,
        "dispatch": dispatch_section,
    })

    # gates are absolute costs, not cProfile shares: a share moves
    # whenever *another* layer gets faster or slower
    assert scheduler_section["mean_tick_us"] < 500, (
        f"mean scheduler tick cost regressed to "
        f"{scheduler_section['mean_tick_us']:.0f}us "
        f"(contract: < 500us at the 10^5-node point)")

    # 10^5 sweep gate: the point must hold its dispatch-plane win.  It
    # times the whole run, so a failure is a regression anywhere on the
    # path (the profile above says where) or a cold trace store paying
    # generation inside the timed wall
    sweep_gate = SWEEP_GATE_MULTIPLIER * PR8_SWEEP_100K_EPS
    eps_100k = sweep[-1]["events_per_second"]
    assert eps_100k >= sweep_gate, (
        f"10^5-node sweep point regressed below "
        f"{SWEEP_GATE_MULTIPLIER}x the recorded PR 8 seed: "
        f"{eps_100k:,.0f} < {sweep_gate:,.0f} events/s")

    # sanity: every point simulated the same tenant workload, so event
    # counts may differ per environment but must all be non-trivial
    assert all(p["events"] > 1_000 for p in sweep)
