"""Command-line interface: ``python -m repro <command> ...``.

Nine subcommands cover the day-to-day uses of the reproduction:

* ``run``     — one BoT execution (optionally with SpeQuloS), printing
  the metrics the paper reports for it;
* ``compare`` — a paired with/without-SpeQuloS comparison (speedup,
  TRE, credit consumption);
* ``multi``   — a multi-tenant scenario: N users' BoTs sharing one
  BE-DCI, Cloud and credit pool under an arbitration policy, with
  per-tenant slowdown and fairness output;
* ``fed``     — a federated scenario: one SpeQuloS over several DCIs
  (each its own trace, middleware and cloud), a routing policy
  assigning arriving BoTs to DCIs, and one arbiter rationing the
  global worker budget and the shared pool across all bindings;
  ``--history persistent`` attaches the cross-run execution archive
  (Oracle α calibration and history-fed routing learn across runs),
  ``--admission reject|defer`` gates pooled QoS orders on the
  archive's predicted credit cost, and ``--pricing
  PROVIDER=RATE,...`` attaches a per-provider price book (the
  economics plane; pair with ``--routing cheapest_drain`` for
  cost-aware routing);
* ``report``  — regenerate any table/figure of the paper by name
  (``figure1`` .. ``figure7``, ``table1`` .. ``table5``,
  ``ablation_*``, ``contention``, ``federation``, plus ``learning``,
  the warm-vs-cold prediction study over the history plane, and
  ``economics``, credits-vs-slowdown across price books on the
  reference federation); ``--jobs`` sizes the campaign process pool
  and ``--no-cache`` bypasses the result store;
* ``sweep``   — run an ad-hoc declarative campaign grid straight from
  flags (comma-separated axes) through the sharded executor and the
  content-addressed store, with per-config rows and store stats;
  ``--n-dcis``/``--routings`` switch to the *federated matrix* syntax
  (``--n-dcis 1,2,4 --routings least_loaded,cheapest_drain``), which
  expands a FederatedSweepSpec through the same executor;
* ``store``   — inspect the content-addressed result store
  (``stats``: record counts, on-disk size and the in-process trace
  cache's LRU counters) or garbage-collect records orphaned by code
  edits (``gc``: drops rows whose salt no longer matches the current
  ``code_fingerprint()`` and reports reclaimed rows/bytes);
* ``history`` — inspect the persistent execution-history archive
  (``stats``: per-environment record counts, throughput, slowdown,
  cost per task — per provider where tagged — and calibrated α) or
  drop its stale-salt records (``gc``), mirroring the store commands;
  ``gc --max-per-env N`` / ``--max-age-days D`` additionally prune
  the archive by per-environment record caps and age;
* ``trace``   — synthesize a Table 2 trace and print its measured
  statistics, or export it to the FTA-style text format.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

_REPORTS = ("figure1", "figure2", "figure4", "figure5", "figure6",
            "figure7", "table1", "table2", "table3", "table4", "table5",
            "ablation_threshold", "ablation_budget", "ablation_middleware",
            "contention", "federation", "learning", "economics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpeQuloS reproduction: QoS for Bag-of-Tasks on "
                    "best-effort distributed computing infrastructures")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate one BoT execution")
    _add_env_args(runp)
    runp.add_argument("--strategy", default=None,
                      help="SpeQuloS combo (e.g. 9C-C-R); omit for none")
    runp.add_argument("--credit-fraction", type=float, default=0.10,
                      help="credits as a fraction of the workload")

    cmp_ = sub.add_parser("compare",
                          help="paired baseline vs SpeQuloS execution")
    _add_env_args(cmp_)
    cmp_.add_argument("--strategy", default="9C-C-R")

    multi = sub.add_parser(
        "multi", help="N concurrent tenants sharing one DCI and pool")
    multi.add_argument("--trace", default="seti")
    multi.add_argument("--middleware", default="boinc",
                       choices=("boinc", "xwhep"))
    multi.add_argument("--seed", type=int, default=1)
    multi.add_argument("--tenants", type=int, default=8)
    multi.add_argument("--categories", default="SMALL",
                       help="comma-separated mix cycled over tenants")
    multi.add_argument("--policy", default="fairshare",
                       choices=("fifo", "fairshare", "deadline"))
    multi.add_argument("--strategy", default="9C-C-R")
    multi.add_argument("--rate", type=float, default=2.0,
                       help="Poisson tenant arrivals per hour")
    multi.add_argument("--bot-size", type=int, default=None)
    multi.add_argument("--pool-fraction", type=float, default=0.10,
                       help="pooled credits / aggregate workload")
    multi.add_argument("--max-workers", type=int, default=None,
                       help="global cap on concurrent cloud workers")

    fed = sub.add_parser(
        "fed", help="a federated scenario: one SpeQuloS over several "
                    "DCIs and clouds")
    fed.add_argument("--traces", default="seti,nd",
                     help="comma-separated traces, one per DCI")
    fed.add_argument("--middlewares", default="boinc",
                     help="comma-separated middlewares, cycled over DCIs")
    fed.add_argument("--providers", default="simulation",
                     help="comma-separated cloud providers, cycled over "
                          "DCIs")
    fed.add_argument("--max-nodes", default=None,
                     help="comma-separated per-DCI node caps "
                          "('-' = automatic), cycled over DCIs")
    fed.add_argument("--seed", type=int, default=1)
    fed.add_argument("--tenants", type=int, default=8)
    fed.add_argument("--categories", default="SMALL",
                     help="comma-separated mix cycled over tenants")
    fed.add_argument("--routing", default="round_robin",
                     choices=("round_robin", "least_loaded",
                              "history_weighted", "affinity",
                              "affinity_learned", "cheapest_drain"),
                     help="BoT-to-DCI routing policy (cheapest_drain "
                          "weighs expected drain time by the provider "
                          "price)")
    fed.add_argument("--affinity", default=None,
                     help="category=dci pins for affinity routing, "
                          "comma-separated (e.g. SMALL=dci0-seti-boinc)")
    fed.add_argument("--policy", default="fairshare",
                     choices=("fifo", "fairshare", "deadline"),
                     help="cloud arbitration policy")
    fed.add_argument("--strategy", default="9C-C-R")
    fed.add_argument("--rate", type=float, default=2.0,
                     help="Poisson tenant arrivals per hour")
    fed.add_argument("--bot-size", type=int, default=None)
    fed.add_argument("--pool-fraction", type=float, default=0.10,
                     help="pooled credits / aggregate workload")
    fed.add_argument("--max-workers", type=int, default=None,
                     help="global cap on concurrent cloud workers")
    fed.add_argument("--dci-workers", type=int, default=None,
                     help="per-DCI cap on concurrent cloud workers")
    fed.add_argument("--history", default=None,
                     choices=("memory", "persistent"),
                     help="execution-history backend (persistent = the "
                          "cross-run archive next to the campaign store)")
    fed.add_argument("--admission", default=None,
                     choices=("reject", "defer"),
                     help="gate pooled QoS orders on the history "
                          "plane's predicted credit cost")
    fed.add_argument("--pricing", default=None, metavar="PAIRS",
                     help="per-provider price book, comma-separated "
                          "PROVIDER=RATE pairs in credits/CPU-hour "
                          "(e.g. stratuslab=6,ec2=18); omitted "
                          "providers charge the uniform paper rate")
    fed.add_argument("--horizon-days", type=float, default=15.0)

    rep = sub.add_parser("report", help="regenerate a paper table/figure")
    rep.add_argument("name", choices=_REPORTS)
    rep.add_argument("--save", action="store_true",
                     help="also write under benchmarks/results/")
    _add_campaign_args(rep)

    sweep = sub.add_parser(
        "sweep", help="run an ad-hoc campaign grid from flags")
    sweep.add_argument("--traces", default="seti",
                       help="comma-separated trace names")
    sweep.add_argument("--middlewares", default="boinc",
                       help="comma-separated middleware names")
    sweep.add_argument("--categories", default="SMALL",
                       help="comma-separated BoT categories")
    sweep.add_argument("--strategies", default=None,
                       help="comma-separated combos; 'none' = no "
                            "SpeQuloS (the default); the federated "
                            "matrix takes a single QoS combo")
    sweep.add_argument("--seeds", default=None,
                       help="comma-separated explicit seeds "
                            "(default: stable per-environment slots)")
    sweep.add_argument("--seed-slots", type=int, default=None,
                       help="stable seed slots per environment "
                            "(default 1; single-BoT grids only)")
    sweep.add_argument("--seed-base", type=int, default=None,
                       help="first stable-seed slot index "
                            "(default 0; single-BoT grids only)")
    sweep.add_argument("--thresholds", default=None,
                       help="comma-separated trigger thresholds "
                            "(default 0.9; the federated matrix "
                            "takes a single value)")
    sweep.add_argument("--credit-fractions", default=None,
                       help="comma-separated credit provisions "
                            "(default 0.10; single-BoT grids only — "
                            "federated pools use --pool-fraction)")
    sweep.add_argument("--bot-size", type=int, default=None,
                       help="task-count override for every category")
    sweep.add_argument("--horizon-days", type=float, default=15.0)
    sweep.add_argument("--save", action="store_true",
                       help="also write under benchmarks/results/")
    # federated matrix syntax: any of these flags switches the grid to
    # ScenarioConfig expansion through a FederatedSweepSpec (traces/
    # middlewares/providers become per-DCI templates, cycled)
    fed_grid = sweep.add_argument_group(
        "federated matrix", "expand a federated grid instead of "
        "single-BoT executions (activated by --n-dcis or --routings)")
    fed_grid.add_argument("--n-dcis", default=None,
                          help="comma-separated DCI counts "
                               "(e.g. 1,2,4)")
    fed_grid.add_argument("--routings", default=None,
                          help="comma-separated routing policies "
                               "(e.g. least_loaded,cheapest_drain)")
    fed_grid.add_argument("--policies", default="fairshare",
                          help="comma-separated arbitration policies")
    fed_grid.add_argument("--providers", default="simulation",
                          help="comma-separated cloud providers, "
                               "cycled over DCIs")
    fed_grid.add_argument("--pricing", default=None, metavar="PAIRS",
                          help="price book as PROVIDER=RATE pairs "
                               "(applies to every grid point)")
    fed_grid.add_argument("--tenants", type=int, default=8,
                          help="tenants per federated scenario")
    fed_grid.add_argument("--pool-fraction", type=float, default=0.10,
                          help="pooled credits / aggregate workload")
    fed_grid.add_argument("--max-workers", type=int, default=None,
                          help="global cap on concurrent cloud workers")
    _add_campaign_args(sweep)

    st = sub.add_parser(
        "store", help="inspect or garbage-collect the result store")
    st.add_argument("action", choices=("stats", "gc"),
                    help="stats: record counts and size; gc: drop "
                         "records whose code salt is stale and report "
                         "reclaimed rows/bytes")

    hist = sub.add_parser(
        "history",
        help="inspect or garbage-collect the persistent execution "
             "history archive")
    hist.add_argument("action", choices=("stats", "gc"),
                      help="stats: per-environment archive digests "
                           "(records, throughput, slowdown, cost/task, "
                           "calibrated alpha); gc: drop records whose "
                           "code salt is stale")
    hist.add_argument("--at", type=_fraction, default=0.5,
                      metavar="FRACTION",
                      help="completion fraction in (0, 1] for the "
                           "alpha column (default 0.5)")
    hist.add_argument("--max-per-env", type=int, default=None,
                      metavar="N",
                      help="with gc: additionally keep only the "
                           "newest N records per environment")
    hist.add_argument("--max-age-days", type=float, default=None,
                      metavar="D",
                      help="with gc: additionally drop records "
                           "archived more than D days ago")

    from repro.infra.catalog import TRACE_NAMES
    tr = sub.add_parser("trace", help="synthesize and inspect a trace")
    tr.add_argument("name", choices=TRACE_NAMES, help="trace name")
    tr.add_argument("--days", type=float, default=4.0)
    tr.add_argument("--max-nodes", type=int, default=None)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--export", metavar="PATH", default=None,
                    help="write the trace in FTA-style text format")
    return parser


def _fraction(text: str) -> float:
    """argparse type: a completion fraction in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"fraction must be in (0, 1], got {text}")
    return value


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="campaign worker processes (default: REPRO_JOBS "
                        "or machine-sized)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed result store")


def _parse_pricing_arg(text: Optional[str], command: str):
    """Shared ``--pricing PROVIDER=RATE,...`` parsing for fed/sweep."""
    if not text:
        return None
    from repro.economics.pricing import parse_pricing
    try:
        return parse_pricing(text)
    except ValueError as exc:
        raise SystemExit(f"repro {command}: --pricing: {exc}")


def _apply_campaign_args(args) -> None:
    from repro.campaign.executor import set_default_jobs
    from repro.campaign.store import set_cache_enabled
    if args.jobs is not None:
        set_default_jobs(args.jobs)
    if args.no_cache:
        set_cache_enabled(False)


def _print_store_stats() -> None:
    from repro.campaign.store import current_store
    from repro.experiments.harness import TRACE_CACHE
    store = current_store()
    if store is not None:
        print(f"[store] {store.stats.summary()} — {store.path}")
    if TRACE_CACHE.hits or TRACE_CACHE.misses:
        print(f"[trace cache] {TRACE_CACHE.summary()}")


def _add_env_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default="seti")
    p.add_argument("--middleware", default="boinc",
                   choices=("boinc", "xwhep"))
    p.add_argument("--category", default="SMALL",
                   choices=("SMALL", "BIG", "RANDOM"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bot-size", type=int, default=None,
                   help="override the Table 3 task count")


def _print_result(res, label: str) -> None:
    print(f"{label}:")
    print(f"  makespan        {res.makespan:12.0f} s"
          f"{'   (censored at horizon)' if res.censored else ''}")
    print(f"  ideal time      {res.ideal_time:12.0f} s")
    print(f"  tail slowdown   {res.slowdown:12.2f} x")
    print(f"  tasks in tail   {res.pct_tasks_in_tail:12.1f} %")
    if res.credits_provisioned > 0:
        print(f"  cloud workers   {res.workers_launched:12d}")
        print(f"  credits spent   {res.credits_spent:12.1f} "
              f"({res.credits_used_pct:.1f} % of "
              f"{res.credits_provisioned:.0f})")


def _cmd_run(args) -> int:
    from repro.experiments import ExecutionConfig, run_execution
    cfg = ExecutionConfig(trace=args.trace, middleware=args.middleware,
                          category=args.category, seed=args.seed,
                          strategy=args.strategy,
                          credit_fraction=args.credit_fraction,
                          bot_size=args.bot_size)
    _print_result(run_execution(cfg), cfg.label())
    return 0


def _cmd_multi(args) -> int:
    from repro.experiments import MultiTenantConfig, run_multi_tenant
    cfg = MultiTenantConfig(
        trace=args.trace, middleware=args.middleware, seed=args.seed,
        n_tenants=args.tenants,
        categories=tuple(c.strip() for c in args.categories.split(",")),
        strategy=args.strategy, policy=args.policy,
        arrival_rate_per_hour=args.rate, bot_size=args.bot_size,
        pool_fraction=args.pool_fraction,
        max_total_workers=args.max_workers)
    res = run_multi_tenant(cfg)
    print(f"{cfg.label()}:")
    for t in res.tenants:
        cens = "  (censored)" if t.censored else ""
        print(f"  {t.user:<8} {t.category:<7} arr {t.arrival:9.0f} s  "
              f"makespan {t.makespan:9.0f} s  slowdown {t.slowdown:5.2f}x  "
              f"workers {t.workers_launched:2d}  "
              f"credits {t.credits_spent:7.1f}{cens}")
    print(f"  pool: {res.pool_spent:.1f} of {res.pool_provisioned:.1f} "
          f"credits spent ({res.pool_used_pct:.1f} %)")
    print(f"  fairness: max/min slowdown {res.slowdown_spread:.2f}, "
          f"jain index {res.fairness:.3f}")
    return 0


def _cmd_fed(args) -> int:
    from repro.experiments import DCISpec, ScenarioConfig, run_federated

    def _axis(text):
        return [v.strip() for v in text.split(",") if v.strip()]

    traces = _axis(args.traces)
    middlewares = _axis(args.middlewares)
    providers = _axis(args.providers)
    caps = [None if v == "-" else int(v)
            for v in _axis(args.max_nodes)] if args.max_nodes else [None]
    dcis = tuple(
        DCISpec(trace=traces[i],
                middleware=middlewares[i % len(middlewares)],
                provider=providers[i % len(providers)],
                max_nodes=caps[i % len(caps)])
        for i in range(len(traces)))
    affinity = None
    if args.affinity:
        pairs = []
        for pair in _axis(args.affinity):
            if "=" not in pair:
                raise SystemExit(
                    f"repro fed: --affinity entry {pair!r} must be "
                    f"CATEGORY=DCI (e.g. SMALL=dci0-seti-boinc)")
            pairs.append(tuple(pair.split("=", 1)))
        affinity = tuple(pairs)
    pricing = _parse_pricing_arg(args.pricing, "fed")
    cfg = ScenarioConfig(
        dcis=dcis, seed=args.seed, n_tenants=args.tenants,
        categories=tuple(_axis(args.categories)),
        strategy=args.strategy, policy=args.policy, routing=args.routing,
        affinity=affinity, arrival_rate_per_hour=args.rate,
        bot_size=args.bot_size, pool_fraction=args.pool_fraction,
        max_total_workers=args.max_workers,
        max_dci_workers=args.dci_workers,
        history=args.history, admission=args.admission,
        pricing=pricing, horizon_days=args.horizon_days)
    res = run_federated(cfg)
    print(f"{cfg.label()}:")
    for t in res.tenants:
        cens = "  (censored)" if t.censored else ""
        adm = f"  [{t.admission}]" if cfg.admission is not None else ""
        print(f"  {t.user:<8} {t.category:<7} -> {t.dci:<22} "
              f"arr {t.arrival:9.0f} s  makespan {t.makespan:9.0f} s  "
              f"slowdown {t.slowdown:5.2f}x  "
              f"credits {t.credits_spent:7.1f}{adm}{cens}")
    for d in res.dcis:
        rate = (f" @ {d.price_per_cpu_hour:g} cr/CPUh"
                if cfg.price_map() else "")
        print(f"  DCI {d.name:<22} ({d.trace}/{d.middleware}/"
              f"{d.provider}): {d.tenants_assigned} tenants, "
              f"{d.completions} DG tasks, {d.cloud_tasks} cloud tasks, "
              f"peak {d.workers_peak} workers, "
              f"{d.cloud_cpu_hours:.1f} cloud CPUh, "
              f"{d.credits_spent:.1f} credits{rate}")
    print(f"  pool: {res.pool_spent:.1f} of {res.pool_provisioned:.1f} "
          f"credits spent ({res.pool_used_pct:.1f} %)")
    print(f"  fairness: max/min slowdown {res.slowdown_spread:.2f}, "
          f"jain index {res.fairness:.3f}; "
          f"peak cloud workers {res.workers_peak}")
    if cfg.admission is not None:
        counts = res.admission_counts()
        print("  admission: " + ", ".join(
            f"{counts.get(v, 0)} {v}"
            for v in ("granted", "rejected", "deferred")))
    return 0


def _cmd_store(args) -> int:
    from repro.campaign.store import ResultStore, default_store_path
    from repro.experiments.harness import ASSEMBLY_CACHE, TRACE_CACHE
    from repro.experiments.trace_store import (
        TraceStore,
        default_trace_store_path,
    )
    store = ResultStore(default_store_path())
    # the trace store sits next to the result store; open it directly
    # (bypassing REPRO_NO_CACHE) so stats/gc work even when caching is
    # disabled for runs
    traces = TraceStore(default_trace_store_path())
    if args.action == "stats":
        print(f"store: {store.path}")
        print(f"  {len(store)} records, {store.file_bytes()} bytes on disk")
        if store.quarantined:
            print(f"  {store.quarantined} corrupt database quarantined "
                  f"as {store.path}.corrupt")
        for kind, counts in sorted(store.breakdown().items()):
            print(f"  {kind:<14} {counts['current']:6d} current  "
                  f"{counts['stale']:6d} stale")
        current, stale = traces.entries()
        print(f"trace store: {traces.root}")
        print(f"  {current} current + {stale} stale realizations, "
              f"{traces.file_bytes()} bytes on disk "
              f"(generator {traces.fingerprint})")
        # warm-run diagnostics in one place: the trace-cache LRU
        # counters next to the persistent store's accounting (the
        # cache is per process — the live numbers appear after report/
        # sweep runs, which print the same line)
        print(f"  trace cache (this process): {TRACE_CACHE.summary()}")
        print(f"  assembly cache (this process): "
              f"{ASSEMBLY_CACHE.summary()}")
        return 0
    rows, nbytes = store.gc()
    print(f"store gc: reclaimed {rows} stale rows "
          f"({nbytes} payload bytes) — {store.path}")
    print(f"  {len(store)} records remain, "
          f"{store.file_bytes()} bytes on disk")
    tfiles, tbytes = traces.gc()
    print(f"trace store gc: removed {tfiles} stale realizations "
          f"({tbytes} bytes) — {traces.root}")
    tcur, _ = traces.entries()
    print(f"  {tcur} realizations remain, "
          f"{traces.file_bytes()} bytes on disk")
    return 0


def _cmd_history(args) -> int:
    from repro.history import HistoryPlane, PersistentHistoryStore
    store = PersistentHistoryStore()
    plane = HistoryPlane(store)
    if args.action == "stats":
        print(f"history: {store.path}")
        print(f"  {len(store)} current records "
              f"({store.stale_count()} stale), "
              f"{store.file_bytes()} bytes on disk")
        if store.quarantined:
            print(f"  {store.quarantined} corrupt database quarantined "
                  f"as {store.path}.corrupt")
        if len(store):
            print(f"  {'environment':<36} {'recs':>5} {'mk (h)':>8} "
                  f"{'tput/h':>8} {'slowdn':>7} {'avail':>6} "
                  f"{'cost/task':>10} {'alpha':>6}")
        for env, summary in plane.summary().items():
            alpha, _n = plane.alpha(env, args.at)
            print(f"  {env:<36} {summary.records:>5d} "
                  f"{summary.mean_makespan / 3600.0:>8.2f} "
                  f"{summary.throughput_per_hour:>8.1f} "
                  f"{summary.mean_slowdown:>7.2f} "
                  f"{summary.availability:>6.2f} "
                  f"{summary.cost_per_task:>10.3f} {alpha:>6.2f}")
        provider_costs = plane.provider_costs()
        if provider_costs:
            print("  per-provider learned cost (economics plane):")
            for provider, (n, cost) in provider_costs.items():
                print(f"    {provider:<20} {n:>5d} recs  "
                      f"{cost:>10.3f} credits/task")
        return 0
    rows, nbytes = store.gc()
    print(f"history gc: reclaimed {rows} stale rows "
          f"({nbytes} grid bytes) — {store.path}")
    if args.max_per_env is not None or args.max_age_days is not None:
        pruned, pbytes = store.prune(max_per_env=args.max_per_env,
                                     max_age_days=args.max_age_days)
        policy = ", ".join(
            ([f"max {args.max_per_env}/env"]
             if args.max_per_env is not None else [])
            + ([f"max age {args.max_age_days:g}d"]
               if args.max_age_days is not None else []))
        print(f"history prune ({policy}): reclaimed {pruned} rows "
              f"({pbytes} grid bytes)")
    print(f"  {len(store)} records remain, "
          f"{store.file_bytes()} bytes on disk")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.metrics import tail_removal_efficiency
    from repro.experiments import ExecutionConfig, run_execution
    base_cfg = ExecutionConfig(trace=args.trace, middleware=args.middleware,
                               category=args.category, seed=args.seed,
                               bot_size=args.bot_size)
    base = run_execution(base_cfg)
    speq = run_execution(base_cfg.with_strategy(args.strategy))
    _print_result(base, "baseline (no SpeQuloS)")
    _print_result(speq, f"SpeQuloS {args.strategy}")
    print(f"\nspeedup: {base.makespan / max(speq.makespan, 1e-9):.2f}x")
    if base.makespan - base.ideal_time > 120.0:
        tre = tail_removal_efficiency(base.makespan, speq.makespan,
                                      base.ideal_time)
        print(f"tail removal efficiency: {tre:.1f} %")
    else:
        print("tail removal efficiency: n/a (baseline shows no tail)")
    return 0


def _cmd_report(args) -> int:
    _apply_campaign_args(args)
    from repro.experiments import figures
    builder = getattr(figures, f"{args.name}_report")
    report = builder()
    print(report.render())
    if args.save:
        print(f"saved to {report.save()}")
    _print_store_stats()
    return 0


def _cmd_sweep(args) -> int:
    import sys as _sys
    import time as _time

    _apply_campaign_args(args)
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.spec import SweepSpec
    from repro.experiments.report import ExperimentReport, TextTable
    from repro.experiments.runner import run_campaign

    def _axis(text, conv=str):
        return tuple(conv(v.strip()) for v in text.split(",") if v.strip())

    if args.n_dcis or args.routings:
        return _cmd_sweep_federated(args, _axis)

    strategies = tuple(None if s.lower() in ("none", "-") else s
                       for s in _axis(args.strategies or "none"))
    categories = _axis(args.categories)
    spec = SweepSpec(
        traces=_axis(args.traces), middlewares=_axis(args.middlewares),
        categories=categories, strategies=strategies,
        seeds=_axis(args.seeds, int) if args.seeds else None,
        seed_slots=args.seed_slots if args.seed_slots is not None else 1,
        seed_base=args.seed_base if args.seed_base is not None else 0,
        thresholds=_axis(args.thresholds or "0.9", float),
        credit_fractions=_axis(args.credit_fractions or "0.10", float),
        bot_sizes=tuple((c, args.bot_size) for c in categories)
        if args.bot_size is not None else None,
        horizon_days=args.horizon_days)
    configs = spec.expand()
    wall0 = _time.perf_counter()
    results = run_campaign(
        configs, progress=ProgressReporter(len(configs), label="sweep",
                                           stream=_sys.stderr))
    wall = _time.perf_counter() - wall0

    rep = ExperimentReport("Sweep", f"ad-hoc campaign, {len(configs)} "
                                    f"configs in {wall:.1f}s")
    table = TextTable(
        "Per-config outcomes",
        ["config", "makespan (s)", "slowdown", "censored", "credits %"])
    for cfg, res in zip(configs, results):
        table.add_row(cfg.label(), f"{res.makespan:.0f}",
                      f"{res.slowdown:.2f}",
                      "yes" if res.censored else "no",
                      f"{res.credits_used_pct:.1f}"
                      if res.credits_provisioned > 0 else "-")
    rep.tables.append(table)
    print(rep.render())
    if args.save:
        print(f"saved to {rep.save('sweep.txt')}")
    _print_store_stats()
    return 0


def _cmd_sweep_federated(args, _axis) -> int:
    """The federated matrix syntax of ``repro sweep``: ``--n-dcis
    1,2,4 --routings least_loaded,cheapest_drain`` expands a
    :class:`~repro.campaign.spec.FederatedSweepSpec` through the same
    executor/store path as the single-BoT grid."""
    import sys as _sys
    import time as _time

    import numpy as np

    from repro.campaign.progress import ProgressReporter
    from repro.campaign.spec import FederatedSweepSpec
    from repro.experiments.report import ExperimentReport, TextTable
    from repro.experiments.runner import run_campaign

    # reject single-BoT-only axes loudly instead of silently running a
    # different experiment than the flags asked for
    if args.credit_fractions is not None:
        raise SystemExit("repro sweep: --credit-fractions does not "
                         "apply to the federated matrix (pooled "
                         "scenarios provision via --pool-fraction)")
    if args.seed_slots is not None or args.seed_base is not None:
        raise SystemExit("repro sweep: --seed-slots/--seed-base do "
                         "not apply to the federated matrix; pass "
                         "explicit --seeds")
    spec_defaults = FederatedSweepSpec.__dataclass_fields__
    strategy = spec_defaults["strategy"].default
    if args.strategies is not None:
        strategies = _axis(args.strategies)
        if len(strategies) != 1 or strategies[0].lower() in ("none", "-"):
            raise SystemExit("repro sweep: the federated matrix takes "
                             "a single QoS combo via --strategies "
                             "(federated scenarios are QoS-supported "
                             "by construction)")
        (strategy,) = strategies
    threshold = spec_defaults["strategy_threshold"].default
    if args.thresholds is not None:
        thresholds = _axis(args.thresholds, float)
        if len(thresholds) != 1:
            raise SystemExit("repro sweep: the federated matrix takes "
                             "a single --thresholds value")
        (threshold,) = thresholds
    spec = FederatedSweepSpec(
        dci_traces=_axis(args.traces),
        dci_middlewares=_axis(args.middlewares),
        dci_providers=_axis(args.providers),
        n_dcis=_axis(args.n_dcis, int) if args.n_dcis else (2,),
        routings=_axis(args.routings) if args.routings
        else ("round_robin",),
        policies=_axis(args.policies),
        pricings=(_parse_pricing_arg(args.pricing, "sweep"),),
        seeds=_axis(args.seeds, int) if args.seeds else (0,),
        n_tenants=args.tenants, categories=_axis(args.categories),
        strategy=strategy, strategy_threshold=threshold,
        bot_size=args.bot_size, pool_fraction=args.pool_fraction,
        max_total_workers=args.max_workers,
        horizon_days=args.horizon_days)
    configs = spec.expand()
    wall0 = _time.perf_counter()
    results = run_campaign(
        configs, progress=ProgressReporter(len(configs), label="fed sweep",
                                           stream=_sys.stderr))
    wall = _time.perf_counter() - wall0

    rep = ExperimentReport(
        "Federated sweep", f"ad-hoc federated matrix, {len(configs)} "
                           f"scenarios in {wall:.1f}s")
    table = TextTable(
        "Per-scenario outcomes",
        ["scenario", "mean slowdown", "max/min spread", "pool spent",
         "pool %", "censored"])
    for cfg, res in zip(configs, results):
        table.add_row(cfg.label(),
                      f"{float(np.mean(res.slowdowns)):.2f}",
                      f"{res.slowdown_spread:.2f}",
                      f"{res.pool_spent:.1f}",
                      f"{res.pool_used_pct:.1f}",
                      str(res.censored_count))
    rep.tables.append(table)
    print(rep.render())
    if args.save:
        print(f"saved to {rep.save('fed_sweep.txt')}")
    _print_store_stats()
    return 0


def _cmd_trace(args) -> int:
    from repro.infra.catalog import get_trace_spec
    from repro.infra.fta import save_trace
    from repro.infra.node import nodes_from_flat
    from repro.infra.stats import measure_trace
    spec = get_trace_spec(args.name)
    horizon = args.days * 86400.0
    rng = np.random.default_rng(args.seed)
    nodes = nodes_from_flat(*spec.materialize(rng, horizon,
                                              max_nodes=args.max_nodes))
    stats = measure_trace(nodes, horizon)
    print(f"trace {spec.name} ({spec.dci_class}), {args.days:g} days, "
          f"{len(nodes)} nodes materialized")
    print(f"  paper target : mean {spec.mean_nodes:.0f}, "
          f"av quartiles {spec.avail_quartiles}")
    print(f"  measured     : {stats.row()}")
    if args.export:
        save_trace(nodes, args.export,
                   header=f"synthesized {spec.name}, seed {args.seed}, "
                          f"{args.days:g} days")
        print(f"  exported to {args.export}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "compare": _cmd_compare,
               "multi": _cmd_multi, "fed": _cmd_fed,
               "report": _cmd_report, "sweep": _cmd_sweep,
               "store": _cmd_store, "history": _cmd_history,
               "trace": _cmd_trace}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        # a rejected configuration is a usage error: one line, exit 2
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
