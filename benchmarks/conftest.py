"""Shared benchmark fixtures.

Each bench regenerates one table/figure of the paper: it runs the
needed campaign once (``benchmark.pedantic(rounds=1)`` — these are
simulation campaigns, not microbenchmarks), prints the paper-style
table, and writes it under ``benchmarks/results/`` for EXPERIMENTS.md.

Campaign size is controlled by ``REPRO_SCALE`` (quick | full); the
campaign process count by ``REPRO_JOBS`` (threaded through
:func:`repro.campaign.executor.default_jobs` into every
``run_campaign`` fan-out).  All campaigns run through the
content-addressed store under ``benchmarks/.campaign_store/`` (CI
persists it between runs), so a warm re-run regenerates every figure
without a single new simulation; the terminal summary prints the
store's hit/miss stats.

Every bench is marked ``slow`` at collection: regenerating the paper's
figures dominates the suite's runtime, so the fast developer lane
(``pytest -m "not slow"``, see ROADMAP.md) skips this directory.
"""

import pathlib

import pytest

from repro.experiments.config import get_scale

_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    # the hook sees the whole session's items; only mark this directory
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter):
    """Surface campaign-store effectiveness (CI greps these lines)."""
    import json

    from repro.campaign.executor import default_jobs
    from repro.campaign.store import current_store
    from repro.experiments.harness import TRACE_CACHE
    from repro.experiments.trace_store import default_trace_store

    store = current_store()
    if store is not None and store.stats.lookups:
        terminalreporter.write_line(
            f"campaign store: {store.stats.summary()}, "
            f"{len(store)} records, jobs={default_jobs()} — {store.path}")
    # the world cache's LRU counters (with disk promotions) next to
    # the shared on-disk trace store's own accounting
    if TRACE_CACHE.hits or TRACE_CACHE.misses:
        line = f"world cache: {TRACE_CACHE.summary()}"
        traces = default_trace_store()
        if traces is not None:
            line += f" — store: {traces.summary()}"
        terminalreporter.write_line(line)
    # engine scale sweep (latest record written by test_bench_engine)
    bench_json = _BENCH_DIR / "results" / "BENCH_engine.json"
    if bench_json.exists():
        record = json.loads(bench_json.read_text())
        sweep = record.get("scale_sweep")
        if sweep:
            terminalreporter.write_line("engine scale sweep:")
            terminalreporter.write_line(
                f"  {'nodes':>8}  {'events':>10}  {'events/s':>10}"
                f"  {'wall s':>8}  {'peak RSS MB':>11}")
            for point in sweep:
                terminalreporter.write_line(
                    f"  {point['nodes']:>8,}  {point['events']:>10,}"
                    f"  {point['events_per_second']:>10,.0f}"
                    f"  {point['wall_seconds']:>8.2f}"
                    f"  {point['peak_rss_kb'] / 1024:>11,.0f}")
        # Algorithm 2 tick cost of the profiled 10^5-node run (PR 9)
        sched = record.get("scheduler")
        if sched:
            terminalreporter.write_line(
                f"scheduler tick (10^5 profile): {sched['ticks']:,} "
                f"ticks at {sched['mean_tick_us']:,.0f}us, "
                f"{sched['charges']:,} charges "
                f"({sched['charges_per_second']:,.0f}/s), "
                f"{sched.get('rate_lookups', 0):,} rate lookups, "
                f"{sched['profile_share']:.1%} of run wall")
        # dispatch-plane cost of the profiled 10^5-node run (PR 10)
        disp = record.get("dispatch")
        if disp:
            terminalreporter.write_line(
                f"dispatch plane (10^5 profile): {disp['acquires']:,} "
                f"acquires in {disp['dispatches']:,} dispatch passes, "
                f"{disp['ghost_compactions']} ghost compactions, "
                f"{disp['profile_share']:.1%} of run wall")


@pytest.fixture(scope="session")
def scale():
    return get_scale()


@pytest.fixture
def run_report(benchmark):
    """Run a report builder once under pytest-benchmark, print + save."""

    def _run(builder, *args, **kwargs):
        report = benchmark.pedantic(
            lambda: builder(*args, **kwargs), rounds=1, iterations=1)
        path = report.save()
        print()
        print(report.render())
        print(f"[saved to {path}]")
        return report

    return _run
