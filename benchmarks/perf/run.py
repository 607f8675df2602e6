"""SpeQuloS reproduction benchmark: four workloads, end to end and per layer.

Run one workload (what the regression check runs)::

    python3 benchmarks/perf/run.py --workload fed-1e5 --seed 11 --seconds 12 --trace 0

or every workload, untraced and traced, with no ``--workload``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``--trace 0``: the
end-to-end metrics; ``--trace 1``: the per-layer metrics).  Every run
is also appended as one JSON line to
``benchmarks/perf/results/BENCH_perf.jsonl``; ``run.py compare
PARENT.jsonl CHANGE.jsonl`` compares two such files and ``run.py
goldens`` rewrites the pinned result digests.

Protocol of one run (see README.md): set-ups (fresh process, every
store empty), then repetitions until ``--seconds`` have passed, each in
a fresh process with ``REPRO_JOBS=1`` against the set-up's warm trace
store and its own empty result store.  Working files live under
``benchmarks/perf/.work/`` and are deleted at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import SETUP_GROUPS, layer_metrics, metric_names  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: per-layer metric units, by the name's last component (default count)
LAYER_UNITS = {"calls": "count", "self_ms": "ms", "share": "fraction",
               "events": "count", "us_per_event": "us",
               "trace_overhead_pct": "%", "unattributed_pct": "%"}

SETUP_REPEATS = 3
#: fewest repetitions of each kind (untraced, traced) a run makes
MIN_REPS = 3
#: wall budget of one run's child processes; a child still running when
#: it ends is killed and counted as failed, so a run exits well within
#: three minutes even if the program hangs
RUN_BUDGET_S = 150.0
GOLDENS = HERE / "goldens.json"
RECORD = HERE / "results" / "BENCH_perf.jsonl"
WORK_ROOT = HERE / ".work"


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
def child_env(trace_store: Path, private: Path) -> Dict[str, str]:
    """The environment of one child: private stores, one process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_TRACE_STORE=str(trace_store),
               REPRO_STORE=str(private / "results.sqlite"),
               REPRO_HISTORY=str(private / "history.sqlite"),
               REPRO_RESULTS_DIR=str(private / "reports"),
               REPRO_JOBS="1", REPRO_SCALE="quick")
    return env


def run_child(spec: dict, env: Dict[str, str], deadline: float) -> dict:
    """Run ``rep.py`` once; ``process_s`` is its spawn-to-exit wall."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"errors": [f"killed at the run's {RUN_BUDGET_S:.0f} s "
                           f"budget"], "trace": spec["trace"]}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"exit {proc.returncode}: " + " | ".join(tail)],
                "trace": spec["trace"]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = elapsed
    out["trace"] = spec["trace"]
    return out


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path):
    """Set-ups, then repetitions until ``seconds`` have passed."""
    def spec(traced: bool, warm: bool) -> dict:
        return {"workload": workload, "seed": seed, "trace": traced,
                "warm": warm}

    deadline = time.perf_counter() + RUN_BUDGET_S
    setups = []
    for i in range(1 if trace else SETUP_REPEATS):
        traces = work / f"traces{i}"
        setups.append(run_child(spec(trace, False),
                                child_env(traces, work / f"setup{i}"),
                                deadline))
    reps: List[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_child(spec(traced, not traced),
                              child_env(traces, work / f"rep{len(reps)}"),
                              deadline))
        kinds = [r["trace"] for r in reps]
        enough = (kinds.count(False) >= MIN_REPS
                  and (not trace or kinds.count(True) >= MIN_REPS))
        now = time.perf_counter()
        if (enough and now - start >= seconds) or now >= deadline:
            return setups, reps, now - start


def check_children(workload: str, seed: int, children: List[dict]
                   ) -> List[str]:
    """Attach digest errors; every child must reproduce the reference
    (the golden at the golden seed, else the first child's digest)."""
    reference = None
    if seed == GOLDEN_SEED and GOLDENS.exists():
        reference = json.loads(GOLDENS.read_text()).get(workload)
    for child in children:
        if "digest" not in child:
            continue
        if reference is None:
            reference = child["digest"]
        elif child["digest"] != reference:
            what = "traced " if child["trace"] else ""
            child["errors"].append(
                f"{what}result digest {child['digest'][:12]} differs from "
                f"the reference {reference[:12]}")
    return [e for child in children for e in child["errors"]]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def end_to_end(setups: List[dict], reps: List[dict]) -> Dict[str, list]:
    ok = [r for r in reps if not r["errors"]]
    return {
        "setup_s": [s["process_s"] for s in setups if not s["errors"]],
        "run_s": [r["wall_s"] for r in ok],
        "events_per_s": [r["events"] / r["wall_s"] for r in ok],
        "peak_rss_mb": [r["rss_mb"] for r in ok],
    }


def per_layer(setups: List[dict], reps: List[dict]) -> Dict[str, list]:
    setup_layers = setups[0].get("layers", {})
    untraced = [r["wall_s"] for r in reps
                if not r["trace"] and not r["errors"]]
    samples: Dict[str, list] = {}
    for rep in reps:
        if not rep["trace"] or rep["errors"]:
            continue
        layers = dict(rep["layers"])
        layers.update({g: setup_layers.get(g, (0, 0.0))
                       for g in SETUP_GROUPS})
        metrics = layer_metrics(layers, rep["wall_s"], rep["events"])
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    traced = [r["wall_s"] for r in reps if r["trace"] and not r["errors"]]
    if traced and untraced:
        samples["trace_overhead_pct"] = [
            100.0 * (statistics.median(traced)
                     / statistics.median(untraced) - 1.0)]
    return samples


@contextlib.contextmanager
def work_dir(prefix: str):
    """A private directory under ``.work/``, deleted on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still has its directory there


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its record."""
    with work_dir(f"{workload}-") as work:
        setups, reps, window = run_children(workload, seed, seconds,
                                            trace, work)
    children = setups + reps
    errors = check_children(workload, seed, children)
    failed = sum(1 for c in children if c["errors"])
    samples = (per_layer(setups, reps) if trace
               else end_to_end(setups, reps))
    names = metric_names() if trace else list(END_TO_END)
    missing = [n for n in names if not samples.get(n)]
    if missing:
        errors.append(f"no samples for {', '.join(missing)}")
    builder_ms: Dict[str, list] = {}
    for rep in reps:
        for name, ms in rep.get("builder_ms", {}).items():
            builder_ms.setdefault(name, []).append(ms)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "window_s": window,
        "correct": not errors, "attempted": len(children),
        "failed": failed, "errors": errors[:20],
        "samples": samples,
        "metrics": {n: statistics.median(samples[n])
                    for n in names if samples.get(n)},
        "warm_s": statistics.median(
            [r["warm_s"] for r in reps if "warm_s" in r] or [0.0]),
        "builder_ms": {n: statistics.median(v)
                       for n, v in builder_ms.items()},
    }


def unit_of(name: str, trace: bool) -> str:
    return layer_unit(name) if trace else END_TO_END[name]


def print_run(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    status = ("all checks passed" if rec["correct"]
              else f"{len(rec['errors'])} check(s) FAILED")
    print(f"== {rec['workload']} seed {rec['seed']} ({mode}): "
          f"{rec['attempted']} processes, window {rec['window_s']:.1f} s, "
          f"{status}")
    for err in rec["errors"]:
        print(f"   ! {err}")
    for name, value in rec["metrics"].items():
        q1, med, q3 = quartiles(rec["samples"][name])
        print(f"   {name:34s} {med:14.6g} {unit_of(name, rec['trace']):8s}"
              f" q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(rec['samples'][name])}")
    if not rec["trace"]:
        print(f"   {'warm_s (store-answered re-issue)':34s} "
              f"{rec['warm_s']:14.6g} s")
    for name, ms in rec["builder_ms"].items():
        print(f"   {'report.' + name + '.ms':34s} {ms:14.6g} ms")


def append_record(rec: dict) -> None:
    """Append one run as a JSON line (earlier runs are never rewritten)."""
    RECORD.parent.mkdir(exist_ok=True)
    with open(RECORD, "a") as fh:
        fh.write(json.dumps(rec) + "\n")


def read_records(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def result_line(records: List[dict], prefix: bool) -> str:
    metrics = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            key = f"{rec['workload']}:{name}" if prefix else name
            metrics[key] = {"value": value,
                            "unit": unit_of(name, rec["trace"])}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def compare(parent_path: str, change_path: str) -> int:
    """Per workload and metric: medians, quartiles, win fraction over
    paired runs, and a verdict against the BENCHMARK.json bound."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent = read_records(parent_path)
    change = read_records(change_path)
    workloads = list(dict.fromkeys(r["workload"] for r in parent + change))
    print(f"{'workload':15s} {'metric':32s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>9s}  verdict")
    for workload in workloads:
        for name, meta in spec.items():
            a = [r["metrics"][name] for r in parent
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name] for r in change
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            print(f"{workload:15s} {name:32s} "
                  f"{_fmt_quartiles(a):34s} {_fmt_quartiles(b):34s} "
                  f"{_win_text(a, b, meta['better']):>9s}  "
                  f"{verdict(a, b, meta['better'], meta.get('bound'))}")
    return 0


def _fmt_quartiles(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def _better(x: float, y: float, better: str) -> bool:
    """Whether ``x`` reads better than ``y``."""
    return x < y if better == "lower" else x > y


def win_fraction(parent: List[float], change: List[float],
                 better: str) -> float:
    """Share of paired runs (in order) the change wins; ties win nothing."""
    pairs = list(zip(parent, change))
    return sum(_better(b, a, better) for a, b in pairs) / len(pairs)


def _win_text(parent, change, better) -> str:
    n = min(len(parent), len(change))
    return f"{win_fraction(parent, change, better):.0%}/{n}"


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> str:
    """improved | unresolved | regressed | no-worse (n/a without bound).

    Improved: the change wins >= 90 % of pairs and the medians differ by
    more than the parent's own quartile spread.  Unresolved: the
    parent's spread is wider than the bound, unless every change run
    beats every parent run.  Regressed: the change median is worse than
    the parent's by more than the bound.
    """
    if bound is None:
        return "n/a"
    q1, med_a, q3 = quartiles(parent)
    med_b = quartiles(change)[1]
    if (win_fraction(parent, change, better) >= 0.9
            and _better(med_b, med_a, better)
            and abs(med_b - med_a) > q3 - q1):
        return "improved"
    all_better = all(_better(b, a, better) for a in parent for b in change)
    if (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved"
    worse = (med_b - med_a if better == "lower" else med_a - med_b)
    if worse / abs(med_a) > bound:
        return "regressed"
    return "no-worse"


def write_goldens() -> int:
    """Pin each workload's result digest at the golden seed."""
    goldens = {}
    with work_dir("goldens-") as work:
        for name in WORKLOADS:
            out = run_child({"workload": name, "seed": GOLDEN_SEED,
                             "trace": False, "warm": False},
                            child_env(work / name / "traces", work / name),
                            time.perf_counter() + RUN_BUDGET_S)
            if out["errors"]:
                print(f"{name}: {out['errors']}", file=sys.stderr)
                return 1
            goldens[name] = out["digest"]
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {len(goldens)} digests to {GOLDENS}")
    return 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.jsonl CHANGE.jsonl",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    # the program under test must be importable before anything runs
    sys.path.insert(0, str(REPO / "src"))
    import repro  # noqa: F401
    if argv[:1] == ["goldens"]:
        return write_goldens()

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (REPO / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload is not None:
        plan = [(args.workload, bool(args.trace))]
    else:
        modes = [False, True] if args.trace is None else [bool(args.trace)]
        plan = [(w, t) for w in WORKLOADS for t in modes]
    records = []
    for workload, trace in plan:
        rec = measure(workload, args.seed, args.seconds, trace)
        print_run(rec)
        append_record(rec)
        records.append(rec)
    print(result_line(records, prefix=args.workload is None))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
