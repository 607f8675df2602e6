"""Checks on the benchmark harness itself (not on the program's speed).

* tracing is transcript-invisible on a federation with cloud workers;
* self-time accounting is exact on a synthetic nested call tree;
* ``BENCHMARK.json`` is well formed and agrees with ``run.py``;
* every traced entry point resolves, so a renamed function in ``src/``
  fails here instead of silently emptying a layer.
"""

import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
import layers  # noqa: E402  (run.py put this directory on sys.path)
import workloads  # noqa: E402


@pytest.fixture
def private_trace_store(tmp_path):
    from repro.experiments import trace_store as ts
    from repro.experiments.harness import ASSEMBLY_CACHE, TRACE_CACHE
    previous = ts.set_default_trace_store(ts.TraceStore(str(tmp_path)))
    yield
    ts.set_default_trace_store(previous)
    TRACE_CACHE.clear()
    ASSEMBLY_CACHE.clear()


def test_tracing_is_transcript_invisible(private_trace_store):
    from repro.experiments import DCISpec, ScenarioConfig, run_federated
    from repro.experiments.harness import ASSEMBLY_CACHE, TRACE_CACHE
    cfg = ScenarioConfig(
        dcis=(DCISpec(trace="seti", middleware="boinc", max_nodes=120),
              DCISpec(trace="nd", middleware="xwhep", provider="ec2")),
        seed=3, n_tenants=4, bot_size=30, strategy="9C-G-R",
        arrival_rate_per_hour=8.0, horizon_days=3.0)
    untraced = workloads.federated_digest(run_federated(cfg))
    TRACE_CACHE.clear()
    ASSEMBLY_CACHE.clear()
    tracer = layers.Tracer().install()
    try:
        result = run_federated(cfg)
    finally:
        tracer.uninstall()
    assert workloads.federated_digest(result) == untraced
    assert workloads.federated_check(result) == []
    calls = {g: c for g, (c, _s) in tracer.snapshot().items()}
    for group in ("simulator.run", "core.tick", "cloud.lifecycle",
                  "middleware.fetch", "economics.charge"):
        assert calls[group] > 0, group
    from repro.simulator.engine import Simulation
    assert not hasattr(Simulation.run, "__wrapped__")  # uninstalled


def test_self_time_accounting_is_exact():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])
    a, b, c = 0, 1, 2  # group indices of a synthetic tree

    def work(seconds):
        now[0] += seconds

    leaf = tracer._wrap(lambda: work(1.0), c)

    def middle_body():
        work(2.0)
        leaf()
        leaf()
    middle = tracer._wrap(middle_body, b)

    def root_body():
        work(4.0)
        middle()
        work(0.5)
        leaf()
    root = tracer._wrap(root_body, a)

    root()
    work(3.0)   # outside every span
    leaf()
    assert tracer.calls[:3] == [1, 1, 4]
    assert tracer.self_s[:3] == [4.5, 2.0, 4.0]
    # top-level spans: root (9.5) + the last leaf (1.0); the 3.0 outside
    # every span is nobody's self time
    assert tracer.stack == [10.5]
    assert sum(tracer.self_s) == 10.5


def test_benchmark_json_matches_run_py():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    names = []
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])

    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        layers.metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"])
               for m in BENCHMARK["per_layer"])


def test_every_traced_entry_point_resolves():
    for layer, groups in layers.LAYERS.items():
        for group, targets in groups.items():
            assert targets, f"{layer}.{group} has no entry points"
            for target in targets:
                owner, attr, raw = layers.resolve(target)
                fn = getattr(raw, "__func__", raw)
                assert not inspect.isgeneratorfunction(fn), target
    assert set(layers.SETUP_GROUPS) <= set(layers.group_names())
