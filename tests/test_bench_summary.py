"""The bench terminal summary prints only this session's engine record."""

import importlib.util
import json
import os
import pathlib

CONFTEST = pathlib.Path(__file__).parents[1] / "benchmarks" / "conftest.py"

#: the parts of a ``BENCH_engine.json`` record the summary prints
RECORD = {
    "scale_sweep": [{"nodes": 1000, "events": 5333,
                     "events_per_second": 9000.0, "wall_seconds": 0.6,
                     "peak_rss_kb": 51200}],
    "scheduler": {"ticks": 320, "mean_tick_us": 120.0, "charges": 900,
                  "charges_per_second": 4000.0, "rate_lookups": 40,
                  "profile_share": 0.05},
    "dispatch": {"acquires": 2077, "dispatches": 3413,
                 "ghost_compactions": 0, "profile_share": 0.2},
}
ENGINE_LINES = ("engine scale sweep", "scheduler tick", "dispatch plane")


class Reporter:
    """Collects what the summary writes."""

    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


def _summary(conftest):
    reporter = Reporter()
    conftest.pytest_terminal_summary(reporter)
    return [line for line in reporter.lines if line.startswith(ENGINE_LINES)]


def test_engine_lines_come_only_from_a_record_of_this_session(
        tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    monkeypatch.setattr(conftest, "_BENCH_DIR", tmp_path)
    record = tmp_path / "results" / "BENCH_engine.json"
    record.parent.mkdir()
    record.write_text(json.dumps(RECORD))

    left_behind = conftest._SESSION_START - 3600.0
    os.utime(record, (left_behind, left_behind))
    assert _summary(conftest) == []

    written = conftest._SESSION_START + 1.0
    os.utime(record, (written, written))
    lines = _summary(conftest)
    assert [line.split(" (")[0].rstrip(":") for line in lines] == [
        "engine scale sweep", "scheduler tick", "dispatch plane"]
    assert "2,077 acquires in 3,413 dispatch passes" in lines[2]
