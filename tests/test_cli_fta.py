"""CLI subcommands and FTA-style trace import/export."""

import io

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.infra.fta import TraceFormatError, load_trace, save_trace
from repro.infra.node import Node


# --------------------------------------------------------------------- fta
def test_fta_roundtrip(tmp_path):
    nodes = [
        Node(0, 950.0, np.array([0.0, 7200.0]), np.array([3600.0, 10800.0])),
        Node(1, 1210.0, np.array([100.0]), np.array([4000.0])),
    ]
    path = tmp_path / "trace.txt"
    save_trace(nodes, str(path), header="test trace")
    loaded = load_trace(str(path))
    assert len(loaded) == 2
    assert np.allclose(loaded[0].starts, nodes[0].starts)
    assert np.allclose(loaded[0].ends, nodes[0].ends)
    assert loaded[0].power == 950.0
    assert loaded[1].power == 1210.0


def test_fta_load_from_file_object():
    text = io.StringIO("# comment\n0 0 100 500\n0 200 300 500\n1 50 60\n")
    nodes = load_trace(text, default_power=1234.0)
    assert len(nodes) == 2
    assert nodes[0].power == 500.0
    assert nodes[1].power == 1234.0  # default applied
    assert nodes[0].starts.shape == (2,)


def test_fta_sorts_intervals():
    text = io.StringIO("0 200 300\n0 0 100\n")
    nodes = load_trace(text)
    assert list(nodes[0].starts) == [0.0, 200.0]


def test_fta_rejects_bad_columns():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 1\n"))
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 1 2 3 4\n"))


def test_fta_rejects_inverted_interval():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 100 50\n"))


def test_fta_rejects_overlap():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 0 100\n0 50 150\n"))


def test_fta_rejects_power_change():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 0 10 100\n0 20 30 200\n"))


def test_fta_rejects_bad_numbers():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 zero 10\n"))
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("0 0 10 -5\n"))


def test_fta_rejects_empty():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO("# nothing here\n"))


def test_fta_loaded_trace_runs_in_simulation(tmp_path):
    """Exported synthetic traces replay identically through the stack."""
    from repro.infra.catalog import get_trace_spec
    from repro.infra.node import nodes_from_flat
    from repro.infra.pool import NodePool
    from repro.middleware.xwhep import XWHepServer
    from repro.simulator.engine import Simulation
    from repro.workload.bot import BagOfTasks, Task

    spec = get_trace_spec("nd")
    nodes = nodes_from_flat(*spec.materialize(
        np.random.default_rng(3), 2 * 86400.0, max_nodes=40))
    path = tmp_path / "nd.txt"
    save_trace(nodes, str(path))
    loaded = load_trace(str(path))

    def run(node_list):
        sim = Simulation(horizon=10 * 86400.0)
        pool = NodePool(node_list, rng=np.random.default_rng(1))
        srv = XWHepServer(sim, pool)
        bot = BagOfTasks(bot_id="b",
                         tasks=[Task(i, 50_000.0) for i in range(30)],
                         wall_clock=60.0)
        done = {}
        class Obs:
            def on_bot_completed(self, bid, t):
                done["t"] = t
                sim.stop()
        srv.add_observer(Obs())
        srv.submit_bot(bot)
        sim.run()
        return done.get("t")

    assert run(nodes) == pytest.approx(run(loaded), rel=1e-9)


# --------------------------------------------------------------------- cli
def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_cli_run(capsys):
    rc = main(["run", "--trace", "nd", "--middleware", "xwhep",
               "--seed", "3", "--bot-size", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "makespan" in out
    assert "tail slowdown" in out


def test_cli_run_with_strategy(capsys):
    rc = main(["run", "--trace", "nd", "--middleware", "xwhep",
               "--seed", "3", "--bot-size", "40",
               "--strategy", "9C-C-R"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "credits spent" in out


def test_cli_compare(capsys):
    rc = main(["compare", "--trace", "nd", "--middleware", "xwhep",
               "--seed", "3", "--bot-size", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "speedup" in out
    assert "baseline (no SpeQuloS)" in out


def test_cli_trace_inspect(capsys, tmp_path):
    export = tmp_path / "out.txt"
    rc = main(["trace", "nd", "--days", "1", "--max-nodes", "25",
               "--export", str(export)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "paper target" in out
    assert export.exists()
    assert len(load_trace(str(export))) > 0


def test_cli_multi(capsys):
    rc = main(["multi", "--trace", "nd", "--middleware", "xwhep",
               "--seed", "3", "--tenants", "4", "--bot-size", "30",
               "--policy", "fairshare", "--max-workers", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "user0" in out and "user3" in out
    assert "max/min slowdown" in out
    assert "jain index" in out
    assert "pool:" in out


def test_cli_report_table3(capsys):
    rc = main(["report", "table3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "BoT categories" in out


def test_cli_report_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["report", "figure99"])
