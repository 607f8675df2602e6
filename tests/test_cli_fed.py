"""CLI federation surface: ``repro fed`` and ``repro store``."""

import pytest

from repro.campaign.store import ResultStore
from repro.cli import build_parser, main
from repro.experiments.config import ExecutionConfig
from repro.experiments.runner import run_execution


def fed_args(*extra):
    return ["fed", "--traces", "seti,nd", "--middlewares", "boinc,xwhep",
            "--max-nodes=-,10", "--tenants", "2", "--bot-size", "20",
            "--pool-fraction", "0.05", "--horizon-days", "2",
            "--seed", "3", *extra]


def test_cli_fed_prints_tenants_dcis_and_fairness(capsys):
    rc = main(fed_args())
    out = capsys.readouterr().out
    assert rc == 0
    assert "fed2/round_robin/fairshare/SMALL/x2/s3" in out
    assert "dci0-seti-boinc" in out and "dci1-nd-xwhep" in out
    assert "user0" in out and "user1" in out
    assert "pool:" in out and "fairness:" in out
    assert "DCI dci0-seti-boinc" in out


def test_cli_fed_routing_and_budget_flags(capsys):
    rc = main(fed_args("--routing", "least_loaded", "--policy", "fifo",
                       "--max-workers", "4", "--dci-workers", "2"))
    out = capsys.readouterr().out
    assert rc == 0
    assert "fed2/least_loaded/fifo/SMALL/x2/s3" in out


def test_cli_fed_affinity_pins(capsys):
    rc = main(fed_args("--routing", "affinity",
                       "--affinity", "SMALL=dci1-nd-xwhep"))
    out = capsys.readouterr().out
    assert rc == 0
    # both tenants are SMALL, so both land on the pinned DCI
    assert out.count("-> dci1-nd-xwhep") == 2


def test_cli_fed_rejects_malformed_affinity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(fed_args("--routing", "affinity", "--affinity", "SMALL"))
    assert "--affinity entry 'SMALL'" in str(exc.value)


def test_cli_fed_help_mentions_routing(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fed", "--help"])
    out = capsys.readouterr().out
    assert "routing" in out and "least_loaded" in out


def test_cli_store_stats_and_gc(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "store.sqlite")
    monkeypatch.setenv("REPRO_STORE", path)
    cfg = ExecutionConfig(trace="nd", middleware="xwhep",
                          category="SMALL", seed=5, bot_size=40)
    res = run_execution(cfg)
    stale = ResultStore(path, salt="old")
    stale.put(cfg, res)
    stale.close()
    current = ResultStore(path)
    current.put(cfg, res)
    current.close()

    assert main(["store", "stats"]) == 0
    out = capsys.readouterr().out
    assert "2 records" in out
    assert "execution" in out and "stale" in out

    assert main(["store", "gc"]) == 0
    out = capsys.readouterr().out
    assert "reclaimed 1 stale rows" in out
    assert "1 records remain" in out

    # second gc finds nothing left to reclaim
    main(["store", "gc"])
    assert "reclaimed 0 stale rows" in capsys.readouterr().out


def test_cli_report_lists_federation():
    args = build_parser().parse_args(["report", "federation"])
    assert args.name == "federation"


def test_cli_fed_admission_and_history_flags(capsys, tmp_path,
                                             monkeypatch):
    """--history persistent + --admission reject: a primed expensive
    archive makes the CLI withhold every QoS order and say so."""
    import numpy as np

    from repro.history import ExecutionRecord, PersistentHistoryStore

    path = str(tmp_path / "history.sqlite")
    monkeypatch.setenv("REPRO_HISTORY", path)
    store = PersistentHistoryStore(path)
    for dci in ("dci0-seti-boinc", "dci1-nd-xwhep"):
        store.add(ExecutionRecord(f"{dci}//SMALL", 20, 5000.0,
                                  np.linspace(50.0, 5000.0, 100),
                                  credits_spent=1e7))
    rc = main(fed_args("--history", "persistent",
                       "--admission", "reject"))
    out = capsys.readouterr().out
    assert rc == 0
    assert "[rejected]" in out
    assert "admission: 0 granted, 2 rejected, 0 deferred" in out


def test_cli_fed_history_routing_policies(capsys):
    for routing in ("history_weighted", "affinity_learned"):
        rc = main(fed_args("--routing", routing))
        out = capsys.readouterr().out
        assert rc == 0
        assert f"fed2/{routing}/fairshare/SMALL/x2/s3" in out


def test_cli_history_stats_and_gc(capsys, tmp_path, monkeypatch):
    import numpy as np

    from repro.history import ExecutionRecord, PersistentHistoryStore

    path = str(tmp_path / "history.sqlite")
    monkeypatch.setenv("REPRO_HISTORY", path)
    stale = PersistentHistoryStore(path, salt="old")
    stale.add(ExecutionRecord("nd-xwhep//SMALL", 10, 100.0,
                              np.linspace(1.0, 100.0, 100), 5.0))
    stale.close()
    current = PersistentHistoryStore(path)
    current.add(ExecutionRecord("nd-xwhep//SMALL", 10, 110.0,
                                np.linspace(1.0, 110.0, 100), 5.0))
    current.close()

    assert main(["history", "stats"]) == 0
    out = capsys.readouterr().out
    assert "1 current records (1 stale)" in out
    assert "nd-xwhep//SMALL" in out and "alpha" in out

    assert main(["history", "gc"]) == 0
    out = capsys.readouterr().out
    assert "reclaimed 1 stale rows" in out
    assert "1 records remain" in out


def test_cli_history_stats_rejects_out_of_range_fraction(capsys):
    for bad in ("0", "1.5", "-0.2"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["history", "stats", "--at", bad])
        assert "fraction must be in (0, 1]" in capsys.readouterr().err


def test_cli_report_lists_learning():
    args = build_parser().parse_args(["report", "learning"])
    assert args.name == "learning"


def test_cli_store_stats_prints_trace_cache_counters(capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s.sqlite"))
    assert main(["store", "stats"]) == 0
    assert "world cache (this process)" in capsys.readouterr().out


def test_cli_fed_pricing_and_cheapest_drain(capsys):
    rc = main(fed_args("--routing", "cheapest_drain",
                       "--pricing", "simulation=6"))
    out = capsys.readouterr().out
    assert rc == 0
    assert "fed2/cheapest_drain/fairshare/SMALL/x2/priced/s3" in out
    # the per-DCI accounting line shows credits at the quoted rate
    assert "@ 6 cr/CPUh" in out and "credits" in out


def test_cli_fed_rejects_malformed_pricing(capsys):
    for bad in ("ec2", "ec2=zero", "ec2=-1"):
        with pytest.raises(SystemExit) as exc:
            main(fed_args("--pricing", bad))
        assert "--pricing" in str(exc.value)


def test_cli_history_gc_prune_flags(capsys, tmp_path, monkeypatch):
    import numpy as np

    from repro.history import ExecutionRecord, PersistentHistoryStore

    path = str(tmp_path / "history.sqlite")
    monkeypatch.setenv("REPRO_HISTORY", path)
    store = PersistentHistoryStore(path)
    for i in range(4):
        store.add(ExecutionRecord("nd-xwhep//SMALL", 10, 100.0 + i,
                                  np.linspace(1.0, 100.0 + i, 100), 5.0))
    store.close()

    assert main(["history", "gc", "--max-per-env", "2"]) == 0
    out = capsys.readouterr().out
    assert "history prune (max 2/env): reclaimed 2 rows" in out
    assert "2 records remain" in out

    # age-out with a huge window keeps everything
    assert main(["history", "gc", "--max-age-days", "9999"]) == 0
    out = capsys.readouterr().out
    assert "reclaimed 0 rows" in out


def test_cli_history_stats_prints_provider_costs(capsys, tmp_path,
                                                 monkeypatch):
    import numpy as np

    from repro.history import ExecutionRecord, PersistentHistoryStore

    path = str(tmp_path / "history.sqlite")
    monkeypatch.setenv("REPRO_HISTORY", path)
    store = PersistentHistoryStore(path)
    store.add(ExecutionRecord("nd-xwhep//SMALL", 10, 100.0,
                              np.linspace(1.0, 100.0, 100), 30.0,
                              provider="stratuslab"))
    store.close()
    assert main(["history", "stats"]) == 0
    out = capsys.readouterr().out
    assert "per-provider learned cost" in out
    assert "stratuslab" in out
