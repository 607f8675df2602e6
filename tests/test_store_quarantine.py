"""Corrupt SQLite stores are quarantined at open, not fatal.

The campaign result store and the persistent history archive both live
in files CI restores from a cache, so a truncated or garbage file must
not crash every later run: opening it renames it ``*.corrupt``, counts
the event, and starts an empty store in its place.
"""

import os

import numpy as np
import pytest

from repro.campaign.store import ResultStore
from repro.cli import main
from repro.history import ExecutionRecord, PersistentHistoryStore


def _fill_results(path):
    store = ResultStore(path)
    for i in range(200):
        store.put({"case": i}, {"value": i, "pad": "x" * 400})
    store.close()


def _fill_history(path):
    store = PersistentHistoryStore(path)
    for i in range(200):
        store.add(ExecutionRecord(f"dci{i % 7}//SMALL", 10 + i, 100.0 + i,
                                  np.linspace(1.0, 100.0 + i, 100), 5.0))
    store.close()


def _garbage(path):
    with open(path, "wb") as fh:
        fh.write(b"not a database " * 512)


def _truncated(path, fill):
    fill(path)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)


STORES = {
    "results": (ResultStore, _fill_results),
    "history": (PersistentHistoryStore, _fill_history),
}


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
@pytest.mark.parametrize("kind", sorted(STORES))
def test_corrupt_store_opens_empty_and_is_set_aside(tmp_path, kind, damage):
    cls, fill = STORES[kind]
    path = str(tmp_path / f"{kind}.sqlite")
    if damage == "garbage":
        _garbage(path)
    else:
        _truncated(path, fill)
    corrupt_bytes = open(path, "rb").read()

    store = cls(path)
    assert store.quarantined == 1
    assert len(store) == 0
    with open(path + ".corrupt", "rb") as fh:
        assert fh.read() == corrupt_bytes
    store.close()

    # the fresh store is a healthy one: reopening quarantines nothing
    fill(path)
    store = cls(path)
    assert store.quarantined == 0
    assert len(store) == 200
    store.close()


@pytest.mark.parametrize("kind", sorted(STORES))
def test_healthy_store_is_not_quarantined(tmp_path, kind):
    cls, fill = STORES[kind]
    path = str(tmp_path / f"{kind}.sqlite")
    fill(path)
    store = cls(path)
    assert store.quarantined == 0
    assert len(store) == 200
    store.close()
    assert not os.path.exists(path + ".corrupt")


def test_cli_store_stats_survives_a_corrupt_store(capsys, tmp_path,
                                                 monkeypatch):
    path = str(tmp_path / "results.sqlite")
    monkeypatch.setenv("REPRO_STORE", path)
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
    _garbage(path)
    assert main(["store", "stats"]) == 0
    out = capsys.readouterr().out
    assert "0 records" in out
    assert f"1 corrupt database quarantined as {path}.corrupt" in out
    assert os.path.exists(path + ".corrupt")


def test_cli_history_stats_survives_a_corrupt_archive(capsys, tmp_path,
                                                     monkeypatch):
    path = str(tmp_path / "history.sqlite")
    monkeypatch.setenv("REPRO_HISTORY", path)
    _truncated(path, _fill_history)
    assert main(["history", "stats"]) == 0
    out = capsys.readouterr().out
    assert "0 current records" in out
    assert f"1 corrupt database quarantined as {path}.corrupt" in out
    assert os.path.exists(path + ".corrupt")
