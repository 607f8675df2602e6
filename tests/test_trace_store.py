"""On-disk trace-realization store: roundtrip, two-tier promotion,
read-only sharing, fingerprint invalidation, and GC."""

import ast
import os

import numpy as np
import pytest

from repro.experiments import trace_store as ts
from repro.experiments.harness import TraceCache
from repro.experiments.trace_store import TraceStore
from repro.infra.node import nodes_from_flat


@pytest.fixture
def store(tmp_path):
    """A fresh store in tmp, installed as the process default."""
    st = TraceStore(root=str(tmp_path / "traces"))
    prev = ts.set_default_trace_store(st)
    yield st
    ts.set_default_trace_store(prev)


KEY = ("nd", (7,), 5, 3600.0)


def _columns(cache=None):
    if cache is None:  # NB: an empty TraceCache is falsy (len == 0)
        cache = TraceCache()
    return cache.materialize_columns("nd", 7, 5, 3600.0), cache


def _realize(cache=None):
    """The realization as ``Node`` objects over the cached columns."""
    cols, cache = _columns(cache)
    return nodes_from_flat(cols.starts, cols.ends, cols.offsets, cols.power,
                           cols.tags), cache


# ------------------------------------------------------------- roundtrip
def test_save_load_roundtrip_bit_identical(store):
    nodes, _ = _realize()
    assert store.saves == 1
    flat = store.load_flat(KEY)
    assert flat is not None
    starts, ends, bounds, powers, tags = flat
    assert len(bounds) - 1 == len(nodes)
    for i, node in enumerate(nodes):
        lo, hi = bounds[i], bounds[i + 1]
        assert starts[lo:hi].tobytes() == node.starts.tobytes()
        assert ends[lo:hi].tobytes() == node.ends.tobytes()
        assert powers[i] == node.power
        assert tags[i] == node.tag


def test_loaded_tags_hold_one_str_per_distinct_tag(store):
    """A load hands every host that carries a tag the same str object,
    not a copy per host, and the tuple still equals the saved one."""
    saved = tuple(f"tag{k % 3}" for k in range(12))
    n = len(saved)
    key = ("tags", (), n, 1.0)
    store.save(key, (np.zeros(n), np.ones(n), np.arange(n + 1),
                     np.ones(n), saved))
    tags = store.load_flat(key)[4]
    assert tags == saved
    assert len({id(tag) for tag in tags}) == len(set(saved)) == 3


def test_fresh_cache_promotes_from_disk_without_regenerating(store):
    nodes1, cache1 = _realize()
    # a second process is modelled by a fresh L1 over the same store
    nodes2, cache2 = _realize()
    assert cache1.disk_hits == 0 and cache1.misses == 1
    assert cache2.disk_hits == 1 and cache2.misses == 1
    assert store.saves == 1          # nothing regenerated or re-saved
    for a, b in zip(nodes1, nodes2):
        assert a.starts.tobytes() == b.starts.tobytes()
        assert a.ends.tobytes() == b.ends.tobytes()
        assert a.power == b.power and a.tag == b.tag


def test_missing_key_counts_a_miss(store):
    assert store.load_flat(("nd", (99,), 5, 3600.0)) is None
    assert store.misses == 1


def test_save_is_idempotent(store):
    _realize()
    store.save(KEY, store.load_flat(KEY))
    assert store.saves == 1
    current, stale = store.entries()
    assert (current, stale) == (1, 0)


# ------------------------------------------------------------- read-only
def test_generated_arrays_are_read_only(store):
    nodes, _ = _realize()
    with pytest.raises(ValueError):
        nodes[0].starts[0] = -1.0
    with pytest.raises(ValueError):
        nodes[0].ends[0] = -1.0


def test_disk_loaded_arrays_are_read_only(store):
    _realize()
    nodes, _ = _realize()  # served from disk by a fresh L1
    with pytest.raises(ValueError):
        nodes[0].starts[0] = -1.0


def test_rebuilt_nodes_share_the_cached_arrays(store):
    _realize()
    cache = TraceCache()
    a, _ = _columns(cache)
    b, _ = _columns(cache)
    assert a is not b and a.cursor is not b.cursor
    assert a.starts is b.starts  # zero-copy across executions


# ------------------------------------------------------- invalidation/GC
def test_stale_fingerprint_entries_are_unreachable_and_gced(store):
    _realize()
    path = store.path_for(KEY)
    stale = path.replace(store.fingerprint + ".npz", "deadbeef0000.npz")
    os.rename(path, stale)
    assert store.load_flat(KEY) is None     # content-addressed: stale
    assert store.entries() == (0, 1)
    removed, nbytes = store.gc()
    assert removed == 1 and nbytes > 0
    assert store.entries() == (0, 0)
    assert not os.path.exists(stale)


def _infra_imports(module):
    """The ``repro.infra`` modules one ``repro.infra`` module imports,
    read from its source (anywhere in it, function bodies included)."""
    path = os.path.join(os.path.dirname(ts.__file__), os.pardir, "infra",
                        f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not node.level, f"{module}: relative import not resolved"
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    prefix = "repro.infra."
    return {n[len(prefix):].split(".")[0] for n in names
            if n.startswith(prefix)}


def test_fingerprint_hashes_exactly_the_generators():
    """The fingerprint covers catalog.py and every repro.infra module it
    imports, transitively — and nothing else, so an edit to a module
    that only consumes realizations (the pool, say) keeps the store
    warm.  The package ``__init__`` imports everything, so only the
    source's own imports can show the closure."""
    closure, todo = set(), ["catalog"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo.extend(_infra_imports(module))
    assert set(ts.GENERATOR_MODULES) == closure
    assert "pool" not in closure and "columns" not in closure


def test_gc_keeps_current_entries(store):
    _realize()
    assert store.gc() == (0, 0)
    assert store.entries() == (1, 0)


def test_key_digest_separates_streams_caps_horizons(store):
    paths = {store.path_for(k) for k in [
        ("nd", (7,), 5, 3600.0),
        ("nd", (8,), 5, 3600.0),
        ("nd", (7, 1), 5, 3600.0),
        ("nd", (7,), 6, 3600.0),
        ("nd", (7,), 5, 7200.0),
    ]}
    assert len(paths) == 5


def test_summary_reports_two_tier_stats(store):
    _realize()
    _realize()
    assert "1 saved" in store.summary()
    assert "1 current" in store.summary()


# ------------------------------------------------------------- mmap path
def test_load_uses_mmap_not_fallback(store):
    _realize()
    flat = store.load_flat(KEY)
    assert store.mmap_fallbacks == 0
    assert isinstance(flat[0], np.memmap)  # mapped from the archive


def test_empty_realization_roundtrips(store):
    empty = np.empty(0)
    store.save(("empty", (), 0, 1.0),
               (empty, empty, np.zeros(1, dtype=np.int64), empty, ()))
    starts, ends, bounds, powers, tags = store.load_flat(("empty", (), 0, 1.0))
    assert starts.size == ends.size == powers.size == 0
    assert bounds.tolist() == [0] and tags == ()


# ------------------------------------------------------------- recovery
def test_truncated_archive_is_quarantined_and_regenerated(store):
    nodes1, _ = _realize()
    path = store.path_for(KEY)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    assert store.load_flat(KEY) is None        # no exception
    assert store.corrupt == 1
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")
    assert "1 corrupt files quarantined" in store.summary()
    # a fresh L1 regenerates the realization and re-archives it
    nodes2, cache = _realize()
    assert cache.disk_hits == 0 and store.saves == 2
    for a, b in zip(nodes1, nodes2):
        assert a.starts.tobytes() == b.starts.tobytes()
    assert store.load_flat(KEY) is not None
    # the quarantined copy is unreachable; gc reclaims it
    assert store.gc()[0] == 1
    assert not os.path.exists(path + ".corrupt")
