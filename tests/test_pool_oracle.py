"""The columnar pool vs the historical all-heap pool it replaced.

Two pools over the same columnar fleet — ``NodePool``, whose trace
hosts live in arrays, and ``pool_oracle.HeapPool``, the historical
dict index, tuple heaps and member set — are driven through the same
random operation sequence: acquires, bulk acquires, releases,
preemptions, cloud and volatile ``Node`` members coming and going, and
all three probes.  After every step what each observes must match:
results, both draw lists, the ready map ``{id: end}``, the multiset of
pending future keys, members and ``size``, interval cursors and the
RNG state.

The sweep's bulk refile moves cursors with
``NodeColumns.next_available_many``, which looks at most
``_LOOKAHEAD`` intervals ahead per host and lets a host that runs past
them finish with the scalar ``advance``; that fallback is pinned here
too, with the look-ahead cut to 1 and 2 intervals.
"""

import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pool_oracle import HeapPool, members_of, ready_map
from repro.infra import columns
from repro.infra.catalog import get_trace_spec
from repro.infra.columns import NodeColumns
from repro.infra.node import Node
from repro.infra.pool import NodePool
from trace_oracle import columns_from_raw

HORIZON = 600.0


def _fleet(seed, n):
    """``n`` hosts with 1–8 sorted, disjoint intervals in [0, 600),
    integer endpoints, so hosts share starts and ends."""
    g = np.random.default_rng(seed)
    raw = []
    for _ in range(n):
        k = int(g.integers(1, 9))
        pts = np.sort(g.choice(int(HORIZON), size=2 * k,
                               replace=False)).astype(float)
        raw.append((pts[0::2].copy(), pts[1::2].copy(), 1000.0, "trace"))
    return raw


def _key(entry):
    return ("col", entry) if type(entry) is int else ("obj", entry.node_id)


def _pending(pool, members):
    """The multiset of future keys ``(start, id, end)`` of members (a
    removed member's key is dropped whenever a structure meets it at
    its head, and the two pools' heads differ)."""
    keys = [(s, nid, end) for s, nid, _e, end in pool._future]
    if not isinstance(pool, HeapPool):
        pos = pool._fut_pos
        keys += zip(pool._fut_start[pos:].tolist(),
                    pool._fut_id[pos:].tolist(),
                    pool._fut_end[pos:].tolist())
    return sorted(k for k in keys if k[1] in members)


def _snapshot(pool):
    """What a pool observes, with node objects named by id."""
    members = members_of(pool)
    return {
        "reg": [_key(e) for e in pool._ready_reg],
        "cloud": [_key(e) for e in pool._ready_cloud],
        "ready": ready_map(pool),
        "future": _pending(pool, members),
        "members": sorted(members),
        "size": pool.size,
        "cursor": pool._columns.cursor.tolist(),
        "rng": pool._rng.bit_generator.state,
    }


def _result(got):
    if isinstance(got, tuple):
        node, end = got
        return node.node_id, end
    if isinstance(got, list):
        return [_result(g) for g in got]
    return got


class Twin:
    """The columnar pool and the all-heap reference, in lockstep."""

    def __init__(self, fleet_seed, n, rng_seed):
        template = columns_from_raw(_fleet(fleet_seed, n))
        self.pools = (
            NodePool(template.fresh(), rng=np.random.default_rng(rng_seed)),
            HeapPool(template.fresh(), rng=np.random.default_rng(rng_seed)))
        self.nodes = {}   # id -> (node for each pool) of Node members
        self.busy = {}    # id -> ((node for each pool), interval end)
        self.next_id = 10 ** 6
        self.t = 0.0

    def check(self, results=None):
        if results is not None:
            assert _result(results[0]) == _result(results[1])
        a, b = self.pools
        assert _snapshot(a) == _snapshot(b)
        for na, nb in self.nodes.values():
            assert na._idx == nb._idx

    def _both(self, fn):
        results = [fn(pool, i) for i, pool in enumerate(self.pools)]
        self.check(results)
        return results

    def _new_nodes(self, kind, g):
        """One Node member per pool: a stable cloud worker, or a
        volatile host (cloud or not) with a few short intervals."""
        nid = self.next_id
        self.next_id += 1
        if kind == 0:
            start = self.t + float(g.integers(0, 30))
            return tuple(Node.stable(nid, 3000.0, start=start)
                         for _ in self.pools)
        pts = np.sort(g.choice(int(HORIZON), size=6,
                               replace=False)).astype(float)
        return tuple(Node(nid, 2000.0, pts[0::2], pts[1::2],
                          cloud=kind == 1) for _ in self.pools)

    def step(self, op, dt, arg):
        self.t += dt
        t = self.t
        if op == 0:
            got = self._both(lambda p, i: p.acquire(t))
            self._take([got])
        elif op == 1:
            got = self._both(lambda p, i: p.acquire_many(t, arg % 24))
            self._take(list(zip(*got)))
        elif op in (2, 3) and self.busy:
            nid = sorted(self.busy)[arg % len(self.busy)]
            nodes, end = self.busy.pop(nid)
            if op == 2 and t < end:
                self._both(lambda p, i: p.release(nodes[i], t))
            else:
                self._both(lambda p, i: p.preempted(nodes[i], t))
        elif op == 4:
            nodes = self._new_nodes(arg % 3, np.random.default_rng(arg))
            self.nodes[nodes[0].node_id] = nodes
            self._both(lambda p, i: p.add(nodes[i], t))
        elif op == 5 and self.pools[0].size:
            members = sorted(members_of(self.pools[0]))
            nid = members[arg % len(members)]
            pair = self.nodes.get(nid, (SimpleNamespace(node_id=nid),) * 2)
            self._both(lambda p, i: p.remove(pair[i]))
        elif op == 6:
            self._both(lambda p, i: p.has_ready(t))
        elif op == 7:
            self._both(lambda p, i: p.idle_count(t))
        elif op == 8:
            self._both(lambda p, i: p.next_future_start(t))

    def _take(self, pairs):
        for got in pairs:
            if got[0] is None:
                continue
            (na, end), (nb, _) = got
            self.busy[na.node_id] = ((na, nb), end)


ops = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 60),
                         st.integers(0, 10 ** 4)),
               min_size=1, max_size=50)


def _drive(twin, steps=300):
    """A fixed pseudo-random drive of ``steps`` operations."""
    g = np.random.default_rng(9)
    for _ in range(steps):
        twin.step(int(g.integers(0, 9)), float(g.integers(0, 12)),
                  int(g.integers(0, 10 ** 4)))


@settings(max_examples=60, deadline=None)
@given(fleet_seed=st.integers(0, 10 ** 4), n=st.integers(20, 160),
       rng_seed=st.integers(0, 10 ** 4), steps=ops)
def test_batched_probes_match_per_host_reference(fleet_seed, n, rng_seed,
                                                 steps):
    twin = Twin(fleet_seed, n, rng_seed)
    twin.check()
    for op, dt, arg in steps:
        twin.step(op, float(dt), arg)


def test_twin_drive_runs_both_branches_of_each_probe(monkeypatch):
    """Guard against the comparison silently covering one branch: in a
    fixed drive, the columnar pool's promotion must file some due
    slices host by host and others in bulk, its sweep must refile some
    expired sets host by host and others in bulk, and its bulk refiles
    must merge some later-starting batches into the epoch and push
    others onto the overflow heap."""
    seen = Counter()
    probe = []  # the columnar pool's probe step running, if any

    def scoped(name):
        fn = getattr(NodePool, name)

        def run(self, t):
            probe.append(name)
            try:
                return fn(self, t)
            finally:
                probe.pop()
        monkeypatch.setattr(NodePool, name, run)

    def counted(name, step, branch):
        fn = getattr(NodePool, name)

        def run(self, *args):
            if probe and probe[-1] == step:
                seen[step, branch] += 1
            return fn(self, *args)
        monkeypatch.setattr(NodePool, name, run)

    refile = NodePool._refile

    def pushing_refile(self, ids, t):
        before = len(self._future)
        refile(self, ids, t)
        if len(self._future) > before:
            seen["heap push"] += 1

    monkeypatch.setattr(NodePool, "_refile", pushing_refile)
    scoped("_promote")
    scoped("_sweep")
    counted("_file_ready", "_promote", "entry")
    counted("_file_ready_many", "_promote", "bulk")
    counted("_enqueue", "_sweep", "entry")
    counted("_refile", "_sweep", "bulk")
    counted("_merge_epoch", "_sweep", "epoch merge")
    _drive(Twin(fleet_seed=5, n=150, rng_seed=2))
    for step in ("_promote", "_sweep"):
        assert seen[step, "entry"] > 0 and seen[step, "bulk"] > 0, seen
    assert seen["_sweep", "epoch merge"] > 0 and seen["heap push"] > 0, seen


# ------------------------------------------------- bounded look-ahead

def _count_fallbacks(monkeypatch):
    """Count the ``advance`` calls made inside ``next_available_many``."""
    seen = Counter()
    bulk, advance = NodeColumns.next_available_many, NodeColumns.advance

    def scoped(self, ids, t):
        seen["bulk"] += 1
        try:
            return bulk(self, ids, t)
        finally:
            seen["bulk"] -= 1

    def counted(self, i, t):
        if seen["bulk"]:
            seen["fallback"] += 1
        return advance(self, i, t)

    monkeypatch.setattr(NodeColumns, "next_available_many", scoped)
    monkeypatch.setattr(NodeColumns, "advance", counted)
    return seen


@pytest.mark.parametrize("lookahead", [1, 2])
def test_short_lookahead_pool_matches_per_host_reference(monkeypatch,
                                                         lookahead):
    """With the look-ahead cut to 1 or 2 intervals, swept hosts run
    past it and finish with ``advance``: the batched pool still
    matches the reference step for step, cursors included."""
    monkeypatch.setattr(columns, "_LOOKAHEAD", lookahead)
    seen = _count_fallbacks(monkeypatch)
    _drive(Twin(fleet_seed=5, n=150, rng_seed=2))
    assert seen["fallback"] > 0


@settings(max_examples=60, deadline=None)
@given(fleet_seed=st.integers(0, 10 ** 4), n=st.integers(1, 60),
       steps=st.lists(st.tuples(st.integers(0, 10 ** 4),
                                st.integers(0, 150)),
                      min_size=1, max_size=8))
def test_next_available_many_matches_per_host_advance(fleet_seed, n, steps):
    """Results and cursors equal :meth:`NodeColumns.next_available`'s,
    host by host, at every look-ahead."""
    template = columns_from_raw(_fleet(fleet_seed, n))
    for lookahead in (1, 2, columns._LOOKAHEAD):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(columns, "_LOOKAHEAD", lookahead)
            bulk, ref = template.fresh(), template.fresh()
            t = 0.0
            for pick, dt in steps:
                t += dt
                g = np.random.default_rng(pick)
                ids = g.choice(n, size=int(g.integers(0, n + 1)),
                               replace=False).astype(np.int64)
                starts, ends = bulk.next_available_many(ids, t)
                got = [None if s != s else (s, e) for s, e
                       in zip(starts.tolist(), ends.tolist())]
                assert got == [ref.next_available(int(i), t) for i in ids]
                assert bulk.cursor.tolist() == ref.cursor.tolist()


def test_lookahead_bounds_a_120_day_call():
    """Over 2,000 seti hosts with 120 days of intervals (~224 per
    host), one call from fresh cursors allocates under 1 kB per host.
    Laying out every remaining interval took 11.3 MB here, ~5.6 kB per
    host, growing with the horizon."""
    flat = get_trace_spec("seti").materialize(
        np.random.default_rng(1), 120 * 86400.0, max_nodes=2000)
    template = NodeColumns.from_flat(*flat)
    assert np.diff(template.offsets).mean() > 200
    bulk, ref = template.fresh(), template.fresh()
    ids = np.arange(template.n, dtype=np.int64)
    t = 86400.0
    tracemalloc.start()
    try:
        starts, ends = bulk.next_available_many(ids, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * template.n
    got = [None if s != s else (s, e)
           for s, e in zip(starts.tolist(), ends.tolist())]
    assert got == [ref.next_available(i, t) for i in range(ref.n)]
    assert bulk.cursor.tolist() == ref.cursor.tolist()
