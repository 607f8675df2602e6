"""NodePool: lazy acquire/release semantics and poll weighting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pool_oracle import members_of, ready_map
from repro.infra.catalog import get_trace_spec
from repro.infra.columns import NodeColumns
from repro.infra.node import Node
from repro.infra.pool import NodePool
from trace_oracle import columns_from_raw


def volatile(nid, starts, ends, power=1000.0):
    return Node(nid, power, np.asarray(starts, float),
                np.asarray(ends, float))


def rng(seed=0):
    return np.random.default_rng(seed)


def test_acquire_returns_available_node():
    pool = NodePool([volatile(1, [0], [100])], rng=rng())
    got = pool.acquire(10.0)
    assert got is not None
    node, end = got
    assert node.node_id == 1
    assert end == 100.0


def test_acquire_empty_pool_returns_none():
    pool = NodePool(rng=rng())
    assert pool.acquire(0.0) is None


def test_acquired_node_not_served_twice():
    pool = NodePool([volatile(1, [0], [100])], rng=rng())
    assert pool.acquire(0.0) is not None
    assert pool.acquire(0.0) is None


def test_release_returns_node_to_service():
    n = volatile(1, [0], [100])
    pool = NodePool([n], rng=rng())
    pool.acquire(0.0)
    pool.release(n, 10.0)
    assert pool.acquire(10.0) is not None


def test_future_node_not_served_early_then_promoted():
    pool = NodePool([volatile(1, [50], [100])], rng=rng())
    assert pool.acquire(0.0) is None
    assert pool.acquire(60.0) is not None


def test_stale_idle_node_recycled_to_next_interval():
    pool = NodePool([volatile(1, [0, 200], [100, 300])], rng=rng())
    # sits idle past its first interval
    got = pool.acquire(150.0)
    assert got is None  # now between intervals
    got = pool.acquire(250.0)
    assert got is not None
    assert got[1] == 300.0


def test_preempted_node_comes_back_next_interval():
    n = volatile(1, [0, 200], [100, 300])
    pool = NodePool([n], rng=rng())
    pool.acquire(0.0)
    pool.preempted(n, 100.0)
    assert pool.acquire(150.0) is None
    assert pool.acquire(210.0) is not None


def test_node_that_never_returns_is_dropped():
    n = volatile(1, [0], [100])
    pool = NodePool([n], rng=rng())
    pool.acquire(0.0)
    pool.preempted(n, 100.0)
    assert pool.size == 0
    assert pool.acquire(200.0) is None


def test_remove_prevents_future_acquire():
    n = volatile(1, [0], [100])
    pool = NodePool([n], rng=rng())
    pool.remove(n)
    assert pool.acquire(0.0) is None
    assert n not in pool


def test_remove_while_busy_blocks_release():
    n = volatile(1, [0], [100])
    pool = NodePool([n], rng=rng())
    pool.acquire(0.0)
    pool.remove(n)
    pool.release(n, 10.0)  # no-op: retired
    assert pool.acquire(10.0) is None


@pytest.mark.parametrize("columnar", [False, True])
@pytest.mark.parametrize("other_start", [22.0, 50.0])
def test_removed_host_is_not_promoted_from_the_overflow_heap(columnar,
                                                            other_start):
    """A host removed while its next interval waits in the overflow
    heap stays out when that interval comes due: at t=25 the heap
    entry is due alone (other host at 50) or beside a due epoch entry
    (other host at 22)."""
    nodes = [volatile(0, [0, 20], [10, 30]),
             volatile(1, [other_start], [other_start + 30])]
    members = (columns_from_raw([(n.starts, n.ends, n.power, n.tag)
                                 for n in nodes]).fresh()
               if columnar else nodes)
    pool = NodePool(members, rng=rng())
    node, _ = pool.acquire(1.0)
    assert node.node_id == 0
    pool.preempted(node, 10.0)  # files [20, 30) in the overflow heap
    pool.remove(node)
    got = [pool.acquire(25.0), pool.acquire(25.0)]
    assert [g[0].node_id for g in got if g] == ([1] if other_start < 25
                                                else [])
    assert members_of(pool) == {1} and ready_map(pool) == {}


def test_duplicate_add_rejected():
    n = volatile(1, [0], [100])
    pool = NodePool([n], rng=rng())
    with pytest.raises(ValueError):
        pool.add(n, 0.0)


def test_next_future_start():
    pool = NodePool([volatile(1, [50], [100]),
                     volatile(2, [80], [120])], rng=rng())
    assert pool.next_future_start(0.0) == 50.0


def test_next_future_start_with_ready_node_returns_now():
    pool = NodePool([volatile(1, [0], [100])], rng=rng())
    assert pool.next_future_start(10.0) == 10.0


def test_next_future_start_exhausted_returns_none():
    n = volatile(1, [0], [10])
    pool = NodePool([n], rng=rng())
    pool.acquire(0.0)
    pool.preempted(n, 10.0)
    assert pool.next_future_start(20.0) is None


def test_idle_count():
    pool = NodePool([volatile(1, [0], [100]),
                     volatile(2, [0], [100]),
                     volatile(3, [500], [600])], rng=rng())
    assert pool.idle_count(10.0) == 2


def test_all_nodes_eventually_served():
    nodes = [volatile(i, [0], [1000]) for i in range(10)]
    pool = NodePool(nodes, rng=rng())
    seen = set()
    for _ in range(10):
        node, _ = pool.acquire(0.0)
        seen.add(node.node_id)
    assert seen == set(range(10))


def test_cloud_poll_weight_biases_selection():
    """With weight w, one idle cloud worker should win roughly
    w/(w+1) of the draws against one idle regular node."""
    wins = 0
    trials = 400
    for seed in range(trials):
        reg = volatile(1, [0], [1e9])
        cloud = Node.stable(2, 3000.0)
        pool = NodePool([reg, cloud], rng=rng(seed), cloud_poll_weight=10.0)
        node, _ = pool.acquire(0.0)
        if node.cloud:
            wins += 1
    assert 0.82 < wins / trials < 0.98  # expectation ~0.909


def test_cloud_weight_validation():
    with pytest.raises(ValueError):
        NodePool(cloud_poll_weight=0.0)


def test_selection_is_seed_deterministic():
    def draw(seed):
        nodes = [volatile(i, [0], [1000]) for i in range(20)]
        pool = NodePool(nodes, rng=rng(seed))
        return [pool.acquire(0.0)[0].node_id for _ in range(20)]
    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_has_ready_refiles_stale_entries():
    """Regression: has_ready used to detect stale ready entries but
    leave them in place — repeated polls rescanned dead entries and a
    stale node masked the true next wake-up time."""
    pool = NodePool([volatile(1, [0, 200], [100, 300])], rng=rng())
    assert pool.has_ready(10.0)
    assert not pool.has_ready(150.0)    # stale entry swept...
    assert ready_map(pool) == {}        # ...out of the ready index
    assert pool.next_future_start(150.0) == 200.0  # refiled, not lost
    assert pool.has_ready(250.0)        # and promoted back on time


def test_idle_count_sweeps_instead_of_rescanning():
    pool = NodePool([volatile(1, [0], [100]),
                     volatile(2, [0, 400], [50, 500]),
                     volatile(3, [600], [700])], rng=rng())
    assert pool.idle_count(10.0) == 2
    assert pool.idle_count(75.0) == 1   # node 2 expired and was refiled
    assert pool.idle_count(450.0) == 1  # ...then came back
    assert pool.idle_count(650.0) == 1  # node 3 promoted


# --------------------------------------------------- partition invariant
class PoolModel:
    """Drives a NodePool through random ops, tracking busy ownership.

    An object pool files everything through its heaps; a columnar pool
    files its t=0 realization into the epoch arrays instead."""

    def __init__(self, node_specs, seed, columnar=False):
        self.nodes = []
        for nid, intervals in enumerate(node_specs):
            starts = [float(s) for s, _ in intervals]
            ends = [float(e) for _, e in intervals]
            self.nodes.append(volatile(nid, starts, ends))
        members = (columns_from_raw([(n.starts, n.ends, n.power, n.tag)
                                     for n in self.nodes]).fresh()
                   if columnar else self.nodes)
        self.pool = NodePool(members, rng=rng(seed))
        self.busy = {}  # node_id -> node acquired and not yet returned
        self.t = 0.0

    def check_partition(self):
        """ready ∪ future ∪ busy partitions the membership set."""
        pool = self.pool
        members = members_of(pool)
        ready = set(ready_map(pool))
        future = {nid for _, nid, _, _ in pool._future if nid in members}
        future |= {nid for nid in pool._fut_id[pool._fut_pos:].tolist()
                   if nid in members}  # the live epoch slice
        busy = {nid for nid in self.busy if nid in members}
        assert ready | future | busy == members
        assert not ready & future
        assert not ready & busy
        assert not future & busy
        assert pool.size == len(members)
        # the ready count is the index's size, and every node object
        # is indexed under its own id
        assert pool._n_ready == np.count_nonzero(~np.isnan(pool._filed))
        for nid, (_end, node) in pool._obj_ready.items():
            assert node.node_id == nid

    def step(self, op, dt):
        self.t += dt
        pool, t = self.pool, self.t
        if op == 0:
            got = pool.acquire(t)
            if got is not None:
                node, end = got
                assert end > t
                assert node.node_id not in self.busy
                self.busy[node.node_id] = node
        elif op == 1 and self.busy:
            nid = sorted(self.busy)[0]
            pool.release(self.busy.pop(nid), t)
        elif op == 2 and self.busy:
            nid = sorted(self.busy)[-1]
            pool.preempted(self.busy.pop(nid), t)
        elif op == 3:
            pool.has_ready(t)
        elif op == 4:
            pool.idle_count(t)
        elif op == 5:
            pool.next_future_start(t)
        elif op == 6 and pool.size:
            nid = sorted(members_of(pool))[0]
            pool.remove(self.nodes[nid])
            self.busy.pop(nid, None)
        self.check_partition()


interval_sets = st.lists(
    st.lists(st.tuples(st.integers(0, 400), st.integers(1, 80)),
             min_size=1, max_size=4),
    min_size=1, max_size=6)


partition_ops = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40)),
                         min_size=1, max_size=40)


def _drive_partition(specs, seed, ops, columnar):
    node_specs = []
    for raw in specs:
        t, intervals = 0, []
        for gap, length in raw:
            start = t + gap
            end = start + length
            intervals.append((start, end))
            t = end
        node_specs.append(intervals)
    model = PoolModel(node_specs, seed, columnar)
    model.check_partition()
    for op, dt in ops:
        model.step(op, float(dt))


@settings(max_examples=60, deadline=None)
@given(specs=interval_sets, seed=st.integers(0, 2**16), ops=partition_ops)
def test_ready_future_busy_partition_members(specs, seed, ops):
    """After any operation sequence, every member node is in exactly
    one of: the ready index, the future heap, or busy (acquired)."""
    _drive_partition(specs, seed, ops, columnar=False)


@settings(max_examples=60, deadline=None)
@given(specs=interval_sets, seed=st.integers(0, 2**16), ops=partition_ops)
def test_columnar_ready_future_busy_partition_members(specs, seed, ops):
    """The same partition over a columnar pool, whose future store is
    the live epoch slice plus the overflow heap."""
    _drive_partition(specs, seed, ops, columnar=True)


# ---------------------------------------------------------------------------
# ghost compaction (probe/acquire-alternating runs)
# ---------------------------------------------------------------------------
def _many_interval_nodes(n=4, periods=40):
    """Nodes whose short intervals expire at every integer probe, so
    each sweep refiles every node and leaves a ghost copy behind."""
    return [volatile(i, [k + 0.0 for k in range(periods)],
                     [k + 0.5 for k in range(periods)])
            for i in range(n)]


def test_sweep_refile_ghosts_are_compacted_away(monkeypatch):
    """Regression: a sweep-refiled node appends a fresh draw-list copy
    without removing the old one, so every copy's id stays in the ready
    index and the historical ``in index`` compaction filter removed
    nothing — the ghost tail grew by n per sweep and the O(n) scan
    re-triggered forever.  Deduplicating (first copy per indexed id
    wins) must bring the tail to zero."""
    compactions = []
    compact = NodePool._compact_ghosts

    def spy(self):
        compactions.append(self)
        compact(self)

    monkeypatch.setattr(NodePool, "_compact_ghosts", spy)
    pool = NodePool(_many_interval_nodes(n=4, periods=40), rng=rng())
    for step in range(30):
        t = step + 0.75  # every interval filed before has expired
        pool.has_ready(t)  # the probe sweeps and refiles
        index = ready_map(pool)
        ghosts = (len(pool._ready_reg) + len(pool._ready_cloud)
                  - len(index))
        # the tail may grow between compactions, but never past the
        # trigger threshold plus one sweep's worth of refiles
        assert ghosts <= max(8, len(index)) + 4
    assert compactions
    # after the final compaction cycle each indexed id appears at most
    # once per draw list
    ids = [e if type(e) is int else e.node_id for e in pool._ready_reg]
    live = [i for i in ids if i in ready_map(pool)]
    assert len(live) == len(set(live))


def test_ghost_compaction_keeps_pool_drawable():
    """Compaction must only drop ghosts: every indexed node stays
    acquirable afterwards."""
    nodes = _many_interval_nodes(n=12, periods=40)
    pool = NodePool(nodes, rng=rng(3))
    for step in range(20):
        pool.idle_count(step + 0.75)
    t = 20.25  # inside interval [20, 20.5]
    assert pool.idle_count(t) == 12
    got = [pool.acquire(t) for _ in range(12)]
    assert all(g is not None for g in got)
    assert sorted(n.node_id for n, _end in got) == list(range(12))
    assert pool.acquire(t) is None


# ---------------------------------------------------------------------------
# acquire_many vs scalar acquire
# ---------------------------------------------------------------------------
def _rand_fleet(seed: int, n: int):
    """Raw per-node arrays with sorted, non-overlapping intervals."""
    g = np.random.default_rng(seed)
    raw = []
    for _ in range(n):
        k = int(g.integers(1, 5))
        pts = np.sort(g.choice(400, size=2 * k, replace=False)).astype(float)
        raw.append((pts[0::2].copy(), pts[1::2].copy(),
                    float(g.integers(1, 4)) * 500.0, "trace"))
    return raw


@settings(max_examples=60, deadline=None)
@given(fleet_seed=st.integers(0, 1000), n=st.integers(1, 8),
       rng_seed=st.integers(0, 1000), data=st.data())
def test_acquire_many_equals_sequential_acquires(fleet_seed, n, rng_seed,
                                                 data):
    """Bulk acquisition replays the scalar draw sequence exactly —
    same (node, end) pairs, same RNG state — including dry draws and
    interleaved release/preempt churn between batches."""
    template = columns_from_raw(_rand_fleet(fleet_seed, n))
    pool_a = NodePool(template.fresh(), rng=rng(rng_seed))
    pool_b = NodePool(template.fresh(), rng=rng(rng_seed))
    t = 0.0
    for _round in range(6):
        t += float(data.draw(st.integers(0, 80), label="dt"))
        k = data.draw(st.integers(0, n + 2), label="k")
        got_a = pool_a.acquire_many(t, k)
        got_b = []
        for _ in range(k):
            g = pool_b.acquire(t)
            if g is None:
                break
            got_b.append(g)
        assert ([(nd.node_id, end) for nd, end in got_a]
                == [(nd.node_id, end) for nd, end in got_b])
        assert (pool_a._rng.bit_generator.state
                == pool_b._rng.bit_generator.state)
        t += float(data.draw(st.integers(0, 80), label="dt2"))
        for (na, end_a), (nb, _eb) in zip(got_a, got_b):
            if t < end_a:
                pool_a.release(na, t)
                pool_b.release(nb, t)
            else:
                pool_a.preempted(na, t)
                pool_b.preempted(nb, t)
    assert ready_map(pool_a) == ready_map(pool_b)
    assert pool_a._ready_reg == pool_b._ready_reg


# ---------------------------------------------------------------------------
# per-host heap of a world's filing and of a pool restored from it
# ---------------------------------------------------------------------------
def test_filing_and_restored_pool_keep_no_python_object_per_host():
    """One seti world (seed 0, stream 0, 3 days, 2,000 hosts), measured
    with ``tracemalloc``: the t=0 filing a world keeps and a pool
    restored from it hold a few arrays, 22 and 19 B per host (CPython
    3.11, NumPy 2.4).  When they held a member set, a ready-index dict
    and its tuples they took 100 and 45 B per host, so a per-host
    Python object coming back fails the bounds."""
    flat = get_trace_spec("seti").materialize(
        np.random.default_rng([0, 0, 0xACE]), 3 * 86400.0, 2000)
    template = NodeColumns.from_flat(*flat)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        filing = NodePool(template.fresh()).capture_filing()
        filed = tracemalloc.get_traced_memory()[0]
        cols = template.fresh()
        base = tracemalloc.get_traced_memory()[0]
        pool = NodePool.from_filing(cols, filing)
        restored = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert template.n == 2000 and pool.size > 0
    assert (filed - start) / template.n < 40
    assert (restored - base) / template.n < 32
