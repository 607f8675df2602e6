"""Columnar node storage: validation, Node-API parity, pool parity.

The contract under test is substitutability: a :class:`NodeColumns`
realization behind the pool must be observationally identical to the
historical list-of-:class:`Node` construction — same interval answers,
same RNG draw sequence, same probe results — because every fixed-seed
golden in the repo depends on it.
"""

import numpy as np
import pytest

from repro.infra.columns import ColumnNode
from repro.infra.node import Node
from repro.infra.pool import NodePool
from trace_oracle import columns_from_raw


def _fleet_raw(seed: int, n: int = 30):
    """Random per-node ``(starts, ends, power, tag)`` tuples."""
    rng = np.random.default_rng(seed)
    raw = []
    for i in range(n):
        k = int(rng.integers(0, 4))
        starts, ends = [], []
        t = 0.0
        for j in range(k):
            if j == 0 and i % 3 == 0:
                s = 0.0          # a third of the fleet is up at t=0
            else:
                t += float(rng.uniform(0.1, 5.0))
                s = t
            t = s + float(rng.uniform(0.5, 10.0))
            starts.append(s)
            ends.append(t)
        raw.append((np.asarray(starts, dtype=float),
                    np.asarray(ends, dtype=float),
                    float(rng.uniform(1.0, 10.0)), f"host{i}"))
    return raw


def _nodes_of(raw):
    return [Node(i, p, s, e, tag=tag)
            for i, (s, e, p, tag) in enumerate(raw)]


# ------------------------------------------------------------- validation
def test_from_raw_rejects_bad_power():
    with pytest.raises(ValueError, match="power"):
        columns_from_raw([(np.array([0.0]), np.array([1.0]),
                               0.0, "")])


def test_from_raw_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        columns_from_raw([(np.array([0.0, 2.0]), np.array([1.0]),
                               1.0, "")])


def test_from_raw_rejects_empty_intervals():
    with pytest.raises(ValueError, match="positive-length"):
        columns_from_raw([(np.array([1.0]), np.array([1.0]),
                               1.0, "")])


def test_from_raw_rejects_overlap_within_a_node():
    with pytest.raises(ValueError, match="sorted"):
        columns_from_raw([(np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                               1.0, "")])


def test_from_raw_allows_overlap_across_node_borders():
    """The sortedness check is per node; adjacent nodes' intervals are
    unrelated (every node starts its own timeline)."""
    cols = columns_from_raw([
        (np.array([0.0]), np.array([10.0]), 1.0, "a"),
        (np.array([0.0]), np.array([5.0]), 1.0, "b"),
    ])
    assert cols.interval_at(0, 1.0) == (0.0, 10.0)
    assert cols.interval_at(1, 1.0) == (0.0, 5.0)


def test_template_arrays_are_immutable():
    cols = columns_from_raw(_fleet_raw(1, n=5))
    with pytest.raises(ValueError):
        cols.starts[0] = -1.0
    with pytest.raises(ValueError):
        cols.offsets[0] = 7


def test_fresh_shares_columns_but_not_cursor():
    template = columns_from_raw(_fleet_raw(2, n=12))
    a, b = template.fresh(), template.fresh()
    assert a.starts is b.starts and a.offsets is b.offsets
    assert a.cursor is not b.cursor
    # advancing one execution's cursors must not leak into the other
    for i in range(len(a)):
        a.advance(i, 1e9)
    assert np.array_equal(b.cursor, template.offsets[:-1])


# ------------------------------------------------------- Node-API parity
def test_column_node_matches_node_answers():
    raw = _fleet_raw(3, n=20)
    cols = columns_from_raw(raw).fresh()
    nodes = _nodes_of(raw)
    probes = [0.0, 0.5, 1.0, 3.0, 7.5, 12.0, 30.0, 100.0]
    for i, node in enumerate(nodes):
        view = cols.view(i)
        assert isinstance(view, ColumnNode)
        assert view.node_id == node.node_id
        assert view.power == node.power
        assert view.tag == node.tag
        assert not view.cloud
        assert np.array_equal(view.starts, node.starts)
        assert np.array_equal(view.ends, node.ends)
        assert view.availability_fraction(50.0) == pytest.approx(
            node.availability_fraction(50.0))
        for t in probes:  # monotone, as the simulation guarantees
            assert view.interval_at(t) == node.interval_at(t)
            assert view.available_at(t) == node.available_at(t)
            assert view.next_available(t) == node.next_available(t)


# ----------------------------------------------------------- pool parity
def _drive(pool: NodePool):
    """A deterministic acquire/release/probe workload transcript."""
    transcript = []
    held = []
    for step in range(80):
        t = float(step)
        transcript.append(("ready", pool.has_ready(t)))
        got = pool.acquire(t)
        if got is not None:
            node, end = got
            transcript.append(("acq", node.node_id, node.power,
                               node.tag, end))
            held.append((node, end))
        else:
            transcript.append(("dry",))
        if held and step % 3 == 0:
            node, end = held.pop(0)
            if end <= t:
                pool.preempted(node, t)
            else:
                pool.release(node, t)
        transcript.append(("idle", pool.idle_count(t)))
        transcript.append(("next", pool.next_future_start(t)))
    transcript.append(("size", pool.size))
    return transcript


@pytest.mark.parametrize("seed", range(4))
def test_columnar_pool_replays_object_pool_exactly(seed):
    raw = _fleet_raw(100 + seed, n=40)
    obj_pool = NodePool(_nodes_of(raw),
                        rng=np.random.default_rng([seed, 7]))
    col_pool = NodePool(columns_from_raw(raw).fresh(),
                        rng=np.random.default_rng([seed, 7]))
    assert _drive(obj_pool) == _drive(col_pool)


def test_columnar_pool_handles_pre_zero_intervals():
    """A first interval ending at/before t=0 takes the scalar filing
    fallback; behaviour still matches the object pool."""
    raw = _fleet_raw(200, n=10)
    raw[4] = (np.array([-5.0, 2.0]), np.array([-1.0, 6.0]), 2.0, "warp")
    raw[7] = (np.array([-3.0]), np.array([-2.0]), 1.0, "gone")
    obj_pool = NodePool(_nodes_of(raw), rng=np.random.default_rng(5))
    col_pool = NodePool(columns_from_raw(raw).fresh(),
                        rng=np.random.default_rng(5))
    assert _drive(obj_pool) == _drive(col_pool)


def test_acquired_view_identity_is_stable():
    """The pool hands out ONE ColumnNode per id (cursor aliasing would
    corrupt scans if two views existed for one node)."""
    raw = [(np.array([0.0]), np.array([1e9]), 1.0, "a")]
    pool = NodePool(columns_from_raw(raw).fresh(),
                    rng=np.random.default_rng(0))
    node, _end = pool.acquire(0.0)
    pool.release(node, 1.0)
    again, _end = pool.acquire(2.0)
    assert again is node


def test_cloud_nodes_coexist_with_columnar_members():
    """Dynamically added cloud workers stay Node objects; the weighted
    cloud-vs-regular pick still works over the hybrid pool."""
    raw = [(np.array([0.0]), np.array([1e9]), 1.0, f"h{i}")
           for i in range(3)]
    pool = NodePool(columns_from_raw(raw).fresh(),
                    rng=np.random.default_rng(1),
                    cloud_poll_weight=10.0)
    cloud = Node.stable(10_000, 5.0)
    pool.add(cloud, at=0.0)
    got = {pool.acquire(0.0)[0].node_id for _ in range(4)}
    assert got == {0, 1, 2, 10_000}
    assert pool.acquire(0.0) is None
    assert cloud in pool
    pool.remove(cloud)
    assert cloud not in pool


# ---------------------------------------------------------- pool filing
def test_pool_from_filing_replays_fresh_filing_exactly():
    """A pool restored from a captured t=0 filing skeleton must be
    indistinguishable from a freshly filed one — same draw-list order,
    same heaps — so the RNG draw sequence (and every fixed-seed
    golden) is unchanged when the harness caches the filing."""
    raw = _fleet_raw(300, n=40)
    template = columns_from_raw(raw)
    donor = NodePool(template.fresh(), rng=np.random.default_rng(0))
    filing = donor.capture_filing()
    fresh = NodePool(template.fresh(), rng=np.random.default_rng([9, 1]))
    restored = NodePool.from_filing(template.fresh(), filing,
                                    rng=np.random.default_rng([9, 1]))
    assert restored.vector_filed
    assert _drive(fresh) == _drive(restored)


def test_capture_filing_rejects_unvectorized_pools():
    obj_pool = NodePool(_nodes_of(_fleet_raw(1, n=5)),
                        rng=np.random.default_rng(0))
    assert not obj_pool.vector_filed
    with pytest.raises(ValueError, match="not capturable"):
        obj_pool.capture_filing()
    # a degenerate trace (interval ending before t=0) takes the scalar
    # filing path, which advances cursors — also not capturable
    raw = _fleet_raw(200, n=10)
    raw[7] = (np.array([-3.0]), np.array([-2.0]), 1.0, "gone")
    col_pool = NodePool(columns_from_raw(raw).fresh(),
                        rng=np.random.default_rng(0))
    assert not col_pool.vector_filed
    with pytest.raises(ValueError, match="not capturable"):
        col_pool.capture_filing()


def test_trace_cache_materialize_pool_reuses_filing():
    from repro.experiments.harness import TraceCache

    cache = TraceCache()
    kw = dict(trace="nd", seed=3, cap=25, horizon=2 * 86400.0)
    p1 = cache.materialize_pool(rng=np.random.default_rng([3, 0xB00]),
                                **kw)
    assert len(cache._filings) == 1  # skeleton captured on first build
    p2 = cache.materialize_pool(rng=np.random.default_rng([3, 0xB00]),
                                **kw)
    assert _drive(p1) == _drive(p2)
