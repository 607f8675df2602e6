"""Node availability schedules: cursor queries and validation."""

import math

import numpy as np
import pytest

from repro.infra.node import Node


def make(starts, ends, power=1000.0):
    return Node(0, power, np.asarray(starts, float),
                np.asarray(ends, float))


def test_interval_at_inside():
    n = make([0, 100], [50, 200])
    assert n.interval_at(10) == (0.0, 50.0)
    assert n.interval_at(150) == (100.0, 200.0)


def test_interval_at_gap_returns_none():
    n = make([0, 100], [50, 200])
    assert n.interval_at(75) is None


def test_interval_at_boundaries():
    n = make([0, 100], [50, 200])
    assert n.interval_at(0) == (0.0, 50.0)
    # interval is [start, end): at the end instant the node is away
    assert n.interval_at(50) is None
    assert n.interval_at(100) == (100.0, 200.0)


def test_next_available_from_gap():
    n = make([0, 100], [50, 200])
    assert n.next_available(60) == (100.0, 200.0)


def test_next_available_inside_interval_returns_it():
    n = make([0, 100], [50, 200])
    assert n.next_available(120) == (100.0, 200.0)


def test_next_available_exhausted():
    n = make([0], [50])
    assert n.next_available(60) is None


def test_forward_cursor_is_monotone():
    n = make([0, 100, 300], [50, 200, 400])
    assert n.interval_at(10) is not None
    assert n.interval_at(150) is not None
    assert n.interval_at(350) is not None
    assert n.interval_at(500) is None


def test_available_at():
    n = make([10], [20])
    assert not n.available_at(5)
    assert n.available_at(15)
    assert not n.available_at(25)


def test_availability_fraction():
    n = make([0, 50], [25, 75])
    assert n.availability_fraction(100) == pytest.approx(0.5)


def test_availability_fraction_clips_to_window():
    n = make([0], [1000])
    assert n.availability_fraction(100) == pytest.approx(1.0)


def test_stable_node_never_dies():
    n = Node.stable(7, 3000.0, start=5.0)
    assert n.cloud
    assert n.interval_at(10.0) == (5.0, math.inf)
    assert n.interval_at(1e12) == (5.0, math.inf)


@pytest.mark.parametrize("start", [0.0, 5.0, 1e12, -math.inf])
def test_stable_node_matches_single_interval_node(start):
    fast = Node.stable(7, 3000.0, start=start, tag="ec2")
    ref = Node(7, 3000.0, np.array([start]), np.array([math.inf]),
               cloud=True, tag="ec2")
    for attr in ("node_id", "power", "cloud", "tag"):
        assert getattr(fast, attr) == getattr(ref, attr)
    assert fast.starts.dtype == ref.starts.dtype
    assert fast.availability_fraction(100.0) == \
        ref.availability_fraction(100.0)
    assert fast.availability_fraction(1e13) == \
        ref.availability_fraction(1e13)
    for t in (0.0, 4.0, 5.0, 6.0, 1e12, 1e15):
        assert fast.interval_at(t) == ref.interval_at(t)
        assert fast.next_available(t) == ref.next_available(t)


@pytest.mark.parametrize("power, start", [
    (0.0, 0.0), (-1.0, 0.0), (1.0, math.inf), (1.0, math.nan)])
def test_stable_node_rejects_what_the_constructor_rejects(power, start):
    with pytest.raises(ValueError) as fast:
        Node.stable(1, power, start=start)
    with pytest.raises(ValueError) as ref:
        Node(1, power, np.array([start]), np.array([math.inf]), cloud=True)
    assert str(fast.value) == str(ref.value)


def test_stable_nodes_share_a_read_only_ends_array():
    a, b = Node.stable(1, 1.0), Node.stable(2, 1.0, start=3.0)
    assert a.ends is b.ends
    with pytest.raises(ValueError):
        a.ends[0] = 0.0
    assert b.interval_at(4.0) == (3.0, math.inf)


def test_empty_schedule_allowed():
    n = make([], [])
    assert n.interval_at(0) is None
    assert n.next_available(0) is None


def test_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        make([0], [10], power=0)


def test_rejects_overlapping_intervals():
    with pytest.raises(ValueError):
        make([0, 40], [50, 100])


def test_rejects_inverted_interval():
    with pytest.raises(ValueError):
        make([10], [5])


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        Node(0, 1000.0, np.array([0.0, 1.0]), np.array([2.0]))


def test_touching_intervals_allowed():
    n = make([0, 50], [50, 100])
    assert n.interval_at(25) == (0.0, 50.0)
    assert n.interval_at(75) == (50.0, 100.0)
