"""Property pins for the Reschedule fetch index both servers share.

``DGServer._fetch_candidate_pick`` pops a lazily-invalidated heap keyed
``(cloud_dups, first_assign_time|inf, gtid)`` instead of argmin-scanning
every incomplete task.  The heap does not exist until the first pick
builds it from ``_incomplete``; from then on the pick is exact iff every
key change of an incomplete task pushes a fresh entry.  The sites are
the arrival (``DGServer._arrive_one``), the first assignment
(``DGServer._mark_assigned``), a duplicate's start (BOINC
``_execute_cloud``, XWHEP ``fetch_for_cloud``) and its end (BOINC
``_finish``, XWHEP ``_preempt``).  Eligibility is checked at pick time:
BOINC's one-result-per-user rule, XWHEP's ``queued`` flag.

The hypothesis test below replays random interleavings of exactly
those transitions — completions, retired entries, eligibility flips
and picks before and after the heap exists included — and checks the
heap pick against each server's historical argmin loop (kept here as
the reference) after every step.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.pool import NodePool
from repro.middleware.boinc import BoincServer
from repro.middleware.xwhep import XWHepServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task

SERVERS = {"boinc": BoincServer, "xwhep": XWHepServer}
N_TASKS = 64


def _server(kind):
    sim = Simulation(horizon=1e9)
    server = SERVERS[kind](sim, NodePool((),))
    # registers the BoT; its arrival events are never run, the tests
    # call the arrival body directly
    server.submit_bot(BagOfTasks(
        bot_id="b", tasks=[Task(i, 1000.0) for i in range(N_TASKS)]))
    return server


def _node(nid):
    return SimpleNamespace(node_id=nid, cloud=False, power=1000.0)


def _scan_key(cand):
    return (cand.cloud_dups,
            cand.first_assign_time if cand.first_assign_time is not None
            else float("inf"),
            cand.gtid)


def _argmin(cands):
    best = None
    best_key = None
    for cand in cands:
        key = _scan_key(cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def _boinc_scan(server, node):
    """BOINC's historical candidate scan: one result per user."""
    one_per_user = server.config.one_result_per_user_per_wu
    return _argmin(c for c in server._incomplete
                   if not c.done
                   and not (one_per_user and node.node_id in c.workers))


def _xwhep_scan(server, node):
    """XWHEP's historical ``fetch_for_cloud`` loop: queued tasks are
    pending work, not duplicate candidates."""
    return _argmin(c for c in server._incomplete
                   if not c.done and not c.queued)


SCANS = {"boinc": _boinc_scan, "xwhep": _xwhep_scan}


# Each helper performs one production transition: the real base-class
# method where it runs without an event loop, otherwise the same state
# change the production site makes followed by its _note_fetch_candidate.
def _new(server, idx):
    server._arrive_one("b", server._bots["b"].bot.tasks[idx])
    return server.tasks[("b", idx)]


def _assign(server, task, nid):
    server._mark_assigned(task, _node(nid))


def _cloud_start(server, task, nid):
    server._mark_assigned(task, _node(nid))
    task.cloud_dups += 1
    server._note_fetch_candidate(task)


def _cloud_end(server, task):
    if task.cloud_dups <= 0:
        return
    task.cloud_dups -= 1
    if not task.done:
        server._note_fetch_candidate(task)


def _complete(server, task):
    server.external_complete(task.gtid, 0.0)


def _requeue(server, task):
    task.queued = True  # XWHEP's _detect reissue (BOINC ignores it)
    server.pending.append(task)


def _fresh_entries(server):
    """gtid -> number of heap entries carrying the task's current key."""
    counts = {}
    for entry in server._fetch_heap:
        cand = entry[4]
        if not cand.done and entry[:3] == _scan_key(cand):
            counts[cand.gtid] = counts.get(cand.gtid, 0) + 1
    return counts


@pytest.mark.parametrize("kind", SERVERS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_heap_pick_matches_naive_scan_under_random_interleavings(kind, data):
    server = _server(kind)
    scan = SCANS[kind]
    tasks = []
    node_ids = [0, 1, 2, 3]
    n_steps = data.draw(st.integers(5, 40), label="steps")
    for step in range(n_steps):
        server.sim.now = float(step)
        op = data.draw(st.sampled_from(
            ["new", "assign", "cloud_start", "cloud_end", "complete",
             "requeue", "dequeue", "pick", "pick", "pick"]),
            label=f"op{step}")
        live = [w for w in tasks if not w.done]
        nid = data.draw(st.sampled_from(node_ids), label=f"node{step}")
        if op == "new" or not live:
            tasks.append(_new(server, len(tasks)))
        elif op == "assign":
            _assign(server, data.draw(st.sampled_from(live)), nid)
        elif op == "cloud_start":
            _cloud_start(server, data.draw(st.sampled_from(live)), nid)
        elif op == "cloud_end":
            _cloud_end(server, data.draw(st.sampled_from(live)))
        elif op == "complete":
            _complete(server, data.draw(st.sampled_from(live)))
        elif op == "requeue":
            _requeue(server, data.draw(st.sampled_from(live)))
        elif op == "dequeue":
            server._pick_unit(_node(nid))
        else:
            node = _node(nid)
            expected = scan(server, node)
            assert server._fetch_candidate_pick(node) is expected
    # a final pick per node: the heap must still agree after the dust
    # settles (stale entries dropped, stashed ones restored intact)
    for nid in node_ids:
        node = _node(nid)
        assert server._fetch_candidate_pick(node) is scan(server, node)


@pytest.mark.parametrize("kind", SERVERS)
def test_index_is_built_on_first_pick(kind):
    server = _server(kind)
    tasks = [_new(server, i) for i in range(6)]
    _assign(server, tasks[0], 1)
    _cloud_start(server, tasks[1], 2)
    _complete(server, tasks[2])
    server._pick_unit(_node(9))  # XWHEP: dequeues tasks[0] only
    assert server._fetch_heap is None  # the notes above were no-ops
    server._fetch_candidate_pick(_node(9))
    assert server._fetch_heap is not None
    assert _fresh_entries(server) == {t.gtid: 1 for t in server._incomplete}
    assert len(server._fetch_heap) == len(server._incomplete) == 5


@pytest.mark.parametrize("kind", SERVERS)
def test_pick_on_empty_heap_returns_none(kind):
    server = _server(kind)
    assert server._fetch_candidate_pick(_node(0)) is None


def test_pick_prefers_fewest_cloud_dups_then_oldest_assignment():
    server = _server("boinc")
    a, b, c = (_new(server, i) for i in range(3))
    server.sim.now = 5.0
    _assign(server, a, 7)
    server.sim.now = 1.0
    _assign(server, b, 7)
    server.sim.now = 0.0
    _cloud_start(server, c, 8)  # c has a duplicate already
    # b assigned earliest among the 0-dup candidates
    assert server._fetch_candidate_pick(_node(9)) is b
    # a and b now hold a node-9 result: c is eligible despite its dup
    _assign(server, a, 9)
    _assign(server, b, 9)
    assert server._fetch_candidate_pick(_node(9)) is c


def test_xwhep_pick_skips_queued_tasks():
    server = _server("xwhep")
    a, b = _new(server, 0), _new(server, 1)
    assert server._fetch_candidate_pick(_node(0)) is None  # both queued
    server._pick_unit(_node(0))  # dequeues a
    assert server._fetch_candidate_pick(_node(0)) is a
    server._pick_unit(_node(0))
    _requeue(server, a)
    assert server._fetch_candidate_pick(_node(0)) is b


@pytest.mark.parametrize("kind", SERVERS)
def test_stale_entries_are_dropped_not_resurrected(kind):
    server = _server(kind)
    a = _new(server, 0)
    server._pick_unit(_node(9))
    server._fetch_candidate_pick(_node(5))  # builds the index
    _cloud_start(server, a, 1)
    _cloud_start(server, a, 2)
    _cloud_end(server, a)
    heap_before = len(server._fetch_heap)
    pick = server._fetch_candidate_pick(_node(5))
    assert pick is a
    # the stale (older-key) entries surfaced and were discarded
    assert len(server._fetch_heap) < heap_before


@pytest.mark.parametrize("kind", SERVERS)
def test_compaction_bounds_heap_growth(kind):
    server = _server(kind)
    a = _new(server, 0)
    server._pick_unit(_node(9))
    server._fetch_candidate_pick(_node(5))  # builds the index
    for _ in range(300):  # churn one candidate's key repeatedly
        _cloud_start(server, a, 1)
        _cloud_end(server, a)
    assert len(server._fetch_heap) > 64
    assert server._fetch_candidate_pick(_node(5)) is a
    # the pick triggered a rebuild: far fewer entries than pushes
    assert len(server._fetch_heap) <= 4 * max(1, len(server._incomplete)) + 1
