"""The historical all-heap node pool (test oracle).

``NodePool`` keeps its trace hosts' state in arrays: a ``filed`` array
as the ready index, a ``member`` array, sorted epoch arrays behind a
cursor, and a sweep that scans the filed ends.  This module keeps the
pool those replaced, standalone, so tests can drive both side by side
and compare what each observes after every step:

* a dict ready index, node id → ``(interval_end, entry)``;
* a stale min-heap of ``(interval_end, id)``, one key pushed per ready
  filing, popped and validated against the index by the sweep;
* a future min-heap of ``(next_start, id, entry, interval_end)``;
* a member set;
* per-host promotion, sweep and ghost compaction.

Entries are plain column ids or ``Node`` objects, as in ``NodePool``.
The draw loop and every filing order are the historical code's; ghost
compaction follows the rule ``NodePool`` keeps (more than 8 ghosts and
more than the index holds; the first copy per indexed id wins).

:func:`ready_map` and :func:`members_of` read the same observable state
off either pool.
"""

import heapq

import numpy as np

from repro.infra.columns import ColumnNode, NodeColumns


def ready_map(pool):
    """``{id: interval_end}`` of every node filed ready, either pool."""
    if isinstance(pool, HeapPool):
        return {nid: end for nid, (end, _e) in pool._ready_end_of.items()}
    ids = np.flatnonzero(~np.isnan(pool._filed))
    ready = dict(zip(ids.tolist(), pool._filed[ids].tolist()))
    ready.update((nid, end) for nid, (end, _e) in pool._obj_ready.items())
    return ready


def members_of(pool):
    """The member ids of either pool."""
    if isinstance(pool, HeapPool):
        return set(pool._members)
    return set(np.flatnonzero(pool._member).tolist()) | pool._obj_ids


class HeapPool:
    """Tracks idle nodes and serves poll-weighted random ones on demand,
    with a dict index, tuple heaps and a member set."""

    def __init__(self, nodes=(), rng=None, cloud_poll_weight=10.0):
        self._rng = rng or np.random.default_rng(0)
        self.cloud_poll_weight = float(cloud_poll_weight)
        self._ready_reg = []
        self._ready_cloud = []
        self._ready_end_of = {}
        self._stale = []
        self._future = []
        self._members = set()
        self.size = 0
        self._columns = None
        self._views = {}
        if isinstance(nodes, NodeColumns):
            self._init_columns(nodes)
        else:
            for n in nodes:
                self.add(n, at=0.0)

    # -- entry plumbing --------------------------------------------------
    @staticmethod
    def _id_of(entry):
        return entry if type(entry) is int else entry.node_id

    def _as_entry(self, node):
        if isinstance(node, ColumnNode) and node._cols is self._columns:
            return node.node_id
        return node

    def _out(self, entry):
        if type(entry) is int:
            view = self._views.get(entry)
            if view is None:
                view = self._views[entry] = ColumnNode(self._columns, entry)
            return view
        return entry

    def _next_available(self, entry, at):
        if type(entry) is int:
            return self._columns.next_available(entry, at)
        return entry.next_available(at)

    def _interval_at(self, entry, t):
        if type(entry) is int:
            return self._columns.interval_at(entry, t)
        return entry.interval_at(t)

    # -- filing ------------------------------------------------------------
    def _init_columns(self, cols):
        """``add(node, at=0.0)`` over the column ids in order, with
        ``heapify`` over the unique keys instead of sequential pushes."""
        self._columns = cols
        ids, s0, e0 = cols.first_interval()
        if len(ids) and float(e0.min()) <= 0.0:
            for i in ids.tolist():
                self._members.add(i)
                self.size += 1
                self._enqueue(i, 0.0)
            return
        self._members = set(ids.tolist())
        self.size = len(self._members)
        ready = s0 <= 0.0
        for i, end in zip(ids[ready].tolist(), e0[ready].tolist()):
            self._ready_end_of[i] = (end, i)
            self._ready_reg.append(i)
        self._stale = list(zip(e0[ready].tolist(), ids[ready].tolist()))
        heapq.heapify(self._stale)
        away = ~ready
        self._future = list(zip(s0[away].tolist(), ids[away].tolist(),
                                ids[away].tolist(), e0[away].tolist()))
        heapq.heapify(self._future)

    def add(self, node, at):
        entry = self._as_entry(node)
        nid = self._id_of(entry)
        if nid in self._members:
            raise ValueError(f"node {nid} already in pool")
        self._members.add(nid)
        self.size += 1
        self._enqueue(entry, at)

    def remove(self, node):
        if node.node_id not in self._members:
            return
        self._members.discard(node.node_id)
        self._ready_end_of.pop(node.node_id, None)
        self.size -= 1

    def __contains__(self, node):
        return node.node_id in self._members

    def _enqueue(self, entry, at):
        nxt = self._next_available(entry, at)
        nid = self._id_of(entry)
        if nxt is None:
            self._members.discard(nid)
            self.size -= 1
            return
        start, end = nxt
        if start <= at:
            self._file_ready(entry, end)
        else:
            heapq.heappush(self._future, (start, nid, entry, end))

    def _file_ready(self, entry, end):
        nid = self._id_of(entry)
        self._ready_end_of[nid] = (end, entry)
        heapq.heappush(self._stale, (end, nid))
        cloud = type(entry) is not int and entry.cloud
        (self._ready_cloud if cloud else self._ready_reg).append(entry)

    # -- probes --------------------------------------------------------------
    def _promote(self, t):
        future = self._future
        while future and future[0][0] <= t:
            _, nid, entry, end = heapq.heappop(future)
            if nid in self._members:
                self._file_ready(entry, end)

    def _sweep_stale(self, t):
        stale = self._stale
        index = self._ready_end_of
        while stale and stale[0][0] <= t:
            end, nid = heapq.heappop(stale)
            rec = index.get(nid)
            if rec is None or rec[0] != end:
                continue  # the node left ready (or was refiled) already
            del index[nid]
            self._enqueue(rec[1], t)
        ghosts = (len(self._ready_reg) + len(self._ready_cloud)
                  - len(index))
        if ghosts > 8 and ghosts > len(index):
            self._compact_ghosts()

    def _compact_ghosts(self):
        index = self._ready_end_of
        for attr in ("_ready_reg", "_ready_cloud"):
            seen = set()
            out = []
            for entry in getattr(self, attr):
                nid = self._id_of(entry)
                if nid in index and nid not in seen:
                    seen.add(nid)
                    out.append(entry)
            setattr(self, attr, out)

    def _pop_from(self, ready, t):
        index = self._ready_end_of
        while ready:
            i = int(self._rng.integers(len(ready)))
            ready[i], ready[-1] = ready[-1], ready[i]
            entry = ready.pop()
            nid = self._id_of(entry)
            if nid not in index:
                continue  # retired, or a ghost left behind by a sweep
            iv = self._interval_at(entry, t)
            del index[nid]
            if iv is None:
                self._enqueue(entry, t)  # stale: refile
                continue
            return entry, iv[1]
        return None

    def _draw(self, t):
        while self._ready_reg or self._ready_cloud:
            w_cloud = self.cloud_poll_weight * len(self._ready_cloud)
            w_total = w_cloud + len(self._ready_reg)
            pick_cloud = (w_cloud > 0
                          and self._rng.random() * w_total < w_cloud)
            got = self._pop_from(
                self._ready_cloud if pick_cloud else self._ready_reg, t)
            if got is not None:
                return self._out(got[0]), got[1]
        return None

    def acquire(self, t):
        self._promote(t)
        return self._draw(t)

    def acquire_many(self, t, k):
        if k <= 0:
            return []
        self._promote(t)
        out = []
        for _ in range(k):
            got = self._draw(t)
            if got is None:
                break
            out.append(got)
        return out

    def release(self, node, t):
        if node.node_id not in self._members:
            return
        self._enqueue(self._as_entry(node), t)

    def preempted(self, node, t):
        if node.node_id not in self._members:
            return
        self._enqueue(self._as_entry(node), t)

    def has_ready(self, t):
        self._promote(t)
        self._sweep_stale(t)
        return bool(self._ready_end_of)

    def next_future_start(self, t):
        self._promote(t)
        self._sweep_stale(t)
        if self._ready_end_of:
            return t
        while self._future and self._future[0][1] not in self._members:
            heapq.heappop(self._future)
        return self._future[0][0] if self._future else None

    def idle_count(self, t):
        self._promote(t)
        self._sweep_stale(t)
        return len(self._ready_end_of)
