"""Lazy node pool: serves available idle workers to the middleware.

The paper's ``seti`` trace averages 24 391 simultaneously available
nodes while a BoT occupies at most a few thousand workers, so an event
per node transition would dominate the simulation for nothing.  The
pool instead activates nodes *lazily*:

* ``_ready_*`` — unordered lists of idle nodes believed to be inside an
  availability interval (entries may be stale; they are validated and
  recycled on pop);
* a *future* store of idle nodes currently unavailable, keyed by next
  interval start (columnar epoch arrays + an overflow heap, below).

Only :meth:`acquire` (the middleware asking for a worker) pays the cost
of promoting nodes between the two structures; nodes that are never
needed never generate events.  A node executing a task is owned by the
middleware (which schedules its completion / preemption / resume
events) and re-enters the pool through :meth:`release` /
:meth:`preempted`.

Columnar members: a pool built over a :class:`~repro.infra.columns.
NodeColumns` realization keeps plain ``int`` node ids in the draw
lists and heaps — no Python node objects exist for the 10^5-host bulk
of the pool.  Interval validation reads the shared columns directly; a
:class:`~repro.infra.columns.ColumnNode` flyweight is materialized
(and cached, for stable identity) only for the node :meth:`acquire`
actually hands out.  Dynamically added nodes (cloud workers via the
Flat strategy) stay :class:`~repro.infra.node.Node` objects; both
entry kinds coexist in every structure.  The initial filing of a
columnar realization is vectorized but replays the historical
node-id-order ``add()`` loop exactly, so draw-list positions — and
therefore the RNG draw sequence — are unchanged.

Columnar promotion epochs: the t=0 filing used to heapify every
not-yet-available node into a per-node future heap and every ready
interval end into a stale heap — ~10^5 tuple allocations whose pops
dominated the dispatch profile.  The filing now lands in flat sorted
NumPy arrays instead (the *epoch*): ``_fut_start``/``_fut_id``/
``_fut_end`` sorted by ``(start, id)`` with a cursor ``_fut_pos``, and
``_stale_end``/``_stale_id`` sorted by ``(end, id)`` with
``_stale_pos``.  Nodes refiled *after* the epoch (release/preempt
churn, sweep refiles) go to overflow heaps (``_future``, ``_stale``)
exactly as before.  **Draw-order invariant:** the historical heaps
popped in ascending ``(start, id)`` / ``(end, id)`` key order — a
property of the key multiset, not the heap layout — and the epoch
arrays are sorted by those same keys, so a probe that takes the epoch
cut plus the due heap entries and merges them on that key, epoch first
on a tie, re-files nodes in the byte-identical order.  For the same
reason a batch of pushes may be replaced by ``extend + heapify``:
heapq's pop sequence depends only on the key multiset (duplicate keys
here are fully identical tuples, hence interchangeable).

Batched probes: the probes — :meth:`has_ready`, :meth:`idle_count`,
:meth:`next_future_start` — run :meth:`_promote` then
:meth:`_sweep_stale`, and each handles its whole due slice at once.
The epoch cut and the due heap entries are merged by one stable sort
(a linear merge of two sorted runs), expired entries are checked
against the ready index in one pass, every expired columnar host's
cursor moves in one
:meth:`~repro.infra.columns.NodeColumns.next_available_many` call, and
the results are filed with one dict update, one list extend and one
batched push per heap.  A refile of fewer than ``_BATCH_MIN`` hosts, or
one holding node objects, takes the per-entry loop instead; promotion
calls no NumPy beyond its cut, so the steady-state ``acquire``, which
promotes one or two hosts, pays nothing for the batching.  The
historical per-host path is kept as a test oracle
(``tests/pool_oracle.py``), pinned structure for structure against
this one.

Ready bookkeeping: alongside the draw lists the pool keeps
``_ready_end_of`` (node id → ``(interval_end, entry)`` for every node
filed ready).  The probes refile expired nodes to their next interval
and read the answer off the index.  :meth:`acquire` deliberately does
**not** sweep: its draw loop still validates lazily so the RNG draw
sequence (and thus every fixed-seed golden) is bit-identical to the
historical scan — a sweep would refile entries the historical code
left in place and shift the draw weights.  Entries a sweep refiled
remain in the draw lists as *ghosts* (their id has left the index, or
— after a sweep-refile within the same probe — a fresher copy of the
same id was appended) and are skipped at draw time exactly like the
retired nodes the historical loop skipped; a sweep compacts them away
when they outnumber live entries, keeping exactly one copy per indexed
id (a sweep-refiled node leaves its old list copy *and* appends a new
one, so compaction must deduplicate or the ghost count never drops
and the compaction scan re-triggers forever).

Selection model: desktop-grid work distribution is *pull-based* — the
server hands a task to whichever idle worker polls next.  Among
homogeneous volunteers that is equivalent to a uniformly random pick.
Dedicated cloud workers, however, poll far more aggressively than
desktop clients (they exist only to serve this server and pay no
user-activity backoff), so when both kinds sit idle the next poll is
more likely to come from the cloud side.  ``cloud_poll_weight`` models
that: a single idle cloud worker is ``w`` times more likely to get the
next task than a single idle regular node.  This is what gives the
paper's *Flat* strategy its modest-but-nonzero tail pickup (§4.2.1).
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.infra.columns import ColumnNode, NodeColumns
from repro.infra.node import Node

__all__ = ["NodePool"]

#: a pool entry: a columnar node id, or a dynamically added Node
_Entry = Union[int, Node]

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)

#: sweeps expiring fewer hosts than this refile them one by one: the
#: vectorized refile's NumPy calls cost about as much as that loop
_BATCH_MIN = 16

#: the future store's order key: (start, id)
_START_ID = itemgetter(0, 1)


def _pop_due(heap: list, t: float) -> list:
    """Pop every entry whose key is <= ``t``, in ascending order."""
    out = []
    pop, take = heapq.heappop, out.append
    while heap and heap[0][0] <= t:
        take(pop(heap))
    return out


def _push_many(heap: list, items: list) -> None:
    """Push ``items``: ``extend + heapify`` when they are a sizeable
    share of the heap, else one push each (see the module docstring)."""
    if len(items) > 8 and 4 * len(items) > len(heap):
        heap.extend(items)
        heapq.heapify(heap)
    else:
        for item in items:
            heapq.heappush(heap, item)


class NodePool:
    """Tracks idle nodes and serves poll-weighted random ones on demand."""

    def __init__(self,
                 nodes: Union[Iterable[Node], NodeColumns] = (),
                 rng: Optional[np.random.Generator] = None,
                 cloud_poll_weight: float = 10.0):
        if cloud_poll_weight <= 0:
            raise ValueError("cloud_poll_weight must be positive")
        self._rng = rng or np.random.default_rng(0)
        self.cloud_poll_weight = float(cloud_poll_weight)
        self._ready_reg: List[_Entry] = []
        self._ready_cloud: List[_Entry] = []
        #: node id -> (interval_end, entry) for every node filed ready
        self._ready_end_of: Dict[int, Tuple[float, _Entry]] = {}
        # -- future store: epoch arrays (t=0 filing, sorted by
        # (start, id)) behind a cursor, + overflow heap of
        # (next_start, id, entry, interval_end) for later refiles
        self._fut_start = _EMPTY_F
        self._fut_id = _EMPTY_I
        self._fut_end = _EMPTY_F
        self._fut_pos = 0
        self._future: List[Tuple[float, int, _Entry, float]] = []
        # -- stale store: epoch arrays (sorted by (end, id)) behind a
        # cursor, + overflow heap of (interval_end, id)
        self._stale_end = _EMPTY_F
        self._stale_id = _EMPTY_I
        self._stale_pos = 0
        self._stale: List[Tuple[float, int]] = []
        self._members: set[int] = set()
        self.size = 0
        #: backing columnar realization (None for object-only pools)
        self._columns: Optional[NodeColumns] = None
        #: id -> ColumnNode flyweight, created only for acquired nodes
        self._views: Dict[int, ColumnNode] = {}
        #: True when the t=0 filing took the pure vectorized path —
        #: cursor-independent, so the filing may be captured and
        #: restored onto a fresh cursor copy (see capture_filing)
        self.vector_filed = False
        if isinstance(nodes, NodeColumns):
            self._init_columns(nodes)
        else:
            for n in nodes:
                self.add(n, at=0.0)

    # ------------------------------------------------------------------
    # entry plumbing (int = columnar member, Node = object member)
    # ------------------------------------------------------------------
    @staticmethod
    def _id_of(entry: _Entry) -> int:
        return entry if type(entry) is int else entry.node_id

    def _as_entry(self, node) -> _Entry:
        """Normalize a node handed back by the middleware to its entry."""
        if isinstance(node, ColumnNode) and node._cols is self._columns:
            return node.node_id
        return node

    def _next_available(self, entry: _Entry, at: float):
        if type(entry) is int:
            return self._columns.next_available(entry, at)
        return entry.next_available(at)

    # ------------------------------------------------------------------
    def _init_columns(self, cols: NodeColumns) -> None:
        """Vectorized initial filing of a columnar realization at t=0.

        Exactly replays ``add(node, at=0.0)`` over node ids in order:
        nodes without a future interval are dropped, first intervals
        containing 0 file ready (ascending id — the draw-list order the
        RNG sequence depends on), later ones become the future *epoch*:
        flat arrays sorted by ``(start, id)``, the same total order the
        historical heap popped in.  Ready interval ends become the
        stale epoch, sorted by ``(end, id)`` likewise.
        """
        self._columns = cols
        ids, s0, e0 = cols.first_interval()
        if len(ids) and float(e0.min()) <= 0.0:
            # A first interval that ended at/before t=0 needs a cursor
            # advance; generated traces never do this — take the exact
            # scalar path rather than approximating it.
            for i in ids.tolist():
                self._members.add(i)
                self.size += 1
                self._enqueue(i, 0.0)
            return
        self._members = set(ids.tolist())
        self.size = len(self._members)
        ready = s0 <= 0.0
        ids_r, e_r = ids[ready], e0[ready]
        nids = ids_r.tolist()
        self._ready_end_of.update(zip(nids, zip(e_r.tolist(), nids)))
        self._ready_reg.extend(nids)
        order = np.lexsort((ids_r, e_r))
        self._stale_end = np.ascontiguousarray(e_r[order])
        self._stale_id = np.ascontiguousarray(ids_r[order])
        away = ~ready
        ids_a, s_a, e_a = ids[away], s0[away], e0[away]
        order = np.lexsort((ids_a, s_a))
        self._fut_start = np.ascontiguousarray(s_a[order])
        self._fut_id = np.ascontiguousarray(ids_a[order])
        self._fut_end = np.ascontiguousarray(e_a[order])
        for arr in (self._stale_end, self._stale_id, self._fut_start,
                    self._fut_id, self._fut_end):
            arr.setflags(write=False)
        self.vector_filed = True

    # ------------------------------------------------------------------
    def capture_filing(self) -> Dict[str, object]:
        """Snapshot the t=0 filing of a freshly built columnar pool.

        Only valid straight after a *vectorized* ``_init_columns`` (the
        degenerate scalar path advances interval cursors, which live in
        the columns, not here).  The epoch arrays are immutable — only
        their cursors move — so the snapshot shares them zero-copy;
        the draw list and ready index are copied per restore.
        Restoring via :meth:`from_filing` onto a fresh cursor copy of
        the same template reproduces the filing — same draw-list order,
        same epochs — without re-deriving it.
        """
        if not self.vector_filed:
            raise ValueError("filing not capturable: pool was not "
                             "vector-filed (object pool, degenerate "
                             "trace, or already mutated)")
        return {"members": set(self._members), "size": self.size,
                "ready_reg": list(self._ready_reg),
                "ready_end_of": dict(self._ready_end_of),
                "stale_end": self._stale_end, "stale_id": self._stale_id,
                "fut_start": self._fut_start, "fut_id": self._fut_id,
                "fut_end": self._fut_end}

    @classmethod
    def from_filing(cls, cols: NodeColumns, filing: Dict[str, object],
                    rng: Optional[np.random.Generator] = None,
                    cloud_poll_weight: float = 10.0) -> "NodePool":
        """Rebuild a pool from a :meth:`capture_filing` snapshot over a
        fresh cursor copy of the *same* columns template — structurally
        identical to ``NodePool(cols, ...)``, skipping the filing."""
        pool = cls(rng=rng, cloud_poll_weight=cloud_poll_weight)
        pool._columns = cols
        pool._members = set(filing["members"])
        pool.size = filing["size"]
        pool._ready_reg = list(filing["ready_reg"])
        pool._ready_end_of = dict(filing["ready_end_of"])
        pool._stale_end = filing["stale_end"]
        pool._stale_id = filing["stale_id"]
        pool._fut_start = filing["fut_start"]
        pool._fut_id = filing["fut_id"]
        pool._fut_end = filing["fut_end"]
        pool.vector_filed = True
        return pool

    # ------------------------------------------------------------------
    def add(self, node: Node, at: float) -> None:
        """Register a node; it becomes acquirable from time ``at``."""
        entry = self._as_entry(node)
        nid = self._id_of(entry)
        if nid in self._members:
            raise ValueError(f"node {nid} already in pool")
        self._members.add(nid)
        self.size += 1
        self._enqueue(entry, at)

    def remove(self, node: Node) -> None:
        """Unregister a node (stale queue entries are skipped lazily)."""
        if node.node_id not in self._members:
            return
        self._members.discard(node.node_id)
        self._ready_end_of.pop(node.node_id, None)
        self.size -= 1

    def __contains__(self, node: Node) -> bool:
        return node.node_id in self._members

    def _enqueue(self, entry: _Entry, at: float) -> None:
        """File an idle member entry under ready or future."""
        nxt = self._next_available(entry, at)
        nid = self._id_of(entry)
        if nxt is None:
            # Never comes back within the trace horizon: drop silently.
            self._members.discard(nid)
            self.size -= 1
            return
        start, end = nxt
        if start <= at:
            self._file_ready(entry, end)
        else:
            heapq.heappush(self._future, (start, nid, entry, end))

    def _file_ready(self, entry: _Entry, end: float) -> None:
        nid = self._id_of(entry)
        self._ready_end_of[nid] = (end, entry)
        heapq.heappush(self._stale, (end, nid))
        cloud = type(entry) is not int and entry.cloud
        (self._ready_cloud if cloud else self._ready_reg).append(entry)

    def _file_ready_many(self, nids: List[int], ends: List[float]) -> None:
        """:meth:`_file_ready` for columnar ids, in order: one dict
        update, one list extend and one batched stale push.  The index
        value of a columnar id and its stale key are the same
        ``(end, id)`` tuple, so one object serves both."""
        pairs = list(zip(ends, nids))
        self._ready_end_of.update(zip(nids, pairs))
        self._ready_reg.extend(nids)
        _push_many(self._stale, pairs)

    # ------------------------------------------------------------------
    # probes: promotion (future -> ready), stale sweep (expired -> refile)
    # ------------------------------------------------------------------
    def _promote(self, t: float) -> None:
        """Move nodes whose next interval has started into ready.

        The due entries are the future epoch's ``searchsorted`` cut
        plus every due overflow-heap entry, filed in the historical
        all-heap pop order: ascending ``(start, id)``, the epoch entry
        first on a tie.  Both runs arrive sorted, so a stable sort of
        their concatenation is a linear merge.  Columnar entries equal
        on ``(start, id)`` are the same interval of the same host,
        hence identical tuples, so they need no sort key.  Heap entries
        alone (an acquire finds none or one), a short merged slice, or
        one holding a node object are filed entry by entry; a long
        all-columnar slice in bulk.
        """
        fs = self._fut_start
        pos = hi = self._fut_pos
        if pos < fs.shape[0] and fs[pos] <= t:
            hi = self._fut_pos = int(np.searchsorted(fs, t, side="right"))
        heap = self._future
        members = self._members
        if hi == pos:
            # heap entries only: the usual acquire finds none or one
            while heap and heap[0][0] <= t:
                _, nid, entry, end = heapq.heappop(heap)
                if nid in members:
                    self._file_ready(entry, end)
            return
        popped = _pop_due(heap, t)
        nids = self._fut_id[pos:hi].tolist()
        ends = self._fut_end[pos:hi].tolist()
        if popped:
            columnar = all(type(p[2]) is int for p in popped)
            due = list(zip(fs[pos:hi].tolist(), nids, nids, ends)) + popped
            due.sort(key=None if columnar else _START_ID)
            if not columnar or len(due) < _BATCH_MIN:
                for _, nid, entry, end in due:
                    if nid in members:
                        self._file_ready(entry, end)
                return
            _, nids, _, ends = zip(*due)
        if not members.issuperset(nids):
            live = [i for i, nid in enumerate(nids) if nid in members]
            nids = [nids[i] for i in live]
            ends = [ends[i] for i in live]
        self._file_ready_many(nids, ends)

    def _sweep_stale(self, t: float) -> None:
        """Refile every ready entry whose interval has already ended.

        Only the probes call this — :meth:`acquire` keeps the
        historical lazy validation so its RNG draw sequence is
        unchanged.  The due stale keys are gathered like
        :meth:`_promote`'s, in ascending ``(end, id)`` order, and
        checked against the ready index once: each id's first key
        matching its filed end expires it — in the sequential loop any
        later key of that id failed, the id having left the index or
        been refiled with an end > t.  Expired nodes are deleted from
        the index, then refiled in key order (:meth:`_refile`); a
        slice shorter than ``_BATCH_MIN`` runs that sequential loop
        itself.  The refiles leave ghosts in the draw lists; compact
        those away once they dominate (never triggers in runs that
        only acquire, so fixed-seed traces are unaffected).
        """
        se = self._stale_end
        pos = hi = self._stale_pos
        if pos < se.shape[0] and se[pos] <= t:
            hi = self._stale_pos = int(np.searchsorted(se, t, side="right"))
        heap = self._stale
        index = self._ready_end_of
        if hi > pos or (heap and heap[0][0] <= t):
            due = _pop_due(heap, t)
            if hi > pos:
                epoch = list(zip(se[pos:hi].tolist(),
                                 self._stale_id[pos:hi].tolist()))
                # a linear merge of two sorted runs; equal (end, id)
                # keys are interchangeable
                due = sorted(epoch + due) if due else epoch
            if len(due) < _BATCH_MIN:
                for end, nid in due:
                    rec = index.get(nid)
                    if rec is not None and rec[0] == end:
                        del index[nid]
                        self._enqueue(rec[1], t)
            else:
                expired = {nid: rec[1] for end, nid in due
                           if (rec := index.get(nid)) is not None
                           and rec[0] == end}
                for nid in expired:
                    del index[nid]
                self._refile(expired, t)
        ghosts = (len(self._ready_reg) + len(self._ready_cloud)
                  - len(index))
        if ghosts > 8 and ghosts > len(index):
            self._compact_ghosts()

    def _refile(self, expired: Dict[int, _Entry], t: float) -> None:
        """:meth:`_enqueue` every expired entry at ``t``, in order.

        A long all-columnar batch moves every cursor in one
        :meth:`NodeColumns.next_available_many` call and files the
        results in bulk, keeping the per-entry order of ready filings
        (the heap pushes are order-free, see the module docstring).
        """
        entries = list(expired.values())
        if (len(entries) < _BATCH_MIN
                or not all(type(e) is int for e in entries)):
            for entry in entries:
                self._enqueue(entry, t)
            return
        ids = np.fromiter(expired, dtype=np.int64, count=len(expired))
        starts, ends = self._columns.next_available_many(ids, t)
        now = starts <= t
        self._file_ready_many(ids[now].tolist(), ends[now].tolist())
        later = starts > t
        fid = ids[later].tolist()
        _push_many(self._future, list(zip(starts[later].tolist(), fid, fid,
                                          ends[later].tolist())))
        gone = ids[~(now | later)].tolist()  # NaN: no interval left
        self._members.difference_update(gone)
        self.size -= len(gone)

    def _compact_ghosts(self) -> None:
        """Drop draw-list entries whose id left the ready index, and
        all-but-one copies of ids that were sweep-refiled back in (the
        refile appends a fresh copy without removing the old one, so
        an id can hold several list slots while the index holds one —
        keeping only the first copy restores list length == index
        size and stops the compaction trigger from re-firing).  A list
        of plain ids is filtered in one NumPy pass."""
        index = self._ready_end_of
        for attr in ("_ready_reg", "_ready_cloud"):
            lst = getattr(self, attr)
            if not lst:
                continue
            ids = np.array(lst)
            if ids.dtype.kind == "i":  # columnar ids, all < n
                n = self._columns.n
                at = np.arange(ids.shape[0])
                first = np.full(n, ids.shape[0])
                np.minimum.at(first, ids, at)
                keys = np.fromiter(index, dtype=np.int64, count=len(index))
                indexed = np.zeros(n, dtype=bool)
                indexed[keys[keys < n]] = True
                keep = (first[ids] == at) & indexed[ids]
                setattr(self, attr, ids[keep].tolist())
                continue
            seen: set[int] = set()
            out = []
            for entry in lst:
                nid = entry if type(entry) is int else entry.node_id
                if nid in index and nid not in seen:
                    seen.add(nid)
                    out.append(entry)
            setattr(self, attr, out)

    # ------------------------------------------------------------------
    def _draw(self, t: float) -> Optional[Tuple[Node, float]]:
        """One weighted draw over the (already promoted) ready lists —
        the historical :meth:`acquire` body, draw for draw.

        The swap-pop is inlined (it used to live in a ``_pop_from``
        helper) with hoisted locals: the draw loop runs thousands of
        times per arrival storm and the per-call overhead dominated
        its profile.  ``_ready_reg``/``_ready_cloud`` are rebound only
        by :meth:`_compact_ghosts` (sweeps, never draws), so holding
        the list objects across the loop is safe; the stale refiles a
        draw performs always file intervals starting after ``t``, so
        they never grow the lists mid-draw either.
        """
        rng = self._rng
        index = self._ready_end_of
        reg = self._ready_reg
        cloud = self._ready_cloud
        weight = self.cloud_poll_weight
        cols = self._columns
        views = self._views
        while reg or cloud:
            w_cloud = weight * len(cloud)
            w_total = w_cloud + len(reg)
            pick_cloud = (w_cloud > 0
                          and rng.random() * w_total < w_cloud)
            ready = cloud if pick_cloud else reg
            while ready:
                i = int(rng.integers(len(ready)))
                ready[i], ready[-1] = ready[-1], ready[i]
                entry = ready.pop()
                nid = entry if type(entry) is int else entry.node_id
                rec = index.get(nid)
                if rec is None:
                    continue  # retired, or a ghost left by a sweep
                end = rec[0]
                if end > t:
                    # Filed end still ahead: the node was filed inside
                    # an interval no later than ``t`` (time only moves
                    # forward after filing), so ``t`` sits inside that
                    # same interval and its end IS the filed end — the
                    # ``interval_at`` lookup is provably this value.
                    del index[nid]
                    if type(entry) is int:
                        view = views.get(entry)
                        if view is None:
                            view = views[entry] = ColumnNode(cols, entry)
                        return view, end
                    return entry, end
                # Filed interval lapsed; only a full lookup can tell a
                # node inside a *later* interval (hand it out with that
                # end) from one in a gap (stale: refile).
                iv = (cols.interval_at(entry, t) if type(entry) is int
                      else entry.interval_at(t))
                del index[nid]
                if iv is None:
                    self._enqueue(entry, t)
                    continue
                if type(entry) is int:
                    view = views.get(entry)
                    if view is None:
                        view = views[entry] = ColumnNode(cols, entry)
                    return view, iv[1]
                return entry, iv[1]
            # Chosen side was entirely stale; loop re-weights what's left.
        return None

    def ready_hint(self, t: float) -> int:
        """Cheap estimate of how many draws could succeed at ``t``,
        touching no state.

        Counts the ready index (which may still hold entries whose
        interval has lapsed but which no sweep refiled yet) plus the
        due slice of the future epoch (which may hold removed members)
        plus one for a due overflow-heap head.  Nothing in the
        simulator calls it: it stays only because the benchmark's
        per-layer tracer (``benchmarks/perf/layers.py``) resolves it by
        name, and goes once that list drops it.
        """
        hint = len(self._ready_end_of)
        fs = self._fut_start
        pos = self._fut_pos
        if pos < fs.shape[0] and fs[pos] <= t:
            hint += int(np.searchsorted(fs, t, side="right")) - pos
        if self._future and self._future[0][0] <= t:
            hint += 1
        return hint

    def acquire(self, t: float) -> Optional[Tuple[Node, float]]:
        """Pop an idle node available at time ``t`` (poll-weighted).

        Returns ``(node, interval_end)`` or ``None``.  The caller owns
        the node until :meth:`release` (still alive) or
        :meth:`preempted` (availability interval ended under it).
        """
        self._promote(t)
        return self._draw(t)

    def acquire_many(self, t: float, k: int
                     ) -> List[Tuple[Node, float]]:
        """Up to ``k`` acquisitions at ``t``, stopping at the first dry
        draw — RNG-identical to ``k`` sequential :meth:`acquire` calls.

        Exactness: each scalar acquire is promote + draw.  After the
        first promote at ``t`` nothing with ``start <= t`` remains in
        the future store, and a draw never files nodes with
        ``start <= t`` (its lazy refiles go to intervals starting
        later), so the follow-up promotes are no-ops — eliding them
        changes no state and consumes no RNG.  The draws themselves
        run the unmodified scalar loop.  A dry draw consumes the same
        ghost-skip RNG sequence as a scalar acquire returning None,
        after which a sequential caller stops acquiring — so stopping
        here matches it draw for draw.  Any caller that mutates the
        pool between draws (release, add) must use scalar
        :meth:`acquire` instead.  Nothing in the simulator calls it
        (dispatch acquires one node per poll): it stays only because
        the benchmark's per-layer tracer (``benchmarks/perf/layers.py``)
        resolves it by name, and goes once that list drops it.
        """
        if k <= 0:
            return []  # zero acquires touch nothing, not even a promote
        self._promote(t)
        out: List[Tuple[Node, float]] = []
        draw = self._draw
        for _ in range(k):
            got = draw(t)
            if got is None:
                break
            out.append(got)
        return out

    def release(self, node: Node, t: float) -> None:
        """Return a node that is still alive at ``t`` (task finished)."""
        if node.node_id not in self._members:
            return  # retired while busy (e.g. a stopped cloud worker)
        self._enqueue(self._as_entry(node), t)

    def preempted(self, node: Node, t: float) -> None:
        """Return a node whose availability ended at ``t``; it re-enters
        through its next availability interval."""
        if node.node_id not in self._members:
            return
        self._enqueue(self._as_entry(node), t)

    # ------------------------------------------------------------------
    def has_ready(self, t: float) -> bool:
        """Whether at least one idle node is available right now.

        Stale entries are refiled (consistently with
        :meth:`next_future_start`) rather than rescanned on every
        poll, so the check is O(expired) amortized, not O(pool).
        """
        self._promote(t)
        self._sweep_stale(t)
        return bool(self._ready_end_of)

    def next_future_start(self, t: float) -> Optional[float]:
        """Earliest future time an *idle, currently away* node returns.

        Used to schedule a dispatch wake-up when pending work found no
        available node.  Stale ready entries are refiled first so their
        next intervals are taken into account.
        """
        self._promote(t)
        self._sweep_stale(t)
        if self._ready_end_of:
            return t  # available now — caller can acquire
        members = self._members
        fid = self._fut_id
        pos = self._fut_pos
        n = fid.shape[0]
        while pos < n and int(fid[pos]) not in members:
            pos += 1  # retired epoch heads, dropped like heap pops below
        self._fut_pos = pos
        heap = self._future
        while heap and heap[0][1] not in members:
            heapq.heappop(heap)
        best: Optional[float] = None
        if pos < n:
            best = float(self._fut_start[pos])
        if heap and (best is None or heap[0][0] < best):
            best = heap[0][0]
        return best

    def idle_count(self, t: float) -> int:
        """Idle nodes available right now (index size after a sweep)."""
        self._promote(t)
        self._sweep_stale(t)
        return len(self._ready_end_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        future = (self._fut_start.shape[0] - self._fut_pos
                  + len(self._future))
        return (f"<NodePool size={self.size} ready={len(self._ready_end_of)} "
                f"future~{future}>")
