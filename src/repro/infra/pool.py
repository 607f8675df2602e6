"""Lazy node pool: serves available idle workers to the middleware.

The paper's ``seti`` trace averages 24 391 simultaneously available
nodes while a BoT occupies at most a few thousand workers, so an event
per node transition would dominate the simulation for nothing.  The
pool instead activates nodes *lazily*:

* ``_ready_*`` — unordered lists of idle nodes believed to be inside an
  availability interval (entries may be stale; they are validated and
  recycled on pop);
* a *future* store of idle nodes currently unavailable, keyed by next
  interval start (epoch arrays + an overflow heap, below).

Only :meth:`acquire` (the middleware asking for a worker) pays the cost
of promoting nodes between the two structures; nodes that are never
needed never generate events.  A node executing a task is owned by the
middleware (which schedules its completion / preemption / resume
events) and re-enters the pool through :meth:`release` /
:meth:`preempted`.

Columnar members: a pool built over a :class:`~repro.infra.columns.
NodeColumns` realization keeps plain ``int`` column ids in its draw
lists and heap, and its per-host state in arrays indexed by column id:

* ``_filed`` — ``float64[n]``, the *ready index*: the end of the
  interval a host is filed ready under, NaN when it is not filed ready
  (away, busy, retired, or a draw-list ghost).  ``_n_ready`` counts
  its filed hosts, so :meth:`idle_count` is O(1) after its sweep.
* ``_member`` — ``bool[n]``, pool membership; ``size`` counts the
  members of both kinds.

No Python object exists per trace host outside the draw lists and
single filings.  Interval validation reads the shared columns
directly; a :class:`~repro.infra.columns.ColumnNode` flyweight is
materialized (and cached, for stable identity) only for the node
:meth:`acquire` actually hands out, and every end handed out is a
Python ``float``.  Dynamically added nodes (cloud workers, whose ids
start at ``cloud.api._CLOUD_ID_BASE``, and the volatile hosts of test
fleets, from 10^6) stay :class:`~repro.infra.node.Node` objects with
their own small index, ``_obj_ready`` (id → ``(end, node)``), and id
set ``_obj_ids``; their ids never collide with column ids.  The initial
filing of a columnar realization is vectorized but replays the
historical node-id-order ``add()`` loop exactly, so draw-list positions
— and therefore the RNG draw sequence — are unchanged.

Future store: the t=0 filing's not-yet-available hosts land in the
*epoch*, flat NumPy arrays ``_fut_start``/``_fut_id``/``_fut_end``
sorted by ``(start, id)`` behind a cursor ``_fut_pos``.  A sweep's
batch refile merges its later-starting hosts (``_BATCH_MIN`` or more)
into the epoch: one stable sort orders the uncut remainder and the
batch by ``(start, id)``.  Single filings — :meth:`release`,
:meth:`preempted`, the draw's lazy refile, node objects and short
batches — go to the overflow heap ``_future`` of
``(start, id, entry, end)``.  **Draw-order invariant:** the historical
all-heap pool popped in ascending ``(start, id)`` key order — a
property of the key multiset, not of the layout — and the epoch is
sorted by those same keys, so a promotion that merges the epoch cut
with the due heap entries on that key, epoch first on a tie, files
hosts in the byte-identical order.  Equal keys are the same interval
of the same host, hence interchangeable.

Sweeps: the probes — :meth:`has_ready`, :meth:`idle_count`,
:meth:`next_future_start` — run :meth:`_promote` then
:meth:`_sweep_stale`, which refiles every host whose filed interval
ended by ``t``: ``np.flatnonzero(_filed <= t)``, ordered by
``(end, id)``, plus the expired node objects merged in on the same key.
*Exactness:* the historical pool kept a stale heap and pushed an
``(end, id)`` key for every ready filing; a sweep popped the keys
``<= t`` and expired an id on its first key equal to its indexed end.
Had an earlier sweep consumed a filed host's key, it would have
expired the host, and any re-filing pushes a fresh key — so the
historical expired set is exactly ``{id : filed end <= t}``, processed
in ascending ``(end, id)`` order.  Refiles file intervals ending after
``t``, so they never join the sweep they run in.  A sweep is gated by
``_filed_min``, a lower bound of every filed end lowered on each
filing and recomputed after a scan, so a probe with nothing expired
pays no O(n) scan.  An expired set shorter than ``_BATCH_MIN`` (or
holding a node object) is refiled entry by entry through
:meth:`_enqueue`; a longer one moves every cursor in one
:meth:`~repro.infra.columns.NodeColumns.next_available_many` call and
files the results in bulk.  The historical all-heap pool is kept as a
test oracle (``tests/pool_oracle.py``), pinned state for state against
this one.

Ghosts: :meth:`acquire` deliberately does **not** sweep: its draw loop
still validates lazily so the RNG draw sequence (and thus every
fixed-seed golden) is bit-identical to the historical scan — a sweep
would refile entries the historical code left in place and shift the
draw weights.  Entries a sweep refiled remain in the draw lists as
*ghosts* (their id has left the index, or — after a sweep-refile
within the same probe — a fresher copy of the same id was appended)
and are skipped at draw time exactly like the retired nodes the
historical loop skipped; a sweep compacts them away when they
outnumber live entries, keeping exactly one copy per indexed id (a
sweep-refiled node leaves its old list copy *and* appends a new one,
so compaction must deduplicate or the ghost count never drops and the
compaction scan re-triggers forever).

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
_NAN = float("nan")
_INF = float("inf")

#: refiles and promotions of fewer hosts than this run entry by entry:
#: the bulk path's NumPy calls cost about as much as that loop
_BATCH_MIN = 16

#: the future store's order key, (start, id); the sweep's, (end, id)
_KEY = itemgetter(0, 1)


def _pop_due(heap: list, t: float) -> list:
    """Pop every entry whose key is <= ``t``, in ascending order."""
    out = []
    pop, take = heapq.heappop, out.append
    while heap and heap[0][0] <= t:
        take(pop(heap))
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        # -- columnar hosts: per-host arrays (see the module docstring)
        self._bind(_EMPTY_F, np.empty(0, dtype=bool))
        self._n_ready = 0
        # -- node objects: id -> (interval_end, node) for every node
        # object filed ready, and the member ids
        self._obj_ready: Dict[int, Tuple[float, Node]] = {}
        self._obj_ids: set[int] = set()
        #: lower bound of every filed end, both kinds: a sweep at a
        #: time below it has nothing to expire
        self._filed_min = _INF
        # -- future store: epoch arrays sorted by (start, id) behind a
        # cursor, + overflow heap of (next_start, id, entry, end)
        self._fut_start = _EMPTY_F
        self._fut_id = _EMPTY_I
        self._fut_end = _EMPTY_F
        self._fut_pos = 0
        self._future: List[Tuple[float, int, _Entry, float]] = []
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

    def _bind(self, filed: np.ndarray, member: np.ndarray) -> None:
        """Adopt the per-host arrays and a memoryview of each, whose
        scalar reads and writes take and give plain Python floats and
        bools — cheaper than NumPy scalars on the per-entry paths."""
        self._filed = filed
        self._member = member
        self._filed_v = memoryview(filed)
        self._member_v = memoryview(member)

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

    def _holds(self, nid: int) -> bool:
        """Whether id ``nid`` is a member, of either kind."""
        if nid in self._obj_ids:
            return True
        return 0 <= nid < self._member.shape[0] and self._member_v[nid]

    # ------------------------------------------------------------------
    def _init_columns(self, cols: NodeColumns) -> None:
        """Vectorized initial filing of a columnar realization at t=0.

        Exactly replays ``add(node, at=0.0)`` over node ids in order:
        nodes without a future interval are dropped, first intervals
        containing 0 file ready (ascending id — the draw-list order the
        RNG sequence depends on), later ones become the future *epoch*:
        flat arrays sorted by ``(start, id)``, the same total order the
        historical heap popped in.
        """
        self._columns = cols
        self._bind(np.full(cols.n, np.nan), np.zeros(cols.n, dtype=bool))
        ids, s0, e0 = cols.first_interval()
        if len(ids) and float(e0.min()) <= 0.0:
            # A first interval that ended at/before t=0 needs a cursor
            # advance; generated traces never do this — take the exact
            # scalar path rather than approximating it.
            for i in ids.tolist():
                self._member_v[i] = True
                self.size += 1
                self._enqueue(i, 0.0)
            return
        self._member[ids] = True
        self.size = len(ids)
        ready = s0 <= 0.0
        ids_r, e_r = ids[ready], e0[ready]
        self._filed[ids_r] = e_r
        self._n_ready = len(ids_r)
        if len(e_r):
            self._filed_min = float(e_r.min())
        self._ready_reg.extend(ids_r.tolist())
        away = ~ready
        ids_a, s_a, e_a = ids[away], s0[away], e0[away]
        order = np.lexsort((ids_a, s_a))
        self._fut_start = np.ascontiguousarray(s_a[order])
        self._fut_id = np.ascontiguousarray(ids_a[order])
        self._fut_end = np.ascontiguousarray(e_a[order])
        for arr in (self._fut_start, self._fut_id, self._fut_end):
            arr.setflags(write=False)
        self.vector_filed = True

    # ------------------------------------------------------------------
    def capture_filing(self) -> Dict[str, object]:
        """Snapshot the t=0 filing of a freshly built columnar pool.

        Only valid straight after a *vectorized* ``_init_columns`` (the
        degenerate scalar path advances interval cursors, which live in
        the columns, not here).  The snapshot is a few read-only
        arrays: the member and ready-index arrays and the ready list,
        copied per restore, and the epoch, shared zero-copy (a pool
        replaces its epoch arrays on a merge, never writes them).
        Restoring via :meth:`from_filing` onto a fresh cursor copy of
        the same template reproduces the filing — same draw-list
        order, same epochs — without re-deriving it.
        """
        if not self.vector_filed:
            raise ValueError("filing not capturable: pool was not "
                             "vector-filed (object pool, degenerate "
                             "trace, or already mutated)")
        return {"size": self.size, "n_ready": self._n_ready,
                "filed_min": self._filed_min,
                "member": _frozen(self._member),
                "filed": _frozen(self._filed),
                "ready": _frozen(np.array(self._ready_reg, dtype=np.int64)),
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
        pool._bind(filing["filed"].copy(), filing["member"].copy())
        pool.size = filing["size"]
        pool._n_ready = filing["n_ready"]
        pool._filed_min = filing["filed_min"]
        pool._ready_reg = filing["ready"].tolist()
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
        if self._holds(nid):
            raise ValueError(f"node {nid} already in pool")
        if type(entry) is int:
            self._member_v[nid] = True
        else:
            self._obj_ids.add(nid)
        self.size += 1
        self._enqueue(entry, at)

    def remove(self, node: Node) -> None:
        """Unregister a node (stale queue entries are skipped lazily)."""
        nid = node.node_id
        if nid in self._obj_ids:
            self._obj_ids.discard(nid)
            self._obj_ready.pop(nid, None)
        elif self._holds(nid):
            self._member_v[nid] = False
            filed = self._filed_v
            if filed[nid] == filed[nid]:
                filed[nid] = _NAN
                self._n_ready -= 1
        else:
            return
        self.size -= 1

    def __contains__(self, node: Node) -> bool:
        return self._holds(node.node_id)

    def _enqueue(self, entry: _Entry, at: float) -> None:
        """File an idle member entry under ready or future."""
        nxt = self._next_available(entry, at)
        if nxt is None:
            # Never comes back within the trace horizon: drop silently.
            if type(entry) is int:
                self._member_v[entry] = False
            else:
                self._obj_ids.discard(entry.node_id)
            self.size -= 1
            return
        start, end = nxt
        if start <= at:
            self._file_ready(entry, end)
        else:
            heapq.heappush(self._future,
                           (start, self._id_of(entry), entry, end))

    def _file_ready(self, entry: _Entry, end: float) -> None:
        if type(entry) is int:
            filed = self._filed_v
            if filed[entry] != filed[entry]:  # NaN: not filed yet
                self._n_ready += 1
            filed[entry] = end
            self._ready_reg.append(entry)
        else:
            self._obj_ready[entry.node_id] = (end, entry)
            (self._ready_cloud if entry.cloud
             else self._ready_reg).append(entry)
        if end < self._filed_min:
            self._filed_min = end

    def _file_ready_many(self, ids: np.ndarray, ends: np.ndarray) -> None:
        """:meth:`_file_ready` for an array of column ids, in order.
        The count is taken afresh rather than added to: a host re-added
        after a remove may still have its old future entry pending, and
        then files twice in one batch but counts once, as the
        historical dict index did."""
        filed = self._filed
        filed[ids] = ends
        self._n_ready = int(np.count_nonzero(filed == filed))
        self._ready_reg.extend(ids.tolist())
        low = float(ends.min())
        if low < self._filed_min:
            self._filed_min = low

    # ------------------------------------------------------------------
    # probes: promotion (future -> ready), stale sweep (expired -> refile)
    # ------------------------------------------------------------------
    def _promote(self, t: float) -> None:
        """Move nodes whose next interval has started into ready.

        The due entries are the future epoch's ``searchsorted`` cut
        plus every due overflow-heap entry, filed in the historical
        all-heap pop order: ascending ``(start, id)``, the epoch entry
        first on a tie.  Both runs arrive sorted, so a stable sort of
        their concatenation is a linear merge.  Heap entries alone (an
        acquire finds none or one), a short slice, or one holding a
        node object are filed entry by entry; a long all-columnar
        slice in bulk.
        """
        fs = self._fut_start
        pos = hi = self._fut_pos
        if pos < fs.shape[0] and fs[pos] <= t:
            hi = self._fut_pos = int(np.searchsorted(fs, t, side="right"))
        heap = self._future
        member = self._member_v
        obj_ids = self._obj_ids
        if hi == pos:
            # heap entries only: the usual acquire finds none or one
            while heap and heap[0][0] <= t:
                _, nid, entry, end = heapq.heappop(heap)
                if member[nid] if type(entry) is int else nid in obj_ids:
                    self._file_ready(entry, end)
            return
        popped = _pop_due(heap, t)
        if popped or hi - pos < _BATCH_MIN:
            nids = self._fut_id[pos:hi].tolist()
            due = list(zip(fs[pos:hi].tolist(), nids, nids,
                           self._fut_end[pos:hi].tolist()))
            if popped:
                due += popped
                due.sort(key=_KEY)
            if (len(due) < _BATCH_MIN
                    or not all(type(d[2]) is int for d in due)):
                for _, nid, entry, end in due:
                    if (member[nid] if type(entry) is int
                            else nid in obj_ids):
                        self._file_ready(entry, end)
                return
            _, ids, _, ends = zip(*due)
            ids = np.array(ids, dtype=np.int64)
            ends = np.array(ends, dtype=np.float64)
        else:
            ids = self._fut_id[pos:hi]
            ends = self._fut_end[pos:hi]
        live = self._member[ids]
        if not live.all():
            ids, ends = ids[live], ends[live]
        if ids.shape[0]:
            self._file_ready_many(ids, ends)

    def _sweep_stale(self, t: float) -> None:
        """Refile every ready entry whose interval has already ended.

        Only the probes call this — :meth:`acquire` keeps the
        historical lazy validation so its RNG draw sequence is
        unchanged.  The scan runs only once ``t`` reaches
        ``_filed_min`` (see the module docstring).  The refiles leave
        ghosts in the draw lists; compact those away once they
        dominate (never triggers in runs that only acquire, so
        fixed-seed traces are unaffected).  Draws and :meth:`remove`
        change the ghost count without a sweep, so the check runs on
        every probe.
        """
        if t >= self._filed_min:
            self._sweep(t)
        index = self._n_ready + len(self._obj_ready)
        ghosts = len(self._ready_reg) + len(self._ready_cloud) - index
        if ghosts > 8 and ghosts > index:
            self._compact_ghosts()

    def _sweep(self, t: float) -> None:
        """Expire every host filed under an end ``<= t`` and refile it,
        in ascending ``(end, id)`` order."""
        filed = self._filed
        exp = np.flatnonzero(filed <= t)
        ends = filed[exp]
        filed[exp] = np.nan
        self._n_ready -= exp.shape[0]
        objs = []
        obj_low = _INF
        for nid, (end, node) in self._obj_ready.items():
            if end <= t:
                objs.append((end, nid, node))
            elif end < obj_low:
                obj_low = end
        # the bound over what stays filed; the refiles lower it
        low = float(np.fmin.reduce(filed)) if filed.shape[0] else _NAN
        self._filed_min = min(low, obj_low) if low == low else obj_low
        if objs or exp.shape[0] < _BATCH_MIN:
            obj_ready = self._obj_ready
            for _, nid, _ in objs:
                del obj_ready[nid]
            ids = exp.tolist()
            due = list(zip(ends.tolist(), ids, ids)) + objs
            due.sort(key=_KEY)
            for _, _, entry in due:
                self._enqueue(entry, t)
            return
        # ``exp`` ascends by id, so a stable sort on the end orders
        # by (end, id)
        self._refile(exp[np.argsort(ends, kind="stable")], t)

    def _refile(self, ids: np.ndarray, t: float) -> None:
        """:meth:`_enqueue` every expired column id at ``t``, in order,
        moving every cursor in one
        :meth:`NodeColumns.next_available_many` call.  Ready filings
        keep the per-entry order; the later-starting hosts merge into
        the epoch (:meth:`_merge_epoch`), or, fewer than
        ``_BATCH_MIN``, go to the overflow heap."""
        starts, ends = self._columns.next_available_many(ids, t)
        now = starts <= t
        later = starts > t
        if now.any():
            self._file_ready_many(ids[now], ends[now])
        n_later = int(np.count_nonzero(later))
        if n_later >= _BATCH_MIN:
            self._merge_epoch(starts[later], ids[later], ends[later])
        elif n_later:
            fid = ids[later].tolist()
            for item in zip(starts[later].tolist(), fid, fid,
                            ends[later].tolist()):
                heapq.heappush(self._future, item)
        gone = ids[~(now | later)]  # NaN: no interval left
        if gone.shape[0]:
            self._member[gone] = False
            self.size -= gone.shape[0]

    def _merge_epoch(self, starts: np.ndarray, ids: np.ndarray,
                     ends: np.ndarray) -> None:
        """Merge a batch of future filings into the epoch's uncut
        remainder, in ``(start, id)`` order.  NumPy orders complex
        numbers by real part, then imaginary part, so one sort of the
        key ``start + id*1j`` orders by ``(start, id)``; the stable
        sort (timsort) takes the remainder as one sorted run, so it
        costs about the batch's own sort plus a linear merge, where a
        ``lexsort`` re-sorts everything twice."""
        pos = self._fut_pos
        s = np.concatenate((self._fut_start[pos:], starts))
        i = np.concatenate((self._fut_id[pos:], ids))
        e = np.concatenate((self._fut_end[pos:], ends))
        key = s.astype(np.complex128)
        key.imag = i
        order = np.argsort(key, kind="stable")
        self._fut_start = s[order]
        self._fut_id = i[order]
        self._fut_end = e[order]
        self._fut_pos = 0

    def _compact_ghosts(self) -> None:
        """Drop draw-list entries whose id left the ready index, and
        all-but-one copies of ids that were sweep-refiled back in (the
        refile appends a fresh copy without removing the old one, so
        an id can hold several list slots while the index holds one —
        keeping only the first copy restores list length == index
        size and stops the compaction trigger from re-firing).  A list
        of plain ids is filtered in one NumPy pass."""
        filed = self._filed
        filed_v = self._filed_v
        obj_ready = self._obj_ready
        for attr in ("_ready_reg", "_ready_cloud"):
            lst = getattr(self, attr)
            if not lst:
                continue
            ids = np.array(lst)
            if ids.dtype.kind == "i":  # columnar ids, all < n
                at = np.arange(ids.shape[0])
                first = np.full(filed.shape[0], ids.shape[0])
                np.minimum.at(first, ids, at)
                ends = filed[ids]
                keep = (first[ids] == at) & (ends == ends)
                setattr(self, attr, ids[keep].tolist())
                continue
            seen: set[int] = set()
            out = []
            for entry in lst:
                if type(entry) is int:
                    nid = entry
                    indexed = filed_v[nid] == filed_v[nid]
                else:
                    nid = entry.node_id
                    indexed = nid in obj_ready
                if indexed and nid not in seen:
                    seen.add(nid)
                    out.append(entry)
            setattr(self, attr, out)

    # ------------------------------------------------------------------
    def _draw(self, t: float) -> Optional[Tuple[Node, float]]:
        """One weighted draw over the (already promoted) ready lists —
        the historical :meth:`acquire` body, draw for draw.

        The swap-pop is inlined with hoisted locals: the draw loop runs
        thousands of times per arrival storm and the per-call overhead
        dominated its profile.  ``_ready_reg``/``_ready_cloud`` are
        rebound only by :meth:`_compact_ghosts` (sweeps, never draws),
        so holding the list objects across the loop is safe; the stale
        refiles a draw performs always file intervals starting after
        ``t``, so they never grow the lists mid-draw either.  A
        column id's filed end is read through the memoryview, so the
        end handed out is a Python ``float``.
        """
        rng = self._rng
        filed = self._filed_v
        obj_ready = self._obj_ready
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
                if type(entry) is int:
                    end = filed[entry]
                    if end != end:
                        continue  # retired, or a ghost left by a sweep
                    filed[entry] = _NAN
                    self._n_ready -= 1
                    if end <= t:
                        # Filed interval lapsed; only a full lookup can
                        # tell a node inside a *later* interval (hand
                        # it out with that end) from one in a gap
                        # (stale: refile).
                        iv = cols.interval_at(entry, t)
                        if iv is None:
                            self._enqueue(entry, t)
                            continue
                        end = iv[1]
                    # Otherwise the filed end is still ahead: the node
                    # was filed inside an interval no later than ``t``
                    # (time only moves forward after filing), so ``t``
                    # sits inside that same interval and its end IS
                    # the filed end.
                    view = views.get(entry)
                    if view is None:
                        view = views[entry] = ColumnNode(cols, entry)
                    return view, end
                rec = obj_ready.pop(entry.node_id, None)
                if rec is None:
                    continue  # retired, or a ghost left by a sweep
                if rec[0] > t:
                    return entry, rec[0]
                iv = entry.interval_at(t)
                if iv is None:
                    self._enqueue(entry, t)
                    continue
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
        hint = self._n_ready + len(self._obj_ready)
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
        if not self._holds(node.node_id):
            return  # retired while busy (e.g. a stopped cloud worker)
        self._enqueue(self._as_entry(node), t)

    def preempted(self, node: Node, t: float) -> None:
        """Return a node whose availability ended at ``t``; it re-enters
        through its next availability interval."""
        if not self._holds(node.node_id):
            return
        self._enqueue(self._as_entry(node), t)

    # ------------------------------------------------------------------
    def has_ready(self, t: float) -> bool:
        """Whether at least one idle node is available right now.

        Stale entries are refiled (consistently with
        :meth:`next_future_start`) rather than rescanned on every
        poll, so a poll with nothing expired costs O(1).
        """
        self._promote(t)
        self._sweep_stale(t)
        return bool(self._n_ready or self._obj_ready)

    def next_future_start(self, t: float) -> Optional[float]:
        """Earliest future time an *idle, currently away* node returns.

        Used to schedule a dispatch wake-up when pending work found no
        available node.  Stale ready entries are refiled first so their
        next intervals are taken into account.
        """
        self._promote(t)
        self._sweep_stale(t)
        if self._n_ready or self._obj_ready:
            return t  # available now — caller can acquire
        member = self._member
        fid = self._fut_id
        pos = self._fut_pos
        n = fid.shape[0]
        while pos < n and not member[fid[pos]]:
            pos += 1  # retired epoch heads, dropped like heap pops below
        self._fut_pos = pos
        heap = self._future
        while heap and not self._holds(heap[0][1]):
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
        return self._n_ready + len(self._obj_ready)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        future = (self._fut_start.shape[0] - self._fut_pos
                  + len(self._future))
        ready = self._n_ready + len(self._obj_ready)
        return f"<NodePool size={self.size} ready={ready} future~{future}>"
