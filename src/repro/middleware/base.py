"""Shared desktop-grid server machinery.

Both middleware models (BOINC, XtremWeb-HEP) share the same skeleton:

* a *pending queue* of execution units waiting for a worker;
* a *dispatch loop* that pairs pending units with idle available nodes
  from the :class:`~repro.infra.pool.NodePool`;
* per-task bookkeeping (:class:`TaskState`) feeding the observer
  protocol that the SpeQuloS Information module and the metric
  collectors subscribe to;
* the cloud-worker integration points used by the three deployment
  strategies of §3.5: *Flat* (cloud nodes join the ordinary pool),
  *Reschedule* (:meth:`DGServer.fetch_for_cloud` serves pending work
  first, then duplicates of running work, picked from the fetch index
  of incomplete tasks) and *Cloud duplication*
  (:meth:`DGServer.external_complete` merges results computed on a
  separate cloud-side server).

Subclasses implement unit selection and the execution lifecycle —
that is exactly where the two middleware differ in how they survive
volatility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Deque, Dict, List, Optional, Protocol, Tuple

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.simulator.engine import Event, Simulation
from repro.workload.bot import BagOfTasks, Task

__all__ = ["DGServer", "ServerObserver", "ServerStats", "TaskState", "GTID"]

#: Global task id: (bot_id, task_id) — servers can host several BoTs.
GTID = Tuple[str, int]


class ServerObserver(Protocol):
    """Callbacks the server emits; all methods are optional no-ops."""

    def on_task_arrived(self, gtid: GTID, t: float) -> None: ...

    def on_task_first_assigned(self, gtid: GTID, t: float) -> None: ...

    def on_task_completed(self, gtid: GTID, t: float) -> None: ...

    def on_bot_completed(self, bot_id: str, t: float) -> None: ...


@dataclass
class ServerStats:
    """Aggregate event counters (tests and diagnostics)."""

    arrivals: int = 0
    assignments: int = 0
    completions: int = 0
    discarded_results: int = 0
    preemptions: int = 0
    timeouts: int = 0
    reissues: int = 0
    cloud_assignments: int = 0
    suspensions: int = 0
    resumes: int = 0


@dataclass(eq=False)
class TaskState:
    """Server-side state of one task (BOINC: workunit).

    Identity semantics (``eq=False``): two states are the same object
    or different tasks; sets of states are used for candidate scans.

    ``done`` flips exactly once; late or duplicate results arriving
    afterwards are discarded (counted in
    :attr:`ServerStats.discarded_results`).
    """

    gtid: GTID
    task: Task
    done: bool = False
    arrival_time: float = 0.0
    first_assign_time: Optional[float] = None
    completion_time: Optional[float] = None
    #: replicas/executions currently counted as live by the server
    outstanding: int = 0
    #: number of live cloud-side duplicates (Reschedule bookkeeping)
    cloud_dups: int = 0
    #: node ids that ever received this task (BOINC one-result-per-user)
    workers: set = field(default_factory=set)
    #: BOINC: validated results so far
    ok_results: int = 0
    #: whether the task currently sits in the pending queue (XWHEP)
    queued: bool = False


class _BotProgress:
    """Per-BoT completion accounting and task index.

    ``uncompleted`` keeps the BoT's arrived-but-not-done gtids in
    arrival order (a dict used as an ordered set) and ``assigned``
    counts tasks assigned at least once — both are maintained
    incrementally so the monitor-tick queries
    (:meth:`DGServer.uncompleted_gtids`, :meth:`DGServer.
    assigned_count`) stop scanning every task the server ever hosted.
    """

    __slots__ = ("bot", "total", "arrived", "completed", "submit_time",
                 "uncompleted", "assigned")

    def __init__(self, bot: BagOfTasks, submit_time: float):
        self.bot = bot
        self.total = bot.size
        self.arrived = 0
        self.completed = 0
        self.submit_time = submit_time
        #: arrived, not-yet-done gtids in arrival order (ordered set)
        self.uncompleted: Dict[GTID, None] = {}
        #: tasks with a first_assign_time
        self.assigned = 0


class DGServer:
    """Abstract desktop-grid server (see module docstring).

    Parameters
    ----------
    sim, pool:
        The shared event engine and the BE-DCI node pool.
    name:
        Label used in diagnostics.
    """

    #: observer callbacks dispatched through pre-bound method lists
    OBSERVER_EVENTS = ("on_task_arrived", "on_task_first_assigned",
                       "on_task_completed", "on_bot_completed")

    def __init__(self, sim: Simulation, pool: NodePool, name: str = "dg"):
        self.sim = sim
        self.pool = pool
        self.name = name
        self.stats = ServerStats()
        self.tasks: Dict[GTID, TaskState] = {}
        self.pending: Deque = deque()
        self.observers: List[ServerObserver] = []
        #: event name -> bound methods of the every-BoT observers (built
        #: in add_observer, so _emit never pays a getattr per event)
        self._obs_methods: Dict[str, List] = {
            name: [] for name in self.OBSERVER_EVENTS}
        #: bot_id -> the same table for a BoT with bound observers: the
        #: every-BoT methods plus its own, in registration order
        self._obs_by_bot: Dict[str, Dict[str, List]] = {}
        self._bots: Dict[str, _BotProgress] = {}
        #: incomplete tasks: the Reschedule fetch candidates
        self._incomplete: set[TaskState] = set()
        # Lazily-invalidated min-heap over the fetch candidates, keyed
        # (cloud_dups, first_assign_time|inf, gtid) — the argmin scan's
        # ordering.  None until the first candidate pick builds it, so
        # runs that never fetch a duplicate pay nothing.  Invariant
        # once built: every key change of an incomplete task pushes a
        # fresh entry (_note_fetch_candidate), so the least fresh entry
        # IS the scan's argmin; outdated entries are dropped when
        # popped.  The seq field breaks ties between duplicate entries
        # of one task before the (uncomparable) TaskState is reached.
        self._fetch_heap: Optional[List[Tuple]] = None
        self._fetch_seq = 0
        self._busy: Dict[int, GTID] = {}          # node_id -> gtid
        self._wakeup: Optional[Event] = None
        #: nodes flagged as cloud workers currently registered via Flat
        self._flat_cloud: Dict[int, Node] = {}
        #: node_id -> callback fired (async) when that node goes idle;
        #: used by dedicated cloud workers to fetch their next unit
        self._idle_callbacks: Dict[int, object] = {}
        #: exact busy-time accounting for cloud workers (billing is for
        #: CPU actually used, §3.3's "Cloud worker usage")
        self._cloud_busy_acc: Dict[int, float] = {}
        self._cloud_busy_since: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # load probes (federated routing, repro.core.routing)
    # ------------------------------------------------------------------
    def busy_count(self) -> int:
        """Workers currently executing an execution unit."""
        return len(self._busy)

    def backlog(self) -> int:
        """Execution units queued but not yet assigned to a worker."""
        return len(self.pending)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_bot(self, bot: BagOfTasks, at: float = 0.0) -> None:
        """Submit a BoT; tasks arrive at ``at + task.arrival``."""
        if bot.bot_id in self._bots:
            raise ValueError(f"BoT {bot.bot_id!r} already submitted")
        self._bots[bot.bot_id] = _BotProgress(bot, at)
        for task in bot:
            self.sim.at(at + task.arrival, self._arrive, bot.bot_id, task)

    def _arrive(self, bot_id: str, task: Task) -> None:
        self._arrive_one(bot_id, task)
        self._dispatch()

    def _arrive_one(self, bot_id: str, task: Task) -> None:
        t = self.sim.now
        gtid = (bot_id, task.task_id)
        st = TaskState(gtid=gtid, task=task, arrival_time=t)
        self.tasks[gtid] = st
        prog = self._bots[bot_id]
        prog.arrived += 1
        prog.uncompleted[gtid] = None
        self.stats.arrivals += 1
        self._emit("on_task_arrived", bot_id, gtid, t)
        self._incomplete.add(st)
        self._note_fetch_candidate(st)
        self._enqueue_new(st)

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    def _enqueue_new(self, st: TaskState) -> None:
        """Queue the execution unit(s) for a newly arrived task."""
        raise NotImplementedError

    def _pick_unit(self, node: Node):
        """Pop the next pending unit this node may execute, or None."""
        raise NotImplementedError

    def _execute(self, unit, node: Node, interval_end: float) -> None:
        """Start the unit on the node (schedule its lifecycle events)."""
        raise NotImplementedError

    def fetch_for_cloud(self, node: Node):
        """Reschedule strategy: hand a unit to a dedicated cloud worker.

        Must serve pending units first, then duplicates of running
        work; returns None when nothing useful remains.  The returned
        unit is *already started* on ``node`` by this call.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Pair pending units with available idle nodes.

        Pull dispatch (§3.2): each idle node the pool hands out polls
        for the next pending unit it may run.  A node that may run
        none of them is set aside until the pass ends, so the pool
        cannot hand it straight back.
        """
        t = self.sim.now
        set_aside: List[Tuple[Node, float]] = []
        while self.pending:
            got = self.pool.acquire(t)
            if got is None:
                break
            node, end = got
            unit = self._pick_unit(node)
            if unit is None:
                # Nothing this node may run (e.g. BOINC already has a
                # replica of every pending workunit on it).
                set_aside.append((node, end))
                continue
            self._execute(unit, node, end)
        for node, _end in set_aside:
            self.pool.release(node, t)
        if self.pending:
            self._arm_wakeup()

    def _arm_wakeup(self) -> None:
        """Schedule a dispatch retry when an away node next returns.

        Every other dispatch trigger (release, reissue, arrival) is
        event-driven; this covers the one case with no event of its
        own — all nodes simultaneously away.
        """
        t = self.sim.now
        if self._wakeup is not None and not self._wakeup.cancelled:
            return
        nxt = self.pool.next_future_start(t)
        if nxt is None or nxt <= t:
            return
        self._wakeup = self.sim.at(nxt, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        if self.pending:
            self._dispatch()

    def teardown(self) -> None:
        """End-of-run cleanup: cancel the pending dispatch wake-up so a
        drained simulation doesn't keep a dead timer in the event heap.
        Only safe once the run has terminally stopped (cancelling a
        wake-up mid-run would change the dispatch schedule); the
        harness wires this through the engine's stop hooks."""
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None

    # ------------------------------------------------------------------
    # completion bookkeeping (shared by all paths)
    # ------------------------------------------------------------------
    def _mark_assigned(self, st: TaskState, node: Node) -> None:
        t = self.sim.now
        self.stats.assignments += 1
        if node.cloud:
            self.stats.cloud_assignments += 1
            self._cloud_busy_since[node.node_id] = t
        st.workers.add(node.node_id)
        st.outstanding += 1
        self._busy[node.node_id] = st.gtid
        if st.first_assign_time is None:
            st.first_assign_time = t
            self._note_fetch_candidate(st)  # the key left inf
            bot_id = st.gtid[0]
            prog = self._bots.get(bot_id)
            if prog is not None:
                prog.assigned += 1
            self._emit("on_task_first_assigned", bot_id, st.gtid, t)

    def _node_freed(self, node: Node) -> None:
        self._busy.pop(node.node_id, None)
        since = self._cloud_busy_since.pop(node.node_id, None)
        if since is not None:
            acc = self._cloud_busy_acc.get(node.node_id, 0.0)
            self._cloud_busy_acc[node.node_id] = acc + (self.sim.now - since)
        cb = self._idle_callbacks.get(node.node_id)
        if cb is not None:
            # Fire asynchronously so the agent sees a settled server.
            self.sim.schedule(0.0, cb)  # type: ignore[arg-type]

    def cloud_busy_seconds(self, node: Node) -> float:
        """Total CPU seconds this cloud worker spent computing here
        (including the in-flight unit) — the §3.3 billing basis."""
        total = self._cloud_busy_acc.get(node.node_id, 0.0)
        since = self._cloud_busy_since.get(node.node_id)
        if since is not None:
            total += self.sim.now - since
        return total

    def drop_cloud_usage(self, node: Node) -> None:
        """Forget a stopped cloud worker's busy time once the scheduler
        has settled it; a unit still running on it then ends without
        recording any."""
        self._cloud_busy_acc.pop(node.node_id, None)
        self._cloud_busy_since.pop(node.node_id, None)

    def cloud_usage_of(self, node_ids, now: float):
        """Bulk ``(busy_seconds, busy)`` per node id — one call per
        billing tick instead of two lookups per handle.  Same per-id
        arithmetic as :meth:`cloud_busy_seconds`/:meth:`is_busy`."""
        acc = self._cloud_busy_acc
        since_map = self._cloud_busy_since
        busy_map = self._busy
        # comprehensions over ``in``/subscript keep the per-id work in
        # straight bytecode (no per-id method calls on the hot path);
        # the in-flight add only happens when a since-mark exists, so
        # the float result is the scalar accessor's exactly
        totals = [
            (acc[nid] if nid in acc else 0.0) + (now - since_map[nid])
            if nid in since_map
            else (acc[nid] if nid in acc else 0.0)
            for nid in node_ids]
        busy = [nid in busy_map for nid in node_ids]
        return totals, busy

    def register_idle_callback(self, node: Node, cb) -> None:
        """Ask to be notified (next event round) whenever ``node`` goes
        idle on this server — used by Reschedule cloud agents."""
        self._idle_callbacks[node.node_id] = cb

    def unregister_idle_callback(self, node: Node) -> None:
        self._idle_callbacks.pop(node.node_id, None)

    def _complete_task(self, st: TaskState) -> None:
        """Mark a task done (idempotent) and propagate BoT completion."""
        if st.done:
            return
        t = self.sim.now
        st.done = True
        st.completion_time = t
        self.stats.completions += 1
        bot_id = st.gtid[0]
        self._emit("on_task_completed", bot_id, st.gtid, t)
        prog = self._bots.get(bot_id)
        if prog is not None:
            prog.completed += 1
            prog.uncompleted.pop(st.gtid, None)
            if prog.completed == prog.total:
                self._emit("on_bot_completed", bot_id, bot_id, t)

    def external_complete(self, gtid: GTID, t: float) -> bool:
        """A result for this task was computed outside this server
        (cloud-duplication strategy).  Returns True if it was news."""
        st = self.tasks.get(gtid)
        if st is None or st.done:
            return False
        self._complete_task(st)
        return True

    # ------------------------------------------------------------------
    # cloud integration (Flat)
    # ------------------------------------------------------------------
    def add_cloud_node(self, node: Node) -> None:
        """Flat strategy: the cloud worker joins the ordinary pool."""
        if not node.cloud:
            raise ValueError("add_cloud_node expects a cloud node")
        self._flat_cloud[node.node_id] = node
        self.pool.add(node, self.sim.now)
        self._dispatch()

    def remove_cloud_node(self, node: Node) -> None:
        """Withdraw a Flat cloud worker; a running unit still finishes,
        unbilled: the SpeQuloS scheduler settled the worker's busy time
        at its stop and dropped it (:meth:`drop_cloud_usage`)."""
        self._flat_cloud.pop(node.node_id, None)
        self.pool.remove(node)

    def is_busy(self, node: Node) -> bool:
        """Whether the node currently executes a unit of this server."""
        return node.node_id in self._busy

    # ------------------------------------------------------------------
    # queries used by SpeQuloS and the experiment runner
    # ------------------------------------------------------------------
    def bot_progress(self, bot_id: str) -> Tuple[int, int, int]:
        """(total, arrived, completed) for a BoT."""
        prog = self._bots[bot_id]
        return prog.total, prog.arrived, prog.completed

    def bot_completed(self, bot_id: str) -> bool:
        prog = self._bots[bot_id]
        return prog.completed == prog.total

    def uncompleted_gtids(self, bot_id: str) -> List[GTID]:
        """Tasks of the BoT not yet done (arrived ones only).

        Served from the per-BoT index in arrival order — the same
        sequence the historical scan over ``tasks`` produced — so the
        cloud-duplication queue order is unchanged.
        """
        prog = self._bots.get(bot_id)
        if prog is None:
            return []
        return list(prog.uncompleted)

    def assigned_count(self, bot_id: str) -> int:
        """Tasks of the BoT that were assigned at least once."""
        prog = self._bots.get(bot_id)
        return prog.assigned if prog is not None else 0

    # ------------------------------------------------------------------
    # Reschedule fetch index (shared by both middleware)
    # ------------------------------------------------------------------
    def _fetch_eligible(self, st: TaskState, node: Node) -> bool:
        """Whether an incomplete task may get a duplicate on ``node``
        (checked at pick time, so it may change without a key change)."""
        raise NotImplementedError

    def _fetch_key(self, st: TaskState) -> Tuple:
        """The candidate ordering of the historical argmin scan."""
        return (st.cloud_dups,
                st.first_assign_time if st.first_assign_time is not None
                else float("inf"),
                st.gtid)

    def _note_fetch_candidate(self, st: TaskState) -> None:
        """Push the task's *current* key onto the fetch heap.

        Called at every site that changes a key component while the
        task is incomplete (arrival, first assignment, duplicate start
        and end) — the freshness invariant the heap pick relies on.  A
        no-op until the first pick builds the heap.  Old entries are
        not removed; :meth:`_fetch_candidate_pick` drops them when
        they surface.
        """
        if self._fetch_heap is None:
            return
        self._fetch_seq += 1
        heappush(self._fetch_heap, (*self._fetch_key(st),
                                    self._fetch_seq, st))

    def _fetch_candidate_pick(self, node: Node) -> Optional[TaskState]:
        """The least-served incomplete task ``node`` may duplicate.

        Pops the lazily-invalidated heap instead of scanning
        ``_incomplete``: outdated and completed entries are dropped,
        entries ineligible right now are set aside and pushed back,
        and the first fresh eligible entry is exactly the scan's
        argmin (unique gtid tiebreak + the freshness invariant).
        """
        heap = self._fetch_heap
        if heap is None or (len(heap) > 64
                            and len(heap) > 4 * len(self._incomplete)):
            heap = self._rebuild_fetch_heap()
        best: Optional[TaskState] = None
        stash: List[Tuple] = []
        while heap:
            entry = heappop(heap)
            cand = entry[4]
            if cand.done:
                continue  # retired; drop every copy for good
            if (entry[0] != cand.cloud_dups
                    or entry[1] != (cand.first_assign_time
                                    if cand.first_assign_time is not None
                                    else float("inf"))):
                continue  # outdated key; a fresh entry exists below
            stash.append(entry)  # fresh: kept whether picked or not
            if self._fetch_eligible(cand, node):
                best = cand  # its key changes next; the entry dies lazily
                break
        for entry in stash:
            heappush(heap, entry)
        return best

    def _rebuild_fetch_heap(self) -> List[Tuple]:
        """(Re)build the heap from ``_incomplete``: on the first pick,
        and to compact away outdated entries once the heap far
        outgrows the candidate set."""
        heap = []
        for st in self._incomplete:
            self._fetch_seq += 1
            heap.append((*self._fetch_key(st), self._fetch_seq, st))
        heapify(heap)
        self._fetch_heap = heap
        return heap

    # ------------------------------------------------------------------
    def add_observer(self, obs: ServerObserver,
                     bot_id: Optional[str] = None) -> None:
        """Subscribe to every BoT's events, or only to ``bot_id``'s.

        The observer's methods are bound once, here — methods added to
        the object afterwards are not seen.  Each BoT with a bound
        observer gets its own method table: the every-BoT methods
        registered so far, then every later registration that concerns
        it, so delivery keeps registration order.
        """
        self.observers.append(obs)
        if bot_id is None:
            tables = [self._obs_methods, *self._obs_by_bot.values()]
        else:
            table = self._obs_by_bot.get(bot_id)
            if table is None:
                table = self._obs_by_bot[bot_id] = {
                    name: list(fns)
                    for name, fns in self._obs_methods.items()}
            tables = [table]
        for name in self.OBSERVER_EVENTS:
            fn = getattr(obs, name, None)
            if fn is not None:
                for table in tables:
                    table[name].append(fn)

    def _emit(self, method: str, bot_id: str, *args) -> None:
        for fn in self._obs_by_bot.get(bot_id, self._obs_methods)[method]:
            fn(*args)
