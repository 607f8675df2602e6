"""BOINC middleware model.

BOINC handles volatility with *redundancy and deadlines* (§4.1.3
standard parameters):

* each workunit is replicated ``target_nresults = 3`` times;
* ``min_quorum = 2`` results complete (validate) the workunit;
* two replicas of a workunit never go to the same worker
  (``one_result_per_user_per_wu = 1``);
* a replica unreturned ``delay_bound = 86400`` s after assignment is
  written off and a replacement is generated.

Volunteer clients *suspend and resume*: when a desktop node becomes
unavailable (owner is back, machine off) the work is checkpointed and
continues when the node returns — the result is not lost, just late.
A replica therefore only "fails" by exceeding ``delay_bound``, and a
late result still counts if the workunit is incomplete when it arrives
(BOINC's actual behaviour).  This is the mechanism behind the paper's
observation that BOINC tails are far longer than XWHEP ones (slowdowns
up to 10x vs 4x, §2.2): a stalled workunit waits a full day before the
server reacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware.base import DGServer, TaskState
from repro.simulator.engine import PRIORITY_INFRA, Event, Simulation

__all__ = ["BoincConfig", "BoincServer"]


@dataclass(frozen=True)
class BoincConfig:
    """Standard BOINC project parameters (paper §4.1.3)."""

    target_nresults: int = 3
    min_quorum: int = 2
    delay_bound: float = 86400.0
    one_result_per_user_per_wu: bool = True

    def __post_init__(self) -> None:
        if self.min_quorum < 1 or self.target_nresults < self.min_quorum:
            raise ValueError("need target_nresults >= min_quorum >= 1")
        if self.delay_bound <= 0:
            raise ValueError("delay_bound must be positive")


class _Replica:
    """One result instance of a workunit, living on one node."""

    __slots__ = ("wu", "node", "remaining", "segment_start",
                 "timeout_ev", "timed_out", "finished", "is_cloud_fetch")

    def __init__(self, wu: TaskState, node: Node):
        self.wu = wu
        self.node = node
        self.remaining = wu.task.nops
        self.segment_start = 0.0
        self.timeout_ev: Optional[Event] = None
        self.timed_out = False
        self.finished = False
        self.is_cloud_fetch = False


class BoincServer(DGServer):
    """Replication + quorum + deadline server with suspend/resume
    volunteer clients."""

    def __init__(self, sim: Simulation, pool: NodePool,
                 config: Optional[BoincConfig] = None, name: str = "boinc"):
        super().__init__(sim, pool, name)
        self.config = config or BoincConfig()
        # The big same-instant producers: every replica assigned during
        # an arrival storm schedules its delay_bound timer at the same
        # future instant, and node churn lands suspend/resume waves on
        # shared ticks.  The handlers replay the per-event body in seq
        # order (exact by construction); batching removes the engine's
        # per-event dispatch overhead for these buckets.
        sim.register_batch(self._timeout, self._timeout_batch)
        sim.register_batch(self._suspend, self._suspend_batch)
        sim.register_batch(self._resume, self._resume_batch)

    # ------------------------------------------------------------------
    # base hooks
    # ------------------------------------------------------------------
    def _enqueue_new(self, st: TaskState) -> None:
        """Issue ``target_nresults`` replicas of a fresh workunit."""
        for _ in range(self.config.target_nresults):
            self.pending.append(st)

    def _eligible(self, wu: TaskState, node: Node) -> bool:
        if wu.done:
            return False
        if (self.config.one_result_per_user_per_wu
                and node.node_id in wu.workers):
            return False
        return True

    #: a cloud duplicate also obeys one-result-per-user
    _fetch_eligible = _eligible

    def _pick_unit(self, node: Node) -> Optional[TaskState]:
        pending = self.pending
        while pending and pending[0].done:
            pending.popleft()
        for i, wu in enumerate(pending):
            if self._eligible(wu, node):
                del pending[i]
                return wu
        return None

    def _execute(self, wu: TaskState, node: Node, interval_end: float) -> None:
        self._mark_assigned(wu, node)
        rep = _Replica(wu, node)
        rep.timeout_ev = self.sim.schedule(self.config.delay_bound,
                                           self._timeout, rep)
        self._progress(rep, interval_end)

    # ------------------------------------------------------------------
    # replica lifecycle: run / suspend / resume / finish / timeout
    # ------------------------------------------------------------------
    def _progress(self, rep: _Replica, interval_end: float) -> None:
        """(Re)start computing within the current availability interval."""
        t = self.sim.now
        rep.segment_start = t
        duration = rep.remaining / rep.node.power
        if t + duration <= interval_end:
            self.sim.at(t + duration, self._finish, rep)
        else:
            self.sim.at(interval_end, self._suspend, rep,
                        priority=PRIORITY_INFRA)

    def _suspend(self, rep: _Replica) -> None:
        """Node went away mid-computation; work is checkpointed."""
        t = self.sim.now
        rep.remaining -= (t - rep.segment_start) * rep.node.power
        self.stats.suspensions += 1
        nxt = rep.node.next_available(t)
        if nxt is None:
            # Node never returns within the trace: the replica is lost
            # in practice; only the delay_bound timer reacts.
            self._node_freed(rep.node)
            return
        start, _end = nxt
        self.sim.at(start, self._resume, rep)

    def _resume(self, rep: _Replica) -> None:
        t = self.sim.now
        self.stats.resumes += 1
        iv = rep.node.interval_at(t)
        if iv is None:  # pragma: no cover - defensive; resume is scheduled
            self._suspend(rep)  # at an interval start, so iv must exist
            return
        self._progress(rep, iv[1])

    def _finish(self, rep: _Replica) -> None:
        """A result arrives at the server (possibly after its deadline)."""
        t = self.sim.now
        rep.finished = True
        wu = rep.wu
        if rep.timeout_ev is not None:
            rep.timeout_ev.cancel()
            rep.timeout_ev = None  # the event's args hold rep: no cycle
        self._node_freed(rep.node)
        if not rep.timed_out:
            wu.outstanding -= 1
        if rep.is_cloud_fetch:
            wu.cloud_dups -= 1
            if not wu.done:  # key shrank; completion below retires it
                self._note_fetch_candidate(wu)
        if wu.done:
            self.stats.discarded_results += 1
        else:
            wu.ok_results += 1
            if wu.ok_results >= self.config.min_quorum:
                self._complete_task(wu)
                self._incomplete.discard(wu)
        self.pool.release(rep.node, t)
        self._dispatch()

    def _arrive_batch(self, argslist) -> None:
        """Arrival storm; merged dispatch when the queue starts empty.

        With no earlier pending workunits, every unit in the merged
        queue is fresh, so by induction no drawn node can sit in any
        workunit's ``workers`` set (a node only re-enters the pool via
        a set-aside, which requires an ineligible draw first) — the
        eligibility scan always matches the first live unit, exactly as
        it would under per-arrival dispatch, and the RNG draw sequence
        is the per-arrival concatenation.  With older units already
        queued the one-result-per-user scan can set a node aside under
        one queue shape but match it under the other, so the exact
        per-event replay from the base class runs instead.
        """
        if self.pending:
            super()._arrive_batch(argslist)
            return
        for bot_id, task in argslist:
            self._arrive_one(bot_id, task)
        self._dispatch()

    def _suspend_batch(self, argslist) -> None:
        for (rep,) in argslist:
            self._suspend(rep)

    def _resume_batch(self, argslist) -> None:
        for (rep,) in argslist:
            self._resume(rep)

    def _timeout_batch(self, argslist) -> None:
        for (rep,) in argslist:
            self._timeout(rep)

    def _timeout(self, rep: _Replica) -> None:
        """``delay_bound`` elapsed with no result: write the replica off
        (it may still return later) and generate a replacement."""
        rep.timeout_ev = None  # fired; drop the rep <-> event cycle
        if rep.finished or rep.wu.done:
            return
        rep.timed_out = True
        wu = rep.wu
        wu.outstanding -= 1
        self.stats.timeouts += 1
        if wu.ok_results < self.config.min_quorum:
            self.stats.reissues += 1
            self.pending.append(wu)
            self._dispatch()

    # ------------------------------------------------------------------
    def external_complete(self, gtid, t) -> bool:
        news = super().external_complete(gtid, t)
        if news:
            self._incomplete.discard(self.tasks[gtid])
        return news

    # ------------------------------------------------------------------
    # Reschedule-strategy cloud interface
    # ------------------------------------------------------------------
    def fetch_for_cloud(self, node: Node) -> Optional[TaskState]:
        """Serve a dedicated cloud worker: pending replicas first, then
        an extra replica of the least-served incomplete workunit it may
        run (the fetch index's pick)."""
        wu = self._pick_unit(node)
        if wu is None:
            wu = self._fetch_candidate_pick(node)
            if wu is None:
                return None
        self._execute_cloud(wu, node)
        return wu

    def _execute_cloud(self, wu: TaskState, node: Node) -> None:
        """Start an extra replica on a dedicated (stable) cloud worker."""
        self._mark_assigned(wu, node)
        rep = _Replica(wu, node)
        rep.is_cloud_fetch = True
        wu.cloud_dups += 1
        self._note_fetch_candidate(wu)  # cloud_dups moved the key up
        # Stable workers cannot miss delay_bound; no timer needed.
        self._progress(rep, float("inf"))
