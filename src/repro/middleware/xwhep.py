"""XtremWeb-HEP middleware model.

XWHEP handles volatility with *failure detection*: workers send a
keep-alive message every minute and the server reassigns the task of
any worker silent for ``worker_timeout`` seconds (§4.1.3 standard
parameters: ``keep_alive_period=60``, ``worker_timeout=900``).  There
is no replication — each task runs once at a time — and a preempted
worker loses its work entirely (the pilot job is killed with the
best-effort slot; XtremWeb restarts tasks from scratch).

Consequences the experiments rely on: the tail of an XWHEP execution
costs roughly (lost work + 900 s detection + rerun) per unlucky task,
an order of magnitude less than BOINC's one-day ``delay_bound`` — which
is exactly the asymmetry visible in the paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware.base import DGServer, TaskState
from repro.simulator.engine import PRIORITY_INFRA, Simulation

__all__ = ["XWHepConfig", "XWHepServer"]


@dataclass(frozen=True)
class XWHepConfig:
    """Standard XWHEP parameters (paper §4.1.3)."""

    keep_alive_period: float = 60.0
    worker_timeout: float = 900.0

    def __post_init__(self) -> None:
        if self.keep_alive_period <= 0 or self.worker_timeout <= 0:
            raise ValueError("periods must be positive")
        if self.worker_timeout < self.keep_alive_period:
            raise ValueError("worker_timeout must be >= keep_alive_period")


class XWHepServer(DGServer):
    """Single-execution server with heartbeat failure detection."""

    def __init__(self, sim: Simulation, pool: NodePool,
                 config: Optional[XWHepConfig] = None, name: str = "xwhep"):
        super().__init__(sim, pool, name)
        self.config = config or XWHepConfig()

    # ------------------------------------------------------------------
    # base hooks
    # ------------------------------------------------------------------
    def _enqueue_new(self, st: TaskState) -> None:
        st.queued = True
        self.pending.append(st)

    def _pick_unit(self, node: Node) -> Optional[TaskState]:
        pending = self.pending
        while pending:
            st = pending.popleft()
            if st.done:
                continue
            st.queued = False
            return st
        return None

    def _execute(self, st: TaskState, node: Node, interval_end: float,
                 is_dup: bool = False) -> None:
        t = self.sim.now
        self._mark_assigned(st, node)
        duration = st.task.duration_on(node.power)
        if t + duration <= interval_end:
            self.sim.at(t + duration, self._finish, st, node, is_dup)
        else:
            self.sim.at(interval_end, self._preempt, st, node, is_dup,
                        priority=PRIORITY_INFRA)

    # ------------------------------------------------------------------
    # execution lifecycle
    # ------------------------------------------------------------------
    def _finish(self, st: TaskState, node: Node, is_dup: bool) -> None:
        t = self.sim.now
        self._node_freed(node)
        st.outstanding -= 1
        if is_dup:
            st.cloud_dups -= 1
        if st.done:
            self.stats.discarded_results += 1
        else:
            self._complete_task(st)
            self._incomplete.discard(st)
        self.pool.release(node, t)
        self._dispatch()

    def _preempt(self, st: TaskState, node: Node, is_dup: bool) -> None:
        """The node's availability interval ended mid-execution: the
        pilot job dies and all work is lost.  The server only learns
        about it ``worker_timeout`` seconds after the last heartbeat."""
        t = self.sim.now
        self._node_freed(node)
        self.stats.preemptions += 1
        st.outstanding -= 1
        if is_dup:
            st.cloud_dups -= 1
            if not st.done:
                self._note_fetch_candidate(st)
        self.pool.preempted(node, t)
        self.sim.schedule(self.config.worker_timeout, self._detect, st)
        self._dispatch()

    def _detect(self, st: TaskState) -> None:
        """Heartbeat silence exceeded ``worker_timeout``: reissue."""
        self.stats.timeouts += 1
        if st.done or st.queued:
            return
        self.stats.reissues += 1
        st.queued = True
        self.pending.append(st)
        self._dispatch()

    # Nothing in src/ calls these three: they stay only because the
    # benchmark's per-layer tracer (benchmarks/perf/layers.py) resolves
    # them by name, and they go with the next benchmark change, as do
    # ``NodePool.acquire_many``/``ready_hint`` and ``AssemblyCache``.
    def _arrive_batch(self, argslist) -> None:
        for args in argslist:
            self._arrive(*args)

    def _preempt_batch(self, argslist) -> None:
        for args in argslist:
            self._preempt(*args)

    def _detect_batch(self, argslist) -> None:
        for (st,) in argslist:
            self._detect(st)

    # ------------------------------------------------------------------
    # task completion cleanup shared with external completions
    # ------------------------------------------------------------------
    def external_complete(self, gtid, t) -> bool:
        news = super().external_complete(gtid, t)
        if news:
            self._incomplete.discard(self.tasks[gtid])
        return news

    # ------------------------------------------------------------------
    # Reschedule-strategy cloud interface
    # ------------------------------------------------------------------
    def _fetch_eligible(self, st: TaskState, node: Node) -> bool:
        return not st.queued  # a queued task is pending work, not a dup

    def fetch_for_cloud(self, node: Node) -> Optional[TaskState]:
        """Serve a dedicated cloud worker: pending tasks first, then a
        duplicate of the least-served uncompleted task (§3.5 R)."""
        st = self._pick_unit(node)
        if st is not None:
            self._execute(st, node, float("inf"))
            return st
        best = self._fetch_candidate_pick(node)
        if best is None:
            return None
        best.cloud_dups += 1
        self._note_fetch_candidate(best)
        self._execute(best, node, float("inf"), is_dup=True)
        return best
