"""Cloud-worker deployment strategies (paper §3.5: F / R / D).

* **Flat** needs no agent: the SpeQuloS Scheduler registers the cloud
  node directly with the DG server's pool
  (:meth:`~repro.middleware.base.DGServer.add_cloud_node`) where it
  competes with regular workers.
* **Reschedule** uses :class:`RescheduleAgent`: the cloud worker asks
  the (patched) DG server for work and is served pending tasks first,
  then duplicates of running tasks.
* **Cloud duplication** uses :class:`CloudDuplicationCoordinator`: a
  dedicated cloud-side server receives copies of every uncompleted
  task, stable cloud workers burn through them FCFS, and results are
  merged back (first completion on either side wins).

All three paths share :class:`CloudWorkerHandle`, the Scheduler-side
record used for billing and idle detection.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.cloud.api import CloudInstance
from repro.infra.node import Node
from repro.middleware.base import DGServer, GTID
from repro.simulator.engine import Simulation

__all__ = ["CloudWorkerHandle", "RescheduleAgent",
           "CloudDuplicationCoordinator"]


class CloudWorkerHandle:
    """Scheduler-side view of one provisioned cloud worker."""

    __slots__ = ("instance", "deploy_mode", "agent", "billed_busy",
                 "stopped", "ever_assigned", "last_busy")

    def __init__(self, instance: CloudInstance, deploy_mode: str):
        self.instance = instance
        self.deploy_mode = deploy_mode
        self.agent: Optional[object] = None
        #: busy CPU-seconds already billed to the Credit System
        self.billed_busy = 0.0
        self.stopped = False
        self.ever_assigned = False
        #: last instant the worker was observed computing (idle-release)
        self.last_busy = instance.boot_end

    @property
    def node(self) -> Node:
        return self.instance.node


class RescheduleAgent:
    """Worker-side loop of the Reschedule strategy.

    On every idle notification the agent asks the server for a unit via
    :meth:`~repro.middleware.base.DGServer.fetch_for_cloud`; the server
    serves pending work first and duplicates running work otherwise.
    When the server has nothing useful the agent reports starvation
    through ``on_starved`` (the Scheduler stops and unbills the worker,
    §3.5's Greedy release rule).
    """

    def __init__(self, sim: Simulation, server: DGServer, node: Node,
                 on_work: Optional[Callable[[], None]] = None,
                 on_starved: Optional[Callable[["RescheduleAgent"], None]] = None):
        self.sim = sim
        self.server = server
        self.node = node
        self.active = True
        self.units_fetched = 0
        self._on_work = on_work
        self._on_starved = on_starved
        server.register_idle_callback(node, self._try_fetch)

    def start(self) -> None:
        """Begin fetching as soon as the instance has booted."""
        boot = max(self.sim.now, float(self.node.starts[0]))
        self.sim.at(boot, self._try_fetch)

    def _try_fetch(self) -> None:
        if not self.active or self.server.is_busy(self.node):
            return
        unit = self.server.fetch_for_cloud(self.node)
        if unit is not None:
            self.units_fetched += 1
            if self._on_work is not None:
                self._on_work()
        else:
            if self._on_starved is not None:
                self._on_starved(self)

    def stop(self) -> None:
        """Detach from the server; a running unit still completes.

        The callbacks go too: a boot or fetch event still pending keeps
        only the agent, not what ``on_starved`` closes over."""
        self.active = False
        self._on_work = self._on_starved = None
        self.server.unregister_idle_callback(self.node)


class CloudDuplicationCoordinator:
    """Cloud-side dedicated server of the Cloud-duplication strategy.

    Holds copies of the BoT's uncompleted tasks in a FCFS queue
    (pending-on-DG tasks first, then duplicates of running ones, which
    is the order :meth:`sync` discovers them in).  Cloud workers
    execute copies to completion — they are stable, so there is no
    failure handling — and completions are merged into the DG server
    via ``external_complete``.  Symmetrically, tasks that the BE-DCI
    completes first are dropped from the queue lazily.
    """

    def __init__(self, sim: Simulation, server: DGServer, bot_id: str,
                 on_starved: Optional[Callable[["CloudDuplicationCoordinator",
                                                Node], None]] = None):
        self.sim = sim
        self.server = server
        self.bot_id = bot_id
        self.queue: Deque[GTID] = deque()
        self.queued: set[GTID] = set()
        self.running: Dict[int, GTID] = {}   # node_id -> gtid
        self.workers: Dict[int, Node] = {}   # node_id -> node
        self.completions = 0
        self._on_starved = on_starved
        self._synced = False
        self._busy_acc: Dict[int, float] = {}
        self._busy_since: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def sync(self) -> int:
        """Copy every uncompleted task of the BoT to the cloud queue.

        Called when the strategy triggers (and on later refreshes); only
        enqueues tasks not already queued or running here.  Pending-
        before-running order comes from the DG server's bookkeeping:
        tasks never assigned sort first.
        """
        fresh = 0
        gtids = self.server.uncompleted_gtids(self.bot_id)
        never_assigned = [g for g in gtids
                          if self.server.tasks[g].first_assign_time is None]
        assigned = [g for g in gtids
                    if self.server.tasks[g].first_assign_time is not None]
        for gtid in never_assigned + assigned:
            if gtid in self.queued or gtid in self.running.values():
                continue
            self.queue.append(gtid)
            self.queued.add(gtid)
            fresh += 1
        self._synced = True
        return fresh

    def add_worker(self, node: Node) -> None:
        self.workers[node.node_id] = node
        boot = max(self.sim.now, float(node.starts[0]))
        self.sim.at(boot, self._feed, node)

    def remove_worker(self, node: Node) -> None:
        """Withdraw a worker the scheduler has settled, with its busy
        time; a copy still running on it ends without recording any."""
        self.workers.pop(node.node_id, None)
        self._busy_acc.pop(node.node_id, None)
        self._busy_since.pop(node.node_id, None)

    # ------------------------------------------------------------------
    def _feed(self, node: Node) -> None:
        """Hand the next useful copy to an idle cloud worker."""
        if node.node_id not in self.workers or node.node_id in self.running:
            return
        while self.queue:
            gtid = self.queue.popleft()
            self.queued.discard(gtid)
            st = self.server.tasks.get(gtid)
            if st is None or st.done:
                continue  # the BE-DCI finished it first
            self.running[node.node_id] = gtid
            self._busy_since[node.node_id] = self.sim.now
            duration = st.task.duration_on(node.power)
            self.sim.schedule(duration, self._finish, node, gtid)
            return
        if self._on_starved is not None:
            self._on_starved(self, node)

    def _finish(self, node: Node, gtid: GTID) -> None:
        self.running.pop(node.node_id, None)
        since = self._busy_since.pop(node.node_id, None)
        if since is not None:
            acc = self._busy_acc.get(node.node_id, 0.0)
            self._busy_acc[node.node_id] = acc + (self.sim.now - since)
        news = self.server.external_complete(gtid, self.sim.now)
        if news:
            self.completions += 1
        self._feed(node)

    def busy(self, node: Node) -> bool:
        return node.node_id in self.running

    def busy_seconds(self, node: Node) -> float:
        """CPU seconds this worker spent on copies (billing basis)."""
        total = self._busy_acc.get(node.node_id, 0.0)
        since = self._busy_since.get(node.node_id)
        if since is not None:
            total += self.sim.now - since
        return total

    def usage_of(self, node_ids: List[int], now: float
                 ) -> "tuple[List[float], List[bool]]":
        """Bulk ``(busy_seconds, busy)`` snapshot for the billing scan.

        Same per-id arithmetic as :meth:`busy_seconds`/:meth:`busy`, one
        call instead of two per handle per tick.
        """
        acc = self._busy_acc
        since = self._busy_since
        running = self.running
        # straight-bytecode comprehensions (see DGServer.cloud_usage_of)
        totals = [
            (acc[nid] if nid in acc else 0.0) + (now - since[nid])
            if nid in since
            else (acc[nid] if nid in acc else 0.0)
            for nid in node_ids]
        busy = [nid in running for nid in node_ids]
        return totals, busy

    def backlog(self) -> int:
        """Copies still waiting for a cloud worker."""
        return len(self.queue)
