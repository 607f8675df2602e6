"""Scheduler module: Cloud worker lifecycle management (§3.6).

The Scheduler periodically checks every QoS-enabled BoT (Algorithm 1):
if credits are provisioned and the Oracle's when-policy fires, it
starts the Oracle-sized batch of Cloud workers, connects them to the
BE-DCI according to the deployment strategy, and then (Algorithm 2)
keeps billing their usage each period, stopping workers that starve or
whose BoT completed, and stopping everything when the escrowed credits
run out.

Billing model: Cloud worker *usage* is billed — the CPU time actually
spent computing units (§3.3 prices "1 CPU.hour of Cloud worker usage"
at 15 credits) — measured exactly through the middleware's busy
accounting and charged each tick.  Pricing is owned by the economics
plane: the Scheduler charges usage through a
:class:`~repro.economics.billing.BillingMeter` reading per-provider
rates from the scenario's :class:`~repro.economics.pricing.PriceBook`
(default: a uniform book at the paper's 15 credits per CPU·hour, which
is float-for-float the historical inline formula).  Workers persist until the BoT
completes or the escrowed credits run out ("If all the credits
allocated to the BoT have been spent, or if the BoT execution is
completed, Cloud workers are stopped"); an optional ``idle_grace``
releases long-idle workers early, and never-assigned workers of a
Greedy launch are released after one tick (§3.5's release rule).
Stops are graceful: a unit already running on a stopped worker
completes, and its final partial billing is settled at stop time.

Multi-tenant arbitration (§5's shared-service regime): when several
QoS runs compete for one Cloud supplement — the EDGI deployment serves
many users' BoTs concurrently — a :class:`CloudArbiter` rations a
global worker budget and the shared credit pool between them.  Three
policies are provided:

* ``fifo`` — runs are served in registration order; whoever triggers
  first may take the whole budget (queueing discipline);
* ``fairshare`` — each pool member's total spend is capped at an equal
  split of the pooled provision, and the worker budget is divided
  evenly (max-min style fairness);
* ``deadline`` — earliest-deadline-first: runs closest to their
  deadline are served first (EDF over the FIFO allocation rule).

In a *federated* scenario (one SpeQuloS over several DCIs and clouds,
the paper's Figure 8 topology) the same arbiter spans every binding:
the global worker budget counts workers across all clouds, and
optional per-DCI caps (uniform or per binding) bound how much of the
supplement any single DCI may draw.

Without an arbiter the Scheduler behaves exactly as the single-BoT
paper algorithms.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.api import ComputeDriver, QuotaExceeded
from repro.cloud.worker import (
    CloudDuplicationCoordinator,
    CloudWorkerHandle,
    RescheduleAgent,
)
from repro.core.credit import CreditSystem
from repro.core.info import BoTMonitor, InformationModule
from repro.economics.billing import BillingMeter
from repro.economics.pricing import PriceBook
from repro.core.oracle import Oracle
from repro.core.strategies import (
    DEPLOY_CLOUD_DUP,
    DEPLOY_FLAT,
    DEPLOY_RESCHEDULE,
    SIZE_GREEDY,
    StrategyCombo,
)
from repro.middleware.base import DGServer
from repro.simulator.engine import PRIORITY_MONITOR, Event, Simulation

__all__ = ["SchedulerConfig", "QoSRun", "SpeQuloSScheduler",
           "CloudArbiter", "ARBITRATION_POLICIES"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler tuning knobs."""

    #: monitor / billing loop period (seconds)
    tick_period: float = 60.0
    #: release workers idle longer than this (None: keep them until
    #: BoT completion / credit exhaustion, as the paper's Scheduler
    #: does — idle time costs nothing under usage billing)
    idle_grace: Optional[float] = None
    #: never-assigned workers of a *Greedy* launch stop after one tick
    #: ("Cloud workers that do not have tasks assigned stop
    #: immediately to release the credits", §3.5)
    greedy_release_grace: float = 60.0
    #: hard cap on workers per BoT (sanity bound below provider quota)
    max_workers: int = 500

    def __post_init__(self) -> None:
        if self.tick_period <= 0:
            raise ValueError("tick_period must be > 0")
        if self.idle_grace is not None and self.idle_grace < 0:
            raise ValueError("idle_grace must be >= 0 or None")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")


@dataclass
class QoSRun:
    """Scheduler-side state of one QoS-supported BoT."""

    bot_id: str
    server: DGServer
    driver: ComputeDriver
    monitor: BoTMonitor
    oracle: Oracle
    combo: StrategyCombo
    started: bool = False
    finished: bool = False
    started_at: Optional[float] = None
    workers_launched: int = 0
    coordinator: Optional[CloudDuplicationCoordinator] = None
    stop_reason: Optional[str] = None
    #: absolute completion deadline (deadline-proximity arbitration)
    deadline: Optional[float] = None
    #: node id -> handle of every worker not yet stopped, in launch
    #: order (the billing order); written at launch and at stop only
    live: Dict[int, CloudWorkerHandle] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# multi-tenant arbitration
# ---------------------------------------------------------------------------
ARBITRATION_POLICIES = ("fifo", "fairshare", "deadline")


class CloudArbiter:
    """Rations Cloud workers and pooled credits across concurrent runs.

    Plugged into :class:`SpeQuloSScheduler`, it intercepts the two
    resource decisions of Algorithm 1 — how large a credit budget a
    launch may size against, and how many workers it may actually
    start — and orders the per-tick service sequence.  See the module
    docstring for the three policies.

    ``max_total_workers`` bounds *concurrently active* Cloud workers
    summed over every managed run (the limited cloud supplement);
    ``None`` leaves workers bounded only by per-run/provider caps.

    Cross-DCI federation (one arbiter over several bindings): the
    global budget already spans every run regardless of which DCI
    (server + cloud driver) it is bound to, because runs carry their
    own bindings.  Two optional *per-DCI* caps refine it:
    ``max_dci_workers`` bounds the concurrently active workers of the
    runs sharing any one DG server, and ``dci_caps`` overrides that
    bound for individually named servers (keyed by ``server.name``) —
    e.g. a small on-site StratusLab behind one DCI and a large EC2
    behind another.
    """

    def __init__(self, policy: str = "fairshare",
                 max_total_workers: Optional[int] = None,
                 max_dci_workers: Optional[int] = None,
                 dci_caps: Optional[Dict[str, int]] = None,
                 admission=None):
        if policy not in ARBITRATION_POLICIES:
            raise ValueError(f"unknown arbitration policy {policy!r}; "
                             f"available: {', '.join(ARBITRATION_POLICIES)}")
        if max_total_workers is not None and max_total_workers < 1:
            raise ValueError("max_total_workers must be >= 1 or None")
        if max_dci_workers is not None and max_dci_workers < 1:
            raise ValueError("max_dci_workers must be >= 1 or None")
        for name, cap in (dci_caps or {}).items():
            if cap < 1:
                raise ValueError(f"dci_caps[{name!r}] must be >= 1")
        self.policy = policy
        self.max_total_workers = max_total_workers
        self.max_dci_workers = max_dci_workers
        self.dci_caps = dict(dci_caps or {})
        #: optional :class:`~repro.core.admission.AdmissionController`
        #: gating pooled QoS orders on the history plane's predicted
        #: credit cost (the scenario harness consults it at admission
        #: time; the scheduler releases its commitments on finalize)
        self.admission = admission

    # ------------------------------------------------------------------
    def service_order(self, runs: Sequence[QoSRun],
                      now: float) -> List[QoSRun]:
        """Per-tick ordering: who gets first claim on free resources."""
        runs = list(runs)
        if self.policy == "deadline":
            runs.sort(key=lambda r: math.inf if r.deadline is None
                      else r.deadline)
        return runs

    def credit_budget(self, run: QoSRun, credits) -> float:
        """Spendable credits a launch may size against.

        ``credits`` is the scheduler's
        :class:`~repro.economics.billing.BillingMeter` (a bare
        :class:`~repro.core.credit.CreditSystem` also works — only the
        pool-aware ``remaining_for`` view is read).  FIFO/deadline
        runs see the full remaining escrow (first-come / most-urgent
        takes all); fair-share runs see their rebalanced allowance
        slice (see :meth:`rebalance`).
        """
        return credits.remaining_for(run.bot_id)

    def rebalance(self, scheduler: "SpeQuloSScheduler") -> None:
        """Fair share as progressive filling (max-min): each tick,
        every open pooled order's spend cap is reset to its equal
        slice of what the pool still holds.

        ``allowance_i = spent_i + remaining / k`` where ``k`` counts
        the claimants still entitled to a slice: open member orders
        plus declared members that have not joined yet.  Tenants that
        finish under their slice return the surplus to the split, so
        heavy tails can draw more once light ones complete — while no
        single run can raid the slices reserved for the others (the
        per-tick total of the caps never exceeds the remainder).
        """
        if self.policy != "fairshare":
            return
        credits = scheduler.credits
        by_pool: Dict[str, List] = {}
        for run in scheduler.runs.values():
            order = credits.get_order(run.bot_id)
            if order is None or order.closed or order.pool is None:
                continue
            by_pool.setdefault(order.pool, []).append(order)
        for pool_id, orders in by_pool.items():
            pool = credits.get_pool(pool_id)
            assert pool is not None
            open_members = sum(
                1 for m in pool.members
                if (o := credits.get_order(m)) is not None and not o.closed)
            unjoined = max(0, (pool.expected_members or 0)
                           - len(pool.members))
            k = max(1, open_members + unjoined)
            slice_ = pool.remaining / k
            for order in orders:
                credits.set_allowance(order.bot_id, order.spent + slice_)

    def _dci_cap(self, run: QoSRun) -> Optional[int]:
        """Per-DCI worker bound applying to this run's binding."""
        name = getattr(run.server, "name", None)
        if name is not None and name in self.dci_caps:
            return self.dci_caps[name]
        return self.max_dci_workers

    def worker_grant(self, run: QoSRun, desired: int,
                     scheduler: "SpeQuloSScheduler") -> int:
        """Workers the run may actually start, given the global budget
        and (in a federation) the per-DCI bound of its binding."""
        if desired <= 0:
            return 0
        dci_cap = self._dci_cap(run)
        if self.max_total_workers is None and dci_cap is None:
            return desired
        free = desired
        if self.max_total_workers is not None:
            # maintained at launch/stop — O(1) instead of O(runs×handles)
            active = scheduler.active_worker_total()
            free = max(0, self.max_total_workers - active)
            if self.policy == "fairshare":
                # finished tenants hand their worker slice back to the rest
                n_peers = max(1, sum(1 for r in scheduler.runs.values()
                                     if not r.finished))
                desired = min(desired,
                              max(1, self.max_total_workers // n_peers))
        if dci_cap is not None:
            active_here = scheduler.active_workers_on(run.server)
            free = min(free, max(0, dci_cap - active_here))
        return min(desired, free)


class SpeQuloSScheduler:
    """Algorithms 1 & 2 of the paper, over simulated clouds."""

    def __init__(self, sim: Simulation, info: InformationModule,
                 credits: CreditSystem,
                 config: Optional[SchedulerConfig] = None,
                 on_run_finished: Optional[Callable[[QoSRun], None]] = None,
                 arbiter: Optional[CloudArbiter] = None,
                 pricebook: Optional[PriceBook] = None):
        self.sim = sim
        self.info = info
        self.credits = credits
        self.config = config or SchedulerConfig()
        #: the economics plane's accounting source: every credit the
        #: scheduler bills flows through here, priced per provider
        #: (uniform at the paper's rate unless the scenario attaches a
        #: price book)
        self.meter = BillingMeter(credits, pricebook)
        self.runs: Dict[str, QoSRun] = {}
        self._tick_ev: Optional[Event] = None
        self._on_run_finished = on_run_finished
        self.arbiter = arbiter
        # O(1) active-worker views for the arbiter, maintained at every
        # launch (+1) and stop transition (-1); per-server keyed by the
        # DGServer object identity (runs are never detached)
        self._active_total = 0
        self._active_by_server: Dict[DGServer, int] = {}

    def active_worker_total(self) -> int:
        """Concurrently active Cloud workers across every managed run."""
        return self._active_total

    def active_workers_on(self, server: DGServer) -> int:
        """Active Cloud workers of the runs bound to one DG server."""
        return self._active_by_server.get(server, 0)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def attach(self, bot_id: str, server: DGServer, driver: ComputeDriver,
               combo: StrategyCombo,
               deadline: Optional[float] = None) -> QoSRun:
        """Start managing QoS for a registered BoT."""
        if bot_id in self.runs:
            raise ValueError(f"BoT {bot_id!r} already managed")
        mon = self.info.monitor(bot_id)
        run = QoSRun(bot_id=bot_id, server=server, driver=driver,
                     monitor=mon, oracle=Oracle(self.info, combo),
                     combo=combo, deadline=deadline)
        self.runs[bot_id] = run
        server.add_observer(_CompletionWatcher(self, run), bot_id=bot_id)
        self._ensure_ticking()
        return run

    def _ensure_ticking(self) -> None:
        if self._tick_ev is None or self._tick_ev.cancelled:
            self._tick_ev = self.sim.schedule(
                self.config.tick_period, self._tick,
                priority=PRIORITY_MONITOR)

    # ------------------------------------------------------------------
    # monitor loop (Algorithms 1 and 2)
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._tick_ev = None
        runs: Sequence[QoSRun] = list(self.runs.values())
        if self.arbiter is not None:
            runs = self.arbiter.service_order(runs, self.sim.now)
            self.arbiter.rebalance(self)
        active = False
        for run in runs:
            if run.finished:
                continue
            active = True
            run.monitor.sample(self.sim.now)
            if run.monitor.done:
                self.finalize(run)
                continue
            if not run.started:
                if (self.credits.has_credits(run.bot_id)
                        and run.oracle.should_use_cloud(run.monitor)):
                    self._launch(run)
            else:
                self._bill_and_manage(run)
        if active:
            self._ensure_ticking()

    # ------------------------------------------------------------------
    def _launch(self, run: QoSRun) -> None:
        """Size and start the Cloud worker batch (Algorithm 1)."""
        order = self.credits.get_order(run.bot_id)
        assert order is not None
        if self.arbiter is not None:
            budget = self.arbiter.credit_budget(run, self.meter)
        else:
            # pool-aware: a pooled order's own remaining is always 0
            budget = self.meter.remaining_for(run.bot_id)
        n = run.oracle.cloud_workers_to_start(
            run.monitor, budget,
            self.meter.rate_for(run.driver.name),
            self.sim.now)
        n = min(n, self.config.max_workers)
        if self.arbiter is not None:
            n = self.arbiter.worker_grant(run, n, self)
        if n <= 0:
            return
        deploy = run.combo.deploy
        if deploy == DEPLOY_CLOUD_DUP:
            run.coordinator = CloudDuplicationCoordinator(
                self.sim, run.server, run.bot_id,
                on_starved=lambda coord, node, r=run:
                    self._stop_by_node(r, node))
            run.coordinator.sync()
        for _ in range(n):
            try:
                inst = run.driver.create_node(tag=f"speq-{run.bot_id}")
            except QuotaExceeded:
                break
            handle = CloudWorkerHandle(inst, deploy)
            if deploy == DEPLOY_FLAT:
                run.server.add_cloud_node(inst.node)
            elif deploy == DEPLOY_RESCHEDULE:
                agent = RescheduleAgent(
                    self.sim, run.server, inst.node,
                    on_starved=lambda a, r=run, h=handle:
                        self._stop_handle(r, h))
                handle.agent = agent
                agent.start()
            else:
                assert run.coordinator is not None
                run.coordinator.add_worker(inst.node)
            run.live[inst.node.node_id] = handle
            run.workers_launched += 1
            self._active_total += 1
            self._active_by_server[run.server] = \
                self._active_by_server.get(run.server, 0) + 1
        run.started = True
        run.started_at = self.sim.now

    # ------------------------------------------------------------------
    def _busy_seconds(self, run: QoSRun, handle: CloudWorkerHandle) -> float:
        if handle.deploy_mode == DEPLOY_CLOUD_DUP:
            assert run.coordinator is not None
            return run.coordinator.busy_seconds(handle.node)
        return run.server.cloud_busy_seconds(handle.node)

    def _bill_handle(self, run: QoSRun, handle: CloudWorkerHandle) -> bool:
        """Bill usage since the last tick; False when credits ran dry.

        Priced through the meter at the run's provider rate — the
        single per-provider accounting source of the economics plane.
        """
        total = self._busy_seconds(run, handle)
        delta = total - handle.billed_busy
        if delta <= 0:
            return True
        billed, asked = self.meter.charge(run.bot_id, run.driver.name, delta)
        handle.billed_busy = total
        return billed >= asked - 1e-9

    def _charge_live(self, run: QoSRun) -> Tuple[
            List[CloudWorkerHandle], List[bool], Optional[CloudWorkerHandle]]:
        """Bill every live worker's usage since its last charge.

        One usage snapshot gives each worker's busy seconds; the
        positive deltas are billed in launch order by one
        :meth:`~repro.economics.billing.BillingMeter.charge_many`, which
        stops at the first charge the escrow cannot fully cover.  Each
        worker charged, up to and including that *short* worker, has
        its ``billed_busy`` advanced to the snapshot total.

        Returns ``(handles, busy, short)``: the live workers in launch
        order, their busy flags, and the short worker (None when every
        charge was covered).
        """
        now = self.sim.now
        handles = list(run.live.values())
        if run.combo.deploy == DEPLOY_CLOUD_DUP:
            assert run.coordinator is not None
            totals, busy = run.coordinator.usage_of(list(run.live), now)
        else:
            totals, busy = run.server.cloud_usage_of(list(run.live), now)
        deltas = [total - handle.billed_busy
                  for handle, total in zip(handles, totals)]
        # positions, not (handle, total) pairs: a tick allocates no
        # container per worker, which keeps the collector quiet
        charged = [i for i, delta in enumerate(deltas) if delta > 0.0]
        short = None
        if charged:
            fail = self.meter.charge_many(run.bot_id, run.driver.name,
                                          [deltas[i] for i in charged])
            if fail >= 0:
                del charged[fail + 1:]
                short = handles[charged[fail]]
            for i in charged:
                handles[i].billed_busy = totals[i]
        return handles, busy, short

    def _bill_and_manage(self, run: QoSRun) -> None:
        """Algorithm 2: bill the live workers, release idle ones, and
        stop everything once the escrow runs dry.

        Billing every worker first (:meth:`_charge_live`) and managing
        after gives exactly the results of the per-handle loop, which
        billed a worker and then decided on it, worker by worker:

        * a tick's only credit effects are its charges, so the charge
          sequence is the same;
        * stopping a worker never changes another worker's busy
          accounting, so one snapshot serves the whole tick;
        * a release's settlement in :meth:`_stop_handle` sees a zero
          delta, because the tick's charge already advanced
          ``billed_busy``.

        Workers launched after the short worker are neither charged
        nor managed here: :meth:`stop_all` settles and stops them in
        launch order, as the per-handle loop did once a charge fell
        short.
        """
        if not run.live:
            return
        handles, busy, short = self._charge_live(run)
        now = self.sim.now
        greedy = run.combo.size == SIZE_GREEDY
        idle_grace = self.config.idle_grace
        for handle, is_busy in zip(handles, busy):
            if handle is short:
                break
            if is_busy:
                handle.ever_assigned = True
                handle.last_busy = now
                continue
            if greedy and not handle.ever_assigned:
                grace = self.config.greedy_release_grace
            elif idle_grace is not None:
                grace = idle_grace
            else:
                continue
            if now - handle.last_busy >= grace:
                self._stop_handle(run, handle)
        if short is not None:
            self.stop_all(run, reason="credits exhausted")

    # ------------------------------------------------------------------
    # stopping
    # ------------------------------------------------------------------
    def _stop_handle(self, run: QoSRun, handle: CloudWorkerHandle) -> None:
        if handle.stopped:
            return
        self._bill_handle(run, handle)
        handle.stopped = True
        node = handle.node
        del run.live[node.node_id]
        self._active_total -= 1
        self._active_by_server[run.server] -= 1
        # settled above, so the worker's busy time goes with it
        if handle.deploy_mode == DEPLOY_CLOUD_DUP:
            assert run.coordinator is not None
            run.coordinator.remove_worker(node)
        else:
            run.server.drop_cloud_usage(node)
            if handle.deploy_mode == DEPLOY_FLAT:
                run.server.remove_cloud_node(node)
            else:
                assert isinstance(handle.agent, RescheduleAgent)
                handle.agent.stop()
                # the agent's on_starved closure holds the handle:
                # releasing it breaks that cycle, so a stopped worker
                # is freed at once
                handle.agent = None
        run.driver.destroy_node(handle.instance)

    def _stop_by_node(self, run: QoSRun, node) -> None:
        handle = run.live.get(node.node_id)
        if handle is not None:
            self._stop_handle(run, handle)

    def stop_all(self, run: QoSRun, reason: str) -> None:
        """Stop every Cloud worker of the run (exhaustion/completion).

        One :meth:`_charge_live` pass settles the live workers, then
        each stops in launch order.  Charges stop at the first
        shortfall, so each later worker's settlement in
        :meth:`_stop_handle` bills it (nothing, once the escrow is dry)
        in the same order the per-handle settlements would.
        """
        if run.stop_reason is None:
            run.stop_reason = reason
        if not run.live:
            return
        handles, _busy, _short = self._charge_live(run)
        for handle in handles:
            self._stop_handle(run, handle)

    def finalize(self, run: QoSRun) -> None:
        """BoT done: stop workers, pay the order, refund the rest."""
        if run.finished:
            return
        self.stop_all(run, reason="bot completed")
        run.finished = True
        if self.credits.get_order(run.bot_id) is not None:
            self.credits.close(run.bot_id)
        if self.arbiter is not None and self.arbiter.admission is not None:
            # the closed run's actual spend is settled in the pool, so
            # its predicted-cost commitment stops reserving credits
            self.arbiter.admission.release(run.bot_id)
        if self._on_run_finished is not None:
            self._on_run_finished(run)


class _CompletionWatcher:
    """Server observer, bound to its run's BoT, that finalizes the run
    the instant the BoT ends (so credit accounting is settled even if
    the simulation stops on the completion event)."""

    def __init__(self, scheduler: SpeQuloSScheduler, run: QoSRun):
        self.scheduler = scheduler
        self.run = run

    def on_bot_completed(self, bot_id: str, t: float) -> None:
        self.scheduler.finalize(self.run)
