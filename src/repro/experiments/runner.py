"""Execution runners: one config in, one result out — plus the parallel
campaign fan-out.

All world assembly lives in the :class:`~repro.experiments.harness.
ScenarioHarness`: each entry point below builds its DCIs, service and
submission stream through the harness and only keeps its own result
shaping.  Three scenario families share the path:

* :func:`run_execution` — one BoT on one BE-DCI (optionally with
  SpeQuloS), the paper's §4 campaign unit;
* :func:`run_multi_tenant` — N users' BoTs arriving over time on *one*
  shared BE-DCI + Cloud + credit pool under an arbitration policy —
  the contention regime of the EDGI deployment (§5);
* :func:`run_federated` — N users' BoTs over *several* DCIs, each its
  own trace realization, middleware and cloud, with a routing policy
  assigning BoTs to DCIs and one arbiter policing the global worker
  budget and the shared pool — the paper's headline topology (Figure
  8) as a reproducible scenario family.

Trace realizations are cached per (trace, seed-stream, cap, horizon)
with true LRU eviction (``REPRO_TRACE_CACHE`` entries, hit/miss
counters on :data:`~repro.experiments.harness.TRACE_CACHE`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from repro.analysis.metrics import (
    CompletionProfile,
    ideal_completion_time,
    jain_fairness_index,
    max_min_ratio,
    tail_fraction_of_tasks,
    tail_fraction_of_time,
    tail_slowdown,
)
from repro.core.admission import AdmissionController
from repro.core.credit import CREDITS_PER_CPU_HOUR
from repro.core.routing import make_router
from repro.core.scheduler import CloudArbiter
from repro.core.service import SpeQuloS
from repro.core.strategies import StrategyCombo, parse_combo
from repro.economics.pricing import PriceBook
from repro.experiments.config import (
    ExecutionConfig,
    MultiTenantConfig,
    ScenarioConfig,
)
from repro.experiments.harness import ScenarioHarness
from repro.history import open_history_plane
from repro.workload.generator import make_bot
from repro.workload.tenants import TenantSubmission, generate_tenants

__all__ = ["ExecutionResult", "run_execution", "run_campaign",
           "TenantOutcome", "MultiTenantResult", "run_multi_tenant",
           "DCIOutcome", "FederatedTenantOutcome", "FederatedResult",
           "run_federated"]


@dataclass
class ExecutionResult:
    """Everything the figures/tables need from one execution."""

    config: ExecutionConfig
    makespan: float
    censored: bool
    n_tasks: int
    completion_times: np.ndarray
    #: tc(x) for x = 1..100 % (prediction benches re-fit alpha on this)
    tc_grid: np.ndarray
    ideal_time: float
    slowdown: float
    pct_tasks_in_tail: float
    pct_time_in_tail: float
    credits_provisioned: float
    credits_spent: float
    workers_launched: int
    cloud_cpu_hours: float
    cloud_completions: int
    events: int
    wall_seconds: float
    server_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def profile(self) -> CompletionProfile:
        return CompletionProfile(self.completion_times)

    @property
    def credits_used_pct(self) -> float:
        """Figure 5's metric: spent / provisioned, in percent."""
        if self.credits_provisioned <= 0:
            return 0.0
        return 100.0 * self.credits_spent / self.credits_provisioned


# ---------------------------------------------------------------------------
# shared outcome collection
# ---------------------------------------------------------------------------
def _observed_profile(mon, horizon: float):
    """(completion profile, censored?) of one monitored BoT.

    A censored BoT scores its unfinished tasks at the horizon,
    relative to its own submission instant.
    """
    censored = not mon.done
    if censored:
        missing = mon.total - mon.completed_count
        times = np.concatenate([np.asarray(mon.completion_times),
                                np.full(missing, horizon - mon.t0)])
    else:
        times = np.asarray(mon.completion_times)
    return CompletionProfile(np.sort(times)), censored


def _resolve_combo(strategy: str, threshold: float) -> StrategyCombo:
    combo = parse_combo(strategy)
    if threshold != combo.threshold:
        combo = combo.with_threshold(threshold)
    return combo


# ---------------------------------------------------------------------------
def run_execution(cfg: ExecutionConfig,
                  middleware_config: Optional[object] = None
                  ) -> ExecutionResult:
    """Simulate one BoT execution and collect its metrics.

    ``middleware_config`` optionally overrides the standard BOINC/XWHEP
    parameters (ablation studies); pass a
    :class:`~repro.middleware.boinc.BoincConfig` or
    :class:`~repro.middleware.xwhep.XWHepConfig` matching
    ``cfg.middleware``.
    """
    wall0 = time.perf_counter()
    horizon = cfg.horizon

    harness = ScenarioHarness(horizon)
    dci = harness.build_dci(cfg.env_name(), cfg.trace, cfg.middleware,
                            cfg.seed, cfg.node_cap(),
                            provider=cfg.provider,
                            middleware_config=middleware_config)
    server = dci.server
    bot = make_bot(cfg.category, np.random.default_rng([cfg.seed, 0xB07]),
                   bot_id=f"bot-{cfg.seed}", size_override=cfg.bot_size)

    service: Optional[SpeQuloS] = None
    bot_id = bot.bot_id
    if cfg.strategy is not None:
        combo = _resolve_combo(cfg.strategy, cfg.strategy_threshold)
        service = harness.service
        service.register_qos(bot, cfg.env_name(), combo)
        provision = (cfg.credit_fraction * bot.workload_cpu_hours
                     * CREDITS_PER_CPU_HOUR)
        service.credits.deposit("user", provision)
        service.order_qos(bot_id, "user", provision)
    else:
        # Plain monitoring (no QoS): reuse the Information monitor as a
        # standalone observer so both arms record identical series.
        from repro.core.info import BoTMonitor
        monitor = BoTMonitor(bot, 0.0)
        server.add_observer(monitor, bot_id=bot_id)

    harness.stop_when_complete([bot_id])
    server.submit_bot(bot, at=0.0)
    harness.run()

    mon = service.monitor(bot_id) if service is not None else monitor
    profile, censored = _observed_profile(mon, horizon)

    credits_prov = credits_spent = 0.0
    workers = 0
    cloud_hours = 0.0
    cloud_completions = 0
    if service is not None:
        run = service.run_for(bot_id)
        service.scheduler.finalize(run)  # settle accounts if censored
        order = service.credits.get_order(bot_id)
        if order is not None:
            credits_prov, credits_spent = order.provisioned, order.spent
        workers = run.workers_launched
        cloud_hours = run.driver.total_cpu_hours()
        cloud_completions = (run.coordinator.completions
                             if run.coordinator is not None else 0)

    from repro.core.info import tc_grid as _grid
    return ExecutionResult(
        config=cfg,
        makespan=profile.makespan,
        censored=censored,
        n_tasks=bot.size,
        completion_times=profile.times,
        tc_grid=_grid(list(profile.times), bot.size),
        ideal_time=ideal_completion_time(profile),
        slowdown=tail_slowdown(profile),
        pct_tasks_in_tail=100.0 * tail_fraction_of_tasks(profile),
        pct_time_in_tail=100.0 * tail_fraction_of_time(profile),
        credits_provisioned=credits_prov,
        credits_spent=credits_spent,
        workers_launched=workers,
        cloud_cpu_hours=cloud_hours,
        cloud_completions=cloud_completions,
        events=harness.sim.events_processed,
        wall_seconds=time.perf_counter() - wall0,
        server_stats=vars(server.stats).copy(),
    )


# ---------------------------------------------------------------------------
# multi-tenant scenarios (shared-service regime, §5)
# ---------------------------------------------------------------------------
@dataclass
class TenantOutcome:
    """What one tenant experienced inside a shared scenario."""

    user: str
    bot_id: str
    category: str
    arrival: float
    deadline: Optional[float]
    n_tasks: int
    #: completion time relative to this tenant's own submission
    makespan: float
    censored: bool
    ideal_time: float
    slowdown: float
    credits_spent: float
    workers_launched: int


def _tenant_outcome(service: SpeQuloS, sub: TenantSubmission,
                    horizon: float, cls: Type = TenantOutcome,
                    **extra) -> TenantOutcome:
    """Collect one admitted tenant's outcome (settling its accounts)."""
    run = service.run_for(sub.bot_id)
    service.scheduler.finalize(run)  # settle accounts if censored
    mon = service.monitor(sub.bot_id)
    profile, censored = _observed_profile(mon, horizon)
    order = service.credits.get_order(sub.bot_id)
    return cls(
        user=sub.user, bot_id=sub.bot_id, category=sub.bot.category,
        arrival=sub.arrival, deadline=sub.deadline, n_tasks=sub.bot.size,
        makespan=profile.makespan, censored=censored,
        ideal_time=ideal_completion_time(profile),
        slowdown=tail_slowdown(profile),
        credits_spent=order.spent if order is not None else 0.0,
        workers_launched=run.workers_launched, **extra)


def _unadmitted_outcome(sub: TenantSubmission, horizon: float,
                        cls: Type = TenantOutcome, **extra) -> TenantOutcome:
    """A tenant never admitted before the horizon: fully censored."""
    span = max(0.0, horizon - sub.arrival)
    profile = CompletionProfile(np.full(sub.bot.size, span))
    return cls(
        user=sub.user, bot_id=sub.bot_id, category=sub.bot.category,
        arrival=sub.arrival, deadline=sub.deadline, n_tasks=sub.bot.size,
        makespan=profile.makespan, censored=True,
        ideal_time=ideal_completion_time(profile),
        slowdown=tail_slowdown(profile),
        credits_spent=0.0, workers_launched=0, **extra)


@dataclass
class MultiTenantResult:
    """Scenario-level outcome: per-tenant records + shared accounting."""

    config: MultiTenantConfig
    tenants: List[TenantOutcome]
    pool_provisioned: float
    pool_spent: float
    #: peak number of simultaneously alive Cloud workers (arbitration
    #: must keep this within the configured global budget)
    workers_peak: int
    events: int
    wall_seconds: float

    @property
    def slowdowns(self) -> np.ndarray:
        return np.asarray([t.slowdown for t in self.tenants])

    @property
    def makespans(self) -> np.ndarray:
        return np.asarray([t.makespan for t in self.tenants])

    @property
    def censored_count(self) -> int:
        return sum(1 for t in self.tenants if t.censored)

    @property
    def slowdown_spread(self) -> float:
        """Max/min per-tenant slowdown — the arbitration fairness
        figure of merit (1.0 = perfectly even service)."""
        return max_min_ratio(self.slowdowns)

    @property
    def fairness(self) -> float:
        """Jain's index over per-tenant slowdowns."""
        return jain_fairness_index(self.slowdowns)

    @property
    def pool_used_pct(self) -> float:
        if self.pool_provisioned <= 0:
            return 0.0
        return 100.0 * self.pool_spent / self.pool_provisioned


def run_multi_tenant(cfg: MultiTenantConfig) -> MultiTenantResult:
    """Simulate N concurrent tenants sharing one DCI, Cloud and pool.

    One simulation hosts every tenant: BoTs are QoS-registered and
    submitted at their arrival instants, all bill the same credit pool,
    and the configured :class:`~repro.core.scheduler.CloudArbiter`
    polices the shared worker budget.  The run stops when every BoT
    completes (or at the horizon — stragglers are censored).
    """
    wall0 = time.perf_counter()
    horizon = cfg.horizon

    arbiter = CloudArbiter(cfg.policy,
                           max_total_workers=cfg.max_total_workers)
    harness = ScenarioHarness(horizon, arbiter=arbiter)
    dci = harness.build_dci(cfg.env_name(), cfg.trace, cfg.middleware,
                            cfg.seed, cfg.node_cap(),
                            provider=cfg.provider)
    service = harness.service

    combo = _resolve_combo(cfg.strategy, cfg.strategy_threshold)
    tenants = generate_tenants(
        np.random.default_rng([cfg.seed, 0x7E7]), cfg.n_tenants,
        categories=cfg.categories,
        rate_per_hour=cfg.arrival_rate_per_hour,
        arrivals=cfg.arrivals, bot_size=cfg.bot_size,
        deadline_factor=cfg.deadline_factor)

    total_cpu_hours = sum(sub.bot.workload_cpu_hours for sub in tenants)
    provision = cfg.pool_fraction * total_cpu_hours * CREDITS_PER_CPU_HOUR
    pool_id = f"pool-{cfg.seed}"
    service.credits.deposit("tenants", provision)
    service.open_qos_pool(pool_id, "tenants", provision,
                          expected_members=cfg.n_tenants)

    harness.stop_when_complete(sub.bot_id for sub in tenants)

    def _admit(sub: TenantSubmission) -> None:
        harness.admit_pooled(sub, cfg.env_name(), combo, pool_id)

    for sub in tenants:
        if sub.arrival < horizon:
            harness.sim.at(sub.arrival, _admit, sub)
    harness.run()

    outcomes: List[TenantOutcome] = []
    for sub in tenants:
        if sub.bot_id not in service.scheduler.runs:
            outcomes.append(_unadmitted_outcome(sub, horizon))
        else:
            outcomes.append(_tenant_outcome(service, sub, horizon))

    spent, _refund = service.credits.close_pool(pool_id)
    return MultiTenantResult(
        config=cfg, tenants=outcomes,
        pool_provisioned=provision, pool_spent=spent,
        workers_peak=dci.driver.peak_concurrency(),
        events=harness.sim.events_processed,
        wall_seconds=time.perf_counter() - wall0)


# ---------------------------------------------------------------------------
# federated scenarios (one SpeQuloS over many DCIs and clouds, §5 Fig. 8)
# ---------------------------------------------------------------------------
@dataclass
class FederatedTenantOutcome(TenantOutcome):
    """A tenant's outcome plus the DCI its BoT was routed to."""

    #: resolved DCI name, or "-" when never admitted before the horizon
    dci: str = "-"
    #: admission verdict on the QoS order ("granted" | "rejected" |
    #: "deferred"; "-" when the tenant never arrived before the horizon)
    admission: str = "granted"


@dataclass
class DCIOutcome:
    """Per-DCI accounting of one federated scenario."""

    name: str
    trace: str
    middleware: str
    provider: str
    #: tenants the router assigned here
    tenants_assigned: int
    #: tasks the DG server completed (DG + Flat/Reschedule cloud paths)
    completions: int
    #: tasks executed by this DCI's cloud workers (all deploy modes)
    cloud_tasks: int
    workers_launched: int
    #: peak concurrently alive workers on this DCI's cloud
    workers_peak: int
    cloud_cpu_hours: float
    #: credits the runs routed here billed (economics plane: the
    #: per-cloud slice of the pool's spend)
    credits_spent: float = 0.0
    #: the provider's effective rate in the scenario's price book
    #: (quoted at t=0 for time-varying books)
    price_per_cpu_hour: float = CREDITS_PER_CPU_HOUR


@dataclass
class FederatedResult:
    """Federated scenario outcome: per-tenant + per-DCI accounting."""

    config: ScenarioConfig
    tenants: List[FederatedTenantOutcome]
    dcis: List[DCIOutcome]
    pool_provisioned: float
    pool_spent: float
    #: exact peak of concurrently alive cloud workers over every cloud
    #: (arbitration must keep this within the global worker budget)
    workers_peak: int
    events: int
    wall_seconds: float

    @property
    def slowdowns(self) -> np.ndarray:
        return np.asarray([t.slowdown for t in self.tenants])

    @property
    def censored_count(self) -> int:
        return sum(1 for t in self.tenants if t.censored)

    @property
    def slowdown_spread(self) -> float:
        """Max/min per-tenant slowdown across the whole federation —
        the cross-DCI fairness figure of merit (routing + arbitration
        together)."""
        return max_min_ratio(self.slowdowns)

    @property
    def fairness(self) -> float:
        """Jain's index over per-tenant slowdowns."""
        return jain_fairness_index(self.slowdowns)

    @property
    def pool_used_pct(self) -> float:
        if self.pool_provisioned <= 0:
            return 0.0
        return 100.0 * self.pool_spent / self.pool_provisioned

    def credits_by_provider(self) -> Dict[str, float]:
        """Pool spend split per cloud provider (economics plane view);
        DCIs sharing a provider accumulate into one bucket."""
        out: Dict[str, float] = {}
        for d in self.dcis:
            out[d.provider] = out.get(d.provider, 0.0) + d.credits_spent
        return out

    def tenants_on(self, dci_name: str) -> List[FederatedTenantOutcome]:
        return [t for t in self.tenants if t.dci == dci_name]

    def admission_counts(self) -> Dict[str, int]:
        """Verdict histogram over the tenants that arrived in time."""
        out: Dict[str, int] = {}
        for t in self.tenants:
            if t.admission != "-":
                out[t.admission] = out.get(t.admission, 0) + 1
        return out


def run_federated(cfg: ScenarioConfig) -> FederatedResult:
    """Simulate N tenants over a federation of DCIs and clouds.

    One simulation hosts everything: each DCI realizes its own trace
    (independent RNG stream per DCI index), the routing policy assigns
    every arriving BoT to a DCI, and a single
    :class:`~repro.core.scheduler.CloudArbiter` rations the global
    worker budget, the optional per-DCI caps and the one shared credit
    pool across all bindings.

    The scenario's history plane (``cfg.history``: fresh in-memory by
    default, the shared persistent archive on request) feeds the
    Oracle's α calibration, the history-driven routing policies and
    — when ``cfg.admission`` is set — the admission controller gating
    pooled QoS orders on predicted credit cost.
    """
    wall0 = time.perf_counter()
    horizon = cfg.horizon

    names = cfg.dci_names()
    dci_caps = {name: spec.worker_cap
                for name, spec in zip(names, cfg.dcis)
                if spec.worker_cap is not None}
    plane = open_history_plane(cfg.history)
    controller = (AdmissionController(plane, mode=cfg.admission)
                  if cfg.admission is not None else None)
    arbiter = CloudArbiter(cfg.policy,
                           max_total_workers=cfg.max_total_workers,
                           max_dci_workers=cfg.max_dci_workers,
                           dci_caps=dci_caps,
                           admission=controller)
    # the scenario's economy: per-provider rates from the declarative
    # price map (None entries → the paper's uniform rate) feed the
    # billing meter, admission forecasts and cost-aware routing
    book = PriceBook.from_pairs(cfg.price_map().items())
    harness = ScenarioHarness(horizon, arbiter=arbiter, history=plane,
                              pricebook=book)
    for i, spec in enumerate(cfg.dcis):
        harness.build_dci(names[i], spec.trace, spec.middleware, cfg.seed,
                          cfg.node_cap_for(spec), provider=spec.provider,
                          stream=(i,))
    service = harness.service

    combo = _resolve_combo(cfg.strategy, cfg.strategy_threshold)
    tenants = generate_tenants(
        np.random.default_rng([cfg.seed, 0x7E7]), cfg.n_tenants,
        categories=cfg.categories,
        rate_per_hour=cfg.arrival_rate_per_hour,
        arrivals=cfg.arrivals, bot_size=cfg.bot_size,
        deadline_factor=cfg.deadline_factor)

    total_cpu_hours = sum(sub.bot.workload_cpu_hours for sub in tenants)
    provision = cfg.pool_fraction * total_cpu_hours * CREDITS_PER_CPU_HOUR
    pool_id = f"fedpool-{cfg.seed}"
    service.credits.deposit("tenants", provision)
    service.open_qos_pool(pool_id, "tenants", provision,
                          expected_members=cfg.n_tenants)

    harness.stop_when_complete(sub.bot_id for sub in tenants)

    router = make_router(cfg.routing, affinity=cfg.affinity_map(),
                         plane=plane, pricebook=book)
    targets = harness.routing_targets()
    routed: Dict[str, str] = {}
    admissions: Dict[str, str] = {}

    def _admit(sub: TenantSubmission) -> None:
        index = router.route(sub.bot.category, targets, harness.sim.now)
        dci_name = targets[index].name
        routed[sub.bot_id] = dci_name
        admissions[sub.bot_id] = harness.admit_pooled(sub, dci_name,
                                                     combo, pool_id)

    for sub in tenants:
        if sub.arrival < horizon:
            harness.sim.at(sub.arrival, _admit, sub)
    harness.run()

    outcomes: List[FederatedTenantOutcome] = []
    for sub in tenants:
        if sub.bot_id not in service.scheduler.runs:
            outcomes.append(_unadmitted_outcome(
                sub, horizon, cls=FederatedTenantOutcome,
                admission="-"))
        else:
            outcomes.append(_tenant_outcome(
                service, sub, horizon, cls=FederatedTenantOutcome,
                dci=routed[sub.bot_id],
                admission=admissions[sub.bot_id]))

    dci_outcomes: List[DCIOutcome] = []
    for name, spec in zip(names, cfg.dcis):
        dci = harness.dcis[name]
        runs = harness.runs_for_server(dci.server)
        dci_outcomes.append(DCIOutcome(
            name=name, trace=spec.trace, middleware=spec.middleware,
            provider=spec.provider,
            tenants_assigned=sum(1 for d in routed.values() if d == name),
            completions=dci.server.stats.completions,
            cloud_tasks=harness.cloud_task_count(name),
            workers_launched=sum(r.workers_launched for r in runs),
            workers_peak=dci.driver.peak_concurrency(),
            cloud_cpu_hours=dci.driver.total_cpu_hours(),
            # a BoT bills only while on its routed DCI, so per-run
            # order spend sums to this DCI's slice of the pool
            credits_spent=sum(service.credits.spent(r.bot_id)
                              for r in runs),
            price_per_cpu_hour=book.rate(spec.provider, 0.0)))

    spent, _refund = service.credits.close_pool(pool_id)
    return FederatedResult(
        config=cfg, tenants=outcomes, dcis=dci_outcomes,
        pool_provisioned=provision, pool_spent=spent,
        workers_peak=harness.workers_peak(),
        events=harness.sim.events_processed,
        wall_seconds=time.perf_counter() - wall0)


# ---------------------------------------------------------------------------
def run_execution_with_middleware(cfg: ExecutionConfig,
                                  delay_bound: Optional[float] = None,
                                  worker_timeout: Optional[float] = None,
                                  **kwargs) -> ExecutionResult:
    """Ablation entry point: run with overridden middleware knobs."""
    if cfg.middleware == "boinc":
        from repro.middleware.boinc import BoincConfig
        base = BoincConfig()
        mw_cfg = BoincConfig(
            target_nresults=kwargs.get("target_nresults",
                                       base.target_nresults),
            min_quorum=kwargs.get("min_quorum", base.min_quorum),
            delay_bound=delay_bound if delay_bound is not None
            else base.delay_bound,
            one_result_per_user_per_wu=kwargs.get(
                "one_result_per_user_per_wu",
                base.one_result_per_user_per_wu))
    else:
        from repro.middleware.xwhep import XWHepConfig
        base = XWHepConfig()
        mw_cfg = XWHepConfig(
            keep_alive_period=kwargs.get("keep_alive_period",
                                         base.keep_alive_period),
            worker_timeout=worker_timeout if worker_timeout is not None
            else base.worker_timeout)
    return run_execution(cfg, middleware_config=mw_cfg)


# ---------------------------------------------------------------------------
def run_campaign(configs: Sequence[object], n_jobs: Optional[int] = None,
                 store: object = "default",
                 progress: Optional[object] = None) -> List[object]:
    """Run many executions through the campaign engine.

    Thin wrapper over
    :class:`~repro.campaign.executor.CampaignExecutor`: configs already
    in the content-addressed store are answered from it, the rest are
    sharded by trace realization over a process pool (falling back to
    serial execution if the pool cannot start or breaks mid-run), and
    every finished result is persisted so interrupted campaigns resume.

    Accepts :class:`ExecutionConfig`, :class:`MultiTenantConfig`,
    :class:`ScenarioConfig` and
    :class:`~repro.deployment.edgi.EDGIConfig` entries (mixed freely);
    results come back in input order.  ``n_jobs=None`` defers to
    ``REPRO_JOBS`` / the machine size; ``store=None`` bypasses caching.
    """
    from repro.campaign.executor import CampaignExecutor
    return CampaignExecutor(store=store, n_jobs=n_jobs,
                            progress=progress).run(configs)
