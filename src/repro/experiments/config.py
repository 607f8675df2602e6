"""Execution configuration and campaign scaling.

One :class:`ExecutionConfig` = one simulated BoT execution.  The
``seed`` drives four independent RNG streams (trace realization, node
pool shuffling, workload draw, cloud worker powers), so two configs
differing only in ``strategy`` replay the *same* environment — the
paper's paired with/without-SpeQuloS protocol ("using the same seed
value allows a fair comparison", §4.1.3).

Campaign scaling: the paper simulated >25 000 executions on a cluster;
a laptop benchmark run cannot.  :class:`CampaignScale` shrinks BoT
sizes and seed counts proportionally (``quick``, the default) or keeps
the paper's sizes (``full``, selected with ``REPRO_SCALE=full``).
Scaling the BoT preserves every *relative* quantity the figures report
(tail slowdown, TRE, credit percentages) because tasks stay identical
(same nops) — only their count changes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.cloud.registry import PROVIDER_NAMES
from repro.core.admission import ADMISSION_MODES
from repro.core.routing import ROUTING_POLICIES
from repro.core.scheduler import ARBITRATION_POLICIES
from repro.history import HISTORY_MODES
from repro.infra.catalog import TRACE_NAMES, get_trace_spec
from repro.middleware import MIDDLEWARE_NAMES
from repro.workload.categories import BOT_CATEGORIES

__all__ = ["DCISpec", "ExecutionConfig", "MultiTenantConfig",
           "ScenarioConfig", "CampaignScale", "get_scale", "SCALES"]

#: hard ceiling on materialized trace nodes per execution — above this
#: extra nodes only deepen the idle pool (DESIGN.md §4)
HARD_NODE_CAP = 4000


def _category_size(category: str, override: Optional[int]) -> int:
    """Nominal task count of one BoT (RANDOM uses its mean)."""
    if override is not None:
        return override
    cat = BOT_CATEGORIES[category.upper()]
    if cat.size is not None:
        return cat.size
    return int(cat.size_normal[0])  # type: ignore[index]


def _auto_node_cap(trace: str, middleware: str, expected_tasks: int) -> int:
    """Materialized node count for one DCI.

    1.3x the peak concurrent demand (task replicas), bounded by the
    trace's natural size and a hard ceiling; extra nodes beyond the
    peak demand never receive work and only slow the simulation.
    Gated traces only field ~participation of their population at any
    instant, so the cap is raised to keep the same effective worker
    supply.
    """
    replicas = expected_tasks * (3 if middleware == "boinc" else 1)
    spec = get_trace_spec(trace)
    cap = max(64, math.ceil(1.3 * replicas / spec.participation))
    return min(cap, spec.natural_node_count(), HARD_NODE_CAP)


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything needed to reproduce one BoT execution."""

    trace: str
    middleware: str
    category: str
    seed: int
    #: strategy combination name ("9C-C-R", ...) or None = no SpeQuloS
    strategy: Optional[str] = None
    #: trigger fraction of the threshold when-policies (paper: 0.9)
    strategy_threshold: float = 0.9
    #: credits worth this fraction of the BoT workload (paper: 10 %)
    credit_fraction: float = 0.10
    #: task-count override (campaign scaling); None = Table 3 size
    bot_size: Optional[int] = None
    #: materialized node cap; None = automatic (see node_cap())
    max_nodes: Optional[int] = None
    horizon_days: float = 15.0
    provider: str = "simulation"

    def __post_init__(self) -> None:
        if self.trace not in TRACE_NAMES:
            raise ValueError(f"unknown trace {self.trace!r}")
        if self.middleware not in MIDDLEWARE_NAMES:
            raise ValueError(f"unknown middleware {self.middleware!r}")
        if self.category.upper() not in BOT_CATEGORIES:
            raise ValueError(f"unknown BoT category {self.category!r}")
        if not 0.0 < self.credit_fraction <= 1.0:
            raise ValueError("credit_fraction must be in (0, 1]")
        if self.horizon_days <= 0:
            raise ValueError("horizon_days must be positive")

    # ------------------------------------------------------------------
    def with_strategy(self, strategy: Optional[str],
                      threshold: float = 0.9) -> "ExecutionConfig":
        """The paired configuration with a (different) SpeQuloS setup."""
        return replace(self, strategy=strategy,
                       strategy_threshold=threshold)

    def with_credit_fraction(self, fraction: float) -> "ExecutionConfig":
        return replace(self, credit_fraction=fraction)

    @property
    def horizon(self) -> float:
        return self.horizon_days * 86400.0

    def expected_size(self) -> int:
        """Nominal task count (RANDOM uses its mean)."""
        return _category_size(self.category, self.bot_size)

    def node_cap(self) -> int:
        """Materialized node count for this execution (see
        :func:`_auto_node_cap`)."""
        if self.max_nodes is not None:
            return self.max_nodes
        return _auto_node_cap(self.trace, self.middleware,
                              self.expected_size())

    def env_name(self) -> str:
        """DCI label: trace + middleware (the history/prediction bucket
        together with the category)."""
        return f"{self.trace}-{self.middleware}"

    def label(self) -> str:
        strat = self.strategy or "nospeq"
        return (f"{self.trace}/{self.middleware}/{self.category}"
                f"/{strat}/s{self.seed}")


@dataclass(frozen=True)
class MultiTenantConfig:
    """One multi-tenant scenario: N users' BoTs sharing one BE-DCI,
    one Cloud supplement and one credit pool.

    The ``seed`` fixes the trace realization, the pool shuffle, the
    tenant stream (arrival instants + workload draws) and the cloud
    worker powers, so two configs differing only in ``policy`` replay
    the same contended environment — the multi-tenant analogue of the
    paper's paired-seed protocol (§4.1.3).
    """

    trace: str
    middleware: str
    seed: int
    n_tenants: int = 8
    #: cycled over tenants (deterministic category mix)
    categories: Tuple[str, ...] = ("SMALL",)
    strategy: str = "9C-C-R"
    strategy_threshold: float = 0.9
    #: arbitration policy: fifo | fairshare | deadline
    policy: str = "fairshare"
    #: Poisson arrival intensity (tenants per hour); ignored when
    #: ``arrivals`` pins explicit instants
    arrival_rate_per_hour: float = 2.0
    arrivals: Optional[Tuple[float, ...]] = None
    #: task-count override per BoT (campaign scaling)
    bot_size: Optional[int] = None
    #: pooled credits as a fraction of the aggregate declared workload
    pool_fraction: float = 0.10
    #: global cap on concurrently active Cloud workers (the limited
    #: supplement the tenants compete for); None = uncapped
    max_total_workers: Optional[int] = None
    #: when set, tenant deadlines = arrival + factor x declared
    #: workload (feeds the deadline-proximity policy)
    deadline_factor: Optional[float] = None
    horizon_days: float = 15.0
    provider: str = "simulation"
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trace not in TRACE_NAMES:
            raise ValueError(f"unknown trace {self.trace!r}")
        if self.middleware not in MIDDLEWARE_NAMES:
            raise ValueError(f"unknown middleware {self.middleware!r}")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if not self.categories:
            raise ValueError("categories must be non-empty")
        for cat in self.categories:
            if cat.upper() not in BOT_CATEGORIES:
                raise ValueError(f"unknown BoT category {cat!r}")
        if self.policy not in ARBITRATION_POLICIES:
            raise ValueError(f"unknown arbitration policy {self.policy!r}")
        if self.arrival_rate_per_hour <= 0:
            raise ValueError("arrival_rate_per_hour must be positive")
        if self.arrivals is not None and len(self.arrivals) != self.n_tenants:
            raise ValueError("arrivals must list one instant per tenant")
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ValueError("pool_fraction must be in (0, 1]")
        if self.horizon_days <= 0:
            raise ValueError("horizon_days must be positive")

    # ------------------------------------------------------------------
    def with_policy(self, policy: str) -> "MultiTenantConfig":
        """The paired scenario under a different arbitration policy."""
        return replace(self, policy=policy)

    @property
    def horizon(self) -> float:
        return self.horizon_days * 86400.0

    def expected_total_size(self) -> int:
        """Nominal aggregate task count across the tenant stream."""
        return sum(
            _category_size(self.categories[i % len(self.categories)],
                           self.bot_size)
            for i in range(self.n_tenants))

    def node_cap(self) -> int:
        """Materialized node count — same rule as
        :meth:`ExecutionConfig.node_cap`, sized for the aggregate
        concurrent demand of all tenants."""
        if self.max_nodes is not None:
            return self.max_nodes
        return _auto_node_cap(self.trace, self.middleware,
                              self.expected_total_size())

    def env_name(self) -> str:
        return f"{self.trace}-{self.middleware}"

    def label(self) -> str:
        cats = "+".join(c.upper() for c in self.categories)
        return (f"{self.trace}/{self.middleware}/{cats}"
                f"/x{self.n_tenants}/{self.policy}/s{self.seed}")


@dataclass(frozen=True)
class DCISpec:
    """One BE-DCI of a federated scenario, declaratively.

    A spec names the environment (trace + middleware), the cloud
    provider that supplements it, and optional caps: ``max_nodes``
    bounds the materialized trace realization, ``worker_cap`` bounds
    the concurrently active cloud workers the arbiter may grant runs
    bound to this DCI (overriding the scenario-wide
    ``max_dci_workers``).  ``price`` quotes this DCI's provider in
    credits per CPU·hour, overriding the scenario price book for that
    provider (None: the book's — ultimately the paper's uniform —
    rate).
    """

    trace: str
    middleware: str
    provider: str = "simulation"
    #: DCI label; None derives ``dci<i>-<trace>-<middleware>``
    name: Optional[str] = None
    max_nodes: Optional[int] = None
    worker_cap: Optional[int] = None
    #: credits/CPU·h of this DCI's provider (economics plane override)
    price: Optional[float] = None

    def __post_init__(self) -> None:
        if self.trace not in TRACE_NAMES:
            raise ValueError(f"unknown trace {self.trace!r}")
        if self.middleware not in MIDDLEWARE_NAMES:
            raise ValueError(f"unknown middleware {self.middleware!r}")
        if self.provider.lower() not in PROVIDER_NAMES:
            raise ValueError(f"unknown cloud provider {self.provider!r}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1 or None")
        if self.worker_cap is not None and self.worker_cap < 1:
            raise ValueError("worker_cap must be >= 1 or None")
        if self.price is not None and self.price <= 0:
            raise ValueError("price must be positive or None")

    def resolved_name(self, index: int) -> str:
        return self.name or f"dci{index}-{self.trace}-{self.middleware}"


@dataclass(frozen=True)
class ScenarioConfig:
    """One federated scenario: N tenants' BoTs over N DCIs and clouds.

    The paper's headline deployment (§5, Figure 8): one SpeQuloS
    instance serving several BE-DCIs, each backed by its own cloud.  A
    routing policy (:mod:`repro.core.routing`) assigns each arriving
    BoT to a DCI; one :class:`~repro.core.scheduler.CloudArbiter`
    polices a single global worker budget and one shared credit pool
    across every binding.

    The ``seed`` fixes every DCI's trace realization (independent
    streams per DCI index), the pool shuffles, the tenant stream and
    the cloud worker powers, so two configs differing only in
    ``routing`` or ``policy`` replay the same federated environment —
    the cross-DCI analogue of the paper's paired-seed protocol
    (§4.1.3).
    """

    dcis: Tuple[DCISpec, ...]
    seed: int
    n_tenants: int = 8
    #: cycled over tenants (deterministic category mix)
    categories: Tuple[str, ...] = ("SMALL",)
    strategy: str = "9C-C-R"
    strategy_threshold: float = 0.9
    #: cloud arbitration policy: fifo | fairshare | deadline
    policy: str = "fairshare"
    #: BoT→DCI routing policy: round_robin | least_loaded | affinity
    routing: str = "round_robin"
    #: category→DCI-name pins for affinity routing ((category, name)
    #: pairs; unmapped categories fall back to round robin)
    affinity: Optional[Tuple[Tuple[str, str], ...]] = None
    arrival_rate_per_hour: float = 2.0
    arrivals: Optional[Tuple[float, ...]] = None
    bot_size: Optional[int] = None
    #: pooled credits as a fraction of the aggregate declared workload
    pool_fraction: float = 0.10
    #: global cap on concurrently active cloud workers over all DCIs
    max_total_workers: Optional[int] = None
    #: uniform per-DCI worker cap (DCISpec.worker_cap overrides)
    max_dci_workers: Optional[int] = None
    deadline_factor: Optional[float] = None
    horizon_days: float = 15.0
    #: execution-history backend feeding the Oracle, the history-fed
    #: routing policies and admission control: None/"memory" = a fresh
    #: in-memory archive per run (the default — results stay pure
    #: functions of the config), "persistent" = the shared cross-run
    #: archive next to the campaign store (REPRO_HISTORY overrides its
    #: path).  NOTE: a persistent-history run depends on the archive's
    #: state, so the campaign store records whatever the *first*
    #: execution of the config observed.
    history: Optional[str] = None
    #: admission control on pooled QoS orders: None = admit everyone,
    #: "reject" = drop orders whose plane-predicted credit cost
    #: exceeds the pool's uncommitted remainder (the BoT still runs
    #: best-effort), "defer" = retry such orders periodically
    admission: Optional[str] = None
    #: scenario price book as hashable (provider, credits/CPU·h)
    #: pairs; providers absent from the pairs (and None, the default)
    #: quote the paper's uniform rate — default scenarios stay
    #: bit-identical to the fixed-exchange-rate economy.  Per-DCI
    #: ``DCISpec.price`` entries override their provider's pair.
    pricing: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dcis", tuple(self.dcis))
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.affinity is not None:
            object.__setattr__(self, "affinity",
                               tuple((c, d) for c, d in self.affinity))
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", tuple(self.arrivals))
        if not self.dcis:
            raise ValueError("a federated scenario needs at least one DCI")
        names = self.dci_names()
        if len(set(names)) != len(names):
            raise ValueError(f"DCI names must be unique, got {names}")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if not self.categories:
            raise ValueError("categories must be non-empty")
        for cat in self.categories:
            if cat.upper() not in BOT_CATEGORIES:
                raise ValueError(f"unknown BoT category {cat!r}")
        if self.policy not in ARBITRATION_POLICIES:
            raise ValueError(f"unknown arbitration policy {self.policy!r}")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.routing!r}")
        for cat, dci in self.affinity or ():
            if cat.upper() not in BOT_CATEGORIES:
                raise ValueError(f"unknown BoT category {cat!r} in affinity")
            if dci not in names:
                raise ValueError(f"affinity target {dci!r} is not a DCI "
                                 f"of this scenario ({names})")
        if self.arrival_rate_per_hour <= 0:
            raise ValueError("arrival_rate_per_hour must be positive")
        if self.arrivals is not None and len(self.arrivals) != self.n_tenants:
            raise ValueError("arrivals must list one instant per tenant")
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ValueError("pool_fraction must be in (0, 1]")
        if (self.max_total_workers is not None
                and self.max_total_workers < 1):
            raise ValueError("max_total_workers must be >= 1 or None")
        if self.max_dci_workers is not None and self.max_dci_workers < 1:
            raise ValueError("max_dci_workers must be >= 1 or None")
        if self.horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        if self.history is not None and self.history not in HISTORY_MODES:
            raise ValueError(f"unknown history mode {self.history!r}; "
                             f"available: {', '.join(HISTORY_MODES)}")
        if self.admission is not None \
                and self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.admission!r}; "
                f"available: {', '.join(ADMISSION_MODES)}")
        if self.pricing is not None:
            object.__setattr__(self, "pricing",
                               tuple((p, float(r)) for p, r in self.pricing))
            for provider, rate in self.pricing:
                if provider.lower() not in PROVIDER_NAMES:
                    raise ValueError(f"unknown cloud provider "
                                     f"{provider!r} in pricing")
                if rate <= 0:
                    raise ValueError(f"pricing rate for {provider!r} "
                                     f"must be positive")
        seen_prices: dict = {}
        for spec in self.dcis:
            if spec.price is None:
                continue
            key = spec.provider.lower()
            if key in seen_prices and seen_prices[key] != spec.price:
                raise ValueError(
                    f"conflicting DCISpec prices for provider {key!r}: "
                    f"{seen_prices[key]} vs {spec.price} (pricing is "
                    f"per provider)")
            seen_prices[key] = spec.price

    # ------------------------------------------------------------------
    def with_routing(self, routing: str) -> "ScenarioConfig":
        """The paired scenario under a different routing policy."""
        return replace(self, routing=routing)

    def with_policy(self, policy: str) -> "ScenarioConfig":
        """The paired scenario under a different arbitration policy."""
        return replace(self, policy=policy)

    def with_admission(self, admission: Optional[str]) -> "ScenarioConfig":
        """The paired scenario under a different admission mode."""
        return replace(self, admission=admission)

    def with_pricing(self, pricing) -> "ScenarioConfig":
        """The paired scenario under a different price book."""
        return replace(self, pricing=tuple(pricing)
                       if pricing is not None else None)

    def price_map(self) -> dict:
        """Effective per-provider rates (lower-cased provider →
        credits/CPU·h): scenario ``pricing`` pairs first, per-DCI
        ``DCISpec.price`` overrides on top.  Empty = uniform paper
        economy."""
        rates = {p.lower(): r for p, r in self.pricing or ()}
        for spec in self.dcis:
            if spec.price is not None:
                rates[spec.provider.lower()] = spec.price
        return rates

    @property
    def horizon(self) -> float:
        return self.horizon_days * 86400.0

    def dci_names(self) -> Tuple[str, ...]:
        return tuple(spec.resolved_name(i)
                     for i, spec in enumerate(self.dcis))

    def affinity_map(self) -> dict:
        return {cat.upper(): dci for cat, dci in self.affinity or ()}

    def expected_total_size(self) -> int:
        """Nominal aggregate task count across the tenant stream."""
        return sum(
            _category_size(self.categories[i % len(self.categories)],
                           self.bot_size)
            for i in range(self.n_tenants))

    def node_cap_for(self, spec: DCISpec) -> int:
        """Materialized node count for one DCI of the federation.

        Sized for the *aggregate* demand: affinity (and a pathological
        least-loaded run) may route every tenant to the same DCI, so
        each realization must be able to absorb the whole stream.
        ``DCISpec.max_nodes`` takes precedence (the EDGI preset bounds
        XW@LRI to 200 nodes, as the paper does).
        """
        if spec.max_nodes is not None:
            return spec.max_nodes
        return _auto_node_cap(spec.trace, spec.middleware,
                              self.expected_total_size())

    def label(self) -> str:
        cats = "+".join(c.upper() for c in self.categories)
        # priced scenarios are labelled so store rows and report
        # tables distinguish them from the uniform-economy pair
        priced = "/priced" if self.price_map() else ""
        return (f"fed{len(self.dcis)}/{self.routing}/{self.policy}"
                f"/{cats}/x{self.n_tenants}{priced}/s{self.seed}")


@dataclass(frozen=True)
class CampaignScale:
    """Campaign sizing knobs (quick vs full)."""

    name: str
    #: multiplies Table 3 BoT sizes (tasks keep their nops)
    size_factor: float
    #: executions (seeds) per environment for distribution figures
    seeds_per_env: int
    #: seeds for the heavy 18-combo strategy grid (Figures 4/5)
    seeds_strategy_grid: int

    def bot_size(self, category: str) -> Optional[int]:
        """Scaled task count for a category (None = unscaled)."""
        if self.size_factor >= 1.0:
            return None
        cat = BOT_CATEGORIES[category.upper()]
        base = cat.size if cat.size is not None \
            else int(cat.size_normal[0])  # type: ignore[index]
        return max(30, int(round(base * self.size_factor)))


SCALES = {
    "quick": CampaignScale(name="quick", size_factor=0.25,
                           seeds_per_env=3, seeds_strategy_grid=2),
    "full": CampaignScale(name="full", size_factor=1.0,
                          seeds_per_env=10, seeds_strategy_grid=4),
}


def get_scale(name: Optional[str] = None) -> CampaignScale:
    """Campaign scale from the argument or ``REPRO_SCALE`` (default
    ``quick``)."""
    key = (name or os.environ.get("REPRO_SCALE", "quick")).lower()
    try:
        return SCALES[key]
    except KeyError:
        raise KeyError(f"unknown scale {key!r}; available: "
                       f"{', '.join(SCALES)}") from None
