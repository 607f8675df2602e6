"""BoT-to-DCI routing policies for federated scenarios.

The paper's headline deployment (§5, Figure 8) runs *one* SpeQuloS
instance over several BE-DCIs backed by different clouds.  When a
federated scenario admits a stream of tenants, something has to decide
which DCI each arriving BoT is submitted to; this module provides that
decision as a small pluggable policy, mirroring how the arbitration
policies (:mod:`repro.core.scheduler`) ration the cloud side.

Five policies:

* ``round_robin`` — arrivals cycle over the DCIs in declaration order
  (the blind baseline; what the EDGI deployment's alternating
  submission loop does by hand);
* ``least_loaded`` — each arrival goes to the DCI with the lowest
  *live load ratio*: outstanding execution units (queued + running)
  divided by the live-worker count (busy workers plus currently
  available idle nodes).  A small volatile desktop grid therefore
  stops receiving BoTs once its few live workers are saturated while
  a large DCI keeps absorbing them.  When the router is built over a
  :class:`~repro.history.plane.HistoryPlane` with archived executions
  for every candidate, the probe upgrades to the plane's *smoothed
  throughput estimate* — outstanding work divided by the tasks/second
  the DCI historically sustained, i.e. the expected drain time —
  which sees through momentary idleness on a chronically slow grid.
  Instantaneous counts remain the fallback and the default;
* ``history_weighted`` — the drain-time estimate of ``least_loaded``
  over the plane, additionally weighted by the archived mean tail
  slowdown of *this BoT's category* on each DCI, so a DCI that is
  nominally fast but historically serves the category badly (long
  tails) is de-prioritized.  Cold environments weight 1.0; with no
  history at all the policy degrades to instantaneous least-loaded;
* ``affinity`` — a category→DCI map pins BoT classes to
  infrastructures (e.g. BIG BoTs to the stable cluster harvest, SMALL
  ones to the desktop grid); unmapped categories fall back to round
  robin over all DCIs.  ``skip_dead=True`` additionally releases a
  pin whose DCI currently has zero live workers (every node inside an
  unavailability interval) to the fallback instead of stalling the
  BoT behind a dead grid;
* ``affinity_learned`` — affinity without the hand-written map: the
  category→DCI pins are *fitted from the archive*, each category
  pinned to the candidate DCI with the lowest archived mean tail
  slowdown for that category.  Categories the plane has never seen
  fall back to round robin;
* ``cheapest_drain`` — cost-aware routing over the economics plane:
  score = ``(1 + drain_seconds) × rate`` where the rate is the
  credits/CPU·h the DCI's cloud provider quotes in the scenario's
  :class:`~repro.economics.pricing.PriceBook`.  Warm (archived
  throughput on every live candidate) the drain estimate is the
  plane's, exactly as ``history_weighted``; cold it *degrades to
  least_loaded's instantaneous load ratio* as the drain proxy — still
  price-weighted, so a cheap provider is preferred from the first
  arrival and a uniform book reproduces ``least_loaded``'s decisions
  exactly (a constant factor preserves the argmin and its ties).

Routers are tiny stateful objects (the round-robin cursor); one router
instance serves one scenario.  They rank *targets*: any object with a
``name`` and a ``server`` exposing the :class:`~repro.middleware.base.
DGServer` load probes (``busy_count``/``backlog``) and a ``pool`` with
``idle_count``.  The history-fed policies additionally take the
scenario's plane (duck-typed; only ``dci_throughput`` and
``dci_slowdown`` are called), which :func:`make_router` threads
through.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = ["ROUTING_POLICIES", "Router", "RoundRobinRouter",
           "LeastLoadedRouter", "HistoryWeightedRouter", "AffinityRouter",
           "LearnedAffinityRouter", "CheapestDrainRouter", "make_router"]

ROUTING_POLICIES = ("round_robin", "least_loaded", "history_weighted",
                    "affinity", "affinity_learned", "cheapest_drain")


class Router:
    """Base router: picks the index of the DCI an arriving BoT joins."""

    name = "base"

    def route(self, category: str, targets: Sequence, now: float) -> int:
        """Index into ``targets`` for a BoT of ``category`` arriving now."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle over the DCIs in declaration order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, category: str, targets: Sequence, now: float) -> int:
        if not targets:
            raise ValueError("no DCIs to route to")
        i = self._next % len(targets)
        self._next += 1
        return i


def _outstanding(target) -> int:
    """Outstanding execution units: busy workers plus queued backlog."""
    server = target.server
    return server.busy_count() + server.backlog()


def _drain_loads(targets: Sequence, plane,
                 now: float) -> Optional[List[float]]:
    """Expected drain seconds per target from the plane's smoothed
    throughput, or None unless *every* live target has usable history
    (a mixed instantaneous/historical ranking would compare unrelated
    units).  A target with zero live workers ranks as infinitely
    loaded regardless of its archived throughput — the dead-DCI
    invariant of the instantaneous probe carries over (history says
    how fast the DCI drains *when it has workers*; right now it has
    none)."""
    if plane is None:
        return None
    loads = []
    for target in targets:
        server = target.server
        if server.busy_count() + server.pool.idle_count(now) == 0:
            loads.append(math.inf)
            continue
        rate = plane.dci_throughput(target.name)
        if rate is None or rate <= 0:
            return None
        loads.append(_outstanding(target) / rate)
    return loads


class LeastLoadedRouter(Router):
    """Pick the DCI with the lowest outstanding-work / live-worker ratio.

    Live workers = workers currently executing a unit plus idle nodes
    currently inside an availability interval; outstanding work =
    queued pending units plus the busy ones.  A DCI with *no* live
    workers (every node in an unavailability interval) ranks as
    infinitely loaded — work sent there stalls until nodes return.
    Ties (e.g. every DCI idle) resolve to the earliest-declared DCI,
    which keeps the policy deterministic.

    With a history plane attached (and archived executions for every
    candidate) the ranking uses the smoothed-throughput drain estimate
    instead of the instantaneous live count; see the module docstring.
    """

    name = "least_loaded"

    def __init__(self, plane=None):
        self.plane = plane

    @staticmethod
    def load_of(target, now: float) -> float:
        server = target.server
        busy = server.busy_count()
        live = busy + server.pool.idle_count(now)
        if live == 0:
            return math.inf
        return (busy + server.backlog()) / live

    def route(self, category: str, targets: Sequence, now: float) -> int:
        if not targets:
            raise ValueError("no DCIs to route to")
        loads = _drain_loads(targets, self.plane, now)
        if loads is None:
            loads = [self.load_of(t, now) for t in targets]
        return int(min(range(len(targets)), key=loads.__getitem__))


class HistoryWeightedRouter(Router):
    """Drain-time routing weighted by per-category archived slowdown.

    Score of a DCI = ``(1 + drain_seconds) × slowdown(category)``:
    the expected time to drain its outstanding work at the throughput
    the plane archived, inflated by how badly (mean tail slowdown)
    the DCI historically served this BoT category.  Environments the
    plane has not seen weight 1.0; when no target has throughput
    history at all, the policy degrades to instantaneous least-loaded
    ranking (so a cold scenario behaves exactly like ``least_loaded``).
    """

    name = "history_weighted"

    def __init__(self, plane=None):
        self.plane = plane

    def route(self, category: str, targets: Sequence, now: float) -> int:
        if not targets:
            raise ValueError("no DCIs to route to")
        drains = _drain_loads(targets, self.plane, now)
        if drains is None:
            return LeastLoadedRouter().route(category, targets, now)
        scores = []
        for target, drain in zip(targets, drains):
            if math.isinf(drain):      # dead DCI: never preferred
                scores.append(math.inf)
                continue
            slowdown = self.plane.dci_slowdown(target.name, category)
            if slowdown is None or not math.isfinite(slowdown) \
                    or slowdown <= 0:
                slowdown = 1.0
            scores.append((1.0 + drain) * slowdown)
        return int(min(range(len(targets)), key=scores.__getitem__))


class AffinityRouter(Router):
    """Category→DCI pinning with a round-robin fallback.

    ``affinity`` maps upper-cased BoT categories to DCI *names*; a BoT
    whose category is unmapped (or mapped to a DCI absent from the
    scenario) falls back to round robin over every DCI.  With
    ``skip_dead=True`` a pin whose DCI has zero live workers at
    routing time also falls back (default off: the historical
    behavior honors the pin unconditionally).
    """

    name = "affinity"

    def __init__(self, affinity: Optional[Dict[str, str]] = None,
                 skip_dead: bool = False):
        self.affinity = {k.upper(): v for k, v in (affinity or {}).items()}
        self.skip_dead = skip_dead
        self._fallback = RoundRobinRouter()

    def route(self, category: str, targets: Sequence, now: float) -> int:
        if not targets:
            raise ValueError("no DCIs to route to")
        wanted = self.affinity.get(category.upper())
        if wanted is not None:
            for i, target in enumerate(targets):
                if target.name == wanted:
                    if self.skip_dead and math.isinf(
                            LeastLoadedRouter.load_of(target, now)):
                        break
                    return i
        return self._fallback.route(category, targets, now)


class LearnedAffinityRouter(Router):
    """Affinity pins fitted from the archive instead of hand-written.

    Each arrival's category is pinned to the candidate DCI with the
    lowest archived mean tail slowdown for that category (ties to the
    earliest-declared DCI); categories without history on any
    candidate fall back to round robin.  The fit is re-read per
    arrival, so the pins sharpen as the archive fills — the ROADMAP's
    "affinity learning" item.
    """

    name = "affinity_learned"

    def __init__(self, plane=None):
        self.plane = plane
        self._fallback = RoundRobinRouter()

    def route(self, category: str, targets: Sequence, now: float) -> int:
        if not targets:
            raise ValueError("no DCIs to route to")
        if self.plane is not None:
            best = None
            best_slowdown = math.inf
            for i, target in enumerate(targets):
                slowdown = self.plane.dci_slowdown(target.name, category)
                if slowdown is not None and slowdown < best_slowdown:
                    best, best_slowdown = i, slowdown
            if best is not None:
                return best
        return self._fallback.route(category, targets, now)


class CheapestDrainRouter(Router):
    """Cost-aware routing: expected drain time × provider price.

    Score of a DCI = ``(1 + drain) × rate``, with ``rate`` the
    credits/CPU·h its cloud provider quotes in the scenario's
    :class:`~repro.economics.pricing.PriceBook` and ``drain`` the
    plane's throughput-based estimate when every live candidate has
    history, else ``least_loaded``'s instantaneous load ratio (the
    cold degradation — see the module docstring).  A dead DCI (zero
    live workers) is never preferred whatever its price.  Targets
    without a ``driver`` (or an unpriced provider) are charged the
    book's default rate.
    """

    name = "cheapest_drain"

    def __init__(self, plane=None, pricebook=None):
        self.plane = plane
        if pricebook is None:
            from repro.economics.pricing import PriceBook
            pricebook = PriceBook()
        self.book = pricebook

    def _rate_of(self, target) -> float:
        driver = getattr(target, "driver", None)
        provider = getattr(driver, "name", None)
        if provider is None:
            return self.book.default
        return self.book.rate(provider)

    def route(self, category: str, targets: Sequence, now: float) -> int:
        if not targets:
            raise ValueError("no DCIs to route to")
        drains = _drain_loads(targets, self.plane, now)
        if drains is None:
            drains = [LeastLoadedRouter.load_of(t, now) for t in targets]
        scores = []
        for target, drain in zip(targets, drains):
            if math.isinf(drain):      # dead DCI: never preferred
                scores.append(math.inf)
                continue
            scores.append((1.0 + drain) * self._rate_of(target))
        return int(min(range(len(targets)), key=scores.__getitem__))


def make_router(policy: str,
                affinity: Optional[Dict[str, str]] = None,
                plane=None, pricebook=None) -> Router:
    """Instantiate a routing policy by name.

    ``plane`` (a :class:`~repro.history.plane.HistoryPlane`) feeds the
    history-driven policies and ``pricebook`` (a
    :class:`~repro.economics.pricing.PriceBook`) the cost-aware one;
    policies that ignore them accept them anyway so callers can thread
    the scenario's plane and book unconditionally.
    """
    if policy == "round_robin":
        return RoundRobinRouter()
    if policy == "least_loaded":
        # deliberately NOT plane-fed here: the named policy keeps its
        # historical instantaneous probes (drift-pinned scenarios);
        # construct LeastLoadedRouter(plane=...) directly — or pick
        # history_weighted — to opt into the throughput probe.
        return LeastLoadedRouter()
    if policy == "history_weighted":
        return HistoryWeightedRouter(plane=plane)
    if policy == "affinity":
        return AffinityRouter(affinity)
    if policy == "affinity_learned":
        return LearnedAffinityRouter(plane=plane)
    if policy == "cheapest_drain":
        return CheapestDrainRouter(plane=plane, pricebook=pricebook)
    raise ValueError(f"unknown routing policy {policy!r}; available: "
                     f"{', '.join(ROUTING_POLICIES)}")
