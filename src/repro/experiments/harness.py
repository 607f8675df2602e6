"""Scenario harness: the single world-assembly path for all executions.

Every execution family — single-BoT (:func:`~repro.experiments.runner.
run_execution`), multi-tenant (:func:`~repro.experiments.runner.
run_multi_tenant`), federated (:func:`~repro.experiments.runner.
run_federated`) and the EDGI deployment preset — used to assemble its
world by hand: synthesize trace realizations, wrap them in node pools,
stand up middleware servers, cloud drivers and one SpeQuloS service,
wire completion observers, and collect accounting afterwards.  The
:class:`ScenarioHarness` centralizes that assembly so the entry points
are thin specializations of one federated-capable path: N DCIs (each a
trace realization + middleware server + cloud driver), one lazily
created SpeQuloS over all of them, shared stop-on-completion watchers
and per-DCI accounting probes.

RNG discipline (drift-critical): every component draws from an
independent, explicitly labelled stream —

* trace realization   ``[seed, *stream, 0xACE]``
* node-pool shuffle   ``[seed, *stream, 0xB00]``
* cloud worker powers ``[seed, *stream, 0xC10]``

where ``stream`` is empty for single-DCI scenarios (bit-identical to
the historical layout) and ``(dci_index,)`` in a federation, so two
DCIs sharing a trace name still realize *different* environments.

World cache: :data:`TRACE_CACHE` is the process's one cache of
assembled worlds, a true LRU of :data:`CAPACITY` realizations keyed by
``(trace, (seed, *stream), cap, horizon)``.  Paired with/without runs,
the 18-combination strategy grid and every DCI of a federated sweep
replay the same environments, so each entry keeps what
:meth:`ScenarioHarness.build_dci` reuses: the realization's read-only
:class:`~repro.infra.columns.NodeColumns` template and its t=0 pool
filing, both made once on the miss.  The middleware, its config and
the cloud provider change neither, so BOINC and XWHEP DCIs over one
realization share one entry.  A miss first tries the content-addressed
on-disk :class:`~repro.experiments.trace_store.TraceStore` shared
across processes (memory-mapped, no regeneration), and fresh
realizations are archived on the way in, so `CampaignExecutor` shards
— keyed by ``(trace, seed)`` — land on warm entries by construction.
Hit/miss/eviction counters are kept on the cache object;
``disk_hits`` counts store promotions.  The template's columns are
**read-only** (a mutating consumer fails loudly instead of silently
corrupting every later execution sharing the realization); scan
cursors live outside them and are rebuilt per execution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.api import ComputeDriver, peak_concurrency
from repro.cloud.registry import get_driver
from repro.core.admission import DEFERRED, GRANTED
from repro.core.info import InformationModule
from repro.core.scheduler import CloudArbiter, SchedulerConfig
from repro.core.service import SpeQuloS
from repro.experiments.trace_store import default_trace_store
from repro.history import HistoryPlane
from repro.infra.catalog import get_trace_spec
from repro.infra.columns import NodeColumns
from repro.infra.pool import NodePool
from repro.middleware import resolve_server
from repro.middleware.base import DGServer
from repro.simulator.engine import Simulation

__all__ = ["CAPACITY", "World", "TraceCache", "TRACE_CACHE",
           "AssemblyCache", "ASSEMBLY_CACHE", "HarnessDCI", "ScenarioHarness"]


# ---------------------------------------------------------------------------
# world cache (per process, true LRU)
# ---------------------------------------------------------------------------
_TraceKey = Tuple[str, Tuple[int, ...], int, float]

#: worlds the cache keeps: all of one scenario's DCIs must fit, or a
#: sweep re-assembles every DCI for each config (a 12-DCI federation
#: swept over routings does)
CAPACITY = 16


class World(NamedTuple):
    """One cached realization: the shared columns template and its
    captured t=0 pool filing (None when the filing is not capturable,
    see :meth:`~repro.infra.pool.NodePool.capture_filing`)."""

    template: NodeColumns
    filing: Optional[dict]


class TraceCache:
    """The per-process LRU of assembled worlds (see module docstring)."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[_TraceKey, World]" = OrderedDict()
        self.hits = 0
        self.misses = 0       # may still be served by the on-disk store
        self.disk_hits = 0    # misses served by the on-disk store
        self.evictions = 0

    def skeleton(self, trace: str, seed: int, cap: int, horizon: float,
                 stream: Sequence[int] = ()) -> World:
        """The world of one trace realization.

        ``stream`` extends the RNG label (a federated scenario passes
        the DCI index so same-trace DCIs realize independently); the
        empty stream reproduces the historical single-DCI layout.
        """
        key = (trace, (seed, *stream), cap, horizon)
        world = self._entries.get(key)
        if world is not None:
            # LRU: a hit refreshes the entry so hot environments survive
            # campaign sweeps that touch more traces than the cache holds.
            self.hits += 1
            self._entries.move_to_end(key)
            return world
        self.misses += 1
        template = NodeColumns.from_flat(*self._materialize_miss(key))
        probe = NodePool(template.fresh())
        world = World(template, probe.capture_filing()
                      if probe.vector_filed else None)
        while len(self._entries) >= CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = world
        return world

    def materialize_columns(self, trace: str, seed: int, cap: int,
                            horizon: float,
                            stream: Sequence[int] = ()) -> NodeColumns:
        """One realization as a per-execution
        :meth:`~repro.infra.columns.NodeColumns.fresh` copy of its
        template: the columns zero-copy, its own cursor array."""
        return self.skeleton(trace, seed, cap, horizon,
                             stream).template.fresh()

    def _materialize_miss(self, key: _TraceKey) -> Tuple:
        """A miss: promote the flat arrays from the disk store, else
        generate and archive them (``NodeColumns.from_flat`` freezes
        them before any execution sees them)."""
        trace, (seed, *stream), cap, horizon = key
        store = default_trace_store()
        if store is not None:
            flat = store.load_flat(key)
            if flat is not None:
                self.disk_hits += 1
                return flat
        rng = np.random.default_rng([seed, *stream, 0xACE])
        flat = get_trace_spec(trace).materialize(rng, horizon, cap)
        if store is not None:
            try:
                store.save(key, flat)
            except OSError:
                pass  # a full/read-only disk must not fail the run
        return flat

    # ------------------------------------------------------------------
    def keys(self) -> List[_TraceKey]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def summary(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses "
                f"({self.disk_hits} from disk), "
                f"{self.evictions} evictions, {len(self)} entries "
                f"(cap {CAPACITY})")


#: process-wide cache shared by every runner entry point
TRACE_CACHE = TraceCache()

# Old names, kept while benchmarks/perf resolves and clears them (its
# tracer wraps ``AssemblyCache.skeleton``); they go with the next
# benchmark change, as do ``NodePool.acquire_many``/``ready_hint``.
AssemblyCache = TraceCache
ASSEMBLY_CACHE = TRACE_CACHE


# ---------------------------------------------------------------------------
@dataclass
class HarnessDCI:
    """One assembled BE-DCI: server over a node pool + supporting cloud.

    Doubles as a routing target (:mod:`repro.core.routing` reads
    ``name`` and the ``server`` load probes).
    """

    name: str
    server: DGServer
    driver: ComputeDriver
    pool: NodePool


class ScenarioHarness:
    """Builds and drives one simulated world of N DCIs + one SpeQuloS.

    The harness owns the :class:`Simulation` and the DCI registry;
    the SpeQuloS service is created lazily (plain-monitoring baselines
    never pay for one) and automatically connected to every DCI, in
    declaration order.  Entry points remain responsible for their own
    submission streams — the harness provides the shared verbs:
    :meth:`build_dci`/:meth:`add_dci` assembly, :meth:`admit_pooled`
    QoS admission, :meth:`stop_when_complete` watchers, and the
    accounting probes (:meth:`cloud_task_count`, :meth:`workers_peak`).
    """

    def __init__(self, horizon: float,
                 arbiter: Optional[CloudArbiter] = None,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 history=None, pricebook=None):
        self.sim = Simulation(horizon=horizon)
        self.arbiter = arbiter
        self.scheduler_config = scheduler_config
        #: the scenario's history plane: a fresh in-memory archive by
        #: default (bit-identical to the pre-plane behavior), or the
        #: shared persistent plane when the scenario opts in — the
        #: SpeQuloS Information module archives into it and the
        #: Oracle / routers / admission controller read through it
        self.history: HistoryPlane = HistoryPlane.ensure(history)
        #: the scenario's price book (economics plane): None keeps the
        #: paper's uniform exchange rate; the SpeQuloS billing meter
        #: and cost-aware routing read per-provider rates from it
        self.pricebook = pricebook
        self.dcis: "OrderedDict[str, HarnessDCI]" = OrderedDict()
        self._service: Optional[SpeQuloS] = None

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def add_dci(self, name: str, server: DGServer, driver: ComputeDriver,
                pool: Optional[NodePool] = None) -> HarnessDCI:
        """Register pre-built DCI parts (deployment presets build their
        own servers/pools to preserve historical RNG streams)."""
        if name in self.dcis:
            raise ValueError(f"DCI {name!r} already assembled")
        dci = HarnessDCI(name=name, server=server, driver=driver,
                         pool=pool if pool is not None else server.pool)
        self.dcis[name] = dci
        if self._service is not None:
            self._service.connect_dci(name, server, driver)
        return dci

    def build_dci(self, name: str, trace: str, middleware: str, seed: int,
                  cap: int, provider: str = "simulation",
                  stream: Sequence[int] = (),
                  middleware_config: Optional[object] = None) -> HarnessDCI:
        """Assemble one DCI from its declarative description.

        The pool is restored from the :data:`TRACE_CACHE` world's
        captured filing onto a fresh cursor copy of its template:
        structurally identical to filing it afresh (same draw-list
        order, same RNG streams), just without re-deriving anything.
        """
        server_cls = resolve_server(middleware)
        world = TRACE_CACHE.skeleton(trace, seed, cap, self.sim.horizon,
                                     stream)
        rng = np.random.default_rng([seed, *stream, 0xB00])
        if world.filing is not None:
            pool = NodePool.from_filing(world.template.fresh(),
                                        world.filing, rng=rng)
        else:  # degenerate trace: the filing isn't capturable
            pool = NodePool(world.template.fresh(), rng=rng)
        server = server_cls(self.sim, pool, config=middleware_config,
                            name=name)
        driver = get_driver(provider, self.sim,
                            rng=np.random.default_rng([seed, *stream, 0xC10]))
        return self.add_dci(name, server, driver, pool)

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    @property
    def service(self) -> SpeQuloS:
        """The SpeQuloS instance over every DCI (created on first use)."""
        if self._service is None:
            self._service = SpeQuloS(
                self.sim, info=InformationModule(store=self.history),
                arbiter=self.arbiter,
                scheduler_config=self.scheduler_config,
                pricebook=self.pricebook)
            for dci in self.dcis.values():
                self._service.connect_dci(dci.name, dci.server, dci.driver)
        return self._service

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def admit_pooled(self, sub, dci_name: str, combo,
                     pool_id: str) -> str:
        """Admit one tenant submission on a DCI against a shared pool.

        Returns the admission verdict: ``"granted"`` (a pooled QoS
        order is opened), or — when the arbiter carries an
        :class:`~repro.core.admission.AdmissionController` whose
        predicted cost exceeds the pool's uncommitted remainder —
        ``"rejected"`` (no order, the BoT runs best-effort) or
        ``"deferred"`` (the order is retried every ``retry_period``
        until the pool can cover it).  The BoT is registered
        (monitored) and submitted to its BE-DCI in every case.
        """
        service = self.service
        service.register_qos(sub.bot, dci_name, combo,
                             deadline=sub.deadline)
        ctrl = self.arbiter.admission if self.arbiter is not None else None
        verdict = GRANTED
        if ctrl is not None:
            pool = service.credits.get_pool(pool_id)
            env = service.env_key(dci_name, sub.bot.category)
            verdict = ctrl.evaluate(
                sub.bot_id, env, sub.bot.size, pool,
                credits=service.credits,
                provider=self.dcis[dci_name].driver.name).verdict
        if verdict == GRANTED:
            service.order_qos_pooled(sub.bot_id, pool_id)
        elif verdict == DEFERRED:
            self.sim.at(self.sim.now + ctrl.retry_period,
                        self._retry_deferred, sub, dci_name, pool_id)
        self.dcis[dci_name].server.submit_bot(sub.bot, at=self.sim.now)
        return verdict

    def _retry_deferred(self, sub, dci_name: str, pool_id: str) -> None:
        """Re-evaluate a deferred QoS claim; keep retrying until the
        pool covers it, the BoT completes, or the horizon ends."""
        service = self.service
        ctrl = self.arbiter.admission if self.arbiter is not None else None
        if ctrl is None:
            return
        pool = service.credits.get_pool(pool_id)
        if pool is None or pool.closed or service.monitor(sub.bot_id).done:
            return
        env = service.env_key(dci_name, sub.bot.category)
        decision = ctrl.evaluate(sub.bot_id, env, sub.bot.size, pool,
                                 credits=service.credits,
                                 provider=self.dcis[dci_name].driver.name)
        if decision.verdict == GRANTED:
            service.order_qos_pooled(sub.bot_id, pool_id)
        else:
            self.sim.at(self.sim.now + ctrl.retry_period,
                        self._retry_deferred, sub, dci_name, pool_id)

    def stop_when_complete(self, bot_ids: Iterable[str]) -> None:
        """Stop the simulation once every listed BoT has completed.

        One shared watcher is attached to every assembled server, so
        completions count no matter which DCI hosts the BoT.  The stop
        is terminal for the scenario, so a stop hook tears the servers
        down (cancelling dead dispatch wake-up timers) once the event
        loop has exited — transcript-invisible by construction, since
        post-stop events never execute.
        """
        pending = set(bot_ids)
        sim = self.sim

        class _StopWhenAllDone:
            def on_bot_completed(self, bot_id: str, t: float) -> None:
                pending.discard(bot_id)
                if not pending:
                    sim.stop()

        watcher = _StopWhenAllDone()
        for dci in self.dcis.values():
            dci.server.add_observer(watcher)
        sim.add_stop_hook(self._teardown_servers)

    def _teardown_servers(self) -> None:
        for dci in self.dcis.values():
            dci.server.teardown()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    # ------------------------------------------------------------------
    # accounting probes
    # ------------------------------------------------------------------
    def cloud_task_count(self, name: str) -> int:
        """Tasks executed by the DCI's cloud workers.

        Flat/Reschedule cloud assignments are counted by the server;
        Cloud-duplication completions are tracked per coordinator, so
        runs bound to this DCI's server contribute theirs.
        """
        dci = self.dcis[name]
        total = dci.server.stats.cloud_assignments
        if self._service is not None:
            for run in self._service.scheduler.runs.values():
                if run.server is dci.server and run.coordinator is not None:
                    total += run.coordinator.completions
        return total

    def workers_peak(self) -> int:
        """Exact peak of concurrently alive cloud workers, all clouds.

        One delta-sweep over every driver's concatenated history — the
        number a federation's *global* worker budget is checked
        against (summing per-driver peaks would over-count, since each
        cloud peaks at a different time).
        """
        drivers = [dci.driver for dci in self.dcis.values()]
        if not drivers:
            return 0
        return peak_concurrency(np.concatenate([d.created for d in drivers]),
                                np.concatenate([d.destroyed for d in drivers]))

    def runs_for_server(self, server: DGServer) -> List:
        """QoS runs bound to one DCI's server (accounting helper)."""
        if self._service is None:
            return []
        return [run for run in self._service.scheduler.runs.values()
                if run.server is server]

    def routing_targets(self) -> List[HarnessDCI]:
        """The DCIs as an ordered routing-target list."""
        return list(self.dcis.values())
