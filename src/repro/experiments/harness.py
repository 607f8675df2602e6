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

Trace-realization cache (two tiers): materialized interval arrays are
cached per ``(trace, seed-stream, cap, horizon)``.  L1 is a true-LRU
in-process dict — paired with/without runs, the 18-combination
strategy grid and every DCI of a federated sweep replay the same
environments, so regeneration would be pure waste.  Capacity comes
from ``REPRO_TRACE_CACHE`` (default 6; federated scenarios materialize
several traces per execution and would silently thrash a smaller
cache).  L2 is the content-addressed on-disk
:class:`~repro.experiments.trace_store.TraceStore` shared across
processes: an L1 miss first tries the store (memory-mapped, no
regeneration), and fresh realizations are archived on the way in, so
`CampaignExecutor` shards — keyed by ``(trace, seed)`` — land on warm
entries by construction.  Hit/miss/eviction counters are kept on the
cache object; ``disk_hits`` counts L2 promotions.  Entries are the
store's columnar arrays, and they are **read-only** (a mutating consumer
fails loudly instead of silently corrupting every future execution
sharing the realization) — scan cursors live outside them and are
rebuilt per execution.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

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
from repro.infra.node import Node, nodes_from_flat
from repro.infra.pool import NodePool
from repro.middleware.base import DGServer
from repro.simulator.engine import Simulation

__all__ = ["TraceCache", "TRACE_CACHE", "AssemblyCache", "ASSEMBLY_CACHE",
           "HarnessDCI", "ScenarioHarness"]


# ---------------------------------------------------------------------------
# trace realization cache (per process, true LRU)
# ---------------------------------------------------------------------------
_TraceKey = Tuple[str, Tuple[int, ...], int, float]


class TraceCache:
    """Two-tier cache of materialized trace realizations (flat arrays).

    L1: in-process LRU of realizations in the trace store's columnar
    layout, ``(starts, ends, offsets, power, tags)``, whether generated
    or promoted from disk.  L2: the shared content-addressed on-disk
    :class:`~repro.experiments.trace_store.TraceStore` (disabled under
    ``REPRO_NO_CACHE=1``).  All cached arrays are read-only; Node
    rebuilds share them zero-copy.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[_TraceKey, Tuple]" = OrderedDict()
        #: Node list of an entry, built on the first Node-list request;
        #: later requests copy it with fresh cursors, so every rebuilt
        #: list shares the very same per-node arrays
        self._nodes: dict[_TraceKey, List[Node]] = {}
        #: NodeColumns template of an entry, built lazily on first
        #: columnar request and evicted together with its entry
        self._columns: dict[_TraceKey, NodeColumns] = {}
        self.hits = 0
        self.misses = 0       # L1 misses (may still hit disk)
        self.disk_hits = 0    # L1 misses served by the on-disk store
        self.evictions = 0

    @staticmethod
    def capacity() -> int:
        """Entry cap from ``REPRO_TRACE_CACHE`` (default 6, min 1)."""
        return max(1, int(os.environ.get("REPRO_TRACE_CACHE", "6")))

    def materialize(self, trace: str, seed: int, cap: int, horizon: float,
                    stream: Sequence[int] = ()) -> List[Node]:
        """Nodes of one trace realization, rebuilt from cached arrays.

        ``stream`` extends the RNG label (a federated scenario passes
        the DCI index so same-trace DCIs realize independently); the
        empty stream reproduces the historical single-DCI layout.
        """
        key = (trace, (seed, *stream), cap, horizon)
        entry = self._entry_for(key)
        template = self._nodes.get(key)
        if template is None:
            template = self._nodes[key] = nodes_from_flat(*entry)
        return [Node(n.node_id, n.power, n.starts, n.ends, tag=n.tag)
                for n in template]

    def materialize_columns(self, trace: str, seed: int, cap: int,
                            horizon: float,
                            stream: Sequence[int] = ()) -> NodeColumns:
        """One realization as columnar storage (the pool's fast path).

        A :meth:`~repro.infra.columns.NodeColumns.fresh` per-execution
        instance of :meth:`columns_template` (immutable interval/
        offset/power columns zero-copy, its own cursor array), so warm
        executions skip the per-node object rebuild entirely.
        """
        return self.columns_template(trace, seed, cap, horizon,
                                     stream).fresh()

    def columns_template(self, trace: str, seed: int, cap: int,
                         horizon: float,
                         stream: Sequence[int] = ()) -> NodeColumns:
        """The *shared immutable* columns template for one realization
        (no per-execution cursor copy), built once per cache entry —
        the assembly cache pins this so sweeps larger than the LRU
        don't thrash templates.  Every lookup counts and refreshes the
        entry like any other L1 access."""
        key = (trace, (seed, *stream), cap, horizon)
        entry = self._entry_for(key)
        template = self._columns.get(key)
        if template is None:
            template = self._columns[key] = NodeColumns.from_flat(*entry)
        return template

    def _entry_for(self, key: _TraceKey) -> Tuple:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = self._materialize_miss(key)
            while len(self._entries) >= self.capacity():
                evicted, _ = self._entries.popitem(last=False)
                self._nodes.pop(evicted, None)
                self._columns.pop(evicted, None)
                self.evictions += 1
            self._entries[key] = entry
        else:
            # LRU: a hit refreshes the entry so hot environments survive
            # campaign sweeps that touch more traces than the cache holds.
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def _materialize_miss(self, key: _TraceKey) -> Tuple:
        """L1 miss: promote from the disk store, else generate + archive.

        The generated arrays are frozen before anything else sees them:
        every execution rebuilt from this entry shares them zero-copy,
        so a mutating consumer must fail loudly.
        """
        trace, (seed, *stream), cap, horizon = key
        store = default_trace_store()
        if store is not None:
            flat = store.load_flat(key)
            if flat is not None:
                self.disk_hits += 1
                return flat
        rng = np.random.default_rng([seed, *stream, 0xACE])
        flat = get_trace_spec(trace).materialize(rng, horizon, cap)
        for arr in flat[:4]:
            arr.setflags(write=False)
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
        self._nodes.clear()
        self._columns.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.disk_hits = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def summary(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses "
                f"({self.disk_hits} from disk), "
                f"{self.evictions} evictions, {len(self)} entries "
                f"(cap {self.capacity()})")


#: process-wide cache shared by every runner entry point
TRACE_CACHE = TraceCache()


# ---------------------------------------------------------------------------
# assembly-skeleton cache (per process)
# ---------------------------------------------------------------------------
class _AssemblySkeleton:
    """Everything :meth:`ScenarioHarness.build_dci` can reuse across
    executions of one DCI spec: the resolved server class, the shared
    columns template and the captured t=0 pool filing.  All three are
    execution-independent; only the simulation, the RNGs and the pool
    cursors are fresh per run."""

    __slots__ = ("server_cls", "template", "filing")

    def __init__(self, server_cls, template: NodeColumns,
                 filing: Optional[dict]):
        self.server_cls = server_cls
        self.template = template
        self.filing = filing


class AssemblyCache:
    """Per-process cache of world-assembly skeletons.

    One level above the trace cache, and the one place a t=0 pool
    filing is cached: keyed by the full DCI spec — ``(trace key,
    middleware, config digest, provider)`` — so repeated sweep shards
    (the same ``run_federated`` configuration re-executed across seeds
    of a campaign, or warm bench rounds) skip middleware resolution,
    the trace-cache lookup and the pool filing entirely.  Skeletons
    pin their columns template beyond the trace LRU; the map is
    bounded by the number of distinct DCI specs a process touches.
    """

    def __init__(self) -> None:
        self._skeletons: dict = {}
        self.hits = 0
        self.misses = 0

    def skeleton(self, trace: str, seed: int, cap: int, horizon: float,
                 stream: Sequence[int], middleware: str,
                 middleware_config, provider: str) -> _AssemblySkeleton:
        from repro.middleware import resolve_server
        key = (trace, (seed, *stream), cap, horizon,
               middleware.lower(), repr(middleware_config), provider)
        skel = self._skeletons.get(key)
        if skel is not None:
            self.hits += 1
            return skel
        self.misses += 1
        server_cls = resolve_server(middleware)
        template = TRACE_CACHE.columns_template(trace, seed, cap,
                                                horizon, stream)
        probe = NodePool(template.fresh())
        filing = probe.capture_filing() if probe.vector_filed else None
        skel = _AssemblySkeleton(server_cls, template, filing)
        self._skeletons[key] = skel
        return skel

    def clear(self) -> None:
        self._skeletons.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._skeletons)

    def summary(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses, "
                f"{len(self)} skeletons")


#: process-wide assembly-skeleton cache (see AssemblyCache)
ASSEMBLY_CACHE = AssemblyCache()


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

        Served from the :data:`ASSEMBLY_CACHE` skeleton for the spec:
        a skeleton hit restores the pool from the captured filing onto
        a fresh cursor copy and constructs the server class directly —
        structurally identical to the uncached path (same draw-list
        order, same RNG streams), just without re-deriving anything.
        """
        skel = ASSEMBLY_CACHE.skeleton(trace, seed, cap, self.sim.horizon,
                                       stream, middleware,
                                       middleware_config, provider)
        rng = np.random.default_rng([seed, *stream, 0xB00])
        if skel.filing is not None:
            pool = NodePool.from_filing(skel.template.fresh(),
                                        skel.filing, rng=rng)
        else:  # degenerate trace: the filing isn't capturable
            pool = NodePool(skel.template.fresh(), rng=rng)
        server = skel.server_cls(self.sim, pool, config=middleware_config,
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

    @property
    def has_service(self) -> bool:
        return self._service is not None

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

    def schedule_deposits(self, policies):
        """Tick deposit policies over the scenario's virtual time.

        Promotes the one-off deposit helpers into scheduled economics
        objects: each policy (:class:`~repro.economics.deposits.
        AccountTopUp`, :class:`~repro.economics.deposits.PoolTopUp`,
        :class:`~repro.economics.deposits.AllowanceRation`, or
        anything with ``period`` + ``apply(credits, now)``) fires
        every ``period`` simulated seconds against the service's
        credit system.  Returns the started
        :class:`~repro.economics.deposits.DepositSchedule`.
        """
        from repro.economics.deposits import DepositSchedule
        return DepositSchedule(self.sim, self.service.credits,
                               policies).start()

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
