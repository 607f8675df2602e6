"""Per-layer attribution of one request, measured from outside ``src/``.

The traced repetitions of the benchmark install a :class:`Tracer`
before the world is built.  It replaces each layer's entry points —
listed in :data:`LAYERS` as ``"module:Qualname"`` strings — with a
wrapper that takes one ``perf_counter`` pair per call and keeps a span
stack, so every group gets a call count and a *self* time: the span's
duration minus the part its wrapped callees cover.  Self times add up
to the traced wall exactly, up to the time spent outside any wrapped
span (the benchmark's own glue), which :func:`layer_metrics` reports.

Nothing in ``src/`` knows about this module.  A renamed entry point
makes :func:`resolve` raise (``test_perf_harness.py`` resolves every
target), so a layer can never silently read zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "SETUP_GROUPS", "REPORTED_GROUPS", "Tracer",
           "group_names", "import_layers", "layer_metrics", "metric_names",
           "resolve"]

_ENGINE = "repro.simulator.engine:Simulation"
_POOL = "repro.infra.pool:NodePool"
_COLUMNS = "repro.infra.columns:NodeColumns"
_BASE = "repro.middleware.base:DGServer"
_BOINC = "repro.middleware.boinc:BoincServer"
_XWHEP = "repro.middleware.xwhep:XWHepServer"
_SCHED = "repro.core.scheduler"
_ROUTING = "repro.core.routing"
_PLANE = "repro.history.plane:HistoryPlane"
_WORKER = "repro.cloud.worker"

#: layer -> group -> entry points.  A method is named on the class that
#: defines it; an override in a subclass is listed separately.
LAYERS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "simulator": {
        "run": (f"{_ENGINE}.run",),
        "at": (f"{_ENGINE}.at",),
    },
    "infra": {
        "pool.acquire": (f"{_POOL}.acquire", f"{_POOL}.acquire_many"),
        "pool.refile": (f"{_POOL}.release", f"{_POOL}.preempted",
                        f"{_POOL}.add", f"{_POOL}.remove"),
        "pool.probe": (f"{_POOL}.has_ready", f"{_POOL}.idle_count",
                       f"{_POOL}.next_future_start", f"{_POOL}.ready_hint"),
        "pool.restore": (f"{_POOL}.from_filing", f"{_POOL}.capture_filing",
                         f"{_COLUMNS}.fresh", f"{_COLUMNS}.from_flat"),
        "trace.generate": ("repro.infra.catalog:TraceSpec.materialize",),
    },
    "workload": {
        "generate": ("repro.workload.generator:make_bot",
                     "repro.workload.tenants:generate_tenants"),
    },
    "middleware": {
        "dispatch": (f"{_BASE}._dispatch",),
        "fetch": (f"{_BOINC}.fetch_for_cloud", f"{_XWHEP}.fetch_for_cloud"),
        "handlers": (
            f"{_BASE}._arrive", f"{_BASE}._on_wakeup",
            f"{_BOINC}._arrive_batch", f"{_BOINC}._finish",
            f"{_BOINC}._suspend", f"{_BOINC}._suspend_batch",
            f"{_BOINC}._resume", f"{_BOINC}._resume_batch",
            f"{_BOINC}._timeout", f"{_BOINC}._timeout_batch",
            f"{_XWHEP}._arrive_batch", f"{_XWHEP}._finish",
            f"{_XWHEP}._preempt", f"{_XWHEP}._preempt_batch",
            f"{_XWHEP}._detect", f"{_XWHEP}._detect_batch"),
        "cloud_api": (f"{_BASE}.submit_bot", f"{_BOINC}.external_complete",
                      f"{_XWHEP}.external_complete", f"{_BASE}.cloud_usage_of",
                      f"{_BASE}.add_cloud_node", f"{_BASE}.remove_cloud_node"),
    },
    "core": {
        "tick": (f"{_SCHED}:SpeQuloSScheduler._tick",),
        "arbiter": (f"{_SCHED}:CloudArbiter.rebalance",
                    f"{_SCHED}:CloudArbiter.worker_grant",
                    f"{_SCHED}:CloudArbiter.credit_budget"),
        "credit": ("repro.core.credit:CreditSystem.bill",
                   "repro.core.credit:CreditSystem.bill_many"),
        "oracle": ("repro.core.oracle:Oracle.predict",
                   "repro.core.oracle:Oracle.should_use_cloud",
                   "repro.core.oracle:Oracle.cloud_workers_to_start"),
        "route": tuple(f"{_ROUTING}:{cls}.route" for cls in (
            "RoundRobinRouter", "LeastLoadedRouter", "HistoryWeightedRouter",
            "AffinityRouter", "LearnedAffinityRouter",
            "CheapestDrainRouter")),
        "monitor": tuple(f"repro.core.info:BoTMonitor.{name}" for name in (
            "on_task_arrived", "on_task_first_assigned",
            "on_task_completed", "on_bot_completed")),
    },
    "economics": {
        "charge": ("repro.economics.billing:BillingMeter.charge",
                   "repro.economics.billing:BillingMeter.charge_many"),
        "rate": ("repro.economics.pricing:PriceBook.rate",),
    },
    "cloud": {
        "lifecycle": ("repro.cloud.api:ComputeDriver.create_node",
                      "repro.cloud.api:ComputeDriver.destroy_node"),
        "workers": (f"{_WORKER}:RescheduleAgent._try_fetch",
                    f"{_WORKER}:CloudDuplicationCoordinator._feed",
                    f"{_WORKER}:CloudDuplicationCoordinator._finish"),
    },
    "history": {
        "query": tuple(f"{_PLANE}.{name}" for name in (
            "fetch", "env_keys", "grids", "makespans", "alpha",
            "success_rate", "alpha_residuals", "throughput",
            "dci_throughput", "mean_slowdown", "dci_slowdown",
            "cost_per_task", "predicted_cost", "provider_costs",
            "summarize", "summary")),
        "archive": (f"{_PLANE}.archive",),
    },
    "experiments": {
        "assembly": ("repro.experiments.harness:ScenarioHarness.build_dci",
                     "repro.experiments.harness:AssemblyCache.skeleton",
                     "repro.experiments.harness:TraceCache.materialize_columns"),
        "trace_store.load": (
            "repro.experiments.trace_store:TraceStore.load_flat",),
        "trace_store.save": ("repro.experiments.trace_store:TraceStore.save",),
        "runner": ("repro.experiments.runner:run_execution",
                   "repro.experiments.runner:run_multi_tenant",
                   "repro.experiments.runner:run_federated",
                   "repro.deployment.edgi:run_edgi"),
        "report": tuple(f"repro.experiments.figures:{name}_report" for name in (
            "figure1", "figure2", "figure4", "figure5", "figure6",
            "figure7", "table1", "table2", "table3", "table4", "table5",
            "ablation_threshold", "ablation_budget", "ablation_middleware",
            "contention", "federation", "learning", "economics")) + (
            "repro.experiments.report:ExperimentReport.render",),
    },
    "campaign": {
        "store.get": ("repro.campaign.store:ResultStore.get",),
        "store.put": ("repro.campaign.store:ResultStore.put",),
        "executor": ("repro.campaign.executor:CampaignExecutor.run",
                     "repro.campaign.executor:run_cached"),
    },
}

#: groups that only run while an empty trace store fills; the traced
#: set-up reports them, the traced repetitions report every other group
SETUP_GROUPS = ("infra.trace.generate", "experiments.trace_store.save")

#: groups exported as per-layer metrics.  The report builders run only
#: in ``paper-campaign`` (a metric must read the same way everywhere),
#: so they count toward ``experiments.self_ms`` and ``run.py`` records
#: their per-builder times instead.
REPORTED_GROUPS = tuple(
    f"{layer}.{group}" for layer, groups in LAYERS.items()
    for group in groups if f"{layer}.{group}" != "experiments.report")


def group_names() -> List[str]:
    """Every ``layer.group`` name, in :data:`LAYERS` order."""
    return [f"{layer}.{group}" for layer, groups in LAYERS.items()
            for group in groups]


def metric_names() -> List[str]:
    """The per-layer metric names :func:`layer_metrics` produces."""
    names = ["simulator.events", "simulator.us_per_event",
             "trace_overhead_pct", "unattributed_pct"]
    for group in REPORTED_GROUPS:
        names += [f"{group}.calls", f"{group}.self_ms"]
    for layer in LAYERS:
        names += [f"{layer}.self_ms", f"{layer}.share"]
    return names


def import_layers() -> None:
    """Import every module an entry point lives in.

    Repetitions call this before timing, traced or not, so lazy imports
    inside the program (the campaign executor, the EDGI deployment) are
    never inside one kind's timed request and outside the other's.
    """
    for groups in LAYERS.values():
        for targets in groups.values():
            for target in targets:
                importlib.import_module(target.split(":")[0])


def resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute name, raw attribute)`` of one entry point.

    A method must be defined on the named class itself (not inherited),
    so an override that disappears fails here instead of being traced
    through its base class.
    """
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        raw = owner.__dict__[name]
    else:
        raw = getattr(owner, name)
    if not callable(getattr(raw, "__func__", raw)):
        raise TypeError(f"{target} is not callable")
    return owner, name, raw


class Tracer:
    """Wraps every entry point of :data:`LAYERS` while installed.

    ``calls[i]`` and ``self_s[i]`` accumulate per group (index into
    :attr:`groups`).  ``stack`` holds, per open span, the summed
    duration of its direct wrapped children; ``stack[0]`` is the sum of
    top-level spans, which the self times add up to.  ``clock`` is
    ``time.perf_counter`` unless a test substitutes a fake.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.groups = group_names()
        self.calls = [0] * len(self.groups)
        self.self_s = [0.0] * len(self.groups)
        self.stack = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, gid: int):
        calls, self_s, stack, clock = (self.calls, self.self_s, self.stack,
                                       self.clock)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                calls[gid] += 1
                self_s[gid] += elapsed - children
                stack[-1] += elapsed
        return span

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)
                              if not isinstance(owner, type)
                              else owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        """Wrap every entry point (before any world is built)."""
        import_layers()
        for gid, group in enumerate(self.groups):
            layer, sub = group.split(".", 1)
            for target in LAYERS[layer][sub]:
                owner, name, raw = resolve(target)
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patch(owner, name,
                                type(raw)(self._wrap(raw.__func__, gid)))
                    continue
                wrapped = self._wrap(raw, gid)
                self._patch(owner, name, wrapped)
                if not isinstance(owner, type):
                    # `from module import fn` copies the reference, so
                    # rebind it in every loaded repro module too
                    for mod_name, mod in list(sys.modules.items()):
                        if (mod is owner or mod is None
                                or not mod_name.startswith("repro")):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """``group -> (calls, self seconds)`` so far."""
        return {group: (self.calls[i], self.self_s[i])
                for i, group in enumerate(self.groups)}


def layer_metrics(snapshot: Dict[str, Tuple[int, float]],
                  wall_s: float, events: int) -> Dict[str, float]:
    """Per-layer metrics of one traced request.

    ``snapshot`` maps every group to ``(calls, self seconds)``; set-up
    groups are expected to come from the traced set-up.  Layer self
    time and share cover the request's groups only (set-up groups are
    zero there).  ``unattributed_pct`` is the part of the traced wall
    outside every span, and ``trace_overhead_pct`` is filled in by
    ``run.py``, which alone sees the untraced walls.
    """
    out: Dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for group, (calls, self_s) in snapshot.items():
        layer = group.split(".", 1)[0]
        if group not in SETUP_GROUPS:
            layer_self[layer] += self_s
        if group in REPORTED_GROUPS:
            out[f"{group}.calls"] = calls
            out[f"{group}.self_ms"] = self_s * 1e3
    for layer, self_s in layer_self.items():
        out[f"{layer}.self_ms"] = self_s * 1e3
        out[f"{layer}.share"] = self_s / wall_s
    attributed = sum(layer_self.values())
    out["unattributed_pct"] = 100.0 * (wall_s - attributed) / wall_s
    out["simulator.events"] = events
    out["simulator.us_per_event"] = (
        layer_self["simulator"] * 1e6 / events if events else 0.0)
    return out
