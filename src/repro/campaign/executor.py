"""Sharded campaign executor over the content-addressed store.

The executor is the single path every campaign takes:

1. **Dedup + cache probe** — input configs are deduplicated by content
   digest and probed against the store; only misses are simulated.
2. **Sharding** — pending configs are partitioned by trace realization
   ``(trace, seed)`` so each worker process materializes a given
   BE-DCI environment once and replays it for every strategy variant
   (the same locality the in-process LRU world cache exploits).
3. **Execution** — shards fan out over a ``ProcessPoolExecutor``.  A
   pool that cannot start (``OSError``/``ImportError``) *or breaks
   mid-run* (a worker crash raising ``BrokenProcessPool``) degrades to
   finishing the remaining shards serially with a warning — a campaign
   never dies halfway because one worker did.
4. **Persistence** — every finished shard is committed to the store
   before the next is awaited, so an interrupted campaign resumes with
   100 % hits for completed work.

``run_cached`` is the single-config variant used by report builders
for one-off executions (figure 1, ablations) so those too simulate at
most once per store lifetime.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.campaign.progress import ProgressReporter
from repro.campaign.store import ResultStore, default_store
from repro.experiments.config import (
    ExecutionConfig,
    MultiTenantConfig,
    ScenarioConfig,
)
from repro.experiments.runner import (
    run_execution,
    run_federated,
    run_multi_tenant,
)

__all__ = ["CampaignExecutor", "default_jobs", "run_cached",
           "set_default_jobs"]

AnyConfig = Union[ExecutionConfig, MultiTenantConfig, ScenarioConfig]

#: below this many pending configs the pool overhead beats the speedup
MIN_PARALLEL_CONFIGS = 4

_default_jobs_override: Optional[int] = None


def set_default_jobs(n: Optional[int]) -> None:
    """Process-wide job-count override (the CLI's ``--jobs`` lands
    here so it reaches campaigns started deep inside report builders)."""
    global _default_jobs_override
    _default_jobs_override = n


def default_jobs() -> int:
    """``set_default_jobs`` override, else ``REPRO_JOBS``, else a
    machine-sized process count."""
    if _default_jobs_override is not None:
        return _default_jobs_override
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def _run_one(cfg: AnyConfig) -> Any:
    """Dispatch one config to its runner (top-level: pickled by pools)."""
    from repro.deployment.edgi import EDGIConfig, run_edgi
    if isinstance(cfg, MultiTenantConfig):
        return run_multi_tenant(cfg)
    if isinstance(cfg, ScenarioConfig):
        return run_federated(cfg)
    if isinstance(cfg, EDGIConfig):
        return run_edgi(cfg)
    return run_execution(cfg)


def _run_shard(cfgs: List[AnyConfig]) -> List[Any]:
    """Worker entry point: simulate one trace-realization shard."""
    return [_run_one(c) for c in cfgs]


def _shard_key(cfg: AnyConfig):
    if isinstance(cfg, ScenarioConfig):
        # a federation materializes one realization per DCI; group by
        # the seed so paired routing/policy variants share a worker
        return (cfg.dcis[0].trace, cfg.seed)
    if not hasattr(cfg, "trace"):  # deployment presets (EDGIConfig)
        return (type(cfg).__name__, cfg.seed)
    return (cfg.trace, cfg.seed)


class CampaignExecutor:
    """Runs batches of configs through the store + process pool.

    ``store`` is the literal ``"default"`` (the process-wide store, or
    no caching when that is disabled), an explicit
    :class:`~repro.campaign.store.ResultStore`, or ``None`` to bypass
    caching entirely.
    """

    def __init__(self, store: Union[ResultStore, None, str] = "default",
                 n_jobs: Optional[int] = None,
                 progress: Optional[ProgressReporter] = None):
        self.store = default_store() if store == "default" else store
        self.n_jobs = default_jobs() if n_jobs is None else n_jobs
        self.progress = progress

    # ------------------------------------------------------------------
    def run(self, configs: Sequence[AnyConfig]) -> List[Any]:
        """Execute every config (hits from the store, misses simulated)
        and return results in input order."""
        configs = list(configs)
        by_digest: Dict[Any, Any] = {}
        keys: List[Any] = []          # per-input identity key
        pending: "OrderedDict[Any, AnyConfig]" = OrderedDict()
        for cfg in configs:
            key = self.store.digest(cfg) if self.store is not None else cfg
            keys.append(key)
            if key in by_digest or key in pending:
                continue
            hit = self.store.get(cfg) if self.store is not None else None
            if hit is not None:
                by_digest[key] = hit
            else:
                pending[key] = cfg
        if self.progress is not None:
            self.progress.total = len(by_digest) + len(pending)
            if by_digest:
                self.progress.tick(len(by_digest))  # fast-forward hits

        if pending:
            self._execute(pending, by_digest)
            if self.progress is not None:
                self.progress.finish()
        return [by_digest[k] for k in keys]

    # ------------------------------------------------------------------
    def _record(self, key: Any, cfg: AnyConfig, result: Any,
                mode: str, by_digest: Dict[Any, Any]) -> None:
        by_digest[key] = result
        if self.store is not None:
            self.store.put(cfg, result, mode=mode)
        if self.progress is not None:
            self.progress.tick()

    def _run_serial(self, items, by_digest: Dict[Any, Any]) -> None:
        for key, cfg in items:
            self._record(key, cfg, _run_one(cfg), "serial", by_digest)

    def _execute(self, pending: "OrderedDict[Any, AnyConfig]",
                 by_digest: Dict[Any, Any]) -> None:
        if self.n_jobs <= 1 or len(pending) < MIN_PARALLEL_CONFIGS:
            self._run_serial(pending.items(), by_digest)
            return

        # shard by trace realization so a worker materializes each
        # environment once; shard order follows first appearance
        groups: "OrderedDict[Any, List[Any]]" = OrderedDict()
        for key, cfg in pending.items():
            groups.setdefault(_shard_key(cfg), []).append((key, cfg))
        # split oversized realizations into chunks so parallelism is
        # never capped by the number of distinct (trace, seed) pairs
        # (a contention sweep is many configs over very few traces)
        chunk = max(1, math.ceil(len(pending) / (self.n_jobs * 4)))
        shards: List[List[Any]] = []
        for group in groups.values():
            for i in range(0, len(group), chunk):
                shards.append(group[i:i + chunk])

        broken = False
        pool = None
        try:
            from concurrent.futures import (
                BrokenExecutor,
                ProcessPoolExecutor,
                as_completed,
            )
            pool = ProcessPoolExecutor(max_workers=self.n_jobs)
        except (OSError, ImportError):  # pragma: no cover - env dependent
            broken = True
        if pool is not None:
            with pool:
                futures = {}
                try:
                    for shard in shards:
                        futures[pool.submit(
                            _run_shard, [cfg for _, cfg in shard])] = shard
                except (OSError, BrokenExecutor):
                    # worker spawn failed or the pool broke at submit
                    # time; drain whatever made it in
                    broken = True  # pragma: no cover - env dependent
                for fut in as_completed(futures):
                    try:
                        results = fut.result()
                    except BrokenExecutor:
                        # a worker died (OOM, segfault, kill); keep
                        # draining so already-finished shards land
                        broken = True
                        continue
                    # NOTE: deliberately outside any except — a store
                    # or progress failure here is our bug and must
                    # surface, not masquerade as a pool break
                    for (key, cfg), res in zip(futures[fut], results):
                        self._record(key, cfg, res, "parallel", by_digest)
        if broken:
            remaining = [(k, c) for k, c in pending.items()
                         if k not in by_digest]
            if remaining:
                warnings.warn(
                    f"campaign worker pool unavailable or broke mid-run; "
                    f"finishing {len(remaining)} remaining configs "
                    f"serially", RuntimeWarning, stacklevel=2)
                self._run_serial(remaining, by_digest)


# ---------------------------------------------------------------------------
def run_cached(key: Any, compute: Optional[Callable[[], Any]] = None,
               extra: Optional[Dict[str, Any]] = None,
               store: Union[ResultStore, None, str] = "default") -> Any:
    """One execution through the store.

    ``key`` is an :class:`ExecutionConfig` / :class:`MultiTenantConfig`
    (dispatched to its runner) or any plain dict identifying a custom
    computation, in which case ``compute`` must be given.  ``extra``
    folds parameters that live outside the config (e.g. middleware-knob
    overrides) into the digest.
    """
    if compute is None:
        if isinstance(key, dict):
            raise TypeError("dict keys require an explicit compute()")
        compute = lambda: _run_one(key)  # noqa: E731
    resolved = default_store() if store == "default" else store
    if resolved is None:
        return compute()
    result = resolved.get(key, extra=extra)
    if result is None:
        result = compute()
        resolved.put(key, result, extra=extra, mode="serial")
    return result
