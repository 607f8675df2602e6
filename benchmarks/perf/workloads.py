"""The benchmark's workloads: one request each, with its checks.

Every request goes through :func:`repro.experiments.runner.run_campaign`
against the repetition's own result store, exactly as ``repro sweep``
and the report builders issue simulations: probe the store, simulate
the misses, persist them.  Re-issuing the request in the same process
(after clearing the per-process caches) must then be answered from the
store without a single simulation and give the same result.

The seed makes the inputs: the same seed gives the same scenario.
``paper-campaign`` runs report builders whose seeds are baked in, so
its seed only permutes the order the builders run in.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
#: the committed renders of every report (the campaign's golden texts)
COMMITTED_RESULTS = HERE.parent / "results"

#: seed whose digests are pinned in goldens.json
GOLDEN_SEED = 11

#: report builders of ``paper-campaign``: the cheap slice of the paper's
#: figures that still covers every runner (single BoT, EDGI deployment,
#: federated) plus the store and report layers
CAMPAIGN_REPORTS = ("figure1", "table5", "ablation_middleware", "economics")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> the request's outcome (a result or the campaign renders)
    request: Callable[[int], object]
    #: outcome -> hex digest of everything the checks compare
    digest: Callable[[object], str]
    #: outcome -> list of broken invariants (empty when correct)
    check: Callable[[object], List[str]]


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------
def federation_config(hosts_per_dci: int, seed: int):
    """12 seti DCIs (alternating BOINC/XWHEP) under one SpeQuloS.

    24 tenants x 150 SMALL tasks with the paper's recommended
    ``9C-C-R``, routed ``history_weighted`` (server load until the
    history plane has archived executions, then the plane's per-DCI
    throughput and slowdown): the tenant stream is the same at every
    host count, so two host counts differ only in per-host cost.
    """
    from repro.experiments import DCISpec, ScenarioConfig
    return ScenarioConfig(
        dcis=tuple(DCISpec(trace="seti", middleware=("boinc", "xwhep")[i % 2],
                           max_nodes=hosts_per_dci) for i in range(12)),
        seed=seed, n_tenants=24, categories=("SMALL",), bot_size=150,
        strategy="9C-C-R", routing="history_weighted", horizon_days=3.0)


def cloud_burst_config(seed: int):
    """Two small ND DCIs, one per priced cloud, under contention.

    64 tenants x 50 SMALL tasks arrive at 40/h with a 30 % pool,
    ``9C-G-R`` (start greedily at 90 % completed, cloud workers fetch
    rescheduled tasks) and cost-aware ``cheapest_drain`` routing:
    Algorithm 2's ticks, billing, cloud lifecycle and the fetch path
    carry the run.  ND's host count barely moves between realizations
    (g5klyo's varies threefold), so the work per request does not
    depend on the seed.
    """
    from repro.experiments import DCISpec, ScenarioConfig
    return ScenarioConfig(
        dcis=(DCISpec(trace="nd", middleware="boinc", provider="stratuslab"),
              DCISpec(trace="nd", middleware="xwhep", provider="ec2")),
        seed=seed, n_tenants=64, categories=("SMALL",), bot_size=50,
        strategy="9C-G-R", routing="cheapest_drain", pool_fraction=0.3,
        arrival_rate_per_hour=40.0,
        pricing=(("stratuslab", 6.0), ("ec2", 18.0)), horizon_days=15.0)


def _scenario(make_config: Callable[[int], object]) -> Callable[[int], object]:
    def request(seed: int):
        from repro.experiments.runner import run_campaign
        (result,) = run_campaign([make_config(seed)])
        return result
    return request


def federated_digest(res) -> str:
    """sha256 over events, each tenant's outcome, spend and peak."""
    body = [res.events,
            [[t.bot_id, t.dci, repr(t.makespan), t.censored,
              repr(t.credits_spent)] for t in res.tenants],
            repr(res.pool_spent), res.workers_peak]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def federated_check(res) -> List[str]:
    """Conservation invariants of one federated result."""
    errors = []
    if res.pool_spent > res.pool_provisioned * (1 + 1e-12):
        errors.append(f"pool spent {res.pool_spent!r} > provisioned "
                      f"{res.pool_provisioned!r}")
    by_provider = sum(res.credits_by_provider().values())
    if not math.isclose(by_provider, res.pool_spent,
                        rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"per-provider spend {by_provider!r} != pool spend "
                      f"{res.pool_spent!r}")
    horizon = res.config.horizon
    for t in res.tenants:
        if t.censored:
            continue
        if not (0.0 < t.makespan <= horizon - t.arrival):
            errors.append(f"{t.bot_id}: completed with makespan "
                          f"{t.makespan!r} outside (0, horizon - arrival]")
    return errors


# ---------------------------------------------------------------------------
# paper campaign
# ---------------------------------------------------------------------------
def campaign_request(seed: int) -> Dict[str, object]:
    """Run the campaign's builders in a seed-permuted order.

    Returns ``{"renders": {builder: text}, "builder_ms": {...}}``.
    """
    from repro.experiments import figures
    order = list(CAMPAIGN_REPORTS)
    random.Random(seed).shuffle(order)
    renders, builder_ms = {}, {}
    for name in order:
        t0 = time.perf_counter()
        report = getattr(figures, f"{name}_report")()
        builder_ms[name] = (time.perf_counter() - t0) * 1e3
        renders[name] = (report.experiment_id, report.render())
    return {"renders": renders, "builder_ms": builder_ms}


def campaign_digest(outcome) -> str:
    body = [outcome["renders"][name] for name in CAMPAIGN_REPORTS]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def committed_render(experiment_id: str) -> str:
    """The committed text of one report (named as ``report.save`` does)."""
    name = f"{experiment_id.lower().replace(' ', '_')}.txt"
    return (COMMITTED_RESULTS / name).read_text()


def campaign_check(outcome) -> List[str]:
    """Every render must be byte-identical to its committed text."""
    return [f"{name}: render differs from the committed "
            f"{experiment_id!r} text"
            for name, (experiment_id, text) in outcome["renders"].items()
            if text != committed_render(experiment_id)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fed-1e4",
             "12 seti DCIs, 10^4 hosts: the fed-1e5 tenant stream on a "
             "tenth of the hosts, the per-host baseline",
             _scenario(lambda seed: federation_config(833, seed)),
             federated_digest, federated_check),
    Workload("fed-1e5",
             "12 seti DCIs, 10^5 hosts: same tenants as fed-1e4, so any "
             "gap is per-host cost (assembly, store loads, pools)",
             _scenario(lambda seed: federation_config(8333, seed)),
             federated_digest, federated_check),
    Workload("cloud-burst",
             "64 tenants at 40/h on two tiny priced DCIs: scheduler "
             "ticks, billing, cloud workers and fetches dominate",
             _scenario(cloud_burst_config),
             federated_digest, federated_check),
    Workload("paper-campaign",
             "four paper report builders through the result store: "
             "many small sims, store writes, report rendering",
             campaign_request, campaign_digest, campaign_check),
)}
