"""Fixed-seed drift tests against pre-refactor golden outputs.

The goldens under ``tests/data/`` were captured from the runner code
*before* the world assembly was extracted into
:class:`~repro.experiments.harness.ScenarioHarness` (PR 3).  Every
field is compared with exact equality — the harness refactor (and any
later change to assembly order or RNG stream labels) must keep
single-DCI ``run_execution``/``run_multi_tenant`` and the EDGI
deployment bit-identical.  The ``federated`` goldens came later, from
the per-host pool probes the batched ones replaced: three routed
federations whose routers probe every pool at each arrival.  If a
change *intends* to alter simulation semantics, recapture the goldens
and say so in the commit.
"""

import json
import os

import pytest

from repro.deployment.edgi import EDGIConfig, EDGIDeployment, run_edgi
from repro.experiments.config import (
    DCISpec,
    ExecutionConfig,
    MultiTenantConfig,
    ScenarioConfig,
)
from repro.experiments.runner import (
    run_execution,
    run_federated,
    run_multi_tenant,
)

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _load(name):
    with open(os.path.join(_DATA, name)) as fh:
        return json.load(fh)


_GOLDENS = _load("drift_goldens.json")
_EDGI = _load("edgi_goldens.json")


@pytest.mark.parametrize("golden", _GOLDENS["execution"],
                         ids=lambda g: "-".join(
                             str(g["config"][k]) for k in
                             ("trace", "middleware", "seed")))
def test_run_execution_matches_pre_harness_golden(golden):
    res = run_execution(ExecutionConfig(**golden["config"]))
    assert res.makespan == golden["makespan"]
    assert res.censored == golden["censored"]
    assert res.events == golden["events"]
    assert [float(x) for x in res.completion_times] == \
        golden["completion_times"]
    assert [float(x) for x in res.tc_grid] == golden["tc_grid"]
    assert res.credits_provisioned == golden["credits_provisioned"]
    assert res.credits_spent == golden["credits_spent"]
    assert res.workers_launched == golden["workers_launched"]
    assert res.cloud_cpu_hours == golden["cloud_cpu_hours"]
    assert res.server_stats == golden["server_stats"]


@pytest.mark.parametrize("golden", _GOLDENS["multi_tenant"],
                         ids=lambda g: "-".join(
                             str(g["config"][k]) for k in
                             ("trace", "policy", "seed")))
def test_run_multi_tenant_matches_pre_harness_golden(golden):
    res = run_multi_tenant(MultiTenantConfig(**golden["config"]))
    assert res.events == golden["events"]
    assert res.pool_provisioned == golden["pool_provisioned"]
    assert res.pool_spent == golden["pool_spent"]
    assert res.workers_peak == golden["workers_peak"]
    assert len(res.tenants) == len(golden["tenants"])
    for t, g in zip(res.tenants, golden["tenants"]):
        assert t.user == g["user"]
        assert t.arrival == g["arrival"]
        assert t.makespan == g["makespan"]
        assert t.censored == g["censored"]
        assert t.slowdown == g["slowdown"]
        assert t.credits_spent == g["credits_spent"]
        assert t.workers_launched == g["workers_launched"]


def _scenario(config):
    cfg = dict(config)
    cfg["dcis"] = tuple(DCISpec(**d) for d in cfg["dcis"])
    cfg["categories"] = tuple(cfg["categories"])
    cfg["pricing"] = tuple(tuple(p) for p in cfg["pricing"])
    return ScenarioConfig(**cfg)


@pytest.mark.parametrize("golden", _GOLDENS["federated"],
                         ids=lambda g: g["config"]["routing"])
def test_run_federated_matches_golden(golden):
    """A routed federation, byte for byte: the load-reading routers
    probe every pool (``idle_count``) at each arrival, so these pin the
    pool's probe refiles, which decide what later draws see."""
    res = run_federated(_scenario(golden["config"]))
    assert res.events == golden["events"]
    assert res.pool_provisioned == golden["pool_provisioned"]
    assert res.pool_spent == golden["pool_spent"]
    assert res.workers_peak == golden["workers_peak"]
    assert [{k: getattr(t, k) for k in g} for t, g in
            zip(res.tenants, golden["tenants"])] == golden["tenants"]
    assert [{k: getattr(d, k) for k in g} for d, g in
            zip(res.dcis, golden["dcis"])] == golden["dcis"]
    assert len(res.tenants) == len(golden["tenants"])
    assert len(res.dcis) == len(golden["dcis"])


def test_edgi_small_run_matches_pre_harness_golden():
    summary = EDGIDeployment(seed=5, horizon_days=3.0).run(
        duration_days=1.5, n_bots=8, bot_size=120)
    assert summary == _EDGI["small"]


@pytest.mark.slow
def test_edgi_table5_matches_committed_results():
    """The acceptance pin: the default EDGIConfig regenerates exactly
    the Table 5 numbers committed under benchmarks/results/."""
    assert run_edgi(EDGIConfig()) == _EDGI["table5"]
