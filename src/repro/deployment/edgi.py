"""The University Paris-XI corner of the EDGI infrastructure (§5).

Topology reproduced from Figure 8:

* **XW@LAL** — XtremWeb-HEP over the LAL laboratory desktop grid
  (``nd``-like churn, a few hundred desktop nodes), supported by a
  local **StratusLab** (OpenNebula) cloud;
* **XW@LRI** — XtremWeb-HEP harvesting **Grid'5000** best-effort nodes
  (``g5klyo`` trace, bounded to 200 nodes as in the paper), supported
  by **Amazon EC2**;
* **EGI** users reach XW@LAL through the **3G-Bridge**;
* one **SpeQuloS** instance serves both DCIs.

The deployment is a :class:`~repro.experiments.harness.ScenarioHarness`
preset: the harness owns the simulation, the DCI registry, the shared
SpeQuloS instance and the cloud accounting probes, while this module
keeps only what is EDGI-specific — the historical trace/pool/driver RNG
streams (drift-pinned: Table 5 regenerates byte-identically), the
3G-Bridge, and the mixed native/bridged, QoS/non-QoS submission stream.

Campaign integration: :class:`EDGIConfig` is the frozen declarative
form of one deployment run and :func:`run_edgi` its runner, so the
Table 5 report (and any EDGI sweep) flows through the campaign engine —
content-addressed caching, dedup and the process pool included.

:data:`EDGI_DCIS` exports the same two DCIs as declarative
:class:`~repro.experiments.config.DCISpec` entries — the reference
federation the federated scenario family
(:func:`~repro.experiments.runner.run_federated`) and its report build
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cloud.registry import get_driver
from repro.core.credit import CREDITS_PER_CPU_HOUR
from repro.core.strategies import StrategyCombo
from repro.deployment.bridge import ThreeGBridge
from repro.experiments.config import DCISpec, ScenarioConfig
from repro.experiments.harness import ScenarioHarness
from repro.infra.catalog import get_trace_spec
from repro.infra.node import nodes_from_flat
from repro.infra.pool import NodePool
from repro.middleware.xwhep import XWHepServer
from repro.workload.generator import make_bot

__all__ = ["EDGIConfig", "EDGIDeployment", "EDGI_DCIS", "EDGI_PRICING",
           "edgi_scenario", "run_edgi"]

#: Figure 8's two DCIs in declarative form (federated scenario preset):
#: XW@LAL = nd-like desktop grid + StratusLab, XW@LRI = Grid'5000
#: harvest bounded to 200 nodes + EC2.
EDGI_DCIS = (
    DCISpec(trace="nd", middleware="xwhep", provider="stratuslab",
            name="XW@LAL", max_nodes=180),
    DCISpec(trace="g5klyo", middleware="xwhep", provider="ec2",
            name="XW@LRI", max_nodes=200),
)

#: The reference *heterogeneous* price book over that federation: the
#: on-site StratusLab charges a third of the commercial EC2 rate
#: (credits/CPU·h) — the cost asymmetry the economics report's
#: ``cheapest_drain`` routing exploits.  Deployments keep the paper's
#: uniform 15 unless a scenario opts in (``pricing=EDGI_PRICING``).
EDGI_PRICING = (("stratuslab", 6.0), ("ec2", 18.0))


def edgi_scenario(seed: int = 5, n_tenants: int = 8,
                  routing: str = "round_robin",
                  policy: str = "fairshare",
                  **overrides) -> ScenarioConfig:
    """A federated :class:`ScenarioConfig` over the EDGI topology.

    This is the *tenant-stream* view of the deployment (N users' QoS
    BoTs routed over the two DCIs); :class:`EDGIConfig` below is the
    *Table 5* view (mixed native/bridged traffic, partial QoS).
    """
    return ScenarioConfig(dcis=EDGI_DCIS, seed=seed, n_tenants=n_tenants,
                          routing=routing, policy=policy, **overrides)


@dataclass(frozen=True)
class EDGIConfig:
    """One Table 5-style deployment run, declaratively.

    Frozen and hashable so the campaign engine can content-address it:
    ``run_cached(EDGIConfig(...))`` simulates at most once per store
    lifetime, and grids of these sweep/parallelize like any other
    config family.
    """

    seed: int = 5
    lal_nodes: int = 180
    lri_nodes: int = 200
    horizon_days: float = 7.0
    duration_days: float = 2.0
    n_bots: int = 12
    bot_size: int = 220
    egi_fraction: float = 0.25
    qos_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.lal_nodes < 1 or self.lri_nodes < 1:
            raise ValueError("node counts must be >= 1")
        if self.horizon_days <= 0 or self.duration_days <= 0:
            raise ValueError("horizon/duration must be positive")
        if self.n_bots < 1 or self.bot_size < 1:
            raise ValueError("n_bots and bot_size must be >= 1")
        if not 0.0 <= self.egi_fraction <= 1.0:
            raise ValueError("egi_fraction must be in [0, 1]")
        if not 0.0 <= self.qos_fraction <= 1.0:
            raise ValueError("qos_fraction must be in [0, 1]")

    def label(self) -> str:
        return (f"edgi/{self.n_bots}x{self.bot_size}"
                f"/{self.duration_days:g}d/s{self.seed}")


def run_edgi(cfg: EDGIConfig) -> Dict[str, int]:
    """Run one EDGI deployment; returns the Table 5 accounting row."""
    dep = EDGIDeployment(seed=cfg.seed, lal_nodes=cfg.lal_nodes,
                         lri_nodes=cfg.lri_nodes,
                         horizon_days=cfg.horizon_days)
    return dep.run(duration_days=cfg.duration_days, n_bots=cfg.n_bots,
                   bot_size=cfg.bot_size, egi_fraction=cfg.egi_fraction,
                   qos_fraction=cfg.qos_fraction)


class EDGIDeployment:
    """Simulated Paris-XI EDGI deployment (two DGs, two clouds, bridge)."""

    def __init__(self, seed: int = 5, lal_nodes: int = 180,
                 lri_nodes: int = 200, horizon_days: float = 7.0):
        self.seed = seed
        self.horizon = horizon_days * 86400.0
        self.harness = ScenarioHarness(self.horizon)
        self.sim = self.harness.sim
        # Historical RNG layout (drift-pinned): one shared stream
        # realizes both traces sequentially, pools and drivers draw
        # from small numbered streams.  The generic
        # ScenarioHarness.build_dci uses per-DCI labelled streams
        # instead; changing this would shift every Table 5 number.
        rng = np.random.default_rng([seed, 0xED61])

        # XW@LAL: desktop grid with nd-like churn.
        lal_trace = nodes_from_flat(*get_trace_spec("nd").materialize(
            rng, self.horizon, max_nodes=lal_nodes))
        self.lal_pool = NodePool(lal_trace,
                                 rng=np.random.default_rng([seed, 1]))
        self.xw_lal = XWHepServer(self.sim, self.lal_pool, name="XW@LAL")

        # XW@LRI: Grid'5000 best-effort, bounded to 200 nodes (§5).
        lri_trace = nodes_from_flat(*get_trace_spec("g5klyo").materialize(
            rng, self.horizon, max_nodes=lri_nodes))
        self.lri_pool = NodePool(lri_trace,
                                 rng=np.random.default_rng([seed, 2]))
        self.xw_lri = XWHepServer(self.sim, self.lri_pool, name="XW@LRI")

        # Clouds: StratusLab backs LAL, EC2 backs LRI (Figure 8).
        self.stratuslab = get_driver("stratuslab", self.sim,
                                     rng=np.random.default_rng([seed, 3]))
        self.ec2 = get_driver("ec2", self.sim,
                              rng=np.random.default_rng([seed, 4]))

        # One SpeQuloS instance serves both DCIs (harness-connected).
        self.harness.add_dci("XW@LAL", self.xw_lal, self.stratuslab,
                             self.lal_pool)
        self.harness.add_dci("XW@LRI", self.xw_lri, self.ec2,
                             self.lri_pool)
        self.speq = self.harness.service

        # EGI reaches XW@LAL through the 3G-Bridge.
        self.bridge = ThreeGBridge(self.xw_lal, name="3g-bridge")

        self._rng = np.random.default_rng([seed, 0xB075])
        self._counter = 0

    # ------------------------------------------------------------------
    def _next_bot(self, size: int):
        self._counter += 1
        return make_bot("RANDOM", self._rng,
                        bot_id=f"edgi-{self._counter}",
                        size_override=size)

    def run(self, duration_days: float = 2.0, n_bots: int = 12,
            bot_size: int = 220, egi_fraction: float = 0.25,
            qos_fraction: float = 0.5,
            combo: Optional[StrategyCombo] = None) -> Dict[str, int]:
        """Drive a BoT stream through the deployment; Table 5 output.

        * ``egi_fraction`` of the BoTs arrive through the 3G-Bridge
          (EGI users), the rest are native XtremWeb submissions;
        * ``qos_fraction`` of all BoTs buy SpeQuloS QoS (credits worth
          10 % of their workload, the paper's provisioning);
        * BoTs alternate between XW@LAL (which also serves the bridged
          ones) and XW@LRI.
        """
        duration = duration_days * 86400.0
        combo = combo or StrategyCombo()  # 9C-C-R
        self.speq.credits.deposit("edgi-users", 1e9)
        submit_times = np.sort(self._rng.random(n_bots) * duration * 0.5)
        # Deterministic round-robin: exact fractions regardless of the
        # (possibly small) BoT count.
        egi_every = max(1, round(1.0 / egi_fraction)) if egi_fraction else 0
        qos_every = max(1, round(1.0 / qos_fraction)) if qos_fraction else 0
        for k in range(n_bots):
            bot = self._next_bot(bot_size)
            at = float(submit_times[k])
            bridged = bool(egi_every) and k % egi_every == 0
            if bridged:
                dci, server = "XW@LAL", self.xw_lal
            elif k % 2 == 0:
                dci, server = "XW@LAL", self.xw_lal
            else:
                dci, server = "XW@LRI", self.xw_lri
            # Alternate QoS in two-bot blocks so both DCIs get QoS and
            # non-QoS traffic regardless of the DCI round-robin parity.
            qos = bool(qos_every) and (k // 2) % qos_every == 0
            if qos:
                self.speq.register_qos(bot, dci, combo, submit_time=at)
                provision = (0.10 * bot.workload_cpu_hours
                             * CREDITS_PER_CPU_HOUR)
                self.speq.order_qos(bot.bot_id, "edgi-users", provision)
            if bridged:
                self.bridge.submit(bot, "EGI", at=at)
            else:
                server.submit_bot(bot, at=at)
        self.harness.run(until=duration)
        return self.accounting()

    # ------------------------------------------------------------------
    def accounting(self) -> Dict[str, int]:
        """Table 5's row: tasks executed per infrastructure component.

        DG counts are tasks completed by each XtremWeb server (bridged
        EGI tasks included, as in the paper); the EGI row counts the
        bridged subset; cloud rows count tasks *assigned* to each
        cloud's workers by SpeQuloS (the harness folds the
        Cloud-duplication coordinators' completions in).
        """
        return {
            "XW@LAL": self.xw_lal.stats.completions,
            "XW@LRI": self.xw_lri.stats.completions,
            "EGI": self.bridge.completed_for("EGI"),
            "StratusLab": self.harness.cloud_task_count("XW@LAL"),
            "EC2": self.harness.cloud_task_count("XW@LRI"),
        }
