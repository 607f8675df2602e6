"""SpeQuloS service facade — the user-facing API of Figure 3.

Wires the four modules together and exposes the sequence-diagram verbs:

* ``connect_dci`` — register a BE-DCI (its DG server) and the Cloud
  that supports it; several DCIs and Clouds can be connected to a
  single SpeQuloS instance, as in the EDGI deployment (§5);
* ``register_qos`` — the user declares a BoT and gets a BoTId;
* ``order_qos`` — the user escrows credits for the BoT;
* ``get_prediction`` — predicted completion time + statistical
  uncertainty (§3.4);
* completion is observed automatically: the Scheduler finalizes the
  Cloud side and the service archives the execution trace into the
  Information module's history for future predictions.

Multi-tenant verbs (§5's shared-service regime): ``open_qos_pool``
escrows one shared credit provision, ``order_qos_pooled`` lets a
registered BoT bill against it, and an optional
:class:`~repro.core.scheduler.CloudArbiter` (constructor argument)
rations workers and pooled credits between the concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.api import ComputeDriver
from repro.core.credit import CreditPool, CreditSystem
from repro.core.info import BoTMonitor, InformationModule
from repro.core.oracle import Oracle, Prediction
from repro.core.scheduler import (
    CloudArbiter,
    QoSRun,
    SchedulerConfig,
    SpeQuloSScheduler,
)
from repro.core.strategies import StrategyCombo
from repro.history import env_key_of
from repro.middleware.base import DGServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks

__all__ = ["SpeQuloS", "DCIBinding"]


@dataclass
class DCIBinding:
    """One BE-DCI known to the service and its supporting Cloud."""

    name: str
    server: DGServer
    driver: ComputeDriver


class SpeQuloS:
    """The complete QoS service (Information + Credit + Oracle +
    Scheduler) for one simulation."""

    def __init__(self, sim: Simulation,
                 info: Optional[InformationModule] = None,
                 credits: Optional[CreditSystem] = None,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 arbiter: Optional[CloudArbiter] = None,
                 pricebook=None):
        self.sim = sim
        self.info = info or InformationModule()
        self.credits = credits or CreditSystem()
        self.scheduler = SpeQuloSScheduler(
            sim, self.info, self.credits, scheduler_config,
            on_run_finished=self._archive_run, arbiter=arbiter,
            pricebook=pricebook)
        self.dcis: Dict[str, DCIBinding] = {}
        self._bot_dci: Dict[str, str] = {}
        self._bot_env: Dict[str, str] = {}
        self._bot_combo: Dict[str, StrategyCombo] = {}

    # ------------------------------------------------------------------
    # infrastructure wiring
    # ------------------------------------------------------------------
    def connect_dci(self, name: str, server: DGServer,
                    driver: ComputeDriver) -> DCIBinding:
        """Attach a BE-DCI (DG server) and its supporting Cloud."""
        if name in self.dcis:
            raise ValueError(f"DCI {name!r} already connected")
        binding = DCIBinding(name=name, server=server, driver=driver)
        self.dcis[name] = binding
        return binding

    # ------------------------------------------------------------------
    # user API (sequence diagram, Figure 3)
    # ------------------------------------------------------------------
    def register_qos(self, bot: BagOfTasks, dci: str,
                     combo: Optional[StrategyCombo] = None,
                     submit_time: Optional[float] = None,
                     deadline: Optional[float] = None) -> str:
        """registerQoS(BoT) -> BoTId.

        Creates the Information monitor and attaches the Scheduler.
        ``submit_time`` defaults to the current simulation time; the
        BoT itself must be submitted to the DG server by the user (as
        in the paper, submission goes directly to the BE-DCI, tagged
        with the BoTId).  ``deadline`` (absolute virtual time) feeds
        the deadline-proximity arbitration policy, when one is active.
        """
        binding = self.dcis[dci]
        t0 = self.sim.now if submit_time is None else submit_time
        mon = self.info.register(bot, t0)
        binding.server.add_observer(mon, bot_id=bot.bot_id)
        combo = combo or StrategyCombo()
        self._bot_dci[bot.bot_id] = dci
        self._bot_env[bot.bot_id] = self.env_key(dci, bot.category)
        self._bot_combo[bot.bot_id] = combo
        self.scheduler.attach(bot.bot_id, binding.server, binding.driver,
                              combo, deadline=deadline)
        return bot.bot_id

    def order_qos(self, bot_id: str, user: str, credits: float) -> None:
        """orderQoS(BoTId, credit): escrow credits for the BoT."""
        if bot_id not in self._bot_dci:
            raise KeyError(f"BoT {bot_id!r} is not QoS-registered")
        self.credits.order(bot_id, user, credits)

    # ------------------------------------------------------------------
    # multi-tenant API (shared-service regime, §5)
    # ------------------------------------------------------------------
    def open_qos_pool(self, pool_id: str, user: str, credits: float,
                      expected_members: Optional[int] = None) -> CreditPool:
        """Escrow one shared credit provision for several BoTs."""
        return self.credits.open_pool(pool_id, user, credits,
                                      expected_members=expected_members)

    def order_qos_pooled(self, bot_id: str, pool_id: str) -> None:
        """orderQoS against a shared pool instead of a private escrow."""
        if bot_id not in self._bot_dci:
            raise KeyError(f"BoT {bot_id!r} is not QoS-registered")
        self.credits.join_pool(bot_id, pool_id)

    def get_prediction(self, bot_id: str) -> Optional[Prediction]:
        """getQoSInformation(BoTId): predicted completion + uncertainty."""
        env = self._bot_env[bot_id]
        combo = self._bot_combo[bot_id]
        return Oracle(self.info, combo).predict(bot_id, env)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def env_key(dci: str, category: str) -> str:
        """History bucket: same BE-DCI + same BoT category (§4.3.3
        fits α per trace, middleware and category; the DCI name is
        expected to identify trace + middleware)."""
        return env_key_of(dci, category)

    @property
    def meter(self):
        """The scheduler's :class:`~repro.economics.billing.
        BillingMeter` — the per-provider credit accounting source."""
        return self.scheduler.meter

    def _archive_run(self, run: QoSRun) -> None:
        env = self._bot_env.get(run.bot_id)
        if env is None:
            return
        mon = self.info.monitor(run.bot_id)
        if mon.done:
            order = self.credits.get_order(run.bot_id)
            dci = self._bot_dci.get(run.bot_id)
            provider = (self.dcis[dci].driver.name
                        if dci in self.dcis else "")
            self.info.archive_execution(
                env, mon,
                credits_spent=order.spent if order is not None else 0.0,
                provider=provider)

    def monitor(self, bot_id: str) -> BoTMonitor:
        return self.info.monitor(bot_id)

    def run_for(self, bot_id: str) -> QoSRun:
        return self.scheduler.runs[bot_id]
