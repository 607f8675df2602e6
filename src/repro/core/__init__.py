"""The SpeQuloS service (paper §3).

Four cooperating modules, mirroring Figure 3's architecture:

* :mod:`repro.core.info` — **Information**: monitors BoT executions
  (completed / assigned / waiting time series) and archives execution
  history for statistical prediction;
* :mod:`repro.core.credit` — **Credit System**: banking-style accounts,
  QoS orders, billing at 15 credits per CPU·hour, deposit policies;
* :mod:`repro.core.oracle` — **Oracle**: completion-time prediction
  (``tp = α · tc(r)/r``) and the cloud-provisioning decision logic;
* :mod:`repro.core.scheduler` — **Scheduler**: starts, feeds, bills and
  stops Cloud workers for QoS-enabled BoTs.

:class:`repro.core.service.SpeQuloS` wires them together behind the
user-facing API of the paper's sequence diagram (registerQoS /
orderQoS / getPrediction).
"""

from repro.core.credit import (
    CappedDailyDeposit,
    CreditSystem,
    InsufficientCredits,
    CREDITS_PER_CPU_HOUR,
)
from repro.core.info import BoTMonitor, InformationModule
from repro.core.oracle import Oracle, Prediction, fit_alpha
from repro.core.scheduler import SchedulerConfig, SpeQuloSScheduler
from repro.core.service import SpeQuloS
from repro.core.strategies import (
    ALL_COMBOS,
    DEPLOY_CLOUD_DUP,
    DEPLOY_FLAT,
    DEPLOY_RESCHEDULE,
    StrategyCombo,
    parse_combo,
)

__all__ = [
    "BoTMonitor",
    "InformationModule",
    "CreditSystem",
    "InsufficientCredits",
    "CappedDailyDeposit",
    "CREDITS_PER_CPU_HOUR",
    "Oracle",
    "Prediction",
    "fit_alpha",
    "SchedulerConfig",
    "SpeQuloSScheduler",
    "SpeQuloS",
    "StrategyCombo",
    "parse_combo",
    "ALL_COMBOS",
    "DEPLOY_FLAT",
    "DEPLOY_RESCHEDULE",
    "DEPLOY_CLOUD_DUP",
]
