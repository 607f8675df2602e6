"""The history plane: execution history as a first-class subsystem.

The paper's Information module (§3.2) archives every QoS execution so
the Oracle's α-calibrated predictions (§3.4) improve with use.  This
package owns that archive end to end:

* :mod:`repro.history.records` — the :class:`ExecutionRecord` unit,
  the ``tc(x)`` percent grid, environment keys, and the in-memory
  backend;
* :mod:`repro.history.persistent` — the cross-run SQLite backend next
  to the campaign store, salted with the code fingerprint so stale
  history orphans itself like stale campaign results;
* :mod:`repro.history.calibration` — ``fit_alpha`` and the ±20 %
  ``prediction_success`` criterion (pure statistics over history);
* :mod:`repro.history.plane` — the :class:`HistoryPlane` query façade
  every consumer reads through: the Oracle (α, success rates,
  residuals), the routers (smoothed throughput, learned affinities)
  and the admission controller (predicted credit cost).

``open_history_plane`` maps a scenario's declarative ``history`` knob
(None/"memory" → fresh in-memory, "persistent" → the shared archive)
to a plane instance.
"""

from __future__ import annotations

from typing import Optional

from repro.history.calibration import (
    SUCCESS_TOLERANCE,
    fit_alpha,
    prediction_success,
)
from repro.history.persistent import (
    PersistentHistoryStore,
    default_history_path,
)
from repro.history.plane import EnvSummary, HistoryPlane
from repro.history.records import (
    GRID_FRACTIONS,
    ExecutionRecord,
    HistoryStore,
    InMemoryHistoryStore,
    env_key_of,
    split_env_key,
    tc_grid,
)

__all__ = [
    "GRID_FRACTIONS",
    "SUCCESS_TOLERANCE",
    "EnvSummary",
    "ExecutionRecord",
    "HISTORY_MODES",
    "HistoryPlane",
    "HistoryStore",
    "InMemoryHistoryStore",
    "PersistentHistoryStore",
    "default_history_path",
    "env_key_of",
    "fit_alpha",
    "open_history_plane",
    "prediction_success",
    "split_env_key",
    "tc_grid",
]

#: declarative history modes a scenario config may name
HISTORY_MODES = ("memory", "persistent")


def open_history_plane(mode: Optional[str] = None,
                       path: Optional[str] = None) -> HistoryPlane:
    """Plane for a declarative history mode.

    ``None`` or ``"memory"`` opens a fresh in-memory plane (the
    default — simulations stay pure functions of their config);
    ``"persistent"`` opens the shared cross-run archive (``path``
    overrides its location, else ``REPRO_HISTORY`` / the campaign
    store directory).
    """
    if mode is None or mode == "memory":
        return HistoryPlane()
    if mode == "persistent":
        return HistoryPlane(PersistentHistoryStore(path))
    raise ValueError(f"unknown history mode {mode!r}; available: "
                     f"{', '.join(HISTORY_MODES)}")
