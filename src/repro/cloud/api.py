"""Provider-agnostic IaaS compute API (simulated libcloud).

The real SpeQuloS drives heterogeneous clouds through libcloud's
``create_node`` / ``destroy_node`` verbs; the simulation keeps exactly
that surface so the SpeQuloS Scheduler is written against an interface,
not a provider.  A :class:`ComputeDriver` turns virtual money into
:class:`~repro.infra.node.Node` objects that are *stable* (single
``[boot_end, inf)`` availability interval) and typically 3x faster than
the average desktop node (Table 2).
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.infra.node import Node
from repro.simulator.engine import Simulation

__all__ = ["CloudError", "QuotaExceeded", "CloudInstance", "ComputeDriver",
           "ProviderProfile", "peak_concurrency"]

#: Cloud worker node ids live far above trace node ids.
_CLOUD_ID_BASE = 10_000_000
_cloud_id_counter = itertools.count(_CLOUD_ID_BASE)


class CloudError(RuntimeError):
    """Base class for cloud API failures."""


class QuotaExceeded(CloudError):
    """The provider refused to start more instances."""


@dataclass(frozen=True)
class ProviderProfile:
    """Static characteristics of one simulated provider."""

    name: str
    #: seconds from create_node to the worker accepting tasks
    boot_delay: float
    #: worker power distribution (nops/s); Table 2: clouds ~ N(3000, 300)
    power_mean: float = 3000.0
    power_std: float = 300.0
    #: provider-side cap on simultaneously running instances
    max_instances: int = 10_000
    #: descriptive only — deployment accounting (Table 5 flavour)
    region: str = "eu-west"


@dataclass
class CloudInstance:
    """A running (or booting) cloud worker instance."""

    instance_id: int
    provider: str
    node: Node
    created_at: float
    boot_end: float
    #: the creating driver's history row (``created``/``destroyed``)
    row: int
    #: the creating driver's identity token (``destroy_node`` checks it)
    owner: object
    meta: Dict[str, str] = field(default_factory=dict)


class ComputeDriver:
    """Simulated libcloud driver bound to one provider and simulation.

    Subclass-free by design: provider differences are data
    (:class:`ProviderProfile`), matching how libcloud drivers differ
    mostly in endpoints and flavours.  The registry instantiates one
    driver per named provider.
    """

    def __init__(self, profile: ProviderProfile, sim: Simulation,
                 rng: Optional[np.random.Generator] = None):
        self.profile = profile
        self.sim = sim
        self.rng = rng or np.random.default_rng(0)
        #: alive instances only: :meth:`destroy_node` drops them
        self.instances: Dict[int, CloudInstance] = {}
        #: the driver's whole history, one row per instance ever
        #: created, in creation order: its creation and destruction
        #: instants (``inf`` while alive) — all a destroyed instance
        #: leaves behind
        self.created = array("d")
        self.destroyed = array("d")
        #: identity token each instance carries (ownership check)
        self._owner = object()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.profile.name

    def running_count(self) -> int:
        return len(self.instances)

    def create_node(self, tag: str = "", **meta: str) -> CloudInstance:
        """Start one instance; the node accepts work after boot_delay.

        Raises :class:`QuotaExceeded` beyond the provider cap.
        """
        if len(self.instances) >= self.profile.max_instances:
            raise QuotaExceeded(
                f"{self.name}: quota of {self.profile.max_instances} reached")
        now = self.sim.now
        boot_end = now + self.profile.boot_delay
        power = float(max(50.0, self.rng.normal(self.profile.power_mean,
                                                self.profile.power_std))
                      if self.profile.power_std > 0
                      else self.profile.power_mean)
        node = Node.stable(next(_cloud_id_counter), power, start=boot_end,
                           tag=tag or self.name)
        inst = CloudInstance(instance_id=node.node_id, provider=self.name,
                             node=node, created_at=now, boot_end=boot_end,
                             row=len(self.created), owner=self._owner,
                             meta=dict(meta))
        self.created.append(now)
        self.destroyed.append(math.inf)
        self.instances[inst.instance_id] = inst
        return inst

    def destroy_node(self, inst: CloudInstance) -> None:
        """Terminate an instance (idempotent)."""
        if inst.owner is not self._owner:
            raise CloudError(f"unknown instance {inst.instance_id}")
        if self.instances.pop(inst.instance_id, None) is not None:
            self.destroyed[inst.row] = self.sim.now

    def list_nodes(self) -> List[CloudInstance]:
        """The alive instances, in creation order."""
        return list(self.instances.values())

    def total_cpu_hours(self) -> float:
        """Billable CPU·hours across all instances ever started.

        Each row's lifetime (creation to destruction, or to now while
        alive), summed in creation order with the built-in ``sum``.
        """
        now = self.sim.now
        return sum(max(0.0, min(end, now) - start) for start, end
                   in zip(self.created, self.destroyed)) / 3600.0

    def peak_concurrency(self) -> int:
        """Max simultaneously alive instances over the driver's history.

        The number arbitration worker budgets are checked against; a
        federation computes its *global* peak by passing every
        driver's concatenated history to :func:`peak_concurrency` in
        one call (per-driver peaks happen at different times, so
        summing them would over-count).
        """
        return peak_concurrency(self.created, self.destroyed)


def peak_concurrency(created: Sequence[float],
                     destroyed: Sequence[float]) -> int:
    """Peak simultaneously alive instances over a creation history.

    ``created[i]`` and ``destroyed[i]`` are instance ``i``'s creation
    and destruction instants, ``inf`` while it is alive.  Sweeps the
    create/destroy deltas in time order, a destroy before a create at
    the same instant; still-alive instances count to the end of the
    history.
    """
    created = np.asarray(created, dtype=np.float64)
    if not created.size:
        return 0
    destroyed = np.asarray(destroyed, dtype=np.float64)
    times = np.concatenate((created, destroyed[destroyed != math.inf]))
    deltas = np.ones(times.size, dtype=np.int64)
    deltas[created.size:] = -1
    running = np.cumsum(deltas[np.lexsort((deltas, times))])
    return max(0, int(running.max()))
