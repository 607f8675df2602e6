"""One repetition of a workload, in its own process.

Usage: ``python3 rep.py '<json spec>'`` with the spec keys
``workload``, ``seed``, ``trace`` (wrap the layers' entry points) and
``warm`` (re-issue the request against the now-full result store).
``run.py`` points the ``REPRO_*`` store variables at this repetition's
private directories before starting it.  Prints one JSON line:

* ``wall_s`` — the request's wall time; ``events`` — simulator events
  it processed;
* ``digest`` and ``errors`` — the workload's result digest and its
  broken invariants (the warm pass adds its own checks);
* ``warm_s`` — the warm pass's wall time (when ``warm``);
* ``rss_mb`` — the process's peak resident set;
* ``layers`` — ``group -> [calls, self seconds]`` (when ``trace``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))


class SimCounter:
    """Counts simulations and their events by wrapping ``Simulation.run``
    (one extra call per simulation, traced or not)."""

    def __init__(self) -> None:
        from repro.simulator.engine import Simulation
        self.runs = 0
        self.events = 0
        original = Simulation.run

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.runs += 1
                self.events += sim.events_processed - before

        Simulation.run = run


def clear_process_caches() -> None:
    """Forget everything a previous request left in this process, so a
    re-issued request can only be answered by the result store."""
    from repro.experiments import figures
    from repro.experiments.harness import ASSEMBLY_CACHE, TRACE_CACHE
    figures._memo.clear()
    TRACE_CACHE.clear()
    ASSEMBLY_CACHE.clear()


def main(spec: dict) -> dict:
    from layers import Tracer, import_layers
    from workloads import WORKLOADS
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    import_layers()
    counter = SimCounter()
    tracer = None
    if spec["trace"]:
        tracer = Tracer().install()

    t0 = time.perf_counter()
    outcome = workload.request(seed)
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "events": counter.events,
           "digest": workload.digest(outcome),
           "errors": workload.check(outcome)}
    if isinstance(outcome, dict) and "builder_ms" in outcome:
        out["builder_ms"] = outcome["builder_ms"]
    if tracer is not None:
        out["layers"] = {group: list(v)
                         for group, v in tracer.snapshot().items()}
        tracer.uninstall()

    if spec["warm"]:
        clear_process_caches()
        counter.runs = 0
        t0 = time.perf_counter()
        warm = workload.request(seed)
        out["warm_s"] = time.perf_counter() - t0
        if counter.runs:
            out["errors"].append(f"warm pass ran {counter.runs} "
                                 f"simulations (expected 0)")
        if workload.digest(warm) != out["digest"]:
            out["errors"].append("the result read back from the store "
                                 "differs from the computed one")
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
