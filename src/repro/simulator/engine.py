"""Deterministic discrete-event simulation engine.

Design notes
------------
The whole reproduction is trace-driven simulation (paper §4): BOINC and
XtremWeb-HEP servers, tens of thousands of volatile workers, the
SpeQuloS monitor loop and cloud workers all advance a shared virtual
clock.  The engine below is a textbook event heap:

* events are ``(time, priority, seq)``-ordered — ``priority`` lets
  infrastructure events (a node dying) run before policy events (the
  SpeQuloS tick) scheduled at the same instant, and ``seq`` makes
  FIFO order among equal keys deterministic;
* each event is one ``(time, priority, seq, event)`` heap entry;
  ``seq`` is unique, so every heap comparison resolves in C without
  ever reaching the event object;
* events are cancellable in O(1) (lazy deletion: the heap entry stays,
  the callback is dropped when popped);
* time never goes backwards; scheduling in the past raises.

Every popped live event is one callback call and one count in
``events_processed``.

There is deliberately no wall-clock access and no global state: one
:class:`Simulation` per execution, so campaigns can run executions in
parallel processes without interference.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulation", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulation.schedule` /
    :meth:`Simulation.at`.  Keeping a reference allows cancellation;
    dropping it is fine (the engine owns the heap entry).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} p={self.priority} {name} {state}>"


#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Infrastructure events (node up/down) that must precede policy at equal t.
PRIORITY_INFRA = -10
#: Monitoring / accounting events that must observe a settled state.
PRIORITY_MONITOR = 10

#: heap entry: (time, priority, seq, event)
_HeapEntry = Tuple[float, int, int, Event]


class Simulation:
    """A single-threaded discrete-event simulator.

    Parameters
    ----------
    horizon:
        Hard stop (virtual seconds).  :meth:`run` never advances the
        clock past it; executions that would exceed it are reported as
        censored by the experiment runner.
    """

    def __init__(self, horizon: float = math.inf):
        if horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.now: float = 0.0
        self.horizon = float(horizon)
        self._heap: list[_HeapEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: callbacks fired when run() exits via stop() (see add_stop_hook)
        self._stop_hooks: List[Callable[[], None]] = []
        self.events_processed = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.at(self.now + delay, fn, *args, priority=priority)

    def at(self, time: float, fn: Callable[..., Any], *args: Any,
           priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self.now!r}")
        time = float(time)
        seq = next(self._seq)
        ev = Event(time, priority, seq, fn, args)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def add_stop_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` when :meth:`run` returns because of :meth:`stop`.

        Hooks fire after the event loop has exited, so they may cancel
        or discard still-scheduled events without affecting the
        transcript (those events were never going to execute).  They
        are for terminal cleanup — e.g. the harness cancelling dead
        dispatch wake-up timers once a campaign's watcher stops the
        run.  Hooks do not fire on a horizon/`until` drain (the run
        may legitimately be continued in phases).
        """
        if not callable(fn):
            raise SimulationError("add_stop_hook expects a callable")
        self._stop_hooks.append(fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events in order until the heap drains.

        ``until`` (absolute time) bounds this call; the overall
        ``horizon`` bounds the simulation.  Returns the clock value when
        the run stops.  May be called repeatedly to advance in phases.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        limit = self.horizon if until is None else min(float(until), self.horizon)
        self._running = True
        self._stopped = False
        try:
            heap = self._heap
            pop = heapq.heappop
            while heap and heap[0][0] <= limit:
                ev = pop(heap)[3]
                if ev.cancelled:
                    continue
                self.now = ev.time
                self.events_processed += 1
                ev.fn(*ev.args)
                if self._stopped:
                    for fn in self._stop_hooks:
                        fn()
                    return self.now
            if until is not None and limit > self.now:
                # Bounded run with nothing left before the bound: the
                # clock advances to the bound even on a drained heap, so
                # phased callers (tick loops) see time move.  Unbounded
                # runs still rest at the last event time so completion
                # timestamps stay exact.
                self.now = limit
            return self.now
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active callback returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Prunes cancelled entries while counting (the same garbage
        :meth:`peek` pops from the top) and re-heapifies the rest, so
        a heap churned by cancellations does not keep every dead event
        in memory until its time comes around.  The heap list object
        is mutated in place — :meth:`run` holds an alias to it.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[3].cancelled]
        if len(live) != len(heap):
            heapq.heapify(live)
            heap[:] = live
        return len(live)

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is drained."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulation t={self.now:.3f} queued={len(self._heap)} "
                f"processed={self.events_processed}>")
