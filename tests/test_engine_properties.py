"""Seeded randomized property tests for the simulation engine.

Each test drives :class:`~repro.simulator.engine.Simulation` through a
randomized but fully seeded scenario — interleaved schedule / cancel /
stop operations issued from inside callbacks — and checks the engine's
contract properties rather than specific traces:

* execution order is exactly ``(time, priority, seq)``-sorted;
* cancelled events never fire, and ``events_processed`` counts every
  event that did;
* ``pending()`` / ``peek()`` agree with a shadow model of the heap;
* ``run(until=...)`` never advances past its bound, never runs an
  event beyond it, and the clock is monotone across phased runs.
"""

import random

import pytest

from repro.simulator.engine import (
    PRIORITY_INFRA,
    PRIORITY_MONITOR,
    PRIORITY_NORMAL,
    Simulation,
)

PRIORITIES = (PRIORITY_INFRA, PRIORITY_NORMAL, PRIORITY_MONITOR)
SEEDS = range(8)


class RandomDriver:
    """Issues random schedule/cancel operations from inside callbacks
    and records every execution with its full ordering key."""

    def __init__(self, sim: Simulation, rng: random.Random,
                 max_events: int = 400):
        self.sim = sim
        self.rng = rng
        self.max_events = max_events
        self.spawned = 0
        self.by_token = {}      # spawn index -> Event
        self.live = {}          # event -> key, not yet fired/cancelled
        self.cancelled = set()
        self.executed = []      # (time, priority, seq) in firing order

    def spawn(self, n: int) -> None:
        for _ in range(n):
            if self.spawned >= self.max_events:
                return
            delay = self.rng.choice([0.0, 0.0, self.rng.uniform(0.0, 50.0)])
            priority = self.rng.choice(PRIORITIES)
            token = self.spawned
            ev = self.sim.schedule(delay, self._fire, token,
                                   priority=priority)
            # the engine fills in the tie-breaking seq; remember the key
            self.by_token[token] = ev
            self.live[ev] = (ev.time, ev.priority, ev.seq)
            self.spawned += 1

    def cancel_some(self) -> None:
        victims = [ev for ev in self.live if self.rng.random() < 0.15]
        for ev in victims:
            ev.cancel()
            self.cancelled.add(ev)
            del self.live[ev]

    def _fire(self, token: int) -> None:
        # the event firing must be the (time, priority, seq)-minimum of
        # everything currently live — that IS the engine's ordering
        # contract, stated against a shadow model of the heap
        current = self.by_token[token]
        key = self.live.pop(current)
        assert all(key <= other for other in self.live.values())
        assert self.sim.now == key[0]
        # time (the key's first component) is globally monotone; the
        # full key is only ordered among coexisting events
        assert not self.executed or key[0] >= self.executed[-1][0]
        self.executed.append(key)
        if self.rng.random() < 0.6:
            self.spawn(self.rng.randint(0, 3))
        if self.rng.random() < 0.3:
            self.cancel_some()
        self._check_introspection()

    def _check_introspection(self) -> None:
        assert self.sim.pending() == len(self.live)
        peek = self.sim.peek()
        if not self.live:
            assert peek is None
        else:
            assert peek == min(key[0] for key in self.live.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_interleaving_fires_in_key_order(seed):
    rng = random.Random(seed)
    sim = Simulation()
    driver = RandomDriver(sim, rng)
    driver.spawn(30)
    sim.run()
    assert len(driver.executed) == driver.spawned - len(driver.cancelled)
    assert sim.events_processed == len(driver.executed)
    assert not driver.live


@pytest.mark.parametrize("seed", SEEDS)
def test_cancelled_events_never_fire(seed):
    rng = random.Random(1000 + seed)
    sim = Simulation()
    fired = []
    events = []
    for i in range(200):
        ev = sim.at(rng.uniform(0.0, 100.0), fired.append, i,
                    priority=rng.choice(PRIORITIES))
        events.append(ev)
    doomed = {i for i in range(200) if rng.random() < 0.5}
    for i in doomed:
        events[i].cancel()
        events[i].cancel()  # cancel is idempotent
    sim.run()
    assert set(fired) == set(range(200)) - doomed
    assert sim.pending() == 0 and sim.peek() is None


@pytest.mark.parametrize("seed", SEEDS)
def test_stop_halts_after_current_callback(seed):
    rng = random.Random(2000 + seed)
    sim = Simulation()
    fired = []
    times = sorted(rng.uniform(0.0, 100.0) for _ in range(50))
    stop_at = rng.randrange(50)

    def cb(i):
        fired.append(i)
        if len(fired) == stop_at + 1:
            sim.stop()

    for i, t in enumerate(times):
        sim.at(t, cb, i)
    sim.run()
    assert len(fired) == stop_at + 1
    assert sim.events_processed == stop_at + 1
    assert sim.now == pytest.approx(times[fired[-1]])
    # a fresh run() resumes where the stop left off
    sim.run()
    assert len(fired) == 50
    assert sim.events_processed == 50


@pytest.mark.parametrize("seed", SEEDS)
def test_run_until_clock_invariants(seed):
    rng = random.Random(3000 + seed)
    sim = Simulation()
    fired = []
    for _ in range(120):
        t = rng.uniform(0.0, 1000.0)
        sim.at(t, lambda t=t: fired.append(t))
    bounds = sorted(rng.uniform(0.0, 1100.0) for _ in range(6))
    prev_now = 0.0
    for until in bounds:
        returned = sim.run(until=until)
        assert returned == sim.now
        assert sim.now >= prev_now          # clock is monotone
        assert sim.now <= until             # never passes the bound
        assert all(t <= until for t in fired)
        nxt = sim.peek()
        assert nxt is None or nxt > until   # nothing due was left behind
        prev_now = sim.now
    sim.run()
    assert len(fired) == 120
    assert fired == sorted(fired)
