"""Simulation engine: ordering, cancellation, determinism, bounds."""

import math

import pytest

from repro.simulator.engine import (
    PRIORITY_INFRA,
    PRIORITY_MONITOR,
    PRIORITY_NORMAL,
    Simulation,
    SimulationError,
)


class Recorder:
    def __init__(self):
        self.log = []

    def mark(self, label):
        self.log.append(label)


def test_events_run_in_time_order():
    sim = Simulation()
    rec = Recorder()
    sim.at(5.0, rec.mark, "b")
    sim.at(1.0, rec.mark, "a")
    sim.at(9.0, rec.mark, "c")
    sim.run()
    assert rec.log == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulation()
    times = []
    sim.at(3.5, lambda: times.append(sim.now))
    sim.at(7.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [3.5, 7.25]
    assert sim.now == 7.25


def test_schedule_uses_relative_delay():
    sim = Simulation()
    seen = []
    def later():
        seen.append(sim.now)
    def first():
        sim.schedule(10.0, later)
    sim.at(2.0, first)
    sim.run()
    assert seen == [12.0]


def test_equal_time_fifo_order():
    sim = Simulation()
    rec = Recorder()
    for label in "abcde":
        sim.at(1.0, rec.mark, label)
    sim.run()
    assert rec.log == list("abcde")


def test_priority_orders_simultaneous_events():
    sim = Simulation()
    rec = Recorder()
    sim.at(1.0, rec.mark, "monitor", priority=PRIORITY_MONITOR)
    sim.at(1.0, rec.mark, "normal", priority=PRIORITY_NORMAL)
    sim.at(1.0, rec.mark, "infra", priority=PRIORITY_INFRA)
    sim.run()
    assert rec.log == ["infra", "normal", "monitor"]


def test_cancelled_event_does_not_run():
    sim = Simulation()
    rec = Recorder()
    ev = sim.at(1.0, rec.mark, "x")
    sim.at(2.0, rec.mark, "y")
    ev.cancel()
    sim.run()
    assert rec.log == ["y"]


def test_cancel_is_idempotent():
    sim = Simulation()
    ev = sim.at(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_cancel_from_within_callback():
    sim = Simulation()
    rec = Recorder()
    ev = sim.at(2.0, rec.mark, "victim")
    sim.at(1.0, ev.cancel)
    sim.run()
    assert rec.log == []


def test_scheduling_in_the_past_raises():
    sim = Simulation()
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_bounds_processing():
    sim = Simulation()
    rec = Recorder()
    sim.at(1.0, rec.mark, "early")
    sim.at(100.0, rec.mark, "late")
    sim.run(until=10.0)
    assert rec.log == ["early"]
    sim.run()
    assert rec.log == ["early", "late"]


def test_horizon_caps_run():
    sim = Simulation(horizon=50.0)
    rec = Recorder()
    sim.at(10.0, rec.mark, "in")
    sim.at(60.0, rec.mark, "out")
    sim.run()
    assert rec.log == ["in"]


def test_stop_halts_processing():
    sim = Simulation()
    rec = Recorder()
    sim.at(1.0, rec.mark, "a")
    sim.at(2.0, lambda: sim.stop())
    sim.at(3.0, rec.mark, "b")
    sim.run()
    assert rec.log == ["a"]
    # a further run resumes where it stopped
    sim.run()
    assert rec.log == ["a", "b"]


def test_run_is_not_reentrant():
    sim = Simulation()
    failure = {}
    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            failure["err"] = exc
    sim.at(1.0, reenter)
    sim.run()
    assert "err" in failure


def test_events_scheduled_during_run_execute():
    sim = Simulation()
    rec = Recorder()
    def chain(n):
        rec.mark(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)
    sim.at(0.0, chain, 0)
    sim.run()
    assert rec.log == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_pending_counts_live_events():
    sim = Simulation()
    ev1 = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    assert sim.pending() == 2
    ev1.cancel()
    assert sim.pending() == 1


def test_peek_skips_cancelled():
    sim = Simulation()
    ev1 = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    ev1.cancel()
    assert sim.peek() == 2.0


def test_invalid_horizon_rejected():
    with pytest.raises(SimulationError):
        Simulation(horizon=0)


def test_events_processed_counter():
    sim = Simulation()
    for i in range(7):
        sim.at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_zero_delay_event_runs_at_now():
    sim = Simulation()
    seen = []
    def outer():
        sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.at(4.0, outer)
    sim.run()
    assert seen == [4.0]


def test_infinite_horizon_default():
    sim = Simulation()
    assert math.isinf(sim.horizon)


def test_pending_prunes_cancelled_heap_entries():
    """The O(n) count used to leave cancelled garbage on the heap;
    pending() now compacts it (like peek pops it from the top) while
    keeping the remaining schedule intact."""
    sim = Simulation(horizon=100.0)
    ran = []
    keep = [sim.at(float(t), ran.append, t) for t in (10, 30, 50)]
    doomed = [sim.at(float(t), ran.append, -t) for t in (20, 40, 60)]
    for ev in doomed:
        ev.cancel()
    assert len(sim._heap) == 6
    assert sim.pending() == 3
    assert len(sim._heap) == 3          # garbage reclaimed eagerly
    sim.run()
    assert ran == [10, 30, 50]          # order survives the re-heapify
    assert keep[0].time == 10.0


def test_pending_prune_inside_running_callback():
    """run() holds an alias to the heap list; pending() must compact
    in place so events scheduled after the prune still fire."""
    sim = Simulation(horizon=100.0)
    ran = []

    def first():
        victim.cancel()
        assert sim.pending() == 1       # prunes mid-run
        ran.append("first")

    sim.at(1.0, first)
    victim = sim.at(2.0, ran.append, "cancelled")
    sim.at(3.0, ran.append, "last")
    sim.run()
    assert ran == ["first", "last"]


# ------------------------------------------------- same-timestamp order
def test_coalesced_events_preserve_priority_then_seq_order():
    sim = Simulation()
    log = []
    sim.at(5.0, log.append, "m1", priority=PRIORITY_MONITOR)
    sim.at(5.0, log.append, "n1")
    sim.at(5.0, log.append, "i1", priority=PRIORITY_INFRA)
    sim.at(5.0, log.append, "n2")
    sim.at(5.0, log.append, "m2", priority=PRIORITY_MONITOR)
    sim.at(5.0, log.append, "i2", priority=PRIORITY_INFRA)
    sim.run()
    assert log == ["i1", "i2", "n1", "n2", "m1", "m2"]


def test_same_time_lower_priority_scheduled_mid_drain_preempts_rest():
    """A callback raising an infra event at its own instant must see it
    run before the remaining same-time normal events — the exact
    (time, priority, seq) order a flat heap would produce."""
    sim = Simulation()
    log = []

    def normal(i):
        log.append(("n", i))
        if i == 0:
            sim.at(5.0, lambda: log.append(("infra",)),
                   priority=PRIORITY_INFRA)

    for i in range(3):
        sim.at(5.0, normal, i)
    sim.run()
    assert log == [("n", 0), ("infra",), ("n", 1), ("n", 2)]


def test_same_key_event_scheduled_mid_drain_runs_after_the_bucket():
    """Same time, same priority, scheduled from inside the bucket being
    drained: its seq is larger, so it runs after the existing events."""
    sim = Simulation()
    log = []

    def first():
        log.append("first")
        sim.at(5.0, log.append, "late")

    sim.at(5.0, first)
    sim.at(5.0, log.append, "second")
    sim.run()
    assert log == ["first", "second", "late"]


def test_stop_mid_bucket_resumes_in_order():
    sim = Simulation()
    log = []
    sim.at(5.0, log.append, "a")
    sim.at(5.0, lambda: (log.append("b"), sim.stop()))
    sim.at(5.0, log.append, "c")
    sim.at(6.0, log.append, "d")
    sim.run()
    assert log == ["a", "b"]
    sim.run()
    assert log == ["a", "b", "c", "d"]


def test_cancel_mid_bucket_skips_without_firing():
    sim = Simulation()
    log = []
    victims = []

    def first():
        log.append("first")
        for v in victims:
            v.cancel()

    sim.at(5.0, first)
    victims.append(sim.at(5.0, log.append, "victim1"))
    sim.at(5.0, log.append, "kept")
    victims.append(sim.at(5.0, log.append, "victim2"))
    sim.run()
    assert log == ["first", "kept"]
    assert sim.events_processed == 2


def test_run_until_drained_heap_advances_clock_to_bound():
    """Regression (phased service loops): a bounded run over an empty
    heap must advance `now` to the bound, not stand still."""
    sim = Simulation()
    sim.at(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    assert sim.run(until=10.0) == 10.0
    assert sim.now == 10.0
    # events remain schedulable at the advanced clock
    sim.at(10.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.at(9.0, lambda: None)
