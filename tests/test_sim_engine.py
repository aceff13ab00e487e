"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.processed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    executed = sim.run_until(2.0)
    assert executed == 1
    assert fired == [1.5]
    assert sim.now == 2.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_in_insertion_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, lambda name=name: order.append(name))
    sim.run()
    assert order == list("abcde")


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run_until(2.0)
    assert fired == [1]
    assert sim.pending == 1
    sim.run_until(6.0)
    assert fired == [1, 5]


def test_clock_advances_to_end_time_even_when_queue_drains():
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(sim.now)
        if depth > 0:
            sim.schedule(1.0, lambda: chain(depth - 1))

    sim.schedule(1.0, lambda: chain(3))
    sim.run()
    assert fired == [1.0, 2.0, 3.0, 4.0]


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, lambda: fired.append("x"))
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.active


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, lambda: fired.append("x"))
    sim.run()
    timer.cancel()
    assert fired == ["x"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_max_events_caps_execution():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    executed = sim.run(max_events=4)
    assert executed == 4
    assert sim.pending == 6


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run_until(10.0)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_drain_cancelled_removes_dead_events():
    sim = Simulator()
    timers = [sim.schedule(1.0, lambda: None) for _ in range(5)]
    for timer in timers[:4]:
        timer.cancel()
    sim.drain_cancelled()
    assert sim.pending == 1


def test_timer_deadline_exposed():
    sim = Simulator()
    timer = sim.schedule(2.5, lambda: None)
    assert timer.deadline == pytest.approx(2.5)


def test_processed_counter_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    dead = sim.schedule(1.0, lambda: None)
    dead.cancel()
    sim.run()
    assert sim.processed == 1
    assert keep.deadline == 1.0


def test_fire_entries_and_timers_share_one_entry_shape():
    """A fire-tuple and a timer entry are told apart by ``entry[2]``;
    both count when they run, a cancelled timer between them does not."""
    sim = Simulator()
    order = []
    sim.schedule_fire(1.0, order.append, "fire-1")
    dead = sim.schedule(1.0, lambda: order.append("dead"))
    sim.schedule(1.0, lambda: order.append("timer"))
    sim.schedule_fire(1.0, order.append, "fire-2")
    dead.cancel()
    assert {len(entry) for entry in sim._queue} == {4}
    assert sim.run_until(2.0) == 3
    assert order == ["fire-1", "timer", "fire-2"]
    assert sim.processed == 3 and sim.cancelled_pending == 0


def test_timer_inactive_after_fire():
    """Regression: a fired timer used to keep reporting active=True."""
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    assert timer.active
    sim.run()
    assert not timer.active


def test_cancel_after_fire_does_not_mark_cancelled():
    """cancel() on an executed event is a no-op, not a phantom cancel."""
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.run()
    timer.cancel()
    assert sim.cancelled_pending == 0
    assert not timer.active


def test_timer_inactive_while_callback_runs():
    sim = Simulator()
    seen = []
    timer_box = []

    def probe():
        seen.append(timer_box[0].active)

    timer_box.append(sim.schedule(1.0, probe))
    sim.run()
    assert seen == [False]


def test_heap_autocompacts_under_mass_cancellation():
    """Cancelled timers must not accumulate for the whole run."""
    sim = Simulator()
    total = 10_000
    timers = [sim.schedule(1000.0, lambda: None) for _ in range(total)]
    for timer in timers[:-1]:
        timer.cancel()
    # Compaction keeps the heap near the live count (modulo the small
    # minimum queue size below which compaction is not worth it) instead
    # of letting all dead entries sit until their deadline.
    assert sim.pending < 100
    assert sim.compactions >= 1


def test_autocompaction_preserves_event_order():
    sim = Simulator()
    order = []
    keep = []
    for index in range(200):
        timer = sim.schedule(
            1.0 + index, lambda index=index: order.append(index)
        )
        if index % 2:
            keep.append(index)
        else:
            timer.cancel()
    sim.run()
    assert order == keep


def test_cancellation_inside_callback_triggers_compaction():
    """Mass-cancel from inside a running callback (chaos-style)."""
    sim = Simulator()
    timers = []

    def cancel_most():
        for timer in timers:
            timer.cancel()

    for _ in range(500):
        timers.append(sim.schedule(100.0, lambda: None))
    survivor = []
    sim.schedule(1.0, cancel_most)
    sim.schedule(200.0, lambda: survivor.append(sim.now))
    sim.run()
    assert survivor == [200.0]
    assert sim.pending == 0


def test_drain_cancelled_resets_cancel_accounting():
    sim = Simulator()
    timers = [sim.schedule(1.0, lambda: None) for _ in range(10)]
    for timer in timers[:5]:
        timer.cancel()
    sim.drain_cancelled()
    assert sim.pending == 5
    assert sim.cancelled_pending == 0


def test_hot_path_classes_have_no_dict():
    """Hot-path objects are __slots__-only: no per-instance __dict__.

    An accidental __dict__ (a forgotten __slots__ on a new base class,
    or an attribute assigned outside the slots) costs ~100 bytes and a
    dict allocation per instance, which at millions of envelopes/events
    per run dominates memory. Instantiating isn't needed — a class whose
    full MRO declares __slots__ never grows a __dict__ descriptor.
    """
    from repro.mempool.fetching import _PendingFetch
    from repro.mempool.stratus.pab import _PushState
    from repro.sim.engine import Timer
    from repro.sim.interfaces import Envelope
    from repro.sim.network import _Flow, _Ingress, _Transfer, _Uplink

    hot = [Simulator, Timer, Envelope,
           _Flow, _Uplink, _Ingress, _Transfer,
           _PendingFetch, _PushState]
    offenders = [cls.__name__ for cls in hot if "__dict__" in dir(cls)]
    assert offenders == [], f"classes grew a __dict__: {offenders}"
