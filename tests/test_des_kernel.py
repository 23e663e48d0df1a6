"""Unit tests for the discrete-event kernel."""

import pytest

from repro.des import AllOf, AnyOf, Interrupt, Simulator
from tests.helpers import next_event_time


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-0.1)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_past_deadline_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_process_sequencing_and_return_value():
    sim = Simulator()
    log = []

    def proc():
        log.append(("start", sim.now))
        yield sim.timeout(1.0)
        log.append(("mid", sim.now))
        yield sim.timeout(2.0)
        log.append(("end", sim.now))
        return 42

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == 42
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(1.0)
            order.append(tag)

        return proc

    for tag in "abcde":
        sim.process(make(tag)())
    sim.run()
    assert order == list("abcde")


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return "done"

    def parent():
        value = yield sim.process(child())
        return (value, sim.now)

    p = sim.process(parent())
    assert sim.run(until=p) == ("done", 3.0)


def test_wait_on_already_completed_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 7

    c = sim.process(child())

    def parent():
        yield sim.timeout(5.0)
        value = yield c  # already processed by now
        return value

    p = sim.process(parent())
    assert sim.run(until=p) == 7
    assert sim.now == 5.0


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        value = yield ev
        return value

    def trigger():
        yield sim.timeout(2.0)
        ev.succeed("payload")

    p = sim.process(waiter())
    sim.process(trigger())
    assert sim.run(until=p) == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = sim.process(waiter())
    sim.process(trigger())
    assert sim.run(until=p) == "caught boom"


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_process_exception_propagates_through_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    p = sim.process(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run(until=p)


def test_yield_none_is_cooperative_same_time_yield():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield None
        trace.append(sim.now)

    p = sim.process(proc())
    sim.run(until=p)
    assert trace == [0.0, 0.0]


def test_interrupt_terminates_uncatching_process():
    sim = Simulator()
    log = []

    def victim():
        log.append("started")
        yield sim.timeout(100.0)
        log.append("unreachable")

    def attacker(v):
        yield sim.timeout(5.0)
        v.interrupt("hyperlink")

    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run(until=v)
    assert log == ["started"]
    assert sim.now == pytest.approx(5.0)
    assert v.triggered
    # The orphaned 100 s timeout still drains from the queue afterwards.
    sim.run()
    assert log == ["started"]


def test_interrupt_catchable_with_cause():
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    def attacker(v):
        yield sim.timeout(2.0)
        v.interrupt("user-click")

    v = sim.process(victim())
    sim.process(attacker(v))
    assert sim.run(until=v) == ("interrupted", "user-click", 2.0)


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_anyof_triggers_on_first():
    sim = Simulator()

    def waiter():
        t1 = sim.timeout(5.0)
        t2 = sim.timeout(1.0)
        values = yield AnyOf(sim, [t1, t2])
        return (sim.now, list(values) == [t2])

    p = sim.process(waiter())
    assert sim.run(until=p) == (1.0, True)


def test_allof_waits_for_all():
    sim = Simulator()

    def waiter():
        t1 = sim.timeout(5.0)
        t2 = sim.timeout(1.0)
        values = yield AllOf(sim, [t1, t2])
        return (sim.now, set(values) == {t1, t2})

    p = sim.process(waiter())
    assert sim.run(until=p) == (5.0, True)


def test_allof_empty_triggers_immediately():
    sim = Simulator()

    def waiter():
        values = yield AllOf(sim, [])
        return values

    p = sim.process(waiter())
    assert sim.run(until=p) == {}


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.process(bad())
    with pytest.raises(TypeError):
        sim.run(until=p)


def test_run_until_event_with_drained_queue_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError, match="drained"):
        sim.run(until=ev)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert next_event_time(sim) == float("inf")
    sim.timeout(3.0)
    sim.timeout(1.0)
    assert next_event_time(sim) == 1.0  # timeouts enqueue at their fire time
    sim.run()
    assert next_event_time(sim) == float("inf")


def test_deterministic_replay_of_interleaving():
    def run_once():
        sim = Simulator()
        trace = []

        def ticker(name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                trace.append((name, round(sim.now, 6)))

        sim.process(ticker("a", 0.3, 10))
        sim.process(ticker("b", 0.7, 5))
        sim.run()
        return trace

    assert run_once() == run_once()


# -- inline run loop, step() fallback and the dispatch hook ---------------------

class _StepCounter(Simulator):
    """Counts how many entries ``run()`` sends through ``step()``."""

    def __init__(self):
        super().__init__()
        self.stepped = 0

    def step(self):
        self.stepped += 1
        super().step()


class _Tracer:
    enabled = True

    def __init__(self, detail):
        self.detail = detail
        self.kinds = []

    def emit(self, time, kind, subject="", **fields):
        self.kinds.append((kind, subject))


def _mixed_run(sim):
    """A process, a timeout, a ``call_later`` and an ``until`` event."""
    order = []
    done = sim.event()

    def proc():
        yield sim.timeout(1.0)
        order.append(("proc", sim.now))
        yield sim.timeout(2.0)
        done.succeed("finished")

    sim.process(proc())
    sim.call_later(1.0, order.append, ("call", 1.0))
    sim.call_later(2.0, lambda: order.append(("late", sim.now)))
    value = sim.run(until=done)
    sim.run(until=10.0)
    return order, value


# the process asks for its first timeout only once it has started, after
# both calls were scheduled
EXPECTED_ORDER = [("call", 1.0), ("proc", 1.0), ("late", 2.0)]


def test_untraced_run_dispatches_inline():
    sim = _StepCounter()
    assert _mixed_run(sim) == (EXPECTED_ORDER, "finished")
    assert sim.stepped == 0
    assert sim.now == 10.0


def test_control_tier_tracer_keeps_the_inline_loop():
    sim = _StepCounter()
    tracer = _Tracer(detail=False)
    sim.set_tracer(tracer)
    assert _mixed_run(sim) == (EXPECTED_ORDER, "finished")
    assert sim.stepped == 0
    assert ("kernel.event", "Call") not in tracer.kinds


def test_detail_tracer_sees_every_entry_through_step():
    sim = _StepCounter()
    tracer = _Tracer(detail=True)
    sim.set_tracer(tracer)
    assert _mixed_run(sim) == (EXPECTED_ORDER, "finished")
    fired = [s for k, s in tracer.kinds if k == "kernel.event"]
    assert sim.stepped == len(fired) > 0
    assert fired.count("Call") == 2
    assert fired.count("Timeout") == 2
    # the kernel's own count (pushed minus still queued) is that number,
    # and an unobserved run of the same script reaches it uncounted
    assert sim.events_fired == len(fired)
    plain = _StepCounter()
    _mixed_run(plain)
    assert plain.events_fired == len(fired)


def test_observers_cannot_attach_during_a_run():
    """``run()`` picks its loop once, so a mid-run attach would be ignored."""
    sim = Simulator()
    errors = []

    def attach():
        try:
            sim.set_tracer(_Tracer(detail=True))
        except RuntimeError as exc:
            errors.append(str(exc))

    sim.call_later(1.0, attach)
    sim.run()
    assert errors == ["cannot change the tracer during run()"]
    assert sim.tracer is None
    # between runs it attaches as before
    sim.set_tracer(_Tracer(detail=True))
    assert sim._tracing


def test_call_later_ties_fire_in_schedule_order_with_events():
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "call-1")
    sim.timeout(1.0).callbacks.append(lambda ev: order.append("timeout"))
    sim.call_later(1.0, order.append, "call-2")
    sim.run()
    assert order == ["call-1", "timeout", "call-2"]
