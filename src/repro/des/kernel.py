"""Event queue, events and generator-based processes.

The kernel is intentionally small and deterministic:

* time is a ``float`` number of simulated seconds;
* events scheduled for the same instant fire in schedule order
  (a monotonically increasing sequence number breaks ties);
* processes are plain Python generators that ``yield`` events and are
  resumed with the event's value when it triggers;
* a heap entry is ``(time, seq, fn, args)`` and firing it is
  ``fn(*args)``: an event pushes its own ``_fire``, a one-shot action
  (:meth:`Simulator.call_later`, or :meth:`Simulator.call_at` for an
  absolute instant) pushes the caller's function — no event, no
  callback list, no process, no wrapper object;
* a caller that scheduled work ahead of its instant takes it back with
  :meth:`Simulator.rewrite`, which gives the pending entries it picks a
  new time and function: each keeps its seq, so its place among equal
  times.

Nothing here knows about networks or media — higher layers build on
:class:`Simulator` only through :meth:`Simulator.process`,
:meth:`Simulator.timeout`, :meth:`Simulator.event`,
:meth:`Simulator.call_later`, :meth:`Simulator.call_at`,
:meth:`Simulator.rewrite` and :meth:`Simulator.restore`.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from heapq import heapify, heappop, heappush
from typing import Any

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Simulator",
    "entry_kind",
    "tracing_tiers",
]


class Interrupt(Exception):
    """Thrown into a process that another process interrupts.

    The paper's client interrupts running playout processes when the
    user activates a hyperlink mid-presentation; this exception models
    that preemption.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait for.

    An event is *triggered* once, either successfully (with a value)
    or as a failure (with an exception). Callbacks registered before
    triggering run, in registration order, when the kernel processes
    the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state --------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._enqueue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as a failure carrying ``exception``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._enqueue_event(self)
        return self

    def _fire(self) -> None:
        """Run the callbacks; the kernel calls this at the fire instant."""
        # Timeouts trigger here (succeed()/fail() set the flag eagerly
        # for ordinary events).
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds in the future."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self._fire, ()))


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator may ``yield``:

    * an :class:`Event` (including another :class:`Process`) — the
      process resumes with the event's value when it triggers;
    * ``None`` — the process resumes on the next kernel step (a
      cooperative yield at the same simulated time).
    """

    __slots__ = ("gen", "name", "_waiting_on")

    def __init__(
        self, sim: "Simulator", gen: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        super().__init__(sim)
        if not isinstance(gen, Generator):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Event | None = None
        if sim._tracing:
            sim._tracer.emit(sim.now, "process.spawn", self.name)
        # Kick off at the current instant.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op error, mirroring the
        fact that a completed playout cannot be preempted.
        """
        if self._triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "process.interrupt",
                                  self.name, cause=repr(cause))
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        wakeup = Event(self.sim)
        wakeup.callbacks.append(lambda ev: self._step(throw=Interrupt(cause)))
        wakeup.succeed()

    # -- internals ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        if self._triggered:
            return
        try:
            if throw is not None:
                target = self.gen.throw(throw)
            else:
                target = self.gen.send(send)
        except StopIteration as stop:
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "process.finish",
                                      self.name, outcome="ok")
            self.succeed(stop.value)
            return
        except Interrupt:
            # Uncaught interrupt terminates the process quietly: the
            # preempted playout simply ends.
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "process.finish",
                                      self.name, outcome="interrupted")
            self.succeed(None)
            return
        except BaseException as exc:
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "process.finish",
                                      self.name, outcome="error",
                                      error=repr(exc))
            self.fail(exc)
            return

        if target is None:
            target = Event(self.sim)
            target.succeed()
        if not isinstance(target, Event):
            self.gen.close()
            self.fail(TypeError(f"process {self.name!r} yielded {target!r}"))
            return
        if target.callbacks is None:
            # Already processed: resume immediately via a fresh event so
            # ordering stays FIFO at this instant.
            proxy = Event(self.sim)
            proxy.callbacks.append(self._resume)
            if target.ok:
                proxy.succeed(target.value)
            else:
                proxy._ok = False
                proxy._value = target.value
                proxy._triggered = True
                self.sim._enqueue_event(proxy)
            self._waiting_on = proxy
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._on_trigger(ev)
            else:
                ev.callbacks.append(self._on_trigger)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.triggered}

    def _on_trigger(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _on_trigger(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _on_trigger(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


def entry_kind(fn: Any) -> str:
    """The kind a heap entry is reported under, from its ``fn``.

    An event pushes its own ``_fire``, so its kind is the event's class
    (``Timeout``, ``Process``, ``Event``, ...); anything else was
    scheduled by :meth:`Simulator.call_later` or
    :meth:`Simulator.call_at` and reads ``"Call"``.
    """
    if getattr(fn, "__func__", None) is Event._fire:
        return type(fn.__self__).__name__
    return "Call"


def tracing_tiers(tracer: Any) -> tuple[bool, bool]:
    """Whether ``tracer`` is on, and whether it takes the detail tier.

    On means attached and ``enabled``; the detail tier (the
    per-packet/per-frame firehose) also needs ``detail``, which a
    tracer that does not declare it takes as True.
    """
    on = tracer is not None and bool(getattr(tracer, "enabled", False))
    return on, on and bool(getattr(tracer, "detail", True))


class Simulator:
    """The event queue and simulated clock."""

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, seq, fn, args)``; ``seq`` is unique, so ``fn`` and
        #: ``args`` are never compared
        self._heap: list[
            tuple[float, int, Callable[..., object], tuple[Any, ...]]] = []
        self._seq = 0
        #: the seq of the entry firing now (or last fired): an entry at
        #: ``now`` with a lower seq has fired, one with a higher has not
        self._firing = 0
        self._running = False
        # Tracing is opt-in and two-tier (:func:`tracing_tiers`):
        # `_tracing` guards control-plane emits (faults, admission,
        # drops, spans); `_tracing_detail` guards the
        # per-packet/per-frame firehose. Every traced component reads
        # both here, through its simulator, so a sim without a tracer
        # pays one attribute check per hook point either way.
        self._tracer = None
        self._tracing = False
        self._tracing_detail = False
        #: catch-ups of work held off the heap under seqs it took
        #: (:mod:`repro.net.link`'s fed links): each is called with
        #: whether the run drained the heap, brings its work up to now
        #: (all of it, drained) and returns the latest instant it
        #: reached; :meth:`run` calls them as it returns and
        #: :meth:`set_tracer` after the tracer changed
        self._offheap: list[Callable[[bool], float]] = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_fired(self) -> int:
        """Heap entries fired so far: pushed minus still queued (nothing
        leaves the heap except by firing, so no per-event counter). Work
        held off the heap under a seq of its own (a packet fed to a
        link) counts from when it took the seq."""
        return self._seq - len(self._heap)

    # -- observability -------------------------------------------------
    @property
    def tracer(self):
        """The attached tracer, or ``None`` (tracing disabled)."""
        return self._tracer

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a structured tracer.

        Anything with the :class:`repro.obs.Tracer` emit/span API and
        an ``enabled`` flag works; the kernel deliberately doesn't
        import :mod:`repro.obs` so the DES layer stays dependency-free.
        Attach between runs: :meth:`run` decides once, when it starts,
        whether single steps are observed.
        """
        if self._running:
            raise RuntimeError("cannot change the tracer during run()")
        self._tracer = tracer
        self._tracing, self._tracing_detail = tracing_tiers(tracer)
        for catch_up in self._offheap:
            catch_up(False)

    # -- construction helpers -----------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(
        self, gen: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, gen, name=name)

    def call_later(self, delay: float, fn: Callable[..., object],
                   *args: Any) -> None:
        """Invoke ``fn(*args)`` after ``delay`` seconds (fire-and-forget).

        Pass the arguments here instead of closing over them: the heap
        entry is the one tuple ``(time, seq, fn, args)`` and nothing
        else is allocated. Nothing is returned — the call cannot be
        waited on or cancelled (a cancellable timer compares a token in
        ``fn``). Lighter than a process for one-shot actions such as a
        packet emerging from a propagation delay.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, fn, args))

    def call_at(self, when: float, fn: Callable[..., object],
                *args: Any) -> None:
        """:meth:`call_later` at the absolute instant ``when``, for a
        caller that computed it: ``now + (when - now)`` may round."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is before now ({self._now})")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq, fn, args))

    def rewrite(self, edit: Callable[..., tuple[
            float, Callable[..., object], tuple[Any, ...]] | None]) -> None:
        """Give each pending heap entry for which ``edit(time, seq, fn,
        args)`` returns one a new ``(time, fn, args)``, none before now.

        An entry keeps its seq, so at its new time it fires where an
        entry pushed when it was would have: a caller that planned work
        ahead of its instant (:mod:`repro.net.link`) takes it back
        exactly, and the run
        fires as many entries as one that never planned.
        """
        heap = self._heap
        for i, (time, seq, fn, args) in enumerate(heap):
            new = edit(time, seq, fn, args)
            if new is not None:
                heap[i] = (new[0], seq, new[1], new[2])
        heapify(heap)

    def restore(self, entries: list[tuple[float, int, Any, Any]]) -> None:
        """Push entries held off the heap under seqs taken earlier."""
        self._heap += entries
        heapify(self._heap)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _enqueue_event(self, event: Event) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now, seq, event._fire, ()))

    # -- execution ------------------------------------------------------
    def step(self) -> None:
        """Process the single next heap entry, observably: a detail
        tracer receives ``kernel.event`` named by :func:`entry_kind`."""
        time, self._firing, fn, args = heappop(self._heap)
        self._now = time
        if self._tracing_detail:
            self._tracer.emit(time, "kernel.event", entry_kind(fn))
        fn(*args)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline, or an event triggers.

        ``until`` may be a time (run up to and including that instant),
        an :class:`Event` (run until it triggers; its value is
        returned), or ``None`` (drain the queue).

        When no detail tracer observes single steps (:meth:`set_tracer`
        refuses to attach during a run), entries are popped and fired
        inline; otherwise every entry goes through :meth:`step`.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heappop
        observed = self._tracing_detail
        try:
            if isinstance(until, Event):
                if observed:
                    while heap and not until._processed:
                        self.step()
                else:
                    while heap and not until._processed:
                        self._now, self._firing, fn, args = pop(heap)
                        fn(*args)
                if self._offheap:
                    self._rest(False)
                if not until._processed:
                    raise RuntimeError(
                        "event queue drained before `until` event triggered"
                    )
                if not until.ok:
                    raise until.value
                return until.value
            deadline = float("inf") if until is None else float(until)
            if deadline < self._now:
                raise ValueError(
                    f"deadline {deadline} is in the past (now={self._now})")
            if observed:
                while heap and heap[0][0] <= deadline:
                    self.step()
            else:
                while heap and heap[0][0] <= deadline:
                    self._now, self._firing, fn, args = pop(heap)
                    fn(*args)
            if until is not None:
                # every entry up to the deadline has fired
                self._now = max(self._now, deadline)
                self._firing = self._seq
            if self._offheap:
                self._rest(until is None)
            return None
        finally:
            self._running = False

    def _rest(self, drained: bool) -> None:
        """Bring the work held off the heap up to now; a drained run
        ends at the latest instant of that work, as it would have had
        each piece been an entry."""
        for catch_up in self._offheap:
            last = catch_up(drained)
            if last > self._now:
                self._now = last
                self._firing = self._seq
