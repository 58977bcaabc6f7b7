"""Events: the unit of synchronisation in the kernel.

An :class:`Event` is created untriggered. Calling :meth:`Event.succeed` or
:meth:`Event.fail` *triggers* it, which enqueues it on the simulator heap at
the current simulation time; when the simulator pops it, the event is
*processed* and its callbacks run in registration order.

:class:`Timeout` is an event that triggers itself ``delay`` time units in the
future. :class:`AllOf` / :class:`AnyOf` compose events.
"""

from repro.sim.errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot occurrence carrying a value or an exception."""

    __slots__ = ("sim", "callbacks", "_value", "_exception", "defused")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        #: Set by a consumer of a failed event to suppress the kernel's
        #: "unhandled failure" error at processing time.
        self.defused = False

    @property
    def triggered(self):
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self):
        """The success value, or raise the failure exception."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``; returns self."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.sim._enqueue_triggered(self)
        return self

    def succeed_after(self, delay, value=None):
        """Trigger the event now, to be processed ``delay`` units later.

        One heap entry where ``succeed`` followed by a waiter's own
        ``timeout(delay)`` costs two: the waiter wakes once, already past
        the delay.  The event counts as triggered from this call on (a
        second trigger raises), and an interrupted waiter leaves the entry
        to fire with no callbacks, like an abandoned ``Timeout``.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def succeed_at(self, when, value=None):
        """:meth:`succeed_after` at absolute time ``when`` (>= now).

        ``now + (when - now)`` can round off ``when``; this lands on it
        exactly, so a replayed start time is the recorded one.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.sim.schedule_at(when, self._process)
        return self

    def fail(self, exception):
        """Trigger the event with ``exception``; returns self."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._value = None
        self._exception = exception
        self.sim._enqueue_triggered(self)
        return self

    def add_callback(self, callback):
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed, the callback is scheduled to run
        immediately (at the current simulation time) instead of being lost.
        """
        if self.callbacks is None:
            self.sim.call_soon(callback, self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback):
        """Unregister a callback; no-op if absent or already processed."""
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def _process(self):
        callbacks, self.callbacks = self.callbacks, None
        if self._exception is not None and not callbacks and not self.defused:
            raise self._exception
        for callback in callbacks:
            callback(self)

    def __repr__(self):
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself ``delay`` units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        sim._schedule(self, delay)

    def succeed(self, value=None):  # pragma: no cover - misuse guard
        raise SimulationError("a Timeout triggers itself; do not call succeed()")


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self._value = []
            sim._enqueue_triggered(self)
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event):
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds with the list of values once every child event succeeds.

    Fails as soon as any child fails (remaining children are ignored and
    their failures defused).
    """

    __slots__ = ()

    def _on_child(self, event):
        if self.triggered:
            if not event.ok:
                event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(_Condition):
    """Succeeds with the first child to be processed (fails if it failed)."""

    __slots__ = ()

    def _on_child(self, event):
        if self.triggered:
            if not event.ok:
                event.defused = True
            return
        if event.ok:
            self.succeed(event)
        else:
            event.defused = True
            self.fail(event._exception)
