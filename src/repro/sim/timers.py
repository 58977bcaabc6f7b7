"""Cancellable one-shot timers on top of the event heap.

The kernel's :meth:`Simulator.call_later` cannot be revoked once scheduled.
A :class:`Timer` schedules its callback through
:meth:`Simulator.call_later_cancellable`; cancelling flips the entry's
cancel token and the engine's pop loop *skips* the dead entry at fire time
(counted in ``sim.cancelled_events``) — the heap entry itself stays until
then (removing from a heap is O(n)), which is the standard lazy-deletion
discipline.

Who holds one: the adaptive servers' hold and quiescence timers
(:mod:`repro.protocols.adaptive`) and the ledger's
``sim.ns_per_timer_cancel`` cell. The per-message users — the reliable
channel's retransmissions, the g-2PL chain watchdog — hold the kernel's
token itself, one object per armed entry instead of two; nothing under
``repro.network`` imports this module.
"""


class Timer:
    """Run ``callback(*args)`` once, ``delay`` time units from creation,
    unless cancelled first."""

    __slots__ = ("sim", "callback", "args", "fire_at", "_cancelled",
                 "_fired", "_token")

    def __init__(self, sim, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"negative timer delay {delay!r}")
        self.sim = sim
        self.callback = callback
        self.args = args
        self.fire_at = sim.now + delay
        self._cancelled = False
        self._fired = False
        self._token = sim.call_later_cancellable(delay, self._fire)

    def _fire(self):
        if self._cancelled:
            # Unreachable via the run loop (the token makes it skip), kept
            # for direct invocation and older engine implementations.
            return
        self._fired = True
        self.callback(*self.args)

    def cancel(self):
        """Disarm the timer; a no-op if it already fired."""
        self._cancelled = True
        self._token[0] = True

    @property
    def active(self):
        """True while the timer is armed and has neither fired nor been
        cancelled."""
        return not (self._cancelled or self._fired)

    def __repr__(self):
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "armed")
        return f"<Timer at={self.fire_at:g} {state}>"
