"""Discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: a :class:`Simulator`
owns the clock and the event heap, :class:`~repro.sim.events.Event` objects
carry values/exceptions to their callbacks, and
:class:`~repro.sim.process.Process` drives a Python generator whose ``yield``
expressions suspend on events.

The paper's original study used a custom C simulator with unit-time clock
advance (Jain's terminology); this kernel is the event-driven equivalent —
for identical event timestamps the produced trajectories are identical, and
the event-driven form is dramatically faster in Python.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.errors": ("Interrupt", "SimulationError"),
    "repro.sim.events": ("Event", "Timeout"),
    "repro.sim.process": ("Process",),
    "repro.sim.rng": ("RandomStreams",),
})
