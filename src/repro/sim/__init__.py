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

from repro.sim.engine import Simulator
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.mailbox import Mailbox
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Mailbox",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
]
