"""Deterministic event-driven simulation kernel.

This package is the foundation of the whole platform: a discrete-event
simulator with integer *cycle* time, generator-based processes, and
deterministic event ordering.  It plays the role SystemC plays for MPARM in
the original paper, at the level of abstraction the paper's models need
(cycle-true transactions, not RTL signals).

Public API
----------

``Simulator``
    The event loop.  Owns the current time, the event queue (a
    ``CalendarQueue``; ``EventQueue`` is the reference oracle tests drive
    through ``Simulator(queue=...)``) and all processes.

``Process``
    A running simulation process wrapping a Python generator.  Created via
    :meth:`Simulator.spawn`.

``Signal``
    Broadcast synchronisation primitive: processes ``yield`` a signal to
    sleep until somebody calls :meth:`Signal.notify`.

``Fifo``
    Bounded blocking queue used by routers and network interfaces.

``Component``
    Convenience base class for named model components that hold a reference
    to the simulator.

Processes communicate time via the yield protocol::

    def worker(sim):
        yield 3                   # wait 3 cycles
        payload = yield signal    # wait for a signal, receive its payload
        result = yield child      # join a child process, receive its return
"""

from repro.kernel.calendar import CalendarQueue
from repro.kernel.errors import (
    DeadlockError,
    KernelError,
    LivelockError,
    ProcessKilled,
    SimulationError,
    WatchdogTimeout,
)
from repro.kernel.event import Event, EventQueue, PendingEntry
from repro.kernel.signal import Fifo, Signal, TimeoutSignal
from repro.kernel.process import Process
from repro.kernel.simulator import Simulator
from repro.kernel.component import Component

__all__ = [
    "CalendarQueue",
    "Component",
    "DeadlockError",
    "Event",
    "EventQueue",
    "PendingEntry",
    "Fifo",
    "KernelError",
    "LivelockError",
    "Process",
    "ProcessKilled",
    "Signal",
    "SimulationError",
    "Simulator",
    "TimeoutSignal",
    "WatchdogTimeout",
]
