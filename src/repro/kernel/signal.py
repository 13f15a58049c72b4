"""Synchronisation primitives: broadcast signals and bounded FIFOs."""

import sys
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.kernel.errors import SimulationError


class Signal:
    """Broadcast wake-up primitive.

    Processes block on a signal by yielding it (``payload = yield sig``).
    :meth:`notify` wakes *all* currently blocked processes in the order they
    started waiting, delivering ``payload`` as the value of their ``yield``
    expression.  A notify with no waiters is lost (signals are not latched);
    use a :class:`Fifo` when events must not be dropped.

    Waiters are kept in an insertion-ordered dict used as an ordered set:
    adding and removing a waiter are both O(1) (a process can only block
    on one thing at a time, so duplicates are impossible), and iteration
    at notify preserves the order waiting started — killing N waiters on
    a popular signal used to be quadratic with the old list scan.
    """

    __slots__ = ("sim", "name", "_waiters")

    def __init__(self, sim, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: Dict = {}

    @property
    def waiter_count(self) -> int:
        """Number of processes currently blocked on this signal."""
        return len(self._waiters)

    def _add_waiter(self, process) -> None:
        self._waiters[process] = None

    def _remove_waiter(self, process) -> None:
        self._waiters.pop(process, None)

    def notify(self, payload: Any = None) -> int:
        """Wake every waiter at the current cycle; returns how many woke."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = {}
        sim = self.sim
        push_resume = sim._queue.push_resume
        now = sim._now
        for process in waiters:
            push_resume(now, process, payload)
        return len(waiters)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class TimeoutSignal(Signal):
    """A one-shot signal backed by a scheduled event.

    Created by :func:`repro.kernel.simulator.timeout`.  When the last waiter
    is removed before the event fires (e.g. the waiting process is killed),
    the pending event is cancelled so it does not linger in the queue and
    keep the simulation artificially alive.
    """

    __slots__ = ("event",)

    def __init__(self, sim, name: str = "timeout"):
        super().__init__(sim, name)
        self.event = None

    def cancel(self) -> None:
        """Cancel the backing event (harmless after it has fired)."""
        if self.event is not None:
            self.event.cancel()

    def notify(self, payload: Any = None) -> int:
        self.event = None
        return super().notify(payload)

    def _remove_waiter(self, process) -> None:
        super()._remove_waiter(process)
        if not self._waiters:
            self.cancel()


class Fifo:
    """Bounded blocking queue connecting producer and consumer processes.

    Used for router input buffers and network-interface queues, where
    back-pressure (a full buffer stalling the upstream hop) is part of the
    timing model.  ``capacity=None`` means unbounded.

    Both :meth:`put` and :meth:`get` are *generators* and must be driven with
    ``yield from`` inside a simulation process::

        yield from fifo.put(flit)
        flit = yield from fifo.get()

    Per-item hot loops (the ×pipes routers and network interfaces) inline
    the same steps instead of creating a generator per item, through the
    public ``items``/``limit``/``not_full``/``not_empty`` attributes: a
    producer waits on ``not_full`` while ``len(items) >= limit``, appends
    and notifies ``not_empty``; a consumer waits on ``not_empty`` while
    ``items`` is empty, pops from the left and notifies ``not_full``.
    An inlined hand-off must keep exactly that order, or same-cycle
    wake-ups (and so the simulation) change.
    """

    __slots__ = ("sim", "name", "limit", "items", "not_full", "not_empty")

    def __init__(self, sim, capacity: Optional[int] = None, name: str = "fifo"):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"fifo capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        #: ``capacity`` as a plain int bound (``sys.maxsize`` if unbounded)
        self.limit = sys.maxsize if capacity is None else capacity
        self.items: Deque[Any] = deque()
        #: producer-side wait signal, notified after every removal
        self.not_full = Signal(sim, f"{name}.not_full")
        #: consumer-side wait signal, notified after every insertion (see
        #: ``Process.waiting_on``)
        self.not_empty = Signal(sim, f"{name}.not_empty")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.limit

    @property
    def is_empty(self) -> bool:
        return not self.items

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the queue is full."""
        if len(self.items) >= self.limit:
            return False
        self.items.append(item)
        self.not_empty.notify()
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            self.not_full.notify()
            return True, item
        return False, None

    def put(self, item: Any):
        """Blocking put (generator): waits while the queue is full."""
        items = self.items
        while len(items) >= self.limit:
            yield self.not_full
        items.append(item)
        self.not_empty.notify()

    def get(self):
        """Blocking get (generator): waits while the queue is empty."""
        items = self.items
        while not items:
            yield self.not_empty
        item = items.popleft()
        self.not_full.notify()
        return item

    def __repr__(self) -> str:
        cap = "inf" if self.limit == sys.maxsize else str(self.limit)
        return f"<Fifo {self.name!r} {len(self.items)}/{cap}>"
