"""The reference event queue: a binary heap with fully deterministic order.

Events are ordered by ``(time, sequence)``.  The sequence number is a
monotonically increasing insertion counter, so two events scheduled for the
same cycle fire in the order they were scheduled.  This total order is what
makes every simulation in this package reproducible byte-for-byte — a
requirement of the cross-interconnect validation experiment (DESIGN.md, E7).

:class:`EventQueue` is the *oracle* the simulator's engine
(:class:`~repro.kernel.calendar.CalendarQueue`) is checked against: it is
simple enough to be obviously right, and ``Simulator(queue=EventQueue())``
drives any model through it.  Only tests and the kernel microbenchmark
construct it.

Cancellation is lazy: :meth:`Event.cancel` marks the entry and the queue
discards it when it surfaces.  Because the sort key is a *total* order
(``seq`` is unique), the heap's internal layout never affects pop order, so
the queue is free to compact tombstones out of the heap whenever they
outnumber live events — resilient workloads that schedule-and-cancel a
watchdog per transaction (see ``repro.core.tg_master``) would otherwise
carry thousands of dead entries through every heap operation.
"""

import heapq
from typing import Callable, List, NamedTuple, Optional

#: Compact only when the heap is at least this large; below it the
#: tombstone overhead is noise and rebuilding would churn.
_COMPACT_MIN_SIZE = 64


class PendingEntry(NamedTuple):
    """One live queue entry, as reported by ``pending_entries()``.

    ``process`` is set when the entry is a plain (payload-free) resume of
    a sleeping :class:`~repro.kernel.process.Process` — the only entry
    kind a snapshot can re-arm, because the wake-up carries no captured
    state beyond the target process and the firing time.  Everything else
    (arbitrary callbacks, payload-carrying resumes) is opaque: ``process``
    is None.  For opaque *callbacks* the raw callable is exposed as
    ``fn`` so a component that scheduled it can recognise its own (e.g. a
    semaphore bank's tracked delayed-release) and claim it after all;
    payload-carrying resumes have both fields None and are never
    claimable.
    """

    time: int
    process: Optional[object]
    fn: Optional[Callable] = None


def _classify_entry(time: int, fn: Callable) -> PendingEntry:
    """Map a scheduled callable to a :class:`PendingEntry`.

    A bound ``Process._resume`` method is the signature of ``yield n`` /
    ``spawn(delay=...)`` — a payload-free sleep.  Payload resumes are
    closures (oracle) or tuples (calendar queue) and stay opaque.
    """
    from repro.kernel.process import Process
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, Process) and \
            getattr(fn, "__func__", None) is Process._resume:
        return PendingEntry(time, owner)
    if getattr(fn, "_payload_resume", False):
        # payload-carrying resume: opaque, never claimable (parity with
        # the calendar queue's tuple entries)
        return PendingEntry(time, None)
    return PendingEntry(time, None, fn)


class Event:
    """A scheduled callback.

    Attributes:
        time: Absolute cycle at which the event fires.
        seq: Insertion sequence number (unique, assigned by the queue);
            breaks ties within a cycle.
        fn: Zero-argument callable run when the event fires.
        cancelled: Cancelled events are skipped by the queue.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "_queue")

    def __init__(self, time: int, seq: int, fn: Callable[[], None],
                 queue: "EventQueue" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            # still sitting in the heap: it is now a tombstone the queue
            # must account for (popped/fired events have no queue backref,
            # so a late cancel() after firing is harmless)
            self._queue = None
            queue._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{state}>"


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects.

    ``len(queue)`` counts *live* (non-cancelled) events only.  Perf
    counters (:attr:`events_cancelled`, :attr:`compactions`,
    :attr:`peak_size`) are cumulative over the queue's lifetime and feed
    the simulator's ``kernel_counters()``.

    :meth:`push`, :meth:`push_fn`, :meth:`push_resume`, :meth:`pop_entry`,
    :meth:`peek_time`, :meth:`pending_entries` and :meth:`drain` form the
    narrow interface the simulator drives (see
    :class:`~repro.kernel.simulator.Simulator`).
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._live = 0
        self.events_cancelled = 0
        self.compactions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return self._live

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying heap slots."""
        return len(self._heap) - self._live

    def push(self, time: int, fn: Callable[[], None]) -> Event:
        """Insert a callback at an absolute time; returns a cancellable handle."""
        event = Event(time, self._seq, fn, self)
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, event)
        self._live += 1
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)
        return event

    def _note_cancelled(self) -> None:
        """One in-heap event became a tombstone (called by Event.cancel)."""
        self._live -= 1
        self.events_cancelled += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and len(heap) > 2 * self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify.

        Pop order is untouched: events are totally ordered by
        ``(time, seq)``, so any valid heap over the same live
        set pops the identical sequence.  The rebuild is in place (slice
        assignment) so callers holding a reference to the heap list —
        the simulator's fast run loop — stay valid.
        """
        heap = self._heap
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)
        self.compactions += 1

    def push_fn(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule an uncancellable callback.

        The heap has no cheaper representation than an :class:`Event`,
        so this is :meth:`push` with the handle dropped.
        """
        self.push(time, fn)

    def push_resume(self, time: int, process, payload) -> None:
        """Schedule a process resume at an absolute time."""
        if payload is None:
            self.push(time, process._resume)
        else:
            resume = lambda: process._resume(payload)  # noqa: E731
            # mark so pending_entries() reports it opaque (fn=None),
            # matching the calendar queue's tuple entries
            resume._payload_resume = True
            self.push(time, resume)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if drained."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        return None

    def pop_entry(self) -> Optional[tuple]:
        """Earliest live entry as ``(time, fire)``, or None."""
        event = self.pop()
        if event is None:
            return None
        return event.time, event.fn

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if heap:
            return heap[0].time
        return None

    def pending_entries(self) -> List[PendingEntry]:
        """Every live entry in firing order (snapshots).

        The heap is sorted (``(time, seq)`` is a total order),
        tombstones dropped, and each entry classified as a re-armable
        process resume or an opaque callback.  Read-only: the queue is
        untouched.
        """
        return [_classify_entry(event.time, event.fn)
                for event in sorted(self._heap) if not event.cancelled]

    def drain(self, sim) -> None:
        """Run-to-empty dispatch (the unbounded run() path).

        The heap pop is inlined (the list identity is stable — compaction
        rebuilds it in place), with the queue's live accounting kept exact
        per event so callbacks that cancel events or read ``len(queue)``
        see a consistent view.
        """
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        try:
            while heap:
                event = heappop(heap)
                if event.cancelled:
                    continue
                event._queue = None
                self._live -= 1
                sim._now = event.time
                event.fn()
                fired += 1
        finally:
            sim._events_fired += fired
