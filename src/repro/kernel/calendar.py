"""The kernel's event engine: a calendar queue with batched dispatch.

A binary heap (the :class:`repro.kernel.event.EventQueue` oracle) pays a
``heappush``/``heappop`` — with Python-level ``Event.__lt__`` calls — for
*every* event.  This queue exploits two properties of our workloads:

* almost all events land a handful of distinct cycles ahead (sleeps of a
  few cycles, zero-delay notifies), so a ``dict`` keyed by absolute cycle
  with a tiny int-heap of distinct bucket times replaces the event heap:
  every comparison is a C-speed int compare, and same-cycle events cost a
  plain ``list.append``;
* the vast majority of scheduled callbacks are *process resumes* that are
  never cancelled, so they are stored as bare :class:`Process` objects (or
  ``(process, payload)`` pairs) instead of :class:`Event` handles — no
  allocation on the hot path — and the drain loop advances the generator
  in line instead of bouncing through ``Event.fn`` -> ``_resume`` ->
  ``_dispatch`` call frames.

Dispatch drains a whole timestamp bucket per outer-loop iteration
(batched same-cycle execution).  A bucket holding a single entry is stored
as the bare entry (no list allocation, no walk); multi-entry buckets are
lists walked by index, so zero-delay pushes made *during* the walk land in
a fresh bucket for the same cycle and are drained immediately after —
exactly insertion order, i.e. the oracle's ``(time, seq)`` order.
Cancelled events are swept lazily as drains pass over them.
:meth:`CalendarQueue.drain` is the only dispatch loop: a bounded
``run(until=...)`` stops it before the first bucket past the bound.

Counter semantics match the oracle's ``kernel_counters()`` keys:
``events_cancelled`` counts cancels of queued events, ``tombstones`` the
cancelled entries still resident, ``compactions`` the bucket sweeps that
dropped tombstones, and ``peak_size`` the resident high-water mark.
``peak_size`` is sampled whenever a multi-entry bucket is drained or
swept, so it can miss a peak that single-entry buckets reach; the oracle
samples per push, and the two can differ.
"""

import heapq
from typing import Callable, Optional

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event, PendingEntry, _classify_entry, _livelock
from repro.kernel.process import Process
from repro.kernel.signal import Signal


class CalendarQueue:
    """Slot-indexed calendar queue — the simulator's event engine.

    Implements the queue interface the simulator drives (see
    :class:`~repro.kernel.simulator.Simulator`): ``push``, ``push_fn``
    and ``push_resume`` schedule, :meth:`drain` dispatches, and
    :meth:`peek_time` and :meth:`pending_entries` serve checkpoints and
    snapshots.
    """

    def __init__(self) -> None:
        self._buckets = {}          # absolute cycle -> entry or entry list
        self._times = []            # int heap of the _buckets keys
        self._seq = 0               # Event seqs
        self._size = 0              # resident entries (live + tombstones)
        self._tombstones = 0        # resident cancelled entries
        self.events_cancelled = 0
        self.compactions = 0
        self.peak_size = 0

    # ---------------------------------------------------------- introspection

    def __len__(self) -> int:
        return self._size - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying bucket slots."""
        return self._tombstones

    # -------------------------------------------------------------- inserting

    def push(self, time: int, fn: Callable[[], None]) -> Event:
        """Insert a callback at an absolute time; returns a cancellable handle."""
        event = Event(time, self._seq, fn, self)
        self._seq += 1
        buckets = self._buckets
        prev = buckets.get(time)
        if prev is None:
            buckets[time] = event
            heapq.heappush(self._times, time)
        elif prev.__class__ is list:
            prev.append(event)
        else:
            buckets[time] = [prev, event]
        self._size += 1
        return event

    def push_fn(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule an uncancellable callback (no Event handle)."""
        buckets = self._buckets
        prev = buckets.get(time)
        if prev is None:
            buckets[time] = fn
            heapq.heappush(self._times, time)
        elif prev.__class__ is list:
            prev.append(fn)
        else:
            buckets[time] = [prev, fn]
        self._size += 1

    def push_resume(self, time: int, process, payload) -> None:
        """Schedule a process resume — the hottest scheduling operation."""
        entry = process if payload is None else (process, payload)
        buckets = self._buckets
        prev = buckets.get(time)
        if prev is None:
            buckets[time] = entry
            heapq.heappush(self._times, time)
        elif prev.__class__ is list:
            prev.append(entry)
        else:
            buckets[time] = [prev, entry]
        self._size += 1

    # ------------------------------------------------------------ cancelling

    def _note_cancelled(self) -> None:
        """One queued event became a tombstone (called by Event.cancel)."""
        self._tombstones += 1
        self.events_cancelled += 1

    # --------------------------------------------------------------- draining

    def drain(self, sim, until: Optional[int] = None,
              progress_window: Optional[int] = None) -> None:
        """The simulator's dispatch loop: fire entries in time order.

        Stops before the first bucket later than ``until`` (None: run
        until the queue is empty).  With ``progress_window`` set, raises
        :class:`~repro.kernel.errors.LivelockError` at the first bucket
        boundary after that many consecutive entries fired without the
        clock advancing.

        Inlines the resume of process entries — generator ``send`` plus
        the ``yield <int>`` re-schedule or the ``yield <Signal>`` wait —
        saving the ``Event.fn`` -> ``_resume`` -> ``_dispatch`` ->
        ``schedule_after``/``_add_waiter`` call chain per event.  Signal
        subclasses (``TimeoutSignal``) and joins still go through
        ``Process._dispatch``.  The clock only advances when an entry
        actually fires, so all-tombstone buckets leave ``now`` untouched,
        exactly like the oracle heap skipping cancelled pops.
        """
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        heappush = heapq.heappush
        window = progress_window
        bounded = until is not None or window is not None
        fired = 0
        calm = 0        # fired - calm: stagnant entries since the clock moved
        try:
            while times:
                time = heappop(times)
                if bounded:
                    if until is not None and time > until:
                        heappush(times, time)
                        break
                    if window is not None:
                        if fired - calm >= window:
                            heappush(times, time)
                            raise _livelock(sim, fired - calm)
                        if time > sim._now:
                            calm = fired + 1
                bucket = buckets.pop(time)
                if bucket.__class__ is not list:
                    # singleton bucket: no walk, no cleanup bookkeeping —
                    # the entry is consumed before it runs, so an exception
                    # leaves the queue consistent (entry gone, like a
                    # popped heap event whose fn raised)
                    entry = bucket
                    self._size -= 1
                    cls = entry.__class__
                    if cls is Process:
                        sim._now = time
                        fired += 1
                        if entry._alive:
                            entry._waiting_on = None
                            try:
                                yielded = entry.generator.send(None)
                            except StopIteration as stop:
                                entry._finish(getattr(stop, "value", None))
                            else:
                                if type(yielded) is int:
                                    if yielded < 0:
                                        raise SimulationError(
                                            f"process {entry.name!r} "
                                            f"yielded negative delay "
                                            f"{yielded}")
                                    when = time + yielded
                                    prev = buckets.get(when)
                                    if prev is None:
                                        buckets[when] = entry
                                        heappush(times, when)
                                    elif prev.__class__ is list:
                                        prev.append(entry)
                                    else:
                                        buckets[when] = [prev, entry]
                                    self._size += 1
                                elif yielded.__class__ is Signal:
                                    entry._waiting_on = yielded
                                    yielded._waiters[entry] = None
                                else:
                                    entry._dispatch(yielded)
                    elif cls is Event:
                        if entry.cancelled:
                            self._tombstones -= 1
                            continue
                        sim._now = time
                        entry._queue = None
                        fired += 1
                        entry.fn()
                    elif cls is tuple:
                        process, payload = entry
                        sim._now = time
                        fired += 1
                        process._resume(payload)
                    else:
                        sim._now = time
                        fired += 1
                        entry()
                    continue
                index = 0
                swept = 0
                size = self._size
                if size > self.peak_size:
                    self.peak_size = size
                completed = False
                try:
                    while True:
                        if index >= len(bucket):
                            completed = True
                            break
                        entry = bucket[index]
                        index += 1
                        cls = entry.__class__
                        if cls is Process:
                            sim._now = time
                            fired += 1
                            if entry._alive:
                                entry._waiting_on = None
                                try:
                                    yielded = entry.generator.send(None)
                                except StopIteration as stop:
                                    entry._finish(
                                        getattr(stop, "value", None))
                                else:
                                    if type(yielded) is int:
                                        if yielded < 0:
                                            raise SimulationError(
                                                f"process {entry.name!r} "
                                                f"yielded negative delay "
                                                f"{yielded}")
                                        when = time + yielded
                                        prev = buckets.get(when)
                                        if prev is None:
                                            buckets[when] = entry
                                            heappush(times, when)
                                        elif prev.__class__ is list:
                                            prev.append(entry)
                                        else:
                                            buckets[when] = [prev, entry]
                                        self._size += 1
                                    elif yielded.__class__ is Signal:
                                        entry._waiting_on = yielded
                                        yielded._waiters[entry] = None
                                    else:
                                        entry._dispatch(yielded)
                        elif cls is Event:
                            if entry.cancelled:
                                swept += 1
                                continue
                            sim._now = time
                            entry._queue = None
                            fired += 1
                            entry.fn()
                        elif cls is tuple:
                            process, payload = entry
                            sim._now = time
                            fired += 1
                            if process._alive:
                                process._waiting_on = None
                                try:
                                    yielded = process.generator.send(payload)
                                except StopIteration as stop:
                                    process._finish(
                                        getattr(stop, "value", None))
                                else:
                                    if type(yielded) is int:
                                        if yielded < 0:
                                            raise SimulationError(
                                                f"process {process.name!r} "
                                                f"yielded negative delay "
                                                f"{yielded}")
                                        when = time + yielded
                                        prev = buckets.get(when)
                                        if prev is None:
                                            buckets[when] = process
                                            heappush(times, when)
                                        elif prev.__class__ is list:
                                            prev.append(process)
                                        else:
                                            buckets[when] = [prev, process]
                                        self._size += 1
                                    elif yielded.__class__ is Signal:
                                        process._waiting_on = yielded
                                        yielded._waiters[process] = None
                                    else:
                                        process._dispatch(yielded)
                        else:
                            sim._now = time
                            fired += 1
                            entry()
                finally:
                    if index:
                        self._size -= index
                    if swept:
                        self._tombstones -= swept
                        self.compactions += 1
                    if not completed:
                        # an entry raised: keep the unfired tail queued so
                        # a later run() resumes exactly where this stopped
                        rest = bucket[index:]
                        if rest:
                            existing = buckets.get(time)
                            if existing is None:
                                heappush(times, time)
                            elif existing.__class__ is list:
                                rest.extend(existing)
                            else:
                                rest.append(existing)
                            buckets[time] = rest
            if window is not None and fired - calm >= window:
                raise _livelock(sim, fired - calm)
        finally:
            sim._events_fired += fired

    def pending_entries(self):
        """Every live entry in firing order (snapshots).

        Walks the buckets in ascending cycle order; each bucket is
        insertion-ordered, i.e. in the oracle's seq order.  Read-only.
        Tombstoned events are dropped; classification matches the oracle
        exactly.
        """
        entries = []
        buckets = self._buckets
        for time in sorted(buckets):
            bucket = buckets[time]
            for entry in bucket if bucket.__class__ is list else (bucket,):
                cls = entry.__class__
                if cls is Event:
                    if entry.cancelled:
                        continue
                    entries.append(_classify_entry(time, entry.fn))
                elif cls is Process:
                    entries.append(PendingEntry(time, entry))
                elif cls is tuple:
                    # payload-carrying resume: opaque, never claimable
                    entries.append(PendingEntry(time, None))
                else:
                    # bare callable (push_fn fast path): expose for
                    # identity-based claims
                    entries.append(PendingEntry(time, None, entry))
        return entries

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live entry, or None if the queue is empty.

        Sweeps the all-tombstone buckets it passes, counting them exactly
        as :meth:`drain` would, so peeking leaves every counter as a
        drain over the same buckets does."""
        buckets = self._buckets
        times = self._times
        while times:
            time = times[0]
            bucket = buckets[time]
            for entry in bucket if bucket.__class__ is list else (bucket,):
                if not (entry.__class__ is Event and entry.cancelled):
                    return time
            if bucket.__class__ is list:
                swept = len(bucket)
                if self._size > self.peak_size:
                    self.peak_size = self._size
                self.compactions += 1
            else:
                swept = 1
            self._size -= swept
            self._tombstones -= swept
            heapq.heappop(times)
            del buckets[time]
        return None
