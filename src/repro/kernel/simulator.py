"""The simulator: event loop, time base, and process management."""

from typing import Callable, Dict, Generator, List, Optional

from repro.kernel.calendar import CalendarQueue
from repro.kernel.errors import DeadlockError, LivelockError, SimulationError
from repro.kernel.event import Event
from repro.kernel.process import Process
from repro.kernel.signal import Fifo, Signal, TimeoutSignal

#: Nanoseconds per simulated clock cycle.  The paper assumes a 5 ns cycle for
#: both the IP cores and the TG; trace timestamps are recorded in ns.
CYCLE_NS = 5


class Simulator:
    """Discrete-event simulator with integer cycle time.

    Typical usage::

        sim = Simulator()
        sim.spawn(my_model_process(sim), name="cpu0")
        sim.run()

    The event order is fully deterministic (see :mod:`repro.kernel.event`),
    so any two runs of the same model are identical.

    Events live in a :class:`~repro.kernel.calendar.CalendarQueue`.
    ``queue`` is a test seam: pass a queue *instance* (the
    :class:`~repro.kernel.event.EventQueue` oracle, or an instrumented
    queue) to drive the same model through it.  A queue implements
    ``push(time, fn)`` (returns a cancellable ``Event``), ``push_fn``,
    ``push_resume(time, process, payload)``, ``pop_entry()``,
    ``peek_time()``, ``pending_entries()`` and ``drain(sim)``, plus
    ``__len__`` and the ``tombstones``/``events_cancelled``/
    ``compactions``/``peak_size`` counters.
    """

    #: Prune dead processes from the bookkeeping list once it reaches this
    #: size (then whenever it doubles) — long-running resilient workloads
    #: spawn a short-lived process per transaction.
    _PRUNE_START = 256

    def __init__(self, queue=None) -> None:
        self._queue = CalendarQueue() if queue is None else queue
        self._now = 0
        self._events_fired = 0
        self._processes: List[Process] = []
        self._prune_at = self._PRUNE_START
        self._running = False

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def _advance_clock(self, time: int) -> None:
        """Advance the clock to ``time`` — monotonically, never backwards.

        Every clock movement outside the queue's drain loop goes through
        this single helper (event fire, early-drain catch-up to ``until``,
        and the ``next_time > until`` stop), so no path can reintroduce
        the PR 2 clock-rewind bug: a ``run(until=earlier)`` after a later
        stop is a no-op, and queue invariants (events never scheduled in
        the past) make the event-fire case equivalent to plain assignment.
        The queue's run-to-drain loop assigns ``_now`` directly but pops
        times in non-decreasing order, preserving the same invariant.
        """
        if time > self._now:
            self._now = time

    @property
    def now_ns(self) -> int:
        """Current simulation time in nanoseconds (cycle * 5 ns)."""
        return self._now * CYCLE_NS

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (a simulator-effort proxy)."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Events cancelled while still queued (watchdog guards etc.)."""
        return self._queue.events_cancelled

    @property
    def heap_compactions(self) -> int:
        """Tombstone-shedding passes (bucket sweeps that dropped
        cancelled events)."""
        return self._queue.compactions

    @property
    def peak_heap_size(self) -> int:
        """High-water mark of resident entries (live + tombstones).

        Sampled at dispatch-batch boundaries on the unbounded ``run()``
        and before every event of a bounded ``run()``/``step()``, so the
        value can lag the true peak by one batch.
        """
        return self._queue.peak_size

    def kernel_counters(self) -> Dict[str, int]:
        """Kernel perf counters for reports (``stats_summary()['kernel']``)."""
        queue = self._queue
        return {
            "events_fired": self._events_fired,
            "events_cancelled": queue.events_cancelled,
            "heap_compactions": queue.compactions,
            "peak_heap_size": queue.peak_size,
            "queued_live": len(queue),
            "queued_tombstones": queue.tombstones,
        }

    # ------------------------------------------------------------- scheduling

    def schedule_after(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        return self._queue.push(self._now + delay, fn)

    def schedule_at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute cycle ``time >= now``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self._queue.push(time, fn)

    # -------------------------------------------------------------- processes

    def spawn(self, generator: Generator, name: str = "process",
              delay: int = 0) -> Process:
        """Create a process from a generator and start it after ``delay``."""
        process = Process(self, generator, name=name)
        processes = self._processes
        processes.append(process)
        if len(processes) >= self._prune_at:
            # amortised O(1): drop finished processes so per-transaction
            # spawns don't grow the list (and live_processes scans) forever
            self._processes = [p for p in processes if p.alive]
            self._prune_at = max(self._PRUNE_START, 2 * len(self._processes))
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        self._queue.push_resume(self._now + delay, process, None)
        return process

    def signal(self, name: str = "signal") -> Signal:
        """Create a :class:`Signal` bound to this simulator."""
        return Signal(self, name)

    def fifo(self, capacity: Optional[int] = None, name: str = "fifo") -> Fifo:
        """Create a :class:`Fifo` bound to this simulator."""
        return Fifo(self, capacity, name)

    @property
    def live_processes(self) -> List[Process]:
        """Processes that have not yet terminated."""
        return [p for p in self._processes if p.alive]

    # --------------------------------------------------------------- running

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            check_deadlock: bool = False,
            progress_window: Optional[int] = None) -> int:
        """Run the event loop.

        Args:
            until: Stop once simulation time would pass this cycle (events at
                exactly ``until`` still fire).  Time always advances to
                ``until`` — also when the queue drains earlier — but never
                backwards (a later ``run(until=earlier)`` is a no-op).
            max_events: Safety stop after this many events.
            check_deadlock: Raise :class:`DeadlockError` if the queue truly
                drains while processes are still alive (blocked on signals
                forever).  An early stop via ``until``/``max_events`` with
                work still queued is *not* a deadlock and is never reported
                as one.
            progress_window: Raise :class:`LivelockError` after this many
                consecutive events fire without simulated time advancing
                (zero-cycle notify storms, spinning processes).  ``None``
                disables the watchdog.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if progress_window is not None and progress_window < 1:
            raise SimulationError(
                f"progress_window must be >= 1, got {progress_window}")
        self._running = True
        drained = False
        try:
            if until is None and max_events is None and progress_window is None:
                # Fast path: run-to-drain with no per-event bound checks,
                # delegated to the queue's batched dispatch loop.
                self._queue.drain(self)
                drained = True
            else:
                drained = self._run_bounded(until, max_events,
                                            progress_window)
        finally:
            self._running = False
        if check_deadlock and drained:
            stuck = self.live_processes
            if stuck:
                raise DeadlockError(
                    f"{len(stuck)} process(es) blocked forever at cycle "
                    f"{self._now}: {self.blocked_report()}"
                )
        return self._now

    def _run_bounded(self, until: Optional[int], max_events: Optional[int],
                     progress_window: Optional[int]) -> bool:
        """The guarded event loop (any of the run() bounds set)."""
        queue = self._queue
        fired = 0
        stagnant = 0
        drained = False
        try:
            while True:
                next_time = queue.peek_time()
                if next_time is None:
                    drained = True
                    # the queue drained before `until`: the caller asked
                    # for time to pass to that cycle, so advance the clock
                    # there (monotonically — see _advance_clock)
                    if until is not None:
                        self._advance_clock(until)
                    break
                if until is not None and next_time > until:
                    # stop short of the next event; a later
                    # run(until=earlier) call must not rewind the clock
                    self._advance_clock(until)
                    break
                if max_events is not None and fired >= max_events:
                    break
                time, fire = queue.pop_entry()
                if progress_window is not None:
                    if time > self._now:
                        stagnant = 0
                    else:
                        stagnant += 1
                        if stagnant >= progress_window:
                            raise LivelockError(
                                f"no simulated-time progress after "
                                f"{stagnant} events at cycle {time}; "
                                f"busy processes: {self.blocked_report()}")
                self._advance_clock(time)
                fire()
                fired += 1
        finally:
            self._events_fired += fired
        return drained

    def blocked_report(self, limit: int = 8) -> str:
        """Human-readable list of live processes and what each waits on."""
        live = [p for p in self._processes if p.alive]
        parts = []
        for process in live[:limit]:
            waiting_on = process._waiting_on
            if waiting_on is not None:
                parts.append(f"{process.name} (on {waiting_on.name})")
            else:
                parts.append(f"{process.name} (runnable)")
        if len(live) > limit:
            parts.append(f"... {len(live) - limit} more")
        return ", ".join(parts) if parts else "(none)"

    def step(self) -> bool:
        """Fire exactly one event; returns False when the queue is empty.

        Like :meth:`run`, stepping is not re-entrant: calling it from inside
        an event callback while ``run()`` is active would pop events behind
        the loop's back and corrupt ``now`` and the livelock accounting.
        """
        if self._running:
            raise SimulationError("cannot step() while run() is active")
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        time, fire = entry
        self._advance_clock(time)
        fire()
        self._events_fired += 1
        return True

    def __repr__(self) -> str:
        live = sum(1 for p in self._processes if p.alive)
        return (f"<Simulator t={self._now} queued={len(self._queue)} "
                f"processes={live}>")


def timeout(sim: Simulator, cycles: int) -> TimeoutSignal:
    """Return a signal that fires once, ``cycles`` from now.

    The returned :class:`TimeoutSignal` is cancellable: if every waiter is
    removed before the deadline (e.g. the waiting process is killed), the
    backing event is cancelled automatically so it does not leak into the
    queue; ``sig.cancel()`` does the same explicitly.
    """
    sig = TimeoutSignal(sim, f"timeout@{sim.now + cycles}")
    sig.event = sim.schedule_after(cycles, sig.notify)
    return sig
