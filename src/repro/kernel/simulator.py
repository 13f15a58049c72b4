"""The simulator: event loop, time base, and process management."""

from typing import Callable, Dict, Generator, List, Optional

from repro.kernel.calendar import CalendarQueue
from repro.kernel.errors import DeadlockError, SimulationError
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
    ``push_resume(time, process, payload)``, ``peek_time()``,
    ``pending_entries()`` and ``drain(sim, until, progress_window)`` —
    the one dispatch loop every :meth:`run` goes through — plus
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

        The engine samples it when a dispatch batch starts, so it can
        read below the true peak; the oracle samples per push.
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
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        process = Process(self, generator, name=name)
        processes = self._processes
        processes.append(process)
        if len(processes) >= self._prune_at:
            # amortised O(1): drop finished processes so per-transaction
            # spawns don't grow the list (and live_processes scans) forever
            self._processes = [p for p in processes if p.alive]
            self._prune_at = max(self._PRUNE_START, 2 * len(self._processes))
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

    def run(self, until: Optional[int] = None, check_deadlock: bool = False,
            progress_window: Optional[int] = None) -> int:
        """Run the event loop (the queue's ``drain``).

        Args:
            until: Stop once simulation time would pass this cycle (events at
                exactly ``until`` still fire).  Time always advances to
                ``until`` — also when the queue drains earlier — but never
                backwards (a later ``run(until=earlier)`` is a no-op).
            check_deadlock: Raise :class:`DeadlockError` if the queue truly
                drains while processes are still alive (blocked on signals
                forever).  An early stop via ``until`` with work still
                queued is *not* a deadlock and is never reported as one.
            progress_window: Raise :class:`LivelockError` once this many
                consecutive events fired without simulated time advancing
                (zero-cycle notify storms, spinning processes), checked at
                the queue's batch boundaries.  ``None`` disables the
                watchdog.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if progress_window is not None and progress_window < 1:
            raise SimulationError(
                f"progress_window must be >= 1, got {progress_window}")
        self._running = True
        try:
            self._queue.drain(self, until, progress_window)
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until
        if check_deadlock and len(self._queue) == 0:
            stuck = self.live_processes
            if stuck:
                raise DeadlockError(
                    f"{len(stuck)} process(es) blocked forever at cycle "
                    f"{self._now}: {self.blocked_report()}"
                )
        return self._now

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
