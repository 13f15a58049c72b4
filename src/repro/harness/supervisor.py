"""Worker-pool supervision for parallel sweeps.

:mod:`concurrent.futures` treats a worker pool as one fragile unit: a
worker that dies takes the whole pool down (``BrokenProcessPool``), a
``future.cancel()`` on a running point is a no-op, and there is no way
to tell "the simulation raised" from "the process was OOM-killed".  A
long design-space-exploration sweep needs the opposite: per-worker
process handles, so one dead or hung worker is killed, reaped and
replaced without disturbing the other lanes.

:class:`WorkerSupervisor` owns N ``multiprocessing.Process`` children.
Each worker has a private task queue (so the supervisor always knows
which point a worker is holding) and shares one result queue on which
it reports ``started`` (pickup), ``done`` (a summary dict) and periodic
``heartbeat`` messages from a daemon thread.  The supervisor turns
queue traffic plus process liveness into typed :class:`WorkerEvent`
streams:

* ``started`` — the worker picked the point up (per-point timeout
  clocks start *here*, not at submission);
* ``result`` — the point finished with a summary (ok or failed);
* ``crashed`` — the worker process died mid-point (SIGKILL, OOM,
  segfault) or stopped heartbeating for ``heartbeat_timeout_s``
  (hung in a non-Python blocking call); the worker is hard-killed
  and respawned;
* ``timeout`` — the point exceeded its wall-clock budget measured
  from pickup; the worker is hard-killed and respawned.

:meth:`WorkerSupervisor.shutdown` guarantees that **no child process
survives** the sweep, graceful or not: sentinel, join, SIGTERM, then
SIGKILL, in that order, with bounded waits.

The typed failure taxonomy (:class:`SweepPointFailure`) and the
interrupt carrier (:class:`SweepInterrupted`) live here too, shared by
the execution engine in :mod:`repro.harness.parallel`, the journal and
the CLI.
"""

import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

__all__ = [
    "EXIT_INTERRUPTED",
    "FAILURE_KINDS",
    "INTERRUPTED",
    "SIMULATION_ERROR",
    "SweepInterrupted",
    "SweepPointFailure",
    "TIMEOUT",
    "WORKER_CRASH",
    "WorkerEvent",
    "WorkerSupervisor",
]

#: Exit status of ``repro-sweep`` when the operator interrupted the
#: sweep (SIGINT/SIGTERM) and the journal/partial results were flushed.
#: Distinct from 1 (failed points) and the artifact codes 3-7.
EXIT_INTERRUPTED = 8

# ------------------------------------------------------ failure taxonomy

#: The worker process died mid-point (or stopped heartbeating).
WORKER_CRASH = "worker-crash"
#: The point exceeded its wall-clock budget, measured from pickup.
TIMEOUT = "timeout"
#: The simulation itself raised — same inputs will fail the same way.
SIMULATION_ERROR = "simulation-error"
#: The operator stopped the sweep before the point finished.
INTERRUPTED = "interrupted"

FAILURE_KINDS = (WORKER_CRASH, TIMEOUT, SIMULATION_ERROR, INTERRUPTED)

#: Kinds worth retrying: the failure came from the execution machinery,
#: not from the (deterministic) simulation, so a re-run can succeed.
_TRANSIENT_KINDS = frozenset({WORKER_CRASH, TIMEOUT})


@dataclass(frozen=True)
class SweepPointFailure:
    """Why one grid point failed, as typed data.

    ``kind`` is one of :data:`FAILURE_KINDS`; ``transient`` failures
    (worker crash, timeout) may succeed on retry, deterministic ones
    (simulation error) will not.  ``attempts`` counts how many times the
    point was tried in total.
    """

    kind: str
    message: str
    traceback: Optional[str] = None
    attempts: int = 1

    @property
    def transient(self) -> bool:
        return self.kind in _TRANSIENT_KINDS

    def as_dict(self) -> Dict:
        return {"kind": self.kind, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts,
                "transient": self.transient}

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message} (attempt {self.attempts})"


class SweepInterrupted(Exception):
    """The sweep was stopped by the operator before completing.

    Carries the partial ``results`` list (one row per grid point;
    unfinished points are marked ``interrupted``) so the CLI can render
    the partial table/CSV, plus the journal directory for the
    one-line resume hint.
    """

    def __init__(self, results: List, journal_dir: Optional[str] = None):
        count = sum(1 for r in results
                    if getattr(r, "status", "ok") == "ok")
        super().__init__(
            f"sweep interrupted after {count}/{len(results)} point(s)")
        self.results = results
        self.journal_dir = journal_dir


# ------------------------------------------------------------ worker side

#: Test-only knobs (set the env vars in tests to exercise crash paths).
#: ``CRASH_INDEX`` — any worker handed that grid-point index dies with
#: ``os._exit`` after reporting pickup (a deterministic mid-point kill).
_TEST_CRASH_INDEX_ENV = "REPRO_SWEEP_TEST_CRASH_INDEX"
#: ``CRASH_ONCE`` — the first worker to claim the named marker file dies
#: mid-point, exactly once across the pool (exercises crash + retry).
_TEST_CRASH_ONCE_ENV = "REPRO_SWEEP_TEST_CRASH_ONCE"
#: ``NO_HEARTBEAT`` — workers skip the heartbeat thread, so the
#: supervisor's hang detection sees a silent (hung) worker.
_TEST_NO_HEARTBEAT_ENV = "REPRO_SWEEP_TEST_NO_HEARTBEAT"

#: Seconds between worker heartbeats (a daemon thread in each worker).
HEARTBEAT_INTERVAL_S = 0.5


def _heartbeat_loop(result_queue, worker_id: int,
                    stop: threading.Event) -> None:
    while not stop.wait(HEARTBEAT_INTERVAL_S):
        try:
            result_queue.put(("heartbeat", worker_id, None, None))
        except (OSError, ValueError):
            return                  # queue closed: parent is gone


def _test_crash(result_queue) -> None:
    """Die like an OOM kill, minus one hazard a test must not flake on:
    the queue's feeder thread may still hold the pipe lock every worker
    shares, so let it finish writing before the process vanishes."""
    result_queue.close()
    result_queue.join_thread()
    os._exit(42)


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Body of one pool worker: loop over tasks until the sentinel.

    SIGINT is ignored — a terminal Ctrl-C hits the whole process group,
    and shutdown is the *supervisor's* decision (it journals in-flight
    points first, then terminates the pool deliberately).
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # undo any SIGTERM handler inherited from the driver (the CLI's
    # interrupt handler, forked into us) so terminate() works first try
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    stop = threading.Event()
    if not os.environ.get(_TEST_NO_HEARTBEAT_ENV):
        beat = threading.Thread(target=_heartbeat_loop, daemon=True,
                                args=(result_queue, worker_id, stop))
        beat.start()

    from repro.harness.parallel import _execute_task
    # this worker's generated traffic classes, shared by the class
    # warm-ups and the warm-restored points it runs (a fresh worker,
    # like a fresh sweep, starts empty)
    class_programs: Dict = {}
    crash_index = os.environ.get(_TEST_CRASH_INDEX_ENV)
    crash_once = os.environ.get(_TEST_CRASH_ONCE_ENV)
    while True:
        task = task_queue.get()
        if task is None:
            stop.set()
            return
        index, work = task
        result_queue.put(("started", worker_id, index, None))
        if crash_index is not None and int(crash_index) == index:
            _test_crash(result_queue)
        if crash_once:
            try:
                os.close(os.open(crash_once,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass                # another worker already crashed
            else:
                _test_crash(result_queue)
        summary = _execute_task(work, class_programs)
        result_queue.put(("done", worker_id, index, summary))


# -------------------------------------------------------- supervisor side

class WorkerEvent(NamedTuple):
    """One supervision event, surfaced to the execution engine."""

    kind: str                 # "started" | "result" | "crashed" | "timeout"
    index: int                # grid-point index the event is about
    summary: Optional[Dict]   # for "result": the worker's summary dict
    detail: str = ""          # human-readable cause for crash/timeout


@dataclass
class _WorkerHandle:
    """One supervised child: its process, private queue and bookkeeping."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: object
    index: Optional[int] = None          # grid point currently held
    dispatched_at: Optional[float] = None
    started_at: Optional[float] = None   # set on the "started" message
    last_heartbeat: float = field(default_factory=time.monotonic)

    @property
    def busy(self) -> bool:
        return self.index is not None


class WorkerSupervisor:
    """Owns a pool of worker processes with per-worker supervision.

    Unlike a ``ProcessPoolExecutor``, every worker is individually
    killable and replaceable: a crash or hang costs exactly the point
    that worker was running.  The supervisor never lets a child outlive
    it — :meth:`shutdown` escalates sentinel → join → SIGTERM → SIGKILL.
    """

    def __init__(self, workers: int,
                 heartbeat_timeout_s: Optional[float] = None):
        self.target = max(1, workers)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._context = multiprocessing.get_context()
        self._result_queue = self._context.Queue()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._retired: List[_WorkerHandle] = []
        self._dead_ids: set = set()
        self._next_id = 0
        for _ in range(self.target):
            self._spawn()

    # ------------------------------------------------------------- state

    @property
    def busy_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.busy)

    @property
    def idle_count(self) -> int:
        return len(self._workers) - self.busy_count

    @property
    def pids(self) -> List[int]:
        return [w.process.pid for w in self._workers.values()
                if w.process.pid is not None]

    # ---------------------------------------------------------- spawning

    def _spawn(self) -> _WorkerHandle:
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main, name=f"repro-sweep-worker-{worker_id}",
            args=(worker_id, task_queue, self._result_queue), daemon=True)
        process.start()
        handle = _WorkerHandle(worker_id, process, task_queue)
        self._workers[worker_id] = handle
        return handle

    def _kill(self, handle: _WorkerHandle) -> None:
        """Hard-kill one worker and reap it; it is never reused."""
        self._dead_ids.add(handle.worker_id)
        del self._workers[handle.worker_id]
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        handle.task_queue.close()

    # ----------------------------------------------------------- resizing

    def resize(self, target: int) -> None:
        """Match the pool to the outstanding work (never below 1).

        Shrinking retires surplus *idle* workers immediately (sentinel;
        reaped asynchronously) — a 2-point tail of a 16-worker sweep
        must not keep 14 idle processes alive.  Busy workers always
        finish their point first; :meth:`poll` retires them once idle.
        Growing just raises the respawn target.
        """
        target = max(1, target)
        if target == self.target:
            return
        self.target = target
        self._retire_surplus()

    def _retire_surplus(self) -> None:
        for handle in list(self._workers.values()):
            if len(self._workers) <= self.target:
                break
            if handle.busy:
                continue
            self._dead_ids.add(handle.worker_id)
            del self._workers[handle.worker_id]
            try:
                handle.task_queue.put(None)   # graceful: exits at once
            except (OSError, ValueError):
                pass
            self._retired.append(handle)

    def _reap_retired(self) -> None:
        for handle in self._retired[:]:
            if handle.process.is_alive():
                continue
            handle.process.join(timeout=0)
            handle.task_queue.close()
            self._retired.remove(handle)

    # --------------------------------------------------------- dispatch

    def dispatch(self, index: int, task: tuple) -> None:
        """Hand one task, the tuple ``_execute_task`` takes, to an idle
        worker (caller checks idle_count)."""
        for handle in list(self._workers.values()):
            if handle.busy:
                continue
            if not handle.process.is_alive():
                # died idle since the last poll(); queueing into the
                # corpse would misclassify a never-run point as a
                # worker-crash — reap and hand the point to a fresh
                # worker instead
                self._kill(handle)
                handle = self._spawn()
            handle.index = index
            handle.dispatched_at = time.monotonic()
            handle.started_at = None
            handle.last_heartbeat = time.monotonic()
            handle.task_queue.put((index, task))
            return
        raise RuntimeError("dispatch() called with no idle worker")

    # ------------------------------------------------------------ polling

    def poll(self, timeout: float = 0.1,
             point_timeout_s: Optional[float] = None,
             respawn: bool = True) -> List[WorkerEvent]:
        """Drain worker traffic and health-check the pool.

        Returns the supervision events since the last call.  Dead or
        hung workers are killed and (when ``respawn``) replaced before
        returning, so one bad lane never stalls the others.
        """
        events: List[WorkerEvent] = []
        self._drain(timeout, events)
        now = time.monotonic()
        for handle in list(self._workers.values()):
            if not handle.process.is_alive():
                if handle.busy:
                    events.append(WorkerEvent(
                        "crashed", handle.index, None,
                        f"worker process (pid {handle.process.pid}) died "
                        f"with exit code {handle.process.exitcode}"))
                self._kill(handle)
                continue
            if not handle.busy:
                continue
            clock = handle.started_at if handle.started_at is not None \
                else handle.dispatched_at
            if point_timeout_s is not None and \
                    now - clock > point_timeout_s:
                events.append(WorkerEvent(
                    "timeout", handle.index, None,
                    f"task exceeded the per-point timeout of "
                    f"{point_timeout_s:g}s (measured from worker pickup); "
                    f"worker hard-killed"))
                self._kill(handle)
                continue
            if self.heartbeat_timeout_s is not None and \
                    now - handle.last_heartbeat > self.heartbeat_timeout_s:
                events.append(WorkerEvent(
                    "crashed", handle.index, None,
                    f"worker (pid {handle.process.pid}) sent no heartbeat "
                    f"for {self.heartbeat_timeout_s:g}s — presumed hung; "
                    f"hard-killed"))
                self._kill(handle)
        self._retire_surplus()         # workers freed past a shrunk target
        self._reap_retired()
        if respawn:
            while len(self._workers) < self.target:
                self._spawn()
        return events

    def _drain(self, timeout: float, events: List[WorkerEvent]) -> None:
        block = True
        while True:
            try:
                message = self._result_queue.get(
                    timeout=timeout if block else 0)
            except queue_module.Empty:
                return
            except (EOFError, OSError):
                return
            except Exception:
                # a worker killed mid-write can tear the stream; drop the
                # message — liveness checks will classify the worker
                continue
            block = False
            kind, worker_id, index, payload = message
            handle = self._workers.get(worker_id)
            if handle is None or worker_id in self._dead_ids:
                continue            # stale traffic from a killed worker
            handle.last_heartbeat = time.monotonic()
            if kind == "heartbeat":
                continue
            if kind == "started":
                handle.started_at = time.monotonic()
                events.append(WorkerEvent("started", index, None))
            elif kind == "done":
                handle.index = None
                handle.started_at = None
                events.append(WorkerEvent("result", index, payload))

    # ----------------------------------------------------------- shutdown

    def shutdown(self, graceful: bool = True, timeout: float = 2.0) -> None:
        """Stop every child, guaranteed: no worker survives this call.

        ``graceful`` sends the sentinel first (workers are idle between
        points at the end of a sweep, so they exit immediately); either
        way stragglers are escalated SIGTERM → SIGKILL with bounded
        joins, then joined once more so nothing is left as a zombie.
        """
        handles = list(self._workers.values()) + self._retired
        self._workers.clear()
        self._retired = []
        self._dead_ids.update(h.worker_id for h in handles)
        if graceful:
            for handle in handles:
                try:
                    handle.task_queue.put(None)
                except (OSError, ValueError):
                    pass
            deadline = time.monotonic() + timeout
            for handle in handles:
                handle.process.join(
                    timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(
                timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()
            handle.task_queue.close()
        self._result_queue.close()
        self._result_queue.join_thread()
