"""Parallel, cached, journalled execution of sweep grids.

The paper's economics argument — trace once, then evaluate every design
alternative cheaply — only pays off if the *batch* of evaluations is
cheap too, and stays cheap when something goes wrong at point 412 of a
500-point overnight sweep.  This module fans the grid points of a
:class:`~repro.harness.sweep.SweepSpec` out over a supervised worker
pool (:mod:`repro.harness.supervisor`), consults an on-disk
:class:`~repro.harness.cache.ResultCache` first, and can journal every
state transition to a :class:`~repro.harness.journal.SweepJournal` so
an interrupted sweep resumes exactly where it stopped.

Execution contract:

* **Deterministic assembly** — results always come back in grid order
  (fabric-major, then mode, then core count), regardless of which worker
  finished first.  The simulator itself is deterministic, so cycle
  counts are identical between serial and parallel runs; only wall-time
  columns differ.
* **Crash isolation** — an exception inside a grid point marks *that
  point* failed (``simulation-error``); a worker process dying
  (``worker-crash``) costs only the point it was running — the
  supervisor hard-kills and respawns the worker, the other lanes never
  notice.
* **Per-point timeout** — a point still running ``point_timeout_s``
  after its *worker pickup* (not submission — queued points don't age)
  has its worker hard-killed and is marked ``timeout``.
* **Retries** — transient failures (``worker-crash``/``timeout``) are
  retried up to ``retries`` times with exponential backoff and seeded
  jitter; a point that exhausts its budget is quarantined.
  Deterministic failures (``simulation-error``) are never retried.
* **Warm-up sharing** — each warm-up equivalence class the cache cannot
  serve is one supervised pool task, dispatched before any point; its
  member points wait for its snapshot, and each process generates and
  formats a class's programs once.
* **Interruption** — when ``cancel`` is set (or Ctrl-C arrives),
  in-flight points are journalled ``interrupted``, every worker is
  terminated, and :class:`~repro.harness.supervisor.SweepInterrupted`
  carries the partial results out.
* **Progress** — an optional callback receives ``k/N done`` lines with
  cached/failed counts and an ETA extrapolated from completed points.

``jobs=1`` runs the same engine in-process (no pool, so no crash/hang
protection).
"""

import copy
import os
import random
import shutil
import tempfile
import threading
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.artifacts.errors import ArtifactError, SnapshotRecipeMismatch
from repro.core.modes import ReplayMode
from repro.harness.cache import (
    ResultCache,
    content_hash,
    point_provenance,
    repro_version,
    warmup_digest,
)
from repro.harness.experiments import RunOptions, RunResult, tg_flow
from repro.harness.journal import SweepJournal
from repro.harness.supervisor import (
    INTERRUPTED,
    SIMULATION_ERROR,
    SweepInterrupted,
    SweepPointFailure,
    TIMEOUT,
    WORKER_CRASH,
    WorkerSupervisor,
)
from repro.harness.sweep import (
    SYNTHETIC,
    SweepSpec,
    _resolve_app,
    resolve_traffic,
)

__all__ = ["PointResult", "SOURCES", "SweepPoint", "SweepTally",
           "expand_grid", "run_sweep_parallel"]

#: Test-only knob: every worker sleeps this many seconds before
#: simulating (set the env var in tests to exercise the timeout path).
_TEST_SLEEP_ENV = "REPRO_SWEEP_TEST_SLEEP_S"

#: Kill a worker that stops heartbeating for this long (presumed hung).
DEFAULT_HEARTBEAT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class SweepPoint:
    """One grid point, as plain picklable data (no app modules)."""

    index: int
    benchmark: str
    n_cores: int
    interconnect: str
    mode: str                      # ReplayMode.value, JSON-friendly
    app_params: Dict = field(default_factory=dict)
    fault_spec: Optional[Dict] = None
    fault_seed: int = 0
    traffic: Optional[Dict] = None  # synthetic sweeps: resolved spec dict
    warmup_cycles: Optional[int] = None   # mixed-fidelity fast-forward
    warmup_fabric: str = "tlm"

    def warmup_material(self) -> Optional[Dict]:
        """The warm-up equivalence-class material (None when disabled).

        Everything that determines the warm-up snapshot's bytes.  A
        synthetic point's material deliberately *excludes* the target
        interconnect and the fault axes — the warm-up always runs on
        ``warmup_fabric``, healthy — so grid points differing only along
        those axes share one warm-up simulation.  Classic-benchmark points
        include the interconnect (their programs are translated from
        traces collected on it), so each is its own singleton class and
        warms up in-worker.
        """
        if self.warmup_cycles is None:
            return None
        material: Dict = {
            "benchmark": self.benchmark,
            "n_cores": self.n_cores,
            "mode": self.mode,
            "warmup_cycles": self.warmup_cycles,
            "warmup_fabric": self.warmup_fabric,
        }
        if self.traffic is not None:
            material["traffic"] = self.traffic
        else:
            material["interconnect"] = self.interconnect
            material["app_params"] = self.app_params
        return material

    def warmup_key(self) -> Optional[str]:
        """Digest naming this point's warm-up snapshot (None = cold)."""
        material = self.warmup_material()
        return None if material is None else warmup_digest(material)

    def provenance(self, version: Optional[str] = None) -> Dict:
        """The pre-hash cache-key material (human-readable)."""
        return point_provenance(
            self.benchmark, self.n_cores, self.interconnect, self.mode,
            self.app_params, self.fault_spec, self.fault_seed,
            traffic=self.traffic, version=version,
            warmup=self.warmup_key())

    def cache_key(self, version: Optional[str] = None) -> str:
        """The hash of :meth:`provenance`, which the entry stores."""
        return content_hash(self.provenance(version))

    def payload(self) -> Dict:
        """The dict shipped to a worker process (deep-copied params)."""
        payload = {
            "benchmark": self.benchmark,
            "n_cores": self.n_cores,
            "interconnect": self.interconnect,
            "mode": self.mode,
            "app_params": copy.deepcopy(self.app_params),
            "fault_spec": copy.deepcopy(self.fault_spec),
            "fault_seed": self.fault_seed,
            "traffic": copy.deepcopy(self.traffic),
        }
        if self.warmup_cycles is not None:
            payload["warmup"] = {"cycles": self.warmup_cycles,
                                 "fabric": self.warmup_fabric,
                                 "digest": self.warmup_key()}
        return payload


def expand_grid(spec: SweepSpec) -> List[SweepPoint]:
    """Grid points in canonical sweep order (fabric → mode → cores).

    Results come back in this order whatever the worker count, so
    ``jobs=1`` and pooled sweeps render identical tables.  Every point
    gets its own deep copy of the app params.
    """
    points: List[SweepPoint] = []
    for interconnect in spec.interconnects:
        for mode in spec.modes:
            for n_cores in spec.cores:
                if spec.benchmark == SYNTHETIC:
                    for pattern in (spec.patterns or [None]):
                        for load in (spec.loads or [None]):
                            points.append(SweepPoint(
                                index=len(points),
                                benchmark=spec.benchmark,
                                n_cores=n_cores,
                                interconnect=interconnect,
                                mode=mode.value,
                                fault_spec=copy.deepcopy(spec.fault_spec),
                                fault_seed=spec.fault_seed,
                                traffic=resolve_traffic(
                                    spec.traffic, n_cores, mode.value,
                                    pattern=pattern, load=load),
                                warmup_cycles=spec.warmup_cycles,
                                warmup_fabric=spec.warmup_fabric))
                    continue
                points.append(SweepPoint(
                    index=len(points), benchmark=spec.benchmark,
                    n_cores=n_cores, interconnect=interconnect,
                    mode=mode.value,
                    app_params=copy.deepcopy(spec.app_params),
                    fault_spec=copy.deepcopy(spec.fault_spec),
                    fault_seed=spec.fault_seed,
                    warmup_cycles=spec.warmup_cycles,
                    warmup_fabric=spec.warmup_fabric))
    return points


#: Where a row's numbers came from (:attr:`PointResult.source`): this
#: run, this run from its warm-up class's shared snapshot, the result
#: cache, or the journal of an earlier run.
SOURCES = ("simulated", "warmup-restored", "cache", "journal")

#: Key a worker's summary carries when the point restored its class's
#: shared warm-up snapshot; the engine pops it before storing the summary.
_RESTORED = "warmup_restored"


class PointResult(RunResult):
    """Picklable outcome of one grid point.

    The :class:`~repro.harness.experiments.RunResult` core plus the
    synthetic-sweep columns (None on classic benchmark rows; a non-None
    ``offered_load`` marks the row synthetic for renderers) and the
    execution metadata resilient sweeps need: how many ``attempts`` the
    point consumed, whether it was ``quarantined`` after exhausting
    retries, and the ``source`` of its numbers (one of :data:`SOURCES`,
    set where the row is settled).  A classic-benchmark or unshared
    warm-up, or a member's own warm-up after its class's snapshot failed
    to restore, is ``simulated``.  ``traceback`` mirrors ``failure`` for
    rendering.
    """

    #: Summary keys a successful row copies.
    FIELDS = ("ref_cycles", "tg_cycles", "ref_wall", "tg_wall",
              "ref_events", "tg_events", "warmup_cycle", "warmup_fabric",
              "offered_load", "pattern", "scheduled_load", "realised_load",
              "latency_avg", "latency_max", "issued", "words",
              "throughput_wpkc")

    def __init__(self, point: SweepPoint,
                 cache_key: Optional[str] = None):
        super().__init__(point.benchmark, point.n_cores, point.interconnect,
                         ReplayMode.from_name(point.mode))
        traffic = point.traffic or {}
        self.offered_load: Optional[float] = traffic.get("load")
        self.pattern: Optional[str] = traffic.get("pattern")
        self.scheduled_load: Optional[float] = None
        self.realised_load: Optional[float] = None
        self.latency_avg: Optional[float] = None
        self.latency_max: Optional[int] = None
        self.issued: Optional[int] = None
        self.words: Optional[int] = None
        self.throughput_wpkc: Optional[float] = None
        self.traceback: Optional[str] = None
        self.attempts = 1
        self.quarantined = False
        self.source = "simulated"
        self.cache_key = cache_key

    # read-only views of ``source``
    cached = property(lambda self: self.source == "cache")
    journaled = property(lambda self: self.source == "journal")
    warm_restored = property(lambda self: self.source == "warmup-restored")

    @classmethod
    def failed(cls, point: SweepPoint, failure: SweepPointFailure,
               cache_key: Optional[str] = None,
               quarantined: bool = False) -> "PointResult":
        """A failed row, still named by its point's pattern and load."""
        result = cls(point, cache_key)
        result.status = "failed"
        result.failure = failure
        result.traceback = failure.traceback or failure.message
        result.attempts = failure.attempts
        result.quarantined = quarantined
        return result

    @classmethod
    def from_summary(cls, point: SweepPoint, summary: Dict,
                     source: str = "simulated",
                     cache_key: Optional[str] = None) -> "PointResult":
        status = summary.get("status")
        if status == "ok":
            result = cls(point, cache_key)
            for name in cls.FIELDS:
                if name in summary:
                    setattr(result, name, summary[name])
        elif status == "failed":
            result = cls.failed(point, SweepPointFailure(
                SIMULATION_ERROR, "grid point raised inside the worker",
                traceback=summary.get("traceback")), cache_key)
        else:
            # a summary with no (or an unknown) status is untrustworthy —
            # e.g. a stale cache entry from an older schema; defaulting
            # to "ok" here would report zeros as real cycle counts
            result = cls.failed(point, SweepPointFailure(
                SIMULATION_ERROR,
                f"result summary carries an invalid status {status!r} "
                f"(stale cache entry from an older schema?); treating "
                f"the point as failed"), cache_key)
        result.source = source
        return result

    def __repr__(self) -> str:
        status = self.status if self.failure is None \
            else f"{self.status}:{self.failure.kind}"
        return (f"<PointResult {self.benchmark} {self.n_cores}P "
                f"{self.interconnect} {status} {self.source}>")


class SweepTally:
    """The one count of a sweep's rows: ``rows[source]`` counts every
    row from each of the :data:`SOURCES` and ``ok[source]`` the ok ones.
    The progress line, ``repro-sweep``'s summary line and its
    diagnostics ``provenance`` all read these counts."""

    def __init__(self, results: Iterable[PointResult] = ()):
        self.rows = dict.fromkeys(SOURCES, 0)
        self.ok = dict.fromkeys(SOURCES, 0)
        for result in results:
            self.add(result)

    def add(self, result: PointResult) -> None:
        self.rows[result.source] += 1
        if result.status == "ok":
            self.ok[result.source] += 1

    @property
    def done(self) -> int:
        return sum(self.rows.values())

    @property
    def failed(self) -> int:
        return self.done - sum(self.ok.values())

    @property
    def simulated(self) -> int:
        """Ok rows simulated in this run, from a shared warm-up or not."""
        return self.ok["simulated"] + self.ok["warmup-restored"]


#: Traffic classes whose :class:`~repro.apps.synthetic.ProgramSet` one
#: sweep process keeps (see :func:`_class_programs`).  Both engines run a
#: class's members back to back, so ``jobs=1`` needs one entry; a pool
#: worker also keeps the class of the warm-up it ran while it runs the
#: members of a class that landed earlier.
_CLASS_PROGRAMS_LIMIT = 2


def _class_programs(class_programs: Dict, digest: str, spec):
    """Warm-up class ``digest``'s programs, built once per process.

    ``class_programs`` belongs to the loop that runs the tasks — a pool
    worker, or the driver at ``jobs=1`` — and starts empty with every
    sweep.  It keeps the :data:`_CLASS_PROGRAMS_LIMIT` most recently
    used classes, so a class's warm-up and every member restored in the
    same process share one generation and one ``.tgp`` formatting.
    """
    from repro.apps.synthetic import ProgramSet
    programs = class_programs.pop(digest, None)
    if programs is None:
        programs = ProgramSet.build(spec)
        if len(class_programs) >= _CLASS_PROGRAMS_LIMIT:
            del class_programs[next(iter(class_programs))]
    class_programs[digest] = programs
    return programs


def _execute_point(payload: Dict, class_programs: Dict) -> Dict:
    """Worker body: run one grid point, return a picklable summary.

    Runs in a pool worker (or in-process for ``jobs=1``).  A point that
    restores a shared warm-up takes its programs from
    ``class_programs`` (see :func:`_class_programs`), and its summary
    says it did (:data:`_RESTORED`).  All failures are folded into a
    ``{"status": "failed"}`` summary so an exploding grid point cannot
    take the pool down with it.
    """
    sleep_s = float(os.environ.get(_TEST_SLEEP_ENV, "0") or 0.0)
    if sleep_s > 0:
        time.sleep(sleep_s)
    try:
        restored = False
        warmup = payload.get("warmup") or {}
        options = RunOptions(fault_spec=payload.get("fault_spec"),
                             fault_seed=payload.get("fault_seed", 0),
                             warmup_cycles=warmup.get("cycles"),
                             warmup_fabric=warmup.get("fabric", "tlm"))
        if payload["benchmark"] == SYNTHETIC:
            from repro.apps.synthetic import TrafficSpec, synthetic_flow
            spec = TrafficSpec.from_dict(payload["traffic"])
            warmup_payload = program_set = None
            if warmup.get("snap_path"):
                # a damaged or vanished shared snapshot is a cache-style
                # miss, not a failure: the worker re-derives the same
                # warm-up itself (deterministic, so same result)
                from repro.harness.checkpoint import load_snapshot
                try:
                    warmup_payload = load_snapshot(warmup["snap_path"])
                except (OSError, ArtifactError):
                    warmup_payload = None
                else:
                    program_set = _class_programs(
                        class_programs, warmup["digest"], spec)
            try:
                result = synthetic_flow(spec, payload["interconnect"],
                                        options=options,
                                        warmup_payload=warmup_payload,
                                        program_set=program_set)
                restored = warmup_payload is not None
            except SnapshotRecipeMismatch:
                # a snapshot filed under another class's digest (the
                # .snap does not carry the class material) is a miss too
                if warmup_payload is None:
                    raise
                result = synthetic_flow(spec, payload["interconnect"],
                                        options=options)
        else:
            result = tg_flow(_resolve_app(payload["benchmark"]),
                             payload["n_cores"],
                             interconnect=payload["interconnect"],
                             mode=ReplayMode.from_name(payload["mode"]),
                             app_params=payload["app_params"] or None,
                             options=options)
        summary = result.summary()
        summary["status"] = "ok"
        if restored:
            summary[_RESTORED] = True
        return summary
    except Exception:
        return {"status": "failed",
                "traceback": traceback_module.format_exc()}


def _shared_warmup_payload(task: Dict, class_programs: Dict) -> Dict:
    """Simulate one equivalence class's warm-up prefix.

    Runs as a pool task (in-process at ``jobs=1``).  The programs are
    the class's :class:`~repro.apps.synthetic.ProgramSet` from
    ``class_programs``, built with
    :func:`~repro.apps.synthetic.generate` exactly as every restoring
    member builds them, and the class recipe takes the set's texts, so
    the snapshot's embedded recipe byte-matches the recipe each member
    derives (and
    :func:`~repro.harness.checkpoint.ensure_recipe_compatible` accepts
    the restore), and members restored in this process reuse the set.
    The warm-up is healthy and fabric-agnostic by construction (see
    :meth:`SweepPoint.warmup_material`).
    """
    from repro.apps.synthetic import TrafficSpec
    from repro.harness.checkpoint import platform_recipe, warmup_snapshot
    programs = _class_programs(class_programs, task["digest"],
                               TrafficSpec.from_dict(task["traffic"]))
    recipe = platform_recipe(programs.programs, task["n_cores"],
                             task["fabric"], texts=programs.texts)
    return warmup_snapshot(recipe, task["cycles"], task["fabric"],
                           programs.programs)


def _execute_task(payload: Dict, class_programs: Dict) -> Dict:
    """Run one pool task: a class warm-up or a grid point.

    ``class_programs`` is the calling loop's dict of traffic classes.
    A warm-up task's summary carries the snapshot as ``.snap`` text for
    the driver to store.
    """
    task = payload.get("warmup_task")
    if task is None:
        return _execute_point(payload, class_programs)
    from repro.artifacts.snap import dump_snap
    try:
        snap = dump_snap(_shared_warmup_payload(task, class_programs))
    except Exception:
        return {"status": "failed",
                "traceback": traceback_module.format_exc()}
    return {"status": "ok", "snap": snap}


def _retry_delay(attempt: int, backoff_s: float, index: int) -> float:
    """Exponential backoff with deterministic (seeded) jitter."""
    rng = random.Random(f"0:{index}:{attempt}")
    return backoff_s * (2 ** attempt) + rng.uniform(0.0, backoff_s)


@dataclass
class _Task:
    """Engine-side state of one not-yet-finished grid point."""

    point: SweepPoint
    key: Optional[str]
    attempt: int = 0
    eligible_at: float = 0.0       # monotonic time a retry may dispatch
    picked_up: Optional[float] = None
    #: shared warm-up snapshot the worker restores from (set when its
    #: class is ready; None = the worker warms up itself)
    snap_path: Optional[str] = None

    @property
    def index(self) -> int:
        return self.point.index

    def payload(self) -> Dict:
        payload = self.point.payload()
        if self.snap_path is not None and payload.get("warmup"):
            payload["warmup"]["snap_path"] = self.snap_path
        return payload


@dataclass
class _WarmupTask:
    """One warm-up equivalence class to simulate: a pool task whose
    grid-point ``members`` wait for its snapshot.  Not a grid point —
    the journal, cache keys and results never see it, and its negative
    ``index`` never collides with a grid index."""

    index: int
    digest: str
    members: List[_Task]
    attempt: int = 0
    eligible_at: float = 0.0
    picked_up: Optional[float] = None

    def payload(self) -> Dict:
        point = self.members[0].point
        return {"warmup_task": {"digest": self.digest,
                                "traffic": copy.deepcopy(point.traffic),
                                "n_cores": point.n_cores,
                                "cycles": point.warmup_cycles,
                                "fabric": point.warmup_fabric}}


class _WarmupClasses:
    """The driver's side of warm-up sharing.

    Groups the pending synthetic points into warm-up equivalence
    classes.  A class the cache already holds a snapshot for releases
    its members at once; every other class becomes a
    :class:`_WarmupTask` and holds its members until :meth:`finish`
    stores the snapshot the task returned — in the result cache, or
    with ``--no-cache`` in a throwaway cache over a temporary directory
    (the driver is its only writer).  Classic-benchmark points, and
    everything when ``share`` is False, belong to no class and warm up
    in-worker.  Once the last class is settled the warm-up line is
    printed and ``report`` gets its ``classes``/``simulated``/``cached``
    provenance.

    ``groups`` lists every class as ``(warm-up task or None, members)``
    in digest order, then ``(None, classless points)``.  Both engines
    run a class's members one after another (see
    :data:`_CLASS_PROGRAMS_LIMIT`).
    """

    def __init__(self, pending: List[_Task], cache: Optional[ResultCache],
                 share: bool, progress, report: Optional[Dict],
                 finish_failed):
        self.cache = cache
        self.progress = progress
        # only a sweep with warm-ups reports on them
        self.report = report if any(
            t.point.warmup_cycles is not None for t in pending) else None
        self.finish_failed = finish_failed
        self.temp_dir: Optional[str] = None
        self.info: Dict[str, Dict] = {}
        self.tasks: List[_WarmupTask] = []
        self.groups: List[Tuple[Optional[_WarmupTask], List[_Task]]] = []
        self.simulated = self.cached = 0
        classes: Dict[str, List[_Task]] = {}
        classless: List[_Task] = []
        for task in pending:
            point = task.point
            if share and point.warmup_cycles is not None \
                    and point.traffic is not None:
                classes.setdefault(point.warmup_key(), []).append(task)
            else:
                classless.append(task)
        for digest in sorted(classes):
            members = classes[digest]
            warmup = None
            source = None                 # set when the task settles
            if cache is not None and cache.get_snap(digest) is not None:
                source = "cache"
                self.cached += 1
                for task in members:
                    task.snap_path = str(cache.snap_path_for(digest))
            else:
                warmup = _WarmupTask(-1 - len(self.tasks), digest, members)
                self.tasks.append(warmup)
            self.groups.append((warmup, members))
            self.info[digest] = {"digest": digest, "points": len(members),
                                 "source": source}
        if classless:
            self.groups.append((None, classless))
        self.unsettled = len(self.tasks)
        if not self.unsettled:
            self._settled()

    def finish(self, task: _WarmupTask, summary: Dict) -> List[_Task]:
        """Settle a class from its task's summary; returns the members
        now runnable (none when the warm-up simulation failed)."""
        if summary.get("status") != "ok":
            self.fail(task, SIMULATION_ERROR,
                      "warm-up simulation failed for this point's "
                      "equivalence class", summary.get("traceback"))
            return []
        if self.cache is None:          # --no-cache: a throwaway cache
            self.temp_dir = tempfile.mkdtemp(prefix="repro-warmup-")
            self.cache = ResultCache(self.temp_dir)
        path = str(self.cache.put_snap(task.digest, summary["snap"]))
        for member in task.members:
            member.snap_path = path
        self.simulated += 1
        self._settle(task, "simulated")
        return task.members

    def fail(self, task: _WarmupTask, kind: str, message: str,
             traceback: Optional[str] = None,
             quarantined: bool = False) -> None:
        """Fail every member of a class whose warm-up cannot land."""
        self._settle(task, "failed")
        for member in task.members:
            self.finish_failed(member, SweepPointFailure(
                kind, message, traceback=traceback,
                attempts=member.attempt + 1), quarantined=quarantined)

    def _settle(self, task: _WarmupTask, source: str) -> None:
        self.info[task.digest]["source"] = source
        self.unsettled -= 1
        if not self.unsettled:
            self._settled()

    def _settled(self) -> None:
        if self.info and self.progress is not None:
            self.progress(f"[sweep] warm-up: {len(self.info)} equivalence "
                          f"class(es) — {self.simulated} simulated, "
                          f"{self.cached} cached")
        if self.report is not None:
            self.report["classes"] = list(self.info.values())
            self.report["simulated"] = self.simulated
            self.report["cached"] = self.cached

    def cleanup(self) -> None:
        if self.temp_dir is not None:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def run_sweep_parallel(spec: SweepSpec, jobs: Optional[int] = None,
                       cache: Optional[ResultCache] = None,
                       point_timeout_s: Optional[float] = None,
                       progress: Optional[Callable[[str], None]] = None,
                       retries: int = 0,
                       retry_backoff_s: float = 0.5,
                       journal: Optional[SweepJournal] = None,
                       heartbeat_timeout_s: Optional[float]
                       = DEFAULT_HEARTBEAT_TIMEOUT_S,
                       requeue_failed: bool = False,
                       warmup_share: bool = True,
                       warmup_report: Optional[Dict] = None,
                       cancel: Optional[threading.Event] = None,
                       ) -> List[PointResult]:
    """Run a sweep grid over a supervised worker pool.

    Completed points are served, in priority order, from the sweep
    ``journal`` (a resumed run), then the result ``cache``, and only
    then simulated.

    Args:
        spec: The validated sweep description.
        jobs: Worker processes (default: ``os.cpu_count()``); ``1`` runs
            in-process with identical result semantics (but no
            crash/hang/timeout protection).
        cache: Optional :class:`ResultCache`; hits skip simulation, and
            fresh ``ok`` results are stored back.
        point_timeout_s: Per-point wall-clock budget, measured from
            *worker pickup*; the worker of an exceeded point is
            hard-killed and the point fails with kind ``timeout``.
        progress: Callback for human-readable progress lines.
        retries: Re-run a transiently-failed point (worker crash,
            timeout) up to this many extra times; a point that exhausts
            the budget is quarantined.
        retry_backoff_s: Base of the exponential retry backoff.
        journal: Open :class:`SweepJournal`; every state transition is
            appended (write-ahead), and points already terminal in the
            journal are served from it without re-simulation.
        heartbeat_timeout_s: Kill a worker silent for this long
            (presumed hung); None disables hang detection.
        requeue_failed: Re-run points the journal recorded as
            terminally failed or quarantined (default: leave them
            failed).
        warmup_share: When the spec enables warm-up
            (``warmup_cycles``), simulate each warm-up equivalence
            class once, as a pool task dispatched before any point, and
            hand every member the ``.snap`` to restore from; False makes
            each worker re-run its own warm-up (same results, no
            sharing).
        warmup_report: Optional dict the warm-up-sharing phase fills
            with ``classes``/``simulated``/``cached`` provenance for
            diagnostics.
        cancel: Event checked between dispatches; once set, the sweep
            journals in-flight points as interrupted, terminates every
            worker and raises :class:`SweepInterrupted` with the
            partial results.

    Returns:
        One :class:`PointResult` per grid point, in grid order.

    Raises:
        SweepInterrupted: The sweep was cancelled (``cancel`` set, or
            ``KeyboardInterrupt``); ``.results`` holds one row per
            point with unfinished ones marked ``interrupted``.
    """
    points = expand_grid(spec)
    total = len(points)
    results: List[Optional[PointResult]] = [None] * total
    tally = SweepTally()
    walls: List[float] = []
    if jobs is None:
        jobs = getattr(spec, "jobs", None)
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    if cancel is None:
        cancel = threading.Event()
    journal_state = journal.state if journal is not None else None
    if journal_state is not None and \
            journal_state.version != repro_version():
        # results recorded by another simulator version are not
        # bit-identity-trustworthy; re-run everything unfinished
        journal_state = None

    def settle(index: int, result: PointResult) -> None:
        results[index] = result
        tally.add(result)

    def emit() -> None:
        if progress is None:
            return
        remaining = total - tally.done
        if remaining and walls:
            lanes = max(1, min(jobs, remaining))
            eta = f"{sum(walls) / len(walls) * remaining / lanes:.1f}s"
        else:
            eta = "0s" if not remaining else "?"
        segments = [f"{tally.rows['cache']} cached",
                    f"{tally.failed} failed"]
        if tally.ok["warmup-restored"]:
            segments.append(f"{tally.ok['warmup-restored']} warm-restored")
        progress(f"[sweep] {tally.done}/{total} done "
                 f"({', '.join(segments)}), ETA {eta}")

    def finish_ok(task: _Task, summary: Dict,
                  wall: Optional[float] = None) -> None:
        point = task.point
        source = "warmup-restored" if summary.pop(_RESTORED, False) \
            else "simulated"
        result = PointResult.from_summary(point, summary, source, task.key)
        result.attempts = task.attempt + 1
        if result.status == "ok":
            if wall is not None:
                walls.append(wall)
            if journal is not None:
                journal.record_ok(point.index, task.attempt, summary,
                                  wall=wall, warmup=point.warmup_key())
            if cache is not None and task.key is not None:
                cache.put(task.key, summary,
                          provenance=point.provenance())
        elif journal is not None:  # a "failed" summary from the worker
            journal.record_failed(
                point.index, task.attempt, SIMULATION_ERROR,
                result.failure.message,
                traceback=result.failure.traceback, final=True)
        settle(point.index, result)
        emit()

    def finish_failed(task: _Task, failure: SweepPointFailure,
                      quarantined: bool = False) -> None:
        point = task.point
        if journal is not None:
            journal.record_failed(point.index, task.attempt, failure.kind,
                                  failure.message,
                                  traceback=failure.traceback, final=True)
            if quarantined:
                journal.record_quarantined(point.index, failure.attempts)
        settle(point.index, PointResult.failed(
            point, failure, task.key, quarantined=quarantined))
        emit()

    def serve_journal(point: SweepPoint, key: Optional[str]) -> bool:
        """Fill a row from the journal's terminal record, if any."""
        if journal_state is None:
            return False
        if point.index in journal_state.ok:
            record = journal_state.ok[point.index]
            result = PointResult.from_summary(point, record["summary"],
                                              "journal", key)
            result.attempts = record.get("attempt", 0) + 1
            settle(point.index, result)
            return True
        if requeue_failed:
            return False
        if point.index in journal_state.failed:
            record = journal_state.failed[point.index]
            result = PointResult.failed(
                point,
                SweepPointFailure(
                    record.get("kind", SIMULATION_ERROR),
                    record.get("message", "failed in an earlier run"),
                    traceback=record.get("traceback"),
                    attempts=record.get("attempt", 0) + 1),
                key, quarantined=point.index in journal_state.quarantined)
            result.source = "journal"
            settle(point.index, result)
            return True
        return False

    def interrupt() -> None:
        """Mark every unfinished point interrupted and carry results out."""
        for task in pending:
            if results[task.index] is None:
                results[task.index] = PointResult.failed(
                    task.point, SweepPointFailure(
                        INTERRUPTED,
                        "sweep interrupted before the point finished",
                        attempts=task.attempt + 1), task.key)
        journal_dir = str(journal.path.parent) if journal is not None \
            else None
        raise SweepInterrupted([r for r in results if r is not None],
                               journal_dir=journal_dir)

    pending: List[_Task] = []
    for point in points:
        key = point.cache_key() if cache is not None else None
        if serve_journal(point, key):
            continue
        summary = cache.get(key) if cache is not None else None
        if summary is not None:
            settle(point.index,
                   PointResult.from_summary(point, summary, "cache", key))
            # guard on the live journal state (not the version-nulled
            # journal_state) so a resume under a new repro version does
            # not re-append a duplicate cache record every run
            if journal is not None and point.index not in journal.state.ok:
                journal.record_ok(point.index, 0, summary, source="cache")
            continue
        # attempts consumed by earlier runs count against the retry
        # budget; a resume must not hand every point a fresh one
        prior_attempts = journal_state.attempts.get(point.index, 0) \
            if journal_state is not None else 0
        pending.append(_Task(point, key, attempt=prior_attempts))
    emit()

    if not pending:
        return results            # every point served without simulating

    warmups = _WarmupClasses(pending, cache, warmup_share, progress,
                             warmup_report, finish_failed)
    try:
        if jobs == 1:
            _run_in_process(warmups, journal, cancel, finish_ok, interrupt)
        else:
            _run_pool(warmups, jobs=min(jobs, len(pending)),
                      unfinished=lambda: total - tally.done,
                      journal=journal, cancel=cancel,
                      point_timeout_s=point_timeout_s,
                      heartbeat_timeout_s=heartbeat_timeout_s,
                      retries=retries, retry_backoff_s=retry_backoff_s,
                      finish_ok=finish_ok, finish_failed=finish_failed,
                      interrupt=interrupt)
        return results
    finally:
        warmups.cleanup()


def _run_in_process(warmups: _WarmupClasses,
                    journal: Optional[SweepJournal],
                    cancel: threading.Event, finish_ok, interrupt) -> None:
    """``jobs=1``: the pool's steps in-process (and with no crash/hang
    protection) — class by class, its warm-up, then its members."""
    class_programs: Dict = {}
    for warmup, members in warmups.groups:
        if warmup is not None:
            if cancel.is_set():
                interrupt()
            try:
                summary = _execute_task(warmup.payload(), class_programs)
            except KeyboardInterrupt:
                interrupt()
            members = warmups.finish(warmup, summary)
        for task in members:
            if cancel.is_set():
                interrupt()
            if journal is not None:
                journal.record_started(task.index, task.attempt,
                                       key=task.key)
            start = time.perf_counter()
            try:
                summary = _execute_task(task.payload(), class_programs)
            except KeyboardInterrupt:
                if journal is not None:
                    journal.record_interrupted(task.index, task.attempt)
                interrupt()
            finish_ok(task, summary, wall=time.perf_counter() - start)


def _run_pool(warmups: _WarmupClasses, jobs: int,
              unfinished: Callable[[], int],
              journal: Optional[SweepJournal], cancel: threading.Event,
              point_timeout_s: Optional[float],
              heartbeat_timeout_s: Optional[float], retries: int,
              retry_backoff_s: float, finish_ok, finish_failed,
              interrupt) -> None:
    """Fan the pending tasks over a supervised worker pool.

    Class warm-ups go first; a class's members wait until its snapshot
    lands, then queue together.  A warm-up task is supervised like a
    point — timeout from pickup, heartbeat, crash isolation, retries —
    and a warm-up that cannot land fails its members with the warm-up's
    failure kind.  ``unfinished`` counts the grid points without a row
    yet, held members included: the pool is sized for them, never for
    the warm-up tasks alone.
    """
    tasks: Dict[int, Union[_Task, _WarmupTask]] = {}
    ready: deque = deque()
    for warmup in warmups.tasks:
        tasks[warmup.index] = warmup
        ready.append(warmup.index)
    for warmup, members in warmups.groups:
        for task in members:
            tasks[task.index] = task
            if warmup is None:
                ready.append(task.index)
    deferred: List[int] = []       # waiting out a retry backoff
    in_flight: Dict[int, Union[_Task, _WarmupTask]] = {}
    supervisor = WorkerSupervisor(
        min(jobs, unfinished()), heartbeat_timeout_s=heartbeat_timeout_s)
    interrupted = False
    try:
        while unfinished() > 0:
            if cancel.is_set():
                interrupted = True
                break
            # the pool tracks the outstanding work: a long sweep's last
            # few points (or a mostly-cached resume) must not keep a
            # full complement of idle workers alive
            supervisor.resize(min(jobs, unfinished()))
            now = time.monotonic()
            for index in list(deferred):
                if tasks[index].eligible_at <= now:
                    deferred.remove(index)
                    ready.append(index)
            while ready and supervisor.idle_count > 0:
                index = ready.popleft()
                task = tasks[index]
                task.picked_up = None
                in_flight[index] = task
                supervisor.dispatch(index, task.payload())
            events = supervisor.poll(timeout=0.05,
                                     point_timeout_s=point_timeout_s)
            for event in events:
                task = in_flight.get(event.index)
                if task is None:
                    continue
                point = isinstance(task, _Task)   # else a class warm-up
                if event.kind == "started":
                    task.picked_up = time.monotonic()
                    if journal is not None and point:
                        journal.record_started(event.index, task.attempt,
                                               key=task.key)
                    continue
                del in_flight[event.index]
                if event.kind == "result":
                    if point:
                        wall = None if task.picked_up is None \
                            else time.monotonic() - task.picked_up
                        finish_ok(task, event.summary, wall=wall)
                    else:
                        ready.extend(member.index for member in
                                     warmups.finish(task, event.summary))
                    continue
                # "crashed" / "timeout" — transient machinery failures
                kind = TIMEOUT if event.kind == "timeout" else WORKER_CRASH
                if task.attempt < retries:
                    if journal is not None and point:
                        journal.record_failed(event.index, task.attempt,
                                              kind, event.detail,
                                              final=False)
                    delay = _retry_delay(task.attempt, retry_backoff_s,
                                         event.index)
                    task.attempt += 1
                    task.eligible_at = time.monotonic() + delay
                    deferred.append(event.index)
                elif point:
                    finish_failed(
                        task,
                        SweepPointFailure(kind, event.detail,
                                          attempts=task.attempt + 1),
                        quarantined=True)
                else:
                    warmups.fail(
                        task, kind,
                        f"warm-up task for this point's equivalence class "
                        f"failed after {task.attempt + 1} attempt(s): "
                        f"{event.detail}", quarantined=True)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if interrupted and journal is not None:
            for index, task in sorted(in_flight.items()):
                if isinstance(task, _Task):   # warm-ups are not journalled
                    journal.record_interrupted(index, task.attempt)
        supervisor.shutdown(graceful=not interrupted)
    if interrupted:
        interrupt()
