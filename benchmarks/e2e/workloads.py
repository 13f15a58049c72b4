"""The four workloads of the end-to-end benchmark.

Each workload is a closed loop: one client issues simulations back to
back through the public API of ``repro``, and only the sweep's worker
pool runs anything concurrently.  A *pass* is one repetition of the
workload's work; :meth:`run_pass` times every call as a span and hands
every operation's simulated statistics to :class:`Ops` for checking.

Sizes are fixed here so that every commit does the same work:

* ``table2_contention`` - MP matrix 8P and DES 6P on AHB, the paper's
  contention and polling rows: a saturated bus and reactive TGs that
  regenerate semaphore and mailbox polling.
* ``table2_compute`` - Cacheloop 4P and SP matrix 1P on AHB: reference
  cost is mostly the ``cpu`` model, the bus is nearly idle and a TG
  replay is mostly platform build.  Fabric or interpreter changes should
  not move it.
* ``synthetic_mesh`` - 8 cores of hotspot traffic on the xpipes NoC:
  many tiny flit-level events, no cores and no translation.
* ``sweep_fabrics`` - a warm-up-shared synthetic sweep over four fabrics
  and two loads with two workers: worker spawn, IPC, journal fsyncs,
  the result cache, warm-up capture and ``.snap`` restore.

Only the synthetic traffic depends on the seed; the Table-2 apps are
deterministic by construction.  Modelled caches start empty, as in the
paper.
"""

import re
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.apps import cacheloop, des, mp_matrix, sp_matrix
from repro.apps.common import pollable_ranges
from repro.apps.synthetic import TrafficSpec, synthetic_programs
from repro.core import ReplayMode
from repro.core.assembler import assemble_binary, disassemble_binary
from repro.harness import (
    ResultCache,
    SweepJournal,
    SweepSpec,
    build_tg_platform,
    reference_run,
    run_sweep_parallel,
)
from repro.harness.cache import repro_version
from repro.interconnect import AmbaAhbBus, XpipesNoc
from repro.trace import Translator, TranslatorOptions

from benchmarks.e2e.spans import Recorder

#: Table-2 error band the paper reports and the repo's benches assert.
ERROR_BAND = 0.05

#: Worker processes of the sweep workload (the benchmark machine has 2
#: cores; more workers would only queue).
SWEEP_JOBS = 2


class Ops:
    """Counts operations and checks the statistics each one produced.

    An operation is one simulation, translation, generation or sweep
    point.  It fails if it raises, if its result is out of band, or if
    its statistics differ from ``expected`` (the committed goldens) -
    or, with no goldens, from the first time the same operation ran in
    this process.  Event counts never enter the statistics: a change
    that fires fewer events still passes.
    """

    def __init__(self, expected: Optional[Dict[str, Dict]] = None):
        self.expected = expected
        self.first: Dict[str, Dict] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, key: str, stats: Dict, valid: bool = True) -> None:
        self.attempted += 1
        self.first.setdefault(key, stats)
        reference = self.first[key] if self.expected is None \
            else self.expected.get(key)
        if not valid or stats != reference:
            self.failed += 1
            print(f"[e2e] operation {key} failed: got {stats}, "
                  f"expected {reference}", file=sys.stderr)

    def raised(self) -> None:
        self.attempted += 1
        self.failed += 1


class PassResult(NamedTuple):
    """What one pass measured besides its spans."""

    #: deterministic counts (identical on every pass)
    counters: Dict[str, float]
    #: per-pass timings that are not spans, in seconds or ratios
    timings: Dict[str, float]
    #: per-app Table-2 error and event gain
    apps: Dict[str, Dict[str, float]]
    #: simulated cycles (summed over masters) of every TG replay, and
    #: the host seconds those replays took (the sweep: its wall time)
    tg_cycles: int
    tg_seconds: float


def _tg_stats(platform) -> Dict:
    """Simulated statistics of a finished TG platform."""
    masters = platform.masters
    return {
        "tg_cycles": platform.cumulative_execution_time,
        "ocp_transactions": sum(m.ocp_transactions for m in masters),
        "ocp_beats": sum(m.ocp_beats for m in masters),
        "ocp_latency_cycles": sum(m.ocp_latency_cycles for m in masters),
        "ocp_latency_max": max(m.ocp_latency_max for m in masters),
        "fabric_transactions": platform.fabric.stats.transactions,
        "fabric_beats": platform.fabric.stats.beats_transferred,
    }


def _platform_counters(counters: Dict[str, float], platform,
                       stats: Dict) -> None:
    """Add one TG platform's kernel, OCP and fabric counts (``stats`` is
    its :func:`_tg_stats`)."""
    sim = platform.sim
    counters["kernel.events"] += sim.events_fired
    counters["kernel.events_cancelled"] += sim.events_cancelled
    counters["kernel.peak_heap_size"] = max(
        counters["kernel.peak_heap_size"], sim.peak_heap_size)
    counters["sim.tg_cycles"] += stats["tg_cycles"]
    counters["ocp.transactions"] += stats["ocp_transactions"]
    counters["ocp.beats"] += stats["ocp_beats"]
    counters["ocp.latency_cycles"] += stats["ocp_latency_cycles"]
    counters["ocp.latency_max"] = max(counters["ocp.latency_max"],
                                      stats["ocp_latency_max"])
    counters["fabric.transactions"] += stats["fabric_transactions"]
    counters["fabric.beats"] += stats["fabric_beats"]
    if isinstance(platform.fabric, AmbaAhbBus):
        counters["fabric.ahb_busy_cycles"] += platform.fabric.busy_cycles
        counters["fabric.ahb_cycles"] += sim.now
    if isinstance(platform.fabric, XpipesNoc):
        counters["fabric.xpipes_flits"] += platform.fabric.total_flits_routed


def _replay(rec: Recorder, programs, n_cores: int, interconnect: str,
            label: str):
    """One TG replay: build the all-TG platform and run it."""
    with rec.span("tg_replay", app=label):
        with rec.span("tg_build"):
            platform = build_tg_platform(programs, n_cores, interconnect)
        with rec.span("tg_sim"):
            platform.run()
    return platform, rec.last_duration()


class AppCase(NamedTuple):
    label: str
    app: object
    n_cores: int
    params: Dict
    replays: int


class Table2Workload:
    """Trace, translate, re-run and replay Table-2 apps on AHB."""

    interconnect = "ahb"

    def __init__(self, cases: List[AppCase]):
        self.cases = cases

    def build(self, seed: int, workdir: Path) -> None:
        """Nothing to build: the apps are fixed and seed-independent."""

    def _translate(self, rec: Recorder, collectors, n_cores: int,
                   counters: Dict[str, float]):
        """trace -> .tgp -> .bin -> .tgp, as the reference flow does."""
        translator = Translator(TranslatorOptions(
            mode=ReplayMode.REACTIVE,
            pollable_ranges=pollable_ranges(n_cores)))
        programs = {}
        for master_id, collector in collectors.items():
            with rec.span("translate_events"):
                program = translator.translate_events(collector.events,
                                                      master_id)
            with rec.span("assemble"):
                image = assemble_binary(program)
            with rec.span("disassemble"):
                programs[master_id] = disassemble_binary(image)
            counters["trace.clamped_gaps"] += translator.stats.clamped_gaps
            counters["core.program_instructions"] += len(program)
        return programs

    def run_pass(self, rec: Recorder, ops: Ops,
                 detail: bool = False) -> PassResult:
        counters: Dict[str, float] = defaultdict(int)
        apps: Dict[str, Dict[str, float]] = {}
        tg_cycles = 0
        tg_seconds = 0.0
        for case in self.cases:
            label, n_cores = case.label, case.n_cores
            with rec.span("traced_run", app=label):
                traced, collectors, _ = reference_run(
                    case.app, n_cores, self.interconnect,
                    app_params=case.params)
            ref_cycles = traced.cumulative_execution_time
            ops.record(f"{label}.traced_run", {"ref_cycles": ref_cycles})
            counters["trace.events"] += sum(map(len, collectors.values()))
            if detail:
                counters["trace.bytes"] += sum(
                    len(c.to_trc().encode()) for c in collectors.values())

            with rec.span("translate", app=label):
                programs = self._translate(rec, collectors, n_cores,
                                           counters)
            ops.record(f"{label}.translate", {})

            with rec.span("ref_run", app=label):
                plain, _, _ = reference_run(case.app, n_cores,
                                            self.interconnect,
                                            app_params=case.params,
                                            collect=False)
            ops.record(f"{label}.ref_run",
                       {"ref_cycles": plain.cumulative_execution_time})
            counters["kernel.events_ref"] += plain.sim.events_fired
            counters["sim.ref_cycles"] += ref_cycles

            for replay in range(case.replays):
                platform, wall = _replay(rec, programs, n_cores,
                                         self.interconnect, label)
                stats = _tg_stats(platform)
                stats["error"] = abs(stats["tg_cycles"] - ref_cycles) \
                    / ref_cycles
                ops.record(f"{label}.tg_replay", stats,
                           valid=stats["error"] < ERROR_BAND)
                tg_seconds += wall
                tg_cycles += stats["tg_cycles"]
                if replay == 0:
                    _platform_counters(counters, platform, stats)
                    apps[label] = {
                        "error": stats["error"],
                        "event_gain": plain.sim.events_fired
                        / platform.sim.events_fired,
                    }
        return PassResult(dict(counters), {}, apps, tg_cycles, tg_seconds)


class MeshWorkload:
    """Generate hotspot traffic and replay it on the xpipes mesh."""

    interconnect = "xpipes"

    def __init__(self) -> None:
        self.spec: Optional[TrafficSpec] = None

    def build(self, seed: int, workdir: Path) -> None:
        self.spec = TrafficSpec(8, pattern="hotspot", load=0.6,
                                transactions=600, seed=seed)

    def run_pass(self, rec: Recorder, ops: Ops,
                 detail: bool = False) -> PassResult:
        counters: Dict[str, float] = defaultdict(int)
        with rec.span("generate"):
            programs, _ = synthetic_programs(self.spec)
        ops.record("generate", {})
        counters["core.program_instructions"] += sum(
            map(len, programs.values()))
        platform, wall = _replay(rec, programs, self.spec.n_cores,
                                 self.interconnect, "mesh")
        stats = _tg_stats(platform)
        stats["xpipes_flits"] = platform.fabric.total_flits_routed
        ops.record("tg_replay", stats)
        _platform_counters(counters, platform, stats)
        return PassResult(dict(counters), {}, {}, stats["tg_cycles"], wall)


#: ``[sweep] k/N done`` progress lines
_DONE_LINE = re.compile(r"\] (\d+)/\d+ done")


def _points_done(line: str) -> int:
    match = _DONE_LINE.search(line)
    return int(match.group(1)) if match else 0

#: Sweep-table columns of a synthetic row, minus the wall-time columns.
_ROW_FIELDS = ("interconnect", "pattern", "offered_load", "scheduled_load",
               "realised_load", "tg_cycles", "issued", "words",
               "latency_avg", "latency_max", "throughput_wpkc")


def _row_stats(row) -> Dict:
    return {name: getattr(row, name) for name in _ROW_FIELDS}


class SweepWorkload:
    """A cold, warm-up-shared synthetic sweep, then a cache-served re-run."""

    def __init__(self) -> None:
        self.spec: Optional[SweepSpec] = None
        self.workdir: Optional[Path] = None

    def build(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.spec = SweepSpec(
            "synthetic", [4], interconnects=["ahb", "stbus", "tlm", "xpipes"],
            traffic={"pattern": "uniform", "transactions": 2500,
                     "seed": seed},
            loads=[0.3, 0.6], warmup_cycles=20000, warmup_fabric="tlm")

    def run_pass(self, rec: Recorder, ops: Ops,
                 detail: bool = False) -> PassResult:
        spec = self.spec
        self.workdir.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=self.workdir))
        marks = []
        report: Dict = {}
        try:
            cache = ResultCache(scratch / "cache")
            with rec.span("sweep"):
                journal = SweepJournal.create(scratch / "journal",
                                              spec.to_dict(), spec.points,
                                              repro_version())
                try:
                    rows = run_sweep_parallel(
                        spec, jobs=SWEEP_JOBS, cache=cache, journal=journal,
                        progress=lambda line: marks.append(
                            (time.perf_counter(), line)),
                        warmup_report=report)
                finally:
                    journal.close()
            start, sweep_s = rec.spans[-1].start, rec.last_duration()
            with rec.span("cache_rerun"):
                rerun = run_sweep_parallel(spec, jobs=SWEEP_JOBS,
                                           cache=cache)
            cache_hit_s = rec.last_duration()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

        ops.record("warmup", {"classes": len(report["classes"]),
                              "simulated": report["simulated"]})
        for index, row in enumerate(rows):
            ops.record(f"point{index}", _row_stats(row),
                       valid=row.status == "ok" and row.warm_restored)
        ops.record("cache_rerun", {
            "cached": sum(row.cached for row in rerun),
            "rows_match": [_row_stats(r) for r in rerun]
            == [_row_stats(r) for r in rows]})

        warmup_at = next(t for t, line in marks if "warm-up:" in line)
        first_at = next(t for t, line in marks if _points_done(line) > 0)
        rec.add("warmup_phase", start, warmup_at)
        walls = [journal.state.ok[i]["wall"] for i in range(len(rows))]
        timings = {
            "sweep.warmup_phase_s": warmup_at - start,
            "sweep.first_result_s": first_at - start,
            "sweep.point_wall_s": statistics.median(walls),
            "sweep.useful_share": sum(walls) / (SWEEP_JOBS * sweep_s),
            "harness.cache_hit_s": cache_hit_s,
        }
        counters = {
            "sweep.points": len(rows),
            "sweep.simulated": sum(not row.cached for row in rows),
            "sweep.warmup_classes": len(report["classes"]),
            "sweep.warmup_simulated": report["simulated"],
            "kernel.events": sum(row.tg_events for row in rows),
            "sim.tg_cycles": sum(row.tg_cycles for row in rows),
            "ocp.transactions": sum(row.issued for row in rows),
            "ocp.beats": sum(row.words for row in rows),
            "ocp.latency_cycles": sum(row.latency_avg * row.issued
                                      for row in rows),
            "ocp.latency_max": max(row.latency_max for row in rows),
        }
        # throughput as a sweep user sees it: over the sweep's wall time
        return PassResult(counters, timings, {}, counters["sim.tg_cycles"],
                          sweep_s)


def make(name: str) -> object:
    """A fresh, un-built workload by name."""
    if name == "table2_contention":
        return Table2Workload([
            AppCase("mp_matrix", mp_matrix, 8, {"n": 8}, 2),
            AppCase("des", des, 6, {"blocks": 4}, 2)])
    if name == "table2_compute":
        return Table2Workload([
            AppCase("cacheloop", cacheloop, 4, {"iters": 1500}, 20),
            AppCase("sp_matrix", sp_matrix, 1, {"n": 16}, 20)])
    if name == "synthetic_mesh":
        return MeshWorkload()
    if name == "sweep_fabrics":
        return SweepWorkload()
    raise KeyError(name)


#: Workload names in run order.
WORKLOADS = ("table2_contention", "table2_compute", "synthetic_mesh",
             "sweep_fabrics")

#: Apps whose Table-2 figures are reported per app.
APPS = ("mp_matrix", "des", "cacheloop", "sp_matrix")
