"""The end-to-end TG experiment flow, and the one way to run a TG platform."""

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.apps.common import pollable_ranges
from repro.core import ReplayMode, TGMaster, TGProgram
from repro.core.assembler import assemble_binary, disassemble_binary
from repro.faults import FaultSpec, RetryPolicy
from repro.platform import MparmPlatform, PlatformConfig
from repro.trace import TraceCollector, Translator, TranslatorOptions, collect_traces


@dataclass(frozen=True)
class RunOptions:
    """How one TG platform runs, beyond the workload and the fabric.

    ``fault_spec``/``fault_seed`` degrade the platform, and
    ``retry_policy``/``watchdog_cycles``/``progress_window`` arm the TGs'
    and the kernel's resilience features (docs/FAULTS.md).
    ``checkpoint_every`` (cycles) writes crash-durable ``.snap``
    checkpoints into ``checkpoint_dir``, keeping the newest
    ``checkpoint_keep`` (default 3).  ``warmup_cycles`` fast-forwards the
    run through a warm-up simulated on ``warmup_fabric`` and restored
    onto the target fabric (docs/CHECKPOINT.md).  The default is a
    plain run.
    """

    fault_spec: Union[None, dict, FaultSpec] = None
    fault_seed: int = 0
    retry_policy: Optional[RetryPolicy] = None
    watchdog_cycles: Optional[int] = None
    progress_window: Optional[int] = None
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Union[None, str, os.PathLike] = None
    checkpoint_keep: Optional[int] = None
    warmup_cycles: Optional[int] = None
    warmup_fabric: str = "tlm"

    def __post_init__(self) -> None:
        if self.warmup_cycles is not None:
            self.refuse_checkpointing()
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")

    def refuse_checkpointing(self) -> None:
        """Reject auto-checkpointing of a fast-forwarded run."""
        if self.checkpoint_every is not None:
            raise ValueError("warmup_cycles cannot be combined with "
                             "checkpoint_every (a fast-forwarded run "
                             "starts past the early checkpoint boundaries)")


class RunResult:
    """What one TG run produced, whichever flow or sweep ran it.

    Identity (``benchmark``/``n_cores``/``interconnect``/``mode``), the
    ``status`` (``"ok"`` or ``"failed"``, with a typed ``failure``), the
    reference and TG cycles, wall times and kernel events, and — on
    fast-forwarded runs — the quiescent ``warmup_cycle`` the warm-up
    snapshot was captured at and the ``warmup_fabric`` it ran on.  Runs
    without a reference (synthetic traffic) keep ``ref_*`` at zero,
    which makes every derived column zero too.
    """

    #: The keys of :meth:`summary`, in order.
    SUMMARY_KEYS: Tuple[str, ...] = (
        "benchmark", "n_cores", "interconnect", "mode", "ref_cycles",
        "tg_cycles", "ref_wall", "tg_wall", "ref_events", "tg_events")

    def __init__(self, benchmark: str = "", n_cores: int = 0,
                 interconnect: str = "",
                 mode: ReplayMode = ReplayMode.REACTIVE) -> None:
        self.benchmark = benchmark
        self.n_cores = n_cores
        self.interconnect = interconnect
        self.mode = mode
        self.status = "ok"
        self.failure = None
        self.ref_cycles = 0               # cumulative execution time, cores
        self.tg_cycles = 0                # cumulative execution time, TGs
        self.ref_wall = 0.0               # seconds
        self.tg_wall = 0.0
        self.ref_events = 0               # simulator effort proxies
        self.tg_events = 0
        self.warmup_cycle: Optional[int] = None
        self.warmup_fabric: Optional[str] = None
        self.tg_platform: Optional[MparmPlatform] = None  # in-process runs

    def record_tg(self, platform: MparmPlatform, wall: float,
                  warmup: Optional[dict] = None) -> None:
        """Take the TG numbers of a finished :func:`run_tg`."""
        self.tg_platform = platform
        self.tg_wall = wall
        self.tg_events = platform.sim.events_fired
        self.tg_cycles = platform.cumulative_execution_time
        if warmup is not None:
            self.warmup_cycle = warmup["cycle"]
            self.warmup_fabric = warmup["platform"]["interconnect"]

    def summary(self) -> Dict[str, object]:
        """Picklable scalar view: :attr:`SUMMARY_KEYS` plus warm-up keys.

        This is what sweep workers ship back to the parent process and
        what the on-disk result cache stores — no platforms or programs.
        The warm-up keys appear only on fast-forwarded runs, so cold-run
        summaries are byte-identical to what older versions produced.
        """
        data = {key: getattr(self, key) for key in self.SUMMARY_KEYS}
        data["mode"] = self.mode.value
        if self.warmup_cycle is not None:
            data["warmup_cycle"] = self.warmup_cycle
            data["warmup_fabric"] = self.warmup_fabric
        return data

    @property
    def error(self) -> float:
        """Relative cycle error, Table 2's "Error" column."""
        if self.ref_cycles == 0:
            return 0.0
        return abs(self.tg_cycles - self.ref_cycles) / self.ref_cycles

    @property
    def gain(self) -> float:
        """Wall-clock speedup, Table 2's "Gain" column."""
        return self.ref_wall / self.tg_wall if self.tg_wall > 0 else 0.0

    @property
    def event_gain(self) -> float:
        """Speedup in simulator events — a wall-clock-noise-free proxy."""
        return self.ref_events / self.tg_events if self.tg_events else 0.0


class TGFlowResult(RunResult):
    """Everything one benchmark configuration produced."""

    def __init__(self, *identity) -> None:
        super().__init__(*identity)
        self.programs: Dict[int, TGProgram] = {}
        self.traces: Dict[int, TraceCollector] = {}
        self.ref_platform: Optional[MparmPlatform] = None

    def __repr__(self) -> str:
        return (f"<TGFlowResult {self.benchmark} {self.n_cores}P "
                f"{self.interconnect} err={self.error:.2%} "
                f"gain={self.gain:.2f}x>")


def _build_config(n_cores: int, interconnect: str,
                  config_overrides: Optional[dict]) -> PlatformConfig:
    overrides = dict(config_overrides or {})
    return PlatformConfig(n_masters=n_cores, interconnect=interconnect,
                          **overrides)


def reference_run(app, n_cores: int, interconnect: str = "ahb",
                  app_params: Optional[dict] = None,
                  config_overrides: Optional[dict] = None,
                  collect: bool = True,
                  ) -> Tuple[MparmPlatform, Dict[int, TraceCollector], float]:
    """Run the bit-/cycle-true reference simulation.

    Returns ``(platform, collectors, wall_seconds)``; ``collectors`` is
    empty when ``collect`` is False (used to measure tracing overhead).
    """
    params = dict(app_params or {})
    platform = MparmPlatform(_build_config(n_cores, interconnect,
                                           config_overrides))
    for core_id in range(n_cores):
        platform.add_core(app.source(core_id, n_cores, **params))
    collectors = collect_traces(platform) if collect else {}
    start = time.perf_counter()
    platform.run()
    wall = time.perf_counter() - start
    return platform, collectors, wall


def translate_traces(collectors: Dict[int, TraceCollector], n_cores: int,
                     mode: ReplayMode = ReplayMode.REACTIVE,
                     ) -> Dict[int, TGProgram]:
    """Translate every master's trace into a TG program.

    The programs are additionally pushed through the ``.bin``
    assemble/disassemble cycle, mirroring the real flow (the TG executes
    the binary image, not the symbolic program).
    """
    options = TranslatorOptions(mode=mode,
                                pollable_ranges=pollable_ranges(n_cores))
    translator = Translator(options)
    programs: Dict[int, TGProgram] = {}
    for master_id, collector in collectors.items():
        program = translator.translate_events(collector.events, master_id)
        programs[master_id] = disassemble_binary(assemble_binary(program))
    return programs


def build_tg_platform(programs: Dict[int, TGProgram], n_cores: int,
                      interconnect: str = "ahb",
                      config_overrides: Optional[dict] = None,
                      retry_policy: Optional[RetryPolicy] = None,
                      watchdog_cycles: Optional[int] = None,
                      ) -> MparmPlatform:
    """Build a platform with TGs occupying every master socket.

    ``retry_policy``/``watchdog_cycles`` arm each TG's resilience features;
    a fault spec travels inside ``config_overrides`` (``fault_spec`` /
    ``fault_seed`` keys of :class:`PlatformConfig`).
    """
    platform = MparmPlatform(_build_config(n_cores, interconnect,
                                           config_overrides))
    for master_id in range(n_cores):
        tg = TGMaster(platform.sim, f"tg{master_id}", programs[master_id],
                      retry_policy=retry_policy,
                      watchdog_cycles=watchdog_cycles)
        platform.add_master(tg)
    return platform


def build_testchip_platform(programs: Dict[int, TGProgram], n_cores: int,
                            interconnect: str = "ahb",
                            config_overrides: Optional[dict] = None,
                            ) -> MparmPlatform:
    """Build the all-TG configuration of paper Figure 1(b).

    Master TGs in every socket *and* TG entities for the memories: the
    shared memory becomes a :class:`~repro.core.TGSharedMemorySlave` (a
    real data structure, because the values masters read back matter) and
    each private memory a :class:`~repro.core.TGDummySlave` (master TGs
    never interpret refill data, so dummy values suffice — the paper's
    argument for the simple slave TG).  The synchronisation devices stay,
    since their state *is* the reactive behaviour.  This is the
    configuration a silicon NoC test chip would carry.
    """
    from repro.core import TGDummySlave, TGSharedMemorySlave

    platform = MparmPlatform(_build_config(n_cores, interconnect,
                                           config_overrides))
    config = platform.config
    # swap the RAM models behind the already-mapped slave ports
    for core_id, mem in enumerate(platform.private_mems):
        dummy = TGDummySlave(platform.sim, f"tg_{mem.name}", mem.base,
                             mem.size_bytes, config.private_timings,
                             core_id=core_id)
        platform.address_map.find(mem.base).slave_port.slave = dummy
    shared_tg = TGSharedMemorySlave(
        platform.sim, "tg_shared", platform.shared_mem.base,
        platform.shared_mem.size_bytes, config.shared_timings)
    platform.address_map.find(shared_tg.base).slave_port.slave = shared_tg
    platform.shared_mem = shared_tg
    for master_id in range(n_cores):
        tg = TGMaster(platform.sim, f"tg{master_id}", programs[master_id])
        platform.add_master(tg)
    return platform


def run_tg(programs: Dict[int, TGProgram], n_cores: int,
           interconnect: str = "ahb",
           config_overrides: Optional[dict] = None,
           options: RunOptions = RunOptions(),
           warmup_payload: Optional[dict] = None,
           ) -> Tuple[MparmPlatform, float, Optional[dict]]:
    """Run TG ``programs`` on ``interconnect`` to completion.

    The one run path of every flow: a plain run, an auto-checkpointed
    run, or a fast-forward through a warm-up — simulated here, or
    handed in as ``warmup_payload`` (the warm-up-shared sweep path).  A
    warm-up snapshot is always checked against the recipe of
    ``programs`` before it is restored, so a stale or foreign snapshot
    is a typed error, never a wrong result.

    The wall clock starts after the platform is built, or after the
    warm-up is captured: shared warm-ups run once in the sweep driver,
    so per-point wall times stay comparable between shared and cold
    execution.  Returns ``(platform, tg_wall, warmup payload or None)``.
    """
    overrides = dict(config_overrides or {})
    if options.fault_spec is not None:
        overrides["fault_spec"] = options.fault_spec
        overrides["fault_seed"] = options.fault_seed
    resilience = {"retry_policy": options.retry_policy,
                  "watchdog_cycles": options.watchdog_cycles}
    if warmup_payload is not None or options.warmup_cycles is not None:
        from repro.harness.checkpoint import (
            fast_forward,
            platform_recipe,
            warmup_snapshot,
        )
        options.refuse_checkpointing()
        expected = platform_recipe(programs, n_cores, interconnect,
                                   overrides, **resilience)
        payload = warmup_payload
        if payload is None:
            payload = warmup_snapshot(programs, n_cores,
                                      options.warmup_cycles,
                                      options.warmup_fabric, overrides,
                                      **resilience)
        start = time.perf_counter()
        platform = fast_forward(
            payload, interconnect=interconnect, config_overrides=overrides,
            expected_recipe=expected,
            programs=programs if warmup_payload is not None else None)
        platform.run(progress_window=options.progress_window)
        return platform, time.perf_counter() - start, payload
    platform = build_tg_platform(programs, n_cores, interconnect, overrides,
                                 **resilience)
    start = time.perf_counter()
    if options.checkpoint_every is None:
        platform.run(progress_window=options.progress_window)
    else:
        from repro.harness.checkpoint import (
            DEFAULT_KEEP,
            CheckpointManager,
            checkpointed_run,
            platform_recipe,
        )
        recipe = platform_recipe(programs, n_cores, interconnect, overrides,
                                 **resilience)
        keep = DEFAULT_KEEP if options.checkpoint_keep is None \
            else options.checkpoint_keep
        checkpointed_run(platform, recipe,
                         CheckpointManager(options.checkpoint_dir, keep=keep),
                         options.checkpoint_every,
                         progress_window=options.progress_window)
    return platform, time.perf_counter() - start, None


def tg_flow(app, n_cores: int, interconnect: str = "ahb",
            tg_interconnect: Optional[str] = None,
            mode: ReplayMode = ReplayMode.REACTIVE,
            app_params: Optional[dict] = None,
            config_overrides: Optional[dict] = None,
            options: RunOptions = RunOptions()) -> TGFlowResult:
    """Full flow: reference run → translate → TG run → compare.

    ``tg_interconnect`` lets the TG simulation run on a *different* fabric
    than the reference (the design-space-exploration use case); accuracy
    is only meaningful when both are the same.

    ``options`` apply to the **TG** run only (see :func:`run_tg`): the
    trace is collected on a healthy reference platform, then replayed
    against a degraded, checkpointed or fast-forwarded one — the paper's
    decoupling, exercised under adverse conditions.
    """
    result = TGFlowResult(getattr(app, "__name__", str(app)).split(".")[-1],
                          n_cores, interconnect, mode)
    platform, collectors, ref_wall = reference_run(
        app, n_cores, interconnect, app_params, config_overrides)
    result.ref_platform = platform
    result.traces = collectors
    result.ref_wall = ref_wall
    result.ref_events = platform.sim.events_fired
    result.ref_cycles = platform.cumulative_execution_time

    result.programs = translate_traces(collectors, n_cores, mode)
    result.record_tg(*run_tg(result.programs, n_cores,
                             tg_interconnect or interconnect,
                             config_overrides, options))
    return result


def resilience_demo(app, n_cores: int = 2, interconnect: str = "ahb",
                    fault_spec: Union[None, dict, FaultSpec] = None,
                    fault_seed: int = 0,
                    retry_policy: Optional[RetryPolicy] = None,
                    watchdog_cycles: Optional[int] = 50_000,
                    app_params: Optional[dict] = None) -> Dict[str, object]:
    """Demonstrate TG resilience: healthy TG run vs. seeded degraded run.

    Collects one trace, replays it twice — once on a healthy platform and
    once under ``fault_spec`` with retrying TGs — and reports the injected
    fault counts, the retry accounting, and the cycle-count degradation.
    A spec of recoverable faults plus a retry policy must complete instead
    of hanging; that completion is the demo.
    """
    if fault_spec is None:
        # default scenario: the shared memory errors every 7th read, the
        # TGs absorb it with three-attempt exponential backoff
        fault_spec = FaultSpec.from_dict(
            {"slave_errors": [{"slave": "shared", "nth": 7}]})
    if retry_policy is None:
        retry_policy = RetryPolicy(max_attempts=4, backoff=2,
                                   backoff_factor=2, on_exhaust="degrade")
    healthy = tg_flow(app, n_cores, interconnect, app_params=app_params)
    degraded = tg_flow(app, n_cores, interconnect, app_params=app_params,
                       options=RunOptions(fault_spec=fault_spec,
                                          fault_seed=fault_seed,
                                          retry_policy=retry_policy,
                                          watchdog_cycles=watchdog_cycles))
    counters = degraded.tg_platform.resilience_counters()
    healthy_cycles = healthy.tg_cycles
    degraded_cycles = degraded.tg_cycles
    return {
        "benchmark": healthy.benchmark,
        "n_cores": n_cores,
        "interconnect": interconnect,
        "fault_seed": fault_seed,
        "healthy_tg_cycles": healthy_cycles,
        "degraded_tg_cycles": degraded_cycles,
        "slowdown": (degraded_cycles / healthy_cycles
                     if healthy_cycles else 0.0),
        "resilience": counters.as_dict(),
        "completed": degraded.tg_platform.all_finished,
    }


def table2_row(result: TGFlowResult) -> str:
    """Format one result like a row of the paper's Table 2."""
    return (f"{result.n_cores}P  ARM={result.ref_cycles}  "
            f"TG={result.tg_cycles}  Error={result.error:.2%}  "
            f"ref={result.ref_wall:.3f}s  tg={result.tg_wall:.3f}s  "
            f"Gain={result.gain:.2f}x")
