"""Experiment harness: the full TG simulation flow, automated.

``tg_flow`` performs the complete methodology of paper Section 5 for one
benchmark configuration:

1. reference simulation with armlet cores (trace collection attached);
2. translate each core's trace into a TG program;
3. rebuild the platform with TGs in place of the cores;
4. run the TG simulation;
5. report accuracy (cumulative simulated cycles, as Table 2's "Error")
   and speedup (wall-clock, Table 2's "Gain").

``table2_row`` formats the result like a row of the paper's Table 2.
Every flow runs its TG platform through ``run_tg``, steered by one
``RunOptions`` (faults, resilience, checkpointing, warm-up), and every
result shares the ``RunResult`` core.

Sweeps over many configurations run through ``run_sweep_parallel``: a
supervised worker pool (``repro.harness.supervisor``) with an on-disk
result cache (``repro.harness.cache``) and a crash-safe write-ahead
journal (``repro.harness.journal``) so interrupted sweeps resume
without re-simulating completed points (see docs/SWEEPS.md).
"""

from repro.harness.experiments import (
    RunOptions,
    RunResult,
    TGFlowResult,
    build_testchip_platform,
    build_tg_platform,
    reference_run,
    resilience_demo,
    run_tg,
    table2_row,
    tg_flow,
    translate_traces,
)
from repro.harness.checkpoint import (
    CheckpointManager,
    SnapshotRecipeMismatch,
    branch,
    checkpointed_run,
    comparable_summary,
    ensure_recipe_compatible,
    load_snapshot,
    platform_recipe,
    rebuild_platform,
    restore_platform,
    warmup_snapshot,
)
from repro.harness.cache import (
    CacheIssue,
    ResultCache,
    default_cache_dir,
    point_cache_key,
    warmup_digest,
)
from repro.harness.journal import (
    JOURNAL_FILENAME,
    JournalState,
    SweepJournal,
    journal_path,
)
from repro.harness.parallel import (
    PointResult,
    SweepPoint,
    SweepTally,
    expand_grid,
    run_sweep_parallel,
)
from repro.harness.supervisor import (
    EXIT_INTERRUPTED,
    FAILURE_KINDS,
    SweepInterrupted,
    SweepPointFailure,
    WorkerSupervisor,
)
from repro.harness.sweep import (
    SweepSpec,
    sweep_csv,
    sweep_table,
)

__all__ = [
    "EXIT_INTERRUPTED",
    "FAILURE_KINDS",
    "JOURNAL_FILENAME",
    "JournalState",
    "PointResult",
    "CacheIssue",
    "CheckpointManager",
    "SnapshotRecipeMismatch",
    "branch",
    "checkpointed_run",
    "comparable_summary",
    "ensure_recipe_compatible",
    "load_snapshot",
    "platform_recipe",
    "rebuild_platform",
    "restore_platform",
    "warmup_snapshot",
    "ResultCache",
    "SweepInterrupted",
    "SweepJournal",
    "SweepPoint",
    "SweepPointFailure",
    "SweepSpec",
    "SweepTally",
    "WorkerSupervisor",
    "default_cache_dir",
    "expand_grid",
    "journal_path",
    "point_cache_key",
    "run_sweep_parallel",
    "warmup_digest",
    "RunOptions",
    "RunResult",
    "TGFlowResult",
    "build_testchip_platform",
    "build_tg_platform",
    "reference_run",
    "resilience_demo",
    "run_tg",
    "sweep_csv",
    "sweep_table",
    "table2_row",
    "tg_flow",
    "translate_traces",
]
