"""Crash-durable TG simulation: auto-checkpointing, restore, branching.

The kernel layer (:mod:`repro.kernel.snapshot`) captures and re-applies
simulation state; this module makes that *self-contained on disk*:

* :func:`platform_recipe` embeds everything needed to rebuild the TG
  platform (programs as ``.tgp`` text, socket count, interconnect,
  config overrides, resilience knobs) into the snapshot payload, so
  ``repro-experiment --restore run.snap`` needs no reference re-run and
  no other files;
* :class:`CheckpointManager` writes ``.snap`` artifacts with
  :func:`~repro.artifacts.io.atomic_write_text` and retains only the
  newest K — after a SIGKILL every ``.snap`` verifies, and the next
  manager on the directory removes the temp file of an interrupted save;
* :func:`checkpointed_run` drives a platform to completion, snapshotting
  at the first quiescent cycle at or after every cadence boundary;
* :func:`restore_platform` is the one way from a snapshot to a running
  platform: it rebuilds the payload's embedded recipe and applies the
  snapshot — on the captured fabric the continuation is bit-identical to
  the uninterrupted run; on another fabric it is the mixed-fidelity
  fast-forward of a :func:`warmup_snapshot`;
* :func:`branch` is the fault-campaign wrapper around it: restore the
  shared warm-up state with a *fresh* fault injector (new spec/seed), so
  N scenarios share one warm-up simulation.

See docs/CHECKPOINT.md for the format and the quiescence rules.
"""

import os
from typing import Dict, List, Optional, Union

from repro.artifacts.errors import SnapshotError, SnapshotRecipeMismatch
from repro.artifacts.io import TEMP_SUFFIX, atomic_write_text
from repro.artifacts.snap import dump_snap, load_snap
from repro.core.program import TGProgram, parse_tgp
from repro.faults import FaultSpec, RetryPolicy
from repro.harness.experiments import build_tg_platform
from repro.platform import MparmPlatform

#: Snapshots retained per directory by default.
DEFAULT_KEEP = 3

_SNAP_SUFFIX = ".snap"


def _serializable_overrides(config_overrides: Optional[dict]) -> dict:
    overrides = dict(config_overrides or {})
    spec = overrides.get("fault_spec")
    if isinstance(spec, FaultSpec):
        overrides["fault_spec"] = spec.to_dict()
    return overrides


def tgp_texts(programs: Dict[int, TGProgram]) -> Dict[int, str]:
    """Each program's canonical ``.tgp`` text, keyed like ``programs``."""
    return {master_id: program.to_tgp()
            for master_id, program in programs.items()}


def platform_recipe(programs: Dict[int, TGProgram], n_cores: int,
                    interconnect: str = "ahb",
                    config_overrides: Optional[dict] = None,
                    retry_policy: Optional[RetryPolicy] = None,
                    watchdog_cycles: Optional[int] = None,
                    texts: Optional[Dict[int, str]] = None) -> dict:
    """Self-contained rebuild recipe for a TG platform.

    Mirrors the :func:`~repro.harness.experiments.build_tg_platform`
    signature; programs travel as ``.tgp`` text (their canonical,
    checksummable form — the TG validates the CRC at restore).
    ``texts`` (see :func:`tgp_texts`) reuses texts the caller already
    formatted from these programs.
    """
    if texts is None:
        texts = tgp_texts(programs)
    return {
        "kind": "tg_platform",
        "programs": {str(master_id): texts[master_id]
                     for master_id in sorted(programs)},
        "n_cores": n_cores,
        "interconnect": interconnect,
        "config_overrides": _serializable_overrides(config_overrides),
        "retry_policy": (retry_policy.to_dict()
                         if retry_policy is not None else None),
        "watchdog_cycles": watchdog_cycles,
    }


def _recipe_overrides(recipe: dict) -> dict:
    """A recipe's config overrides, minus keys :class:`PlatformConfig`
    no longer takes.

    Snapshots saved while the kernel had a selectable event engine name
    it here; there is one engine now, so the name is dropped.
    """
    from repro.kernel.snapshot import state_get
    overrides = dict(state_get(recipe, "config_overrides",
                               "platform recipe") or {})
    overrides.pop("backend", None)
    return overrides


def rebuild_platform(recipe: dict,
                     config_overrides: Optional[dict] = None,
                     interconnect: Optional[str] = None,
                     programs: Optional[Dict[int, TGProgram]] = None,
                     ) -> MparmPlatform:
    """Build a fresh, un-started platform from a snapshot recipe.

    ``config_overrides`` are applied *on top* of the recipe's own
    overrides (the branch mechanism swaps fault spec/seed this way).
    ``interconnect`` replaces the recipe's fabric — the cross-fabric
    fast-forward path rebuilds the captured workload on a *different*
    interconnect.  ``programs`` skips the ``.tgp`` re-parse
    when the caller already holds the recipe's programs in memory; it is
    only safe when the recipe was built from those same programs, or
    byte-compared against a :func:`platform_recipe` of them (``.tgp``
    text is canonical, so equal text means equal programs).  Either way
    each TG takes the recipe's text, and its ``program_crc32`` is that
    text's CRC.
    """
    from repro.kernel.snapshot import state_get
    if not isinstance(recipe, dict) \
            or recipe.get("kind") != "tg_platform":
        raise SnapshotError(
            "snapshot has no embedded platform recipe",
            hint="only snapshots taken through the harness/CLI are "
                 "self-contained; rebuild the platform yourself and use "
                 "MparmPlatform.apply_snapshot")
    raw_programs = state_get(recipe, "programs", "platform recipe")
    if not isinstance(raw_programs, dict) or not raw_programs:
        raise SnapshotError(
            "snapshot platform recipe carries no programs")
    try:
        texts = {int(master_id): text
                 for master_id, text in raw_programs.items()}
        if programs is None:
            programs = {master_id: parse_tgp(text)
                        for master_id, text in texts.items()}
    except SnapshotError:
        raise
    except Exception as error:
        raise SnapshotError(
            f"snapshot platform recipe has an unparsable program "
            f"({error})") from None
    overrides = _recipe_overrides(recipe)
    overrides.update(config_overrides or {})
    retry = state_get(recipe, "retry_policy", "platform recipe")
    return build_tg_platform(
        programs,
        state_get(recipe, "n_cores", "platform recipe"),
        interconnect if interconnect is not None
        else state_get(recipe, "interconnect", "platform recipe"),
        overrides,
        retry_policy=RetryPolicy.from_dict(retry),
        watchdog_cycles=state_get(recipe, "watchdog_cycles",
                                  "platform recipe"),
        texts=texts)


#: Recipe overrides that do not change the captured architectural state:
#: a warm-up snapshot is always captured healthy (fault state is branched
#: in fresh at the restore point).  Everything else in the overrides —
#: fabric parameters, memory timings, platform shape — defines the
#: workload identity and must match for a restore to be meaningful.
_PORTABLE_OVERRIDES = ("fault_spec", "fault_seed")


def _comparable_recipe(recipe: dict) -> dict:
    from repro.kernel.snapshot import state_get
    overrides = _recipe_overrides(recipe)
    for key in _PORTABLE_OVERRIDES:
        overrides.pop(key, None)
    return {
        "programs": state_get(recipe, "programs", "platform recipe"),
        "n_cores": state_get(recipe, "n_cores", "platform recipe"),
        "config_overrides": overrides,
        "retry_policy": state_get(recipe, "retry_policy",
                                  "platform recipe"),
        "watchdog_cycles": state_get(recipe, "watchdog_cycles",
                                     "platform recipe"),
    }


def ensure_recipe_compatible(recipe: dict, expected: dict) -> None:
    """Check that a snapshot recipe matches the workload it will serve.

    Cross-fabric restore maps state by component identity, so the two
    recipes must agree on everything that *defines* those components:
    core count, the TG programs (byte-compared as ``.tgp`` text), the
    retry/watchdog resilience knobs and all non-portable config
    overrides.  The ``interconnect`` and the :data:`_PORTABLE_OVERRIDES`
    (fault spec/seed) are deliberately excluded — those are exactly the
    axes mixed-fidelity fast-forward varies.  Raises
    :class:`SnapshotRecipeMismatch` naming every differing field.
    """
    ours = _comparable_recipe(recipe)
    theirs = _comparable_recipe(expected)
    mismatches: List[str] = []
    if ours["n_cores"] != theirs["n_cores"]:
        mismatches.append(f"n_cores: snapshot has {ours['n_cores']}, "
                          f"target expects {theirs['n_cores']}")
    our_programs = ours["programs"] or {}
    their_programs = theirs["programs"] or {}
    if sorted(our_programs) != sorted(their_programs):
        mismatches.append(
            f"programs: snapshot has masters "
            f"[{', '.join(sorted(our_programs))}], target expects "
            f"[{', '.join(sorted(their_programs))}]")
    else:
        differing = [master for master in sorted(our_programs)
                     if our_programs[master] != their_programs[master]]
        if differing:
            mismatches.append(
                f"programs: master(s) {', '.join(differing)} differ "
                f"(.tgp text is not byte-identical)")
    for field in ("config_overrides", "retry_policy", "watchdog_cycles"):
        if ours[field] != theirs[field]:
            mismatches.append(f"{field}: snapshot has {ours[field]!r}, "
                              f"target expects {theirs[field]!r}")
    if mismatches:
        raise SnapshotRecipeMismatch(
            f"snapshot recipe does not match the target workload "
            f"({len(mismatches)} field(s) differ)",
            hint="a snapshot can change fabric and fault "
                 "configuration, but not the workload itself",
            mismatches=mismatches)


def _check_masters(recipe: dict) -> None:
    """Refuse a recipe whose programs are not keyed ``"0"`` to
    ``"n_cores-1"`` — one program per master socket, no more, no less."""
    programs = recipe.get("programs") if isinstance(recipe, dict) else None
    if not isinstance(programs, dict) or not programs:
        return                  # rebuild_platform names these cases
    n_cores = recipe.get("n_cores")
    masters = ({str(master) for master in range(n_cores)}
               if isinstance(n_cores, int) else None)
    if set(programs) != masters:
        raise SnapshotError(
            f"snapshot platform recipe has programs for masters "
            f"[{', '.join(sorted(programs))}] but n_cores {n_cores!r}",
            hint="a TG platform takes one program per master, keyed "
                 "0 to n_cores-1")


def restore_platform(payload: dict,
                     interconnect: Optional[str] = None,
                     config_overrides: Optional[dict] = None,
                     expected_recipe: Optional[dict] = None,
                     programs: Optional[Dict[int, TGProgram]] = None,
                     ) -> MparmPlatform:
    """Rebuild the platform a snapshot embeds and apply the snapshot.

    The returned platform sits at the snapshot cycle, started, with the
    exact pending-event set of the captured run — ``platform.run()``
    continues it.  Every path from a ``.snap`` to a running platform
    comes through here: ``--restore``, fault-campaign :func:`branch`es
    and the warm-up fast-forward of
    :func:`~repro.harness.experiments.run_tg`.

    * ``interconnect`` continues on a *different fabric*: the snapshot
      was taken at a quiescent cycle (all are), so the fabric is
      **re-derived** — its portable traffic statistics carry over, its
      internal machinery is rebuilt from quiescence — while
      TG/OCP/memory/semaphore state restores by component identity.
    * ``config_overrides`` are layered on the recipe's own (fault
      spec/seed), and a restore given them starts a **fresh** fault
      injector at the restore point.  Without them the captured
      injector continues, so a faulted checkpoint resumes
      bit-identically.
    * ``expected_recipe`` (a :func:`platform_recipe` of the workload the
      caller *meant* to restore) guards against a stale or foreign
      snapshot: any workload-identity difference raises
      :class:`SnapshotRecipeMismatch` (see
      :func:`ensure_recipe_compatible`).
    * ``programs`` skips the recipe's ``.tgp`` re-parse with the
      caller's in-memory programs.  It requires ``expected_recipe``
      built from those same programs: the byte-compare proves the
      recipe text *is* their canonical form.

    A recipe no ``expected_recipe`` vouches for was read from outside
    the program: its programs must be keyed ``"0"`` to ``"n_cores-1"``,
    and any error building it is a :class:`SnapshotError` naming the
    cause.
    """
    from repro.kernel.snapshot import _require, state_get
    recipe = _require(payload, "platform", "payload")
    if expected_recipe is not None:
        ensure_recipe_compatible(recipe, expected_recipe)
        platform = rebuild_platform(recipe, config_overrides,
                                    interconnect, programs)
    elif programs is not None:
        raise SnapshotError(
            "restore_platform(programs=...) requires expected_recipe",
            hint="the recipe byte-compare is what proves the in-memory "
                 "programs match the snapshot; pass platform_recipe("
                 "programs, ...) as expected_recipe")
    else:
        _check_masters(recipe)
        try:
            platform = rebuild_platform(recipe, config_overrides,
                                        interconnect)
        except SnapshotError:
            raise
        except Exception as error:
            raise SnapshotError(
                f"cannot rebuild the snapshot's platform "
                f"({type(error).__name__}: {error})") from None
    rederive = None
    if interconnect is not None and interconnect != state_get(
            recipe, "interconnect", "platform recipe"):
        rederive = ["fabric"]
    platform.apply_snapshot(
        payload, fresh=None if config_overrides is None else ["injector"],
        rederive=rederive)
    return platform


def branch(payload: dict,
           fault_spec: Union[None, dict, FaultSpec] = None,
           fault_seed: Optional[int] = None,
           interconnect: Optional[str] = None) -> MparmPlatform:
    """Branch a fault scenario off a shared warm-up snapshot.

    Restores the snapshot (optionally onto a different fabric) with the
    given fault spec/seed and a **fresh** injector: all architectural
    state — TG registers, memory contents, traffic counters — continues
    from the warm-up, while the fault sequence is the new scenario's
    own.  Simulate the warm-up once, branch N times.
    """
    overrides: dict = {}
    if fault_spec is not None:
        overrides["fault_spec"] = (fault_spec.to_dict()
                                   if isinstance(fault_spec, FaultSpec)
                                   else fault_spec)
    if fault_seed is not None:
        overrides["fault_seed"] = fault_seed
        if "fault_spec" not in overrides:
            raise SnapshotError(
                "branch got fault_seed without fault_spec",
                hint="pass the scenario's fault spec as well")
    return restore_platform(payload, interconnect, overrides)


def warmup_snapshot(recipe: dict, warmup_cycles: int,
                    warmup_fabric: str = "tlm",
                    programs: Optional[Dict[int, TGProgram]] = None,
                    ) -> dict:
    """Simulate a warm-up prefix of ``recipe`` on a cheap fabric and
    snapshot it.

    Builds the workload on ``warmup_fabric`` (default: the contention-
    free TLM model), runs it for ``warmup_cycles`` and captures the
    first quiescent cycle at or after that boundary.  The warm-up is
    always **healthy**: the recipe's fault spec/seed are stripped, so one
    snapshot serves every fault scenario via the fresh-injector restore
    (and the snapshot digest can ignore the fault axes).  The snapshot
    embeds ``recipe`` with exactly those two changes.

    ``programs`` are the recipe's programs in memory, when the caller
    built the recipe from them; the re-parse is then skipped.

    A workload that finishes before ``warmup_cycles`` still snapshots
    cleanly — the queue is drained, the capture is trivially quiescent,
    and the restored run completes immediately.
    """
    from repro.kernel.snapshot import state_get
    if warmup_cycles < 1:
        raise SnapshotError(
            f"warm-up length must be >= 1 cycle, got {warmup_cycles}")
    overrides = state_get(recipe, "config_overrides", "platform recipe")
    recipe = dict(recipe, interconnect=warmup_fabric, config_overrides={
        key: value for key, value in overrides.items()
        if key not in _PORTABLE_OVERRIDES})
    platform = rebuild_platform(recipe, programs=programs)
    platform.run(until=warmup_cycles)
    return platform.snapshot(recipe)


class CheckpointManager:
    """Atomic ``.snap`` writer with bounded retention.

    Snapshots are named ``<prefix>-<cycle padded to 12>.snap`` so
    lexicographic order equals cycle order; :meth:`save` writes one with
    :func:`~repro.artifacts.io.atomic_write_text`, then prunes
    everything but the newest ``keep``.  A checkpoint directory belongs
    to one run at a time: opening it removes the ``<prefix>-*.tmp``
    files an interrupted save left behind.
    """

    def __init__(self, directory, keep: int = DEFAULT_KEEP,
                 prefix: str = "ckpt"):
        if keep < 1:
            raise SnapshotError(f"checkpoint retention must be >= 1, "
                                f"got {keep}")
        self.directory = str(directory)
        self.keep = keep
        self.prefix = prefix
        os.makedirs(self.directory, exist_ok=True)
        for name in os.listdir(self.directory):
            if name.startswith(prefix + "-") and name.endswith(TEMP_SUFFIX):
                os.unlink(os.path.join(self.directory, name))

    def _snapshots(self):
        names = [name for name in os.listdir(self.directory)
                 if name.startswith(self.prefix + "-")
                 and name.endswith(_SNAP_SUFFIX)]
        return sorted(names)

    def latest(self) -> Optional[str]:
        """Path of the newest retained snapshot, or None."""
        names = self._snapshots()
        if not names:
            return None
        return os.path.join(self.directory, names[-1])

    def save(self, payload: dict) -> str:
        """Atomically and durably write one snapshot; returns its path."""
        cycle = payload.get("cycle", 0)
        name = f"{self.prefix}-{cycle:012d}{_SNAP_SUFFIX}"
        path = os.path.join(self.directory, name)
        atomic_write_text(path, dump_snap(payload))
        for stale in self._snapshots()[:-self.keep]:
            os.unlink(os.path.join(self.directory, stale))
        return path


def checkpointed_run(platform: MparmPlatform, recipe: dict,
                     manager: CheckpointManager, every: int,
                     progress_window: Optional[int] = None) -> int:
    """Run a platform to completion, checkpointing as it goes.

    A snapshot is taken at the first quiescent cycle at or after each
    ``every``-cycle boundary (quiescence scans may overshoot slightly;
    the next boundary is measured from the snapshot cycle).  When the
    next event lies past a boundary — an idle gap longer than the
    cadence — the boundary moves to that event, so every segment makes
    progress.  Completion semantics — deadlock detection, the livelock
    watchdog — match a plain ``platform.run(progress_window=...)``.
    """
    if every < 1:
        raise SnapshotError(
            f"checkpoint cadence must be >= 1 cycle, got {every}")
    sim = platform.sim
    if not platform._started:
        platform.start()  # run() starts lazily; we peek the queue first
    while True:
        boundary = max(sim.now + every, sim._queue.peek_time() or 0)
        # fire cluster-by-cluster so the clock stops on the last event
        # when the run completes inside this segment — run(until=X)
        # would coast to X and overshoot the natural completion cycle
        while True:
            next_time = sim._queue.peek_time()
            if next_time is None or next_time > boundary:
                break
            platform.run(until=next_time,
                         progress_window=progress_window)
        if sim._queue.peek_time() is None:
            break
        manager.save(platform.snapshot(recipe))
    # drained (or finished): let the normal run path apply its
    # completion/deadlock checks
    return platform.run(progress_window=progress_window)


def load_snapshot(path) -> dict:
    """Load + verify a ``.snap`` file; returns the payload dict."""
    return load_snap(path).value


#: Kernel diagnostics that describe how the event queue was *driven*
#: (batched drain vs bounded stepping, calendar buckets vs the heap
#: oracle), not the simulated behaviour.  Everything else in a summary is
#: bit-stable.
STRUCTURAL_KERNEL_KEYS = ("heap_compactions", "peak_heap_size",
                          "queued_tombstones")


def comparable_summary(summary: dict) -> dict:
    """A stats summary without the :data:`STRUCTURAL_KERNEL_KEYS`.

    The contract for "same simulation": a checkpointed or restored run
    matches the uninterrupted one, and the engine matches the
    :class:`~repro.kernel.event.EventQueue` oracle, on every other key.
    The dropped counters depend on the dispatch mode — the engine samples
    ``peak_heap_size`` per batch on an unbounded run but per event on a
    bounded one, and a checkpointed run is bounded.
    """
    trimmed = dict(summary)
    kernel = trimmed.get("kernel")
    if isinstance(kernel, dict):
        trimmed["kernel"] = {key: value for key, value in kernel.items()
                             if key not in STRUCTURAL_KERNEL_KEYS}
    return trimmed


__all__ = [
    "DEFAULT_KEEP",
    "STRUCTURAL_KERNEL_KEYS",
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
    "tgp_texts",
    "warmup_snapshot",
]
