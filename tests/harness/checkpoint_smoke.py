#!/usr/bin/env python
"""Scripted crash-then-restore smoke test for the checkpoint CI job.

Exercises the crash-durability story end to end, outside pytest, the
way an operator would hit it:

1. run a checkpointed experiment to completion — its ``tg_summary`` is
   the reference end state;
2. start the same run again, SIGKILL the process as soon as a
   checkpoint lands on disk — a hard crash, no cleanup;
3. the crash must leave what the durable-write protocol guarantees:
   every ``.snap`` loads as a verified artifact, and any other file is
   a ``ckpt-`` temp file of an interrupted save (anything else is
   foreign debris); once a ``CheckpointManager`` opens the directory,
   only ``.snap`` files remain;
4. ``--restore`` the newest snapshot — the continued run's
   ``tg_summary`` must be byte-identical (canonical JSON) to the
   uninterrupted run's, once both pass through ``comparable_summary``
   (the contract the checkpoint property suites use: the engine samples
   its queue high-water mark differently on a bounded, checkpointed
   run).

The four steps run twice: on a healthy platform, and on a faulted one
(probabilistic shared-slave errors plus link jitter, absorbed by
retrying TGs).  A restore takes no fault flags, so the faulted case
checks that it continues the captured fault injector: its
``tg_summary`` carries ``fault_seed`` and the ``resilience`` counters,
and both must match the uninterrupted run.

Usage: PYTHONPATH=src python tests/harness/checkpoint_smoke.py WORKDIR
Snapshots are left in WORKDIR for CI to upload on failure.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.artifacts import ArtifactError, load_snap  # noqa: E402
from repro.artifacts.io import TEMP_SUFFIX  # noqa: E402
from repro.harness import CheckpointManager, comparable_summary  # noqa: E402

DRIVER = """\
import sys
from repro.cli import experiment_main
sys.exit(experiment_main(sys.argv[1:]))
"""

RUN_ARGS = ["mp_matrix", "--cores", "2", "--interconnect", "ahb",
            "--checkpoint-every", "400", "--json"]

FAULT_SPEC = {"slave_errors": [{"slave": "shared", "probability": 0.05}],
              "link_faults": [{"jitter": 2}]}


def say(message):
    print(f"[smoke] {message}", flush=True)


def fail(message):
    say(f"FAIL: {message}")
    sys.exit(1)


def canonical(summary):
    return json.dumps(comparable_summary(summary), sort_keys=True,
                      separators=(",", ":"))


def snapshots(directory):
    if not directory.exists():
        return []
    return sorted(directory.glob("*.snap"))


def crash_then_restore(workdir, env, run_args):
    """Steps 1-4 in ``workdir``; returns the restored ``tg_summary``."""
    say("reference: checkpointed run to completion")
    reference_dir = workdir / "reference"
    reference = subprocess.run(
        [sys.executable, "-c", DRIVER, *run_args,
         "--checkpoint-dir", str(reference_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, timeout=600)
    if reference.returncode != 0:
        sys.stderr.write(reference.stderr)
        fail(f"reference run exited {reference.returncode}")
    expected = canonical(json.loads(reference.stdout)["tg_summary"])
    if not snapshots(reference_dir):
        fail("reference run wrote no checkpoints")
    say(f"reference wrote {len(snapshots(reference_dir))} snapshot(s)")

    say("crash run: SIGKILL as soon as a checkpoint lands")
    crash_dir = workdir / "crash"
    victim = subprocess.Popen(
        [sys.executable, "-c", DRIVER, *run_args,
         "--checkpoint-dir", str(crash_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if snapshots(crash_dir):
                break
            if victim.poll() is not None:
                # completed before we could kill it: the checkpoints
                # are still valid crash-restore material
                break
            time.sleep(0.02)
        else:
            fail("no checkpoint appeared within 120s")
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
            say(f"SIGKILLed pid {victim.pid}")
        else:
            say("run finished before the kill landed; restoring anyway")
    finally:
        victim.communicate()
        if victim.poll() is None:
            victim.kill()

    survivors = snapshots(crash_dir)
    if not survivors:
        fail("crash left no snapshot behind")
    for snap in survivors:
        try:
            load_snap(snap)
        except ArtifactError as error:
            fail(f"crash left a snapshot that does not load: {error}")
    others = [p for p in crash_dir.iterdir() if p.suffix != ".snap"]
    foreign = [p for p in others if not (p.name.startswith("ckpt-")
                                         and p.name.endswith(TEMP_SUFFIX))]
    if foreign:
        fail(f"crash left foreign debris: {foreign}")
    CheckpointManager(crash_dir)
    remaining = [p for p in crash_dir.iterdir() if p.suffix != ".snap"]
    if remaining:
        fail(f"temp files survived the next CheckpointManager: "
             f"{remaining}")
    if others:
        say(f"the next CheckpointManager removed {len(others)} temp "
            f"file(s) of an interrupted save")
    newest = survivors[-1]
    say(f"restoring newest snapshot {newest.name}")

    restored = subprocess.run(
        [sys.executable, "-c", DRIVER, "--restore", str(newest)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, timeout=600)
    if restored.returncode != 0:
        sys.stderr.write(restored.stderr)
        fail(f"--restore exited {restored.returncode}")
    out = json.loads(restored.stdout)
    if out["restore_cycle"] < 1:
        fail(f"implausible restore cycle {out['restore_cycle']}")
    got = canonical(out["tg_summary"])
    if got != expected:
        say(f"expected: {expected}")
        say(f"got:      {got}")
        fail("restored end state differs from the uninterrupted run")
    say(f"restored from cycle {out['restore_cycle']}: comparable "
        f"tg_summary is byte-identical to the uninterrupted run")
    return out["tg_summary"]


def main():
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else "ckpt-work")
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")

    say("healthy platform")
    crash_then_restore(workdir, env, RUN_ARGS)

    say("faulted platform: slave errors + link jitter, retrying TGs")
    faulted_dir = workdir / "faulted"
    faulted_dir.mkdir(exist_ok=True)
    spec_path = faulted_dir / "faults.json"
    spec_path.write_text(json.dumps(FAULT_SPEC))
    summary = crash_then_restore(faulted_dir, env, RUN_ARGS + [
        "--fault-spec", str(spec_path), "--fault-seed", "7",
        "--retry-attempts", "4"])
    resilience = summary.get("resilience") or {}
    if summary.get("fault_seed") != 7 \
            or not resilience.get("slave_errors_injected") \
            or not resilience.get("hop_faults_injected"):
        fail(f"the faulted restore ran no faults: {summary}")
    say(f"faulted restore continued the injector: "
        f"{resilience['slave_errors_injected']} slave error(s), "
        f"{resilience['hop_faults_injected']} hop fault(s), "
        f"{resilience['retries']} retries")
    say("PASS")


if __name__ == "__main__":
    main()
