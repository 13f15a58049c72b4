#!/usr/bin/env python
"""Scripted warm-up-sharing smoke test for the warmup-smoke CI job.

Exercises the mixed-fidelity fast-forward story end to end, outside
pytest, the way an operator would hit it:

1. run a warm-up-enabled synthetic sweep **cold** at ``--jobs 1``
   (``--no-warmup-share``: every point simulates its own warm-up
   prefix) — its CSV is the reference ROI table;
2. run the identical sweep **shared** at ``--jobs 1`` (the default:
   each warm-up equivalence class is simulated once and every point
   restores from the ``.snap``), then again at ``--jobs 2``, where the
   class warm-up runs as a pool task and its members wait for it;
3. each shared CSV must be bit-identical to the cold one once the
   machine-dependent wall columns are stripped — sharing is an
   execution strategy, never a result change;
4. each shared run's ``--diagnostics-json`` must report exactly one
   warm-up simulation for the single equivalence class and classify
   every point ``warmup-restored``;
5. the shared ``--jobs 1`` run must be at least MIN_SPEEDUP times faster
   wall-clock than the cold one — the warm-up dominates each point, so
   paying it once instead of once per fabric is the whole point of the
   feature.

Usage: PYTHONPATH=src python tests/harness/warmup_smoke.py WORKDIR
Diagnostics files are left in WORKDIR for CI to upload on failure.
"""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

DRIVER = """\
import sys
from repro.cli import sweep_main
sys.exit(sweep_main(sys.argv[1:]))
"""

#: one equivalence class: the warm-up material ignores the fabric axis,
#: so all four fabrics share a single tlm warm-up prefix
SPEC = {
    "benchmark": "synthetic",
    "cores": [2],
    "interconnects": ["ahb", "stbus", "tlm", "xpipes"],
    "modes": ["reactive"],
    "traffic": {"pattern": "uniform", "load": 0.3,
                "transactions": 5000, "seed": 7},
    "warmup_cycles": 160000,
    "warmup_fabric": "tlm",
}

#: the shared run must beat the cold run by at least this factor
MIN_SPEEDUP = 2.0


def say(message):
    print(f"[smoke] {message}", flush=True)


def fail(message):
    say(f"FAIL: {message}")
    sys.exit(1)


def stripped_rows(path):
    """CSV rows with the machine-dependent wall columns removed."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        fail(f"{path} is empty")
    drop = [i for i, name in enumerate(rows[0]) if "wall" in name]
    return [[cell for i, cell in enumerate(row) if i not in drop]
            for row in rows]


def run_sweep(env, spec_path, extra, label, jobs=1):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(spec_path), "--jobs", str(jobs),
         "--no-cache", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{label} sweep exited {proc.returncode}")
    say(f"{label} sweep finished in {wall:.2f}s")
    return wall


def check_diagnostics(path, label):
    """One class, simulated once, covering every point, all restored."""
    diagnostics = json.loads(path.read_text())
    warmup = diagnostics.get("warmup") or {}
    classes = warmup.get("classes") or []
    if len(classes) != 1:
        fail(f"{label}: expected 1 warm-up equivalence class, got "
             f"{len(classes)}")
    if warmup.get("simulated") != 1:
        fail(f"{label}: expected exactly 1 warm-up simulation, got "
             f"{warmup.get('simulated')}")
    if classes[0]["points"] != len(SPEC["interconnects"]):
        fail(f"{label}: class should cover every fabric, got "
             f"{classes[0]['points']} point(s)")
    provenance = diagnostics.get("provenance") or {}
    if provenance.get("warmup-restored") != len(SPEC["interconnects"]):
        fail(f"{label}: expected every point warmup-restored, got "
             f"{provenance}")
    say(f"{label}: provenance OK: {provenance}")


def main():
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else "warmup-work")
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")

    spec_path = workdir / "sweep.json"
    spec_path.write_text(json.dumps(SPEC, indent=2) + "\n")

    cold_csv = workdir / "cold.csv"

    say("cold sweep: every point simulates its own warm-up")
    cold_wall = run_sweep(env, spec_path,
                          ["--no-warmup-share", "--csv", str(cold_csv)],
                          "cold")

    walls = {}
    for jobs in (1, 2):
        label = f"shared -j {jobs}"
        shared_csv = workdir / f"shared-j{jobs}.csv"
        diag_path = workdir / f"shared-j{jobs}-diagnostics.json"
        say(f"{label} sweep: one warm-up per equivalence class")
        walls[jobs] = run_sweep(
            env, spec_path,
            ["--csv", str(shared_csv), "--diagnostics-json", str(diag_path)],
            label, jobs=jobs)
        if stripped_rows(cold_csv) != stripped_rows(shared_csv):
            fail(f"ROI tables differ between cold and {label} runs")
        say(f"{label}: ROI table identical to cold (wall columns stripped)")
        check_diagnostics(diag_path, label)

    shared_wall = walls[1]
    speedup = cold_wall / shared_wall if shared_wall > 0 else float("inf")
    say(f"speedup: cold {cold_wall:.2f}s / shared {shared_wall:.2f}s "
        f"= {speedup:.2f}x (both --jobs 1)")
    if speedup < MIN_SPEEDUP:
        fail(f"warm-up sharing must be >= {MIN_SPEEDUP:.1f}x faster, "
             f"measured {speedup:.2f}x")
    say("PASS")


if __name__ == "__main__":
    main()
