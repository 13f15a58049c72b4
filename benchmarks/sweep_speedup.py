"""Sweep-engine scaling: a pooled sweep reproduces the serial results and,
given the CPUs, finishes faster.

Runs a 12-point cacheloop grid (1-3 cores on all four fabrics) as
alternating pairs: in-process (``jobs=1``), then on a worker pool of up
to four workers.  Every pair must render the same CSV with the
wall-time columns masked, and the median of the per-pair speedups must
beat the floor for the CPUs available: 1.5x on four or more, 1.0x on
two or three.  One CPU makes no speed claim.  A single pair on a shared
2-vCPU host read anywhere from 0.96x to 3.27x over fifteen pairs, which
is why the claim is a median::

    python benchmarks/sweep_speedup.py
"""

import os
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness import SweepSpec, run_sweep_parallel, sweep_csv  # noqa: E402

PAIRS = 5
SPEC = SweepSpec("cacheloop", [1, 2, 3],
                 interconnects=["ahb", "tlm", "stbus", "xpipes"],
                 app_params={"iters": 800})


def masked_csv(results) -> str:
    """The sweep CSV with its wall-time columns masked."""
    rows = [line.split(",") for line in sweep_csv(results).splitlines()]
    walls = [rows[0].index(name) for name in ("ref_wall", "tg_wall", "gain")]
    return "\n".join(",".join("-" if index in walls else cell
                              for index, cell in enumerate(row))
                     for row in rows)


def timed_sweep(jobs: int):
    start = time.perf_counter()
    results = run_sweep_parallel(SPEC, jobs=jobs)
    return results, time.perf_counter() - start


def main() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # non-Linux
        cpus = os.cpu_count() or 1
    jobs = min(4, cpus)
    speedups = []
    for pair in range(PAIRS):
        serial, serial_s = timed_sweep(1)
        pooled, pooled_s = timed_sweep(jobs)
        if not all(r.status == "ok" for r in serial + pooled):
            print(f"pair {pair}: a point failed", file=sys.stderr)
            return 1
        if masked_csv(serial) != masked_csv(pooled):
            print(f"pair {pair}: the -j {jobs} CSV differs from the "
                  f"serial one", file=sys.stderr)
            return 1
        speedups.append(serial_s / pooled_s)
        print(f"pair {pair}: serial {serial_s:.2f}s, -j {jobs} "
              f"{pooled_s:.2f}s ({speedups[-1]:.2f}x)")
    median = statistics.median(speedups)
    floor = 1.5 if cpus >= 4 else 1.0 if cpus >= 2 else None
    print(f"{SPEC.points}-point sweep on {cpus} CPU(s): median speedup "
          f"{median:.2f}x over {PAIRS} pairs (range {min(speedups):.2f}-"
          f"{max(speedups):.2f}x), CSVs identical modulo wall columns")
    if floor is not None and median <= floor:
        print(f"expected a median above {floor:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
