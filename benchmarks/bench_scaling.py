"""Sweep-engine scaling: a parallel sweep reproduces the serial results
and, given the CPUs, finishes faster."""

import os
import time

import pytest

from repro.harness import (
    SweepSpec,
    run_sweep_parallel,
    sweep_csv,
)
from benchmarks.conftest import REPORT_LINES


def _normalised_csv(results):
    """sweep_csv with the wall-clock columns (ref_wall/tg_wall/gain)
    blanked — everything else must match between serial and parallel."""
    lines = []
    for line in sweep_csv(results).strip().splitlines():
        cells = line.split(",")
        for index in (7, 8, 9):
            cells[index] = "WALL"
        lines.append(",".join(cells))
    return "\n".join(lines)


@pytest.mark.benchmark(group="scaling")
def test_parallel_sweep_speedup(benchmark):
    """A 12-point sweep with --jobs 4 must reproduce the serial results
    byte-for-byte (modulo wall-time columns) while finishing faster."""
    spec = SweepSpec("cacheloop", [1, 2, 3],
                     interconnects=["ahb", "tlm", "stbus", "xpipes"],
                     app_params={"iters": 800})
    assert spec.points == 12

    serial_start = time.perf_counter()
    serial = run_sweep_parallel(spec, jobs=1)
    serial_wall = time.perf_counter() - serial_start

    def parallel():
        return run_sweep_parallel(spec, jobs=4)

    parallel_start = time.perf_counter()
    parallel_results = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_wall = time.perf_counter() - parallel_start

    assert all(r.status == "ok" for r in serial + parallel_results)
    assert _normalised_csv(serial) == _normalised_csv(parallel_results)
    speedup = serial_wall / max(parallel_wall, 1e-9)
    try:
        available_cpus = len(os.sched_getaffinity(0))
    except AttributeError:           # non-Linux
        available_cpus = os.cpu_count() or 1
    REPORT_LINES.append(
        f"12-point sweep on {available_cpus} CPU(s): serial "
        f"{serial_wall:.2f}s, --jobs 4 {parallel_wall:.2f}s "
        f"({speedup:.2f}x), CSV identical modulo wall columns")
    if available_cpus >= 4:
        assert speedup > 1.5, f"expected parallel win, got {speedup:.2f}x"
    elif available_cpus >= 2:
        assert speedup > 1.0, f"expected parallel win, got {speedup:.2f}x"
