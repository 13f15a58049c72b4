"""Synthetic-traffic workloads: generation cost and saturation.

Two properties worth tracking: (1) generating a parametric workload is
cheap — the generator must never dominate the simulations it feeds; and
(2) the load-vs-latency curve on a contended fabric saturates the way
queueing theory says it should: flat under light load, sharply rising
near capacity, with realised load tracking offered load until the knee.
"""

import pytest

from benchmarks.conftest import REPORT_LINES
from repro.apps.synthetic import TrafficSpec, generate_programs, synthetic_flow

N_CORES = 4
LOADS = [0.1, 0.3, 0.5, 0.7, 0.9]


@pytest.mark.benchmark(group="synthetic")
def test_generation_throughput(benchmark):
    spec = TrafficSpec(n_cores=N_CORES, pattern="uniform", load=0.5,
                       transactions=500, seed=7)
    programs = benchmark(generate_programs, spec)
    instructions = sum(len(p) for p in programs.values())
    REPORT_LINES.append(
        f"[synthetic] generated {instructions} instructions for "
        f"{N_CORES} cores x 500 transactions")


@pytest.mark.benchmark(group="synthetic")
def test_saturation_curve(benchmark):
    def sweep():
        rows = []
        for load in LOADS:
            spec = TrafficSpec(n_cores=N_CORES, pattern="uniform",
                               load=load, transactions=100, seed=7)
            rows.append(synthetic_flow(spec, "tlm"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    latencies = [r.latency_avg for r in rows]
    # light-load latency must not exceed heavy-load latency: the curve
    # may only saturate, never improve under pressure
    assert latencies[0] <= latencies[-1] + 1e-9
    REPORT_LINES.append(
        "[synthetic] uniform/tlm saturation: " + ", ".join(
            f"{r.offered_load:.1f}->{r.latency_avg:.1f}" for r in rows))
