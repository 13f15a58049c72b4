"""E11's sweep-engine side: re-evaluating an unchanged grid of design
alternatives is served from the result cache."""

import time

import pytest

from repro.harness import (
    ResultCache,
    SweepSpec,
    run_sweep_parallel,
)
from benchmarks.conftest import REPORT_LINES

CANDIDATES = ["ahb", "stbus", "xpipes"]
PARAMS = {"n": 4}
N_CORES = 3


@pytest.mark.benchmark(group="dse")
def test_cached_dse_sweep_warm_rerun_is_free(benchmark, tmp_path):
    """The sweep engine's pitch for DSE: re-evaluating an unchanged grid
    of design alternatives costs zero simulations and near-zero time."""
    spec = SweepSpec("mp_matrix", [N_CORES], interconnects=CANDIDATES,
                     app_params=PARAMS)
    cache = ResultCache(tmp_path / "cache")

    def cold():
        return run_sweep_parallel(spec, jobs=1, cache=cache)

    cold_start = time.perf_counter()
    cold_results = benchmark.pedantic(cold, rounds=1, iterations=1)
    cold_wall = time.perf_counter() - cold_start
    assert all(r.status == "ok" and not r.cached for r in cold_results)

    warm_start = time.perf_counter()
    warm_results = run_sweep_parallel(spec, jobs=1, cache=cache)
    warm_wall = time.perf_counter() - warm_start
    assert all(r.cached for r in warm_results), "warm run must simulate 0"
    assert [r.tg_cycles for r in warm_results] == \
        [r.tg_cycles for r in cold_results]
    REPORT_LINES.append(
        f"[E11] cached DSE sweep ({len(CANDIDATES)} fabrics): cold "
        f"{cold_wall:.3f}s, warm {warm_wall:.3f}s "
        f"({cold_wall / max(warm_wall, 1e-9):.0f}x faster, 0 simulations)")
