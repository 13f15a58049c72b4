"""Engine-vs-oracle parity for whole platforms.

The calendar-queue engine is a pure dispatch optimisation: it must
produce *bit-identical* simulations to the binary-heap
:class:`~repro.kernel.event.EventQueue` oracle — same cycle counts, same
event counts, same fabric statistics.  These tests run the Table-2
regression configurations, a cross-interconnect flow and a
synthetic-traffic flow on both queues (the oracle through the
``Simulator(queue=...)`` seam) and compare their platform summaries.

The only permitted divergence is the structural bookkeeping that
describes the queue itself rather than the simulation,
:data:`~repro.harness.checkpoint.STRUCTURAL_KERNEL_KEYS`: the heap
compacts on a size heuristic while the calendar queue counts tombstone
sweeps, and resident entries are organised differently.  Everything else
in ``stats_summary()`` — including ``events_fired`` and
``events_cancelled`` — must match exactly.
"""

import pytest

from repro.apps import cacheloop, des, mp_matrix, sp_matrix
from repro.apps.synthetic import TrafficSpec, synthetic_flow
from repro.harness import comparable_summary, tg_flow
from repro.kernel import CalendarQueue, EventQueue

from tests.helpers import oracle_kernel

CONFIGS = [
    (sp_matrix, 1, "ahb", {"n": 4}),
    (cacheloop, 2, "ahb", {"iters": 100}),
    (mp_matrix, 2, "ahb", {"n": 4}),
    (mp_matrix, 3, "ahb", {"n": 4}),
    (des, 3, "ahb", {"blocks": 2}),
    # cross-interconnect locks: same apps on the other fabrics
    (mp_matrix, 2, "xpipes", {"n": 4}),
    (des, 3, "stbus", {"blocks": 2}),
]


def masked_summary(platform):
    """``stats_summary()`` without the queue-structural counters."""
    return comparable_summary(platform.stats_summary())


@pytest.mark.parametrize(
    "app,n_cores,interconnect,params", CONFIGS,
    ids=[f"{a.__name__.split('.')[-1]}-{n}P-{ic}"
         for a, n, ic, _ in CONFIGS])
def test_tg_flow_parity(app, n_cores, interconnect, params):
    with oracle_kernel():
        classic = tg_flow(app, n_cores, interconnect=interconnect,
                          app_params=params)
    fast = tg_flow(app, n_cores, interconnect=interconnect,
                   app_params=params)

    assert classic.ref_cycles == fast.ref_cycles
    assert classic.tg_cycles == fast.tg_cycles
    assert classic.ref_events == fast.ref_events
    assert classic.tg_events == fast.tg_events
    assert (masked_summary(classic.ref_platform)
            == masked_summary(fast.ref_platform))
    assert (masked_summary(classic.tg_platform)
            == masked_summary(fast.tg_platform))


def test_tg_flow_backends_report_their_engine():
    """The seam really swaps the queue — otherwise parity is vacuous."""
    with oracle_kernel():
        classic = tg_flow(cacheloop, 2, app_params={"iters": 50})
    fast = tg_flow(cacheloop, 2, app_params={"iters": 50})
    for result, queue in ((classic, EventQueue), (fast, CalendarQueue)):
        assert type(result.ref_platform.sim._queue) is queue
        assert type(result.tg_platform.sim._queue) is queue


def test_synthetic_flow_parity():
    """A 4-core synthetic workload: generator + TG interpreter + fabric
    must agree with the oracle down to per-transaction latencies."""
    spec = TrafficSpec(n_cores=4, pattern="hotspot", transactions=40,
                       load=0.6, seed=11,
                       size={"kind": "uniform", "min_words": 1,
                             "max_words": 8})
    with oracle_kernel():
        classic = synthetic_flow(spec)
    fast = synthetic_flow(spec)

    for field in ("tg_cycles", "tg_events", "issued", "words",
                  "latency_avg", "latency_max", "throughput_wpkc",
                  "scheduled_load", "realised_load"):
        assert getattr(classic, field) == getattr(fast, field), field
    assert (masked_summary(classic.tg_platform)
            == masked_summary(fast.tg_platform))


def test_mesh_flow_parity():
    """8-core hotspot traffic on the ×pipes mesh: the routers and NIs
    park on FIFO signals in the engine's drain loop and through
    ``Process._dispatch`` on the oracle, and must agree exactly."""
    spec = TrafficSpec(n_cores=8, pattern="hotspot", transactions=30,
                       load=0.6, seed=3)
    with oracle_kernel():
        classic = synthetic_flow(spec, interconnect="xpipes")
    fast = synthetic_flow(spec, interconnect="xpipes")

    for field in ("tg_cycles", "tg_events", "latency_avg", "latency_max"):
        assert getattr(classic, field) == getattr(fast, field), field
    assert (classic.tg_platform.fabric.total_flits_routed
            == fast.tg_platform.fabric.total_flits_routed)
    assert (masked_summary(classic.tg_platform)
            == masked_summary(fast.tg_platform))


def test_counters_present_under_both_backends():
    """kernel_counters() exposes the same schema on the engine and the
    oracle."""
    with oracle_kernel():
        classic = tg_flow(cacheloop, 2, app_params={"iters": 50})
    fast = tg_flow(cacheloop, 2, app_params={"iters": 50})
    for result in (classic, fast):
        counters = result.tg_platform.sim.kernel_counters()
        assert set(counters) == {
            "events_fired", "events_cancelled", "heap_compactions",
            "peak_heap_size", "queued_live", "queued_tombstones"}
