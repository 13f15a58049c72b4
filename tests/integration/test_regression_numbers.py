"""Cycle-exact regression locks.

The whole stack is deterministic, so these exact cumulative cycle counts
must never change unless a timing model is *intentionally* modified.
Any accidental drift — in the kernel, a fabric, the caches, the
translator's idle arithmetic or the TG cost model — fails here with a
readable before/after pair.  Update the constants only together with a
DESIGN.md note about the timing change that justified it.
"""

import pytest

from repro.apps import cacheloop, des, mp_matrix, sp_matrix
from repro.apps.synthetic import TrafficSpec, synthetic_flow
from repro.harness import tg_flow

#: (app, cores, params) -> (reference cycles, TG cycles)
GOLDEN = {
    ("sp_matrix", 1): (1430, 1432),
    ("cacheloop", 2): (1878, 1878),
    ("mp_matrix", 2): (3531, 3525),
    ("mp_matrix", 3): (5499, 5349),
    ("des", 3): (7048, 7017),
}

CONFIGS = [
    (sp_matrix, 1, {"n": 4}),
    (cacheloop, 2, {"iters": 100}),
    (mp_matrix, 2, {"n": 4}),
    (mp_matrix, 3, {"n": 4}),
    (des, 3, {"blocks": 2}),
]


@pytest.mark.parametrize("app,n_cores,params", CONFIGS,
                         ids=[f"{a.__name__.split('.')[-1]}-{n}P"
                              for a, n, _ in CONFIGS])
def test_cycle_counts_locked(app, n_cores, params):
    result = tg_flow(app, n_cores, app_params=params)
    key = (app.__name__.split(".")[-1], n_cores)
    expected_ref, expected_tg = GOLDEN[key]
    assert result.ref_cycles == expected_ref, (
        f"{key}: reference simulation now takes {result.ref_cycles} "
        f"cycles (locked: {expected_ref}) — a core/fabric/memory timing "
        f"model changed")
    assert result.tg_cycles == expected_tg, (
        f"{key}: TG simulation now takes {result.tg_cycles} cycles "
        f"(locked: {expected_tg}) — the translator or TG cost model "
        f"changed")


#: 8-core hotspot traffic replayed on the ×pipes mesh -> (TG cycles,
#: router flit hops, kernel events fired)
MESH_GOLDEN = (9498, 13385, 25273)


def test_mesh_flit_path_locked():
    """The router/NI flit path is timing model too.  Its event count is
    locked beside the cycles because hand-off shortcuts in that path
    (inlined FIFO steps, precomputed links) must fire exactly the events
    the plain FIFO generators fire — same-cycle wake order decides who
    wins a contended channel."""
    spec = TrafficSpec(8, pattern="hotspot", load=0.6, transactions=60,
                       seed=1)
    result = synthetic_flow(spec, interconnect="xpipes")
    got = (result.tg_cycles,
           result.tg_platform.fabric.total_flits_routed,
           result.tg_events)
    assert got == MESH_GOLDEN, (
        f"mesh replay now gives (cycles, flits, events) {got} (locked: "
        f"{MESH_GOLDEN}) — the ×pipes flit path changed")


#: Table-2 runs at the end-to-end benchmark's sizes -> (reference cycles,
#: reference events, TG cycles, TG events, TG OCP transactions)
BUS_GOLDEN = {
    ("mp_matrix", 8): (54453, 26761, 54451, 17790, 2583),
    ("des", 6): (35290, 24112, 35197, 11998, 1698),
}

BUS_CONFIGS = [
    (mp_matrix, 8, {"n": 8}),
    (des, 6, {"blocks": 4}),
]


@pytest.mark.parametrize("app,n_cores,params", BUS_CONFIGS,
                         ids=[f"{a.__name__.split('.')[-1]}-{n}P"
                              for a, n, _ in BUS_CONFIGS])
def test_bus_transaction_path_locked(app, n_cores, params):
    """The shared-bus OCP transaction path (TG transaction loop, address
    decode, arbiter grant, slave access) is timing model too.  Its event
    counts are locked beside the cycles because shortcuts in that path
    must fire exactly the events the plain path fires."""
    result = tg_flow(app, n_cores, app_params=params)
    got = (result.ref_cycles, result.ref_events, result.tg_cycles,
           result.tg_events,
           sum(m.ocp_transactions for m in result.tg_platform.masters))
    expected = BUS_GOLDEN[(app.__name__.split(".")[-1], n_cores)]
    assert got == expected, (
        f"(ref cycles, ref events, TG cycles, TG events, OCP "
        f"transactions) now {got} (locked: {expected}) — the bus "
        f"transaction path changed")


#: The mesh lock's hotspot traffic on the other fabrics -> (TG cycles,
#: kernel events, fabric transactions, fabric beats)
FABRIC_GOLDEN = {
    "ahb": (20518, 3368, 480, 1920),
    "stbus": (6997, 3368, 480, 1920),
    "tlm": (6670, 3610, 480, 1920),
}


@pytest.mark.parametrize("fabric", sorted(FABRIC_GOLDEN))
def test_fabric_transaction_path_locked(fabric):
    spec = TrafficSpec(8, pattern="hotspot", load=0.6, transactions=60,
                       seed=1)
    result = synthetic_flow(spec, interconnect=fabric)
    stats = result.tg_platform.fabric.stats
    got = (result.tg_cycles, result.tg_events, stats.transactions,
           stats.beats_transferred)
    assert got == FABRIC_GOLDEN[fabric], (
        f"{fabric} replay now gives (cycles, events, transactions, beats) "
        f"{got} (locked: {FABRIC_GOLDEN[fabric]}) — the {fabric} "
        f"transaction path changed")


def test_goldens_are_self_consistent():
    """The locked numbers embody the paper's accuracy claim."""
    for (name, _), (ref, tg) in GOLDEN.items():
        assert abs(tg - ref) / ref < 0.03, name
