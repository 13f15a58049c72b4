"""Property: mixed-fidelity fast-forward never changes results.

Three contracts from docs/CHECKPOINT.md, driven by hypothesis over the
warm-up boundary, target fabric, event queue and fault arming:

* a warm-up captured and restored on the *same* fabric is invisible —
  the continued run's end state is bit-identical to the fully cold run;
* a cross-fabric fast-forward is deterministic: restoring the same
  snapshot twice (in memory and through the ``.snap`` codec), on the
  engine or the heap oracle, with or without fault injection arming at
  the restore point,
  always reaches the same end state;
* the in-memory ``programs`` rebuild shortcut (the warm-up-shared sweep
  hot path) is execution-invisible, and a foreign snapshot is a typed
  :class:`SnapshotRecipeMismatch`, never a wrong result.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import TrafficSpec, generate, synthetic_programs
from repro.artifacts.errors import SnapshotError, SnapshotRecipeMismatch
from repro.artifacts.snap import dump_snap, load_snap_bytes
from repro.harness import (
    build_tg_platform,
    comparable_summary,
    platform_recipe,
    restore_platform,
    warmup_snapshot,
)

from tests.helpers import QUEUE_NAMES, kernel

FABRICS = ("ahb", "stbus", "tlm", "xpipes")
SPEC = TrafficSpec.from_dict({"n_cores": 2, "transactions": 25,
                              "pattern": "uniform", "load": 0.4,
                              "seed": 5})
FAULTS = {"slave_errors": [{"slave": "shared", "probability": 0.2}]}

_PROGRAMS = None
_COLD = {}


def _programs():
    """The round-tripped programs every flow path executes (memoised)."""
    global _PROGRAMS
    if _PROGRAMS is None:
        _PROGRAMS = synthetic_programs(SPEC)[0]
    return _PROGRAMS


def _warmup(cycle, fabric):
    """A warm-up of the round-tripped programs, captured on ``fabric``."""
    return warmup_snapshot(platform_recipe(_programs(), 2, fabric), cycle,
                           fabric)


def _end_state(platform):
    return (platform.sim.now, platform.sim.events_fired,
            comparable_summary(platform.stats_summary()))


def _cold_end(queue, fabric):
    """End state of the never-snapshotted run (memoised per config)."""
    key = (queue, fabric)
    if key not in _COLD:
        with kernel(queue):
            platform = build_tg_platform(_programs(), 2, fabric)
            platform.run()
        _COLD[key] = _end_state(platform)
    return _COLD[key]


@pytest.mark.parametrize("queue", QUEUE_NAMES)
@settings(max_examples=8, deadline=None)
@given(cycle=st.integers(min_value=1, max_value=800),
       fabric=st.sampled_from(FABRICS))
def test_same_fabric_warmup_is_invisible(queue, cycle, fabric):
    # clamp inside the run: warming up past the natural end would park
    # sim.now at the warm-up boundary instead of the final event time
    cycle = min(cycle, _cold_end(queue, fabric)[0] - 1)
    with kernel(queue):
        payload = _warmup(cycle, fabric)
        expected = platform_recipe(_programs(), 2, fabric)
        warm = restore_platform(payload, interconnect=fabric,
                                expected_recipe=expected)
        warm.run()
    assert _end_state(warm) == _cold_end(queue, fabric)


@settings(max_examples=8, deadline=None)
@given(cycle=st.integers(min_value=1, max_value=800),
       target=st.sampled_from(FABRICS),
       faulted=st.booleans())
def test_cross_fabric_fast_forward_is_deterministic(cycle, target,
                                                    faulted):
    """One TLM warm-up, four restore flavours, one end state.

    The snapshot is restored in memory and through the ``.snap`` codec,
    on the engine and on the heap oracle; with ``faulted`` the injector
    arms at the restore point.  All four continuations must agree byte-for-byte
    (including the resilience counters when faults are armed).
    """
    payload = _warmup(cycle, "tlm")
    ends = []
    overrides = {}
    if faulted:
        overrides.update(fault_spec=FAULTS, fault_seed=13)
    expected = platform_recipe(_programs(), 2, target, overrides)
    for queue in QUEUE_NAMES:
        for via_codec in (False, True):
            restored = payload
            if via_codec:
                restored = load_snap_bytes(
                    dump_snap(payload).encode("utf-8")).value
            with kernel(queue):
                platform = restore_platform(restored, interconnect=target,
                                            config_overrides=overrides,
                                            expected_recipe=expected)
                platform.run()
            end = _end_state(platform)
            if faulted:
                end += (platform.resilience_counters().as_dict(),)
            ends.append(end)
    assert all(end == ends[0] for end in ends[1:])


@settings(max_examples=6, deadline=None)
@given(cycle=st.integers(min_value=1, max_value=800),
       target=st.sampled_from(FABRICS))
def test_programs_shortcut_is_execution_invisible(cycle, target):
    """Rebuilding from in-memory programs == re-parsing the recipe.

    ``generate`` programs never went through the assembler; their
    canonical ``.tgp`` text still byte-matches the snapshot recipe, so
    the shortcut must reach the identical end state.
    """
    raw = generate(SPEC)[0]
    payload = _warmup(cycle, "tlm")
    expected = platform_recipe(raw, 2, target, None)
    parsed = restore_platform(payload, interconnect=target,
                              expected_recipe=expected)
    parsed.run()
    shortcut = restore_platform(payload, interconnect=target,
                                expected_recipe=expected, programs=raw)
    shortcut.run()
    assert _end_state(shortcut) == _end_state(parsed)


def test_foreign_snapshot_is_a_typed_mismatch():
    other = TrafficSpec.from_dict({"n_cores": 2, "transactions": 25,
                                   "pattern": "uniform", "load": 0.4,
                                   "seed": 6})
    payload = _warmup(100, "tlm")
    expected = platform_recipe(synthetic_programs(other)[0], 2, "ahb",
                               None)
    with pytest.raises(SnapshotRecipeMismatch):
        restore_platform(payload, interconnect="ahb",
                         expected_recipe=expected)


def test_programs_shortcut_requires_recipe_validation():
    payload = _warmup(100, "tlm")
    with pytest.raises(SnapshotError):
        restore_platform(payload, interconnect="ahb", programs=_programs())
