"""Property: a snapshot taken at *any* cycle restores to a run whose
end state is bit-identical to the uninterrupted run — on the engine and
the heap oracle, across the two, and with fault injection active.  This
is the checkpointing contract stated in docs/CHECKPOINT.md, driven by
hypothesis over the snapshot cycle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import TrafficSpec, generate
from repro.faults import RetryPolicy
from repro.harness import (
    build_tg_platform,
    comparable_summary,
    platform_recipe,
    restore_platform,
)

from tests.helpers import QUEUE_NAMES, kernel

SPEC = TrafficSpec.from_dict({"n_cores": 2, "transactions": 25,
                              "pattern": "hotspot", "load": 0.5,
                              "seed": 3})
FAULTS = {"slave_errors": [{"slave": "shared", "probability": 0.15}],
          "link_faults": [{"jitter": 2}]}
RETRY = RetryPolicy(max_attempts=4, backoff=2, backoff_factor=2,
                    on_exhaust="degrade")

_BASELINES = {}


def _build(queue, faulted):
    overrides = {}
    if faulted:
        overrides.update(fault_spec=FAULTS, fault_seed=13)
    programs, _ = generate(SPEC)
    with kernel(queue):
        platform = build_tg_platform(
            programs, 2, "ahb", overrides,
            retry_policy=RETRY if faulted else None)
    recipe = platform_recipe(programs, 2, "ahb", overrides,
                             retry_policy=RETRY if faulted else None)
    return platform, recipe


def _baseline(queue, faulted):
    """End state of the uninterrupted run (memoised per config)."""
    key = (queue, faulted)
    if key not in _BASELINES:
        platform, _ = _build(queue, faulted)
        platform.run()
        _BASELINES[key] = (
            comparable_summary(platform.stats_summary()),
            platform.resilience_counters().as_dict() if faulted else None,
            platform.sim.now,
            platform.sim.events_fired,
        )
    return _BASELINES[key]


@pytest.mark.parametrize("queue", QUEUE_NAMES)
@pytest.mark.parametrize("faulted", [False, True],
                         ids=["healthy", "faulted"])
@settings(max_examples=8, deadline=None)
@given(cycle=st.integers(min_value=1, max_value=400))
def test_snapshot_any_cycle_restores_bit_identical(queue, faulted, cycle):
    base_summary, base_res, base_now, base_fired = _baseline(
        queue, faulted)

    platform, recipe = _build(queue, faulted)
    # run(until=X) pins the clock at X even past the last event, so a
    # snapshot beyond the natural end would (correctly) restore to a
    # later clock; the property is about interrupting a live run
    platform.run(until=min(cycle, base_now - 1))
    payload = platform.snapshot(recipe)

    with kernel(queue):
        restored = restore_platform(payload)
        restored.run()

    assert restored.sim.now == base_now
    assert restored.sim.events_fired == base_fired
    assert comparable_summary(restored.stats_summary()) == base_summary
    if faulted:
        assert restored.resilience_counters().as_dict() == base_res


@settings(max_examples=6, deadline=None)
@given(cycle=st.integers(min_value=1, max_value=400))
def test_snapshot_restores_across_backends(cycle):
    """A snapshot taken on the heap oracle continued on the engine (and
    vice versa) still reaches the uninterrupted end state — also when
    its recipe names the engine it ran on, as snapshots saved while the
    engine was selectable do."""
    base_summary, _, base_now, base_fired = _baseline("classic", False)

    for source, target in (("classic", "fast"), ("fast", "classic")):
        platform, recipe = _build(source, False)
        platform.run(until=min(cycle, base_now - 1))
        recipe["config_overrides"]["backend"] = source
        payload = platform.snapshot(recipe)
        with kernel(target):
            restored = restore_platform(payload)
            restored.run()
        assert restored.sim.now == base_now
        assert restored.sim.events_fired == base_fired
        assert comparable_summary(restored.stats_summary()) \
            == base_summary
