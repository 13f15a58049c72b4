"""The decoupling claim under the fault subsystem.

With the fault layer disabled (no spec, or an empty spec) a platform must
behave *bit-identically* to one built before the subsystem existed: same
cycle counts, same event counts, same ``.tgp`` programs, same traces.  The
cycle-exact regression locks in ``tests/integration`` pin the absolute
numbers; these tests pin the equivalences the locks cannot see.
"""

import json

import pytest

from repro.apps import mp_matrix
from repro.faults import FaultSpec, RetryPolicy
from repro.harness import RunOptions, resilience_demo, tg_flow
from repro.trace import collect_traces

pytestmark = pytest.mark.faults


def flow(**options):
    return tg_flow(mp_matrix, 2, app_params={"n": 4},
                   options=RunOptions(**options))


class TestZeroCostWhenDisabled:
    def test_empty_spec_is_bit_identical(self):
        """An armed-but-empty fault layer changes nothing at all."""
        baseline = flow()
        armed = flow(fault_spec=FaultSpec(), fault_seed=99)
        assert armed.tg_cycles == baseline.tg_cycles
        assert armed.tg_events == baseline.tg_events
        assert armed.ref_cycles == baseline.ref_cycles
        tgp = {mid: p.to_tgp() for mid, p in baseline.programs.items()}
        armed_tgp = {mid: p.to_tgp() for mid, p in armed.programs.items()}
        assert armed_tgp == tgp

    def test_idle_retry_policy_is_bit_identical(self):
        """A retry policy with no errors to retry costs nothing."""
        baseline = flow()
        guarded = flow(retry_policy=RetryPolicy(max_attempts=5, backoff=8),
                       progress_window=100_000)
        assert guarded.tg_cycles == baseline.tg_cycles
        counters = guarded.tg_platform.resilience_counters()
        assert not counters.any_activity

    def test_healthy_summary_has_no_fault_keys(self):
        baseline = flow()
        summary = baseline.tg_platform.stats_summary()
        assert "resilience" not in summary
        assert "fault_seed" not in summary
        armed = flow(fault_spec=FaultSpec())
        assert armed.tg_platform.stats_summary()["fault_seed"] == 0


DEGRADED = {
    "slave_errors": [{"slave": "shared", "probability": 0.2}],
    "link_faults": [{"jitter": 2}],
}
POLICY = RetryPolicy(max_attempts=4, backoff=2, backoff_factor=2,
                     on_exhaust="degrade")


class TestSeededReproducibility:
    def degraded_flow(self, seed):
        result = flow(fault_spec=DEGRADED, fault_seed=seed,
                      retry_policy=POLICY)
        counters = result.tg_platform.resilience_counters()
        return result, json.dumps(counters.as_dict(), sort_keys=True)

    def test_same_seed_byte_identical(self):
        first, first_json = self.degraded_flow(7)
        second, second_json = self.degraded_flow(7)
        assert first.tg_cycles == second.tg_cycles
        assert first.tg_events == second.tg_events
        assert first_json == second_json
        assert first.tg_platform.resilience_counters().faults_injected > 0

    def test_different_seed_different_degradation(self):
        first, first_json = self.degraded_flow(7)
        second, second_json = self.degraded_flow(8)
        assert (first.tg_cycles != second.tg_cycles
                or first_json != second_json)

    def test_degraded_traces_reproducible(self):
        """Even full .trc text is identical for a (spec, seed) pair."""
        def trcs(seed):
            result = flow()
            from repro.harness import build_tg_platform
            platform = build_tg_platform(
                result.programs, 2,
                config_overrides={"fault_spec": DEGRADED,
                                  "fault_seed": seed},
                retry_policy=POLICY)
            collectors = collect_traces(platform)
            platform.run()
            return {mid: c.to_trc() for mid, c in collectors.items()}
        assert trcs(5) == trcs(5)


class TestResilienceDemo:
    def test_demo_recovers_from_injected_errors(self):
        """The headline demo: a degraded platform with retrying TGs still
        completes, with every injected error absorbed by a retry."""
        demo = resilience_demo(mp_matrix, n_cores=2,
                               app_params={"n": 4})
        assert demo["completed"] is True
        resilience = demo["resilience"]
        assert resilience["slave_errors_injected"] > 0
        assert resilience["error_responses"] == \
            resilience["slave_errors_injected"]
        assert resilience["retries"] > 0
        assert resilience["retry_backoff_cycles"] > 0
        assert demo["degraded_tg_cycles"] > demo["healthy_tg_cycles"]
        assert demo["slowdown"] > 1.0
