#!/usr/bin/env python3
"""Fault injection: replay a healthy trace on a degraded platform.

The paper's decoupling — capture behaviour once, replay it anywhere —
also covers *adverse* conditions: the trace is collected on a healthy
reference platform, then the TG replay runs against an interconnect
and memories that error, jitter and stall on purpose.  The TGs absorb
injected slave errors with exponential-backoff retries, every decision
comes from one seeded RNG (same spec + seed = byte-identical run), and
the platform reports exactly what went wrong and what it cost.

Run:  python examples/fault_injection.py
"""

from repro.apps import mp_matrix
from repro.faults import FaultSpec, RetryPolicy
from repro.harness import RunOptions, resilience_demo, tg_flow
from repro.stats import resilience_report

#: The shared memory errors every 5th read; every AHB hop can jitter.
DEGRADED = {
    "slave_errors": [{"slave": "shared", "nth": 5}],
    "link_faults": [{"fabric": "ahb", "jitter": 1}],
}

#: Replay under those faults, with TGs that retry with backoff.
DEGRADED_RUN = RunOptions(
    fault_spec=FaultSpec.from_dict(DEGRADED), fault_seed=1,
    retry_policy=RetryPolicy(max_attempts=4, backoff=2, backoff_factor=2,
                             on_exhaust="degrade"),
    watchdog_cycles=50_000)


def main():
    print("=== TG replay under injected faults ===\n")
    demo = resilience_demo(mp_matrix, n_cores=2, app_params={"n": 4},
                           fault_spec=DEGRADED, fault_seed=1)
    print(f"benchmark          : {demo['benchmark']} "
          f"({demo['n_cores']} cores, {demo['interconnect']})")
    print(f"healthy TG cycles  : {demo['healthy_tg_cycles']}")
    print(f"degraded TG cycles : {demo['degraded_tg_cycles']} "
          f"({demo['slowdown']:.2f}x slowdown)")
    print(f"completed          : {demo['completed']}\n")

    print("Where the cycles went:\n")
    result = tg_flow(mp_matrix, 2, app_params={"n": 4},
                     options=DEGRADED_RUN)
    print(resilience_report(result.tg_platform.resilience_counters()))

    print("\nSame spec, same seed — the degradation replays identically:")
    again = tg_flow(mp_matrix, 2, app_params={"n": 4},
                    options=DEGRADED_RUN)
    print(f"  run 1: {result.tg_cycles} TG cycles   "
          f"run 2: {again.tg_cycles} TG cycles   "
          f"identical: {result.tg_cycles == again.tg_cycles}")


if __name__ == "__main__":
    main()
