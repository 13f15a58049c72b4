"""Kernel perf profile: measure event-loop throughput, write BENCH_kernel.json.

A plain script, so CI can run it, archive the numbers, and fail on
regression against the committed baseline::

    python benchmarks/kernel_perf.py --quick --out BENCH_kernel.json
    python benchmarks/kernel_perf.py --quick \
        --check BENCH_kernel.json --gate-speedup 3.0

Every workload runs on the simulator's calendar-queue engine and on the
binary-heap ``EventQueue`` oracle (through ``Simulator(queue=...)``),
alternately, ``--repeats`` times each.  The script verifies both fired
identical event counts and records the engine's ``speedup`` over the
oracle: the oracle's best wall time over the engine's.  Workloads (all
deterministic — same event sequence every run, on either queue):

* ``event_chain``      — one process sleeping 1 cycle at a time: the bare
  cost of schedule + dispatch + generator resume.
* ``watchdog_churn``   — the resilient-TG pattern: every transaction
  schedules a watchdog guard and cancels it on response, so the queue
  fills with tombstones.  This is the workload lazy-deletion targets.
* ``notify_storm``     — a popular signal notified every cycle with many
  waiters: waiter bookkeeping and zero-delay scheduling (the calendar
  queue's batched same-cycle dispatch shines here).
* ``timeout_churn``    — processes blocking on ``timeout()`` signals that
  are notified early: the waiter-removal + event-cancel path.

Regression checking is **machine-relative**: ``--check`` compares each
workload's engine/oracle *speedup ratio* against the baseline's ratio
and fails when it shrinks by more than ``--max-regress``.  Absolute
events/sec are recorded and printed but never gated on — they vary
machine to machine, so a committed baseline from one host would
spuriously fail (or spuriously pass) on another.  ``--gate-speedup X``
additionally enforces an absolute floor on the ratio for the gated
workloads (``event_chain``, ``notify_storm``) — the engine's reason to
exist.
"""

import argparse
import json
import platform as _platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kernel import CalendarQueue, EventQueue, Simulator  # noqa: E402

#: The two queues every workload runs on, by report name.
QUEUES = {"engine": CalendarQueue, "oracle": EventQueue}

#: Workloads whose engine/oracle speedup --gate-speedup enforces.
GATED_WORKLOADS = ("event_chain", "notify_storm")


def _noop() -> None:
    pass


def wl_event_chain(n_events: int = 200_000, queue=None) -> Simulator:
    sim = Simulator(queue=queue)

    def chain():
        for _ in range(n_events):
            yield 1

    sim.spawn(chain(), name="chain")
    sim.run()
    return sim


def wl_watchdog_churn(transactions: int = 40_000, watchdog: int = 1_000,
                      masters: int = 8, queue=None) -> Simulator:
    """Schedule-then-cancel per transaction, as the resilient TG does."""
    sim = Simulator(queue=queue)
    per_master = transactions // masters

    def master():
        for _ in range(per_master):
            guard = sim.schedule_after(watchdog, _noop)
            yield 1                       # "response" arrives next cycle
            guard.cancel()
            yield 1

    for mid in range(masters):
        sim.spawn(master(), name=f"master{mid}")
    sim.run()
    return sim


def wl_notify_storm(rounds: int = 15_000, waiters: int = 32,
                    queue=None) -> Simulator:
    sim = Simulator(queue=queue)
    sig = sim.signal("storm")

    def waiter():
        for _ in range(rounds):
            yield sig

    def notifier():
        for _ in range(rounds):
            yield 1
            sig.notify()

    for wid in range(waiters):
        sim.spawn(waiter(), name=f"waiter{wid}")
    sim.spawn(notifier(), name="notifier")
    sim.run()
    return sim


def wl_timeout_churn(rounds: int = 15_000, deadline: int = 500,
                     queue=None) -> Simulator:
    """Waiters on cancellable timeouts that are always woken early."""
    from repro.kernel.simulator import timeout

    sim = Simulator(queue=queue)
    sig = sim.signal("early")

    def guarded_waiter():
        for _ in range(rounds):
            guard = timeout(sim, deadline)
            yield sig                     # woken before `guard` fires
            guard.cancel()

    def waker():
        for _ in range(rounds):
            yield 1
            sig.notify()

    sim.spawn(guarded_waiter(), name="guarded")
    sim.spawn(waker(), name="waker")
    sim.run()
    return sim


#: name -> (factory, {param overrides for --quick})
WORKLOADS = {
    "event_chain": (wl_event_chain, {"n_events": 60_000}),
    "watchdog_churn": (wl_watchdog_churn, {"transactions": 12_000}),
    "notify_storm": (wl_notify_storm, {"rounds": 4_000}),
    "timeout_churn": (wl_timeout_churn, {"rounds": 5_000}),
}


def run_profile(quick: bool = False, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall time per workload and queue.  The queues
    alternate inside each workload (engine, oracle, engine, ...), so a
    noisy stretch of the host slows both sides of a speedup, not one."""
    results = {}
    for name, (factory, quick_params) in WORKLOADS.items():
        kwargs = quick_params if quick else {}
        best = dict.fromkeys(QUEUES, float("inf"))
        sims = {}
        for _ in range(repeats):
            for label, make_queue in QUEUES.items():
                start = time.perf_counter()
                sims[label] = factory(queue=make_queue(), **kwargs)
                best[label] = min(best[label], time.perf_counter() - start)
        per_queue = {label: {
            "events": sim.events_fired,
            "sim_cycles": sim.now,
            "wall_s": round(best[label], 6),
            "events_per_sec": round(sim.events_fired / best[label], 1),
            "counters": sim.kernel_counters(),
        } for label, sim in sims.items()}
        engine, oracle = per_queue["engine"], per_queue["oracle"]
        # both queues must simulate the *same* run before their
        # wall-clocks are comparable at all
        for field in ("events", "sim_cycles"):
            if engine[field] != oracle[field]:
                raise AssertionError(
                    f"{name}: engine {field} {engine[field]} != oracle "
                    f"{field} {oracle[field]}")
        results[name] = dict(per_queue, speedup=round(
            engine["events_per_sec"] / oracle["events_per_sec"], 3))
    return {
        "schema": 3,
        "profile": "quick" if quick else "full",
        "repeats": repeats,
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "workloads": results,
    }


def check_regression(current: dict, baseline: dict,
                     max_regress: float) -> list:
    """Machine-relative regression check; returns failure strings.

    Compares the engine/oracle speedup *ratio* per workload — a property
    of the code, not the host — so a baseline committed from one machine
    gates runs on any other.  Workloads the baseline lacks are skipped;
    the absolute events/sec numbers in the baseline are informational
    only.
    """
    failures = []
    base_wl = baseline.get("workloads", {})
    for name, row in current["workloads"].items():
        speedup = row["speedup"]
        base_speedup = (base_wl.get(name) or {}).get("speedup")
        if base_speedup is None:
            continue
        if speedup < base_speedup * (1.0 - max_regress):
            failures.append(
                f"{name}: engine/oracle speedup {speedup:.2f}x is "
                f"{1.0 - speedup / base_speedup:.0%} below baseline "
                f"{base_speedup:.2f}x (budget {max_regress:.0%})")
    return failures


def check_gate(current: dict, threshold: float) -> list:
    """Absolute speedup floor on the gated workloads."""
    failures = []
    for name in GATED_WORKLOADS:
        speedup = current["workloads"][name]["speedup"]
        if speedup < threshold:
            failures.append(
                f"{name}: the engine is {speedup:.2f}x the oracle, "
                f"below the {threshold:.1f}x gate")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="kernel perf profile -> BENCH_kernel.json")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke profile)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N wall time per workload")
    parser.add_argument("--out", metavar="FILE",
                        help="write the profile as JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare the engine/oracle speedup ratio "
                             "against a baseline JSON (machine-relative; "
                             "absolute ev/s is informational only)")
    parser.add_argument("--max-regress", type=float, default=0.30,
                        help="fail --check when a workload's speedup "
                             "ratio shrinks by more than this fraction "
                             "(default 0.30)")
    parser.add_argument("--gate-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the engine is at least X times "
                             "the oracle on "
                             + " and ".join(GATED_WORKLOADS))
    args = parser.parse_args(argv)

    profile = run_profile(quick=args.quick, repeats=args.repeats)
    width = max(len(name) for name in profile["workloads"])
    for name, row in profile["workloads"].items():
        for label in QUEUES:
            stats = row[label]
            print(f"{name:<{width}}  {label:<7}  "
                  f"{stats['events']:>9,} events  "
                  f"{stats['wall_s'] * 1000:8.1f} ms  "
                  f"{stats['events_per_sec']:>12,.0f} ev/s")
        print(f"{name:<{width}}  speedup  engine = "
              f"{row['speedup']:.2f}x oracle")

    if args.out:
        Path(args.out).write_text(json.dumps(profile, indent=2) + "\n")
        print(f"profile written to {args.out}")

    status = 0
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_regression(profile, baseline, args.max_regress)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"regression check OK against {args.check} "
                  f"(speedup-ratio budget {args.max_regress:.0%})")

    if args.gate_speedup is not None:
        failures = check_gate(profile, args.gate_speedup)
        if failures:
            for failure in failures:
                print(f"GATE {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"speedup gate OK: engine >= {args.gate_speedup:.1f}x "
                  f"oracle on {', '.join(GATED_WORKLOADS)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
