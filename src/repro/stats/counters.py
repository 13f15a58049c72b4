"""Latency statistics, resilience counters and trace summaries."""

from typing import Dict, List, Mapping, Optional

from repro.ocp.types import OCPCommand
from repro.trace.events import Transaction


class ResilienceCounters:
    """Error/retry/timeout/injected-fault counters for one platform run.

    Aggregates the per-component counts maintained by the
    :class:`~repro.faults.FaultInjector` and by resilient TG masters into
    one flat, stable-keyed mapping, so an experiment can assert e.g.
    "N faults injected, M retried, 0 watchdog trips" and two seeded runs
    can be compared for byte-identical degradation stats.
    """

    FIELDS = (
        # injected by the fault layer
        "slave_errors_injected",
        "hop_faults_injected",
        "hop_delay_cycles",
        "hop_stalls_injected",
        "sem_drops_injected",
        "sem_delays_injected",
        # observed / recovered at the masters
        "error_responses",
        "retries",
        "retry_backoff_cycles",
        "degraded_transactions",
        "watchdog_trips",
    )

    def __init__(self) -> None:
        for field in self.FIELDS:
            setattr(self, field, 0)

    def update(self, counts: Mapping[str, int]) -> "ResilienceCounters":
        """Accumulate a mapping of counter name -> count (unknown keys are
        rejected so typos in a component cannot silently vanish)."""
        for key, value in counts.items():
            if key not in self.FIELDS:
                raise KeyError(f"unknown resilience counter {key!r}; "
                               f"known: {list(self.FIELDS)}")
            setattr(self, key, getattr(self, key) + value)
        return self

    @property
    def faults_injected(self) -> int:
        return (self.slave_errors_injected + self.hop_faults_injected
                + self.sem_drops_injected + self.sem_delays_injected)

    @property
    def any_activity(self) -> bool:
        return any(getattr(self, field) for field in self.FIELDS)

    def as_dict(self) -> Dict[str, int]:
        counters = {field: getattr(self, field) for field in self.FIELDS}
        counters["faults_injected"] = self.faults_injected
        return counters


class LatencyStats:
    """Streaming aggregation of integer samples (cycles)."""

    def __init__(self) -> None:
        self._samples: List[int] = []

    def add(self, value: int) -> None:
        self._samples.append(value)

    def extend(self, values) -> None:
        self._samples.extend(values)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> int:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._samples else 0.0

    @property
    def minimum(self) -> int:
        return min(self._samples) if self._samples else 0

    @property
    def maximum(self) -> int:
        return max(self._samples) if self._samples else 0

    def percentile(self, q: float) -> int:
        """q in [0, 100]; nearest-rank percentile."""
        if not self._samples:
            return 0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          round(q / 100 * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def median(self) -> int:
        return self.percentile(50)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 2),
            "min": self.minimum,
            "p50": self.median,
            "p95": self.percentile(95),
            "max": self.maximum,
        }


def trace_summary(transactions: List[Transaction],
                  cycle_ns: int = 5) -> Dict[str, object]:
    """Aggregate a master's trace: mix, latencies, idle time, bandwidth."""
    reads = LatencyStats()
    writes = LatencyStats()
    gaps = LatencyStats()
    counts = {cmd: 0 for cmd in OCPCommand}
    beats = 0
    previous: Optional[Transaction] = None
    for txn in transactions:
        counts[txn.cmd] += 1
        beats += txn.burst_len
        latency = (txn.unblock_ns - txn.req_ns) // cycle_ns
        (reads if txn.cmd.is_read else writes).add(latency)
        if previous is not None:
            gaps.add(max(0, (txn.req_ns - previous.unblock_ns) // cycle_ns))
        previous = txn
    duration = (transactions[-1].unblock_ns // cycle_ns
                if transactions else 0)
    return {
        "transactions": len(transactions),
        "beats": beats,
        "mix": {cmd.value: counts[cmd] for cmd in OCPCommand if counts[cmd]},
        "read_latency": reads.summary(),
        "write_latency": writes.summary(),
        "idle_gaps": gaps.summary(),
        "duration_cycles": duration,
        "beats_per_kcycle": (round(1000 * beats / duration, 2)
                             if duration else 0.0),
    }
