"""Measurement and reporting utilities.

* :mod:`repro.stats.counters` — latency/throughput aggregation used by the
  analysis tooling (percentiles, bandwidth);
* :mod:`repro.stats.reporting` — fixed-width table rendering for the
  experiment harness (Table-2-style output) and trace summaries.
"""

from repro.stats.counters import (
    LatencyStats,
    ResilienceCounters,
    trace_summary,
)
from repro.stats.compare import (
    TraceComparison,
    collapse_polls,
    compare_traces,
    drift_report,
)
from repro.stats.energy import EnergyCoefficients, estimate_energy
from repro.stats.reporting import Table, resilience_report
from repro.stats.timeline import lanes_from_collectors, render_timeline
from repro.stats.vcd import export_vcd

__all__ = [
    "EnergyCoefficients",
    "LatencyStats",
    "ResilienceCounters",
    "Table",
    "TraceComparison",
    "collapse_polls",
    "compare_traces",
    "drift_report",
    "estimate_energy",
    "export_vcd",
    "lanes_from_collectors",
    "resilience_report",
    "render_timeline",
    "trace_summary",
]
