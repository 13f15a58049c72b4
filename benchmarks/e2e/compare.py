"""Parent-vs-change verdicts from end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines ``run.py --record FILE`` appends, one per
run.  The i-th ``--trace 0`` record of a workload in one file is paired
with the i-th record of that workload in the other; run the two sides
alternately, switching which goes first, so that drift on the machine
hits both.  One row is printed per workload and end-to-end metric of
``BENCHMARK.json``, plus a ``fail_ratio`` row per workload:

* ``too-few-pairs`` - fewer than 10 pairs; no verdict.
* ``gain`` - the change wins at least 9 in 10 pairs (ties count for
  neither), its median beats the parent's by more than the parent's
  interquartile range, and no more operations fail than at the parent.
* ``unresolved`` - the run-to-run spread (interquartile range over
  median, either side) is wider than the metric's bound, and not every
  change run beats every parent run.
* ``regression`` - the change's median is worse than the parent's by
  more than the bound; for ``fail_ratio``, any increase.
* ``ok`` - none of the above.

Exits with 1 when any row is a regression.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


class Row(NamedTuple):
    workload: str
    metric: str
    parent: List[float]
    change: List[float]
    wins: int
    verdict: str


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iqr(values: List[float]) -> float:
    q1, q3 = quartiles(values)
    return q3 - q1


def verdict(parent: List[float], change: List[float], better: str,
            bound: float, fewer_failures_ok: bool = True):
    """``(verdict, wins)`` for one metric's paired samples."""
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        return "too-few-pairs", 0
    parent, change = parent[:pairs], change[:pairs]
    # sign turns "higher is better" into "positive is better"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_median, c_median = statistics.median(parent), statistics.median(change)
    improvement = sign * (c_median - p_median)
    if fewer_failures_ok and wins >= WIN_SHARE * pairs \
            and improvement > iqr(parent):
        return "gain", wins
    spread = max(iqr(parent) / abs(p_median), iqr(change) / abs(c_median))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    if -improvement / abs(p_median) > bound:
        return "regression", wins
    return "ok", wins


def load(path: Path) -> Dict[str, List[Dict]]:
    """Untraced records of a JSON-lines file, grouped by workload."""
    records: Dict[str, List[Dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    records[record["workload"]].append(record)
    return records


def fail_ratio(records: List[Dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(parent: Dict[str, List[Dict]], change: Dict[str, List[Dict]],
            metrics: List[Dict]) -> List[Row]:
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_records, c_records = parent.get(workload, []), \
            change.get(workload, [])
        p_fail, c_fail = fail_ratio(p_records), fail_ratio(c_records)
        for metric in metrics:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in p_records]
            c_values = [r["metrics"][name]["value"] for r in c_records]
            result, wins = verdict(p_values, c_values, metric["better"],
                                   metric["bound"], c_fail <= p_fail)
            rows.append(Row(workload, name, p_values, c_values, wins,
                            result))
        rows.append(Row(workload, "fail_ratio", [p_fail], [c_fail], 0,
                        "regression" if c_fail > p_fail else "ok"))
    return rows


def render(rows: List[Row]) -> str:
    def cell(values: List[float]) -> str:
        if not values:
            return "-"
        q1, q3 = quartiles(values)
        return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"

    lines = [f"{'workload':<18} {'metric':<18} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'delta':>8} {'wins':>6}  "
             f"verdict"]
    for row in rows:
        delta = "-"
        if row.parent and row.change and statistics.median(row.parent):
            p_median = statistics.median(row.parent)
            change = statistics.median(row.change) / p_median - 1
            delta = f"{change:+.1%}"
        pairs = min(len(row.parent), len(row.change))
        wins = f"{row.wins}/{pairs}" if row.metric != "fail_ratio" else "-"
        lines.append(f"{row.workload:<18} {row.metric:<18} "
                     f"{cell(row.parent):<30} {cell(row.change):<30} "
                     f"{delta:>8} {wins:>6}  {row.verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path,
                        help="records of the parent commit")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    rows = compare(load(args.parent), load(args.change), metrics)
    print(render(rows))
    return 1 if any(row.verdict == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
