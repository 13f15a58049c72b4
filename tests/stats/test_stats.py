"""Statistics and reporting tests."""

import pytest
from hypothesis import given, strategies as st

from repro.ocp.types import OCPCommand
from repro.stats import LatencyStats, Table, trace_summary
from repro.trace.events import Transaction


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.median == 0

    def test_basic_aggregates(self):
        stats = LatencyStats()
        stats.extend([1, 2, 3, 4, 5])
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.minimum == 1
        assert stats.maximum == 5
        assert stats.median == 3

    def test_percentile_bounds_checked(self):
        stats = LatencyStats()
        stats.add(1)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.extend([10, 20])
        summary = stats.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p95", "max"}

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    def test_percentiles_are_monotonic(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        values = [stats.percentile(q) for q in (0, 25, 50, 75, 95, 100)]
        assert values == sorted(values)
        assert stats.percentile(0) == min(samples)
        assert stats.percentile(100) == max(samples)


class TestTraceSummary:
    def make_txn(self, cmd, addr, req, unblock, burst_len=1, data=None):
        txn = Transaction(cmd, addr, burst_len, req)
        txn.acc_ns = unblock if cmd.is_write else req + 5
        if cmd.is_read:
            txn.resp_ns = unblock
            txn.read_data = data or 0
        else:
            txn.write_data = data or 0
        return txn

    def test_summary_fields(self):
        txns = [
            self.make_txn(OCPCommand.READ, 0x0, 0, 25),
            self.make_txn(OCPCommand.WRITE, 0x4, 50, 60),
            self.make_txn(OCPCommand.BURST_READ, 0x10, 100, 150,
                          burst_len=4, data=[1, 2, 3, 4]),
        ]
        summary = trace_summary(txns)
        assert summary["transactions"] == 3
        assert summary["beats"] == 6
        assert summary["mix"] == {"RD": 1, "WR": 1, "BRD": 1}
        assert summary["read_latency"]["count"] == 2
        assert summary["write_latency"]["count"] == 1
        assert summary["duration_cycles"] == 30

    def test_empty_trace(self):
        summary = trace_summary([])
        assert summary["transactions"] == 0
        assert summary["beats_per_kcycle"] == 0.0


class TestTable:
    def test_cell_count_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_alignment(self):
        table = Table(["name", "value"], title="Demo")
        table.add_row("x", 1)
        table.add_row("longer", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        header_pos = lines[2].index("value")
        assert lines[4][header_pos:].strip().startswith("1")

    def test_sections(self):
        table = Table(["bench", "gain"])
        table.add_section("SP matrix:")
        table.add_row("1P", "2.15x")
        text = table.render()
        assert "SP matrix:" in text
