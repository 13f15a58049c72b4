"""Unit tests for address decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect import AddressMap
from repro.ocp import OCPCommand, OCPError, Request
from repro.ocp.types import WORD_BYTES


class FakePort:
    def __init__(self, name):
        self.name = name


class TestAddressMap:
    def make(self):
        amap = AddressMap()
        self.ram = FakePort("ram")
        self.dev = FakePort("dev")
        amap.add(0x0000, 0x1000, self.ram, "ram")
        amap.add(0x8000, 0x100, self.dev, "dev")
        return amap

    def test_find_hits(self):
        amap = self.make()
        assert amap.find(0x0).slave_port is self.ram
        assert amap.find(0x0FFC).slave_port is self.ram
        assert amap.find(0x8000).slave_port is self.dev

    def test_find_miss(self):
        amap = self.make()
        assert amap.find(0x1000) is None
        assert amap.find(0x8100) is None

    def test_decode_request(self):
        amap = self.make()
        req = Request(OCPCommand.READ, 0x8000)
        assert amap.decode(req).slave_port is self.dev

    def test_decode_unmapped_raises(self):
        amap = self.make()
        with pytest.raises(OCPError):
            amap.decode(Request(OCPCommand.READ, 0x7000))

    def test_burst_crossing_boundary_raises(self):
        amap = self.make()
        req = Request(OCPCommand.BURST_READ, 0x0FF8, burst_len=4)
        with pytest.raises(OCPError):
            amap.decode(req)

    def test_burst_inside_range_ok(self):
        amap = self.make()
        req = Request(OCPCommand.BURST_READ, 0x0FF0, burst_len=4)
        assert amap.decode(req).slave_port is self.ram

    def test_overlap_rejected(self):
        amap = self.make()
        with pytest.raises(OCPError):
            amap.add(0x0800, 0x1000, FakePort("bad"))

    def test_adjacent_ranges_ok(self):
        amap = self.make()
        amap.add(0x1000, 0x1000, FakePort("next"))
        assert amap.find(0x1000).name == "next"

    def test_zero_size_rejected(self):
        with pytest.raises(OCPError):
            AddressMap().add(0x0, 0, FakePort("zero"))

    def test_unaligned_base_rejected(self):
        with pytest.raises(OCPError):
            AddressMap().add(0x2, 0x100, FakePort("odd"))

    def test_ranges_sorted(self):
        amap = self.make()
        bases = [r.base for r in amap.ranges]
        assert bases == sorted(bases)

    def test_slave_ports_deduplicated(self):
        amap = AddressMap()
        port = FakePort("two_windows")
        amap.add(0x0, 0x100, port)
        amap.add(0x1000, 0x100, port)
        assert amap.slave_ports() == [port]


def _reference_find(ranges, addr):
    """The linear scan ``AddressMap.find`` replaced, kept as the
    reference its bisect lookup must match."""
    for range_ in ranges:
        if range_.base <= addr < range_.base + range_.size:
            return range_
    return None


def _reference_decode(ranges, request):
    range_ = _reference_find(ranges, request.addr)
    if range_ is None:
        raise OCPError(f"unmapped address 0x{request.addr:08x}")
    last = request.addr + (request.burst_len - 1) * WORD_BYTES
    if not range_.base <= last < range_.base + range_.size:
        raise OCPError(f"burst {request!r} crosses out of {range_!r}")
    return range_


def _outcome(decode, request):
    try:
        return decode(request)
    except OCPError as error:
        return str(error)


#: (gap before, size) of each range, in words
_LAYOUT = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)),
                   min_size=1, max_size=8)


class TestFindMatchesLinearScan:
    @settings(max_examples=150, deadline=None)
    @given(layout=_LAYOUT, data=st.data())
    def test_find_and_decode_match_reference(self, layout, data):
        spans, base = [], 0
        for gap, size in layout:
            base += gap * WORD_BYTES
            spans.append((base, size * WORD_BYTES))
            base += size * WORD_BYTES
        amap = AddressMap()
        # insertion order must not matter: add() keeps the ranges sorted;
        # the reference scans them in the order they were added
        ranges = [amap.add(*spans[index], FakePort(f"s{index}"))
                  for index in data.draw(st.permutations(range(len(spans))))]

        probes = {spans[0][0] - WORD_BYTES, base + WORD_BYTES}
        for range_ in ranges:
            # the end and one word past it sit in the gap, if any
            probes.update((range_.base, range_.end - WORD_BYTES,
                           range_.end, range_.end + WORD_BYTES))
        probes = sorted(addr for addr in probes if addr >= 0)
        for addr in probes:
            assert amap.find(addr) is _reference_find(ranges, addr)
            for burst_len in (1, 2, 3):
                cmd = (OCPCommand.READ if burst_len == 1
                       else OCPCommand.BURST_READ)
                request = Request(cmd, addr, burst_len=burst_len)
                assert (_outcome(amap.decode, request)
                        == _outcome(lambda r: _reference_decode(ranges, r),
                                    request))
