"""×pipes internals: wormhole channel locking, back-pressure, packets."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import MEM_BASE, MEM2_BASE, TinySystem

from repro.interconnect.xpipes import Flit, Packet
from repro.ocp import OCPCommand, Request


class TestPacketsAndFlits:
    def make_packet(self, flits=3):
        request = Request(OCPCommand.READ, 0x100)
        return Packet(uid=7, src=(0, 0), dest=(1, 1), flit_count=flits,
                      request=request)

    def test_head_and_tail_flags(self):
        packet = self.make_packet(3)
        flits = [Flit(packet, index) for index in range(3)]
        assert flits[0].is_head and not flits[0].is_tail
        assert not flits[1].is_head and not flits[1].is_tail
        assert flits[2].is_tail and not flits[2].is_head

    def test_single_flit_head_is_tail(self):
        packet = self.make_packet(1)
        flit = Flit(packet, 0)
        assert flit.is_head and flit.is_tail

    def test_reprs(self):
        packet = self.make_packet()
        assert "req#7" in repr(packet)
        assert "0/3" in repr(Flit(packet, 0))


class TestLinks:
    @pytest.mark.parametrize("routing", ["xy", "yx"])
    def test_links_lead_every_router_to_every_endpoint(self, routing):
        """Following the precomputed links from any router reaches an
        endpoint's receive FIFO in exactly the Manhattan distance, taking
        the port the routing function names at every hop."""
        system = TinySystem("xpipes", masters=2, mesh=(3, 3),
                            routing=routing)
        noc = system.fabric
        endpoints = list(noc._all_nis())
        fifo_owner = {id(router.inputs[port]): router
                      for router in noc._routers.values()
                      for port in router.inputs}
        for start in noc._routers.values():
            assert set(start.links) == {ni.coords for ni in endpoints}
            for ni in endpoints:
                router, hops = start, 0
                while True:
                    port, downstream = router.links[ni.coords]
                    assert port == noc.route(router.coords, ni.coords)
                    if downstream is ni.receive_fifo:
                        break
                    router = fifo_owner[id(downstream)]
                    hops += 1
                assert hops == (abs(start.coords[0] - ni.coords[0])
                                + abs(start.coords[1] - ni.coords[1]))


class TestWormholeBehaviour:
    def test_packets_never_interleave_per_link(self):
        """Stress two masters sharing paths; responses stay intact.

        If wormhole channel locking were broken, flits of different
        packets would interleave and reassembly would deliver corrupted
        data or crash; heavy traffic makes that near-certain.
        """
        system = TinySystem("xpipes", masters=2)
        for i in range(32):
            system.mem.poke(MEM_BASE + 4 * i, 0x1000 + i)
            system.mem2.poke(MEM2_BASE + 4 * i, 0x2000 + i)
        results = {"a": [], "b": []}

        def reader(port, base, tag, expect_base):
            for i in range(32):
                value = yield from port.read(base + 4 * i)
                assert value == expect_base + i
                results[tag].append(value)

        system.sim.spawn(reader(system.ports[0], MEM_BASE, "a", 0x1000))
        system.sim.spawn(reader(system.ports[1], MEM_BASE, "b", 0x1000))
        system.run()
        assert len(results["a"]) == 32
        assert len(results["b"]) == 32

    def test_burst_data_integrity_under_contention(self):
        system = TinySystem("xpipes", masters=2)
        system.mem.load(MEM_BASE, list(range(100, 116)))

        def burst_reader(port, tag, out):
            for _ in range(6):
                words = yield from port.burst_read(MEM_BASE, 16)
                out.append(words)

        outs = {"a": [], "b": []}
        system.sim.spawn(burst_reader(system.ports[0], "a", outs["a"]))
        system.sim.spawn(burst_reader(system.ports[1], "b", outs["b"]))
        system.run()
        for tag in ("a", "b"):
            for words in outs[tag]:
                assert words == list(range(100, 116))

    def test_small_fifos_still_deliver(self):
        """Depth-1 buffers force maximal back-pressure; traffic survives."""
        system = TinySystem("xpipes", masters=2, fifo_depth=1)

        def writer(port, base):
            for i in range(10):
                yield from port.write(base + 4 * i, i)
            value = yield from port.read(base)
            return value

        p0 = system.sim.spawn(writer(system.ports[0], MEM_BASE))
        p1 = system.sim.spawn(writer(system.ports[1], MEM2_BASE))
        system.run()
        assert p0.result == 0
        assert p1.result == 0

    def test_backpressure_stalls_injection(self):
        """With a slow slave, shallow buffers stall the *producer*: the
        last posted write is accepted later than with deep buffers, even
        though total drain time is slave-bound either way."""
        from repro.memory import SlaveTimings

        def last_accept_time(depth):
            system = TinySystem("xpipes", masters=1, fifo_depth=depth,
                                mem_timings=SlaveTimings(first_beat=12,
                                                         per_beat=4))
            accepts = []

            def writer(port):
                for i in range(8):
                    yield from port.burst_write(MEM_BASE + 64 * i,
                                                list(range(8)))
                    accepts.append(system.sim.now)

            system.sim.spawn(writer(system.ports[0]))
            system.run()
            return accepts[-1]

        assert last_accept_time(1) > last_accept_time(64)

    def test_write_then_read_same_slave_ordered(self):
        """XY routing + per-NI injection keeps same-flow ordering."""
        system = TinySystem("xpipes", masters=1)

        def script(port):
            for value in range(6):
                yield from port.write(MEM_BASE + 0x40, value)
            final = yield from port.read(MEM_BASE + 0x40)
            return final

        process = system.sim.spawn(script(system.ports[0]))
        system.run()
        assert process.result == 5
