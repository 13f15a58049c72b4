"""Contention-free transactional fabric.

The cheapest interconnect model: a fixed request latency, the slave access,
and a fixed response latency, with unlimited concurrency (no arbitration).
The paper notes that reference trace collection "could be performed on top
of a transactional fabric model, further reducing the impact of the
reference simulation" — this fabric is exactly that, and the DSE example
uses it for the one-off tracing run.

Slave-side contention is still modelled (the slave port serialises
accesses), because that is a property of the slave, not of the fabric.
"""

from typing import Optional

from repro.kernel import Simulator
from repro.interconnect.address_map import AddressMap
from repro.interconnect.base import Fabric
from repro.ocp.types import Request


class TlmFabric(Fabric):
    """Fixed-latency, contention-free transactional interconnect.

    Args:
        request_latency: Cycles from master issue to slave-side arrival.
        response_latency: Cycles from slave completion back to the master.
    """

    def __init__(self, sim: Simulator, name: str = "tlm",
                 address_map: Optional[AddressMap] = None,
                 request_latency: int = 2, response_latency: int = 1):
        super().__init__(sim, name, address_map)
        self.request_latency = request_latency
        self.response_latency = response_latency

    def _rederive_quiescent(self) -> None:
        """Nothing to re-derive: the TLM fabric is stateless beyond the
        portable traffic statistics (latencies are construction
        parameters; posted-write helper processes exist only while a
        write is in flight, and at a quiescent cycle none is)."""

    def transport(self, master_id: int, request: Request):
        self.stats.record(master_id, request)
        range_ = self.address_map.decode(request)
        injector = self.fault_injector
        if injector is not None:
            stall = injector.hop_delay(self.name)
            if stall:
                yield stall
        if self.request_latency:
            yield self.request_latency
        # Command accepted once it reaches the slave side; a write
        # completes in the background while the master proceeds.
        self._accept(request)
        if request.cmd.is_write:
            self.sim.spawn(range_.slave_port.access(request),
                           name=f"{self.name}.wr#{request.uid}")
            return None
        response = yield from range_.slave_port.access(request)
        if injector is not None:
            stall = injector.hop_delay(self.name)
            if stall:
                yield stall
        if self.response_latency:
            yield self.response_latency
        return response
