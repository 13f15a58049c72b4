"""STBus-style partial crossbar with per-slave arbitration.

Unlike the AHB shared bus, transactions to *different* slaves proceed
concurrently; contention only arises between masters targeting the same
slave, which is resolved by a per-slave arbiter.  This models the
characteristic that made STBus attractive over a single AHB layer and gives
design-space exploration a meaningfully different latency/parallelism point.
"""

from typing import Dict, Optional

from repro.kernel import Simulator
from repro.interconnect.address_map import AddressMap
from repro.interconnect.arbiter import Arbiter, make_arbiter
from repro.interconnect.base import Fabric
from repro.ocp.types import Request


class STBusFabric(Fabric):
    """Partial-crossbar fabric with per-slave channels.

    Args:
        arbiter_policy: Arbitration at each slave channel.
        request_latency: Master → slave-channel path delay.
        response_latency: Slave → master return path delay.
    """

    def __init__(self, sim: Simulator, name: str = "stbus",
                 address_map: Optional[AddressMap] = None,
                 arbiter_policy: str = "round_robin",
                 arbitration_cycles: int = 1,
                 request_latency: int = 1,
                 response_latency: int = 1):
        super().__init__(sim, name, address_map)
        self.arbiter_policy = arbiter_policy
        self.arbitration_cycles = arbitration_cycles
        self.request_latency = request_latency
        self.response_latency = response_latency
        self._slave_arbiters: Dict[int, Arbiter] = {}

    def _arbiter_for(self, slave_port) -> Arbiter:
        key = id(slave_port)
        arbiter = self._slave_arbiters.get(key)
        if arbiter is None:
            arbiter = make_arbiter(
                self.arbiter_policy, self.sim,
                f"{self.name}.arb[{slave_port.name}]",
                self.arbitration_cycles)
            self._slave_arbiters[key] = arbiter
        return arbiter

    # ----------------------------------------------------------- checkpoint

    def _arbiters_by_port_name(self) -> Dict[str, Arbiter]:
        by_id = {id(port): port for port in self.address_map.slave_ports()}
        return {by_id[key].name: arbiter
                for key, arbiter in self._slave_arbiters.items()
                if key in by_id}

    def state_dict(self) -> dict:
        state = super().state_dict()
        # lazily-created per-slave channels, keyed by slave-port name (the
        # only stable cross-build identity)
        state["slave_arbiters"] = {
            name: arbiter.state_dict()
            for name, arbiter
            in sorted(self._arbiters_by_port_name().items())}
        return state

    def load_state(self, state: dict) -> None:
        from repro.artifacts.errors import SnapshotError
        from repro.kernel.snapshot import state_get
        super().load_state(state)
        arbiters = state_get(state, "slave_arbiters", self.name)
        if not isinstance(arbiters, dict):
            raise SnapshotError(
                f"snapshot for {self.name}: 'slave_arbiters' must be an "
                f"object")
        ports = {port.name: port
                 for port in self.address_map.slave_ports()}
        self._slave_arbiters = {}
        for port_name, arbiter_state in arbiters.items():
            port = ports.get(port_name)
            if port is None:
                raise SnapshotError(
                    f"snapshot for {self.name} references unknown slave "
                    f"channel {port_name!r}",
                    hint="the snapshot was taken on a differently-"
                         "configured platform")
            self._arbiter_for(port).load_state(arbiter_state)

    def checkpoint_blockers(self):
        blockers = []
        for name, arbiter in sorted(self._arbiters_by_port_name().items()):
            blockers.extend(f"channel {name}: {reason}"
                            for reason in arbiter.checkpoint_blockers())
        return blockers

    def _rederive_quiescent(self) -> None:
        """Nothing to rebuild: per-slave channel arbiters are created
        lazily on first access, and at a quiescent cycle every channel
        is idle (no grant held), so the lazily-recreated arbiters start
        in exactly the state a quiescent capture would have given them
        — modulo the channel-utilisation accounting, which restarts at
        the restore point."""

    # ------------------------------------------------------------ transport

    def transport(self, master_id: int, request: Request):
        self.stats.record(master_id, request)
        range_ = self.address_map.decode(request)
        arbiter = self._arbiter_for(range_.slave_port)
        injector = self.fault_injector
        if injector is not None:
            stall = injector.hop_delay(self.name)
            if stall:
                yield stall
        if self.request_latency:
            yield self.request_latency
        yield from arbiter.acquire(master_id)
        self._accept(request)
        if request.cmd.is_write:
            self.sim.spawn(
                self._complete_write(master_id, request, range_, arbiter),
                name=f"{self.name}.wr#{request.uid}")
            return None
        response = yield from range_.slave_port.access(request)
        arbiter.release(master_id)
        if injector is not None:
            stall = injector.hop_delay(self.name)
            if stall:
                yield stall
        if self.response_latency:
            yield self.response_latency
        return response

    def _complete_write(self, master_id, request, range_, arbiter):
        yield from range_.slave_port.access(request)
        arbiter.release(master_id)
