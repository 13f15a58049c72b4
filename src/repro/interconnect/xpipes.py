"""×pipes-style packet-switched 2D-mesh NoC.

A wormhole network in the spirit of ×pipes [Dall'Osso et al., ICCD'03], the
second interconnect the paper collects traces on:

* **network interfaces (NIs)** packetise OCP transactions into flits
  (header + address + data beats) and re-assemble them at the far side;
* **routers** have one input FIFO per port; forwarding is input-driven
  wormhole: the head flit acquires the output channel, the whole packet
  streams through at one flit per cycle, the tail releases the channel;
* **XY routing**: packets travel along X first, then Y — deadlock-free and
  in-order per source/destination pair, which preserves OCP ordering per
  master;
* **back-pressure**: full downstream FIFOs stall the packet in place,
  propagating congestion upstream hop by hop.

Each endpoint (master or slave) occupies its own mesh node.  The fabric
auto-places endpoints on the smallest mesh that fits unless explicit
coordinates are given.
"""

import math
from typing import Dict, List, Optional, Tuple

from repro.kernel import Fifo, Simulator
from repro.interconnect.address_map import AddressMap
from repro.interconnect.base import Fabric
from repro.ocp.types import OCPError, Request, Response

#: Router port identifiers.
LOCAL, NORTH, SOUTH, EAST, WEST = "L", "N", "S", "E", "W"
_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}
_STEP = {EAST: (1, 0), WEST: (-1, 0), SOUTH: (0, 1), NORTH: (0, -1)}


class Packet:
    """A packetised transaction travelling through the mesh."""

    __slots__ = ("uid", "src", "dest", "flit_count", "request", "response",
                 "is_request")

    def __init__(self, uid: int, src: Tuple[int, int], dest: Tuple[int, int],
                 flit_count: int, request: Request,
                 response: Optional[Response] = None,
                 is_request: bool = True):
        self.uid = uid
        self.src = src
        self.dest = dest
        self.flit_count = flit_count
        self.request = request
        self.response = response
        self.is_request = is_request

    def __repr__(self) -> str:
        kind = "req" if self.is_request else "resp"
        return f"<Packet {kind}#{self.uid} {self.src}->{self.dest} {self.flit_count}f>"


class Flit:
    """One flow-control unit; ``index`` 0 is the header, the last is tail."""

    __slots__ = ("packet", "index")

    def __init__(self, packet: Packet, index: int):
        self.packet = packet
        self.index = index

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        return self.index == self.packet.flit_count - 1

    def __repr__(self) -> str:
        return f"<Flit {self.index}/{self.packet.flit_count} of {self.packet!r}>"


def xy_route(current: Tuple[int, int], dest: Tuple[int, int]) -> str:
    """Next output port under dimension-ordered (X then Y) routing."""
    cx, cy = current
    dx, dy = dest
    if dx > cx:
        return EAST
    if dx < cx:
        return WEST
    if dy > cy:
        return SOUTH
    if dy < cy:
        return NORTH
    return LOCAL


def yx_route(current: Tuple[int, int], dest: Tuple[int, int]) -> str:
    """Next output port under Y-then-X dimension-ordered routing.

    Equally deadlock-free and in-order per flow; it loads the vertical
    links first, which shifts hotspots — a cheap routing design-space
    axis to explore against ``xy``.
    """
    cx, cy = current
    dx, dy = dest
    if dy > cy:
        return SOUTH
    if dy < cy:
        return NORTH
    if dx > cx:
        return EAST
    if dx < cx:
        return WEST
    return LOCAL


_ROUTERS_BY_NAME = {"xy": xy_route, "yx": yx_route}


class Router:
    """Input-buffered wormhole router at one mesh coordinate."""

    def __init__(self, sim: Simulator, noc: "XpipesNoc",
                 coords: Tuple[int, int], fifo_depth: int):
        self.sim = sim
        self.noc = noc
        self.coords = coords
        self.inputs: Dict[str, Fifo] = {}
        self._output_busy: Dict[str, bool] = {}
        self._output_free: Dict[str, object] = {}
        self._procs: Dict[str, object] = {}
        #: destination node -> (output port, downstream FIFO); filled by
        #: :meth:`XpipesNoc.build` for every endpoint node
        self.links: Dict[Tuple[int, int], Tuple[str, Fifo]] = {}
        self.flits_routed = 0
        name = f"router{coords}"
        for port in (LOCAL, NORTH, SOUTH, EAST, WEST):
            self.inputs[port] = sim.fifo(fifo_depth, f"{name}.in[{port}]")
            self._output_busy[port] = False
            self._output_free[port] = sim.signal(f"{name}.out[{port}].free")

    def start(self) -> None:
        for port in self.inputs:
            self._procs[port] = self.sim.spawn(
                self._input_process(port),
                name=f"router{self.coords}.fw[{port}]")

    def _input_process(self, in_port: str):
        """Forward packets arriving on one input, one at a time (wormhole).

        Every flit moves through the inlined :class:`Fifo` hand-off and the
        process waits on the FIFO and channel signals itself, so no
        generator is created per flit or per packet.
        """
        fifo = self.inputs[in_port]
        items = fifo.items
        not_empty = fifo.not_empty
        not_full = fifo.not_full
        links = self.links
        output_busy = self._output_busy
        output_free = self._output_free
        noc = self.noc
        while True:
            while not items:
                yield not_empty
            flit = items.popleft()
            not_full.notify()
            if flit.index:
                raise OCPError(f"router {self.coords}: expected head flit, "
                               f"got {flit!r}")
            packet = flit.packet
            out_port, downstream = links[packet.dest]
            while output_busy[out_port]:
                yield output_free[out_port]
            output_busy[out_port] = True
            injector = noc.fault_injector
            if injector is not None:
                # per-hop link fault: jitter/stall charged once per packet
                # traversal of this router (wormhole: the whole packet is
                # held up with its head)
                stall = injector.hop_delay(noc.name)
                if stall:
                    yield stall
            down_items = downstream.items
            down_limit = downstream.limit
            tail = packet.flit_count - 1
            while True:
                yield 1  # switch + link traversal, one cycle per flit
                while len(down_items) >= down_limit:
                    yield downstream.not_full
                down_items.append(flit)
                downstream.not_empty.notify()
                self.flits_routed += 1
                if flit.index == tail:
                    break
                while not items:
                    yield not_empty
                flit = items.popleft()
                not_full.notify()
            output_busy[out_port] = False
            output_free[out_port].notify()


class NetworkInterface:
    """Packetisation endpoint attached to one router's LOCAL port."""

    def __init__(self, sim: Simulator, noc: "XpipesNoc",
                 coords: Tuple[int, int], name: str):
        self.sim = sim
        self.noc = noc
        self.coords = coords
        self.name = name
        self.receive_fifo = sim.fifo(noc.fifo_depth, f"{name}.rx")
        self._transmit_fifo = noc._routers[coords].inputs[LOCAL]
        self._tx_busy = False
        self._tx_free = sim.signal(f"{name}.tx_free")
        self._rx_proc = None  # set by the subclass after spawning

    def _inject(self, packet: Packet):
        """Stream a packet's flits into the local router, 1 flit/cycle.

        Injection holds a per-NI lock so concurrent senders (e.g. two read
        responses in flight at a slave NI) never interleave their flits.
        """
        while self._tx_busy:
            yield self._tx_free
        self._tx_busy = True
        fifo = self._transmit_fifo
        items = fifo.items
        limit = fifo.limit
        try:
            for index in range(packet.flit_count):
                yield 1
                while len(items) >= limit:
                    yield fifo.not_full
                items.append(Flit(packet, index))
                fifo.not_empty.notify()
        finally:
            self._tx_busy = False
            self._tx_free.notify()

    def _receive_packet(self):
        """Collect one whole packet from the local router (generator)."""
        fifo = self.receive_fifo
        items = fifo.items
        not_empty = fifo.not_empty
        while not items:
            yield not_empty
        head = items.popleft()
        fifo.not_full.notify()
        flit = head
        tail = head.packet.flit_count - 1
        while flit.index != tail:
            while not items:
                yield not_empty
            flit = items.popleft()
            fifo.not_full.notify()
        return head.packet


class MasterNI(NetworkInterface):
    """Master-side NI: sends request packets, matches response packets."""

    def __init__(self, sim, noc, coords, name, master_id: int):
        super().__init__(sim, noc, coords, name)
        self.master_id = master_id
        self._pending: Dict[int, object] = {}  # packet uid -> signal
        self._rx_proc = sim.spawn(self._rx_process(),
                                  name=f"{name}.rx_proc")

    def send_request(self, request: Request):
        """Transport one OCP transaction over the mesh (generator)."""
        dest_range = self.noc.address_map.decode(request)
        dest = self.noc._slave_coords[id(dest_range.slave_port)]
        flits = self.noc.request_flit_count(request)
        packet = Packet(request.uid, self.coords, dest, flits, request)
        yield from self._inject(packet)
        # Command (and write data) fully handed to the network: OCP accept.
        self.noc._accept(request)
        if request.cmd.is_write:
            return None
        signal = self.sim.signal(f"{self.name}.resp#{request.uid}")
        self._pending[request.uid] = signal
        response = yield signal
        return response

    def _rx_process(self):
        while True:
            packet = yield from self._receive_packet()
            signal = self._pending.pop(packet.uid, None)
            if signal is None:
                raise OCPError(f"{self.name}: unexpected {packet!r}")
            signal.notify(packet.response)


class SlaveNI(NetworkInterface):
    """Slave-side NI: executes arriving requests, returns read responses.

    The NI has a bounded number of packet reassembly buffers
    (``max_pending``): when all are busy waiting on a slow slave, the NI
    stops draining its receive FIFO, which fills and back-pressures the
    network hop by hop — so a slow slave is felt at the injecting master.
    """

    MAX_PENDING = 2

    def __init__(self, sim, noc, coords, name, slave_port):
        super().__init__(sim, noc, coords, name)
        self.slave_port = slave_port
        self._pending = 0
        self._buffer_free = sim.signal(f"{name}.buffer_free")
        self._rx_proc = sim.spawn(self._rx_process(),
                                  name=f"{name}.rx_proc")

    def _rx_process(self):
        while True:
            while self._pending >= self.MAX_PENDING:
                yield self._buffer_free
            packet = yield from self._receive_packet()
            self._pending += 1
            self.sim.spawn(self._serve(packet),
                           name=f"{self.name}.serve#{packet.uid}")

    def _serve(self, packet: Packet):
        try:
            response = yield from self.slave_port.access(packet.request)
        finally:
            self._pending -= 1
            self._buffer_free.notify()
        if packet.request.cmd.is_read:
            flits = self.noc.response_flit_count(packet.request)
            reply = Packet(packet.uid, self.coords, packet.src, flits,
                           packet.request, response, is_request=False)
            yield from self._inject(reply)


class XpipesNoc(Fabric):
    """2D-mesh wormhole NoC fabric.

    Endpoints are placed on mesh nodes automatically (row-major) as masters
    and slaves are attached; pass ``mesh`` to force dimensions.

    Args:
        fifo_depth: Router input buffer depth in flits.
    """

    def __init__(self, sim: Simulator, name: str = "xpipes",
                 address_map: Optional[AddressMap] = None,
                 mesh: Optional[Tuple[int, int]] = None,
                 fifo_depth: int = 4,
                 placement: Optional[Dict] = None,
                 routing: str = "xy"):
        super().__init__(sim, name, address_map)
        self.fifo_depth = fifo_depth
        self._forced_mesh = mesh
        try:
            self.route = _ROUTERS_BY_NAME[routing]
        except KeyError:
            raise OCPError(f"unknown routing {routing!r}; choose from "
                           f"{sorted(_ROUTERS_BY_NAME)}") from None
        self.routing = routing
        #: explicit endpoint placement: int keys are master ids, str keys
        #: are slave names (with or without the ``.port`` suffix); values
        #: are mesh coordinates.  Unplaced endpoints fill the remaining
        #: nodes in row-major order.  Placement is a first-class NoC
        #: design-space axis (hop counts decide latency under XY routing).
        self._placement = dict(placement or {})
        self.width = 0
        self.height = 0
        self._routers: Dict[Tuple[int, int], Router] = {}
        self._master_nis: Dict[int, MasterNI] = {}
        self._slave_coords: Dict[int, Tuple[int, int]] = {}
        self._slave_nis: List[SlaveNI] = []
        self._placement_index = 0
        self._built = False

    # ------------------------------------------------------------ building

    def attach_master(self, master_id: int) -> None:
        """Reserve a mesh node for master ``master_id`` (call before build)."""
        if self._built:
            raise OCPError("cannot attach after the mesh is built")
        self._master_nis[master_id] = None  # placed in build()
        # placement order preserved via insertion order

    def build(self) -> None:
        """Size the mesh, place endpoints, create routers and NIs."""
        if self._built:
            raise OCPError("mesh already built")
        slave_ports = self.address_map.slave_ports()
        endpoint_count = len(self._master_nis) + len(slave_ports)
        if endpoint_count == 0:
            raise OCPError("no endpoints to place")
        if self._forced_mesh:
            self.width, self.height = self._forced_mesh
        else:
            self.width = max(2, math.ceil(math.sqrt(endpoint_count)))
            self.height = max(2, math.ceil(endpoint_count / self.width))
        if self.width * self.height < endpoint_count:
            raise OCPError(
                f"mesh {self.width}x{self.height} too small for "
                f"{endpoint_count} endpoints")
        for y in range(self.height):
            for x in range(self.width):
                self._routers[(x, y)] = Router(self.sim, self, (x, y),
                                               self.fifo_depth)
        taken = self._resolve_placement(slave_ports)
        placed = set(taken.values())
        free_iter = ((x, y) for y in range(self.height)
                     for x in range(self.width)
                     if (x, y) not in placed)
        for master_id in list(self._master_nis):
            coords = taken.get(("m", master_id))
            if coords is None:
                coords = next(free_iter)
            self._master_nis[master_id] = MasterNI(
                self.sim, self, coords, f"{self.name}.mni{master_id}",
                master_id)
        for slave_port in slave_ports:
            coords = taken.get(("s", id(slave_port)))
            if coords is None:
                coords = next(free_iter)
            ni = SlaveNI(self.sim, self, coords,
                         f"{self.name}.sni[{slave_port.name}]", slave_port)
            self._slave_coords[id(slave_port)] = coords
            self._slave_nis.append(ni)
        endpoints = list(self._all_nis())
        for router in self._routers.values():
            router.links.update((ni.coords, self._link(router.coords, ni))
                                for ni in endpoints)
            router.start()
        self._built = True

    def _resolve_placement(self, slave_ports) -> Dict:
        """Normalise user placement into ``{("m", id)|("s", port-id): xy}``."""
        resolved: Dict = {}
        used: Dict[Tuple[int, int], object] = {}
        for key, coords in self._placement.items():
            coords = tuple(coords)
            x, y = coords
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise OCPError(f"placement {key!r} -> {coords} is outside "
                               f"the {self.width}x{self.height} mesh")
            if coords in used:
                raise OCPError(f"placement collision at {coords}: "
                               f"{key!r} and {used[coords]!r}")
            used[coords] = key
            if isinstance(key, int):
                if key not in self._master_nis:
                    raise OCPError(f"placement names unknown master {key}")
                resolved[("m", key)] = coords
                continue
            for slave_port in slave_ports:
                name = slave_port.name
                if key in (name, name[:-5] if name.endswith(".port")
                           else name):
                    resolved[("s", id(slave_port))] = coords
                    break
            else:
                raise OCPError(f"placement names unknown slave {key!r}")
        return resolved

    # ------------------------------------------------------------- helpers

    def request_flit_count(self, request: Request) -> int:
        """Header + address flit + one flit per write data beat."""
        data_beats = request.burst_len if request.cmd.is_write else 0
        return 2 + data_beats

    def response_flit_count(self, request: Request) -> int:
        """Header + one flit per read data beat."""
        return 1 + request.burst_len

    def node_of_master(self, master_id: int) -> Tuple[int, int]:
        return self._master_nis[master_id].coords

    def node_of_slave(self, slave_port) -> Tuple[int, int]:
        return self._slave_coords[id(slave_port)]

    @property
    def total_flits_routed(self) -> int:
        return sum(r.flits_routed for r in self._routers.values())

    def _link(self, coords: Tuple[int, int],
              dest: NetworkInterface) -> Tuple[str, Fifo]:
        """Output port and downstream FIFO of the hop from router
        ``coords`` toward endpoint ``dest``."""
        out_port = self.route(coords, dest.coords)
        if out_port == LOCAL:
            return out_port, dest.receive_fifo
        dx, dy = _STEP[out_port]
        neighbour = self._routers[(coords[0] + dx, coords[1] + dy)]
        return out_port, neighbour.inputs[_OPPOSITE[out_port]]

    # ----------------------------------------------------------- checkpoint

    def _all_nis(self):
        for master_id in sorted(self._master_nis):
            ni = self._master_nis[master_id]
            if ni is not None:
                yield ni
        for ni in self._slave_nis:
            yield ni

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["built"] = self._built
        state["flits_routed"] = {
            f"{x},{y}": router.flits_routed
            for (x, y), router in sorted(self._routers.items())}
        return state

    def load_state(self, state: dict) -> None:
        from repro.artifacts.errors import SnapshotError
        from repro.kernel.snapshot import state_get
        super().load_state(state)
        if state_get(state, "built", self.name) and not self._built:
            # re-create the mesh (routers, NIs and their permanent
            # processes); the settle pass parks everything at t=0
            self.build()
        flits = state_get(state, "flits_routed", self.name)
        if not isinstance(flits, dict):
            raise SnapshotError(
                f"snapshot for {self.name}: 'flits_routed' must be an "
                f"object")
        for key, count in flits.items():
            try:
                x, y = (int(part) for part in key.split(","))
            except ValueError:
                raise SnapshotError(
                    f"snapshot for {self.name}: bad router coordinate "
                    f"{key!r}") from None
            router = self._routers.get((x, y))
            if router is None:
                raise SnapshotError(
                    f"snapshot for {self.name} references unknown router "
                    f"({x}, {y})",
                    hint="the snapshot was taken on a different mesh")
            router.flits_routed = count

    def _rederive_quiescent(self) -> None:
        """Construct the mesh: routers, NIs and their permanent
        processes do not exist on a freshly-built platform (``build()``
        normally runs at ``start()``, which a restore never calls).
        The restore settle pass then parks every router/NI process on
        its empty FIFO.  Per-router flit counters restart at zero from
        the restore point — hop accounting is fabric-internal, not
        portable workload state."""
        if not self._built:
            self.build()

    def checkpoint_blockers(self):
        if not self._built:
            return []
        blockers = []
        for coords, router in sorted(self._routers.items()):
            for port, fifo in router.inputs.items():
                if len(fifo):
                    blockers.append(f"router{coords} input {port} holds "
                                    f"{len(fifo)} flit(s)")
            for port, busy in sorted(router._output_busy.items()):
                if busy:
                    blockers.append(f"router{coords} output {port} "
                                    f"mid-packet")
            for port, proc in router._procs.items():
                if proc.alive and \
                        proc.waiting_on is not router.inputs[port].not_empty:
                    blockers.append(f"router{coords} input {port} "
                                    f"forwarding in progress")
        for ni in self._all_nis():
            if len(ni.receive_fifo):
                blockers.append(f"{ni.name}: {len(ni.receive_fifo)} "
                                f"flit(s) awaiting reassembly")
            if ni._tx_busy:
                blockers.append(f"{ni.name}: injection in progress")
            if ni._pending:
                what = (f"{len(ni._pending)} response(s) awaited"
                        if isinstance(ni._pending, dict)
                        else f"{ni._pending} request(s) in service")
                blockers.append(f"{ni.name}: {what}")
            rx = ni._rx_proc
            if rx is not None and rx.alive and \
                    rx.waiting_on is not ni.receive_fifo.not_empty:
                blockers.append(f"{ni.name}: packet reassembly in "
                                f"progress")
        return blockers

    def owned_idle_processes(self):
        for _, router in sorted(self._routers.items()):
            for proc in router._procs.values():
                if proc.alive:
                    yield proc
        for ni in self._all_nis():
            if ni._rx_proc is not None and ni._rx_proc.alive:
                yield ni._rx_proc

    # ------------------------------------------------------------ transport

    def transport(self, master_id: int, request: Request):
        if not self._built:
            self.build()
        self.stats.record(master_id, request)
        ni = self._master_nis.get(master_id)
        if ni is None:
            raise OCPError(f"master {master_id} not attached to {self.name!r}")
        response = yield from ni.send_request(request)
        return response

    def _accept(self, request: Request) -> None:
        Fabric._accept(request)
