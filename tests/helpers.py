"""Shared builders for protocol/fabric tests: tiny systems wired by hand."""

import contextlib

import repro.platform.system
from repro.kernel import EventQueue, Simulator
from repro.interconnect import (
    AddressMap,
    AmbaAhbBus,
    STBusFabric,
    TlmFabric,
    XpipesNoc,
)
from repro.memory import BarrierDevice, MemorySlave, SemaphoreBank, SlaveTimings
from repro.ocp import OCPMasterPort, OCPSlavePort

@contextlib.contextmanager
def oracle_kernel():
    """Build every platform inside the block on the EventQueue oracle.

    Platforms construct ``Simulator()``, which runs the calendar-queue
    engine; this swaps in ``Simulator(queue=EventQueue())`` so a whole
    flow can be compared against the oracle.
    """
    module = repro.platform.system
    engine = module.Simulator
    module.Simulator = lambda: engine(queue=EventQueue())
    try:
        yield
    finally:
        module.Simulator = engine


#: Names the suites give the two event queues — the names they had when
#: the engine was selectable: "classic" is the heap oracle, "fast" the
#: calendar-queue engine every platform runs on.
QUEUE_NAMES = ("classic", "fast")


def kernel(name):
    """The context in which platforms run on the named queue."""
    if name == "classic":
        return oracle_kernel()
    return contextlib.nullcontext()


MEM_BASE = 0x0000_0000
MEM_SIZE = 0x1_0000
MEM2_BASE = 0x1000_0000
SEM_BASE = 0x2000_0000
BAR_BASE = 0x3000_0000


class TinySystem:
    """A hand-wired system: N master ports, two RAMs, semaphores, a barrier."""

    def __init__(self, fabric_kind="ahb", masters=1, mem_timings=None,
                 **fabric_kwargs):
        self.sim = Simulator()
        amap = AddressMap()
        timings = mem_timings or SlaveTimings(first_beat=1, per_beat=1)
        self.mem = MemorySlave(self.sim, "mem0", MEM_BASE, MEM_SIZE, timings)
        self.mem2 = MemorySlave(self.sim, "mem1", MEM2_BASE, MEM_SIZE, timings)
        self.sems = SemaphoreBank(self.sim, "sems", SEM_BASE, 8, timings)
        self.barrier = BarrierDevice(self.sim, "barrier", BAR_BASE, 4, timings)
        for slave in (self.mem, self.mem2, self.sems, self.barrier):
            port = OCPSlavePort(self.sim, f"{slave.name}.port", slave)
            amap.add(slave.base, slave.size_bytes, port, slave.name)
        if fabric_kind == "ahb":
            self.fabric = AmbaAhbBus(self.sim, address_map=amap, **fabric_kwargs)
        elif fabric_kind == "tlm":
            self.fabric = TlmFabric(self.sim, address_map=amap, **fabric_kwargs)
        elif fabric_kind == "stbus":
            self.fabric = STBusFabric(self.sim, address_map=amap, **fabric_kwargs)
        elif fabric_kind == "xpipes":
            self.fabric = XpipesNoc(self.sim, address_map=amap, **fabric_kwargs)
        else:
            raise ValueError(fabric_kind)
        self.ports = []
        for master_id in range(masters):
            port = OCPMasterPort(self.sim, f"m{master_id}.port")
            port.bind(self.fabric, master_id)
            if fabric_kind == "xpipes":
                self.fabric.attach_master(master_id)
            self.ports.append(port)
        if fabric_kind == "xpipes":
            self.fabric.build()

    def run(self, **kwargs):
        return self.sim.run(**kwargs)


def run_script(system, port_index, script):
    """Spawn a process driving ``script(port)`` and return it."""
    port = system.ports[port_index]
    return system.sim.spawn(script(port), name=f"script{port_index}")


ALL_FABRICS = ["ahb", "tlm", "stbus", "xpipes"]
