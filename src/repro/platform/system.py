"""System builder and run control."""

from typing import Dict, List, Optional

from repro.kernel import Simulator
from repro.cpu.assembler import AssembledProgram, assemble
from repro.cpu.core_ip import CoreIP
from repro.faults import FaultInjector
from repro.interconnect import (
    AddressMap,
    AmbaAhbBus,
    STBusFabric,
    TlmFabric,
    XpipesNoc,
)
from repro.memory import BarrierDevice, MemorySlave, SemaphoreBank
from repro.ocp import OCPSlavePort
from repro.platform.config import (
    BAR_BASE,
    SEM_BASE,
    SHARED_BASE,
    PlatformConfig,
)
from repro.stats.counters import ResilienceCounters

_FABRICS = {
    "ahb": AmbaAhbBus,
    "xpipes": XpipesNoc,
    "stbus": STBusFabric,
    "tlm": TlmFabric,
}


class MparmPlatform:
    """A complete simulatable system.

    Typical reference-simulation use::

        platform = MparmPlatform(PlatformConfig(n_masters=2))
        platform.add_core(asm_source_for_core0)
        platform.add_core(asm_source_for_core1)
        platform.run()
        print(platform.cumulative_execution_time)

    Masters are added in socket order (socket *i* = master id *i*).  A
    master is any object exposing ``port`` (bound by the platform),
    ``start()``, ``finished`` and ``completion_time`` — armlet cores and
    traffic generators both qualify, which is the interchangeability at the
    heart of the paper.
    """

    def __init__(self, config: PlatformConfig):
        self.config = config
        self.sim = Simulator()
        self.address_map = AddressMap()
        self.slave_ports: Dict[str, OCPSlavePort] = {}
        self.private_mems: List[MemorySlave] = []
        for core_id in range(config.n_masters):
            mem = MemorySlave(self.sim, f"priv{core_id}",
                              config.private_base(core_id),
                              config.private_size, config.private_timings)
            self._map(mem)
            self.private_mems.append(mem)
        self.shared_mem = MemorySlave(self.sim, "shared", SHARED_BASE,
                                      config.shared_size,
                                      config.shared_timings)
        self.semaphores = SemaphoreBank(self.sim, "sem", SEM_BASE,
                                        config.semaphores,
                                        config.device_timings)
        self.barriers = BarrierDevice(self.sim, "bar", BAR_BASE,
                                      config.barriers, config.device_timings)
        for slave in (self.shared_mem, self.semaphores, self.barriers):
            self._map(slave)
        try:
            fabric_cls = _FABRICS[config.interconnect]
        except KeyError:
            raise ValueError(
                f"unknown interconnect {config.interconnect!r}; choose from "
                f"{sorted(_FABRICS)}") from None
        self.fabric = fabric_cls(self.sim, address_map=self.address_map,
                                 **config.fabric_kwargs)
        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_spec is not None:
            self.fault_injector = FaultInjector(config.fault_spec,
                                                config.fault_seed)
            self.fabric.fault_injector = self.fault_injector
            for slave in (*self.private_mems, self.shared_mem,
                          self.semaphores, self.barriers):
                slave.fault_injector = self.fault_injector
        self.masters: List = []
        self._started = False

    def _map(self, slave: MemorySlave) -> None:
        port = OCPSlavePort(self.sim, f"{slave.name}.port", slave)
        self.address_map.add(slave.base, slave.size_bytes, port, slave.name)
        self.slave_ports[slave.name] = port

    # ------------------------------------------------------------- masters

    @property
    def next_socket(self) -> int:
        return len(self.masters)

    def add_core(self, program, entry: Optional[int] = None) -> CoreIP:
        """Create an armlet core in the next socket.

        ``program`` is either assembly source text (assembled at the core's
        private base) or an :class:`AssembledProgram` already based there.
        The program image is loaded into the core's private memory.
        """
        core_id = self.next_socket
        if core_id >= self.config.n_masters:
            raise ValueError("all master sockets are occupied")
        base = self.config.private_base(core_id)
        if isinstance(program, str):
            program = assemble(program, base=base)
        if not isinstance(program, AssembledProgram):
            raise TypeError("program must be source text or AssembledProgram")
        self.private_mems[core_id].load(program.base, program.words)
        core = CoreIP(self.sim, f"core{core_id}", core_id,
                      self.config.uncached,
                      icache_config=self.config.icache,
                      dcache_config=self.config.dcache)
        core.set_entry(entry if entry is not None else program.entry)
        self._attach(core, core_id)
        return core

    def add_master(self, master) -> None:
        """Attach a pre-built master (e.g. a traffic generator)."""
        core_id = self.next_socket
        if core_id >= self.config.n_masters:
            raise ValueError("all master sockets are occupied")
        self._attach(master, core_id)

    def _attach(self, master, master_id: int) -> None:
        master.port.bind(self.fabric, master_id)
        if isinstance(self.fabric, XpipesNoc):
            self.fabric.attach_master(master_id)
        self.masters.append(master)

    # ------------------------------------------------------------- running

    def start(self) -> None:
        """Start all masters (and finalise the NoC mesh if needed)."""
        if self._started:
            raise RuntimeError("platform already started")
        if len(self.masters) != self.config.n_masters:
            raise RuntimeError(
                f"{len(self.masters)} master(s) added, config expects "
                f"{self.config.n_masters}")
        if isinstance(self.fabric, XpipesNoc):
            self.fabric.build()
        for master in self.masters:
            master.start()
        self._started = True

    def run(self, until: Optional[int] = None,
            progress_window: Optional[int] = None) -> int:
        """Start (if needed) and run until all masters halt.

        Returns the final simulation time.  Raises if the event queue
        drains with unfinished masters (a deadlocked system) unless a
        ``until`` bound stopped the run first.
        ``progress_window`` arms the kernel livelock watchdog
        (:class:`~repro.kernel.LivelockError` after that many events with
        no simulated-time progress — e.g. every poller spinning on a
        semaphore whose release was dropped).
        """
        if not self._started:
            self.start()
        end = self.sim.run(until=until, progress_window=progress_window)
        if until is None:
            stuck = [m for m in self.masters if not m.finished]
            if stuck:
                names = ", ".join(getattr(m, "name", "?") for m in stuck)
                raise RuntimeError(
                    f"simulation drained at cycle {end} with unfinished "
                    f"masters: {names}; blocked processes: "
                    f"{self.sim.blocked_report()}")
        return end

    # ---------------------------------------------------------- checkpoint

    def checkpoint_components(self) -> Dict[str, object]:
        """Ordered registry of every stateful component, by stable name.

        The order (masters, slaves, ports, fabric, injector) is the
        serialisation order; names are stable across rebuilds of the same
        configuration, which is what lets a snapshot taken here apply to
        a freshly-built platform.  Raises if any master is not
        checkpoint-aware (armlet cores hold live caches and pipeline
        state this machinery does not capture — checkpointing is a TG
        feature, like the paper's fast simulation itself).
        """
        from repro.artifacts.errors import SnapshotError
        components: Dict[str, object] = {}
        for master_id, master in enumerate(self.masters):
            if not hasattr(master, "state_dict") \
                    or not hasattr(master, "load_state"):
                raise SnapshotError(
                    f"master {getattr(master, 'name', master_id)!r} is "
                    f"not checkpointable",
                    hint="checkpoint/restore supports TG platforms; "
                         "replace cores with traffic generators")
            components[f"master{master_id}"] = master
        for slave in (*self.private_mems, self.shared_mem,
                      self.semaphores, self.barriers):
            components[f"slave:{slave.name}"] = slave
        for name in sorted(self.slave_ports):
            components[f"port:{name}"] = self.slave_ports[name]
        components["fabric"] = self.fabric
        if self.fault_injector is not None:
            components["injector"] = self.fault_injector
        return components

    def snapshot(self, platform_recipe: Optional[dict] = None) -> dict:
        """Capture a snapshot at the first quiescent cycle >= now.

        May advance simulation time (see
        :func:`repro.kernel.snapshot.advance_to_quiescence`).
        ``platform_recipe`` is stored verbatim for self-contained
        restores (see :mod:`repro.harness.checkpoint`).
        """
        from repro.kernel.snapshot import capture
        return capture(
            self.sim, self.checkpoint_components(),
            platform_recipe if platform_recipe is not None else {})

    def apply_snapshot(self, payload: dict,
                       fresh: Optional[List[str]] = None,
                       rederive: Optional[List[str]] = None) -> None:
        """Restore a snapshot onto this freshly-built, un-started
        platform.  ``fresh`` names components that keep their built state
        (fault-campaign branching passes ``["injector"]``); ``rederive``
        names components that adopt only the portable part of the
        captured state and rebuild the rest from quiescence
        (cross-fabric fast-forward passes ``["fabric"]``)."""
        from repro.kernel.snapshot import restore
        restore(self.sim, self.checkpoint_components(), payload,
                fresh=fresh, rederive=rederive)
        self._started = True

    # ------------------------------------------------------------- results

    @property
    def all_finished(self) -> bool:
        return all(master.finished for master in self.masters)

    @property
    def completion_times(self) -> List[Optional[int]]:
        return [master.completion_time for master in self.masters]

    @property
    def cumulative_execution_time(self) -> int:
        """Sum of per-master completion cycles — Table 2's accuracy metric."""
        total = 0
        for master in self.masters:
            if master.completion_time is None:
                raise RuntimeError("a master has not finished")
            total += master.completion_time
        return total

    def resilience_counters(self) -> ResilienceCounters:
        """Merged fault/error/retry counters from injector, slaves and
        masters (all zero on a healthy platform)."""
        counters = ResilienceCounters()
        if self.fault_injector is not None:
            counters.update(self.fault_injector.counters)
        for master in self.masters:
            per_master = getattr(master, "resilience_counters", None)
            if per_master:
                counters.update(per_master)
        return counters

    def stats_summary(self) -> Dict[str, object]:
        """Headline statistics for reports."""
        summary = {
            "cycles": self.sim.now,
            "events": self.sim.events_fired,
            "kernel": self.sim.kernel_counters(),
            "fabric_transactions": self.fabric.stats.transactions,
            "fabric_beats": self.fabric.stats.beats_transferred,
        }
        if isinstance(self.fabric, AmbaAhbBus):
            summary["bus_utilisation"] = round(self.fabric.utilisation(), 4)
        # keys appear only when the fault layer is armed, so healthy-run
        # summaries are unchanged from pre-fault-subsystem behaviour
        if self.fault_injector is not None:
            summary["fault_seed"] = self.fault_injector.seed
            summary["resilience"] = self.resilience_counters().as_dict()
        return summary
