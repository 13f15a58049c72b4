"""Platform configuration and the global memory map."""

from typing import Dict, Optional, Union

from repro.cpu.cache import CacheConfig
from repro.faults.spec import FaultSpec
from repro.memory.slave import SlaveTimings

#: Per-core private memory stride: core *i*'s RAM starts at ``i * stride``.
PRIVATE_STRIDE = 0x0100_0000
#: Shared memory base (uncached from here upward).
SHARED_BASE = 0x1900_0000
#: Hardware semaphore bank base.
SEM_BASE = 0x1A00_0000
#: Barrier/counter device base.
BAR_BASE = 0x1B00_0000

#: Default sizes.
DEFAULT_PRIVATE_SIZE = 0x1_0000       # 64 KiB per core
DEFAULT_SHARED_SIZE = 0x4_0000        # 256 KiB
DEFAULT_SEMAPHORES = 32
DEFAULT_BARRIERS = 16


class PlatformConfig:
    """Everything needed to build a system.

    Args:
        n_masters: Number of master sockets (cores or TGs).
        interconnect: ``"ahb"``, ``"xpipes"``, ``"stbus"`` or ``"tlm"``.
        fabric_kwargs: Extra keyword arguments for the fabric constructor
            (e.g. ``arbiter_policy="round_robin"`` for AHB).
        private_size / shared_size: Memory sizes in bytes.
        private_timings / shared_timings / device_timings: Slave access
            times.
        icache / dcache: Cache geometries for armlet cores.
        fault_spec: Optional :class:`~repro.faults.FaultSpec` (or a plain
            dict parsed as one) describing the degraded-platform scenario;
            ``None`` builds a fully healthy platform with the fault layer
            entirely absent.
        fault_seed: Seed of the injector's private RNG; a ``(spec, seed)``
            pair replays the identical fault sequence on every run.
    """

    def __init__(self, n_masters: int = 1, interconnect: str = "ahb",
                 fabric_kwargs: Optional[Dict] = None,
                 private_size: int = DEFAULT_PRIVATE_SIZE,
                 shared_size: int = DEFAULT_SHARED_SIZE,
                 semaphores: int = DEFAULT_SEMAPHORES,
                 barriers: int = DEFAULT_BARRIERS,
                 private_timings: Optional[SlaveTimings] = None,
                 shared_timings: Optional[SlaveTimings] = None,
                 device_timings: Optional[SlaveTimings] = None,
                 icache: Optional[CacheConfig] = None,
                 dcache: Optional[CacheConfig] = None,
                 fault_spec: Union[None, Dict, FaultSpec] = None,
                 fault_seed: int = 0):
        if n_masters < 1:
            raise ValueError("need at least one master")
        if n_masters * PRIVATE_STRIDE > SHARED_BASE:
            raise ValueError(f"too many masters ({n_masters}) for the "
                             f"private-memory window")
        self.n_masters = n_masters
        self.interconnect = interconnect
        self.fabric_kwargs = dict(fabric_kwargs or {})
        # Fixed-priority arbitration starves high-id masters once pollers
        # saturate the bus (observed: core N-1 never fetches code under 5+
        # polling peers).  The paper's AMBA platform scales to 12 cores, so
        # the platform default is fair round-robin; pass arbiter_policy
        # explicitly to study starvation.
        if interconnect == "ahb":
            self.fabric_kwargs.setdefault("arbiter_policy", "round_robin")
        self.private_size = private_size
        self.shared_size = shared_size
        self.semaphores = semaphores
        self.barriers = barriers
        self.private_timings = private_timings or SlaveTimings(1, 1)
        self.shared_timings = shared_timings or SlaveTimings(2, 1)
        self.device_timings = device_timings or SlaveTimings(1, 1)
        self.icache = icache or CacheConfig(lines=128, line_words=4)
        self.dcache = dcache or CacheConfig(lines=128, line_words=4)
        if isinstance(fault_spec, dict):
            fault_spec = FaultSpec.from_dict(fault_spec)
        self.fault_spec = fault_spec
        self.fault_seed = fault_seed

    def private_base(self, core_id: int) -> int:
        """Base address of core ``core_id``'s private memory."""
        if not 0 <= core_id < self.n_masters:
            raise ValueError(f"core id {core_id} out of range")
        return core_id * PRIVATE_STRIDE

    def uncached(self, addr: int) -> bool:
        """Cacheability predicate: shared/device space is uncached."""
        return addr >= SHARED_BASE

    def clone(self, **overrides) -> "PlatformConfig":
        """A copy of this config with some fields replaced."""
        fields = dict(
            n_masters=self.n_masters,
            interconnect=self.interconnect,
            fabric_kwargs=dict(self.fabric_kwargs),
            private_size=self.private_size,
            shared_size=self.shared_size,
            semaphores=self.semaphores,
            barriers=self.barriers,
            private_timings=self.private_timings,
            shared_timings=self.shared_timings,
            device_timings=self.device_timings,
            icache=self.icache,
            dcache=self.dcache,
            fault_spec=self.fault_spec,
            fault_seed=self.fault_seed,
        )
        fields.update(overrides)
        return PlatformConfig(**fields)
