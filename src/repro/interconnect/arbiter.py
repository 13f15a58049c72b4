"""Bus arbiters: fixed-priority, round-robin and TDMA grant policies.

The arbiter decides which requesting master owns a shared resource (the
AHB bus, an STBus slave channel).  Requests arriving in the same cycle
compete in the same decision — the grant fires ``arbitration_cycles`` after
the resource is first requested while idle, and re-arbitration after a
release is overlapped (zero-cycle), as in a pipelined AHB arbiter.

Requests are queued as individual *entries*, so a master may hold several
pending requests at once (a split-transaction master with multiple
outstanding reads, or a posted write still holding the bus while the next
transfer is already requested).  Entries of the same master are granted
oldest-first.
"""

from typing import Dict, List, Optional

from repro.kernel import SimulationError, Simulator


class _Entry:
    __slots__ = ("master_id", "signal", "request_time")

    def __init__(self, master_id: int, signal, request_time: int):
        self.master_id = master_id
        self.signal = signal
        self.request_time = request_time


class Arbiter:
    """Base grant machinery; subclasses implement :meth:`_choose`."""

    def __init__(self, sim: Simulator, name: str = "arbiter",
                 arbitration_cycles: int = 1):
        if arbitration_cycles < 0:
            raise SimulationError("arbitration_cycles must be >= 0")
        self.sim = sim
        self.name = name
        self.arbitration_cycles = arbitration_cycles
        self._entries: List[_Entry] = []   # request order
        self._owner: Optional[int] = None
        self._decision_scheduled = False
        self._grant_names: Dict[int, str] = {}   # master id -> signal name
        # statistics
        self.grants = 0
        self.wait_cycles: Dict[int, int] = {}
        self.busy_cycles = 0
        self._owned_since = 0

    # ------------------------------------------------------------ policy

    def _choose(self, pending: List[int]) -> int:
        """Pick the winning master id from the pending ids (may repeat)."""
        raise NotImplementedError

    # --------------------------------------------------------------- API

    @property
    def owner(self) -> Optional[int]:
        """Master currently owning the resource, or None when free."""
        return self._owner

    @property
    def pending(self) -> List[int]:
        """Master ids of queued requests, oldest first (may repeat)."""
        return [entry.master_id for entry in self._entries]

    def acquire(self, master_id: int):
        """Request ownership (generator); returns once granted.

        A master may queue several concurrent requests (posted write still
        holding the bus, split-transaction reads); they are served
        oldest-first whenever the policy selects that master.
        """
        names = self._grant_names
        if master_id not in names:
            names[master_id] = f"{self.name}.grant{master_id}"
        signal = self.sim.signal(names[master_id])
        self._entries.append(_Entry(master_id, signal, self.sim.now))
        if self._owner is None and not self._decision_scheduled:
            self._decision_scheduled = True
            self.sim.schedule_after(self.arbitration_cycles, self._decide)
        yield signal

    def release(self, master_id: int) -> None:
        """Give up ownership; re-arbitration is immediate (overlapped)."""
        if self._owner != master_id:
            raise SimulationError(
                f"master {master_id} does not own {self.name!r} "
                f"(owner={self._owner})")
        self.busy_cycles += self.sim.now - self._owned_since
        self._owner = None
        if self._entries and not self._decision_scheduled:
            self._decision_scheduled = True
            self.sim.schedule_after(0, self._decide)

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Grant statistics; captured only when idle (no owner, no queue,
        no armed decision — see :meth:`checkpoint_blockers`)."""
        return {
            "grants": self.grants,
            "wait_cycles": {str(master_id): cycles
                            for master_id, cycles
                            in sorted(self.wait_cycles.items())},
            "busy_cycles": self.busy_cycles,
        }

    def load_state(self, state: dict) -> None:
        from repro.artifacts.errors import SnapshotError
        from repro.kernel.snapshot import state_get
        self.grants = state_get(state, "grants", self.name)
        waits = state_get(state, "wait_cycles", self.name)
        if not isinstance(waits, dict):
            raise SnapshotError(
                f"snapshot for {self.name}: 'wait_cycles' must be an "
                f"object")
        try:
            self.wait_cycles = {int(key): value
                                for key, value in waits.items()}
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"snapshot for {self.name}: bad wait_cycles entry "
                f"({error})") from None
        self.busy_cycles = state_get(state, "busy_cycles", self.name)
        self._entries = []
        self._owner = None
        self._decision_scheduled = False
        self._owned_since = 0

    def checkpoint_blockers(self):
        blockers = []
        if self._owner is not None:
            blockers.append(f"owned by master {self._owner}")
        if self._entries:
            blockers.append(f"{len(self._entries)} grant request(s) "
                            f"queued")
        if self._decision_scheduled:
            blockers.append("grant decision scheduled")
        return blockers

    # ------------------------------------------------------------ internal

    def _decide(self) -> None:
        self._decision_scheduled = False
        if self._owner is not None or not self._entries:
            return
        winner_id = self._choose([entry.master_id
                                  for entry in self._entries])
        # never raises: _choose returns a pending id
        if not self._grant_oldest(winner_id):  # pragma: no cover
            raise SimulationError(f"{self.name}: policy chose non-pending "
                                  f"master {winner_id}")

    def _grant_oldest(self, master_id: int) -> bool:
        """Grant ``master_id``'s oldest request; False if none is queued."""
        for slot, entry in enumerate(self._entries):
            if entry.master_id == master_id:
                break
        else:
            return False
        del self._entries[slot]
        self._owner = master_id
        self._owned_since = self.sim.now
        self.grants += 1
        waited = self.sim.now - entry.request_time
        self.wait_cycles[master_id] = (
            self.wait_cycles.get(master_id, 0) + waited)
        entry.signal.notify()
        return True


class FixedPriorityArbiter(Arbiter):
    """Lower master id always wins (AHB default priority scheme).

    Beware: under saturation this *starves* high-id masters — the platform
    default is round-robin for that reason (see
    :class:`repro.platform.config.PlatformConfig`).
    """

    def _choose(self, pending: List[int]) -> int:
        return min(pending)


class RoundRobinArbiter(Arbiter):
    """Fair rotation: the winner is the next id after the previous winner."""

    def __init__(self, sim: Simulator, name: str = "rr_arbiter",
                 arbitration_cycles: int = 1):
        super().__init__(sim, name, arbitration_cycles)
        self._last_winner = -1

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["last_winner"] = self._last_winner
        return state

    def load_state(self, state: dict) -> None:
        from repro.kernel.snapshot import state_get
        super().load_state(state)
        self._last_winner = state_get(state, "last_winner", self.name)

    def _choose(self, pending: List[int]) -> int:
        ordered = sorted(set(pending))
        for candidate in ordered:
            if candidate > self._last_winner:
                self._last_winner = candidate
                return candidate
        self._last_winner = ordered[0]
        return ordered[0]


class TdmaArbiter(Arbiter):
    """Time-division arbitration: a rotating slot table owns the bus.

    ``slot_table[i]`` names the master that may be granted during slot
    *i*; each slot lasts ``slot_cycles``.  A requesting master waits for
    its slot (contention-free guaranteed bandwidth, higher average
    latency) — the classic alternative explored in NoC design-space
    studies.  A request decision simply defers until the current slot's
    master is pending.
    """

    def __init__(self, sim: Simulator, name: str = "tdma_arbiter",
                 arbitration_cycles: int = 1,
                 slot_table: Optional[List[int]] = None,
                 slot_cycles: int = 16):
        super().__init__(sim, name, arbitration_cycles)
        if not slot_table:
            raise SimulationError("TDMA needs a non-empty slot table")
        if slot_cycles < 1:
            raise SimulationError("slot_cycles must be >= 1")
        self.slot_table = list(slot_table)
        self.slot_cycles = slot_cycles

    def current_slot_master(self) -> int:
        """Master owning the current TDMA slot."""
        index = (self.sim.now // self.slot_cycles) % len(self.slot_table)
        return self.slot_table[index]

    def _cycles_to_next_slot_edge(self) -> int:
        return self.slot_cycles - (self.sim.now % self.slot_cycles)

    def _decide(self) -> None:
        self._decision_scheduled = False
        if self._owner is not None or not self._entries:
            return
        if self._grant_oldest(self.current_slot_master()):
            return
        # nobody owns the current slot: re-evaluate at the next slot edge
        self._decision_scheduled = True
        self.sim.schedule_after(self._cycles_to_next_slot_edge(),
                                self._decide)

    def _choose(self, pending: List[int]) -> int:  # pragma: no cover
        raise SimulationError("TDMA grants by slot, not by choice")


_POLICIES = {
    "fixed": FixedPriorityArbiter,
    "round_robin": RoundRobinArbiter,
    "tdma": TdmaArbiter,
}


def make_arbiter(policy: str, sim: Simulator, name: str = "arbiter",
                 arbitration_cycles: int = 1, **kwargs) -> Arbiter:
    """Factory: ``policy`` is ``"fixed"``, ``"round_robin"`` or ``"tdma"``.

    Extra keyword arguments (e.g. ``slot_table``/``slot_cycles`` for TDMA)
    are forwarded to the policy constructor.
    """
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise SimulationError(
            f"unknown arbiter policy {policy!r}; "
            f"choose from {sorted(_POLICIES)}") from None
    return cls(sim, name, arbitration_cycles, **kwargs)
