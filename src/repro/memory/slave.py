"""Generic memory slave with MPARM-style access timing."""

from typing import Optional

from repro.faults.injector import ERROR_DATA
from repro.kernel import Component, Simulator
from repro.memory.store import WordStore
from repro.ocp.types import OCPError, Request, Response


class SlaveTimings:
    """Access-time model for a slave device.

    ``first_beat`` cycles for the initial access (row activation, decode...)
    and ``per_beat`` cycles for each additional burst beat.  These are the
    "slave access time" of Figure 2(a).
    """

    __slots__ = ("first_beat", "per_beat")

    def __init__(self, first_beat: int = 1, per_beat: int = 1):
        if first_beat < 0 or per_beat < 0:
            raise OCPError("slave timings must be non-negative")
        self.first_beat = first_beat
        self.per_beat = per_beat

    def cycles(self, burst_len: int) -> int:
        """Total service time of a transfer of ``burst_len`` beats."""
        return self.first_beat + self.per_beat * max(0, burst_len - 1)

    def __repr__(self) -> str:
        return f"SlaveTimings(first_beat={self.first_beat}, per_beat={self.per_beat})"


class MemorySlave(Component):
    """A plain RAM slave (private or shared memory).

    The slave is mapped at ``base`` in the global address space; requests
    carry global addresses and are translated to store offsets here.
    """

    def __init__(self, sim: Simulator, name: str, base: int, size_bytes: int,
                 timings: Optional[SlaveTimings] = None):
        super().__init__(sim, name)
        self.base = base
        self.size_bytes = size_bytes
        self.store = WordStore(size_bytes)
        self.timings = timings or SlaveTimings()
        self.reads = 0
        self.writes = 0
        #: Optional :class:`~repro.faults.FaultInjector`; ``None`` keeps the
        #: slave on the exact pre-fault-subsystem path.
        self.fault_injector = None
        self.error_responses_sent = 0

    def contains(self, addr: int) -> bool:
        """True when global byte address ``addr`` maps into this slave."""
        return self.base <= addr < self.base + self.size_bytes

    def _offset(self, addr: int) -> int:
        if not self.contains(addr):
            raise OCPError(
                f"address 0x{addr:08x} outside slave {self.name!r} "
                f"[0x{self.base:08x}, 0x{self.base + self.size_bytes:08x})")
        return addr - self.base

    # -- device semantics (overridden by the semaphore/barrier devices) ----

    def read_location(self, offset: int) -> int:
        """Device read semantics for one word; plain load for RAM."""
        return self.store.read_word(offset)

    def write_location(self, offset: int, value: int) -> None:
        """Device write semantics for one word; plain store for RAM."""
        self.store.write_word(offset, value)

    # ------------------------------------------------------------- access

    def access(self, request: Request):
        """Serve a request (generator): consume access time, move data."""
        service = self.timings.cycles(request.burst_len)
        if service:
            yield service
        injector = self.fault_injector
        if injector is not None and injector.slave_error(self.name, request):
            # The access consumed its service time but the operation did not
            # take effect: no data moves, the response carries the error flag
            # (and recognisably bogus beats, so a master that ignores the
            # flag computes on garbage rather than silently-correct values).
            self.error_responses_sent += 1
            if request.cmd.is_read:
                data = ([ERROR_DATA] * request.burst_len
                        if request.cmd.is_burst else ERROR_DATA)
                return Response(request, data, error=True)
            return Response(request, error=True)
        if request.cmd.is_read:
            if request.cmd.is_burst:
                data = [self.read_location(self._offset(addr))
                        for addr in request.beat_addresses]
            else:
                data = self.read_location(self._offset(request.addr))
            self.reads += request.burst_len
            return Response(request, data)
        if request.cmd.is_burst:
            for addr, word in zip(request.beat_addresses, request.data):
                self.write_location(self._offset(addr), word)
        else:
            self.write_location(self._offset(request.addr), request.data)
        self.writes += request.burst_len
        return Response(request)

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Memory contents (sparse) + access counters.

        Subclasses with extra architectural state extend the dict via
        ``super().state_dict()``.  JSON keys must be strings, so offsets
        are serialised as decimal strings.
        """
        store = self.store
        return {
            "words": {str(offset): store.read_word(offset)
                      for offset in store.written_offsets},
            "reads": self.reads,
            "writes": self.writes,
            "error_responses_sent": self.error_responses_sent,
        }

    def load_state(self, state: dict) -> None:
        from repro.artifacts.errors import SnapshotError
        from repro.kernel.snapshot import state_get
        words = state_get(state, "words", self.name)
        if not isinstance(words, dict):
            raise SnapshotError(
                f"snapshot for {self.name}: 'words' must be an object")
        store = WordStore(self.size_bytes)
        try:
            for key, value in words.items():
                store.write_word(int(key), value)
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"snapshot for {self.name}: bad memory word entry "
                f"({error})") from None
        # replace wholesale: device resets applied in __init__ (e.g. the
        # semaphore free words) are part of the captured written set
        self.store = store
        self.reads = state_get(state, "reads", self.name)
        self.writes = state_get(state, "writes", self.name)
        self.error_responses_sent = state_get(
            state, "error_responses_sent", self.name)

    # --------------------------------------------------------- debug/load

    def load(self, addr: int, words) -> None:
        """Bulk-load program/data at a global address (simulation setup)."""
        self.store.load_words(self._offset(addr), words)

    def peek(self, addr: int) -> int:
        """Zero-time read of one word at a global address (for checks)."""
        return self.store.read_word(self._offset(addr))

    def peek_block(self, addr: int, count: int):
        """Zero-time read of ``count`` words (for result verification)."""
        return self.store.dump_words(self._offset(addr), count)

    def poke(self, addr: int, value: int) -> None:
        """Zero-time write of one word at a global address (setup/tests)."""
        self.store.write_word(self._offset(addr), value)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"base=0x{self.base:08x} size=0x{self.size_bytes:x}>")
