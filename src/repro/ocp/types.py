"""OCP transaction datatypes: commands, requests, responses."""

import enum
import itertools
from typing import Callable, List, Optional, Union

#: Bytes per data word.  The platform is a 32-bit system throughout.
WORD_BYTES = 4
#: Mask for a 32-bit data word / address.
WORD_MASK = 0xFFFFFFFF
#: Mask for a byte.
BYTE_MASK = 0xFF


class OCPError(Exception):
    """Protocol-level error: bad command, unmapped address, malformed burst."""


class OCPCommand(enum.Enum):
    """Transaction commands supported at the OCP interface.

    This mirrors the subset the TG instruction set exposes (paper Table 1):
    single and burst reads and writes.
    """

    READ = "RD"
    WRITE = "WR"
    BURST_READ = "BRD"
    BURST_WRITE = "BWR"

    def __init__(self, value: str) -> None:
        # set once per member: every transaction reads these flags
        self.is_read = value in ("RD", "BRD")
        self.is_write = not self.is_read
        self.is_burst = value.startswith("B")


_request_ids = itertools.count()


class Request:
    """An OCP request as presented by a master.

    Attributes:
        cmd: The :class:`OCPCommand`.
        addr: Byte address (word aligned) of the first beat.
        data: ``None`` for reads, an int for WRITE, a list of ints for
            BURST_WRITE (``len == burst_len``).
        burst_len: Number of beats; 1 for single transfers.
        master_id: Set by the master port when the request is issued.
        uid: Unique id, for tracing and debugging.
        issue_time: Cycle at which the master presented the request.
        accept_time: Cycle at which the command was accepted (wins
            arbitration and is taken by the slave); filled in by the fabric.
        on_accept: Optional callback the fabric invokes at accept time;
            used by the master port to notify monitors.
    """

    __slots__ = ("cmd", "addr", "data", "burst_len", "master_id", "uid",
                 "issue_time", "accept_time", "on_accept")

    def __init__(self, cmd: OCPCommand, addr: int,
                 data: Union[None, int, List[int]] = None,
                 burst_len: int = 1):
        if addr % WORD_BYTES != 0:
            raise OCPError(f"unaligned address 0x{addr:08x}")
        if addr < 0 or addr > WORD_MASK:
            raise OCPError(f"address 0x{addr:x} outside 32-bit space")
        if burst_len < 1:
            raise OCPError(f"burst_len must be >= 1, got {burst_len}")
        if cmd.is_burst and burst_len < 2:
            raise OCPError("burst commands need burst_len >= 2")
        if not cmd.is_burst and burst_len != 1:
            raise OCPError("single transfers must have burst_len == 1")
        if cmd is OCPCommand.WRITE:
            if not isinstance(data, int):
                raise OCPError("WRITE needs a single int data word")
        elif cmd is OCPCommand.BURST_WRITE:
            if not isinstance(data, list) or len(data) != burst_len:
                raise OCPError("BURST_WRITE needs a data list of burst_len words")
        elif data is not None:
            raise OCPError(f"{cmd.value} must not carry data")
        self.cmd = cmd
        self.addr = addr
        self.data = data
        self.burst_len = burst_len
        self.master_id: Optional[int] = None
        self.uid = next(_request_ids)
        self.issue_time: Optional[int] = None
        self.accept_time: Optional[int] = None
        self.on_accept: Optional[Callable[[], None]] = None

    @property
    def beat_addresses(self) -> List[int]:
        """Word-aligned byte address of every beat of the transfer."""
        return [self.addr + i * WORD_BYTES for i in range(self.burst_len)]

    def __repr__(self) -> str:
        return (f"<Request #{self.uid} {self.cmd.value} 0x{self.addr:08x} "
                f"len={self.burst_len}>")


class Response:
    """Response to a read (single word or list of burst beats)."""

    __slots__ = ("request", "data", "error")

    def __init__(self, request: Request,
                 data: Union[None, int, List[int]] = None,
                 error: bool = False):
        self.request = request
        self.data = data
        self.error = error

    @property
    def word(self) -> int:
        """The single data word (first beat for bursts)."""
        if isinstance(self.data, list):
            return self.data[0]
        if self.data is None:
            raise OCPError("response carries no data")
        return self.data

    @property
    def words(self) -> List[int]:
        """All data beats as a list."""
        if isinstance(self.data, list):
            return self.data
        if self.data is None:
            return []
        return [self.data]

    def __repr__(self) -> str:
        flag = " ERROR" if self.error else ""
        return f"<Response to #{self.request.uid}{flag} data={self.data!r}>"
