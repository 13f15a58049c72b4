"""Assertion-based OCP protocol checking.

A :class:`ProtocolChecker` is a port monitor that enforces the protocol
contract every fabric must honour, raising :class:`ProtocolViolation`
the moment a rule breaks — assertion-based verification for the
transaction layer.  Rules:

1. phases per transaction occur in order: REQ → ACC (→ RESP for reads);
2. every ACC/RESP matches an outstanding REQ (no orphans, no duplicates);
3. reads get exactly one response; writes get none;
4. a blocking master has at most ``max_outstanding`` transactions in
   flight (1 for armlet cores and plain TGs; more for OOO masters);
5. timestamps never decrease;
6. read responses carry data of the right beat count.

Attach to any master port to make a protocol regression fail loudly
rather than as a mysterious timing drift.  Only
``tests/ocp/test_checker.py`` attaches one today; no platform, harness
or other test suite does.
"""

from typing import Dict

from repro.ocp.monitor import PortMonitor
from repro.ocp.types import OCPError, Request, Response


class ProtocolViolation(OCPError):
    """An OCP protocol rule was broken at a master interface."""


class _Outstanding:
    __slots__ = ("request", "accepted", "req_time")

    def __init__(self, request: Request, req_time: int):
        self.request = request
        self.accepted = False
        self.req_time = req_time


class ProtocolChecker(PortMonitor):
    """Raises :class:`ProtocolViolation` on any protocol break."""

    def __init__(self, name: str = "checker", max_outstanding: int = 1):
        if max_outstanding < 1:
            raise OCPError("max_outstanding must be >= 1")
        self.name = name
        self.max_outstanding = max_outstanding
        self._in_flight: Dict[int, _Outstanding] = {}
        self._last_time: int = -1
        self.transactions_checked = 0

    # ------------------------------------------------------------- helpers

    def _check_time(self, time: int, what: str) -> None:
        if time < self._last_time:
            raise ProtocolViolation(
                f"{self.name}: {what} at cycle {time} before previous "
                f"event at {self._last_time}")
        self._last_time = time

    # --------------------------------------------------------------- hooks

    def on_request(self, time: int, request: Request) -> None:
        self._check_time(time, "request")
        if request.uid in self._in_flight:
            raise ProtocolViolation(
                f"{self.name}: duplicate request for uid {request.uid}")
        if len(self._in_flight) >= self.max_outstanding:
            raise ProtocolViolation(
                f"{self.name}: {len(self._in_flight) + 1} transactions in "
                f"flight exceeds max_outstanding={self.max_outstanding}")
        self._in_flight[request.uid] = _Outstanding(request, time)

    def on_accept(self, time: int, request: Request) -> None:
        self._check_time(time, "accept")
        entry = self._in_flight.get(request.uid)
        if entry is None:
            raise ProtocolViolation(
                f"{self.name}: accept without request (uid {request.uid})")
        if entry.accepted:
            raise ProtocolViolation(
                f"{self.name}: double accept (uid {request.uid})")
        entry.accepted = True
        if request.cmd.is_write:
            # write completes at accept from the master's view
            del self._in_flight[request.uid]
            self.transactions_checked += 1

    def on_response(self, time: int, request: Request,
                    response: Response) -> None:
        self._check_time(time, "response")
        entry = self._in_flight.get(request.uid)
        if entry is None:
            raise ProtocolViolation(
                f"{self.name}: response without outstanding read "
                f"(uid {request.uid})")
        if not request.cmd.is_read:
            raise ProtocolViolation(
                f"{self.name}: response to a write (uid {request.uid})")
        if not entry.accepted:
            raise ProtocolViolation(
                f"{self.name}: response before accept (uid {request.uid})")
        beats = len(response.words)
        if beats != request.burst_len:
            raise ProtocolViolation(
                f"{self.name}: read of {request.burst_len} beat(s) got "
                f"{beats} data word(s)")
        del self._in_flight[request.uid]
        self.transactions_checked += 1

    # ------------------------------------------------------------- queries

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def assert_quiescent(self) -> None:
        """Raise unless every observed transaction completed."""
        if self._in_flight:
            uids = sorted(self._in_flight)
            raise ProtocolViolation(
                f"{self.name}: {len(uids)} transaction(s) never "
                f"completed: uids {uids[:8]}")
