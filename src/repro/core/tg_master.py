"""The OCP-master traffic generator — the entity that replaces an IP core.

Execution cost model (must stay in sync with the translator in
:mod:`repro.trace.translator`):

* ``SetRegister``, ``If``, ``Jump`` — one TG cycle each;
* ``Idle(n)`` — n cycles;
* OCP instructions — issue the moment they execute; ``Read``/``BurstRead``
  block until the response arrives, ``Write``/``BurstWrite`` resume at
  command accept (posted, with back-pressure), exactly like the armlet
  core's port usage, so a TG experiences congestion the same way a core
  does.

In :class:`~repro.core.modes.ReplayMode.CLONING` mode, reads do *not*
block the program: transactions are handed to an internal issue queue that
drains in order, modelling a dumb replay device with an outbound FIFO.
The program's own timing then ignores response feedback entirely — the
behaviour Section 3 shows to be inadequate — and the ablation benchmark
measures how wrong it gets.
"""

from typing import Dict, Optional

from repro.artifacts.errors import SnapshotError
from repro.artifacts.header import crc32_hex
from repro.faults.retry import RetryPolicy
from repro.kernel import Component, Simulator
from repro.kernel.errors import WatchdogTimeout
from repro.kernel.snapshot import state_get
from repro.core.isa import (
    RDREG,
    TGError,
    TGOp,
    TG_NUM_REGS,
)
from repro.core.decode import decode_program
from repro.core.modes import ReplayMode
from repro.core.program import TGProgram
from repro.ocp import OCPMasterPort
from repro.ocp.types import OCPCommand, Request


class TGMaster(Component):
    """A traffic generator occupying a master socket.

    Exposes the same surface as :class:`~repro.cpu.core_ip.CoreIP`
    (``port``, ``start()``, ``finished``, ``completion_time``), making the
    two interchangeable on any platform.

    Resilience (both off by default, adding zero cost when off):

    * ``retry_policy`` — a :class:`~repro.faults.RetryPolicy` reissues
      transactions whose :attr:`Response.error` is set, idling the
      exponential backoff between attempts so the retry traffic is
      cycle-accounted like any other TG activity.  Without a policy an
      error response is counted but otherwise ignored (the historical
      behaviour — the program continues on the bogus data).
    * ``watchdog_cycles`` — a per-request watchdog: a transaction not
      complete after this many cycles raises
      :class:`~repro.kernel.WatchdogTimeout` instead of hanging the
      simulation (e.g. a response packet lost by a broken fabric).

    ``tgp_text`` is the program's canonical ``.tgp`` text.  A platform
    built from a recipe (:mod:`repro.harness.checkpoint`) passes the
    recipe's text, and the snapshot's ``program_crc32`` is that text's
    CRC; only a TG built without it, on a platform built by hand,
    formats its program for the CRC.
    """

    def __init__(self, sim: Simulator, name: str, program: TGProgram,
                 retry_policy: Optional[RetryPolicy] = None,
                 watchdog_cycles: Optional[int] = None,
                 tgp_text: Optional[str] = None):
        super().__init__(sim, name)
        program.validate()
        if watchdog_cycles is not None and watchdog_cycles < 1:
            raise TGError(f"watchdog_cycles must be >= 1, "
                          f"got {watchdog_cycles}")
        self.program = program
        self.retry_policy = retry_policy
        self.watchdog_cycles = watchdog_cycles
        self._tgp_crc32 = (None if tgp_text is None
                           else crc32_hex(tgp_text.encode("utf-8")))
        self.port = OCPMasterPort(sim, f"{name}.ocp")
        self.regs = [0] * TG_NUM_REGS
        self.pc = 0
        self.halted = False
        self.halt_time: Optional[int] = None
        self.instructions_executed = 0
        self.max_outstanding_observed = 0
        self.error_responses = 0
        self.ocp_transactions = 0
        self.ocp_beats = 0
        self.ocp_latency_cycles = 0
        self.ocp_latency_max = 0
        self.retries = 0
        self.retry_backoff_cycles = 0
        self.degraded_transactions = 0
        self.watchdog_trips = 0
        self._process = None
        self._issue_fifo = None
        self._issuer = None
        self._outstanding = []
        # live transactions on this TG (main program, non-blocking
        # readers and the cloning issuer all thread through _transact);
        # non-zero means the TG cannot be checkpointed right now
        self._txn_depth = 0

    # ------------------------------------------------------------- control

    def start(self) -> None:
        self.regs = [0] * TG_NUM_REGS
        self.pc = 0
        self.halted = False
        self.halt_time = None
        if self.program.mode is ReplayMode.CLONING:
            self._issue_fifo = self.sim.fifo(name=f"{self.name}.issueq")
            self._issuer = self.sim.spawn(self._issue_process(),
                                          name=f"{self.name}.issuer")
        self._process = self.sim.spawn(self._run(), name=f"{self.name}.run")

    @property
    def process(self):
        return self._process

    @property
    def finished(self) -> bool:
        return self.halted

    @property
    def completion_time(self) -> Optional[int]:
        return self.halt_time

    @property
    def resilience_counters(self) -> Dict[str, int]:
        """Error/retry/timeout counters (merged by the platform summary)."""
        return {
            "error_responses": self.error_responses,
            "retries": self.retries,
            "retry_backoff_cycles": self.retry_backoff_cycles,
            "degraded_transactions": self.degraded_transactions,
            "watchdog_trips": self.watchdog_trips,
        }

    # ----------------------------------------------------------- checkpoint

    def _program_crc32(self) -> str:
        if self._tgp_crc32 is not None:
            return self._tgp_crc32
        return crc32_hex(self.program.to_tgp().encode("utf-8"))

    def state_dict(self) -> dict:
        """Architectural + counter state (no scheduler entries)."""
        return {
            "program_crc32": self._program_crc32(),
            "regs": list(self.regs),
            "pc": self.pc,
            "halted": self.halted,
            "halt_time": self.halt_time,
            "instructions_executed": self.instructions_executed,
            "max_outstanding_observed": self.max_outstanding_observed,
            "error_responses": self.error_responses,
            "ocp_transactions": self.ocp_transactions,
            "ocp_beats": self.ocp_beats,
            "ocp_latency_cycles": self.ocp_latency_cycles,
            "ocp_latency_max": self.ocp_latency_max,
            "retries": self.retries,
            "retry_backoff_cycles": self.retry_backoff_cycles,
            "degraded_transactions": self.degraded_transactions,
            "watchdog_trips": self.watchdog_trips,
            "port_transactions_issued": self.port.transactions_issued,
        }

    def load_state(self, state: dict) -> None:
        """Apply a snapshot to this freshly-built TG (do not ``start()``).

        For a CLONING-mode TG that has not halted, the issue queue and
        its drain process are re-created here (the snapshot guarantees
        the queue was empty and the issuer parked on it); the main
        program wake-up itself arrives later via :meth:`rearm`.
        """
        crc = state_get(state, "program_crc32", self.name)
        ours = self._program_crc32()
        if crc != ours:
            raise SnapshotError(
                f"snapshot for {self.name} was taken with a different "
                f"program (crc32 {crc} != {ours})",
                hint="rebuild the platform with the program the snapshot "
                     "was taken on")
        regs = state_get(state, "regs", self.name)
        if not isinstance(regs, list) or len(regs) != TG_NUM_REGS:
            raise SnapshotError(
                f"snapshot for {self.name} has a malformed register file")
        self.regs = [int(value) for value in regs]
        self.pc = state_get(state, "pc", self.name)
        self.halted = state_get(state, "halted", self.name)
        self.halt_time = state_get(state, "halt_time", self.name)
        self.instructions_executed = state_get(
            state, "instructions_executed", self.name)
        self.max_outstanding_observed = state_get(
            state, "max_outstanding_observed", self.name)
        self.error_responses = state_get(state, "error_responses",
                                         self.name)
        self.ocp_transactions = state_get(state, "ocp_transactions",
                                          self.name)
        self.ocp_beats = state_get(state, "ocp_beats", self.name)
        self.ocp_latency_cycles = state_get(state, "ocp_latency_cycles",
                                            self.name)
        self.ocp_latency_max = state_get(state, "ocp_latency_max",
                                         self.name)
        self.retries = state_get(state, "retries", self.name)
        self.retry_backoff_cycles = state_get(
            state, "retry_backoff_cycles", self.name)
        self.degraded_transactions = state_get(
            state, "degraded_transactions", self.name)
        self.watchdog_trips = state_get(state, "watchdog_trips", self.name)
        self.port.transactions_issued = state_get(
            state, "port_transactions_issued", self.name)
        self._txn_depth = 0
        self._outstanding = []
        if self.program.mode is ReplayMode.CLONING and not self.halted:
            self._issue_fifo = self.sim.fifo(name=f"{self.name}.issueq")
            self._issuer = self.sim.spawn(self._issue_process(),
                                          name=f"{self.name}.issuer")

    def checkpoint_blockers(self):
        blockers = []
        if self._txn_depth:
            blockers.append(
                f"{self._txn_depth} transaction(s) in flight")
        alive = sum(1 for reader in self._outstanding if reader.alive)
        if alive:
            blockers.append(f"{alive} non-blocking read(s) outstanding")
        issuer = self._issuer
        if issuer is not None and issuer.alive:
            if self._issue_fifo is None or len(self._issue_fifo):
                blockers.append("issue queue not drained")
            elif issuer.waiting_on is not self._issue_fifo.not_empty:
                blockers.append("issuer not parked on its issue queue")
        return blockers

    def claim_entry(self, entry):
        """Claim the main program's wake-up when it is re-armable.

        The only pending entry a TG leaves at a quiescent cycle is the
        timed wake-up of its own main process (an ``Idle`` gap or the
        1-cycle cost of a local instruction) — claimable because a fresh
        interpreter generator resumes at ``self.pc`` with the restored
        registers, which is exactly where the captured one slept.
        """
        if entry.process is None or entry.process is not self._process:
            return None
        if self._txn_depth:
            return None
        if any(reader.alive for reader in self._outstanding):
            return None
        return {"kind": "run", "at": entry.time}

    def rearm(self, sim, slot: dict) -> None:
        if state_get(slot, "kind", self.name) != "run":
            raise SnapshotError(
                f"{self.name}: unknown pending-entry kind "
                f"{slot.get('kind')!r}")
        at = state_get(slot, "at", self.name)
        if not isinstance(at, int) or at < sim.now:
            raise SnapshotError(
                f"{self.name}: pending wake-up at cycle {at!r} is before "
                f"the snapshot cycle {sim.now}")
        if self.halted:
            raise SnapshotError(
                f"{self.name}: snapshot re-arms a halted TG")
        self._process = sim.spawn(self._run(), name=f"{self.name}.run",
                                  delay=at - sim.now)

    def owned_idle_processes(self):
        if self._issuer is not None and self._issuer.alive:
            yield self._issuer

    # --------------------------------------------------------- transactions

    def _transact(self, cmd: OCPCommand, addr: int, data=None,
                  burst_len: int = 1):
        """One OCP transaction with optional watchdog and retry-on-error.

        With neither feature configured this is exactly
        ``port.transaction(Request(...))`` — same requests, same yields,
        same event count as the pre-resilience TG.  Latency is measured
        from issue to unblock: response arrival for reads, command
        accept for posted writes (whose beats drain in the background).
        """
        sim = self.sim
        start = sim.now
        policy = self.retry_policy
        watchdog = self.watchdog_cycles
        port = self.port
        failures = 0
        self._txn_depth += 1
        try:
            while True:
                request = Request(cmd, addr, data, burst_len)
                if watchdog is None:
                    response = yield from port.transaction(request)
                else:
                    # the guard event is cancelled on response; the queue
                    # compacts these tombstones, so per-request watchdogs
                    # stay cheap even over millions of transactions
                    txn = sim.spawn(
                        port.transaction(request),
                        name=f"{self.name}.txn#{request.uid}")
                    guard = sim.schedule_after(
                        watchdog,
                        lambda p=txn, r=request: self._watchdog_expired(p, r))
                    response = yield txn
                    guard.cancel()
                if response is None or not response.error:
                    break
                self.error_responses += 1
                if policy is None:
                    # historical behaviour: the error flag is invisible to
                    # the program, which continues on the bogus data
                    break
                failures += 1
                if failures >= policy.max_attempts:
                    if policy.fail_fast:
                        raise TGError(
                            f"{self.name}: {request!r} still erroring after "
                            f"{failures} attempt(s) at cycle {sim.now}")
                    self.degraded_transactions += 1
                    break
                backoff = policy.backoff_cycles(failures)
                self.retries += 1
                self.retry_backoff_cycles += backoff
                if backoff:
                    yield backoff
        finally:
            self._txn_depth -= 1
        elapsed = sim.now - start
        self.ocp_transactions += 1
        self.ocp_beats += burst_len
        self.ocp_latency_cycles += elapsed
        if elapsed > self.ocp_latency_max:
            self.ocp_latency_max = elapsed
        return response

    def _watchdog_expired(self, txn, request: Request) -> None:
        if not txn.alive:  # completed on the same cycle the guard fired
            return
        self.watchdog_trips += 1
        raise WatchdogTimeout(
            f"{self.name}: {request!r} not complete within "
            f"{self.watchdog_cycles} cycles (issued at cycle "
            f"{request.issue_time}, now {self.sim.now}); blocked: "
            f"{self.sim.blocked_report()}")

    # ----------------------------------------------------------- execution

    def _run(self):
        """The interpreter: one instruction per iteration, resuming at
        ``self.pc``.

        Dispatches on the plain-int opcode columns of
        :func:`~repro.core.decode.decode_program` instead of touching a
        NamedTuple and an enum per executed instruction.  Every OCP
        transaction goes through :meth:`_transact`; in CLONING mode the
        OCP instructions hand their operands to the issue queue instead.
        """
        decoded = decode_program(self.program)
        ops = decoded.ops
        field_a = decoded.a
        field_b = decoded.b
        conds = decoded.conds
        imms = decoded.imm
        pool = decoded.pool
        cloning = self.program.mode is ReplayMode.CLONING
        regs = self.regs
        while True:
            pc = self.pc
            op = ops[pc]
            self.pc = pc + 1
            self.instructions_executed += 1
            if op == 6:  # IDLE
                imm = imms[pc]
                if imm:
                    yield imm
            elif op == 5:  # SET_REGISTER
                regs[field_a[pc]] = imms[pc]
                yield 1
            elif op == 1:  # READ
                if cloning:
                    yield from self._issue_fifo.put(
                        (TGOp.READ, regs[field_a[pc]], None))
                else:
                    response = yield from self._transact(
                        OCPCommand.READ, regs[field_a[pc]])
                    regs[RDREG] = response.word
            elif op == 2:  # WRITE
                if cloning:
                    yield from self._issue_fifo.put(
                        (TGOp.WRITE, regs[field_a[pc]], regs[field_b[pc]]))
                else:
                    yield from self._transact(OCPCommand.WRITE,
                                              regs[field_a[pc]],
                                              regs[field_b[pc]])
            elif op == 3:  # BURST_READ
                if cloning:
                    yield from self._issue_fifo.put(
                        (TGOp.BURST_READ, regs[field_a[pc]], field_b[pc]))
                else:
                    response = yield from self._transact(
                        OCPCommand.BURST_READ, regs[field_a[pc]],
                        burst_len=field_b[pc])
                    regs[RDREG] = response.words[-1]
            elif op == 4:  # BURST_WRITE
                data = pool[imms[pc]:imms[pc] + field_b[pc]]
                if cloning:
                    yield from self._issue_fifo.put(
                        (TGOp.BURST_WRITE, regs[field_a[pc]], data))
                else:
                    yield from self._transact(
                        OCPCommand.BURST_WRITE, regs[field_a[pc]], list(data),
                        burst_len=len(data))
            elif op == 10:  # READ_NB
                # out-of-order extension: the read retires in the
                # background; the program continues after a 1-cycle issue
                reader = self.sim.spawn(
                    self._transact(OCPCommand.READ, regs[field_a[pc]]),
                    name=f"{self.name}.nb#{self.instructions_executed}")
                self._outstanding.append(reader)
                self.max_outstanding_observed = max(
                    self.max_outstanding_observed,
                    sum(1 for p in self._outstanding if p.alive))
                yield 1
            elif op == 11:  # FENCE
                for reader in self._outstanding:
                    if reader.alive:
                        yield reader
                self._outstanding = []
            elif op == 7:  # IF
                if conds[pc](regs[field_a[pc]], regs[field_b[pc]]):
                    self.pc = imms[pc]
                yield 1
            elif op == 8:  # JUMP
                self.pc = imms[pc]
                yield 1
            elif op == 9:  # HALT
                # implicit fence: completion means all traffic retired
                for reader in self._outstanding:
                    if reader.alive:
                        yield reader
                self._outstanding = []
                break
            else:  # pragma: no cover - validate() rejects unknown ops
                raise TGError(f"bad opcode {op}")
        if cloning:
            # completion = program done AND issue queue drained
            yield from self._issue_fifo.put(None)
            yield self._issuer
        self.halted = True
        self.halt_time = self.sim.now
        return self.halt_time

    def _issue_process(self):
        """CLONING mode: drain queued transactions in order.

        Operands are snapshots taken when the program executed the
        instruction, since the program races ahead and may rewrite its
        address/data registers before the queue drains.
        """
        regs = self.regs
        while True:
            entry = yield from self._issue_fifo.get()
            if entry is None:
                return
            op, addr, operand = entry
            if op == TGOp.READ:
                response = yield from self._transact(OCPCommand.READ, addr)
                regs[RDREG] = response.word
            elif op == TGOp.WRITE:
                yield from self._transact(OCPCommand.WRITE, addr, operand)
            elif op == TGOp.BURST_READ:
                response = yield from self._transact(
                    OCPCommand.BURST_READ, addr, burst_len=operand)
                regs[RDREG] = response.words[-1]
            elif op == TGOp.BURST_WRITE:
                yield from self._transact(OCPCommand.BURST_WRITE, addr,
                                          list(operand),
                                          burst_len=len(operand))
