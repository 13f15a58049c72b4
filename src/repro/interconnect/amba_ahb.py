"""Cycle-true AMBA AHB-style shared bus.

This is the interconnect all Table-2 experiments run on.  The model captures
the AHB behaviours that matter at the OCP boundary:

* single shared bus: one transaction in flight at a time (no split/retry);
* **arbitration** — fixed-priority or round-robin, one cycle when the bus
  was idle, overlapped (zero-cycle) re-arbitration on hand-over;
* **address phase** — one cycle; the command is *accepted* at the end of
  the address phase, which is when a posted write releases its master;
* **data phases** — driven by the slave (wait states appear naturally as
  the slave's access-time generator runs while the bus is held);
* **posted writes with back-pressure** — the master resumes at accept, but
  the bus stays busy until the write data lands in the slave, so a
  congested bus delays everything behind it.
"""

from typing import Optional

from repro.kernel import Simulator
from repro.interconnect.address_map import AddressMap
from repro.interconnect.arbiter import make_arbiter
from repro.interconnect.base import Fabric
from repro.ocp.types import Request


class AmbaAhbBus(Fabric):
    """Shared-bus fabric with AHB-flavoured timing.

    Args:
        arbiter_policy: ``"fixed"`` (AHB default) or ``"round_robin"``.
        arbitration_cycles: Grant delay when the bus was idle.
        address_phase_cycles: Length of the address phase.
        response_delay: Read-data return path (slave → master mux) delay.
    """

    def __init__(self, sim: Simulator, name: str = "ahb",
                 address_map: Optional[AddressMap] = None,
                 arbiter_policy: str = "fixed",
                 arbitration_cycles: int = 1,
                 address_phase_cycles: int = 1,
                 response_delay: int = 1,
                 arbiter_kwargs: Optional[dict] = None):
        super().__init__(sim, name, address_map)
        self.arbiter = make_arbiter(arbiter_policy, sim, f"{name}.arbiter",
                                    arbitration_cycles,
                                    **(arbiter_kwargs or {}))
        self.address_phase_cycles = address_phase_cycles
        self.response_delay = response_delay

    @property
    def busy_cycles(self) -> int:
        """Cycles the bus has been owned by some master so far."""
        return self.arbiter.busy_cycles

    def utilisation(self) -> float:
        """Fraction of elapsed cycles the bus was owned."""
        if self.sim.now == 0:
            return 0.0
        return self.arbiter.busy_cycles / self.sim.now

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["arbiter"] = self.arbiter.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        from repro.kernel.snapshot import state_get
        super().load_state(state)
        self.arbiter.load_state(state_get(state, "arbiter", self.name))

    def checkpoint_blockers(self):
        # in-flight posted writes surface as live _complete_write
        # processes, caught by the global unclaimed-process pass
        return [f"arbiter: {reason}"
                for reason in self.arbiter.checkpoint_blockers()]

    def _rederive_quiescent(self) -> None:
        """Nothing to rebuild: at a quiescent cycle the bus is idle —
        no grant held, no posted write draining — so the freshly-built
        arbiter is already in the correct (empty) state.  Its
        ``busy_cycles`` utilisation accounting restarts at the restore
        point: bus utilisation is fabric-internal bookkeeping, not
        portable workload state."""

    # ------------------------------------------------------------ transport

    def transport(self, master_id: int, request: Request):
        self.stats.record(master_id, request)
        range_ = self.address_map.decode(request)
        injector = self.fault_injector
        if injector is not None:
            stall = injector.hop_delay(self.name)  # request-path jitter/stall
            if stall:
                yield stall
        yield from self.arbiter.acquire(master_id)
        if self.address_phase_cycles:
            yield self.address_phase_cycles
        self._accept(request)
        if request.cmd.is_write:
            # Posted write: master resumes now; the bus is held until the
            # write data phase completes at the slave.
            self.sim.spawn(self._complete_write(master_id, request, range_),
                           name=f"{self.name}.wr#{request.uid}")
            return None
        response = yield from range_.slave_port.access(request)
        self.arbiter.release(master_id)
        if injector is not None:
            stall = injector.hop_delay(self.name)  # response-path jitter
            if stall:
                yield stall
        if self.response_delay:
            yield self.response_delay
        return response

    def _complete_write(self, master_id: int, request: Request, range_):
        yield from range_.slave_port.access(request)
        self.arbiter.release(master_id)
