"""Fabric base class and shared statistics."""

from typing import Dict, Optional

from repro.kernel import Component, Simulator
from repro.interconnect.address_map import AddressMap
from repro.ocp.types import Request


class FabricStats:
    """Counters every fabric maintains (read by the reporting layer)."""

    def __init__(self) -> None:
        self.transactions = 0
        self.read_transactions = 0
        self.write_transactions = 0
        self.beats_transferred = 0
        self.per_master_transactions: Dict[int, int] = {}

    def record(self, master_id: int, request: Request) -> None:
        self.transactions += 1
        if request.cmd.is_read:
            self.read_transactions += 1
        else:
            self.write_transactions += 1
        self.beats_transferred += request.burst_len
        self.per_master_transactions[master_id] = (
            self.per_master_transactions.get(master_id, 0) + 1)


class Fabric(Component):
    """Common base for all interconnect models.

    A fabric owns an :class:`AddressMap` and implements
    ``transport(master_id, request)``: a generator that performs the whole
    transaction and returns a :class:`Response` for reads (``None`` for
    writes).  Write transport returns to the caller at *command accept*
    (posted-write semantics); the fabric must invoke ``request.on_accept()``
    exactly once at the accept instant for every request.
    """

    def __init__(self, sim: Simulator, name: str,
                 address_map: Optional[AddressMap] = None):
        super().__init__(sim, name)
        self.address_map = address_map or AddressMap()
        self.stats = FabricStats()
        #: Optional :class:`~repro.faults.FaultInjector` consulted per hop;
        #: ``None`` (default) keeps transport on the exact unperturbed path.
        self.fault_injector = None

    def transport(self, master_id: int, request: Request):
        """Run one transaction (generator).  Subclasses implement."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type symmetry

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Traffic statistics; fabrics with internal machinery extend."""
        stats = self.stats
        return {
            "transactions": stats.transactions,
            "read_transactions": stats.read_transactions,
            "write_transactions": stats.write_transactions,
            "beats_transferred": stats.beats_transferred,
            "per_master_transactions": {
                str(master_id): count for master_id, count
                in sorted(stats.per_master_transactions.items())},
        }

    def load_state(self, state: dict) -> None:
        from repro.artifacts.errors import SnapshotError
        from repro.kernel.snapshot import state_get
        stats = FabricStats()
        stats.transactions = state_get(state, "transactions", self.name)
        stats.read_transactions = state_get(
            state, "read_transactions", self.name)
        stats.write_transactions = state_get(
            state, "write_transactions", self.name)
        stats.beats_transferred = state_get(
            state, "beats_transferred", self.name)
        per_master = state_get(state, "per_master_transactions", self.name)
        if not isinstance(per_master, dict):
            raise SnapshotError(
                f"snapshot for {self.name}: 'per_master_transactions' "
                f"must be an object")
        try:
            stats.per_master_transactions = {
                int(key): value for key, value in per_master.items()}
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"snapshot for {self.name}: bad per-master entry "
                f"({error})") from None
        self.stats = stats

    def load_quiescent_state(self, state: dict) -> None:
        """Adopt a snapshot taken on a *different* fabric class.

        At a quiescent cycle nothing is in flight, so the only state a
        fabric carries that outlives the boundary is the portable
        traffic accounting in :class:`FabricStats` — arbiters hold no
        grant, FIFOs are empty, no packet is mid-mesh.  Cross-fabric
        restore therefore loads only the base statistics (explicitly via
        ``Fabric.load_state``, so a source fabric's private keys —
        ``"arbiter"``, ``"flits_routed"`` — are ignored rather than
        demanded) and re-derives everything internal from scratch via
        :meth:`_rederive_quiescent`.
        """
        Fabric.load_state(self, state)
        self._rederive_quiescent()

    def _rederive_quiescent(self) -> None:
        """Rebuild fabric-internal machinery for a cross-fabric restore.

        Called by :meth:`load_quiescent_state` after the portable
        statistics are in place.  The default is a no-op: a fabric whose
        internal state is created lazily (or is empty at quiescence)
        needs nothing.  Fabrics with permanent machinery (the ×pipes
        mesh) override this to construct it so the restore settle pass
        can park it.
        """

    @staticmethod
    def _accept(request: Request) -> None:
        """Fire the accept callback exactly once."""
        if request.on_accept is not None:
            callback, request.on_accept = request.on_accept, None
            callback()
