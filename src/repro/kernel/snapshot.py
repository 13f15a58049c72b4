"""Checkpoint/restore of a running simulation at quiescent cycles.

The paper's core trick — replacing full cores with compact TG state
machines — means simulation state is small and *explicitly enumerable*,
which makes mid-run snapshots cheap in a way generator-based DES
normally is not.  The one thing that cannot be serialised is a live
generator frame, so snapshots are only taken at **quiescent cycle
boundaries**: cycles where every pending queue entry is a plain
payload-free process wake-up that some component *claims* (it knows the
structural position the process sleeps at and can re-create it), and
every live process is either claimed that way or parked on a structural
idle point (a router input waiting on its empty FIFO, a cloning issuer
waiting on its empty issue queue).  Nothing else — no transaction in
flight, no posted write draining in the background, no watchdog guard
armed — may exist at the snapshot cycle; the scan simply advances the
simulation event-by-event until such a cycle appears (they are frequent:
every gap between transactions is one) or a typed error reports why not.

The protocol
------------

A *checkpointable* component implements (duck-typed, no registration):

``state_dict() -> dict``
    JSON-serialisable architectural state (registers, counters, memory
    words, RNG state) — everything except scheduler entries.

``load_state(state: dict) -> None``
    The inverse, applied to a freshly-built component at cycle 0.  May
    spawn the component's permanent idle machinery (it is *settled* to
    its parked position by a ``run(until=0)`` before the clock is moved
    to the snapshot cycle).

and optionally:

``checkpoint_blockers() -> list[str]``
    Reasons this component is not quiescent right now (empty = ready).

``claim_entry(entry: PendingEntry) -> dict | None``
    If the pending queue entry belongs to this component *and* is
    re-armable, return a JSON slot describing it; else None.

``rearm(sim, slot: dict) -> None``
    Re-create the queue entry described by ``slot`` on a restored
    simulator (called at the snapshot cycle, in global firing order).

``owned_idle_processes() -> iterable[Process]``
    Live processes this component legitimately keeps parked on signals
    while quiescent (permanent router/NI readers, cloning issuers).

Restores are **bit-identical continuations**: the kernel counters are
overwritten with the captured values after settling, and re-armed
entries are pushed in the captured global firing order, so the
``(time, seq)`` total order of the continuation matches the
uninterrupted run exactly.
"""

from typing import Dict, List, Optional, Tuple

from repro.artifacts.errors import SnapshotError
from repro.kernel.event import PendingEntry  # noqa: F401  (re-export)

#: Version of the snapshot *payload* schema (the artifact header carries
#: its own format version on top).
SNAP_FORMAT = 1

#: Default bound on how many cycles past the requested cycle the
#: quiescence scan may advance before giving up with a typed error.
DEFAULT_SCAN_LIMIT = 100_000


def _require(mapping: dict, key: str, context: str):
    """Fetch a payload key or raise a typed error (never KeyError)."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise SnapshotError(
            f"snapshot {context} section is missing key {key!r}",
            hint="the file is not a valid checkpoint payload")
    return mapping[key]


def state_get(state, key: str, owner: str):
    """Fetch a component-state key or raise a typed error.

    Components use this in ``load_state``/``rearm`` so a forged or
    hand-edited snapshot fails with :class:`SnapshotError` (distinct
    exit code, one stderr line) instead of a raw ``KeyError``.
    """
    if not isinstance(state, dict) or key not in state:
        raise SnapshotError(
            f"snapshot state for {owner} is missing key {key!r}",
            hint="the snapshot does not match this platform build")
    return state[key]


def quiescence_check(sim, components: Dict[str, object],
                     ) -> Tuple[List[str], List[dict]]:
    """One quiescence probe at the current cycle.

    Returns ``(blockers, claims)``: the reasons the current cycle is not
    snapshottable (empty = quiescent) and, when quiescent, the claimed
    pending-entry list in global firing order.
    """
    blockers: List[str] = []
    for name, component in components.items():
        probe = getattr(component, "checkpoint_blockers", None)
        if probe is not None:
            blockers.extend(f"{name}: {reason}" for reason in probe())

    claims: List[dict] = []
    claimed_processes = set()
    for entry in sim._queue.pending_entries():
        slot = None
        owner = None
        for name, component in components.items():
            claim = getattr(component, "claim_entry", None)
            if claim is None:
                continue
            slot = claim(entry)
            if slot is not None:
                owner = name
                break
        if slot is None:
            what = (f"wake-up of process {entry.process.name!r}"
                    if entry.process is not None
                    else "an opaque event callback")
            blockers.append(f"unclaimed queue entry at cycle "
                            f"{entry.time}: {what}")
        else:
            claims.append({"owner": owner, "slot": slot})
            if entry.process is not None:
                claimed_processes.add(id(entry.process))

    owned = set()
    for component in components.values():
        getter = getattr(component, "owned_idle_processes", None)
        if getter is not None:
            owned.update(id(process) for process in getter())
    for process in sim.live_processes:
        if id(process) in claimed_processes or id(process) in owned:
            continue
        blockers.append(f"live process {process.name!r} is neither a "
                        f"claimed wake-up nor an owned idle process")
    return blockers, claims


def advance_to_quiescence(sim, components: Dict[str, object],
                          scan_limit: int = DEFAULT_SCAN_LIMIT,
                          ) -> List[dict]:
    """Advance the simulation to the first quiescent cycle >= now.

    The scan fires whole event-time clusters (``run(until=next)``), so
    each probe happens at a cycle boundary with every same-cycle cascade
    settled.  Raises :class:`SnapshotError` if the queue drains while
    blockers remain (the simulation can never quiesce — e.g. a true
    deadlock) or the scan exceeds ``scan_limit`` cycles.
    """
    start = sim.now
    while True:
        blockers, claims = quiescence_check(sim, components)
        if not blockers:
            return claims
        next_time = sim._queue.peek_time()
        if next_time is None:
            raise SnapshotError(
                f"no quiescent cycle reachable: the event queue drained "
                f"at cycle {sim.now} with state still in flight "
                f"({'; '.join(blockers[:4])})",
                hint="the simulation is deadlocked or a component is "
                     "not checkpoint-aware")
        if next_time - start > scan_limit:
            raise SnapshotError(
                f"no quiescent cycle within {scan_limit} cycles of "
                f"{start} (stopped at {sim.now}: "
                f"{'; '.join(blockers[:4])})",
                hint="raise the scan limit or checkpoint less often")
        sim.run(until=next_time)


def capture(sim, components: Dict[str, object], platform: dict,
            scan_limit: int = DEFAULT_SCAN_LIMIT) -> dict:
    """Snapshot the simulation at the first quiescent cycle >= now.

    ``platform`` is the caller's self-contained rebuild recipe (stored
    verbatim; :mod:`repro.harness.checkpoint` uses it to rebuild the
    platform before applying the snapshot).  The returned payload is
    JSON-serialisable and round-trips through the ``.snap`` codec.
    """
    claims = advance_to_quiescence(sim, components, scan_limit)
    queue = sim._queue
    return {
        "snap_format": SNAP_FORMAT,
        "cycle": sim.now,
        "kernel": {
            "now": sim.now,
            "events_fired": sim.events_fired,
            "events_cancelled": queue.events_cancelled,
            "compactions": queue.compactions,
            "peak_size": queue.peak_size,
        },
        "components": {name: component.state_dict()
                       for name, component in components.items()},
        "pending": claims,
        "platform": platform,
    }


def restore(sim, components: Dict[str, object], payload: dict,
            fresh: Optional[List[str]] = None,
            rederive: Optional[List[str]] = None) -> None:
    """Apply a snapshot payload to a freshly-built simulation.

    The target must be untouched (cycle 0, no events fired).  Component
    ``load_state`` calls may spawn permanent idle machinery; a
    ``run(until=0)`` then *settles* every such process onto its parked
    signal, after which the kernel clock and perf counters are
    overwritten with the captured values (erasing the settle events from
    the accounting — the uninterrupted run counted its start-up events
    before the snapshot cycle the same way) and the pending entries are
    re-armed in the captured global firing order.

    ``fresh`` names components that skip state loading and keep their
    freshly-built state — the branch mechanism uses it to give a fault
    campaign a new injector at the branch point.

    ``rederive`` names components restored through
    ``load_quiescent_state`` instead of ``load_state``: they adopt only
    the portable part of the captured state and re-derive the rest from
    the quiescence invariant (nothing in flight).  Cross-fabric
    fast-forward passes ``["fabric"]`` so a snapshot captured on one
    interconnect can land on another.  A re-derived component cannot
    own pending queue entries (its captured internal machinery is
    gone), so a claim owned by one is a typed error.
    """
    if sim.now != 0 or sim.events_fired != 0:
        raise SnapshotError(
            f"restore target is not fresh (cycle {sim.now}, "
            f"{sim.events_fired} events fired)",
            hint="build a new platform for each restore")
    fresh_set = set(fresh or ())
    rederive_set = set(rederive or ())
    states = _require(payload, "components", "payload")
    missing = [name for name in components
               if name not in states and name not in fresh_set]
    if missing:
        raise SnapshotError(
            f"snapshot has no state for component(s): "
            f"{', '.join(sorted(missing))}",
            hint="the snapshot was taken on a differently-configured "
                 "platform")
    extra = [name for name in states
             if name not in components and name not in fresh_set]
    if extra:
        raise SnapshotError(
            f"snapshot carries state for unknown component(s): "
            f"{', '.join(sorted(extra))}",
            hint="the snapshot was taken on a differently-configured "
                 "platform")

    for name, component in components.items():
        if name in fresh_set:
            continue
        if name in rederive_set:
            loader = getattr(component, "load_quiescent_state", None)
            if loader is None:
                raise SnapshotError(
                    f"component {name!r} cannot re-derive quiescent "
                    f"state",
                    hint="only components implementing "
                         "load_quiescent_state support cross-recipe "
                         "restore")
            loader(states[name])
        else:
            component.load_state(states[name])

    # settle: every process spawned during load_state parks on its idle
    # signal; zero-delay cascades all fire at cycle 0
    sim.run(until=0)
    if len(sim._queue) != 0:
        raise SnapshotError(
            f"platform did not settle: {len(sim._queue)} event(s) still "
            f"queued after start-up at cycle 0",
            hint="a component's load_state scheduled work beyond the "
                 "settle boundary")

    kernel = _require(payload, "kernel", "payload")
    queue = sim._queue
    sim._now = _require(kernel, "now", "kernel")
    sim._events_fired = _require(kernel, "events_fired", "kernel")
    queue.events_cancelled = _require(kernel, "events_cancelled", "kernel")
    queue.compactions = _require(kernel, "compactions", "kernel")
    queue.peak_size = _require(kernel, "peak_size", "kernel")

    for item in _require(payload, "pending", "payload"):
        owner_name = _require(item, "owner", "pending entry")
        slot = _require(item, "slot", "pending entry")
        component = components.get(owner_name)
        if component is None:
            raise SnapshotError(
                f"pending entry owned by unknown component "
                f"{owner_name!r}")
        if owner_name in rederive_set:
            raise SnapshotError(
                f"pending entry owned by re-derived component "
                f"{owner_name!r}",
                hint="a component restored from quiescence alone "
                     "cannot re-arm captured queue entries")
        rearm = getattr(component, "rearm", None)
        if rearm is None:
            raise SnapshotError(
                f"component {owner_name!r} cannot re-arm pending "
                f"entries")
        rearm(sim, slot)


__all__ = [
    "DEFAULT_SCAN_LIMIT",
    "PendingEntry",
    "SNAP_FORMAT",
    "SnapshotError",
    "advance_to_quiescence",
    "capture",
    "quiescence_check",
    "restore",
]
