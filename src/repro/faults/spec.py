"""Declarative fault specifications.

A :class:`FaultSpec` describes *what* can go wrong in a degraded-platform
experiment; the :class:`~repro.faults.injector.FaultInjector` decides *when*
using its own seeded RNG.  Specs are plain data: built in code, from a dict,
or from a JSON file (the ``--fault-spec`` CLI flag), so an experiment's
adverse conditions are archivable alongside its traces.

Three fault families, matching where a NoC platform actually degrades:

* **slave errors** — a slave answers a transaction with ``Response.error``
  set instead of performing it (flaky memory controller, poisoned range);
* **link faults** — extra per-hop latency jitter and transient stalls in
  the interconnect (DVFS glitches, congested or marginal links);
* **semaphore faults** — a semaphore *release* write is delayed or dropped
  (lost wakeup), the failure mode that turns into livelock at system level.
"""

import json
from typing import Dict, List, Optional, Sequence

from repro.artifacts.errors import ParseDiagnostic

__all__ = [
    "FaultSpecError",
    "SlaveErrorRule",
    "LinkFaultRule",
    "SemaphoreFaultRule",
    "FaultSpec",
]


class FaultSpecError(ParseDiagnostic, ValueError):
    """A fault specification is malformed (CLI exit code 4)."""


def _check_probability(value, field: str) -> float:
    try:
        probability = float(value)
    except (TypeError, ValueError):
        raise FaultSpecError(f"{field} must be a number, got {value!r}")
    if not 0.0 <= probability <= 1.0:
        raise FaultSpecError(f"{field} must be in [0, 1], got {probability}")
    return probability


def _check_non_negative(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FaultSpecError(f"{field} must be a non-negative int, "
                             f"got {value!r}")
    return value


def _check_optional_limit(value, field: str) -> Optional[int]:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FaultSpecError(f"{field} must be a positive int or null, "
                             f"got {value!r}")
    return value


def _reject_unknown(data: Dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise FaultSpecError(f"unknown key(s) {unknown} in {where}; "
                             f"allowed: {sorted(allowed)}")


class SlaveErrorRule:
    """Make a slave answer some transactions with an error response.

    Args:
        slave: Slave name to match (e.g. ``"shared"``), or ``None`` for any.
        base/size: Optional address window the faulty access must fall in.
        probability: Chance an eligible access errors (seeded RNG).
        nth: Additionally fault every ``nth`` eligible access
            deterministically (1 = every access); ``None`` disables.
        reads_only: Fault only read transactions (default True — posted
            writes carry no error feedback to the master).
        max_faults: Stop injecting after this many faults (``None`` =
            unlimited); keeps a scenario recoverable by construction.
    """

    FIELDS = ("slave", "base", "size", "probability", "nth", "reads_only",
              "max_faults")

    def __init__(self, slave: Optional[str] = None,
                 base: Optional[int] = None, size: Optional[int] = None,
                 probability: float = 0.0, nth: Optional[int] = None,
                 reads_only: bool = True, max_faults: Optional[int] = None):
        self.slave = slave
        self.base = base
        self.size = size
        self.probability = _check_probability(probability, "probability")
        self.nth = _check_optional_limit(nth, "nth")
        self.reads_only = bool(reads_only)
        self.max_faults = _check_optional_limit(max_faults, "max_faults")
        if (base is None) != (size is None):
            raise FaultSpecError("slave-error rule needs both base and size "
                                 "(or neither)")
        if base is not None:
            _check_non_negative(base, "base")
            if not isinstance(size, int) or size < 1:
                raise FaultSpecError(f"size must be a positive int, "
                                     f"got {size!r}")
        if self.probability == 0.0 and self.nth is None:
            raise FaultSpecError("slave-error rule would never fire: give a "
                                 "probability > 0 or an nth")

    def matches(self, slave_name: str, addr: int, is_read: bool) -> bool:
        if self.reads_only and not is_read:
            return False
        if self.slave is not None and self.slave != slave_name:
            return False
        if self.base is not None:
            if not self.base <= addr < self.base + self.size:
                return False
        return True

    @classmethod
    def from_dict(cls, data: Dict) -> "SlaveErrorRule":
        _reject_unknown(data, cls.FIELDS, "slave_errors rule")
        return cls(**data)

    def to_dict(self) -> Dict:
        return {field: getattr(self, field) for field in self.FIELDS}


class LinkFaultRule:
    """Perturb interconnect hop timing.

    Args:
        fabric: Fabric name to match (``"ahb"``, ``"xpipes"``...), or
            ``None`` for any.
        jitter: Maximum extra cycles added per hop, drawn uniformly from
            ``[0, jitter]``.
        stall_probability: Chance a hop additionally suffers a transient
            stall of ``stall_cycles``.
        stall_cycles: Length of one transient stall.
        max_faults: Stop perturbing after this many non-zero injections.
    """

    FIELDS = ("fabric", "jitter", "stall_probability", "stall_cycles",
              "max_faults")

    def __init__(self, fabric: Optional[str] = None, jitter: int = 0,
                 stall_probability: float = 0.0, stall_cycles: int = 0,
                 max_faults: Optional[int] = None):
        self.fabric = fabric
        self.jitter = _check_non_negative(jitter, "jitter")
        self.stall_probability = _check_probability(stall_probability,
                                                    "stall_probability")
        self.stall_cycles = _check_non_negative(stall_cycles, "stall_cycles")
        self.max_faults = _check_optional_limit(max_faults, "max_faults")
        if self.stall_probability > 0.0 and self.stall_cycles == 0:
            raise FaultSpecError("stall_probability set but stall_cycles "
                                 "is 0")
        if self.jitter == 0 and self.stall_probability == 0.0:
            raise FaultSpecError("link rule would never fire: give jitter "
                                 "or a stall")

    def matches(self, fabric_name: str) -> bool:
        return self.fabric is None or self.fabric == fabric_name

    @classmethod
    def from_dict(cls, data: Dict) -> "LinkFaultRule":
        _reject_unknown(data, cls.FIELDS, "link_faults rule")
        return cls(**data)

    def to_dict(self) -> Dict:
        return {field: getattr(self, field) for field in self.FIELDS}


class SemaphoreFaultRule:
    """Delay or drop semaphore release writes (lost/late wakeups).

    Args:
        drop_probability: Chance a release write is silently discarded.
        max_drops: Hard cap on drops (default 1) — an unbounded drop rate
            livelocks every poller forever, which is only useful when
            testing the livelock watchdog itself.
        delay_probability: Chance the release lands late.
        delay_cycles: How late a delayed release lands.
    """

    FIELDS = ("drop_probability", "max_drops", "delay_probability",
              "delay_cycles")

    def __init__(self, drop_probability: float = 0.0,
                 max_drops: Optional[int] = 1,
                 delay_probability: float = 0.0, delay_cycles: int = 0):
        self.drop_probability = _check_probability(drop_probability,
                                                   "drop_probability")
        self.max_drops = _check_optional_limit(max_drops, "max_drops") \
            if max_drops is not None else None
        self.delay_probability = _check_probability(delay_probability,
                                                    "delay_probability")
        self.delay_cycles = _check_non_negative(delay_cycles, "delay_cycles")
        if self.delay_probability > 0.0 and self.delay_cycles == 0:
            raise FaultSpecError("delay_probability set but delay_cycles "
                                 "is 0")
        if self.drop_probability == 0.0 and self.delay_probability == 0.0:
            raise FaultSpecError("semaphore rule would never fire: give a "
                                 "drop or delay probability")

    @classmethod
    def from_dict(cls, data: Dict) -> "SemaphoreFaultRule":
        _reject_unknown(data, cls.FIELDS, "semaphore_faults rule")
        return cls(**data)

    def to_dict(self) -> Dict:
        return {field: getattr(self, field) for field in self.FIELDS}


class FaultSpec:
    """The complete declarative description of a degraded platform."""

    KEYS = ("slave_errors", "link_faults", "semaphore_faults")

    def __init__(self,
                 slave_errors: Optional[List[SlaveErrorRule]] = None,
                 link_faults: Optional[List[LinkFaultRule]] = None,
                 semaphore_faults: Optional[List[SemaphoreFaultRule]] = None):
        self.slave_errors = list(slave_errors or [])
        self.link_faults = list(link_faults or [])
        self.semaphore_faults = list(semaphore_faults or [])

    @property
    def empty(self) -> bool:
        """True when the spec contains no rule at all."""
        return not (self.slave_errors or self.link_faults
                    or self.semaphore_faults)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise FaultSpecError(f"fault spec must be a dict, "
                                 f"got {type(data).__name__}")
        _reject_unknown(data, cls.KEYS, "fault spec")
        def rules(key, rule_cls):
            entries = data.get(key, [])
            if not isinstance(entries, list):
                raise FaultSpecError(f"{key} must be a list of rules")
            return [rule_cls.from_dict(entry) for entry in entries]
        return cls(slave_errors=rules("slave_errors", SlaveErrorRule),
                   link_faults=rules("link_faults", LinkFaultRule),
                   semaphore_faults=rules("semaphore_faults",
                                          SemaphoreFaultRule))

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultSpecError(f"fault spec is not valid JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultSpec":
        with open(path) as handle:
            text = handle.read()
        try:
            return cls.from_json(text)
        except FaultSpecError as error:
            error.path = str(path)
            raise

    def to_dict(self) -> Dict:
        return {
            "slave_errors": [rule.to_dict() for rule in self.slave_errors],
            "link_faults": [rule.to_dict() for rule in self.link_faults],
            "semaphore_faults": [rule.to_dict()
                                 for rule in self.semaphore_faults],
        }

    def __repr__(self) -> str:
        return (f"<FaultSpec slave_errors={len(self.slave_errors)} "
                f"link_faults={len(self.link_faults)} "
                f"semaphore_faults={len(self.semaphore_faults)}>")
