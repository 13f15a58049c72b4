"""Parametric synthetic-traffic workloads (no trace needed).

The paper's economics argument — evaluate every design alternative on
cheap TG simulations — multiplies with workload diversity: four traced
benchmarks become thousands of scenarios once TG programs can be
*generated* from a declarative description instead of translated from a
reference run.  A :class:`TrafficSpec` names a spatial pattern, a
transaction-size distribution, an offered-load fraction and optional
bursty on/off phases; :func:`generate_programs` turns it into one
:class:`~repro.core.program.TGProgram` per core, built only from the TG
ISA the translator already emits (``SetRegister``/``Idle``/``Read``/
``Write``/``BurstRead``/``BurstWrite``/``Halt``), so the programs
assemble, save and simulate through the existing pipeline unchanged.

Spatial patterns (destinations are other cores' private-memory windows,
globally visible on every fabric; ``hotspot`` adds a configurable-weight
hot slave, by default the shared memory):

* ``uniform`` — uniform random over the other cores;
* ``hotspot`` — uniform plus a hot slave drawing ``hot_weight`` times
  the traffic of an ordinary destination;
* ``transpose`` — ``dst = bit-halves-swapped(src)`` (needs a square
  power-of-two core count);
* ``bit_complement`` — ``dst = ~src`` over the id bits (power of two);
* ``neighbor`` — ``dst = (src + 1) mod n``.

Transaction sizes come from a fixed word count, a uniform word range, or
a CDF file in the Yokumii ``traffic_gen`` format (lines of
``<size_bytes> <cumulative_percent>``, ending at 100), sampled by
inverse transform with linear interpolation.

Offered load is the fraction of a core's request-issue capacity: each
transaction costs ``busy = setup_instructions + words`` cycles of its
own issue pipeline, and the generator inserts ``Idle`` gaps of
``busy * (1 - load) / load`` cycles (with exact fractional carry), so
the *scheduled* load ``busy / (busy + idle)`` matches the spec to
rounding.  Because the TG is a closed-loop master, contention shows up
as transaction latency rather than dropped load — saturation curves
plot latency against offered load.

Everything is driven by one seeded RNG stream per core
(``random.Random(f"{seed}:{core}")``): identical specs produce
byte-identical ``.tgp`` and ``.bin`` artifacts, on any machine, under
any ``--jobs`` parallelism.
"""

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.artifacts.errors import ParseDiagnostic
from repro.core.isa import ADDRREG, DATAREG, TGInstruction, TGOp
from repro.core.modes import ReplayMode
from repro.core.program import TGProgram
from repro.harness.experiments import RunOptions, RunResult, run_tg
from repro.platform.config import (
    DEFAULT_PRIVATE_SIZE,
    DEFAULT_SHARED_SIZE,
    PRIVATE_STRIDE,
    SHARED_BASE,
)

__all__ = [
    "PATTERNS",
    "TrafficSpec",
    "TrafficSpecError",
    "generate",
    "generate_programs",
    "load_cdf",
    "parse_cdf",
    "synthetic_flow",
    "synthetic_programs",
    "SyntheticResult",
]

#: The supported spatial patterns.
PATTERNS = ("uniform", "hotspot", "transpose", "bit_complement", "neighbor")

#: Largest burst the ISA encodes (``b`` field of BurstRead/BurstWrite).
MAX_WORDS = 255


class TrafficSpecError(ParseDiagnostic):
    """A defective traffic spec or CDF file (CLI exit code 4)."""


# --------------------------------------------------------- size models

class _FixedSize:
    """Every transaction moves exactly ``words`` words."""

    kind = "fixed"

    def __init__(self, words: int):
        if not isinstance(words, int) or isinstance(words, bool) \
                or not 1 <= words <= MAX_WORDS:
            raise TrafficSpecError(
                f"fixed size must be an int in [1, {MAX_WORDS}] words, "
                f"got {words!r}")
        self.words = words

    def sample(self, rng: random.Random) -> int:
        return self.words

    def to_dict(self) -> Dict:
        return {"kind": "fixed", "words": self.words}


class _UniformSize:
    """Word counts drawn uniformly from ``[min_words, max_words]``."""

    kind = "uniform"

    def __init__(self, min_words: int, max_words: int):
        for value in (min_words, max_words):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TrafficSpecError(
                    f"uniform size bounds must be ints, got {value!r}")
        if not 1 <= min_words <= max_words <= MAX_WORDS:
            raise TrafficSpecError(
                f"uniform size needs 1 <= min <= max <= {MAX_WORDS}, "
                f"got [{min_words}, {max_words}]")
        self.min_words = min_words
        self.max_words = max_words

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.min_words, self.max_words)

    def to_dict(self) -> Dict:
        return {"kind": "uniform", "min_words": self.min_words,
                "max_words": self.max_words}


class _CdfSize:
    """Sizes drawn from an empirical CDF of transaction sizes in bytes.

    ``points`` is the validated ``[(size_bytes, cumulative_percent)]``
    list from :func:`parse_cdf`; sampling is inverse-transform with
    linear interpolation between points, and the byte size is converted
    to words (ceil, clamped to the ISA's burst range).  The points are
    embedded in :meth:`to_dict`, so a spec that named a CDF *file*
    round-trips through JSON (e.g. into a sweep worker process) without
    the file needing to exist there.
    """

    kind = "cdf"

    def __init__(self, points: List[Tuple[float, float]],
                 file: Optional[str] = None):
        self.points = [(float(size), float(percent))
                       for size, percent in points]
        self.file = file
        if not self.points:
            raise TrafficSpecError("CDF has no points", path=file)

    def sample(self, rng: random.Random) -> int:
        u = rng.uniform(0.0, 100.0)
        prev_size, prev_pct = 0.0, 0.0
        size = self.points[-1][0]
        for point_size, point_pct in self.points:
            if u <= point_pct:
                if point_pct == prev_pct:
                    size = point_size
                else:
                    size = prev_size + (point_size - prev_size) * \
                        (u - prev_pct) / (point_pct - prev_pct)
                break
            prev_size, prev_pct = point_size, point_pct
        # The first bin interpolates from an implicit (0, 0) origin, so a
        # draw landing there — or before a zero-probability leading point —
        # would produce a size *below the distribution's minimum*, a value
        # the empirical data says never occurs.  Clamp to the first
        # recorded size (inline point lists may also carry duplicate
        # sizes, which the equal-percent guard above already handles
        # without dividing by zero).
        min_size = self.points[0][0]
        if size < min_size:
            size = min_size
        words = math.ceil(size / 4.0)
        return max(1, min(MAX_WORDS, words))

    def to_dict(self) -> Dict:
        data: Dict = {"kind": "cdf",
                      "points": [list(p) for p in self.points]}
        if self.file:
            data["file"] = self.file
        return data


def parse_cdf(text: str, path: Optional[str] = None
              ) -> List[Tuple[float, float]]:
    """Parse Yokumii ``traffic_gen``-style CDF text.

    Each non-blank, non-``#`` line is ``<size_bytes> <cumulative_percent>``.
    Sizes must be positive and strictly increasing, percents in
    ``[0, 100]`` and non-decreasing, and the final percent must be 100
    (a normalised distribution).  Violations raise a located
    :class:`TrafficSpecError` (CLI exit code 4).
    """
    points: List[Tuple[float, float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TrafficSpecError(
                "expected '<size_bytes> <cumulative_percent>'",
                path=path, line=line_no, text=raw.strip(),
                hint="one size/percent pair per line")
        try:
            size, percent = float(fields[0]), float(fields[1])
        except ValueError:
            raise TrafficSpecError(
                "size and percent must be numbers",
                path=path, line=line_no, text=raw.strip()) from None
        if size <= 0:
            raise TrafficSpecError(
                f"size must be positive, got {size:g}",
                path=path, line=line_no, text=raw.strip())
        if not 0.0 <= percent <= 100.0:
            raise TrafficSpecError(
                f"cumulative percent must be in [0, 100], got {percent:g}",
                path=path, line=line_no, text=raw.strip())
        if points:
            prev_size, prev_pct = points[-1]
            if size <= prev_size or percent < prev_pct:
                raise TrafficSpecError(
                    "CDF points must be sorted (sizes strictly "
                    "increasing, percents non-decreasing)",
                    path=path, line=line_no, text=raw.strip(),
                    hint="sort the file by size")
        points.append((size, percent))
    if not points:
        raise TrafficSpecError("empty CDF file (no data points)",
                               path=path,
                               hint="one '<size_bytes> <percent>' per line")
    if abs(points[-1][1] - 100.0) > 1e-9:
        raise TrafficSpecError(
            f"CDF is not normalised: last cumulative percent is "
            f"{points[-1][1]:g}, expected 100", path=path,
            hint="the final line must reach 100")
    return points


def load_cdf(path: str) -> List[Tuple[float, float]]:
    """Load and validate a CDF file (see :func:`parse_cdf`)."""
    with open(path) as handle:
        return parse_cdf(handle.read(), path=path)


def _size_from_dict(data: Dict) -> object:
    if not isinstance(data, dict) or "kind" not in data:
        raise TrafficSpecError(
            f"size must be a dict with a 'kind' key, got {data!r}")
    kind = data["kind"]
    if kind == "fixed":
        return _FixedSize(data.get("words", 1))
    if kind == "uniform":
        return _UniformSize(data.get("min_words", 1),
                            data.get("max_words", 1))
    if kind == "cdf":
        points = data.get("points")
        if points is None:
            file = data.get("file")
            if not file:
                raise TrafficSpecError(
                    "cdf size needs a 'file' path or inline 'points'")
            return _CdfSize(load_cdf(file), file=file)
        return _CdfSize([tuple(p) for p in points], file=data.get("file"))
    raise TrafficSpecError(
        f"unknown size kind {kind!r}; choose fixed | uniform | cdf")


# -------------------------------------------------------------- the spec

def _is_pow2(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


class TrafficSpec:
    """A validated, JSON-round-trippable synthetic-workload description.

    Args:
        n_cores: Master sockets (>= 2; destinations are *other* cores).
        pattern: One of :data:`PATTERNS`.
        transactions: OCP transactions each core issues.
        load: Offered-load fraction in ``(0, 1]`` of a core's issue
            capacity; realised as computed ``Idle`` gaps.
        read_fraction: Probability a transaction is a read.
        size: Size-distribution dict (``{"kind": "fixed", "words": 4}``,
            ``{"kind": "uniform", "min_words": .., "max_words": ..}`` or
            ``{"kind": "cdf", "file": ..}`` / inline ``points``).
        burst: Optional ``{"on": N, "off": C}`` — after every ``N``
            transactions the core goes silent for ``C`` extra cycles
            (an on/off bursty phase structure on top of the load gaps).
        hot_target: Hotspot slave — ``"shared"`` (default) or a core id.
        hot_weight: Relative draw weight of the hot slave (>= 1).
        seed: RNG seed; same spec + seed = byte-identical programs.
        mode: Replay mode stamped on the programs (default reactive).
    """

    def __init__(self, n_cores: int, pattern: str = "uniform",
                 transactions: int = 100, load: float = 0.5,
                 read_fraction: float = 0.5,
                 size: Optional[Dict] = None,
                 burst: Optional[Dict] = None,
                 hot_target="shared", hot_weight: float = 4.0,
                 seed: int = 0, mode: str = "reactive"):
        if not isinstance(n_cores, int) or isinstance(n_cores, bool) \
                or n_cores < 2:
            raise TrafficSpecError(
                f"n_cores must be an int >= 2, got {n_cores!r}")
        if n_cores * PRIVATE_STRIDE > SHARED_BASE:
            raise TrafficSpecError(
                f"n_cores={n_cores} exceeds the private-memory window "
                f"({SHARED_BASE // PRIVATE_STRIDE} cores max)")
        if pattern not in PATTERNS:
            raise TrafficSpecError(
                f"unknown pattern {pattern!r}; choose from {PATTERNS}")
        if pattern in ("transpose", "bit_complement") \
                and not _is_pow2(n_cores):
            raise TrafficSpecError(
                f"{pattern} needs a power-of-two core count, "
                f"got {n_cores}")
        if pattern == "transpose" and n_cores.bit_length() % 2 == 0:
            # bit_length of 2^b is b+1, so an odd bit_length means an
            # even number of id bits — the swappable-halves requirement
            raise TrafficSpecError(
                f"transpose needs an even number of id bits (a square "
                f"core count: 4, 16, ...), got {n_cores}")
        if not isinstance(transactions, int) \
                or isinstance(transactions, bool) or transactions < 1:
            raise TrafficSpecError(
                f"transactions must be an int >= 1, got {transactions!r}")
        if not isinstance(load, (int, float)) or isinstance(load, bool) \
                or not 0.0 < float(load) <= 1.0:
            raise TrafficSpecError(
                f"load must be in (0, 1], got {load!r}")
        if not isinstance(read_fraction, (int, float)) \
                or isinstance(read_fraction, bool) \
                or not 0.0 <= float(read_fraction) <= 1.0:
            raise TrafficSpecError(
                f"read_fraction must be in [0, 1], got {read_fraction!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TrafficSpecError(f"seed must be an int, got {seed!r}")
        self.n_cores = n_cores
        self.pattern = pattern
        self.transactions = transactions
        self.load = float(load)
        self.read_fraction = float(read_fraction)
        self.size = _size_from_dict(size or {"kind": "fixed", "words": 4})
        self.burst = self._validated_burst(burst)
        self.hot_target = self._validated_hot_target(hot_target)
        if not isinstance(hot_weight, (int, float)) \
                or isinstance(hot_weight, bool) or hot_weight < 1.0:
            raise TrafficSpecError(
                f"hot_weight must be a number >= 1, got {hot_weight!r}")
        self.hot_weight = float(hot_weight)
        self.seed = seed
        try:
            self.mode = mode if isinstance(mode, ReplayMode) \
                else ReplayMode.from_name(mode)
        except ValueError as error:
            raise TrafficSpecError(str(error)) from None

    def _validated_burst(self, burst: Optional[Dict]) -> Optional[Dict]:
        if burst is None:
            return None
        if not isinstance(burst, dict) \
                or set(burst) - {"on", "off"}:
            raise TrafficSpecError(
                f"burst must be {{'on': N, 'off': C}}, got {burst!r}")
        on, off = burst.get("on"), burst.get("off")
        if not isinstance(on, int) or isinstance(on, bool) or on < 1:
            raise TrafficSpecError(
                f"burst 'on' must be an int >= 1 transactions, got {on!r}")
        if not isinstance(off, int) or isinstance(off, bool) or off < 0:
            raise TrafficSpecError(
                f"burst 'off' must be an int >= 0 cycles, got {off!r}")
        return {"on": on, "off": off}

    def _validated_hot_target(self, target):
        if target == "shared":
            return "shared"
        if isinstance(target, int) and not isinstance(target, bool) \
                and 0 <= target < self.n_cores:
            return target
        raise TrafficSpecError(
            f"hot_target must be 'shared' or a core id in "
            f"[0, {self.n_cores}), got {target!r}")

    @staticmethod
    def from_dict(data: Dict) -> "TrafficSpec":
        known = {"n_cores", "pattern", "transactions", "load",
                 "read_fraction", "size", "burst", "hot_target",
                 "hot_weight", "seed", "mode"}
        if not isinstance(data, dict):
            raise TrafficSpecError(
                f"traffic spec must be a JSON object, got {data!r}")
        unknown = set(data) - known
        if unknown:
            raise TrafficSpecError(
                f"unknown traffic spec keys: {sorted(unknown)}",
                hint=f"known keys: {sorted(known)}")
        if "n_cores" not in data:
            raise TrafficSpecError("traffic spec needs 'n_cores'")
        return TrafficSpec(
            n_cores=data["n_cores"],
            pattern=data.get("pattern", "uniform"),
            transactions=data.get("transactions", 100),
            load=data.get("load", 0.5),
            read_fraction=data.get("read_fraction", 0.5),
            size=data.get("size"),
            burst=data.get("burst"),
            hot_target=data.get("hot_target", "shared"),
            hot_weight=data.get("hot_weight", 4.0),
            seed=data.get("seed", 0),
            mode=data.get("mode", "reactive"))

    def to_dict(self) -> Dict:
        """Canonical JSON form; round-trips via :meth:`from_dict`.

        CDF distributions serialise their *points*, so the dict is
        self-contained (no file access needed to rebuild the spec).
        """
        return {
            "n_cores": self.n_cores,
            "pattern": self.pattern,
            "transactions": self.transactions,
            "load": self.load,
            "read_fraction": self.read_fraction,
            "size": self.size.to_dict(),
            "burst": dict(self.burst) if self.burst else None,
            "hot_target": self.hot_target,
            "hot_weight": self.hot_weight,
            "seed": self.seed,
            "mode": self.mode.value,
        }

    def replace(self, **overrides) -> "TrafficSpec":
        """A copy of this spec with some fields replaced (sweep axes)."""
        data = self.to_dict()
        data.update(overrides)
        return TrafficSpec.from_dict(data)

    def __repr__(self) -> str:
        return (f"<TrafficSpec {self.pattern} {self.n_cores}P "
                f"load={self.load:g} x{self.transactions} "
                f"seed={self.seed}>")


# ----------------------------------------------------------- generation

def _destinations(spec: TrafficSpec, core_id: int
                  ) -> List[Tuple[int, int, float]]:
    """Weighted ``(base, window_bytes, weight)`` candidates for a core.

    Deterministic patterns return a single candidate; random patterns
    return the full weighted set the per-transaction draw picks from.
    """
    def private(dst: int) -> Tuple[int, int, float]:
        return (dst * PRIVATE_STRIDE, DEFAULT_PRIVATE_SIZE, 1.0)

    n = spec.n_cores
    if spec.pattern == "uniform":
        return [private(dst) for dst in range(n) if dst != core_id]
    if spec.pattern == "hotspot":
        candidates = [private(dst) for dst in range(n) if dst != core_id]
        if spec.hot_target == "shared":
            candidates.append((SHARED_BASE, DEFAULT_SHARED_SIZE,
                               spec.hot_weight))
        else:
            candidates.append((spec.hot_target * PRIVATE_STRIDE,
                               DEFAULT_PRIVATE_SIZE, spec.hot_weight))
        return candidates
    if spec.pattern == "transpose":
        bits = n.bit_length() - 1
        half = bits // 2
        low_mask = (1 << half) - 1
        dst = ((core_id & low_mask) << half) | (core_id >> half)
        return [private(dst)]
    if spec.pattern == "bit_complement":
        return [private(core_id ^ (n - 1))]
    # neighbor
    return [private((core_id + 1) % n)]


def _pick(candidates: List[Tuple[int, int, float]], rng: random.Random
          ) -> Tuple[int, int]:
    if len(candidates) == 1:
        return candidates[0][0], candidates[0][1]
    total = sum(weight for _, _, weight in candidates)
    mark = rng.random() * total
    acc = 0.0
    for base, window, weight in candidates:
        acc += weight
        if mark < acc:
            return base, window
    return candidates[-1][0], candidates[-1][1]


def _generate_core(spec: TrafficSpec, core_id: int
                   ) -> Tuple[TGProgram, Dict]:
    """One core's program plus its generator diagnostics."""
    rng = random.Random(f"{spec.seed}:{core_id}")
    program = TGProgram(core_id=core_id, mode=spec.mode)
    candidates = _destinations(spec, core_id)
    burst = spec.burst
    busy_cycles = 0
    idle_cycles = 0
    burst_off_cycles = 0
    words_total = 0
    reads = 0
    carry = 0.0
    for issued in range(spec.transactions):
        base, window = _pick(candidates, rng)
        words = spec.size.sample(rng)
        max_word_offset = window // 4 - words
        offset = rng.randrange(max_word_offset + 1) * 4
        addr = base + offset
        is_read = rng.random() < spec.read_fraction
        setup = [TGInstruction(TGOp.SET_REGISTER, a=ADDRREG, imm=addr)]
        if is_read:
            if words == 1:
                op = TGInstruction(TGOp.READ, a=ADDRREG)
            else:
                op = TGInstruction(TGOp.BURST_READ, a=ADDRREG, b=words)
        else:
            if words == 1:
                setup.append(TGInstruction(
                    TGOp.SET_REGISTER, a=DATAREG,
                    imm=rng.getrandbits(32)))
                op = TGInstruction(TGOp.WRITE, a=ADDRREG, b=DATAREG)
            else:
                pool_offset = program.add_pool(
                    [rng.getrandbits(32) for _ in range(words)])
                op = TGInstruction(TGOp.BURST_WRITE, a=ADDRREG, b=words,
                                   imm=pool_offset)
        busy = len(setup) + words
        # the load gap: idle so that busy / (busy + idle) == load,
        # carrying the fractional remainder into the next transaction
        ideal_gap = busy * (1.0 - spec.load) / spec.load
        acc = ideal_gap + carry
        gap = int(acc)
        carry = acc - gap
        for instr in setup:
            program.append(instr)
        if gap > 0:
            program.append(TGInstruction(TGOp.IDLE, imm=gap))
        program.append(op)
        busy_cycles += busy
        idle_cycles += gap
        words_total += words
        reads += int(is_read)
        if burst is not None and burst["off"] > 0 \
                and (issued + 1) % burst["on"] == 0 \
                and issued + 1 < spec.transactions:
            program.append(TGInstruction(TGOp.IDLE, imm=burst["off"]))
            burst_off_cycles += burst["off"]
    program.append(TGInstruction(TGOp.HALT))
    program.validate()
    active = busy_cycles + idle_cycles
    diagnostics = {
        "core": core_id,
        "instructions": len(program),
        "pool_words": len(program.pool),
        "transactions": spec.transactions,
        "reads": reads,
        "writes": spec.transactions - reads,
        "words": words_total,
        "busy_cycles": busy_cycles,
        "idle_cycles": idle_cycles,
        "burst_off_cycles": burst_off_cycles,
        "scheduled_load": busy_cycles / active if active else 0.0,
    }
    return program, diagnostics


def generate(spec: TrafficSpec
             ) -> Tuple[Dict[int, TGProgram], List[Dict]]:
    """Generate all per-core programs plus per-core diagnostics."""
    programs: Dict[int, TGProgram] = {}
    report: List[Dict] = []
    for core_id in range(spec.n_cores):
        program, diagnostics = _generate_core(spec, core_id)
        programs[core_id] = program
        report.append(diagnostics)
    return programs, report


def generate_programs(spec: TrafficSpec) -> Dict[int, TGProgram]:
    """Generate one :class:`TGProgram` per core from the spec."""
    return generate(spec)[0]


def synthetic_programs(spec: TrafficSpec
                       ) -> Tuple[Dict[int, TGProgram], List[Dict]]:
    """Generate the programs exactly as the simulation flow runs them.

    Generation plus the ``.bin`` assemble/disassemble round-trip — the
    TG executes the binary image, and the ``.tgp`` text of the
    round-tripped program is what snapshot recipes embed.  The sweep
    driver and its workers both build programs through this helper, so
    a warm-up snapshot taken by the driver byte-matches the recipe a
    worker derives independently (see
    :func:`repro.harness.checkpoint.ensure_recipe_compatible`).
    """
    from repro.core.assembler import assemble_binary, disassemble_binary
    programs, report = generate(spec)
    programs = {core: disassemble_binary(assemble_binary(program))
                for core, program in programs.items()}
    return programs, report


# ------------------------------------------------------------ execution

class SyntheticResult(RunResult):
    """Outcome of one synthetic-traffic simulation.

    The :class:`~repro.harness.experiments.RunResult` core (there is no
    reference run, so its ``ref_*`` and derived columns stay zero) plus
    the load-curve metrics: offered vs. scheduled vs. realised load,
    transaction latency statistics and delivered throughput.
    """

    SUMMARY_KEYS = ("benchmark", "n_cores", "interconnect", "mode",
                    "pattern", "offered_load", "scheduled_load",
                    "realised_load", "tg_cycles", "tg_wall", "tg_events",
                    "issued", "words", "latency_avg", "latency_max",
                    "throughput_wpkc")

    def __init__(self, spec: TrafficSpec, interconnect: str):
        super().__init__("synthetic", spec.n_cores, interconnect, spec.mode)
        self.spec = spec
        self.pattern = spec.pattern
        self.offered_load = spec.load
        self.scheduled_load = 0.0
        self.realised_load = 0.0
        self.issued = 0
        self.words = 0
        self.latency_avg = 0.0
        self.latency_max = 0
        self.throughput_wpkc = 0.0
        self.generator_report: List[Dict] = []

    def __repr__(self) -> str:
        return (f"<SyntheticResult {self.pattern} {self.n_cores}P "
                f"{self.interconnect} load={self.offered_load:g} "
                f"lat={self.latency_avg:.1f}>")


def synthetic_flow(spec: TrafficSpec, interconnect: str = "tlm",
                   config_overrides: Optional[Dict] = None,
                   options: RunOptions = RunOptions(),
                   warmup_payload: Optional[Dict] = None
                   ) -> SyntheticResult:
    """Generate, assemble and simulate one synthetic workload.

    The programs are pushed through the ``.bin`` assemble/disassemble
    cycle (the TG executes the binary image, mirroring the trace flow),
    then run on an all-TG platform on the requested fabric through
    :func:`~repro.harness.experiments.run_tg`, which ``options`` steer
    exactly as in :func:`~repro.harness.experiments.tg_flow`.  Latency
    statistics come from the per-TG OCP counters.

    ``warmup_payload`` supplies an already-captured warm-up snapshot
    (the warm-up-shared sweep path); it is verified against this
    workload's recipe before restoring.  See docs/CHECKPOINT.md.
    """
    result = SyntheticResult(spec, interconnect)
    if warmup_payload is not None:
        # restore path: the platform is rebuilt from the snapshot's
        # byte-compared recipe, so the assemble round-trip is skipped —
        # ``.tgp`` text is canonical across it, making the generated
        # programs' recipe byte-identical to the round-tripped one
        programs, report = generate(spec)
    else:
        programs, report = synthetic_programs(spec)
    result.generator_report = report
    result.record_tg(*run_tg(programs, spec.n_cores, interconnect,
                             config_overrides, options, warmup_payload))
    platform = result.tg_platform

    latency_total = 0
    realised = []
    for master, diagnostics in zip(platform.masters, report):
        result.issued += master.ocp_transactions
        result.words += master.ocp_beats
        latency_total += master.ocp_latency_cycles
        result.latency_max = max(result.latency_max,
                                 master.ocp_latency_max)
        # per-core issue-side activity: completion minus the cycles the
        # core spent *blocked beyond its own beats* is busy + idle time;
        # exact for reads (posted writes unblock before their beats)
        blocked = master.ocp_latency_cycles - master.ocp_beats
        denominator = master.completion_time - blocked
        if denominator > 0:
            realised.append(diagnostics["busy_cycles"] / denominator)
    result.latency_avg = latency_total / result.issued \
        if result.issued else 0.0
    result.realised_load = sum(realised) / len(realised) \
        if realised else 0.0
    scheduled = [d["scheduled_load"] for d in report]
    result.scheduled_load = sum(scheduled) / len(scheduled)
    makespan = max(t for t in platform.completion_times)
    result.throughput_wpkc = (result.words * 1000.0 /
                              (makespan * spec.n_cores)) if makespan else 0.0
    return result
