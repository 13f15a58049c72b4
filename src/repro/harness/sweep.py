"""Parameter sweeps: grids of TG-flow experiments from one spec.

Architectural exploration is "carrying out the same set of simulations
for each design alternative" — a sweep spec names the benchmark, the
core counts, the interconnects and the replay modes, and the runner
produces one :class:`~repro.harness.parallel.PointResult` row per grid
point, plus table/CSV renderings.

Specs are plain dictionaries (JSON-friendly, used by ``repro-sweep``)::

    {
      "benchmark": "mp_matrix",
      "cores": [2, 4, 8],
      "interconnects": ["ahb", "xpipes"],
      "modes": ["reactive"],
      "app_params": {"n": 8}
    }

The runner — a worker pool with per-point crash isolation and an
on-disk result cache, or the same engine in process with ``jobs=1`` —
lives in :mod:`repro.harness.parallel` / :mod:`repro.harness.cache`
and shares this module's :class:`SweepSpec` and renderers (see
docs/SWEEPS.md).
"""

import copy
import csv
import io
from typing import Dict, List, Optional, Union

from repro.core.modes import ReplayMode
from repro.faults import FaultSpec
from repro.stats import Table

_APP_NAMES = ("sp_matrix", "cacheloop", "mp_matrix", "des")

#: The pseudo-benchmark name for generated (trace-free) workloads; its
#: grid points carry a resolved traffic-spec dict instead of an app.
SYNTHETIC = "synthetic"


def _resolve_app(name: str):
    from repro import apps
    if name not in _APP_NAMES:
        raise ValueError(f"unknown benchmark {name!r}; "
                         f"choose from {_APP_NAMES + (SYNTHETIC,)}")
    return getattr(apps, name)


def _validated_cores(cores: List[int]) -> List[int]:
    """Core counts must be ints >= 1; duplicates collapse, order kept."""
    if not isinstance(cores, (list, tuple)):
        raise ValueError(f"cores must be a list, got {cores!r}")
    if not cores:
        raise ValueError("sweep needs at least one core count")
    validated: List[int] = []
    for value in cores:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"core counts must be integers, got {value!r}")
        if value < 1:
            raise ValueError(f"core counts must be >= 1, got {value}")
        if value not in validated:
            validated.append(value)
    return validated


def _deduped(name: str, values) -> List:
    """The axis ``name`` as a list, duplicate values dropped in
    first-seen order; anything but a list is refused (a string would
    split into one bogus value per character)."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    unique = []
    for value in values:
        if value not in unique:
            unique.append(value)
    return unique


class SweepSpec:
    """A validated sweep description.

    Every axis is validated on construction: each axis must be a list,
    the benchmark must be one of the four paper apps (or
    ``"synthetic"``), core counts must be positive integers, each
    interconnect one of :attr:`WARMUP_FABRICS`, and duplicate axis
    values (which would double-simulate grid points) are collapsed while
    preserving order.
    An optional fault specification applies to the TG run of *every*
    grid point (degraded-platform sweeps); it participates in result
    cache keys.

    With ``benchmark="synthetic"`` the spec carries a ``traffic``
    template (a :class:`~repro.apps.synthetic.TrafficSpec` dict — its
    ``n_cores``/``mode`` are overridden per grid point) plus two
    optional extra axes: ``loads`` (offered-load fractions, the
    saturation-curve x-axis) and ``patterns`` (spatial patterns).

    ``warmup_cycles``/``warmup_fabric`` arm mixed-fidelity fast-forward
    for every grid point (see docs/CHECKPOINT.md); ``jobs`` pins the
    worker count in the spec itself (``"auto"`` or ``0`` = all CPUs;
    the ``--jobs`` flag overrides).
    """

    #: The platform's fabrics: every interconnect and warm-up fabric.
    WARMUP_FABRICS = ("ahb", "stbus", "tlm", "xpipes")

    def __init__(self, benchmark: str, cores: List[int],
                 interconnects: Optional[List[str]] = None,
                 modes: Optional[List[str]] = None,
                 app_params: Optional[Dict] = None,
                 fault_spec: Union[None, Dict, FaultSpec] = None,
                 fault_seed: int = 0,
                 traffic: Optional[Dict] = None,
                 loads: Optional[List[float]] = None,
                 patterns: Optional[List[str]] = None,
                 warmup_cycles: Optional[int] = None,
                 warmup_fabric: str = "tlm",
                 jobs: Union[None, int, str] = None):
        if warmup_cycles is not None:
            if isinstance(warmup_cycles, bool) \
                    or not isinstance(warmup_cycles, int) \
                    or warmup_cycles < 1:
                raise ValueError(f"warmup_cycles must be an int >= 1, "
                                 f"got {warmup_cycles!r}")
            if warmup_fabric not in self.WARMUP_FABRICS:
                raise ValueError(
                    f"unknown warmup_fabric {warmup_fabric!r}; choose "
                    f"from {self.WARMUP_FABRICS}")
        self.warmup_cycles = warmup_cycles
        self.warmup_fabric = warmup_fabric
        if jobs == "auto":
            jobs = 0
        if jobs is not None and (isinstance(jobs, bool)
                                 or not isinstance(jobs, int)
                                 or jobs < 0):
            raise ValueError(f"jobs must be 'auto' or an int >= 0 "
                             f"(0 = all CPUs), got {jobs!r}")
        self.jobs = jobs
        if benchmark != SYNTHETIC:
            _resolve_app(benchmark)
        self.benchmark = benchmark
        self.cores = _validated_cores(cores)
        self.interconnects = _deduped("interconnects",
                                      interconnects or ["ahb"])
        for fabric in self.interconnects:
            if fabric not in self.WARMUP_FABRICS:
                raise ValueError(f"unknown interconnect {fabric!r}; "
                                 f"choose from {self.WARMUP_FABRICS}")
        self.modes = [ReplayMode.from_name(mode)
                      for mode in _deduped("modes", modes or ["reactive"])]
        if not isinstance(app_params, (dict, type(None))):
            raise ValueError(f"app_params must be a dict of benchmark "
                             f"parameters, got {app_params!r}")
        self.app_params = copy.deepcopy(dict(app_params or {}))
        if isinstance(fault_spec, dict):
            fault_spec = FaultSpec.from_dict(fault_spec)
        elif not isinstance(fault_spec, (FaultSpec, type(None))):
            raise ValueError(f"fault_spec must be a dict, got "
                             f"{fault_spec!r}")
        self.fault_spec: Optional[Dict] = (
            fault_spec.to_dict() if isinstance(fault_spec, FaultSpec)
            else None)
        if isinstance(fault_seed, bool) or not isinstance(fault_seed, int):
            raise ValueError(f"fault_seed must be an int, got {fault_seed!r}")
        self.fault_seed = fault_seed
        self.loads = self.patterns = None
        self.traffic = self._validated_traffic(traffic, loads, patterns)

    def fabric_grid(self):
        """One fabric's grid, ``(mode, n_cores, pattern, load)`` per
        point in canonical order (mode, then core count, then pattern,
        then load); ``pattern`` and ``load`` are None outside synthetic
        sweeps."""
        for mode in self.modes:
            for n_cores in self.cores:
                for pattern in (self.patterns or [None]):
                    for load in (self.loads or [None]):
                        yield mode, n_cores, pattern, load

    def _validated_traffic(self, traffic, loads, patterns):
        """The normalised traffic template; sets ``loads``/``patterns``."""
        if self.benchmark != SYNTHETIC:
            if traffic is not None or loads or patterns:
                raise ValueError(
                    "traffic/loads/patterns only apply to "
                    "benchmark 'synthetic'")
            return None
        from repro.apps.synthetic import (
            PATTERNS,
            TrafficSpec,
            TrafficSpecError,
        )
        if not isinstance(traffic, dict):
            raise ValueError(
                "benchmark 'synthetic' needs a 'traffic' template dict "
                "(see docs/TRAFFIC.md)")
        loads = _deduped("loads", loads) if loads else None
        if loads is not None:
            for load in loads:
                if isinstance(load, bool) \
                        or not isinstance(load, (int, float)) \
                        or not 0.0 < float(load) <= 1.0:
                    raise ValueError(
                        f"loads must be fractions in (0, 1], got {load!r}")
        patterns = _deduped("patterns", patterns) if patterns else None
        if patterns is not None:
            for pattern in patterns:
                if pattern not in PATTERNS:
                    raise ValueError(
                        f"unknown pattern {pattern!r}; "
                        f"choose from {PATTERNS}")
        self.loads, self.patterns = loads, patterns
        # validate the fully-resolved template for every grid combination
        # up front — a bad spec must fail at submission, not at point 37
        template = dict(traffic)
        first = None
        for mode, n_cores, pattern, load in self.fabric_grid():
            try:
                spec = TrafficSpec.from_dict(resolve_traffic(
                    template, n_cores, mode.value, pattern, load))
            except TrafficSpecError as error:
                raise ValueError(
                    f"invalid traffic spec for {n_cores} cores"
                    + (f", pattern {pattern!r}" if pattern else "")
                    + (f", load {load:g}" if load else "")
                    + f": {error.message}") from error
            first = first or spec
        normalised = first.to_dict()
        # keep the *template* fields the user wrote (minus the per-point
        # overrides) but in normalised, JSON-stable form
        for key in ("n_cores", "mode"):
            normalised.pop(key)
        if patterns is not None:
            normalised.pop("pattern")
        if loads is not None:
            normalised.pop("load")
        for key in list(normalised):
            if key not in template and normalised[key] is None:
                normalised.pop(key)
        return normalised

    @staticmethod
    def from_dict(data: Dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a sweep spec must be a JSON object, "
                             f"got {data!r}")
        known = {"benchmark", "cores", "interconnects", "modes",
                 "app_params", "fault_spec", "fault_seed",
                 "traffic", "loads", "patterns",
                 "warmup_cycles", "warmup_fabric", "jobs"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        for key in ("benchmark", "cores"):
            if key not in data:
                raise ValueError(f"sweep spec needs a {key!r} key")
        return SweepSpec(
            benchmark=data["benchmark"],
            cores=data["cores"],
            interconnects=data.get("interconnects"),
            modes=data.get("modes"),
            app_params=data.get("app_params"),
            fault_spec=data.get("fault_spec"),
            fault_seed=data.get("fault_seed", 0),
            traffic=data.get("traffic"),
            loads=data.get("loads"),
            patterns=data.get("patterns"),
            warmup_cycles=data.get("warmup_cycles"),
            warmup_fabric=data.get("warmup_fabric", "tlm"),
            jobs=data.get("jobs"))

    def to_dict(self) -> Dict:
        """The canonical JSON-friendly form; round-trips via ``from_dict``.

        This is what the sweep journal stores in its header, so a
        ``--resume`` can rebuild the exact grid without the spec file.
        """
        data = {
            "benchmark": self.benchmark,
            "cores": list(self.cores),
            "interconnects": list(self.interconnects),
            "modes": [mode.value for mode in self.modes],
            "app_params": copy.deepcopy(self.app_params),
            "fault_spec": copy.deepcopy(self.fault_spec),
            "fault_seed": self.fault_seed,
        }
        if self.warmup_cycles is not None:
            data["warmup_cycles"] = self.warmup_cycles
            data["warmup_fabric"] = self.warmup_fabric
        if self.jobs is not None:
            data["jobs"] = self.jobs
        if self.benchmark == SYNTHETIC:
            data["traffic"] = copy.deepcopy(self.traffic)
            if self.loads is not None:
                data["loads"] = list(self.loads)
            if self.patterns is not None:
                data["patterns"] = list(self.patterns)
        return data

    @property
    def points(self) -> int:
        return len(self.interconnects) * sum(1 for _ in self.fabric_grid())


def resolve_traffic(template: Dict, n_cores: int, mode: str,
                    pattern: Optional[str] = None,
                    load: Optional[float] = None) -> Dict:
    """One grid point's fully-resolved traffic-spec dict."""
    resolved = copy.deepcopy(dict(template))
    resolved["n_cores"] = n_cores
    resolved["mode"] = mode
    if pattern is not None:
        resolved["pattern"] = pattern
    if load is not None:
        resolved["load"] = load
    return resolved


def _is_synthetic_row(result) -> bool:
    return getattr(result, "offered_load", None) is not None


#: Table layouts: headers, the column a failed row's ``FAILED`` label
#: goes in, and how many leading columns a failed row keeps.
_LAYOUTS = {
    "classic": (("benchmark", "fabric", "mode", "#IPs", "ARM cycles",
                 "TG cycles", "error", "gain", "event gain"), "error", 4),
    "synthetic": (("pattern", "fabric", "mode", "#IPs", "load",
                   "TG cycles", "issued", "avg lat", "max lat",
                   "words/kcyc"), "avg lat", 5),
    "mixed": (("benchmark", "fabric", "mode", "#IPs", "ARM cycles",
               "TG cycles", "error", "gain", "load", "issued", "avg lat",
               "words/kcyc"), "error", 4),
}


def _cells(result) -> Dict[str, object]:
    """Every column a row fills, by header; the rest render as ``-``."""
    synthetic = _is_synthetic_row(result)
    name = result.benchmark
    if synthetic:
        name = getattr(result, "pattern", None) or name
    cells: Dict[str, object] = {
        "benchmark": name, "pattern": name,
        "fabric": result.interconnect, "mode": result.mode.value,
        "#IPs": f"{result.n_cores}P"}
    if synthetic:
        cells["load"] = f"{result.offered_load:.2f}"
    if getattr(result, "status", "ok") != "ok":
        return cells
    cells["TG cycles"] = result.tg_cycles
    if synthetic:
        cells.update({
            "issued": result.issued,
            "avg lat": f"{result.latency_avg:.1f}",
            "max lat": result.latency_max,
            "words/kcyc": f"{result.throughput_wpkc:.1f}"})
    else:
        cells.update({
            "ARM cycles": result.ref_cycles,
            "error": f"{result.error:.2%}",
            "gain": f"{result.gain:.2f}x",
            "event gain": f"{result.event_gain:.2f}x"})
    return cells


def sweep_table(results: List, title: Optional[str] = None) -> str:
    """Render sweep results as a fixed-width table.

    Accepts any row with the :class:`~repro.harness.experiments.RunResult`
    surface — :class:`~repro.harness.parallel.PointResult` rows from a
    sweep, or the flows' own results.  Trace-benchmark rows get the
    reference-comparison layout; synthetic rows (a non-None
    ``offered_load``) get a load/latency layout instead.  A *mixed*
    list (e.g. concatenated sweeps) gets the union layout: one header
    with both column families, each row padded with ``-`` in the
    columns that do not apply to it.  Failed grid points render as a
    ``FAILED`` row instead of fake numbers.
    """
    flags = [_is_synthetic_row(r) for r in results]
    layout = "synthetic" if results and all(flags) \
        else "mixed" if any(flags) else "classic"
    headers, label_column, kept = _LAYOUTS[layout]
    table = Table(list(headers), title=title)
    for result in results:
        cells = _cells(result)
        if getattr(result, "status", "ok") != "ok":
            failure = getattr(result, "failure", None)
            cells = {header: cells[header] for header in headers[:kept]}
            cells[label_column] = "FAILED" if failure is None \
                else f"FAILED:{failure.kind}"
        table.add_row(*(cells.get(header, "-") for header in headers))
    return table.render()


#: Extra CSV columns appended when any row is synthetic.
_SYNTHETIC_CSV_COLUMNS = ("pattern", "offered_load", "scheduled_load",
                          "realised_load", "issued", "latency_avg",
                          "latency_max", "throughput_wpkc")


def sweep_csv(results: List) -> str:
    """Render sweep results as CSV text (RFC-4180 quoting).

    Values containing commas, quotes or newlines (e.g. a fault-spec
    axis value rendered into a column, or a failure status) are
    properly quoted — plain ``",".join`` would corrupt such rows.  The
    trailing ``status`` column is ``ok``, or ``failed:<kind>`` with the
    failure-taxonomy kind (``worker-crash`` | ``timeout`` |
    ``simulation-error`` | ``interrupted``) when the row carries a
    typed failure; failed rows carry zeros in the numeric columns.
    Synthetic rows append the load/latency columns; classic rows leave
    them empty.
    """
    synthetic = any(_is_synthetic_row(r) for r in results)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["benchmark", "interconnect", "mode", "n_cores",
              "ref_cycles", "tg_cycles", "error", "ref_wall", "tg_wall",
              "gain", "event_gain", "status"]
    if synthetic:
        header += list(_SYNTHETIC_CSV_COLUMNS)
    writer.writerow(header)
    for result in results:
        status = getattr(result, "status", "ok")
        failure = getattr(result, "failure", None)
        if status != "ok" and failure is not None:
            status = f"{status}:{failure.kind}"
        row = [result.benchmark, result.interconnect, result.mode.value,
               result.n_cores, result.ref_cycles, result.tg_cycles,
               result.error, result.ref_wall, result.tg_wall,
               result.gain, result.event_gain, status]
        if synthetic:
            if _is_synthetic_row(result):
                # a failed synthetic row can carry None in columns that
                # were never measured; emit empty cells, not "None"
                extras = [getattr(result, name, None)
                          for name in _SYNTHETIC_CSV_COLUMNS]
                row += [value if value is not None else ""
                        for value in extras]
            else:
                row += [""] * len(_SYNTHETIC_CSV_COLUMNS)
        writer.writerow(row)
    return buffer.getvalue()
