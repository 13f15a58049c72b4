"""Group cProfile self time by module into the layers of the simulator.

Every module under ``src/repro`` maps to exactly one layer through
:data:`MODULE_LAYERS`.  A key names either one module (``kernel.event``)
or a whole package (``cpu``); the longest matching key wins.  Packages
that are split between layers (``core``, ``kernel``, ``interconnect``,
``trace``, ``harness``, ``artifacts``) list every module one by one, so
a module added there has no layer until someone decides which it
belongs to.  ``test_benchmark.py`` fails on such a module; at run time
it lands in ``other``.

Self time of a builtin (``len``, ``heapq.heappush``, ``select``) goes to
the layer of the function that called it, split by the time each caller
spent in it.  Everything else outside ``repro`` (the standard library,
this benchmark) is ``other``.
"""

from pathlib import Path
from typing import Dict, Iterable, Optional

#: Layers in report order.
LAYERS = (
    "kernel", "core.interp", "core.asm", "cpu", "ocp",
    "fabric.ahb", "fabric.arbiter", "fabric.stbus", "fabric.xpipes",
    "fabric.tlm", "fabric.base", "memory", "trace.collect",
    "trace.translate", "apps", "platform", "snapshot", "artifacts",
    "harness", "harness.store", "other",
)

#: Module (dotted, relative to ``repro``) or package -> layer.
MODULE_LAYERS: Dict[str, str] = {
    "": "other",                       # repro/__init__.py
    "kernel": "kernel",                # kernel/__init__.py
    "kernel.backend": "kernel",
    "kernel.calendar": "kernel",
    "kernel.component": "kernel",
    "kernel.errors": "kernel",
    "kernel.event": "kernel",
    "kernel.process": "kernel",
    "kernel.signal": "kernel",
    "kernel.simulator": "kernel",
    "kernel.snapshot": "snapshot",
    "core": "core.interp",             # core/__init__.py
    "core.decode": "core.interp",
    "core.hw_model": "core.interp",
    "core.isa": "core.interp",
    "core.modes": "core.interp",
    "core.multitask": "core.interp",
    "core.stochastic": "core.interp",
    "core.tg_master": "core.interp",
    "core.tg_slaves": "core.interp",
    "core.assembler": "core.asm",
    "core.program": "core.asm",
    "cpu": "cpu",
    "ocp": "ocp",
    "interconnect": "fabric.base",     # interconnect/__init__.py
    "interconnect.address_map": "fabric.base",
    "interconnect.base": "fabric.base",
    "interconnect.amba_ahb": "fabric.ahb",
    "interconnect.arbiter": "fabric.arbiter",
    "interconnect.stbus": "fabric.stbus",
    "interconnect.tlm": "fabric.tlm",
    "interconnect.xpipes": "fabric.xpipes",
    "memory": "memory",
    "trace": "trace.collect",          # trace/__init__.py
    "trace.collector": "trace.collect",
    "trace.events": "trace.collect",
    "trace.trc_format": "trace.collect",
    "trace.translator": "trace.translate",
    "trace.manifest": "artifacts",
    "apps": "apps",
    "platform": "platform",
    "artifacts": "artifacts",          # artifacts/__init__.py
    "artifacts.errors": "artifacts",
    "artifacts.header": "artifacts",
    "artifacts.io": "artifacts",
    "artifacts.snap": "snapshot",
    "harness": "harness",              # harness/__init__.py
    "harness.experiments": "harness",
    "harness.parallel": "harness",
    "harness.supervisor": "harness",
    "harness.sweep": "harness",
    "harness.checkpoint": "snapshot",
    "harness.cache": "harness.store",
    "harness.journal": "harness.store",
    # off in every workload (no faults, no CLI); kept explicit so that
    # the mapping stays total
    "faults": "other",
    "stats": "other",
    "cli": "other",
}

#: Packages whose modules are listed one by one above.
SPLIT_PACKAGES = ("kernel", "core", "interconnect", "trace", "harness",
                  "artifacts")


def module_of(path: Path, package_dir: Path) -> Optional[str]:
    """Dotted module name of ``path`` relative to ``repro``, or None."""
    try:
        relative = path.relative_to(package_dir)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or None when the table lacks it."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    package = module.split(".")[0]
    if package in SPLIT_PACKAGES:
        return None
    return MODULE_LAYERS.get(package)


class LayerMap:
    """Resolves profiled file names to layers, memoised per file."""

    def __init__(self, package_dir: Path):
        self.package_dir = package_dir.resolve()
        self._cache: Dict[str, str] = {}

    def layer_of_file(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            module = None
            if filename.endswith(".py"):
                module = module_of(Path(filename).resolve(),
                                   self.package_dir)
            layer = (layer_of_module(module) if module is not None
                     else None) or "other"
            self._cache[filename] = layer
        return layer

    def self_times(self, stats: Dict) -> Dict[str, float]:
        """Self seconds per layer from ``pstats.Stats(...).stats``.

        Entries are ``(file, line, name) -> (cc, nc, tt, ct, callers)``;
        builtins have file ``"~"`` and their ``callers`` map each caller
        to the part of ``tt`` spent on its behalf.
        """
        totals = dict.fromkeys(LAYERS, 0.0)
        for (filename, _, _), (_, _, tt, _, callers) in stats.items():
            if filename != "~":
                totals[self.layer_of_file(filename)] += tt
                continue
            attributed = 0.0
            for (caller_file, _, _), caller_entry in callers.items():
                totals[self.layer_of_file(caller_file)] += caller_entry[2]
                attributed += caller_entry[2]
            totals["other"] += max(0.0, tt - attributed)
        return totals


def unmapped_modules(package_dir: Path) -> Iterable[str]:
    """Every module under ``package_dir`` that has no layer."""
    for path in sorted(package_dir.rglob("*.py")):
        module = module_of(path, package_dir)
        if layer_of_module(module) is None:
            yield module
