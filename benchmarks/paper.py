"""Regenerate and check every number EXPERIMENTS.md reports.

    python benchmarks/paper.py      # needs repro importable (pip install -e .)

Runs Figure 3 and E3-E17 (DESIGN.md §3), writes ``RESULTS.json`` and
rewrites each ``<!-- paper.py:NAME -->`` block of ``EXPERIMENTS.md``
from it.  Deterministic fields (cycles, errors, event counts, program
CRCs, ...) are exact; wall times, under ``wall`` keys, are the median
and quartiles of ``RUNS`` runs and are never compared, nor is ``host``.
Exits 1, after writing both files, when a check fails or a deterministic
field differs from the ``RESULTS.json`` on disk (each printed old -> new).
"""

import json
import os
import platform as host_platform
import re
import statistics
import sys
import time
from pathlib import Path

from repro.apps import cacheloop, des, mp_matrix, sp_matrix
from repro.apps.common import MATRIX_C_OFF, pollable_ranges
from repro.artifacts import crc32_hex
from repro.core import (MultitaskTGMaster, ReplayMode, StochasticTGMaster,
                        TGInstruction, TGMaster, TGOp, TGProgram,
                        TrafficProfile)
from repro.core.assembler import assemble_binary
from repro.core.isa import ADDRREG
from repro.harness import reference_run, run_tg, translate_traces
from repro.ocp.types import OCPCommand
from repro.platform import MparmPlatform, PlatformConfig, SHARED_BASE
from repro.stats import estimate_energy
from repro.trace import (Phase, TraceEvent, Translator, TranslatorOptions,
                         group_events)

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "RESULTS.json"
EXPERIMENTS_PATH = ROOT / "EXPERIMENTS.md"

#: Timed runs behind every wall-time field.
RUNS = 5
#: Keys whose subtrees hold wall times or host facts: never compared.
UNCOMPARED = ("wall", "host")
#: The paper's Table-2 error band; every reproduced row must lie in it.
ERROR_BAND = 0.015

FABRICS = ["ahb", "xpipes", "stbus", "tlm"]
FABRIC_NAMES = {"ahb": "AHB", "xpipes": "×pipes", "stbus": "STBus",
                "tlm": "TLM"}
APPS = {"sp_matrix": sp_matrix, "cacheloop": cacheloop,
        "mp_matrix": mp_matrix, "des": des}
APP_NAMES = {"sp_matrix": "SP matrix", "cacheloop": "Cacheloop",
             "mp_matrix": "MP matrix", "des": "DES"}

#: Table 2 (E3-E6): app -> (params, {cores: (paper error %, paper gain)}).
TABLE2 = {
    "sp_matrix": ({"n": 8}, {1: (0.00, 2.15)}),
    "cacheloop": ({"iters": 1500}, {
        2: (0.00, 3.36), 4: (0.00, 3.95), 6: (0.00, 4.38),
        8: (0.00, 4.41), 10: (0.01, 4.69), 12: (0.01, 4.69)}),
    "mp_matrix": ({"n": 8}, {
        2: (0.01, 2.64), 4: (0.08, 3.05), 6: (0.17, 3.20),
        8: (1.52, 3.17), 10: (0.45, 3.15), 12: (0.00, 3.02)}),
    "des": ({"blocks": 4}, {
        3: (0.21, 2.60), 4: (0.29, 3.09), 6: (0.05, 2.65),
        8: (0.04, 2.43), 10: (0.03, 2.26), 12: (0.00, 2.02)}),
}
#: E7: app -> (cores, params), each traced on every fabric.
E7 = {"mp_matrix": (3, {"n": 4}), "des": (3, {"blocks": 3}),
      "sp_matrix": (1, {"n": 4}), "cacheloop": (2, {"iters": 150})}
#: E8: the paper's MP matrix 4P tracing cost (seconds, MB).
E8_PAPER = {"plain_s": 128, "traced_s": 147, "translate_s": 145,
            "trace_mb": 20}
#: E9: flow name -> (app, cores, params, target fabric); traced on AHB.
E9 = {"des-xpipes": ("des", 3, {"blocks": 3}, "xpipes"),
      "des-stbus": ("des", 3, {"blocks": 3}, "stbus"),
      "mp_matrix-stbus": ("mp_matrix", 3, {"n": 4}, "stbus")}
#: E10: Cacheloop's event-gain series (MP matrix's is Table 2's rows).
E10_CACHELOOP = ({"iters": 800}, [2, 6, 12])
E10_MP_MATRIX = [2, 12]
#: E11: trace once on TLM, rank these fabrics with TGs.
E11_CANDIDATES = ["ahb", "stbus", "xpipes"]


# ---------------------------------------------------------------- timing

def timed_rounds(*steps, runs=RUNS):
    """Run ``steps`` ``runs`` times, reversing their order every other
    round; returns each step's wall times and its last result."""
    walls = [[] for _ in steps]
    last = [None] * len(steps)
    for run in range(runs):
        order = range(len(steps)) if run % 2 == 0 \
            else reversed(range(len(steps)))
        for index in order:
            start = time.perf_counter()
            last[index] = steps[index]()
            walls[index].append(time.perf_counter() - start)
    return walls, last


def summary(samples):
    """Median, first and third quartiles and count of ``samples``."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": len(samples)}


def error(predicted, truth):
    return abs(predicted - truth) / truth


def traced_programs(app, n_cores, params, interconnect="ahb"):
    platform, collectors, _ = reference_run(app, n_cores, interconnect,
                                            app_params=params)
    return platform, collectors, translate_traces(collectors, n_cores)


# ----------------------------------------------------------- experiments

def figure3():
    """E2: the paper's Figure 3 trace through the translator."""
    events = [
        TraceEvent(Phase.REQ, 55, OCPCommand.READ, 0x104, 1, None, 0),
        TraceEvent(Phase.ACC, 60, OCPCommand.READ, 0x104, 1, None, 0),
        TraceEvent(Phase.RESP, 75, OCPCommand.READ, 0x104, 1,
                   0x088000F0, 0),
        TraceEvent(Phase.REQ, 90, OCPCommand.WRITE, 0x20, 1, 0x111, 1),
        TraceEvent(Phase.ACC, 95, OCPCommand.WRITE, 0x20, 1, None, 1),
        TraceEvent(Phase.REQ, 140, OCPCommand.READ, 0xC4, 1, None, 2),
        TraceEvent(Phase.ACC, 145, OCPCommand.READ, 0xC4, 1, None, 2),
        TraceEvent(Phase.RESP, 165, OCPCommand.READ, 0xC4, 1, 0x2236, 2),
    ]
    return {"tgp": Translator().translate_events(events).to_tgp()}


def table2_row(app, n_cores, params, runs=RUNS):
    """One Table-2 row: the traced reference run provides the ARM cycles
    and the programs; the untraced ARM run and the TG run, each
    including platform build, are timed in ``runs`` alternating pairs."""
    traced, _, programs = traced_programs(app, n_cores, params)
    (arm_walls, tg_walls), (arm, tg) = timed_rounds(
        lambda: reference_run(app, n_cores, app_params=params,
                              collect=False)[0],
        lambda: run_tg(programs, n_cores)[0], runs=runs)
    arm_cycles = traced.cumulative_execution_time
    tg_cycles = tg.cumulative_execution_time
    return {
        "arm_cycles": arm_cycles,
        "tg_cycles": tg_cycles,
        "error": error(tg_cycles, arm_cycles),
        "arm_events": arm.sim.events_fired,
        "tg_events": tg.sim.events_fired,
        "event_gain": arm.sim.events_fired / max(1, tg.sim.events_fired),
        # only the AHB bus (every Table-2 row's fabric) has utilisation()
        "bus_utilisation": arm.fabric.utilisation(),
        "wall": {"arm_s": summary(arm_walls), "tg_s": summary(tg_walls),
                 "gain": summary([a / t for a, t in zip(arm_walls,
                                                        tg_walls)])},
    }


def table2():
    """E3-E6: the 19 rows of Table 2."""
    return {name: {str(n): table2_row(APPS[name], n, params)
                   for n in rows}
            for name, (params, rows) in TABLE2.items()}


def e7():
    """§6: the translated programs are the same whichever fabric the
    trace came from, although the executions differ."""
    results = {}
    for name, (n_cores, params) in E7.items():
        cycles, tgp, binary, programs = {}, {}, {}, {}
        for fabric in FABRICS:
            platform, _, programs[fabric] = traced_programs(
                APPS[name], n_cores, params, fabric)
            cycles[fabric] = platform.cumulative_execution_time
            ordered = [programs[fabric][core] for core in range(n_cores)]
            tgp[fabric] = crc32_hex("".join(
                p.to_tgp() for p in ordered).encode())
            binary[fabric] = crc32_hex(b"".join(
                assemble_binary(p) for p in ordered))
        results[name] = {
            "cycles": cycles, "tgp_crc32": tgp, "bin_crc32": binary,
            "identical": all(programs[fabric] == programs["ahb"]
                             for fabric in FABRICS)}
    return results


def e8():
    """§6: the one-off cost of tracing and translation, MP matrix 4P."""
    n_cores, params = 4, {"n": 8}
    (plain_walls, traced_walls), (plain, (_, collectors, _)) = timed_rounds(
        lambda: reference_run(mp_matrix, n_cores, app_params=params,
                              collect=False)[0],
        lambda: reference_run(mp_matrix, n_cores, app_params=params))
    (translate_walls,), (programs,) = timed_rounds(
        lambda: translate_traces(collectors, n_cores))
    return {
        "arm_cycles": plain.cumulative_execution_time,
        "trace_bytes": sum(len(collector.to_trc().encode())
                           for collector in collectors.values()),
        "instructions": sum(len(program) for program in programs.values()),
        "wall": {"plain_s": summary(plain_walls),
                 "traced_s": summary(traced_walls),
                 "translate_s": summary(translate_walls)},
    }


def e9():
    """§3 taxonomy: predict another fabric from AHB traces in each
    replay mode and compare with real cores on that fabric."""
    results = {}
    for flow, (name, n_cores, params, target) in E9.items():
        _, collectors, _ = reference_run(APPS[name], n_cores, "ahb",
                                         app_params=params)
        truth = reference_run(APPS[name], n_cores, target,
                              app_params=params)[0].cumulative_execution_time
        predicted = {
            mode.value: run_tg(translate_traces(collectors, n_cores, mode),
                               n_cores, target)[0].cumulative_execution_time
            for mode in ReplayMode}
        results[flow] = {
            "truth": truth, "predicted": predicted,
            "error": {mode: error(cycles, truth)
                      for mode, cycles in predicted.items()}}
    return results


def e10():
    """Table 2's trends: Cacheloop's event gain by core count (MP
    matrix's series is read from the Table-2 rows)."""
    params, cores = E10_CACHELOOP
    return {"cacheloop": {
        str(n): {key: value for key, value
                 in table2_row(cacheloop, n, params, runs=2).items()
                 if key != "wall"}
        for n in cores}}


def e11():
    """DSE: trace once on TLM, rank the candidate fabrics with TGs."""
    n_cores, params = 3, {"n": 4}
    _, _, programs = traced_programs(mp_matrix, n_cores, params, "tlm")
    predicted = {fabric: run_tg(programs, n_cores, fabric)[0]
                 .cumulative_execution_time for fabric in E11_CANDIDATES}
    truth = {fabric: reference_run(mp_matrix, n_cores, fabric,
                                   app_params=params, collect=False)[0]
             .cumulative_execution_time for fabric in E11_CANDIDATES}
    return {"predicted": predicted, "truth": truth,
            "ranking_match": (sorted(E11_CANDIDATES, key=predicted.get)
                              == sorted(E11_CANDIDATES, key=truth.get))}


def e12():
    """§7 multitasking: two traced Cacheloop cores on one socket."""
    params = {"iters": 400}
    _, _, programs = traced_programs(cacheloop, 2, params)

    def consolidated(scheduler, **kwargs):
        platform = MparmPlatform(PlatformConfig(n_masters=2))
        multitask = MultitaskTGMaster(platform.sim, "cpu0",
                                      [programs[0], programs[1]],
                                      scheduler=scheduler, **kwargs)
        platform.add_master(multitask)
        platform.add_master(TGMaster(platform.sim, "filler", TGProgram(
            core_id=1, instructions=[TGInstruction(TGOp.HALT)])))
        platform.run()
        return {"cycles": multitask.completion_time,
                "context_switches": multitask.context_switches}

    return {
        "reference": reference_run(cacheloop, 2, app_params=params,
                                   collect=False)[0].sim.now,
        "timeslice": consolidated("timeslice", timeslice=64,
                                  context_switch_cycles=8),
        "sleep": consolidated("sleep", sleep_threshold=32,
                              context_switch_cycles=8)}


def e13():
    """§7 out-of-order transactions: 12 reads over the ×pipes mesh."""
    def run(read_op, count=12):
        platform = MparmPlatform(PlatformConfig(n_masters=1,
                                                interconnect="xpipes"))
        instrs = []
        for index in range(count):
            instrs += [TGInstruction(TGOp.SET_REGISTER, a=ADDRREG,
                                     imm=SHARED_BASE + index * 4),
                       TGInstruction(read_op, a=ADDRREG)]
        if read_op == TGOp.READ_NB:
            instrs.append(TGInstruction(TGOp.FENCE))
        instrs.append(TGInstruction(TGOp.HALT))
        tg = TGMaster(platform.sim, "tg0", TGProgram(instructions=instrs))
        platform.add_master(tg)
        platform.run()
        return tg.completion_time

    return {"blocking": run(TGOp.READ), "pipelined": run(TGOp.READ_NB)}


def e14():
    """AHB arbitration policies explored with TGs, MP matrix 4P."""
    n_cores = 4
    _, _, programs = traced_programs(mp_matrix, n_cores, {"n": 4})

    def evaluate(policy, **arbiter_kwargs):
        return run_tg(programs, n_cores, "ahb", {"fabric_kwargs": {
            "arbiter_policy": policy, "arbiter_kwargs": arbiter_kwargs}}
        )[0].cumulative_execution_time

    return {"round_robin": evaluate("round_robin"),
            "fixed": evaluate("fixed"),
            "tdma": evaluate("tdma", slot_table=list(range(n_cores)),
                             slot_cycles=16)}


def e15():
    """×pipes endpoint placement explored with TGs, MP matrix 2P."""
    n_cores = 2
    _, _, programs = traced_programs(mp_matrix, n_cores, {"n": 4})

    def evaluate(placement):
        platform, _, _ = run_tg(programs, n_cores, "xpipes", {
            "fabric_kwargs": {"mesh": (3, 3), "placement": placement}})
        return {"cycles": platform.cumulative_execution_time,
                "flit_hops": estimate_energy(platform)["flit_hops"]}

    # masters next to the shared memory vs banished to far corners
    return {"near": evaluate({0: (1, 1), 1: (2, 1), "shared": (1, 2),
                              "sem": (2, 2), "bar": (0, 2)}),
            "far": evaluate({0: (0, 0), 1: (2, 0), "shared": (2, 2),
                             "sem": (0, 2), "bar": (1, 2)})}


def e16():
    """§2: a trace-fitted stochastic TG against the reactive TG."""
    n_cores, params, target = 3, {"n": 4}, "xpipes"

    def stochastic(collectors, seed, interconnect):
        platform = MparmPlatform(PlatformConfig(n_masters=n_cores,
                                                interconnect=interconnect))
        for master_id in range(n_cores):
            profile = TrafficProfile.fit(
                group_events(collectors[master_id].events))
            platform.add_master(StochasticTGMaster(
                platform.sim, f"stg{master_id}", profile,
                seed=seed + master_id))
        platform.run()
        return platform

    def result_matrix(platform):
        return platform.shared_mem.peek_block(SHARED_BASE + MATRIX_C_OFF, 16)

    reference, collectors, programs = traced_programs(mp_matrix, n_cores,
                                                      params)
    truth = reference_run(mp_matrix, n_cores, target, app_params=params
                          )[0].cumulative_execution_time
    golden = result_matrix(reference)
    return {
        "truth": truth,
        "reactive_error": error(run_tg(programs, n_cores, target)[0]
                                .cumulative_execution_time, truth),
        "stochastic_errors": [
            error(stochastic(collectors, seed * 101, target)
                  .cumulative_execution_time, truth)
            for seed in range(4)],
        "reactive_result_matrix_exact":
            result_matrix(run_tg(programs, n_cores)[0]) == golden,
        "stochastic_result_matrix_exact":
            result_matrix(stochastic(collectors, 7, "ahb")) == golden,
    }


def e17():
    """Translator ablation: address registers vs footprint and error."""
    n_cores = 3
    platform, collectors, _ = reference_run(mp_matrix, n_cores,
                                            app_params={"n": 4})
    truth = platform.cumulative_execution_time
    results = {}
    for n_regs in (1, 4, 8):
        options = TranslatorOptions(pollable_ranges=pollable_ranges(n_cores),
                                    address_registers=n_regs)
        programs = {mid: Translator(options).translate_events(c.events, mid)
                    for mid, c in collectors.items()}
        results[str(n_regs)] = {
            "instructions": sum(len(p) for p in programs.values()),
            "error": error(run_tg(programs, n_cores)[0]
                           .cumulative_execution_time, truth)}
    return results


EXPERIMENTS = {"figure3": figure3, "table2": table2, "e7": e7, "e8": e8,
               "e9": e9, "e10": e10, "e11": e11, "e12": e12, "e13": e13,
               "e14": e14, "e15": e15, "e16": e16, "e17": e17}


# ---------------------------------------------------------------- checks

def checks(results):
    """Yield ``(label, passed)`` for every check on ``results``."""
    tgp = results["figure3"]["tgp"]
    body = [line.strip() for line in tgp.split("BEGIN\n", 1)[1].splitlines()]
    yield "E2: Figure 3 opens with SetRegister", \
        body[0].startswith("SetRegister(")
    yield "E2: Figure 3's first idle is Idle(10)", body[1] == "Idle(10)"
    yield "E2: Figure 3 reads through addr", "Read(addr)" in tgp

    bounds = {"sp_matrix": 0.01, "cacheloop": 0.001, "mp_matrix": 0.05,
              "des": 0.05}
    for name, rows in results["table2"].items():
        for n, row in rows.items():
            label = f"Table 2 {APP_NAMES[name]} {n}P"
            yield (f"{label}: error {row['error']:.4%} within the "
                   f"paper's 0-{ERROR_BAND:.1%} band",
                   row["error"] <= ERROR_BAND)
            yield f"{label}: error < {bounds[name]:.1%}", \
                row["error"] < bounds[name]
            if name in ("sp_matrix", "cacheloop"):
                yield f"{label}: median gain > 1", \
                    row["wall"]["gain"]["median"] > 1.0
            else:
                yield f"{label}: event gain > 1", row["event_gain"] > 1.0

    for name, app in results["e7"].items():
        yield f"E7: {name} programs identical on every fabric", \
            app["identical"]
    yield "E7: MP matrix executions differ across fabrics", \
        len(set(results["e7"]["mp_matrix"]["cycles"].values())) > 1

    e8 = results["e8"]
    yield "E8: median traced run < 2x median plain run", \
        e8["wall"]["traced_s"]["median"] < 2 * e8["wall"]["plain_s"]["median"]
    yield "E8: translation yields programs", e8["instructions"] > 0

    for flow, (name, *_) in E9.items():
        err = results["e9"][flow]["error"]
        reactive = err["reactive"]
        yield f"E9 {flow}: reactive <= cloning", \
            reactive <= err["cloning"] + 1e-9
        if name == "des":
            yield f"E9 {flow}: reactive <= timeshifting", \
                reactive <= err["timeshifting"] + 1e-9
        else:
            yield f"E9 {flow}: reactive <= timeshifting + 1 %", \
                reactive <= err["timeshifting"] + 0.01
            yield f"E9 {flow}: reactive < 5 %", reactive < 0.05

    series = results["e10"]["cacheloop"]
    yield "E10: Cacheloop 12P event gain >= 0.9x 2P's", \
        series["12"]["event_gain"] >= series["2"]["event_gain"] * 0.9
    low, high = (results["table2"]["mp_matrix"][str(n)]
                 for n in E10_MP_MATRIX)
    yield "E10: MP matrix bus utilisation grows 2P -> 12P", \
        high["bus_utilisation"] > low["bus_utilisation"]
    yield "E10: MP matrix event gain shrinks 2P -> 12P", \
        high["event_gain"] < low["event_gain"]

    e11 = results["e11"]
    yield "E11: TG ranking matches the truth", e11["ranking_match"]
    for fabric in E11_CANDIDATES:
        yield f"E11: {fabric} prediction error < 6 %", \
            error(e11["predicted"][fabric], e11["truth"][fabric]) < 0.06

    reference = results["e12"]["reference"]
    timeslice = results["e12"]["timeslice"]["cycles"]
    sleep = results["e12"]["sleep"]["cycles"]
    yield "E12: timeslice > 1.5x the 2-core reference", \
        timeslice > reference * 1.5
    yield "E12: sleep < timeslice", sleep < timeslice
    yield "E12: sleep >= the 2-core reference", sleep >= reference
    e13, e14, e15 = results["e13"], results["e14"], results["e15"]
    yield "E13: pipelined reads beat blocking ones", \
        e13["pipelined"] < e13["blocking"]
    yield "E14: TDMA slower than round-robin", \
        e14["tdma"] > e14["round_robin"]
    yield "E15: near placement has fewer flit hops", \
        e15["near"]["flit_hops"] < e15["far"]["flit_hops"]
    yield "E15: near placement is no slower", \
        e15["near"]["cycles"] <= e15["far"]["cycles"]

    e16 = results["e16"]
    errors, reactive = e16["stochastic_errors"], e16["reactive_error"]
    yield "E16: reactive error < 5 %", reactive < 0.05
    yield "E16: stochastic mean error > reactive error", \
        statistics.mean(errors) > reactive
    yield "E16: stochastic seed spread > reactive error", \
        max(errors) - min(errors) > reactive
    yield "E16: reactive TG reproduces the result matrix", \
        e16["reactive_result_matrix_exact"]
    yield "E16: stochastic TG corrupts the result matrix", \
        not e16["stochastic_result_matrix_exact"]

    e17 = results["e17"]
    yield "E17: 8 registers give a smaller program than 1", \
        e17["8"]["instructions"] < e17["1"]["instructions"]
    yield "E17: 8-register error < 5 %", e17["8"]["error"] < 0.05


def flatten(tree, path=""):
    """``{dotted path: leaf}`` of ``tree``, in key order, without the
    subtrees under :data:`UNCOMPARED` keys."""
    if not isinstance(tree, dict):
        return {path: tree}
    leaves = {}
    for key in sorted(tree):
        if key not in UNCOMPARED:
            leaves.update(flatten(tree[key], f"{path}.{key}" if path else key))
    return leaves


def changed_fields(old, new):
    """Yield ``(path, old, new)`` for every deterministic field that
    differs between two results."""
    old, new = flatten(old), flatten(new)
    for path in sorted(old.keys() | new.keys()):
        if old.get(path) != new.get(path):
            yield path, old.get(path), new.get(path)


# ------------------------------------------------------------- rendering

def pct(value):
    return f"{value * 100:.2f} %"


def spread(stat, scale=1.0, unit="×"):
    """``median (q1–q3)`` of a wall summary, times ``scale``."""
    median, q1, q3 = (stat[key] * scale for key in ("median", "q1", "q3"))
    return f"{median:.1f}{unit} ({q1:.1f}–{q3:.1f})"


def config(params):
    return ", ".join(f"{key}={value}" for key, value in params.items())


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
              for row in rows]
    return "\n".join(lines)


def render_host(results):
    host = results["host"]
    return (f"Wall times were measured with CPython {host['python']} on "
            f"{host['cpus']} CPU(s); each is the median of {RUNS} runs, "
            f"with the first and third quartiles in parentheses.")


def render_table2(name):
    def render_block(results):
        rows = []
        for n, (paper_error, paper_gain) in TABLE2[name][1].items():
            row = results["table2"][name][str(n)]
            rows.append([f"{n}P", row["arm_cycles"], row["tg_cycles"],
                         f"{paper_error:.2f} %", pct(row["error"]),
                         f"{paper_gain:.2f}×",
                         spread(row["wall"]["gain"]),
                         f"{row['event_gain']:.2f}×"])
        return table(["#IPs", "ARM cycles", "TG cycles", "error (paper)",
                      "error (ours)", "gain (paper)", "gain (ours)",
                      "event gain (ours)"], rows)
    return render_block


def render_e7(results):
    rows = []
    for name, (n_cores, params) in E7.items():
        app = results["e7"][name]
        digests = (f"`{app['tgp_crc32']['ahb']}` / "
                   f"`{app['bin_crc32']['ahb']}`"
                   if app["identical"] else "**differ**")
        rows.append([f"{APP_NAMES[name]} {n_cores}P ({config(params)})"]
                    + [app["cycles"][fabric] for fabric in FABRICS]
                    + [digests])
    return table(["workload"] + [f"{FABRIC_NAMES[f]} cycles"
                                 for f in FABRICS]
                 + ["`.tgp` / `.bin` CRC32"], rows)


def render_e8(results):
    e8 = results["e8"]
    wall = e8["wall"]
    overhead = wall["traced_s"]["median"] / wall["plain_s"]["median"] - 1
    paper_overhead = E8_PAPER["traced_s"] / E8_PAPER["plain_s"] - 1
    return table(["quantity", "paper (MP matrix 4P)",
                  "ours (MP matrix 4P)"], [
        ["plain run", f"{E8_PAPER['plain_s']} s",
         spread(wall["plain_s"], 1000, " ms")],
        ["traced run", f"{E8_PAPER['traced_s']} s "
                       f"({paper_overhead * 100:+.0f} %)",
         f"{spread(wall['traced_s'], 1000, ' ms')}, "
         f"{overhead * 100:+.0f} %"],
        ["translation", f"{E8_PAPER['translate_s']} s / "
                        f"{E8_PAPER['trace_mb']} MB trace",
         f"{spread(wall['translate_s'], 1000, ' ms')} / "
         f"{e8['trace_bytes'] / 1e6:.2f} MB trace → "
         f"{e8['instructions']} TG instructions"],
    ])


def render_e9(results):
    modes = [mode.value for mode in ReplayMode]
    rows = []
    for flow, (name, n_cores, _, target) in E9.items():
        err = results["e9"][flow]["error"]
        best = min(err.values())
        rows.append([f"{APP_NAMES[name]} {n_cores}P, AHB → "
                     f"{FABRIC_NAMES[target]}"]
                    + [f"**{pct(err[mode])}**" if err[mode] == best
                       else pct(err[mode]) for mode in modes])
    return table(["flow"] + modes, rows)


def render_e10(results):
    params, cores = E10_CACHELOOP
    series = [("Cacheloop", params, results["e10"]["cacheloop"], cores),
              ("MP matrix", TABLE2["mp_matrix"][0],
               results["table2"]["mp_matrix"], E10_MP_MATRIX)]
    return table(["series", "#IPs", "AHB utilisation", "event gain"], [
        [f"{label} ({config(params)})", f"{n}P",
         f"{rows[str(n)]['bus_utilisation']:.2f}",
         f"{rows[str(n)]['event_gain']:.2f}×"]
        for label, params, rows, ns in series for n in ns])


def render_fields(name):
    """A field/value table of everything experiment ``name`` recorded."""
    def text(value):
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):      # these experiments' errors
            return pct(value)
        if isinstance(value, list):
            return ", ".join(text(item) for item in value)
        return str(value)

    def render_block(results):
        return table(["field", "value"], [
            [f"`{path}`", text(value)]
            for path, value in flatten(results[name]).items()])
    return render_block


def render_figure3(results):
    return "```\n" + results["figure3"]["tgp"].rstrip("\n") + "\n```"


RENDERERS = {
    "host": render_host,
    "table2-sp-matrix": render_table2("sp_matrix"),
    "table2-cacheloop": render_table2("cacheloop"),
    "table2-mp-matrix": render_table2("mp_matrix"),
    "table2-des": render_table2("des"),
    "e7": render_e7, "e8": render_e8, "e9": render_e9, "e10": render_e10,
    **{name: render_fields(name)
       for name in ("e11", "e12", "e13", "e14", "e15", "e16", "e17")},
    "figure3": render_figure3,
}

BLOCK = re.compile(r"(<!-- paper\.py:(?P<name>[\w-]+) -->\n)(?P<body>.*?)"
                   r"(<!-- /paper\.py -->)", re.DOTALL)


def blocks(text):
    """``{name: body}`` of every marked block in ``text``."""
    return {match["name"]: match["body"] for match in BLOCK.finditer(text)}


def render(text, results):
    """``text`` with every marked block that has a renderer rewritten
    from ``results``."""
    def rewrite(match):
        renderer = RENDERERS.get(match["name"])
        if renderer is None:
            return match[0]
        return match[1] + renderer(results) + "\n" + match[4]
    return BLOCK.sub(rewrite, text)


# ------------------------------------------------------------------ main

def main():
    results = {"host": {"python": host_platform.python_version(),
                        "cpus": len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity")
                        else os.cpu_count()}}
    for name, experiment in EXPERIMENTS.items():
        start = time.perf_counter()
        results[name] = experiment()
        print(f"[paper] {name}: {time.perf_counter() - start:.1f} s",
              flush=True)

    failures = [f"check failed: {label}"
                for label, passed in checks(results) if not passed]
    if RESULTS_PATH.exists():
        previous = json.loads(RESULTS_PATH.read_text())
        failures += [f"changed: {path}: {old!r} -> {new!r}"
                     for path, old, new in changed_fields(previous, results)]
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")
    # render from the file just written, as the tier-1 test does
    EXPERIMENTS_PATH.write_text(render(EXPERIMENTS_PATH.read_text(),
                                       json.loads(RESULTS_PATH.read_text())))
    print(f"[paper] wrote {RESULTS_PATH.name} and {EXPERIMENTS_PATH.name}")
    for failure in failures:
        print(f"[paper] FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
