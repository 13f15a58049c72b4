"""Implementations of the command-line tools.

Failure contract (see docs/ARTIFACTS.md for the full table): artifact
defects exit with the error class's distinct code (3 missing file,
4 parse, 5 checksum, 6 version, 7 truncated) and one actionable stderr
line — never a traceback.  ``--diagnostics-json FILE`` additionally
writes a machine-readable report (``-`` for stdout); ``--permissive``
(trace-reading tools) skips recoverably-bad records instead of failing.
"""

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from repro.artifacts import (
    EXIT_MISSING_FILE,
    ArtifactError,
    DiagnosticReport,
    ParseDiagnostic,
)
from repro.core import ReplayMode
from repro.trace import Translator, TranslatorOptions, group_events


def _int_pair(usage: str):
    """argparse type for ``A:B`` (both int literals, hex ok) -> (a, b);
    ``usage`` names the pair in the error message."""
    def parse(text: str):
        try:
            first, second = text.split(":")
            return int(first, 0), int(second, 0)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {usage}, got {text!r}")
    return parse


def _positive_int(text: str) -> int:
    """argparse type for an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _at_least(kind, minimum, strict: bool = False):
    """argparse type for a ``kind`` (int or float) >= ``minimum``, or
    > ``minimum`` when ``strict``."""
    noun = "an integer" if kind is int else "a number"
    bound = f"{'>' if strict else '>='} {minimum}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        # the negated comparison also rejects nan
        if value is None or not (value > minimum if strict
                                 else value >= minimum):
            raise argparse.ArgumentTypeError(
                f"expected {noun} {bound}, got {text!r}")
        return value
    return parse


def _parse_param(text: str):
    """``KEY=INT`` (int literal, hex ok) -> (key, value)."""
    key, separator, value = text.partition("=")
    try:
        if key and separator:
            return key, int(value, 0)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected KEY=INT (e.g. n=8), got {text!r}")


# ------------------------------------------------------- shared flags

def _diagnostics_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--diagnostics-json", metavar="FILE",
                        help="write a machine-readable diagnostics report "
                             "('-' for stdout)")
    return parent


#: Fabrics a warm-up prefix may run on.
_FABRICS = ["ahb", "stbus", "tlm", "xpipes"]


def _run_parent() -> argparse.ArgumentParser:
    """Checkpoint, restore and warm-up flags of the single-run tools."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--checkpoint-every", type=_positive_int,
                        default=None, metavar="CYCLES",
                        help="snapshot the TG run at the first quiescent "
                             "cycle on/after every CYCLES-cycle boundary "
                             "(requires --checkpoint-dir; see "
                             "docs/CHECKPOINT.md)")
    parent.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="directory for .snap checkpoints (written "
                             "atomically; newest K retained)")
    parent.add_argument("--checkpoint-keep", type=_positive_int,
                        default=None, metavar="K",
                        help="checkpoints to retain (default 3)")
    parent.add_argument("--restore", metavar="SNAP", default=None,
                        help="resume a checkpointed TG run from this "
                             ".snap file and run it to completion "
                             "(bit-identical to the uninterrupted run)")
    parent.add_argument("--warmup-cycles", type=_positive_int,
                        default=None, metavar="N",
                        help="fast-forward the TG run through an N-cycle "
                             "warm-up simulated on --warmup-fabric and "
                             "restored onto the target fabric (see "
                             "docs/CHECKPOINT.md)")
    parent.add_argument("--warmup-fabric", default="tlm", choices=_FABRICS,
                        help="fabric the warm-up prefix is simulated on "
                             "(default tlm, the cheapest)")
    return parent


def _run_options(parser: argparse.ArgumentParser, args, **extra):
    """The parsed run flags as :class:`~repro.harness.RunOptions`.

    A refused combination is a usage error (exit 2) naming the flags.
    """
    from repro.harness import RunOptions
    try:
        return RunOptions(checkpoint_every=args.checkpoint_every,
                          checkpoint_dir=args.checkpoint_dir,
                          checkpoint_keep=args.checkpoint_keep,
                          warmup_cycles=args.warmup_cycles,
                          warmup_fabric=args.warmup_fabric, **extra)
    except ValueError as error:
        message = str(error)
        for name in ("checkpoint_every", "checkpoint_dir", "warmup_cycles"):
            message = message.replace(name, "--" + name.replace("_", "-"))
        parser.error(message)


def _restore(args, options):
    """``--restore SNAP``: continue a checkpointed run to completion."""
    from repro.harness import load_snapshot, restore_platform
    snapshot = load_snapshot(args.restore)
    platform = restore_platform(snapshot)
    platform.run(progress_window=options.progress_window)
    print(json.dumps({"restored_from": args.restore,
                      "restore_cycle": snapshot["cycle"],
                      "tg_summary": platform.stats_summary()},
                     indent=2, sort_keys=True))
    return 0, {}


# ------------------------------------------------------ failure plumbing

def _write_diagnostics(path: Optional[str], payload: dict) -> None:
    if not path:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _diagnostics_payload(tool: str, ok: bool,
                         error: Optional[Exception] = None) -> dict:
    payload = {"tool": tool, "ok": ok}
    if isinstance(error, ArtifactError):
        payload["error"] = error.as_dict()
    elif error is not None:
        payload["error"] = {"type": type(error).__name__,
                            "message": str(error),
                            "exit_code": EXIT_MISSING_FILE}
    return payload


def _report_fields(report: DiagnosticReport) -> dict:
    """The report fields listing a load's skipped records."""
    return {"skipped": len(report),
            "diagnostics": report.as_dict()["diagnostics"]}


@contextlib.contextmanager
def _naming(flag: str, path):
    """Re-raise an OSError as one naming ``flag`` and its ``path``."""
    try:
        yield
    except OSError as error:
        raise type(error)(f"{flag} {path}: {error.strerror or error}") \
            from None


def _guarded(tool: str, body, diagnostics: Optional[str] = None) -> int:
    """Run ``body()``, which returns its exit code and its report fields;
    map artifact/file failures to exit codes + 1 line.

    The ``--diagnostics-json`` report of a success or a failure is the
    last thing the tool writes; a report path that cannot be written
    fails the tool before ``body`` runs.
    """
    try:
        if diagnostics and diagnostics != "-":
            with _naming("--diagnostics-json", diagnostics):
                open(diagnostics, "a").close()
    except OSError as error:
        print(f"{tool}: error: {error}", file=sys.stderr)
        return EXIT_MISSING_FILE
    try:
        code, fields = body()
        payload = dict(_diagnostics_payload(tool, code == 0), **fields)
    except (ArtifactError, OSError) as error:
        print(f"{tool}: error: {error}", file=sys.stderr)
        code = getattr(error, "exit_code", EXIT_MISSING_FILE)
        payload = _diagnostics_payload(tool, False, error=error)
    _write_diagnostics(diagnostics, payload)
    return code


# --------------------------------------------------------------- trc2tgp

def trc2tgp_main(argv: Optional[List[str]] = None) -> int:
    """Translate a ``.trc`` trace file into a symbolic ``.tgp`` program."""
    parser = argparse.ArgumentParser(
        prog="repro-trc2tgp", parents=[_diagnostics_parent()],
        description="Translate an OCP .trc trace into a TG .tgp program.")
    parser.add_argument("trace", help="input .trc file")
    parser.add_argument("-o", "--output",
                        help="output .tgp file (default: stdout)")
    parser.add_argument("--mode", choices=[m.value for m in ReplayMode],
                        default=ReplayMode.REACTIVE.value,
                        help="replay fidelity (default: reactive)")
    parser.add_argument("--pollable", action="append",
                        type=_int_pair("BASE:SIZE (e.g. 0x1a000000:0x80)"),
                        default=[], metavar="BASE:SIZE",
                        help="pollable address range (repeatable)")
    parser.add_argument("--default-poll-gap", type=int, default=4,
                        help="inner poll idle when the trace shows no "
                             "failed polls (cycles, default 4)")
    parser.add_argument("--borrow-idle-debt", action="store_true",
                        help="carry negative idle gaps (setup overhead "
                             "exceeding the trace gap) forward into later "
                             "idles instead of dropping them; changes "
                             "emitted idle values")
    parser.add_argument("--permissive", action="store_true",
                        help="skip recoverably-bad trace records instead "
                             "of failing on the first defect")
    args = parser.parse_args(argv)

    def body() -> int:
        from repro.artifacts import load_trc, save_tgp
        artifact = load_trc(args.trace, strict=not args.permissive)
        master_id, events = artifact.value
        if artifact.report:
            print(f"repro-trc2tgp: {artifact.report.summary()}",
                  file=sys.stderr)
        options = TranslatorOptions(
            mode=ReplayMode.from_name(args.mode),
            pollable_ranges=args.pollable,
            default_poll_gap=args.default_poll_gap,
            borrow_idle_debt=args.borrow_idle_debt)
        translator = Translator(options)
        program = translator.translate_events(events, master_id)
        stats = translator.stats
        if args.output:
            save_tgp(args.output, program)
            print(f"{args.trace}: {len(events)} events -> "
                  f"{len(program)} TG instructions -> {args.output}",
                  file=sys.stderr)
        else:
            sys.stdout.write(program.to_tgp())
        if stats is not None and stats.clamped_gaps:
            print(f"repro-trc2tgp: {stats.clamped_gaps} clamped idle "
                  f"gap(s) totalling {stats.clamped_cycles} cycle(s); "
                  f"{stats.borrowed_cycles} borrowed, "
                  f"{stats.residual_debt} residual", file=sys.stderr)
        fields = _report_fields(artifact.report)
        if stats is not None:
            fields["translation_stats"] = stats.as_dict()
        return 0, fields

    return _guarded("repro-trc2tgp", body,
                    diagnostics=args.diagnostics_json)


# ----------------------------------------------------------------- tgasm

def tgasm_main(argv: Optional[List[str]] = None) -> int:
    """Assemble a ``.tgp`` program into a ``.bin`` image."""
    parser = argparse.ArgumentParser(
        prog="repro-tgasm", parents=[_diagnostics_parent()],
        description="Assemble a .tgp program into a TG .bin image.")
    parser.add_argument("program", help="input .tgp file")
    parser.add_argument("-o", "--output", required=True,
                        help="output .bin file")
    args = parser.parse_args(argv)

    def body() -> int:
        import os

        from repro.artifacts import load_tgp, save_bin
        program = load_tgp(args.program).value
        save_bin(args.output, program)
        print(f"{args.program}: {len(program)} instructions, "
              f"{len(program.pool)} pool words -> "
              f"{os.path.getsize(args.output)} bytes",
              file=sys.stderr)
        return 0, {}

    return _guarded("repro-tgasm", body, diagnostics=args.diagnostics_json)


# ---------------------------------------------------------------- tgdump

def tgdump_main(argv: Optional[List[str]] = None) -> int:
    """Disassemble a ``.bin`` image back to ``.tgp`` text."""
    parser = argparse.ArgumentParser(
        prog="repro-tgdump", parents=[_diagnostics_parent()],
        description="Disassemble a TG .bin image to .tgp text.")
    parser.add_argument("image", help="input .bin file")
    parser.add_argument("-o", "--output",
                        help="output .tgp file (default: stdout)")
    parser.add_argument("--stats", action="store_true",
                        help="print the program footprint summary instead")
    args = parser.parse_args(argv)

    def body() -> int:
        from repro.artifacts import load_bin, save_tgp
        program = load_bin(args.image).value
        if args.stats:
            print(json.dumps(program.stats(), indent=2, sort_keys=True))
        elif args.output:
            save_tgp(args.output, program)
        else:
            sys.stdout.write(program.to_tgp())
        return 0, {}

    return _guarded("repro-tgdump", body, diagnostics=args.diagnostics_json)


# ----------------------------------------------------------- trace-stats

def trace_stats_main(argv: Optional[List[str]] = None) -> int:
    """Summarise a ``.trc`` trace (mix, latencies, idle gaps)."""
    from repro.stats import trace_summary
    parser = argparse.ArgumentParser(
        prog="repro-trace-stats", parents=[_diagnostics_parent()],
        description="Print summary statistics of a .trc trace.")
    parser.add_argument("trace", help="input .trc file")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--timeline", action="store_true",
                        help="render an ASCII activity timeline")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in characters")
    parser.add_argument("--vcd", metavar="FILE",
                        help="export a VCD waveform of the trace")
    parser.add_argument("--permissive", action="store_true",
                        help="skip recoverably-bad trace records instead "
                             "of failing on the first defect")
    args = parser.parse_args(argv)

    def body() -> int:
        from repro.artifacts import load_trc
        artifact = load_trc(args.trace, strict=not args.permissive)
        master_id, events = artifact.value
        if artifact.report:
            print(f"repro-trace-stats: {artifact.report.summary()}",
                  file=sys.stderr)
        fields = _report_fields(artifact.report)
        if args.vcd:
            from repro.stats import export_vcd
            export_vcd({f"M{master_id}": group_events(events)},
                       path=args.vcd)
            print(f"wrote {args.vcd}", file=sys.stderr)
            return 0, fields
        if args.timeline:
            from repro.stats import render_timeline
            print(render_timeline({f"M{master_id}": group_events(events)},
                                  width=args.width))
            return 0, fields
        summary = trace_summary(group_events(events))
        summary["master"] = master_id
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"master {master_id}: {summary['transactions']} "
                  f"transactions, {summary['beats']} beats over "
                  f"{summary['duration_cycles']} cycles "
                  f"({summary['beats_per_kcycle']} beats/kcycle)")
            print(f"  mix: {summary['mix']}")
            print(f"  read latency:  {summary['read_latency']}")
            print(f"  write latency: {summary['write_latency']}")
            print(f"  idle gaps:     {summary['idle_gaps']}")
        return 0, fields

    return _guarded("repro-trace-stats", body,
                    diagnostics=args.diagnostics_json)


# ----------------------------------------------------------------- sweep

def _sweep_diagnostics(results, tally, interrupted: bool, journal_dir,
                       exit_code: int, warmup=None) -> dict:
    """The sweep's report fields (per-point failure taxonomy)."""
    points = []
    for result in results:
        point = {name: getattr(result, name) for name in (
            "benchmark", "n_cores", "interconnect", "status", "attempts",
            "quarantined", "cached", "journaled", "warm_restored")}
        failure = result.failure
        point.update(mode=result.mode.value, provenance=result.source,
                     failure=failure.as_dict() if failure else None)
        points.append(point)
    return {"interrupted": interrupted,
            "journal": journal_dir,
            "exit_code": exit_code,
            "provenance": dict(tally.ok),
            "warmup": warmup,
            "points": points}


def sweep_main(argv: Optional[List[str]] = None) -> int:
    """Run a grid of TG-flow experiments described by a JSON spec.

    Grid points fan out over a supervised process pool and consult the
    on-disk result cache first, so re-running an unchanged sweep
    performs zero simulations.  With ``--journal DIR`` every state
    transition is journalled, crashed/hung workers are replaced, and an
    interrupted sweep (Ctrl-C → exit 8) resumes with ``--resume DIR``
    re-running only the unfinished points (see docs/SWEEPS.md).
    Exit status is 1 when any grid point failed, 0 otherwise.
    """
    import signal
    import threading
    import time as time_module

    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run a sweep of reference+TG experiments from a "
                    "JSON spec (see repro.harness.sweep).")
    parser.add_argument("spec", nargs="?",
                        help="JSON sweep specification file")
    parser.add_argument("--csv", metavar="FILE",
                        help="also write results as CSV (on interrupt: "
                             "the partial results)")
    parser.add_argument("--cache-verify", action="store_true",
                        help="audit the cache directory for corrupt/stale "
                             "entries and exit (no sweep is run)")
    parser.add_argument("-j", "--jobs", type=_at_least(int, 0),
                        default=None, metavar="N",
                        help="worker processes (default: the spec's "
                             "'jobs' key, else all CPUs; 0 = all CPUs; "
                             "1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate; neither read nor write "
                             "the result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps)")
    parser.add_argument("--timeout", type=_at_least(float, 0, strict=True),
                        default=None, metavar="SECONDS",
                        help="per-point wall-clock budget, measured from "
                             "worker pickup; the worker of an exceeded "
                             "point is killed and the point marked failed")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="journal every state transition to "
                             "DIR/sweep.journal.jsonl (created fresh, or "
                             "resumed when it already matches this spec)")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="continue the interrupted sweep journalled "
                             "in DIR; completed points are served from "
                             "the journal, only unfinished ones re-run "
                             "(no spec file needed)")
    parser.add_argument("--retries", type=_at_least(int, 0), default=0,
                        metavar="N",
                        help="re-run a transiently-failed point (worker "
                             "crash, timeout) up to N extra times with "
                             "exponential backoff; a point that exhausts "
                             "the budget is quarantined (default 0)")
    parser.add_argument("--retry-backoff", type=_at_least(float, 0),
                        default=0.5, metavar="SECONDS",
                        help="base of the exponential retry backoff "
                             "(default 0.5)")
    parser.add_argument("--retry-quarantined", action="store_true",
                        help="on --resume, re-run points the journal "
                             "recorded as quarantined or terminally "
                             "failed instead of keeping them failed")
    parser.add_argument("--heartbeat-timeout", type=_at_least(float, 0),
                        default=30.0, metavar="SECONDS",
                        help="kill and replace a worker that sends no "
                             "heartbeat for this long — presumed hung "
                             "(default 30; 0 disables)")
    parser.add_argument("--warmup-cycles", type=_positive_int,
                        default=None, metavar="N",
                        help="fast-forward every grid point through an "
                             "N-cycle warm-up captured once per "
                             "equivalence class on the warm-up fabric, "
                             "overriding the spec's 'warmup_cycles' key "
                             "(see docs/CHECKPOINT.md)")
    parser.add_argument("--warmup-fabric", default=None, choices=_FABRICS,
                        help="fabric the shared warm-up prefix is "
                             "simulated on (default: the spec's "
                             "'warmup_fabric' key, else tlm)")
    parser.add_argument("--no-warmup-share", action="store_true",
                        help="re-run the warm-up inside every worker "
                             "instead of sharing one snapshot per "
                             "equivalence class (identical results, "
                             "no speedup)")
    parser.add_argument("--diagnostics-json", metavar="FILE",
                        help="write a machine-readable sweep report with "
                             "the per-point failure taxonomy ('-' for "
                             "stdout)")
    args = parser.parse_args(argv)

    from repro.harness import (
        EXIT_INTERRUPTED,
        ResultCache,
        SweepInterrupted,
        SweepJournal,
        SweepSpec,
        SweepTally,
        default_cache_dir,
        journal_path,
        run_sweep_parallel,
        sweep_csv,
        sweep_table,
    )
    from repro.harness.cache import repro_version

    def body() -> int:
        if args.cache_verify:
            cache = ResultCache(args.cache_dir or default_cache_dir())
            issues = cache.verify()
            kinds = [issue.kind for issue in issues]
            for issue in issues:
                print(issue, file=sys.stderr)
            print(f"[cache-verify] {cache.directory}: "
                  f"{len(cache.files()) - len(issues)} ok, "
                  f"{kinds.count('corrupt')} corrupt, "
                  f"{kinds.count('stale')} stale", file=sys.stderr)
            return (1 if issues else 0), {}
        if args.resume and args.journal:
            parser.error("--resume and --journal are mutually exclusive "
                         "(--resume reopens the existing journal)")
        if not args.spec and not args.resume:
            parser.error("spec is required unless --cache-verify or "
                         "--resume DIR is given")
        if args.resume and (args.warmup_cycles is not None
                            or args.warmup_fabric is not None):
            # the journal pins the spec (and with it every cache key); a
            # different warm-up would mix incompatible rows into one sweep
            parser.error("--warmup-cycles/--warmup-fabric cannot be "
                         "changed on --resume")

        spec = None
        if args.spec:
            try:
                with open(args.spec) as handle:
                    data = json.load(handle)
                if isinstance(data, dict):
                    for key in ("warmup_cycles", "warmup_fabric"):
                        if getattr(args, key) is not None:
                            data[key] = getattr(args, key)
                spec = SweepSpec.from_dict(data)
            except ValueError as error:
                # invalid JSON or a spec that fails validation — a defect
                # in the input file, not a crash
                raise ParseDiagnostic(str(error), path=args.spec) from None

        # a cache or CSV that cannot take the results must stop the
        # sweep before the first point is simulated
        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir or default_cache_dir())
            with _naming("--cache-dir", cache.directory):
                cache.directory.mkdir(parents=True, exist_ok=True)
        if args.csv:
            with _naming("--csv", args.csv):
                open(args.csv, "a").close()

        journal = None
        journal_dir = args.resume or args.journal
        with _naming("--resume" if args.resume else "--journal",
                     journal_dir):
            if args.resume:
                journal = SweepJournal.resume(
                    args.resume,
                    spec.to_dict() if spec is not None else None)
                try:
                    spec = SweepSpec.from_dict(journal.state.spec)
                except ValueError as error:
                    # e.g. a key this version no longer has: the
                    # journal's rows cannot be trusted as this run's
                    journal.close()
                    raise ParseDiagnostic(
                        f"journal spec is not valid for this version: "
                        f"{error}", path=journal.path,
                        hint="start a fresh sweep from the spec file") \
                        from None
                print(f"[sweep] resuming {journal.path}: "
                      f"{journal.state.records} of {journal.state.total} "
                      f"point(s) already journalled", file=sys.stderr)
            elif args.journal:
                if journal_path(args.journal).exists():
                    journal = SweepJournal.resume(args.journal,
                                                  spec.to_dict())
                    print(f"[sweep] journal matches this spec — resuming "
                          f"{journal.path}", file=sys.stderr)
                else:
                    journal = SweepJournal.create(
                        args.journal, spec.to_dict(), spec.points,
                        repro_version())

        # graceful shutdown: first SIGINT/SIGTERM finishes the journal and
        # terminates the workers; a second one force-raises
        cancel = threading.Event()

        def _interrupt_handler(signum, frame):
            if cancel.is_set():
                raise KeyboardInterrupt
            print("[sweep] interrupt received — journalling in-flight "
                  "points and stopping workers (interrupt again to force)",
                  file=sys.stderr)
            cancel.set()

        previous_handlers = {}
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(
                    signum, _interrupt_handler)
        except ValueError:
            pass                       # not the main thread (tests)

        interrupted = False
        warmup_report: dict = {}
        print(f"running {spec.points} grid point(s)...", file=sys.stderr)
        start = time_module.perf_counter()
        try:
            results = run_sweep_parallel(
                spec, jobs=args.jobs, cache=cache,
                point_timeout_s=args.timeout,
                progress=lambda line: print(line, file=sys.stderr),
                retries=args.retries, retry_backoff_s=args.retry_backoff,
                journal=journal,
                heartbeat_timeout_s=args.heartbeat_timeout or None,
                requeue_failed=args.retry_quarantined,
                warmup_share=not args.no_warmup_share,
                warmup_report=warmup_report, cancel=cancel)
        except SweepInterrupted as stop:
            results = stop.results
            interrupted = True
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            if journal is not None:
                journal.close()
        wall = time_module.perf_counter() - start

        print(sweep_table(results, title=f"Sweep: {spec.benchmark}"))
        tally = SweepTally(results)
        segments = [f"{tally.simulated} simulated",
                    f"{tally.rows['cache']} cached"]
        if journal is not None:
            segments.append(f"{tally.rows['journal']} journaled")
        segments.append(f"{tally.failed} failed")
        if spec.warmup_cycles is not None:
            segments.append(f"{tally.ok['warmup-restored']} warmup-restored")
        print(f"[sweep] {len(results)} point(s): {', '.join(segments)} "
              f"in {wall:.1f}s", file=sys.stderr)
        for result in results:
            failure = result.failure
            if result.status != "ok" and result.traceback and (
                    failure is None or failure.kind != "interrupted"):
                kind = f" ({failure.kind})" if failure is not None else ""
                print(f"--- FAILED{kind} {result.benchmark} "
                      f"{result.n_cores}P "
                      f"{result.interconnect}/{result.mode.value} ---\n"
                      f"{result.traceback}", file=sys.stderr)
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(sweep_csv(results))
            print(f"wrote {args.csv}", file=sys.stderr)

        exit_code = EXIT_INTERRUPTED if interrupted \
            else (1 if tally.failed else 0)
        if interrupted:
            if journal is not None:
                print(f"[sweep] interrupted — resume with: "
                      f"repro-sweep --resume {journal_dir}", file=sys.stderr)
            else:
                print("[sweep] interrupted — re-run with --journal DIR to "
                      "make sweeps resumable", file=sys.stderr)
        return exit_code, _sweep_diagnostics(
            results, tally, interrupted, journal_dir, exit_code,
            warmup=warmup_report or None)

    return _guarded("repro-sweep", body, diagnostics=args.diagnostics_json)


# -------------------------------------------------------------- traceset

def traceset_main(argv: Optional[List[str]] = None) -> int:
    """Operate on trace-set directories (manifest + per-core traces)."""
    parser = argparse.ArgumentParser(
        prog="repro-traceset",
        description="Inspect or translate a trace-set directory.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    info = subparsers.add_parser("info", help="print manifest summary")
    info.add_argument("directory")
    translate = subparsers.add_parser(
        "translate", help="translate every trace to .tgp/.bin")
    translate.add_argument("directory")
    translate.add_argument("--mode", choices=[m.value for m in ReplayMode],
                           default=ReplayMode.REACTIVE.value)
    args = parser.parse_args(argv)

    def body() -> int:
        from repro.trace import load_trace_set, translate_trace_set
        if args.command == "info":
            manifest, traces = load_trace_set(args.directory)
            print(f"benchmark:     "
                  f"{manifest.get('benchmark') or '(unknown)'}")
            print(f"interconnect:  "
                  f"{manifest.get('interconnect') or '(unknown)'}")
            print(f"masters:       {manifest['n_masters']}")
            for master_id, events in sorted(traces.items()):
                print(f"  core {master_id}: {len(events)} events")
            return 0, {}
        programs = translate_trace_set(args.directory,
                                       mode=ReplayMode.from_name(args.mode))
        for master_id, program in sorted(programs.items()):
            print(f"core {master_id}: {len(program)} TG instructions -> "
                  f"core{master_id}.tgp / .bin")
        return 0, {}

    return _guarded("repro-traceset", body)


# ------------------------------------------------------------ experiment

_APPS = {}


def _app_by_name(name: str):
    if not _APPS:
        from repro.apps import cacheloop, des, mp_matrix, sp_matrix
        _APPS.update({"sp_matrix": sp_matrix, "cacheloop": cacheloop,
                      "mp_matrix": mp_matrix, "des": des})
    try:
        return _APPS[name]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {name!r}; choose from {sorted(_APPS)}")


def experiment_main(argv: Optional[List[str]] = None) -> int:
    """Run one Table-2 configuration and print the row."""
    import inspect

    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        parents=[_run_parent(), _diagnostics_parent()],
        description="Run a reference + TG simulation pair and report "
                    "accuracy and speedup (one Table-2 row).")
    parser.add_argument("benchmark", type=_app_by_name, nargs="?",
                        help="sp_matrix | cacheloop | mp_matrix | des "
                             "(not needed with --restore: snapshots are "
                             "self-contained)")
    parser.add_argument("-n", "--cores", type=_positive_int, default=2)
    parser.add_argument("--interconnect", default="ahb",
                        choices=["ahb", "xpipes", "stbus", "tlm"])
    parser.add_argument("--tg-interconnect", default=None,
                        choices=["ahb", "xpipes", "stbus", "tlm"],
                        help="run the TGs on a different fabric (DSE)")
    parser.add_argument("--mode", choices=[m.value for m in ReplayMode],
                        default=ReplayMode.REACTIVE.value)
    parser.add_argument("--param", type=_parse_param, action="append",
                        default=[], metavar="KEY=VALUE",
                        help="benchmark parameter, e.g. n=8 or blocks=4")
    parser.add_argument("--save-traces", metavar="DIR",
                        help="archive the reference traces as a trace set")
    parser.add_argument("--fault-spec", metavar="FILE",
                        help="JSON fault specification applied to the TG "
                             "run (see docs/FAULTS.md)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault injector's private RNG "
                             "(default 0; same spec+seed = same faults)")
    parser.add_argument("--retry-attempts", type=int, default=None,
                        metavar="N",
                        help="arm a TG retry policy with N total attempts "
                             "per erroring transaction")
    parser.add_argument("--retry-backoff", type=int, default=2,
                        metavar="CYCLES",
                        help="initial retry backoff in cycles, doubled per "
                             "retry (default 2)")
    parser.add_argument("--on-exhaust", choices=["raise", "degrade"],
                        default="degrade",
                        help="when retries run out: abort the run or "
                             "continue degraded (default degrade)")
    parser.add_argument("--watchdog", type=_positive_int, default=None,
                        metavar="CYCLES",
                        help="per-request TG watchdog: abort with "
                             "WatchdogTimeout if a transaction is still "
                             "outstanding after CYCLES cycles")
    parser.add_argument("--progress-window", type=_positive_int,
                        default=None,
                        metavar="EVENTS",
                        help="kernel livelock watchdog: abort after EVENTS "
                             "events with no simulated-time progress")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.restore is None and args.benchmark is None:
        parser.error("benchmark is required unless --restore SNAP "
                     "is given")
    app_params = dict(args.param)
    if args.benchmark is not None:
        accepted = sorted(set(inspect.signature(
            args.benchmark.source).parameters) - {"core_id", "n_cores"})
        unknown = sorted(set(app_params) - set(accepted))
        if unknown:
            parser.error(f"unknown --param {', '.join(unknown)} for "
                         f"{args.benchmark.__name__.split('.')[-1]}; "
                         f"choose from {', '.join(accepted)}")
        try:
            args.benchmark.source(0, args.cores, **app_params)
        except ValueError as error:
            parser.error(str(error))
    retry_policy = None
    if args.retry_attempts is not None:
        from repro.faults import RetryPolicy
        try:
            retry_policy = RetryPolicy(max_attempts=args.retry_attempts,
                                       backoff=args.retry_backoff,
                                       on_exhaust=args.on_exhaust)
        except ValueError as error:
            parser.error(str(error))
    options = _run_options(parser, args, fault_seed=args.fault_seed,
                           retry_policy=retry_policy,
                           watchdog_cycles=args.watchdog,
                           progress_window=args.progress_window)

    def body() -> int:
        if args.restore:
            return _restore(args, options)
        run_options = options
        if args.fault_spec:
            import dataclasses

            from repro.faults import FaultSpec
            run_options = dataclasses.replace(
                options, fault_spec=FaultSpec.load(args.fault_spec))

        from repro.harness import table2_row, tg_flow
        result = tg_flow(args.benchmark, args.cores,
                         interconnect=args.interconnect,
                         tg_interconnect=args.tg_interconnect,
                         mode=ReplayMode.from_name(args.mode),
                         app_params=app_params or None,
                         options=run_options)
        if args.save_traces:
            from repro.apps.common import pollable_ranges
            from repro.trace import save_trace_set
            save_trace_set(args.save_traces, result.traces,
                           benchmark=result.benchmark,
                           interconnect=result.interconnect,
                           pollable_ranges=pollable_ranges(result.n_cores))
            print(f"traces archived to {args.save_traces}",
                  file=sys.stderr)
        payload = {
            "benchmark": result.benchmark,
            "n_cores": result.n_cores,
            "interconnect": result.interconnect,
            "mode": result.mode.value,
            "ref_cycles": result.ref_cycles,
            "tg_cycles": result.tg_cycles,
            "error": result.error,
            "ref_wall_s": result.ref_wall,
            "tg_wall_s": result.tg_wall,
            "gain": result.gain,
            "event_gain": result.event_gain,
        }
        if result.warmup_cycle is not None:
            payload["warmup_cycle"] = result.warmup_cycle
            payload["warmup_fabric"] = result.warmup_fabric
        if args.checkpoint_every is not None:
            # same shape the --restore path prints, so a crash-restore
            # continuation can be byte-compared against this run
            payload["tg_summary"] = result.tg_platform.stats_summary()
        resilience = None
        if result.tg_platform is not None and \
                result.tg_platform.fault_injector is not None:
            resilience = result.tg_platform.resilience_counters().as_dict()
            payload["fault_seed"] = args.fault_seed
            payload["resilience"] = resilience
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(table2_row(result))
            if resilience is not None:
                from repro.stats import resilience_report
                print(resilience_report(resilience))
        return 0, {}

    return _guarded("repro-experiment", body,
                    diagnostics=args.diagnostics_json)


# --------------------------------------------------------------- traffic

def _parse_hot_target(text: str):
    """``shared`` or a slave/core index."""
    if text == "shared":
        return text
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'shared' or a core index, got {text!r}")


def traffic_main(argv: Optional[List[str]] = None) -> int:
    """Generate synthetic-traffic TG programs from a declarative spec.

    The spec comes from a JSON file, command-line flags, or both (flags
    override file values).  Programs are written as ``core<i>.tgp`` +
    ``core<i>.bin`` pairs; generation is deterministic, so re-running
    with the same spec produces byte-identical artifacts.  With
    ``--simulate FABRIC`` the workload also runs on the TG platform and
    the load/latency metrics are printed (see docs/TRAFFIC.md).
    """
    from repro.apps.synthetic import PATTERNS
    parser = argparse.ArgumentParser(
        prog="repro-traffic", parents=[_run_parent(), _diagnostics_parent()],
        description="Generate (and optionally simulate) synthetic "
                    "TG traffic from a declarative spec.")
    parser.add_argument("spec", nargs="?",
                        help="JSON traffic specification file "
                             "(flags override its values)")
    parser.add_argument("-o", "--output", metavar="DIR",
                        help="write core<i>.tgp/.bin program pairs here")
    parser.add_argument("--cores", type=int, default=None, metavar="N",
                        help="number of traffic generators")
    parser.add_argument("--pattern", choices=list(PATTERNS), default=None,
                        help="spatial destination pattern")
    parser.add_argument("--load", type=float, default=None,
                        help="offered load fraction in (0, 1]")
    parser.add_argument("--transactions", type=int, default=None,
                        metavar="N", help="transactions per core")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (same seed -> same programs)")
    parser.add_argument("--read-fraction", type=float, default=None,
                        metavar="F", help="fraction of reads in [0, 1]")
    parser.add_argument("--size-words", type=int, default=None,
                        metavar="N", help="fixed transaction size (words)")
    parser.add_argument("--size-uniform", type=_int_pair("MIN:MAX (e.g. 1:4)"),
                        default=None,
                        metavar="MIN:MAX",
                        help="uniform transaction size range (words)")
    parser.add_argument("--size-cdf", metavar="FILE", default=None,
                        help="packet-size CDF file "
                             "(lines: '<bytes> <cumulative-percent>')")
    parser.add_argument("--burst", type=_int_pair("ON:OFF (e.g. 8:200)"),
                        default=None,
                        metavar="ON:OFF",
                        help="bursty on/off phases: ON transactions, "
                             "then OFF idle cycles")
    parser.add_argument("--hot-target", type=_parse_hot_target,
                        default=None, metavar="SLAVE",
                        help="hotspot target: 'shared' or a core index")
    parser.add_argument("--hot-weight", type=float, default=None,
                        help="hotspot weight relative to other slaves")
    parser.add_argument("--mode", choices=[m.value for m in ReplayMode],
                        default=None, help="TG replay mode")
    parser.add_argument("--simulate", metavar="FABRIC", default=None,
                        choices=["ahb", "xpipes", "stbus", "tlm"],
                        help="also run the workload on this fabric and "
                             "print load/latency metrics (required by "
                             "--checkpoint-every and --warmup-cycles)")
    parser.add_argument("--json", action="store_true",
                        help="print the simulation summary as JSON")
    args = parser.parse_args(argv)
    options = _run_options(parser, args)
    for flag in ("checkpoint_every", "warmup_cycles"):
        if getattr(args, flag) is not None and args.simulate is None:
            parser.error(f"--{flag.replace('_', '-')} requires "
                         f"--simulate FABRIC")

    def body() -> int:
        import os

        if args.restore:
            return _restore(args, options)

        from repro.apps.synthetic import (
            TrafficSpec,
            TrafficSpecError,
            generate,
            synthetic_flow,
        )
        from repro.artifacts import save_bin, save_tgp

        data = {}
        if args.spec:
            with open(args.spec) as handle:
                try:
                    data = json.load(handle)
                except ValueError as error:
                    raise TrafficSpecError(str(error), path=args.spec)
            if not isinstance(data, dict):
                raise TrafficSpecError(
                    "traffic spec must be a JSON object", path=args.spec)
        overrides = {
            "n_cores": args.cores,
            "pattern": args.pattern,
            "load": args.load,
            "transactions": args.transactions,
            "seed": args.seed,
            "read_fraction": args.read_fraction,
            "burst": dict(zip(("on", "off"), args.burst))
            if args.burst else None,
            "hot_target": args.hot_target,
            "hot_weight": args.hot_weight,
            "mode": args.mode,
        }
        data.update({key: value for key, value in overrides.items()
                     if value is not None})
        sizes = [flag for flag in (args.size_words, args.size_uniform,
                                   args.size_cdf) if flag is not None]
        if len(sizes) > 1:
            parser.error("--size-words, --size-uniform and --size-cdf "
                         "are mutually exclusive")
        if args.size_words is not None:
            data["size"] = {"kind": "fixed", "words": args.size_words}
        elif args.size_uniform is not None:
            low, high = args.size_uniform
            data["size"] = {"kind": "uniform", "min_words": low,
                            "max_words": high}
        elif args.size_cdf is not None:
            data["size"] = {"kind": "cdf", "file": args.size_cdf}
        if "n_cores" not in data:
            parser.error("--cores N is required (or an 'n_cores' key "
                         "in the spec file)")
        try:
            spec = TrafficSpec.from_dict(data)
        except ValueError as error:
            raise TrafficSpecError(str(error), path=args.spec)

        programs, report = generate(spec)
        fields = {"spec": spec.to_dict(), "cores": report}

        if args.output:
            os.makedirs(args.output, exist_ok=True)
            for core_id in sorted(programs):
                base = os.path.join(args.output, f"core{core_id}")
                save_tgp(base + ".tgp", programs[core_id])
                save_bin(base + ".bin", programs[core_id])
            total = sum(entry["instructions"] for entry in report)
            print(f"repro-traffic: {spec.pattern} x{spec.n_cores} "
                  f"load={spec.load:g}: {total} instructions -> "
                  f"{args.output}/core<i>.tgp|.bin", file=sys.stderr)

        if args.simulate:
            result = synthetic_flow(spec, args.simulate, options=options)
            summary = result.summary()
            if args.checkpoint_every is not None:
                # same shape --restore prints, for crash-restore compares
                summary = dict(summary)
                summary["tg_summary"] = \
                    result.tg_platform.stats_summary()
            fields["simulation"] = summary
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                print(f"{spec.pattern} {spec.n_cores}P {args.simulate} "
                      f"load={spec.load:g}: {result.tg_cycles} cycles, "
                      f"{result.issued} transactions, "
                      f"scheduled={result.scheduled_load:.3f} "
                      f"realised={result.realised_load:.3f}, "
                      f"latency avg={result.latency_avg:.1f} "
                      f"max={result.latency_max}, "
                      f"{result.throughput_wpkc:.1f} words/kcycle")
        elif args.json:
            print(json.dumps(dict(_diagnostics_payload("repro-traffic", True),
                                  **fields), indent=2, sort_keys=True))
        elif not args.output:
            # no sink requested: dump the .tgp text like the other tools
            for core_id in sorted(programs):
                sys.stdout.write(f"# --- core {core_id} ---\n")
                sys.stdout.write(programs[core_id].to_tgp())
        return 0, fields

    return _guarded("repro-traffic", body,
                    diagnostics=args.diagnostics_json)
