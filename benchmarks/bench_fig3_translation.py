"""Figure 3's toolchain speed: translator/assembler throughput on a large
synthetic trace (the paper reports 145 s for a 20 MB trace)."""

import pytest

from repro.core import parse_tgp
from repro.core.assembler import assemble_binary, disassemble_binary
from repro.ocp.types import OCPCommand
from repro.trace import Phase, TraceEvent, Translator, TranslatorOptions
from repro.trace.trc_format import parse_trc, serialize_trc
from benchmarks.conftest import REPORT_LINES


def synthetic_trace(transactions=5000):
    """A large master trace alternating reads, writes and refills."""
    events = []
    time_ns = 0
    uid = 0
    for index in range(transactions):
        kind = index % 3
        if kind == 0:
            addr = 0x1000 + (index % 64) * 4
            events.append(TraceEvent(Phase.REQ, time_ns, OCPCommand.READ,
                                     addr, 1, None, uid))
            events.append(TraceEvent(Phase.ACC, time_ns + 10,
                                     OCPCommand.READ, addr, 1, None, uid))
            events.append(TraceEvent(Phase.RESP, time_ns + 25,
                                     OCPCommand.READ, addr, 1, index, uid))
            time_ns += 60
        elif kind == 1:
            addr = 0x2000 + (index % 64) * 4
            events.append(TraceEvent(Phase.REQ, time_ns, OCPCommand.WRITE,
                                     addr, 1, index, uid))
            events.append(TraceEvent(Phase.ACC, time_ns + 10,
                                     OCPCommand.WRITE, addr, 1, None, uid))
            time_ns += 40
        else:
            addr = 0x4000 + (index % 16) * 16
            events.append(TraceEvent(Phase.REQ, time_ns,
                                     OCPCommand.BURST_READ, addr, 4,
                                     None, uid))
            events.append(TraceEvent(Phase.ACC, time_ns + 10,
                                     OCPCommand.BURST_READ, addr, 4,
                                     None, uid))
            events.append(TraceEvent(Phase.RESP, time_ns + 45,
                                     OCPCommand.BURST_READ, addr, 4,
                                     [1, 2, 3, index], uid))
            time_ns += 80
        uid += 1
    return events


@pytest.mark.benchmark(group="fig3-toolchain")
def test_translation_throughput(benchmark):
    events = synthetic_trace()
    trc_text = serialize_trc(events)
    translator = Translator(TranslatorOptions())

    def full_toolchain():
        _, parsed = parse_trc(trc_text)
        program = translator.translate_events(parsed)
        image = assemble_binary(program)
        return disassemble_binary(image)

    program = benchmark(full_toolchain)
    trace_mb = len(trc_text.encode()) / 1e6
    REPORT_LINES.append(
        f"[E2] toolchain throughput: {trace_mb:.2f} MB trace -> "
        f"{len(program)} TG instructions per round")
    assert len(program) > 5000


@pytest.mark.benchmark(group="fig3-toolchain")
def test_tgp_parse_throughput(benchmark):
    events = synthetic_trace(2000)
    program = Translator(TranslatorOptions()).translate_events(events)
    text = program.to_tgp()
    parsed = benchmark(lambda: parse_tgp(text))
    assert parsed == program
