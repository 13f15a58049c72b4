"""Fixtures shared by the harness tests."""

import os
from collections import Counter

import pytest


@pytest.fixture
def build_calls(tmp_path, monkeypatch):
    """Count ``generate`` and ``TGProgram.to_tgp`` calls per process.

    Each call appends a line to a file, so pool workers (which fork
    the patch in) are counted too.  Returns a function giving
    ``{(name, pid): calls}``.
    """
    from repro.apps import synthetic as synthetic_module
    from repro.core.program import TGProgram
    log = tmp_path / "build-calls.log"
    generate, to_tgp = synthetic_module.generate, TGProgram.to_tgp

    def record(name):
        with open(log, "a") as handle:
            handle.write(f"{name} {os.getpid()}\n")

    def counting_generate(spec):
        record("generate")
        return generate(spec)

    def counting_to_tgp(program):
        record("to_tgp")
        return to_tgp(program)

    monkeypatch.setattr(synthetic_module, "generate", counting_generate)
    monkeypatch.setattr(TGProgram, "to_tgp", counting_to_tgp)

    def calls():
        text = log.read_text() if log.exists() else ""
        return Counter(tuple(line.split()) for line in text.splitlines())
    return calls
