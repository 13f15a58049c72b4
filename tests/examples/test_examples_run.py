"""Smoke tests: every example script must run to completion.

Each example's ``main()`` is imported and executed in a temp directory
(some write output files).
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart",
    "design_space_exploration",
    "transaction_timelines",
    "trace_to_program",
    "handwritten_tg",
    "multitask_consolidation",
    "noc_debugging",
    "fault_injection",
    "saturation_curve",
    "fault_campaign",
]


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report, not a stub


def test_every_example_has_docstring_and_main():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert source.startswith('#!/usr/bin/env python3'), path.name
        assert '"""' in source, path.name
        assert "def main():" in source, path.name
        assert '__main__' in source, path.name


def test_all_examples_listed_in_readme():
    readme = (EXAMPLES_DIR.parent / "README.md").read_text()
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        assert f"examples/{path.name}" in readme, path.name
