"""EXPERIMENTS.md's measured numbers are exactly RESULTS.json's.

``benchmarks/paper.py`` regenerates both; this test runs no simulation.
It renders every marked block from the committed ``RESULTS.json`` with
the script's own renderers, so a hand-edited number fails here.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_paper():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_paper", ROOT / "benchmarks" / "paper.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_block_has_a_renderer_and_every_renderer_a_block():
    paper = load_paper()
    assert set(paper.blocks(paper.EXPERIMENTS_PATH.read_text())) \
        == set(paper.RENDERERS)


def test_blocks_match_committed_results():
    paper = load_paper()
    results = json.loads(paper.RESULTS_PATH.read_text())
    text = paper.EXPERIMENTS_PATH.read_text()
    rendered = paper.blocks(paper.render(text, results))
    for name, body in paper.blocks(text).items():
        assert body == rendered[name], f"block {name!r} is stale"
