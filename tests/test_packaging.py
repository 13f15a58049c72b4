"""Packaging metadata sanity: pyproject entries resolve to real code."""

import importlib
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pyproject():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


class TestPyproject:
    def test_core_fields(self, pyproject):
        project = pyproject["project"]
        assert project["name"] == "repro"
        assert project["version"] == "1.0.0"
        assert project["requires-python"] == ">=3.9"
        assert project["dependencies"] == []  # pure stdlib at runtime

    def test_version_matches_package(self, pyproject):
        import repro
        assert repro.__version__ == pyproject["project"]["version"]

    def test_console_scripts_resolve(self, pyproject):
        for name, target in pyproject["project"]["scripts"].items():
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr)), name

    def test_test_extras_present(self, pyproject):
        extras = pyproject["project"]["optional-dependencies"]["test"]
        assert {"pytest", "hypothesis"} <= set(extras)

    def test_readme_and_docs_exist(self):
        for path in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "CITATION.cff", "docs/ARCHITECTURE.md",
                     "docs/TGP_FORMAT.md", "docs/CLI.md",
                     "docs/BENCHMARKS.md"):
            assert (ROOT / path).exists(), path

    def test_py_typed_marker(self):
        assert (ROOT / "src" / "repro" / "py.typed").exists()

    def test_every_package_has_docstring(self):
        import repro
        for package in ("kernel", "ocp", "interconnect", "memory", "cpu",
                        "apps", "core", "trace", "platform", "harness",
                        "stats", "cli"):
            module = importlib.import_module(f"repro.{package}")
            assert module.__doc__, package
            assert len(module.__doc__) > 100, package
