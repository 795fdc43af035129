"""Packaging and import layering."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
import setuptools

ROOT = Path(__file__).resolve().parent.parent


def test_find_packages_ships_arithjet():
    assert setuptools.find_packages(where=str(ROOT / "src")) == ["arithjet"]


def test_jet_layer_loads_no_witt_ring():
    # the jet layer takes the ghost recursion from arithjet.ghost alone
    code = ("import sys, arithjet.jet, arithjet.characters; "
            "print(sorted(m for m in sys.modules if m.startswith('arithjet')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    loaded = out.stdout
    assert "arithjet.ghost" in loaded
    assert "arithjet.witt" not in loaded and "arithjet.exactpoly" not in loaded


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_bench_trace_targets_resolve():
    # the benchmark's traced run patches these names; a rename or deletion
    # in arithjet must fail here, not only in the benchmark's own suite
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, module, path in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        owner = importlib.import_module(f"arithjet.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), name
