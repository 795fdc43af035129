"""Packaging and import layering."""

import ast
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


def load_bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def bench_per_layer():
    """PER_LAYER and ANALYZE of perfbench/run.py, from its module-level
    assignments alone (running the script would start the benchmark)."""
    names = {"ALL", "ANALYZE", "CANONICAL", "JET", "PER_LAYER"}
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in names]
    scope: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "run.py", "exec"),
         scope)
    return scope["PER_LAYER"], scope["ANALYZE"]


def test_bench_trace_targets_resolve():
    # the benchmark's traced run patches these names; a rename or deletion
    # in arithjet must fail here, not only in the benchmark's own suite
    tracing = load_bench_tracing()
    for name, module, path in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        owner = importlib.import_module(f"arithjet.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), name


def test_one_analysis_reaches_every_analyze_metric():
    # the traced benchmark fails when a per-layer metric required on the
    # analyze workloads reads zero; each such metric named after a traced
    # function (characters.restrict_lateral.calls, series.mul.pairs, ...)
    # needs one analysis of a non-CL curve to call that function
    from arithjet import characters, formalgroup
    from arithjet.context import Context

    tracing = load_bench_tracing()
    per_layer, analyze = bench_per_layer()
    targets = {name for name, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS}
    behind = {}
    for metric, (_, on) in per_layer.items():
        names = [t for t in targets if metric == t or metric.startswith(t + ".")]
        if names and set(on) & set(analyze):
            behind[metric] = max(names, key=len)
    assert "characters.restrict_lateral.calls" in behind

    tracer = tracing.Tracer()
    tracer.install()
    try:  # through the modules, whose bindings the tracer wraps
        E11 = formalgroup.WeierstrassCurve(0, 0, 0, 1, 1, Context(5, 8, 35))
        characters.analyze_group(formalgroup.formal_group_from_curve(E11))
    finally:
        tracer.uninstall()
    seen = {**tracing.call_counts(tracer.spans), **tracer.counts}
    assert sorted(m for m, t in behind.items() if not seen.get(t)) == []
