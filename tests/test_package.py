"""Packaging and import layering."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
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
    assert "arithjet.witt" not in loaded


def test_import_loads_no_dataclasses_or_inspect():
    # every record is a context.Record; dataclass machinery and the
    # inspect module it imports would cost a cold start several ms
    code = ("import sys, arithjet.characters, arithjet.jet, arithjet.canonical, "
            "arithjet.witt; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


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
    """PER_LAYER of perfbench/run.py, from its module-level assignments
    alone (running the script would start the benchmark)."""
    names = {"ALL", "ANALYZE", "CANONICAL", "JET", "PER_LAYER"}
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in names]
    scope: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "run.py", "exec"),
         scope)
    return scope["PER_LAYER"]


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


def metrics_behind_targets(workloads) -> dict:
    """Per-layer metric -> the traced function it is named after
    (characters.restrict_lateral.calls, series.mul.pairs, ...), for each
    metric that the traced benchmark requires nonzero on one of the
    workloads: it fails when such a metric reads zero."""
    tracing = load_bench_tracing()
    targets = {name for name, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS}
    behind = {}
    for metric, (_, on) in bench_per_layer().items():
        names = [t for t in targets if metric == t or metric.startswith(t + ".")]
        if names and set(on) & set(workloads):
            behind[metric] = max(names, key=len)
    return behind


def unreached_metrics(behind: dict, run) -> list[str]:
    """The metrics of `behind` whose traced function run() never calls."""
    tracing = load_bench_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    seen = {**tracing.call_counts(tracer.spans), **tracer.counts}
    return sorted(m for m, t in behind.items() if not seen.get(t))


def test_one_analysis_reaches_every_analyze_metric():
    # one analysis of a non-CL curve must call every traced function behind
    # a metric required on the analyze workloads
    from arithjet import characters, formalgroup
    from arithjet.context import Context

    behind = metrics_behind_targets(("analyze_p5", "analyze_p7"))
    assert "characters.restrict_lateral.calls" in behind

    def run():  # through the modules, whose bindings the tracer wraps
        E11 = formalgroup.WeierstrassCurve(0, 0, 0, 1, 1, Context(5, 8, 35))
        characters.analyze_group(formalgroup.formal_group_from_curve(E11))

    assert unreached_metrics(behind, run) == []


def test_two_classifications_reach_every_classify_metric():
    # classify_CL on one CL and one non-CL curve, at the classify_p5
    # budget, must call every traced function behind a metric required
    # on classify_p5
    from arithjet import characters, formalgroup
    from arithjet.context import Context

    behind = metrics_behind_targets(("classify_p5",))
    assert {"characters.deep_log_coefficients.s",
            "formalgroup.elliptic_log_coefficients.calls",
            "canonical.canonical_lift_test.s"} <= behind.keys()

    def run():
        for a4, a6, cl in ((-1, 0, True), (1, 1, False)):
            E = formalgroup.WeierstrassCurve(0, 0, 0, a4, a6, Context(5, 8, 12))
            F = formalgroup.formal_group_from_curve(E)
            assert characters.classify_CL(F) is cl

    assert unreached_metrics(behind, run) == []


def test_one_jet_verification_reaches_every_jet_metric():
    # verify_jet_identities on G_m and E11 at p=5, N=8 (a small M) must
    # call every traced function behind a metric required on jet_p5
    from arithjet import formalgroup, jet
    from arithjet.context import Context

    behind = metrics_behind_targets(("jet_p5",))
    assert {"jet.jet_point_product.calls", "jet.ghost_series.calls",
            "series.compose.calls", "formalgroup.law.s"} <= behind.keys()

    def run():
        ctx = Context(5, 8, 8)
        E11 = formalgroup.WeierstrassCurve(0, 0, 0, 1, 1, ctx)
        for F in (formalgroup.FormalGroupLaw.multiplicative(ctx),
                  formalgroup.formal_group_from_curve(E11)):
            assert jet.verify_jet_identities(F, samples=2).ok

    assert unreached_metrics(behind, run) == []


def identifiers(node) -> Counter:
    """How often each identifier is named under node: as a name, an
    attribute, an imported name or a string that is an identifier."""
    named = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            named[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            named[sub.name.rpartition(".")[2]] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            named[sub.value] += 1
    return named


def test_every_public_name_of_arithjet_has_a_use():
    # a public function, class or method of src/arithjet must be named
    # somewhere in src, tests or perfbench besides its own def
    used = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used += identifiers(ast.parse(path.read_text()))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path in sorted((ROOT / "src" / "arithjet").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            named = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                named += [(f"{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, defs)]
            unused += [f"{path.stem}.{q}" for q, m in named
                       if not m.name.startswith("_") and m.name not in used]
    assert unused == []


# The functions and methods of src/arithjet that no other src code names:
# the public API, and helpers that open ROADMAP items still need
# (parse_curve and newton_slopes for the command line's trace, the two
# *_identity checks until the comparison gate replaces them).  Code that
# only tests call belongs in the tests, so this list grows only with the API.
ENTRY_POINTS = {
    "characters.analyze_group", "characters.classify_CL",
    "characters.order_one_span_identity", "characters.frob_up_matrix_identity",
    "characters.DiffRelationReport.ok", "characters.IsocrystalData.newton_slopes",
    "formalgroup.parse_curve",
    "jet.verify_jet_identities", "jet.JetIdentityReport.ok",
    "witt.WittVector.ghost", "witt.WittVector.frobenius",
    "witt.WittVector.verschiebung", "witt.WittVector.teichmuller",
    "witt.delta_map", "witt.c_pi",
}


def test_code_that_no_src_code_calls_is_the_listed_api():
    # each top-level function and each method but a dunder, named nowhere
    # in src outside its own body, must be an entry point
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "arithjet").glob("*.py"))}
    used = sum(map(identifiers, trees.values()), Counter())
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = set()
    for stem, tree in trees.items():
        for node in tree.body:
            defs = [(node.name, node)] if isinstance(node, funcs) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, funcs)]
            uncalled |= {f"{stem}.{q}" for q, d in defs
                         if not (d.name.startswith("__") and d.name.endswith("__"))
                         and used[d.name] == identifiers(d)[d.name]}
    assert uncalled == ENTRY_POINTS
