"""Benchmark of arithjet: cold public calls on four workloads, every output
checked by an independent oracle.

    python3 perfbench/run.py --workload analyze_p5 --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports arithjet from ./src.  A
pass calls the workload's operation once on each of its inputs (see
inputs.py), and no input repeats within a pass.  Each pass runs in a
fresh interpreter, so nothing computed in one pass can serve another.

With `--trace 0` a run spends `--seconds` on set-up starts and passes:
at least MIN_PASSES passes, and more while one as long as the longest so
far still ends in time.  Times are taken at the reference speed
(speed.py), so that other load on a shared host cancels out.  An
operation's time is its median over the passes and the workload's wall
time the sum of those; memory is the median over passes and set-up time
the median over SETUP_STARTS fresh interpreters.

With `--trace 1` it prints the per-layer metrics of one pass traced in
this process (spans written to .bench_trace/), against an untraced pass
made just before it on freshly built inputs.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed`
counts operations that raised ArithJetError or whose output the oracle
rejected; `correct` is false when the oracle could not judge an output or
when two passes over the same inputs gave different outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports arithjet; fails without ./src)

SETUP_STARTS = 31
MIN_PASSES = 2
MAX_PASSES = 24
# the traced pass fails if more of its wall time than this lies outside
# every span, i.e. if the spans stop covering the operations
MAX_UNATTRIBUTED = 0.02

END_TO_END = {
    "wall_s": "s",
    "op_s_max": "s",
    "out_digits_min": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

ALL = ("analyze_p5", "analyze_p7", "classify_p5", "jet_p5")
ANALYZE = ("analyze_p5", "analyze_p7")
CANONICAL = ("analyze_p5", "analyze_p7", "classify_p5")
JET = ("jet_p5",)

# per-layer metric -> (unit, workloads on which it must not read zero)
PER_LAYER = {
    "characters.solve_character_lattice.calls": ("count", CANONICAL),
    "characters.solve.useful_ratio": ("ratio", CANONICAL),
    "characters.solve_character_lattice.s": ("s", CANONICAL),
    "characters.log_projections.s": ("s", CANONICAL),
    "characters.verify_diff_relation.s": ("s", ANALYZE),
    "characters.restrict_lateral.calls": ("count", ANALYZE),
    "characters.restrict_lateral.s": ("s", ANALYZE),
    "characters.deep_log_coefficients.s": ("s", CANONICAL),
    "characters.self_s": ("s", CANONICAL),
    "formalgroup.elliptic_log_coefficients.calls": ("count", CANONICAL),
    "formalgroup.elliptic_log_coefficients.s": ("s", CANONICAL),
    "formalgroup.formal_group_from_curve.s": ("s", ALL),
    "formalgroup.law.s": ("s", JET),
    "formalgroup.self_s": ("s", ALL),
    "canonical.canonical_lift_test.calls": ("count", CANONICAL),
    "canonical.canonical_lift_test.s": ("s", CANONICAL),
    "canonical.self_s": ("s", CANONICAL),
    "series.mul.calls": ("count", ALL),
    "series.mul.s": ("s", ALL),
    "series.mul.pairs": ("count", ALL),
    "series.mul.out_terms": ("count", ALL),
    "series.mul.kept_ratio": ("ratio", ALL),
    "series.compose.calls": ("count", ALL),
    "series.compose.s": ("s", ALL),
    "series.reversion.calls": ("count", CANONICAL),
    "series.reversion.s": ("s", CANONICAL),
    "series.inverse.s": ("s", ALL),
    "series.self_s": ("s", ALL),
    "padic.new": ("count", ALL),
    "padic.mul.calls": ("count", ALL),
    "padic.add.calls": ("count", ALL),
    "padic.inverse.calls": ("count", ALL),
    "jet.jet_group_law.s": ("s", JET),
    "jet.jet_point_product.calls": ("count", JET),
    "jet.jet_point_product.s": ("s", JET),
    "jet.verify_jet_identities.s": ("s", JET),
    "jet.ghost_series.calls": ("count", ALL),
    "jet.psi1_series.calls": ("count", ANALYZE + JET),
    "jet.lateral_frobenius_map.calls": ("count", ANALYZE + JET),
    "jet.self_s": ("s", ALL),
    "linalg.kernel_lattice.calls": ("count", CANONICAL),
    "linalg.kernel_lattice.s": ("s", CANONICAL),
    "linalg.kernel_lattice.rows": ("count", CANONICAL),
    "linalg.lattice_exponents.calls": ("count", CANONICAL),
    "linalg.solve_padic.s": ("s", ANALYZE),
    "linalg.self_s": ("s", CANONICAL),
    "trace.wall_s": ("s", ALL),
    "trace.unattributed_s": ("s", ALL),
    "trace_overhead": ("ratio", ALL),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cold(mode: str, workload: str, seed: int) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), mode,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout


def setup_starts(workload: str, seed: int, n: int) -> list[dict]:
    """Seconds that each of `n` fresh interpreters takes to import arithjet
    and build every input, as wall time and at the reference speed."""
    return [json.loads(_cold("setup", workload, seed)) for _ in range(n)]


def cold_passes(workload: str, seed: int, deadline: float) -> list[dict]:
    """Passes in fresh interpreters: at least MIN_PASSES, then more while
    one as long as the longest so far still ends by `deadline`, a
    time.perf_counter() reading."""
    passes, longest = [], 0.0
    while len(passes) < MIN_PASSES or (
            len(passes) < MAX_PASSES
            and time.perf_counter() + longest <= deadline):
        start = time.perf_counter()
        passes.append(json.loads(_cold("pass", workload, seed)))
        longest = max(longest, time.perf_counter() - start)
    return passes


def traced_pass(wl, cases):
    """One untraced pass, then one with every layer wrapped, each on
    freshly built inputs; the wrappers are gone again when this returns.
    Both are timed at the reference speed, and the untraced pass's time
    is the reference for trace_overhead.  In the traced pass the speed
    kernel runs inside whatever span is open; it takes a few per cent of
    every span's time alike, so shares of the traced wall time hold."""
    ref, _ = workloads.run_pass(
        wl.op, cases, [inputs.build(c) for c in cases])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        groups = [inputs.build(c) for c in cases]
        build_s = tracing.inclusive_times(tracer.spans).get(
            "formalgroup.formal_group_from_curve", 0.0)
        tracer.reset()
        outcomes, wall = workloads.run_pass(
            wl.op, cases, groups, on_op=lambda i: setattr(tracer, "op", i))
    finally:
        tracer.uninstall()
    overhead = (sum(o.ref_seconds for o in outcomes)
                / sum(o.ref_seconds for o in ref))
    return tracer, ref, outcomes, wall, overhead, build_s


def layer_metrics(tracer, wall, overhead, build_s) -> dict:
    spans = tracer.spans
    values = {}
    calls, incl = tracing.call_counts(spans), tracing.inclusive_times(spans)
    for name, *_ in tracing.SPAN_TARGETS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.s"] = incl.get(name, 0.0)
    values.update(tracer.counts)
    values["formalgroup.formal_group_from_curve.s"] = build_s
    pairs = values["series.mul.pairs"]
    values["series.mul.kept_ratio"] = (
        values["series.mul.out_terms"] / pairs if pairs else 0.0)
    solves = values["characters.solve_character_lattice.calls"]
    values["characters.solve.useful_ratio"] = (
        len(tracer.solve_orders) / solves if solves else 0.0)
    self_s = tracing.self_times(spans)
    for layer, s in self_s.items():
        values[f"{layer}.self_s"] = s
    # The self times plus the unattributed time add up to `wall` by
    # construction; what can fail is the nesting and the coverage.
    tracing.check_nesting(spans)
    unattributed = wall - tracing.root_time(spans)
    if not 0 <= unattributed <= MAX_UNATTRIBUTED * wall:
        raise RuntimeError(f"spans leave {unattributed:.4g} s of the traced "
                           f"pass's {wall:.4g} s unattributed")
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = unattributed
    values["trace_overhead"] = overhead
    return values


def write_spans(workload: str, seed: int, tracer) -> Path:
    out = ROOT / ".bench_trace" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans, "counts": tracer.counts}))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    wl = inputs.WORKLOADS[args.workload]
    cases = wl.cases(args.seed)
    if args.trace:
        tracing.assert_unwrapped()
        tracer, ref, traced, t_wall, overhead, build_s = traced_pass(wl, cases)
        summaries = [workloads.summary(wl.op, o) for o in ref]
        op_s = [o.ref_seconds for o in ref]
        outputs = [summaries, [workloads.summary(wl.op, o) for o in traced]]
    else:
        # One start writes the bytecode caches of a fresh checkout and is
        # not counted.  The counted starts are made half before and half
        # after the passes, so that they sample the whole run.
        setup_starts(args.workload, args.seed, 1)
        t0 = time.perf_counter()
        setup = setup_starts(args.workload, args.seed, SETUP_STARTS // 2)
        after = time.perf_counter() - t0
        passes = cold_passes(args.workload, args.seed,
                             start + args.seconds - after)
        setup += setup_starts(args.workload, args.seed,
                              SETUP_STARTS - len(setup))
        summaries = [op["summary"] for op in passes[0]["ops"]]
        op_s = [statistics.median(p["ops"][i]["ref_seconds"] for p in passes)
                for i in range(len(cases))]
        outputs = [[op["summary"] for op in p["ops"]] for p in passes]
        print(f"passes {args.workload}: {len(passes)}, wall time "
              f"{[round(p['wall_s'], 3) for p in passes]} s")
        print(f"setup {args.workload}: median wall time "
              f"{statistics.median(s['wall_s'] for s in setup):.4g} s")
    out_digest = workloads.digest(cases, summaries)
    correct = all(workloads.digest(cases, o) == out_digest for o in outputs)
    if not correct:
        print("passes over the same inputs gave different outputs")

    verdicts = []
    for case, s in zip(cases, summaries):
        try:
            verdicts.append(workloads.check(wl.op, case, s))
        except workloads.OracleMismatch as e:
            print(f"oracle cannot judge: {e}")
            correct = False
            verdicts.append(False)
    failed = verdicts.count(False)

    for case, s, ok, t in zip(cases, summaries, verdicts, op_s):
        verdict = "ok" if ok else "FAILED"
        print(f"op {args.workload} {case.label}: {t:.3f} s, {verdict}, {json.dumps(s)}")
    print(f"fail_frac {args.workload}: {failed}/{len(cases)} = {failed / len(cases):.4g}")
    print(f"digest {args.workload} seed={args.seed}: {out_digest}")

    if args.trace:
        values = layer_metrics(tracer, t_wall, overhead, build_s)
        print(f"spans written to {write_spans(args.workload, args.seed, tracer)}")
        zero = [m for m, (_, on) in PER_LAYER.items()
                if args.workload in on and not values[m]]
        if zero:
            print(f"error: wrapped layers read zero: {zero}", file=sys.stderr)
            return 3
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, (unit, _) in PER_LAYER.items()}
    else:
        digits = [d for d in (workloads.out_digits(wl.op, c, s)
                              for c, s in zip(cases, summaries)) if d is not None]
        values = {
            "wall_s": sum(op_s),
            "op_s_max": max(op_s),
            "out_digits_min": min(digits, default=0),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(s["ref_s"] for s in setup),
        }
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit in END_TO_END.items()}

    for m, v in metrics.items():
        print(f"metric {args.workload} {m} = {v['value']!r} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(cases),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
