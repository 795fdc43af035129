"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from arithjet import characters, linalg  # noqa: E402
from arithjet.errors import PrecisionExhausted  # noqa: E402


# -- the isocrystal oracle ------------------------------------------------


def _unit_root_lambda(a_p, p, k):
    """The valuation-1 root of x^2 - a_p x + p modulo p^k, by search."""
    mod = p ** k
    return next(x for x in range(0, mod, p) if (x * x - a_p * x + p) % mod == 0)


def _triple(x, p, absprec):
    val = 0
    while x % p == 0:
        x //= p
        val += 1
    return (x % p ** (absprec - val), val, absprec)


def test_oracle_accepts_right_rank2_isocrystal():
    # trace 2 + (-5) = -3 = a_5(E11), det 2*(-5) - 3*(-5) = 5
    m = [[_triple(2, 5, 8), _triple(3, 5, 8)],
         [_triple(-5, 5, 8), _triple(-5, 5, 8)]]
    assert oracles.isocrystal_agrees(m, -3, 5, 8)


def test_oracle_rejects_wrong_rank2_isocrystal():
    # the trace E11 had at seed 0: 624, where -3 is wanted
    m = [[(0, 8, 8), (11337, 1, 7)], [(1, 0, 8), (624, 0, 8)]]
    assert not oracles.isocrystal_agrees(m, -3, 5, 8)


def test_oracle_rank1_charpoly_and_precision():
    lam = _unit_root_lambda(-2, 5, 7)
    assert oracles.isocrystal_agrees([[_triple(lam, 5, 7)]], -2, 5, 8)
    assert not oracles.isocrystal_agrees([[_triple(lam + 5, 5, 7)]], -2, 5, 8)
    # right value, but known to fewer than N - 3 digits
    assert not oracles.isocrystal_agrees([[_triple(lam, 5, 4)]], -2, 5, 8)


def test_oracle_gm_eigenvalue_is_p():
    assert oracles.isocrystal_agrees([[(1, 1, 9)]], None, 5, 8)
    assert not oracles.isocrystal_agrees([[(2, 1, 9)]], None, 5, 8)


# -- the canonical-lift oracle --------------------------------------------


def test_cm_table_membership():
    assert oracles.j_invariant(-1, 0) == 1728
    assert oracles.j_invariant(0, 1) == 0
    assert oracles.j_invariant(-264, 1694) == -32768
    assert oracles.j_invariant(-11, 14) == 287496
    assert oracles.j_invariant(-152, 722) == -884736
    for curve in [(1, 1), (2, 1), (1, 2)]:
        assert oracles.j_invariant(*curve) not in oracles.CM_FIELD_DISCRIMINANT
    assert len(oracles.CM_FIELD_DISCRIMINANT) == 13


def test_split_test_at_5():
    split = {D for D in set(oracles.CM_FIELD_DISCRIMINANT.values())
             if oracles.legendre(D, 5) == 1}
    assert split == {-4, -11, -19}
    assert oracles.legendre(-3, 5) == -1
    assert oracles.legendre(10, 5) == 0


@pytest.mark.parametrize("curve, expected", [
    ((-1, 0), True), ((-264, 1694), True), ((-11, 14), True), ((-152, 722), True),
    ((1, 1), False), ((2, 1), False), ((1, 2), False),   # no CM
    ((0, 1), False), ((0, 3), False),                     # supersingular
])
def test_expected_canonical_lift(curve, expected):
    assert oracles.expected_canonical_lift(*curve, 5) is expected


def test_point_count_and_bad_reduction():
    assert [oracles.trace_of_frobenius(*c, 5) for c in [(1, 1), (-1, 0), (0, 1)]] \
        == [-3, -2, 0]
    with pytest.raises(ValueError):
        oracles.expected_canonical_lift(5, 5, 5)


def test_classify_sweep_mixes_the_three_kinds():
    for seed in range(5):
        cases = inputs.WORKLOADS["classify_p5"].cases(seed)
        bits = [oracles.expected_canonical_lift(*c.curve, 5) for c in cases]
        assert bits == [True, True, False, False]
        assert oracles.trace_of_frobenius(*cases[3].curve, 5) == 0
        assert len({c.curve for c in cases}) == len(cases)


# -- span arithmetic ----------------------------------------------------------


def test_self_times_on_nested_spans():
    spans = [
        ("characters.a", 0.0, 10.0, -1, 0),
        ("series.mul", 1.0, 6.0, 0, 0),
        ("linalg.k", 2.0, 3.0, 1, 0),
        ("series.mul", 4.0, 5.0, 1, 0),
        ("characters.a", 7.0, 9.0, 0, 0),   # recursion
        ("series.compose", 7.5, 8.0, 4, 0),
    ]
    self_s = tracing.self_times(spans)
    assert self_s["characters"] == pytest.approx(3.0 + 1.5)
    assert self_s["series"] == pytest.approx(3.0 + 1.0 + 0.5)
    assert self_s["linalg"] == pytest.approx(1.0)
    assert self_s["jet"] == 0.0
    wall = 12.0
    unattributed = wall - tracing.root_time(spans)
    assert unattributed == pytest.approx(2.0)
    assert sum(self_s.values()) + unattributed == pytest.approx(wall)
    incl = tracing.inclusive_times(spans)
    assert incl["characters.a"] == pytest.approx(10.0)   # nested once
    assert incl["series.mul"] == pytest.approx(5.0)      # inner one inside outer
    assert tracing.call_counts(spans)["characters.a"] == 2
    tracing.check_nesting(spans)


@pytest.mark.parametrize("bad", [
    ("series.mul", 2.0, 11.0, 0, 0),   # ends after its parent
    ("series.mul", -1.0, 1.0, 0, 0),   # starts before its parent
    ("series.mul", 3.0, 2.0, 0, 0),    # ends before it starts
])
def test_nesting_check_rejects_a_stray_child(bad):
    with pytest.raises(ValueError):
        tracing.check_nesting([("characters.a", 0.0, 10.0, -1, 0), bad])


def test_wrappers_reach_every_binding_and_go_away():
    original = linalg.kernel_lattice
    assert characters.kernel_lattice is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert characters.kernel_lattice is linalg.kernel_lattice
        assert characters.kernel_lattice is not original
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped()
    finally:
        tracer.uninstall()
    assert characters.kernel_lattice is original
    tracing.assert_unwrapped()


# -- timing at the reference speed ------------------------------------------


def test_clock_takes_out_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Clock() as clock:
        time.sleep(0.1)
    assert clock.samples >= 5  # at the start, at the end and on the timer
    # the kernel's time is taken out of the block's
    assert 0 < clock.kernel_s < clock.wall_s
    assert 0.1 <= clock.wall_s + clock.kernel_s < 0.3
    mean = clock.kernel_s / clock.samples
    assert clock.ref_s == pytest.approx(clock.wall_s * speed.REF_KERNEL_S / mean)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- failure counting ---------------------------------------------------------


def test_fail_frac_counts_raised_errors(monkeypatch):
    good = SimpleNamespace(iso=SimpleNamespace(
        hdelta_rank=1, is_CL=True, frobenius_matrix=[[SimpleNamespace(
            unit=1, val=1, absprec=9)]]), lattices=[])

    def fake_analyze(F):
        if F == "bad":
            raise PrecisionExhausted("budget")
        return good

    monkeypatch.setattr(characters, "analyze_group", fake_analyze)
    cases = [inputs.Case("Gm", 5, 8, 35, None)] * 3
    outcomes, _ = workloads.run_pass("analyze", cases, ["ok", "bad", "ok"])
    assert isinstance(outcomes[1].error, PrecisionExhausted)
    summaries = [workloads.summary("analyze", o) for o in outcomes]
    assert summaries[1] == {"error": "PrecisionExhausted"}
    verdicts = [workloads.check("analyze", c, s) for c, s in zip(cases, summaries)]
    assert verdicts.count(False) == 1 and verdicts[1] is False


# -- the benchmark as a program ---------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_same_seed_gives_same_digest_and_counts():
    outs = [_run("--workload", "jet_p5", "--seed", "7", "--seconds", "1",
                 "--trace", "1") for _ in range(2)]
    for o in outs:
        assert o.returncode == 0, o.stderr
    digests = [[ln for ln in o.stdout.splitlines() if ln.startswith("digest")]
               for o in outs]
    assert digests[0] == digests[1] and len(digests[0]) == 1
    results = [json.loads(o.stdout.splitlines()[-1]) for o in outs]
    exact = [m for m, (unit, _) in run.PER_LAYER.items()
             if unit == "count" or m.endswith("_ratio")]
    for m in exact:
        assert results[0]["metrics"][m] == results[1]["metrics"][m], m
    assert results[0]["correct"] and results[0]["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "jet_p5", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m: unit for m, (unit, _) in run.PER_LAYER.items()}
