"""The benchmark's workloads: one cold pass over the inputs of inputs.py,
the oracle verdict on each output, and a digest of the outputs.

Every operation is one public call on a freshly built FormalGroupLaw, so
no memo on the object carries over from another call.  No input repeats
within a pass.
"""

import hashlib
import json
import time
from dataclasses import dataclass

from arithjet import characters, formalgroup, jet
from arithjet.context import Context
from arithjet.errors import ArithJetError

import oracles
import speed
from inputs import Case

JET_SAMPLES = 8


def _call(op: str, F, case: Case):
    if op == "analyze":
        return characters.analyze_group(F)
    if op == "classify":
        return characters.classify_CL(F)
    return jet.verify_jet_identities(F, samples=JET_SAMPLES, seed=case.sample_seed)


@dataclass
class Outcome:
    case: Case
    result: object = None
    error: ArithJetError | None = None
    seconds: float = 0.0  # wall time
    ref_seconds: float = 0.0  # at the reference speed


def _outcome(op: str, case: Case, F) -> Outcome:
    try:
        return Outcome(case, result=_call(op, F, case))
    except ArithJetError as e:
        return Outcome(case, error=e)


def run_pass(op: str, cases, groups, on_op=None) -> tuple[list[Outcome], float]:
    """Call the operation once per input; returns the outcomes and the wall
    time of the whole pass.  `on_op(i)` runs before operation i.  Each
    operation is timed with a speed.Clock, which gives its wall time and
    its time at the reference speed."""
    outcomes = []
    start = time.perf_counter()
    for i, (case, F) in enumerate(zip(cases, groups)):
        if on_op is not None:
            on_op(i)
        with speed.Clock() as clock:
            out = _outcome(op, case, F)
        out.seconds, out.ref_seconds = clock.wall_s, clock.ref_s
        outcomes.append(out)
    return outcomes, time.perf_counter() - start


# -- outputs: summary, check, digits --------------------------------------


def _triple(x) -> list[int]:
    return [x.unit, x.val, x.absprec]


def summary(op: str, out: Outcome) -> dict:
    """The part of an output that the oracle checks and the digest hashes,
    as plain JSON data."""
    if out.error is not None:
        return {"error": type(out.error).__name__}
    r = out.result
    if op == "analyze":
        return {"rank": r.iso.hdelta_rank, "cl": r.iso.is_CL,
                "frobenius": [[_triple(x) for x in row]
                              for row in r.iso.frobenius_matrix],
                "exponents": [lat.exponents for lat in r.lattices]}
    if op == "classify":
        return {"cl": r}
    return {"ok": r.ok, "residuals": [[c.name, _finite(c.residual_valuation)]
                                      for c in r.checks]}


def _finite(v):
    return None if v == float("inf") else v


class OracleMismatch(Exception):
    """The oracle's own inputs disagree, so it cannot judge the output."""


def check(op: str, case: Case, s: dict) -> bool:
    """The oracle's verdict on one output summary; an error is a failure."""
    if "error" in s:
        return False
    if op == "jet":
        return s["ok"]
    if op == "classify":
        return s["cl"] == oracles.expected_canonical_lift(*case.curve, case.p)
    a_p = None
    if case.curve is not None:
        a_p = oracles.trace_of_frobenius(*case.curve, case.p)
        E = formalgroup.WeierstrassCurve(0, 0, 0, *case.curve,
                                         Context(case.p, case.N, case.M))
        if formalgroup.count_points_ap(E).a_p != a_p:
            raise OracleMismatch(f"{case.label}: point counts disagree")
    return oracles.isocrystal_agrees(s["frobenius"], a_p, case.p, case.N)


def out_digits(op: str, case: Case, s: dict) -> int | None:
    """Fewest p-adic digits in one output: the absprec of the Frobenius
    entries (analyze), the digits each sampled identity held to (jet), or
    the working precision N that the bit is claimed at (classify)."""
    if "error" in s:
        return None
    if op == "analyze":
        return min(t[2] for row in s["frobenius"] for t in row)
    if op == "jet":
        finite = [v for _, v in s["residuals"] if v is not None]
        return min(finite, default=case.N)
    return case.N


def digest(cases, summaries) -> str:
    """sha256 of every output summary, in input order."""
    blob = json.dumps([[c.label, s] for c, s in zip(cases, summaries)],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
