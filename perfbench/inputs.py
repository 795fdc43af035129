"""The benchmark's inputs: the cases each workload makes from a seed, and
how one input is built into a FormalGroupLaw.

This module imports no arithjet at load time, so a cold start can make
its inputs before the clock starts and time only the import of arithjet
and `build`.
"""

import random
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Case:
    """One operation's input: a short curve y^2 = x^3 + a4 x + a6, or G_m
    when `curve` is None, at the budget (p, N, M)."""

    label: str
    p: int
    N: int
    M: int
    curve: tuple[int, int] | None
    sample_seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "analyze", "classify" or "jet"
    cases: Callable[[int], list[Case]]  # seed -> inputs


def _short(a4: int, a6: int) -> str:
    return f"y2=x3{a4:+d}x{a6:+d}"


def _analyze_p5(seed: int) -> list[Case]:
    cases = [Case("E11", 5, 8, 35, (1, 1)), Case("Em10", 5, 8, 35, (-1, 0)),
             Case("E01", 5, 8, 35, (0, 1)), Case("Gm", 5, 8, 35, None)]
    random.Random(seed).shuffle(cases)
    return cases


def _ordinary_noncm(p: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Short curves with both coefficients units at p, good ordinary
    reduction and no CM."""
    return [(a4, a6) for a4 in range(lo, hi + 1) for a6 in range(lo, hi + 1)
            if a4 % p and a6 % p and oracles.has_good_reduction(a4, a6, p)
            and oracles.trace_of_frobenius(a4, a6, p) % p
            and oracles.j_invariant(a4, a6) not in oracles.CM_FIELD_DISCRIMINANT]


def _analyze_p7(seed: int) -> list[Case]:
    pool = _ordinary_noncm(7, -3, 3)
    a4, a6 = (1, 1) if seed == 0 else random.Random(seed).choice(pool)
    return [Case(_short(a4, a6), 7, 6, 56, (a4, a6))]


# Short models over Z with good reduction at 5.  j = 1728 and the three
# CM j-invariants whose field 5 splits in; j = 0, where 5 is inert.
_CL_1728 = [(a4, 0) for a4 in (-1, 1, 2, -2, 3, -3, 4, -4, 6, -6, 7, -7)]
_CL_DENSE = [(-264, 1694), (-264, -1694), (-11, 14), (-11, -14),
             (-44, 112), (-44, -112), (-152, 722), (-152, -722)]
_SUPERSINGULAR = [(0, a6) for a6 in (1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 7, -7)]


def _classify_p5(seed: int) -> list[Case]:
    rng = random.Random(seed)
    picks = [rng.choice(_CL_1728), rng.choice(_CL_DENSE),
             rng.choice(_ordinary_noncm(5, -4, 4)), rng.choice(_SUPERSINGULAR)]
    return [Case(_short(*c), 5, 8, 12, c) for c in picks]


def _jet_p5(seed: int) -> list[Case]:
    rng = random.Random(seed)
    return [Case("Gm", 5, 8, 22, None, rng.randrange(2 ** 32)),
            Case("E11", 5, 8, 22, (1, 1), rng.randrange(2 ** 32))]


WORKLOADS = {w.name: w for w in (
    Workload("analyze_p5", "analyze", _analyze_p5),
    Workload("analyze_p7", "analyze", _analyze_p7),
    Workload("classify_p5", "classify", _classify_p5),
    Workload("jet_p5", "jet", _jet_p5),
)}


def build(case: Case):
    """A fresh FormalGroupLaw for one input, imported on first use."""
    from arithjet.context import Context
    from arithjet.formalgroup import (FormalGroupLaw, WeierstrassCurve,
                                      formal_group_from_curve)
    ctx = Context(p=case.p, N=case.N, M=case.M)
    if case.curve is None:
        return FormalGroupLaw.multiplicative(ctx)
    a4, a6 = case.curve
    return formal_group_from_curve(WeierstrassCurve(0, 0, 0, a4, a6, ctx))
