"""Witt vectors on the ghost route, and the p-derivation.

The references below are independent of arithjet.witt: exact integer
delta and C_p, the ghost-side Witt arithmetic over Z/p^prec with its own
copy of the ghost recursion (witt_arith_ghost_mod), and the sampled
delta-ring axioms (check_delta_axioms).
"""

import random

import pytest

from arithjet.context import Context, Record
from arithjet.padic import PadicRational
from arithjet.witt import WittVector, delta_map, c_pi
from arithjet.errors import (
    ArithJetError, IdentityViolation, LengthMismatch, LengthTooShort,
)


def delta_int(x: int, p: int) -> int:
    """Exact delta on integers: (x - x^p)/p."""
    return (x - x ** p) // p


def c_pi_int(x: int, y: int, p: int) -> int:
    """C_p(x, y) = (x^p + y^p - (x+y)^p)/p, exact over Z."""
    return (x ** p + y ** p - (x + y) ** p) // p


def witt_arith_ghost_mod(ctx: Context, a: list[int], b: list[int], op: str,
                         prec: int | None = None) -> list[int]:
    """Witt add, mul or neg over Z/p^prec: lift, combine ghosts with n
    guard digits, solve components back with checked divisions."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} vs {len(b)}")
    n = len(a) - 1
    prec = ctx.N if prec is None else prec
    p = ctx.p
    work = ctx.pk(prec + n)

    def ghost(v):
        return [sum(p ** j * pow(v[j], p ** (i - j), work) for j in range(i + 1)) % work
                for i in range(n + 1)]

    ga, gb = ghost(a), ghost(b)
    if op == "add":
        g = [(x + y) % work for x, y in zip(ga, gb)]
    elif op == "mul":
        g = [(x * y) % work for x, y in zip(ga, gb)]
    elif op == "neg":
        g = [(-x) % work for x in ga]
    else:
        raise ArithJetError(f"unknown op {op!r}")
    comps: list[int] = []
    for i in range(n + 1):
        acc = g[i]
        for j in range(i):
            acc -= p ** j * pow(comps[j], p ** (i - j), work)
        acc %= work
        q, r = divmod(acc, p ** i)
        if r:
            raise ArithJetError("ghost recursion produced an inexact division")
        comps.append(q % ctx.pk(prec))
    return comps


class DeltaAxiomReport(Record):
    """The sampled pairs that break a delta-ring axiom at the given precision."""

    samples: int
    precision: int
    failures: list = None

    def __post_init__(self):
        self.failures = [] if self.failures is None else self.failures

    @property
    def ok(self) -> bool:
        return not self.failures


def check_delta_axioms(ctx: Context, samples: int = 500, seed: int = 0) -> DeltaAxiomReport:
    """Sample pairs (x, y) and check the delta-ring axioms at precision N-1:

    (i)   delta(0) = delta(1) = 0
    (ii)  delta(x+y) = delta(x) + delta(y) + C_p(x, y)
    (iii) delta(xy)  = x^p delta(y) + y^p delta(x) + p delta(x) delta(y)
    """
    if samples < 1:
        raise ArithJetError(f"samples = {samples}: axioms (ii) and (iii) "
                            "need at least one pair")
    rng = random.Random(seed)
    rep = DeltaAxiomReport(samples=samples, precision=ctx.N - 1)
    if not delta_map(PadicRational(ctx, 0, 0)).is_zero():
        rep.failures.append(("axiom-i", 0, 0))
    if not delta_map(PadicRational.one(ctx)).is_zero():
        rep.failures.append(("axiom-i", 1, 1))
    m = ctx.pk(ctx.N)
    for _ in range(samples):
        xv, yv = rng.randrange(m), rng.randrange(m)
        x, y = PadicRational(ctx, xv, 0), PadicRational(ctx, yv, 0)
        lhs = delta_map(x + y)
        rhs = delta_map(x) + delta_map(y) + c_pi(x, y)
        if lhs != rhs:
            rep.failures.append(("axiom-ii", xv, yv))
        lhs = delta_map(x * y)
        rhs = (x ** ctx.p) * delta_map(y) + (y ** ctx.p) * delta_map(x) \
            + delta_map(x) * delta_map(y) * ctx.p
        if lhs != rhs:
            rep.failures.append(("axiom-iii", xv, yv))
    return rep


@pytest.fixture
def ctx5():
    return Context(p=5, N=8)


def random_pairs(rng, count, length):
    """`count` pairs of lists of `length` integers in [-30, 30]."""
    for _ in range(count):
        yield ([rng.randint(-30, 30) for _ in range(length)],
               [rng.randint(-30, 30) for _ in range(length)])


def test_structure_poly_level0(ctx5):
    # S_0 = X0 + Y0, P_0 = X0 Y0, Neg_0 = -X0
    for (x0,), (y0,) in random_pairs(random.Random(1), 30, 1):
        a, b = WittVector(ctx5, [x0]), WittVector(ctx5, [y0])
        assert (a + b).components == (x0 + y0,)
        assert (a * b).components == (x0 * y0,)
        assert (-a).components == (-x0,)


def test_structure_poly_S1_spot_value():
    # S_1 = X1 + Y1 + C_p(X0, Y0), C_p(X, Y) = (X^p + Y^p - (X + Y)^p)/p;
    # at p = 5, S_1 = X1 + Y1 - (X0^4 Y0 + 2 X0^3 Y0^2 + 2 X0^2 Y0^3 + X0 Y0^4)
    for p in (3, 5, 7):
        ctx = Context(p=p, N=4)
        for (x0, x1), (y0, y1) in random_pairs(random.Random(p), 30, 2):
            s = WittVector(ctx, [x0, x1]) + WittVector(ctx, [y0, y1])
            c_p = (x0 ** p + y0 ** p - (x0 + y0) ** p) // p
            assert s.components == (x0 + y0, x1 + y1 + c_p)
            if p == 5:
                assert s.components[1] == x1 + y1 - (
                    x0 ** 4 * y0 + 2 * x0 ** 3 * y0 ** 2
                    + 2 * x0 ** 2 * y0 ** 3 + x0 * y0 ** 4)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_structure_poly_P1_mirrors_delta_axiom_iii(p):
    # P_1 = X0^p Y1 + Y0^p X1 + p X1 Y1
    ctx = Context(p=p, N=4)
    for (x0, x1), (y0, y1) in random_pairs(random.Random(7 * p), 30, 2):
        prod = WittVector(ctx, [x0, x1]) * WittVector(ctx, [y0, y1])
        assert prod.components == (x0 * y0,
                                   x0 ** p * y1 + y0 ** p * x1 + p * x1 * y1)


def test_ghost_examples(ctx5):
    w = WittVector(ctx5, [2, 1])
    assert w.ghost() == (2, 37)
    t = WittVector(ctx5, [3, 0, 0])
    assert t.ghost() == (3, 3 ** 5, 3 ** 25)
    v = WittVector(ctx5, [0, 7])
    assert v.ghost() == (0, 35)


def test_witt_addition_spot_value(ctx5):
    a = WittVector(ctx5, [1, 0])
    s = a + a
    assert s.components == (2, -6)          # (2 - 2^5)/5 = -6
    assert s.ghost() == (2, 2)


def test_teichmuller_of_minus_one_is_inverse(ctx5):
    a = WittVector(ctx5, [1, 0])
    b = WittVector(ctx5, [-1, 0])
    assert (a + b).components == (0, 0)


def test_additive_identity(ctx5):
    rng = random.Random(3)
    a = WittVector(ctx5, [rng.randrange(100) for _ in range(3)])
    z = WittVector(ctx5, [0, 0, 0])
    assert (a + z).components == a.components


def test_frobenius_spot_value(ctx5):
    w = WittVector(ctx5, [2, -6])
    f = w.frobenius()
    assert len(f) == 1
    assert f.components[0] == 2 ** 5 + 5 * (-6)


def test_truncate_and_verschiebung(ctx5):
    w = WittVector(ctx5, [1, 2, 3])
    assert w.truncate().components == (1, 2)
    v = WittVector(ctx5, [4])
    assert v.verschiebung().components == (0, 4)
    assert WittVector.teichmuller(ctx5, 9, 3).components == (9, 0, 0)


def test_equality_with_a_foreign_operand_is_not_implemented(ctx5):
    # len() of an int would raise
    w = WittVector(ctx5, [1, 2])
    assert w.__eq__(3) is NotImplemented
    assert not w == 3 and w != [1, 2]
    assert w == WittVector(ctx5, [1, 2])


def test_length_errors(ctx5):
    with pytest.raises(LengthMismatch):
        WittVector(ctx5, [1, 2]) + WittVector(ctx5, [1, 2, 3])
    with pytest.raises(LengthTooShort):
        WittVector(ctx5, [1]).frobenius()


def test_a_component_off_the_integers_is_refused(ctx5):
    one = WittVector(ctx5, [1, 0])
    for bad in (PadicRational(ctx5, 2, -1), 0.5, "1"):
        with pytest.raises(ArithJetError):
            one + WittVector(ctx5, [1, bad])


def test_a_ghost_vector_outside_the_image_raises(ctx5):
    # (2, 3) is no ghost vector over Z: a_1 = (3 - 2^5)/5 is not an integer
    a = WittVector(ctx5, [2, 0])
    with pytest.raises(IdentityViolation, match="not divisible"):
        a._apply(lambda g: [g[0], 3])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ghost_naturality_randomized(p):
    # the ghost route's components map back to the ghost sums, products,
    # negatives and shifts they were solved from, at every level
    ctx = Context(p=p, N=6)
    rng = random.Random(17 * p)
    for n in range(5):
        for av, bv in random_pairs(rng, 60, n + 1):
            a, b = WittVector(ctx, av), WittVector(ctx, bv)
            ga, gb = a.ghost(), b.ghost()
            assert (a + b).ghost() == tuple(x + y for x, y in zip(ga, gb))
            assert (a * b).ghost() == tuple(x * y for x, y in zip(ga, gb))
            assert (-a).ghost() == tuple(-x for x in ga)
            if n >= 1:
                assert a.frobenius().ghost() == ga[1:]


def test_backend_agreement_mod_pN(ctx5):
    # over Z/p^N: the ghost oracle mod p^(N+n), and the exact route on the
    # integer lifts reduced mod p^N
    rng = random.Random(11)
    m = ctx5.pk(ctx5.N)
    for _ in range(40):
        av = [rng.randrange(m) for _ in range(3)]
        bv = [rng.randrange(m) for _ in range(3)]
        a = WittVector(ctx5, [PadicRational(ctx5, c, 0, ctx5.N) for c in av])
        b = WittVector(ctx5, [PadicRational(ctx5, c, 0, ctx5.N) for c in bv])
        ai, bi = WittVector(ctx5, av), WittVector(ctx5, bv)
        for op, got, exact in (("add", a + b, ai + bi), ("mul", a * b, ai * bi),
                               ("neg", -a, -ai)):
            oracle = witt_arith_ghost_mod(ctx5, av, bv, op)
            assert all(c.absprec == ctx5.N for c in got.components)
            assert [c.lift() % m for c in got.components] == oracle
            assert [c % m for c in exact.components] == oracle


def test_padic_claims_hold_for_inputs_moved_within_them():
    # components of mixed valuations and claims: every output claims the
    # least absprec k of its operands, and moving each input by a multiple
    # of p^(its absprec) moves no output mod p^k
    ctx = Context(p=5, N=8)
    p, rng = ctx.p, random.Random(29)

    def component():
        val, rel = rng.randrange(4), rng.randrange(1, ctx.N + 1)
        return PadicRational(ctx, rng.randrange(1, p ** rel), val, rel)

    def moved(v):
        return WittVector(ctx, [c.lift() + rng.randint(-99, 99) * p ** c.absprec
                                for c in v.components])

    for n in range(3):
        for _ in range(15):
            a = WittVector(ctx, [component() for _ in range(n + 1)])
            b = WittVector(ctx, [component() for _ in range(n + 1)])
            ka = min(c.absprec for c in a.components)
            k = min([ka] + [c.absprec for c in b.components])
            ops = [(a + b, k, lambda x, y: x + y), (a * b, k, lambda x, y: x * y),
                   (-a, ka, lambda x, y: -x)]
            if n:
                ops.append((a.frobenius(), ka, lambda x, y: x.frobenius()))
            for got, k, op in ops:
                assert all(c.absprec == k for c in got.components)
                for _ in range(3):
                    exact = op(moved(a), moved(b))
                    assert all((e - c.lift()) % p ** k == 0
                               for e, c in zip(exact.components, got.components))


def test_fv_is_multiplication_by_p(ctx5):
    # F(V(a)) has ghost p*ghost(a)
    a = WittVector(ctx5, [2, 7])
    fv = a.verschiebung().frobenius()
    assert fv.ghost() == tuple(5 * g for g in a.ghost())


def test_tf_ft_commute_where_defined(ctx5):
    a = WittVector(ctx5, [3, 1, 4])
    assert a.truncate().frobenius() == a.frobenius().truncate()


def test_delta_examples(ctx5):
    def delta(n):
        return delta_map(PadicRational(ctx5, n, 0, ctx5.N))

    assert delta(2) == -6
    assert delta(0).is_zero()
    assert delta(1).is_zero()
    assert delta(5) == -624
    assert delta_int(5, 5) == -624
    assert delta(2).absprec == ctx5.N - 1


def test_delta_defining_equation(ctx5):
    # p*delta(x) + x^p = x exactly at precision N
    rng = random.Random(4)
    for _ in range(50):
        x = PadicRational(ctx5, rng.randrange(ctx5.pk(ctx5.N)), 0, ctx5.N)
        d = delta_map(x)
        diff = d * 5 + x ** 5 - x
        assert diff.is_zero() and diff.absprec >= ctx5.N


def test_delta_rejects_a_non_integral_argument(ctx5):
    x = PadicRational(ctx5, 2, -1)  # 2/5
    one = PadicRational.one(ctx5)
    with pytest.raises(ArithJetError):
        delta_map(x)
    with pytest.raises(ArithJetError):
        c_pi(one, x)


def test_delta_axiom_frozen_vector():
    # delta(5) = delta(2) + delta(3) + C_5(2, 3), recomputed oracle values
    assert delta_int(2, 5) == -6
    assert delta_int(3, 5) == -48
    assert c_pi_int(2, 3, 5) == -570
    assert delta_int(2 + 3, 5) == -6 + (-48) + (-570) == -624


def test_delta_axiom_degenerate_and_unit_cases(ctx5):
    # x = 0 degenerates; x = y = 1 gives delta(2) = C_5(1,1)
    assert c_pi_int(0, 9, 5) == 0
    assert delta_int(2, 5) == c_pi_int(1, 1, 5)


def test_check_delta_axioms_clean(ctx5):
    rep = check_delta_axioms(ctx5, samples=100, seed=42)
    assert rep.ok
    assert rep.precision == ctx5.N - 1


def test_check_delta_axioms_needs_a_sample(ctx5):
    # with no sampled pair only axiom (i) would be checked, and reported ok
    for samples in (0, -3):
        with pytest.raises(ArithJetError, match="samples"):
            check_delta_axioms(ctx5, samples=samples)
