import random

import pytest

from arithjet.context import Context
from arithjet.padic import PadicRational
from arithjet.exactpoly import ExactPoly
from arithjet.witt import (
    WittVector, structure_polynomials, witt_arith_ghost_mod,
    witt_polynomial, delta_map, delta_int, c_pi, c_pi_int, check_delta_axioms,
)
from arithjet import witt
from arithjet.errors import (
    ArithJetError, IdentityViolation, LengthMismatch, LengthTooShort,
)


@pytest.fixture
def ctx5():
    return Context(p=5, N=8)


def test_structure_poly_level0(ctx5):
    sp = structure_polynomials(ctx5, 0)
    xs = sp.vars_xy
    X0 = ExactPoly.variable(xs, "X0")
    Y0 = ExactPoly.variable(xs, "Y0")
    assert sp.S[0] == X0 + Y0
    assert sp.P[0] == X0 * Y0


def test_structure_poly_S1_spot_value(ctx5):
    # S_1 = X1 + Y1 - (X0^4 Y0 + 2 X0^3 Y0^2 + 2 X0^2 Y0^3 + X0 Y0^4)
    sp = structure_polynomials(ctx5, 1)
    v = sp.vars_xy
    X0, X1 = (ExactPoly.variable(v, n) for n in ("X0", "X1"))
    Y0, Y1 = (ExactPoly.variable(v, n) for n in ("Y0", "Y1"))
    want = X1 + Y1 - (X0 ** 4 * Y0 + X0 ** 3 * Y0 ** 2 * 2
                      + X0 ** 2 * Y0 ** 3 * 2 + X0 * Y0 ** 4)
    assert sp.S[1] == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_structure_poly_P1_mirrors_delta_axiom_iii(p):
    ctx = Context(p=p, N=4)
    sp = structure_polynomials(ctx, 1)
    v = sp.vars_xy
    X0, X1 = (ExactPoly.variable(v, n) for n in ("X0", "X1"))
    Y0, Y1 = (ExactPoly.variable(v, n) for n in ("Y0", "Y1"))
    assert sp.P[1] == X0 ** p * Y1 + Y0 ** p * X1 + X1 * Y1 * p


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


def test_length_errors(ctx5):
    with pytest.raises(LengthMismatch):
        WittVector(ctx5, [1, 2]) + WittVector(ctx5, [1, 2, 3])
    with pytest.raises(LengthTooShort):
        WittVector(ctx5, [1]).frobenius()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ghost_naturality_randomized(p):
    # structure-poly backend vs exact ghost arithmetic on integer vectors
    ctx = Context(p=p, N=6)
    rng = random.Random(17 * p)
    for n in (0, 1, 2):
        for _ in range(60):
            a = WittVector(ctx, [rng.randrange(-30, 31) for _ in range(n + 1)])
            b = WittVector(ctx, [rng.randrange(-30, 31) for _ in range(n + 1)])
            ga, gb = a.ghost(), b.ghost()
            assert (a + b).ghost() == tuple(x + y for x, y in zip(ga, gb))
            assert (a * b).ghost() == tuple(x * y for x, y in zip(ga, gb))
            assert (-a).ghost() == tuple(-x for x in ga)
            if n >= 1:
                assert a.frobenius().ghost() == ga[1:]


def test_backend_agreement_mod_pN(ctx5):
    rng = random.Random(11)
    m = ctx5.pk(ctx5.N)
    for _ in range(40):
        av = [rng.randrange(m) for _ in range(3)]
        bv = [rng.randrange(m) for _ in range(3)]
        a = WittVector(ctx5, [PadicRational(ctx5, c, 0, ctx5.N) for c in av])
        b = WittVector(ctx5, [PadicRational(ctx5, c, 0, ctx5.N) for c in bv])
        for op, got in (("add", a + b), ("mul", a * b), ("neg", -a)):
            oracle = witt_arith_ghost_mod(ctx5, av, bv, op)
            assert all(c.absprec >= ctx5.N for c in got.components)
            assert [c.lift() % m for c in got.components] == oracle


def test_structure_polynomials_reject_a_corrupted_set(ctx5, monkeypatch):
    # perturb the top component of every solved set; the ghost identities
    # must catch it and nothing may be cached
    solve = witt.ghost_solve

    def corrupted(p, ghosts, shift):
        comps = solve(p, ghosts, shift)
        return comps[:-1] + [comps[-1] + 1]

    monkeypatch.setattr(witt, "_struct_cache", {})
    monkeypatch.setattr(witt, "ghost_solve", corrupted)
    with pytest.raises(IdentityViolation):
        structure_polynomials(ctx5, 1)
    assert witt._struct_cache == {}


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


def test_witt_polynomial_helper():
    w2 = witt_polynomial(5, 2, ("X0", "X1", "X2"))
    env = {"X0": 2, "X1": 1, "X2": 3}
    assert w2.substitute(env) == 2 ** 25 + 5 * 1 ** 5 + 25 * 3
