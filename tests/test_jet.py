import random

import pytest

from arithjet import jet
from arithjet.context import Context
from arithjet.padic import PadicRational
from arithjet.series import TruncatedSeries
from arithjet.formalgroup import FormalGroupLaw, WeierstrassCurve, formal_group_from_curve
from arithjet.exactpoly import ExactPoly
from arithjet.witt import structure_polynomials
from arithjet.jet import (
    jet_group_law, kernel_law, jet_frobenius,
    lateral_frobenius_map, lateral_frobenius_point, witt_frobenius_series,
    ghost_series, verify_jet_identities, n1_group, psi1_series,
    jet_point_product, random_jet_point, jet_variables,
)
from arithjet.ghost import ghost_solve
from arithjet.errors import ArithJetError
from test_kernels import reference_kernel_law

INF = float("inf")


@pytest.fixture
def ctx():
    return Context(p=5, N=8, M=12)


@pytest.fixture
def Ga(ctx):
    return FormalGroupLaw.additive(ctx)


@pytest.fixture
def Gm(ctx):
    return FormalGroupLaw.multiplicative(ctx)


@pytest.fixture
def Ell(ctx):
    return formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx))


def test_additive_jet_law_is_witt_addition(ctx, Ga):
    J = jet_group_law(Ga, 1)
    sp = structure_polynomials(ctx, 1)
    vars6 = ("x0", "x1", "y0", "y1")
    env = {f"X{i}": TruncatedSeries.variable(ctx, vars6, f"x{i}") for i in range(2)}
    env |= {f"Y{i}": TruncatedSeries.variable(ctx, vars6, f"y{i}") for i in range(2)}
    want0 = sp.S[0].substitute(env)
    want1 = sp.S[1].substitute(env)
    assert (J.law[0] - want0).residual_valuation() == INF
    assert (J.law[1] - want1).residual_valuation() >= ctx.N - 1


def test_jet_law_identity_element(ctx, Gm):
    J = jet_group_law(Gm, 1)
    for i, comp in enumerate(J.law):
        got = comp.set_zero(["y0", "y1"])
        want = TruncatedSeries.variable(ctx, ("x0", "x1"), f"x{i}")
        assert (got - want).residual_valuation() >= ctx.N - 1


def test_elliptic_jet_base_component_is_law(ctx, Ell):
    J = jet_group_law(Ell, 1)
    base = J.law[0].set_zero(["x1", "y1"]).rename(("t1", "t2"))
    assert (base - Ell.law).residual_valuation() >= ctx.N - 1


def test_jet_frobenius_base_coordinate(ctx, Gm):
    J = jet_group_law(Gm, 1)
    phi = jet_frobenius(J, 1)
    want = ghost_series(ctx, ("x0", "x1"), ("x0", "x1"), 1)
    assert len(phi) == 1
    assert (phi[0] - want).residual_valuation() == INF


def test_jet_frobenius_squared_is_w2(ctx, Gm):
    J = jet_group_law(Gm, 2)
    phi2 = jet_frobenius(J, 2)
    want = ghost_series(ctx, ("x0", "x1", "x2"), ("x0", "x1", "x2"), 2)
    assert len(phi2) == 1
    assert (phi2[0] - want).residual_valuation() == INF


def test_phi_iota_is_mult_by_p(ctx):
    phi1 = witt_frobenius_series(ctx, ("x0", "x1"), power=1)[0]
    restricted = phi1.set_zero(["x0"])
    x1 = TruncatedSeries.variable(ctx, ("x1",), "x1")
    assert restricted == x1.shift(1)


def test_kernel_law_additive(ctx, Ga):
    K = reference_kernel_law(Ga, 1)
    x1 = TruncatedSeries.variable(ctx, ("x1", "y1"), "x1")
    y1 = TruncatedSeries.variable(ctx, ("x1", "y1"), "y1")
    assert (K[0] - x1 - y1).residual_valuation() >= ctx.N - 1


def test_kernel_law_multiplicative(ctx, Gm):
    # x1 + y1 + p*x1*y1
    K = reference_kernel_law(Gm, 1)
    x1 = TruncatedSeries.variable(ctx, ("x1", "y1"), "x1")
    y1 = TruncatedSeries.variable(ctx, ("x1", "y1"), "y1")
    want = x1 + y1 + (x1 * y1).shift(1)
    assert (K[0] - want).residual_valuation() >= ctx.N - 1


def test_kernel_identity_is_zero(ctx, Ell):
    # identity: law(x, 0) = x componentwise
    K = reference_kernel_law(Ell, 2)
    got1 = K[0].set_zero(["y1", "y2"])
    got2 = K[1].set_zero(["y1", "y2"])
    assert (got1 - TruncatedSeries.variable(ctx, ("x1", "x2"), "x1")).residual_valuation() >= ctx.N - 1
    assert (got2 - TruncatedSeries.variable(ctx, ("x1", "x2"), "x2")).residual_valuation() >= ctx.N - 1


def test_kernel_law_from_jet_matches_direct(ctx, Gm):
    J = jet_group_law(Gm, 2)
    K1 = kernel_law(J)
    K2 = reference_kernel_law(Gm, 2)
    for a, b in zip(K1, K2):
        assert (a - b).residual_valuation() >= ctx.N - 1


def test_lateral_frobenius_formula(ctx, Ga):
    # x1^p + p*x2, independent of the group
    f = lateral_frobenius_map(ctx, 2)[0]
    x1 = TruncatedSeries.variable(ctx, ("x1", "x2"), "x1")
    x2 = TruncatedSeries.variable(ctx, ("x1", "x2"), "x2")
    assert f == x1 ** 5 + x2.shift(1)
    # f(0, 0) = 0
    assert f.constant_term().is_zero()


@pytest.mark.parametrize("p", [5, 7])
def test_lateral_frobenius_point_matches_the_series(p):
    # the exact integer f(x) against the series f at seeded points of pZ^m,
    # to the precision the evaluation claims (at least N here; the series
    # drops only terms of degree > M, of valuation > M at these points)
    ctx = Context(p=p, N=8, M=3 * p)
    rng = random.Random(p)
    for m in (2, 3, 4):
        f = lateral_frobenius_map(ctx, m)
        names = tuple(f"x{i}" for i in range(1, m + 1))
        for _ in range(4):
            x = [p * rng.randrange(1, p ** ctx.N) for _ in names]
            got = lateral_frobenius_point(p, x)
            point = {n: PadicRational.from_int(ctx, v) for n, v in zip(names, x)}
            want = [s.evaluate(point) for s in f]
            assert len(got) == m - 1
            for g, w in zip(got, want):
                assert w.absprec >= ctx.N, (m, w)
                exact = PadicRational.from_int(ctx, g, 2 * ctx.N)
                assert (exact - w).is_zero(), (m, g, w)


def test_lateral_frobenius_phi_fra_gm(ctx):
    f = lateral_frobenius_map(ctx, 2)[0]
    phi2 = witt_frobenius_series(ctx, ("x0", "x1", "x2"), power=2)[0]
    lhs = phi2.set_zero(["x0"])
    assert (lhs - f.shift(1)).residual_valuation() >= ctx.N - 1


def test_psi1_series_gm(ctx, Gm):
    # (1/p) log(1 + p x) = x - (p/2) x^2 + (p^2/3) x^3 - ...
    psi = psi1_series(Gm)
    assert psi.get((1,)) == 1
    want2 = PadicRational.from_int(ctx, -5) / 2
    assert psi.get((2,)) == want2
    assert psi.is_integral()


def test_n1_group_law_is_group(ctx, Gm):
    N1 = n1_group(Gm)
    t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
    want = t1 + TruncatedSeries.variable(ctx, ("t1", "t2"), "t2") \
        + (t1 * TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")).shift(1)
    assert (N1.law - want).residual_valuation() >= ctx.N - 1
    # its log (Psi_1) is additive for it
    lhs = N1.log.rename(("t",)).compose([N1.law])
    t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
    rhs = N1.log.rename(("t",)).compose([t1]) + N1.log.rename(("t",)).compose([t2])
    assert (lhs - rhs).residual_valuation() >= ctx.N - 2


def test_jet_point_product_matches_symbolic(ctx, Gm):
    import random
    rng = random.Random(9)
    J = jet_group_law(Gm, 1)
    a = random_jet_point(ctx, 1, rng)
    b = random_jet_point(ctx, 1, rng)
    prod = jet_point_product(Gm, a, b)
    env = dict(zip(("x0", "x1"), a)) | dict(zip(("y0", "y1"), b))
    for i in range(2):
        sym = J.law[i].evaluate(env)
        d = sym - prod[i]
        assert d.is_zero() or d.valuation() >= ctx.N - 2


def test_level_cap(ctx, Ga):
    with pytest.raises(ArithJetError):
        jet_group_law(Ga, 3)


@pytest.mark.parametrize("group", ["ga", "gm"])
def test_verify_identities_linear_groups(ctx, group):
    F = FormalGroupLaw.additive(ctx) if group == "ga" else \
        FormalGroupLaw.multiplicative(ctx)
    rep = verify_jet_identities(F, samples=4, seed=1)
    assert rep.ok, [c for c in rep.checks if not c.passed]
    if group == "ga":
        # everything linear: exact residuals
        for c in rep.checks:
            assert c.residual_valuation == INF or c.residual_valuation >= ctx.N - 2


def test_verify_identities_elliptic(ctx, Ell):
    rep = verify_jet_identities(Ell, samples=4, seed=2)
    assert rep.ok, [c for c in rep.checks if not c.passed]


def coefficient_map(f):
    return {e: (c.unit, c.val, c.rel) for e, c in f.coeffs.items()}, f.absprec


@pytest.mark.parametrize("build", [
    FormalGroupLaw.multiplicative,
    lambda ctx: formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx)),
], ids=["Gm", "E11"])
def test_truncated_jet_law_is_the_lower_jet_law(ctx, build):
    # u o law = law o (u, u): the first two components of the J^2 law
    # equal the J^1 law of a separately built group, exactly, and the
    # ghost solve of the composes made on all of J^2's variables
    xs, ys = jet_variables(2)
    allv = xs + ys
    J2 = jet_group_law(build(ctx), 2)
    J1 = jet_group_law(build(ctx), 1)
    F = build(ctx)
    direct = ghost_solve(ctx.p, [
        F.law.compose([ghost_series(ctx, allv, xs, i),
                       ghost_series(ctx, allv, ys, i)]) for i in range(2)],
        TruncatedSeries.shift)
    for i in range(2):
        assert coefficient_map(J2.law[i]) == coefficient_map(J1.law[i].extend(allv))
        assert coefficient_map(J2.law[i]) == coefficient_map(direct[i])


def test_one_verification_composes_each_ghost_level_once(ctx, Ell, monkeypatch):
    # F(w_i(x), w_i(y)) is composed once per level and group: levels 0-2 of
    # F, read again by J^1 and by check (f), and levels 0-1 of N^1, read
    # again by check (e).  n1_group composes nothing: N^1's law is F's
    # scaled by p, (1/p) F(p t1, p t2).
    kernel = {}
    real_n1 = jet.n1_group

    def n1_group_kept(F):
        kernel["N1"] = real_n1(F)
        return kernel["N1"]

    counts = {"F": 0, "N1": 0}
    real_compose = TruncatedSeries.compose

    def counted(self, args, cap=None):
        for name, G in (("F", Ell), ("N1", kernel.get("N1"))):
            if G is not None and self is vars(G).get("law"):
                counts[name] += 1
        return real_compose(self, args, cap)

    monkeypatch.setattr(jet, "n1_group", n1_group_kept)
    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    assert verify_jet_identities(Ell).ok
    assert counts == {"F": 3, "N1": 2}
