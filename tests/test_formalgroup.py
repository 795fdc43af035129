import pytest

from arithjet.context import Context
from arithjet.padic import PadicRational
from arithjet.series import TruncatedSeries
from arithjet.formalgroup import (
    FormalGroupLaw, WeierstrassCurve, _chord, count_points_ap,
    formal_group_from_curve, parse_curve,
)
from arithjet.errors import BadReduction, ArithJetError


@pytest.fixture
def ctx():
    return Context(p=5, N=8, M=12)


def curve(ctx, a4, a6):
    return WeierstrassCurve(0, 0, 0, a4, a6, ctx)


def d_dt1_at_zero(law):
    """(dF/dt1)(0, t) as a univariate series in t."""
    ctx = law.ctx
    coeffs = {}
    for (i, j), c in law.coeffs.items():
        if i == 1:
            coeffs[(j,)] = c
    return TruncatedSeries(ctx, ("t",), coeffs, law.absprec)


# -- additive / multiplicative -------------------------------------------


def test_additive_group(ctx):
    G = FormalGroupLaw.additive(ctx)
    t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
    t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
    assert G.law == t1 + t2
    assert G.log == TruncatedSeries.variable(ctx, ("t",), "t")
    assert G.log.reversion() == G.log


def test_multiplicative_log_series(ctx):
    G = FormalGroupLaw.multiplicative(ctx)
    for k in range(1, ctx.M + 1):
        want = PadicRational.from_int(ctx, (-1) ** (k + 1)) / k
        assert G.log.get((k,)) == want


def test_multiplicative_log_is_homomorphism(ctx):
    G = FormalGroupLaw.multiplicative(ctx)
    t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
    t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
    lhs = G.log.compose([G.law])
    rhs = G.log.compose([t1]) + G.log.compose([t2])
    assert (lhs - rhs).residual_valuation() >= ctx.N - 2


def test_log_exp_roundtrip(ctx):
    G = FormalGroupLaw.multiplicative(ctx)
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    log = G.log
    exp = log.reversion()
    assert exp.compose([log]) == t
    assert log.compose([exp]) == t


# -- elliptic --------------------------------------------------------------


def test_bad_reduction_rejected(ctx):
    with pytest.raises(BadReduction):
        curve(ctx, 0, 0)      # zero discriminant
    with pytest.raises(BadReduction):
        curve(ctx, 2, 2)      # 4*8 + 27*4 = 140 = 5*28


def test_curve_takes_only_integer_coefficients(ctx):
    # a4 = 0.5 was reported as bad reduction, a6 = 1.0 failed in analysis
    with pytest.raises(ArithJetError, match="a4") as err:
        curve(ctx, 0.5, 1)
    assert not isinstance(err.value, BadReduction)
    with pytest.raises(ArithJetError, match="a6"):
        curve(ctx, 1, 1.0)
    # a bool is an int subclass, and a4 = True was accepted as 1
    with pytest.raises(ArithJetError, match="a4 = True"):
        curve(ctx, True, 1)
    with pytest.raises(ArithJetError, match="a1 = False"):
        WeierstrassCurve(False, 0, 0, 1, 1, ctx)


def test_good_curves_accepted(ctx):
    for a4, a6 in [(1, 1), (-1, 0), (0, 1)]:
        E = curve(ctx, a4, a6)
        assert E.discriminant % 5 != 0


def test_short_curve_law_starts_additively(ctx):
    # no degree-2 or degree-3 cross terms when a1 = a2 = a3 = 0
    E = curve(ctx, 1, 1)
    F = formal_group_from_curve(E)
    t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
    t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
    assert (F.law - t1 - t2).truncate(3).is_zero()


def test_law_identity_and_commutativity(ctx):
    E = curve(ctx, 1, 1)
    F = formal_group_from_curve(E)
    law = F.law
    zero = TruncatedSeries.zero(ctx, ("t1", "t2"))
    t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
    t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
    assert law.compose([t1, zero]) == t1
    swapped = TruncatedSeries(ctx, ("t1", "t2"),
                              {(j, i): c for (i, j), c in law.coeffs.items()},
                              law.absprec)
    assert swapped == law


def test_law_coefficients_are_integral(ctx):
    for a4, a6 in [(1, 1), (-1, 0), (0, 1)]:
        F = formal_group_from_curve(curve(ctx, a4, a6))
        assert F.law.is_integral()


def test_associativity_mod_degree():
    ctx = Context(p=5, N=8, M=8)
    E = WeierstrassCurve(1, 1, 1, 0, 1, ctx)  # long form, disc -608, good at 5
    F = formal_group_from_curve(E)
    v = ("t1", "t2", "t3")
    t1, t2, t3 = (TruncatedSeries.variable(ctx, v, n) for n in v)
    law12 = F.law.compose([t1, t2])
    law23 = F.law.compose([t2, t3])
    lhs = F.law.compose([law12, t3])
    rhs = F.law.compose([t1, law23])
    assert (lhs - rhs).residual_valuation() >= ctx.N - 1


def test_log_derivative_matches_law_partial(ctx):
    # l'(t) = (dF/dt1)(0, t)^(-1)
    for a4, a6 in [(1, 1), (-1, 0)]:
        F = formal_group_from_curve(curve(ctx, a4, a6))
        lhs = F.log.derivative()
        rhs = d_dt1_at_zero(F.law).inverse()
        assert (lhs - rhs).truncate(ctx.M - 1).residual_valuation() >= ctx.N - 2


def test_log_is_homomorphism_elliptic(ctx):
    F = formal_group_from_curve(curve(ctx, 1, 1))
    t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
    t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
    lhs = F.log.compose([F.law])
    rhs = F.log.compose([t1]) + F.log.compose([t2])
    assert (lhs - rhs).residual_valuation() >= ctx.N - 2


def test_log_linear_coefficient_and_denominators(ctx):
    F = formal_group_from_curve(curve(ctx, 1, 1))
    assert F.log.get((1,)) == 1
    for (k,), c in F.log.coeffs.items():
        # denominator of the t^k coefficient divides k
        kval = 0
        kk = k
        while kk % 5 == 0:
            kk //= 5
            kval += 1
        assert c.is_zero() or c.val >= -kval


def reference_long_law(E):
    """The law by the inversion series i(t) = -t (1 - a1 t - a3 w(t))^(-1)
    composed at the chord's third point t3: the construction that
    formal_group_from_curve replaces by reading w(t3) off the chord."""
    ctx, v = E.ctx, ("t1", "t2")
    w1, lam = _chord(E)
    t1 = TruncatedSeries.variable(ctx, v, "t1")
    t2 = TruncatedSeries.variable(ctx, v, "t2")
    nu = w1 - lam * t1
    c3 = (TruncatedSeries.const(ctx, v, 1) + lam.scale(E.a2)
          + (lam * lam).scale(E.a4) + (lam ** 3).scale(E.a6))
    c2 = (lam.scale(E.a1) + nu.scale(E.a2) + (lam * lam).scale(E.a3)
          + (lam * nu).scale(2 * E.a4) + (lam * lam * nu).scale(3 * E.a6))
    t3 = -t1 - t2 - c2 * c3.inverse()
    ts = TruncatedSeries.variable(ctx, ("t",), "t")
    wt = w1.set_zero(["t2"]).rename(("t",))
    inv_series = (-ts) * (TruncatedSeries.const(ctx, ("t",), 1)
                          - ts.scale(E.a1) - wt.scale(E.a3)).inverse()
    return inv_series.compose([t3])


@pytest.mark.parametrize("a, budget", [
    ((1, 1, 1, 1, 1), (5, 8, 20)),
    ((1, 0, 1, 1, 1), (7, 6, 24)),
    ((1, 0, 0, 2, 3), (5, 8, 20)),
    ((0, 0, 1, 1, 1), (3, 8, 20)),
])
def test_long_form_law_reads_the_inverse_off_the_chord(a, budget, monkeypatch):
    # the third point lies on w = lam t + nu, so the law needs no compose:
    # every coefficient and the series absprec agree with the inversion
    # series composed at t3 (the key order may differ)
    p, N, M = budget
    E = WeierstrassCurve(*a, Context(p=p, N=N, M=M))
    want = reference_long_law(E)
    composes = []
    real_compose = TruncatedSeries.compose

    def counted(self, args, cap=None):
        composes.append(self.vars)
        return real_compose(self, args, cap)

    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    got = formal_group_from_curve(E).law
    assert composes == []
    assert got.vars == want.vars
    assert ({e: (c.unit, c.val, c.rel) for e, c in got.coeffs.items()}
            == {e: (c.unit, c.val, c.rel) for e, c in want.coeffs.items()})
    assert got.absprec == want.absprec


def test_exp_roundtrip_elliptic(ctx):
    F = formal_group_from_curve(curve(ctx, 1, 1))
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    exp = F.log.reversion()
    assert (exp.compose([F.log]) - t).residual_valuation() >= ctx.N - 2


# -- point counting ---------------------------------------------------------


@pytest.mark.parametrize("a4,a6,count,ap,ordinary", [
    (1, 1, 9, -3, True),
    (-1, 0, 8, -2, True),
    (0, 1, 6, 0, False),
])
def test_point_counts_p5(ctx, a4, a6, count, ap, ordinary):
    inv = count_points_ap(curve(ctx, a4, a6))
    assert inv.point_count == count
    assert inv.a_p == ap
    assert inv.ordinary is ordinary


def test_point_count_deterministic(ctx):
    E = curve(ctx, 1, 1)
    assert count_points_ap(E) == count_points_ap(E)


def test_long_form_count():
    ctx = Context(p=7, N=6)
    E = WeierstrassCurve(1, 0, 1, 1, 1, ctx)
    inv = count_points_ap(E)
    assert inv.point_count == 7 + 1 - inv.a_p
    assert inv.a_p * inv.a_p <= 4 * 7


# -- parsing ----------------------------------------------------------------


def test_parse_curve():
    assert parse_curve("1,1") == (0, 0, 0, 1, 1)
    assert parse_curve("-1, 0") == (0, 0, 0, -1, 0)
    assert parse_curve("1,2,3,4,5") == (1, 2, 3, 4, 5)
    with pytest.raises(ArithJetError):
        parse_curve("1")
    with pytest.raises(ArithJetError):
        parse_curve("a,b")
