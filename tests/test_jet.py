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
    jet_group_law, kernel_law,
    lateral_frobenius_map, lateral_frobenius_point, witt_frobenius_series,
    ghost_series, verify_jet_identities, n1_group, psi1_series,
    jet_point_product, random_jet_point, jet_variables,
)
from arithjet.ghost import ghost_map, ghost_solve
from arithjet.errors import ArithJetError, LengthMismatch
from test_kernels import (
    assert_claims_no_less_than_the_compose, reference_compose, reference_kernel_law,
)

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


def test_jet_frobenius_base_coordinate(ctx):
    phi = witt_frobenius_series(ctx, ("x0", "x1"), power=1)
    want = ghost_series(ctx, ("x0", "x1"), ("x0", "x1"), 1)
    assert len(phi) == 1
    assert (phi[0] - want).residual_valuation() == INF


def test_jet_frobenius_squared_is_w2(ctx):
    phi2 = witt_frobenius_series(ctx, ("x0", "x1", "x2"), power=2)
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


def test_jet_point_product_refuses_points_of_two_levels(ctx, Gm):
    rng = random.Random(3)
    a = random_jet_point(ctx, 2, rng)
    b = random_jet_point(ctx, 1, rng)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(LengthMismatch):
            jet_point_product(Gm, x, y)


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


def test_sampled_checks_need_a_sample(Ell):
    # with no sampled point the sampled checks would read inf and pass
    for samples in (0, -3):
        with pytest.raises(ArithJetError, match="samples"):
            verify_jet_identities(Ell, samples=samples)


def test_verify_identities_reports_only_checks_that_can_fail(ctx, Ell):
    # phi-fra, phi o iota = p, the level-1 ghost round trip and the base
    # reduction hold by construction; the tests above check them
    rep = verify_jet_identities(Ell, samples=1)
    assert [c.name for c in rep.checks] == [
        "kernel-identification", "lateral-homomorphism", "identity-section",
        "commutativity-sampled", "associativity-sampled",
        "phi-homomorphism-J2-sampled"]


def coefficient_map(f):
    return {e: (c.unit, c.val, c.rel) for e, c in f.coeffs.items()}, f.absprec


@pytest.mark.parametrize("build", [
    FormalGroupLaw.multiplicative,
    lambda ctx: formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx)),
], ids=["Gm", "E11"])
def test_truncated_jet_law_is_the_lower_jet_law(ctx, build):
    # u o law = law o (u, u): the first two components of the J^2 law
    # equal the J^1 law of a separately built group, exactly, and the
    # ghost solve of the composes made on all of J^2's variables to its
    # claims or beyond
    xs, ys = jet_variables(2)
    allv = xs + ys
    J2 = jet_group_law(build(ctx), 2)
    J1 = jet_group_law(build(ctx), 1)
    F = build(ctx)
    direct = ghost_solve(ctx.p, [
        reference_compose(F.law, [ghost_series(ctx, allv, xs, i),
                                  ghost_series(ctx, allv, ys, i)]) for i in range(2)],
        TruncatedSeries.shift)
    for i in range(2):
        assert coefficient_map(J2.law[i]) == coefficient_map(J1.law[i].extend(allv))
        assert (sorted(J2.law[i].coeffs), J2.law[i].absprec) == \
            (sorted(direct[i].coeffs), direct[i].absprec)
        assert_claims_no_less_than_the_compose(J2.law[i], direct[i])


def test_one_verification_composes_each_ghost_level_once(monkeypatch):
    # ghost_compose builds F(w_i(x), w_i(y)) once per level and group: F's
    # law at levels 0-2 for J^2, and N^1's at levels 0-1 for its J^1,
    # whose level 1 check (e) reads again.  Every level is composed once,
    # expanded from w_i by the multinomial theorem at M = 12 and M = 22
    # (level 0 from x_0 alone, level 2 above the cap, 5^2 > M), so none
    # takes the sum of products.  n1_group composes nothing: N^1's law is F's scaled by
    # p, (1/p) F(p t1, p t2).
    groups = {}
    real_n1 = jet.n1_group

    def n1_group_kept(F):
        groups["N1"] = real_n1(F)
        return groups["N1"]

    builds: dict = {}
    composes: dict = {}
    summed: dict = {}
    real_build, real_compose = jet.ghost_compose, TruncatedSeries.compose
    real_sum = TruncatedSeries._sum_of_products

    def name_of(G):
        return next((name for name, H in (("F", groups.get("F")),
                                          ("N1", groups.get("N1")))
                     if H is not None and G is vars(H).get("law")), None)

    def built(G, variables, blocks, i):
        if name_of(G):
            builds[name_of(G)].append(i)
        return real_build(G, variables, blocks, i)

    def counted(self, args, cap=None):
        if name_of(self):
            composes[name_of(self)] += 1
        return real_compose(self, args, cap)

    def by_sum(self, *args):
        if name_of(self):
            summed[name_of(self)] += 1
        return real_sum(self, *args)

    monkeypatch.setattr(jet, "n1_group", n1_group_kept)
    monkeypatch.setattr(jet, "ghost_compose", built)
    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    monkeypatch.setattr(TruncatedSeries, "_sum_of_products", by_sum)
    for M in (12, 22):
        groups.clear()
        groups["F"] = formal_group_from_curve(
            WeierstrassCurve(0, 0, 0, 1, 1, Context(p=5, N=8, M=M)))
        builds.update(F=[], N1=[])
        composes.update(F=0, N1=0)
        summed.update(F=0, N1=0)
        assert verify_jet_identities(groups["F"]).ok
        assert builds == {"F": [0, 1, 2], "N1": [0, 1]}, M
        assert composes == {"F": 3, "N1": 2}, M
        assert summed == {"F": 0, "N1": 0}, M


JET_GROUPS = {
    "Gm": FormalGroupLaw.multiplicative,
    "E11": lambda ctx: formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx)),
}


@pytest.mark.parametrize("group, n, M", [
    pytest.param(group, n, M, id=f"{group}-{n}" + (f"-M{M}" if M != 12 else ""))
    for M in (12, 26) for group in JET_GROUPS for n in (1, 2)])
def test_jet_law_keeps_the_ghost_composes_it_solves(group, n, M):
    # ghosts[i] is F(w_i(x), w_i(y)) composed on all of J^n's variables,
    # with the compose's keys and series absprec, to its claims or beyond,
    # and the ghost map of the law gives it back to the precision the two
    # claim.  Level 2 is expanded from w_2 above the cap at M = 12
    # (5^2 > M) and below it at M = 26
    ctx = Context(p=5, N=8, M=M)
    F = JET_GROUPS[group](ctx)
    J = jet_group_law(F, n)
    xs, ys = jet_variables(n)
    allv = xs + ys
    assert len(J.ghosts) == len(J.law) == n + 1
    for i in range(n + 1):
        want = reference_compose(F.law, [ghost_series(ctx, allv, xs, i),
                                         ghost_series(ctx, allv, ys, i)])
        assert J.ghosts[i].vars == allv
        assert (sorted(J.ghosts[i].coeffs), J.ghosts[i].absprec) == \
            (sorted(want.coeffs), want.absprec)
        assert_claims_no_less_than_the_compose(J.ghosts[i], want)
    for w, g in zip(ghost_map(ctx.p, list(J.law), TruncatedSeries.shift),
                    J.ghosts):
        assert (w - g).residual_valuation() == INF


def test_one_verification_builds_two_jet_laws(ctx, Ell, monkeypatch):
    # J^2 of the group, from which J^1 is read, and J^1 of N^1
    levels = []
    real = jet.jet_group_law

    def counted(F, n):
        levels.append((F.kind, n))
        return real(F, n)

    monkeypatch.setattr(jet, "jet_group_law", counted)
    assert verify_jet_identities(Ell, samples=1).ok
    assert levels == [("elliptic", 2), ("kernel", 1)]


def test_kernels_build_no_value_through_the_validating_constructor(
        ctx, Ell, monkeypatch):
    # products, composes and the ghost solve hold their outputs in canonical
    # form and build them unchecked; PadicRational(...) is for input
    xs, ys = jet_variables(1)
    allv = xs + ys
    w = [[ghost_series(ctx, allv, names, i) for names in (xs, ys)]
         for i in range(2)]
    g0 = Ell.law.compose(w[0])
    built = []
    real_init = PadicRational.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(PadicRational, "__init__", counted)
    Ell.law * Ell.law
    g1 = Ell.law.compose(w[1])
    ghost_solve(ctx.p, [g0, g1], TruncatedSeries.shift)
    assert built == []
