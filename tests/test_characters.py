import sys

import pytest

from arithjet.context import Context
from arithjet.padic import PadicRational
from arithjet.series import TruncatedSeries
from arithjet.formalgroup import (
    FormalGroupLaw, WeierstrassCurve, count_points_ap, formal_group_from_curve,
)
from arithjet.characters import (
    log_projections, kernel_log_projection,
    solve_character_lattice, primitive_quotient, differential_gamma, upsilon,
    iota_star, phi_star, restrict_lateral, verify_diff_relation,
    analyze_group, as_group, classify_CL,
    order_one_span_identity, frob_up_matrix_identity, DeltaCharacter,
    check_point_count, f_star,
)
from arithjet import characters, formalgroup
from arithjet.jet import (
    ghost_series, jet_group_law, lateral_frobenius_map, n1_group, psi1_series,
    verify_jet_identities,
)
from arithjet.errors import (
    ArithJetError, IdentityViolation, IntegralityViolation, PrecisionExhausted,
)
from test_kernels import (
    assert_claims_no_less_than_the_compose, reference_compose,
    reference_kernel_law, reference_kernel_log_projection,
    reference_restrict_lateral,
)

INF = float("inf")


@pytest.fixture(scope="module")
def ctx():
    return Context(p=5, N=8, M=12)


@pytest.fixture(scope="module")
def ctx35():
    return Context(p=5, N=8, M=35)


@pytest.fixture(scope="module")
def Gm(ctx):
    return FormalGroupLaw.multiplicative(ctx)


@pytest.fixture(scope="module")
def Ga(ctx):
    return FormalGroupLaw.additive(ctx)


def curve(c, a4, a6):
    return formal_group_from_curve(WeierstrassCurve(0, 0, 0, a4, a6, c))


@pytest.fixture(scope="module")
def E11(ctx35):
    return curve(ctx35, 1, 1)      # non-CL, a_5 = -3


@pytest.fixture(scope="module")
def Em10(ctx35):
    return curve(ctx35, -1, 0)     # CL, a_5 = -2


@pytest.fixture(scope="module")
def E01(ctx35):
    return curve(ctx35, 0, 1)      # supersingular, a_5 = 0


@pytest.fixture(scope="module")
def E7():
    return curve(Context(p=7, N=6, M=56), 1, 1)   # non-CL, a_7 = 3


def test_fixture_traces(E11, Em10, E01, E7):
    # the a_p in each fixture comment, from the point count
    traces = [F.curve.invariants.a_p for F in (E11, Em10, E01, E7)]
    assert traces == [-3, -2, 0, 3]


# -- log projections ---------------------------------------------------------


def test_L0_is_log(ctx, Gm):
    L = log_projections(Gm, 0)
    assert (L[0] - Gm.log.rename(("x0",))).residual_valuation() == INF


def test_L1_additive_group(ctx, Ga):
    L = log_projections(Ga, 1)
    x0 = TruncatedSeries.variable(ctx, ("x0", "x1"), "x0")
    x1 = TruncatedSeries.variable(ctx, ("x0", "x1"), "x1")
    assert (L[1] - (x0 ** 5 + x1.shift(1))).residual_valuation() == INF


def test_L1_multiplicative_starts_right(ctx, Gm):
    L = log_projections(Gm, 1)
    assert L[1].get((0, 1)) == 5       # linear x1 coefficient is p
    assert L[1].get((5, 0)) == 1       # x0^5 from the ghost argument
    assert L[1].get((10, 0)) == PadicRational.from_int(ctx, -1) / 2


def triples(f):
    return [(e, c.unit, c.val, c.rel) for e, c in f.coeffs.items()]


def test_kernel_log_projection_matches_restriction(Gm, E11, Em10, E7):
    # the table's L_j at x0 = 0 against Lbar_j composed on its own: the
    # same keys in the same order, to the compose's claims or beyond (the
    # expansion credits v_p of the multinomials); the table's series
    # absprec is no more (one digit less where p^j <= M)
    xs = ("x1", "x2", "x3", "x4")
    for F in (Gm, E11, Em10, E7):
        for j in range(1, 5):
            got = kernel_log_projection(F, j, xs)
            want = reference_kernel_log_projection(F, j, xs)
            assert list(got.coeffs) == list(want.coeffs), (F.kind, F.ctx.p, j)
            assert_claims_no_less_than_the_compose(got, want)
            if want.absprec is None:
                assert got.absprec is None
            else:
                assert got.absprec <= want.absprec, (F.kind, F.ctx.p, j)


def test_kernel_projections_are_restricted_once_per_group(monkeypatch, ctx35):
    # each Lbar_j is L_j at x0 = 0, restricted once per (F, j) however
    # many kernel tuples read it, and equal key for key (order, claims,
    # series absprec) to restricting the table's L_j at every call
    calls = []
    real = TruncatedSeries.set_zero

    def counting(self, names):
        calls.append(len(self.vars))
        return real(self, names)

    monkeypatch.setattr(TruncatedSeries, "set_zero", counting)
    for F in (FormalGroupLaw.multiplicative(ctx35), curve(ctx35, 1, 1),
              curve(Context(p=7, N=6, M=56), 1, 1)):
        calls.clear()
        for xs in (("x1", "x2", "x3", "x4"), ("x1", "x2", "x3", "x4", "x5")):
            for j in range(1, 5):
                got = kernel_log_projection(F, j, xs)
                want = characters._log_table(F, j)[j].set_zero(["x0"]).extend(xs)
                assert got.vars == want.vars
                assert triples(got) == triples(want), (F.kind, F.ctx.p, j)
                assert got.absprec == want.absprec
        # four restrictions for the memo, eight for the comparisons
        assert len(calls) == 4 + 8
        assert sorted(F.kernel_projection_cache) == [1, 2, 3, 4]


def test_log_projection_table_extends_to_the_direct_build(ctx35, E11, Em10, E7):
    # each L_i is built on (x0..xi); extended it has the keys, in the same
    # order, and the series absprec of the PadicRational Horner on the wide
    # tuple,
    # and its claims or beyond.  Every level is expanded by the
    # multinomial theorem, L_0 from x0 alone, below the cap and above it
    # (L_3 and L_4 at p = 5, M = 35 and p = 7, M = 56; L_4 at p = 3,
    # M = 30), also for y^2 = x^3 + 1 at p = 5 and for E3, whose logs
    # have exponent gaps of 6 and 4, at or above p
    xs = ("x0", "x1", "x2", "x3", "x4")
    E3 = curve(Context(p=3, N=8, M=30), 1, 1)
    E01 = curve(ctx35, 0, 1)
    for F in (E11, Em10, E7, FormalGroupLaw.multiplicative(ctx35), E3, E01):
        table = log_projections(F, 4)
        assert len(F.log_projection_cache) == 5
        for i in range(5):
            want = reference_compose(F.log, [ghost_series(F.ctx, xs, xs, i)])
            assert table[i].vars == xs
            assert list(table[i].coeffs) == list(want.coeffs), (F.ctx.p, i)
            assert table[i].absprec == want.absprec
            assert_claims_no_less_than_the_compose(table[i], want)


# -- fundamental character ----------------------------------------------------


def test_psi1_additive(ctx, Ga):
    psi = psi1_series(Ga)
    x1 = TruncatedSeries.variable(ctx, ("x1",), "x1")
    assert psi == x1


def test_psi1_multiplicative_integral(ctx, Gm):
    psi = psi1_series(Gm)
    for k in range(1, ctx.M + 1):
        want = (PadicRational.from_int(ctx, (-1) ** (k + 1))
                / PadicRational.from_int(ctx, k)).shift(k - 1)
        assert psi.get((k,)) == want
        assert want.valuation() >= 0
    assert psi.is_integral()


def test_psi1_elliptic_leading_terms(E11):
    psi = psi1_series(E11)
    assert psi.get((1,)) == 1
    two = psi.get((2,))
    assert two.is_zero() or two.valuation() >= 1


def test_psi1_additivity_for_kernel_law(ctx, Gm):
    K = reference_kernel_law(Gm, 1)
    psi = psi1_series(Gm)
    lhs = psi.rename(("t",)).compose([K[0]])
    x1 = TruncatedSeries.variable(ctx, ("x1", "y1"), "x1")
    y1 = TruncatedSeries.variable(ctx, ("x1", "y1"), "y1")
    rhs = psi.rename(("t",)).compose([x1]) + psi.rename(("t",)).compose([y1])
    assert (lhs - rhs).residual_valuation() >= ctx.N - 2


# -- solver -------------------------------------------------------------------


def test_gm_order1_rank_and_generator(Gm):
    lat = solve_character_lattice(Gm, 1)
    assert lat.rank == 1
    assert len(lat.basis) == 1
    th = lat.basis[0]
    # generator proportional to (-1, 1/p): c0/c1 = -p
    ratio = th.c[0] * th.c[1].inverse()
    assert ratio == PadicRational.from_int(Gm.ctx, -5)
    assert th.series.is_integral()


def test_gm_order0_rank_zero(Gm):
    assert solve_character_lattice(Gm, 0).rank == 0


def test_elliptic_ranks_nonCL(E11):
    lat1 = solve_character_lattice(E11, 1)
    lat2 = solve_character_lattice(E11, 2)
    assert (lat1.rank, lat2.rank) == (0, 1)
    th = lat2.basis[0]
    # c proportional to (1, 3/5, 1/5) = (p, -a_p, 1)/p with a_5 = -3
    c0, c1, c2 = th.c
    assert c0 == 1
    assert c1.shift(1) == 3                     # p*c1 = -a_p
    assert c2.shift(1) == 1                     # p*c2 = 1


def test_elliptic_ranks_CL(Em10):
    lat1 = solve_character_lattice(Em10, 1)
    lat2 = solve_character_lattice(Em10, 2)
    assert (lat1.rank, lat2.rank) == (1, 2)


def test_elliptic_ranks_supersingular(E01):
    lat1 = solve_character_lattice(E01, 1)
    lat2 = solve_character_lattice(E01, 2)
    assert (lat1.rank, lat2.rank) == (0, 1)


def test_additive_character_lattice(ctx35):
    # L_i = w_i for G_a, so Theta = sum c_i w_i is integral exactly when
    # every c_i lies in Z_p: the u-scaled lattice (u_i = p^i c_i) has
    # exponents 0..n, and its exponent-0 direction is Theta = w_0
    Ga = FormalGroupLaw.additive(ctx35)
    for n in range(3):
        lat = solve_character_lattice(Ga, n)
        assert lat.rank == n + 1
        assert lat.exponents == list(range(n + 1))
        (th,) = lat.basis
        assert th.c[0] == 1
        assert all(ci.is_zero() for ci in th.c[1:])


def test_solver_builds_no_log_projection(ctx35):
    # the rows read the univariate log alone, and a supersingular curve
    # has no order-1 exponent-0 vector whose jet series would need L_0, L_1
    F = curve(ctx35, 0, 1)
    solve_character_lattice(F, 1)
    assert F.log_projection_cache == []


def test_order2_needs_degree_budget(ctx):
    E = curve(ctx, 1, 1)  # M = 12 < p^2 + p
    with pytest.raises(PrecisionExhausted):
        solve_character_lattice(E, 2)


def test_primitive_quotient(E11, Em10, Gm):
    for F in (E11, Em10):
        assert primitive_quotient(solve_character_lattice(F, 2), F).rank == 1
    prim = primitive_quotient(solve_character_lattice(Gm, 2), Gm)
    assert prim.rank == 1
    assert prim.basis[0].order in (1, 2)


@pytest.mark.parametrize("build", [
    solve_character_lattice, jet_group_law, log_projections])
def test_a_negative_order_raises_naming_it(E11, build):
    with pytest.raises(ArithJetError, match="n = -1:"):
        build(E11, -1)


# -- differential, gamma, Upsilon ---------------------------------------------


def test_gamma_is_p_times_A0(Gm):
    th = solve_character_lattice(Gm, 1).basis[0]
    A, gamma = differential_gamma(th)
    assert A[0] == th.c[0]
    assert A[1] == th.c[1].shift(1)   # dL_1/dx_1(0) = p
    assert gamma == th.c[0].shift(1)
    assert upsilon(th) == th.c[0]


def test_gamma_scales_linearly(Gm):
    th = solve_character_lattice(Gm, 1).basis[0]
    lam = PadicRational.from_int(Gm.ctx, 7)
    scaled = DeltaCharacter(Gm, tuple(x * lam for x in th.c))
    _, g1 = differential_gamma(th)
    _, g2 = differential_gamma(scaled)
    assert g2 == g1 * lam


def test_upsilon_elliptic_order2(E11):
    th = solve_character_lattice(E11, 2).basis[0]
    assert upsilon(th) == 1          # gamma/p = c0 = 1 after normalization


def test_upsilon_zero_character(Gm):
    zero = DeltaCharacter(Gm, (PadicRational.zero(Gm.ctx, 8),) * 2)
    assert upsilon(zero).is_zero()


# -- restrictions ---------------------------------------------------------------


def test_iota_star_gm_gives_psi1_multiple(Gm):
    th = solve_character_lattice(Gm, 1).basis[0]
    res = iota_star(th)
    psi = psi1_series(Gm)
    want = psi.scale(th.c[1].shift(1))   # iota* Theta = (p c_1) Psi_1
    assert (res - want).residual_valuation() >= Gm.ctx.N - 2


def test_phi_star_shifts_coefficients(Gm):
    th = solve_character_lattice(Gm, 1).basis[0]
    sh = phi_star(th)
    assert sh.order == 2
    assert sh.c[0].is_zero()
    assert sh.c[1] == th.c[0] and sh.c[2] == th.c[1]
    assert sh.series.is_integral()


def test_iota_star_matches_the_restricted_jet_series(ctx35, Em10, E11, E7):
    # iota* reads the kernel log projections; the jet series at x0 = 0
    # gives the same keys in the same order, triples and absprec
    Gm = FormalGroupLaw.multiplicative(ctx35)
    thetas = [solve_character_lattice(Gm, 1).basis[0],
              solve_character_lattice(Em10, 1).basis[0],
              solve_character_lattice(E11, 2).basis[0],
              solve_character_lattice(E7, 2).basis[0]]
    for th in thetas:
        for ch in (th, phi_star(th), phi_star(phi_star(th))):
            got = iota_star(ch)
            want = ch.series.set_zero(["x0"])
            assert got.vars == want.vars
            assert triples(got) == triples(want), (th.F.kind, ch.order)
            assert got.absprec == want.absprec, (th.F.kind, ch.order)


def test_f_star_additive_psi(Ga):
    psi = psi1_series(Ga)
    img = restrict_lateral(psi)
    x1 = TruncatedSeries.variable(Ga.ctx, ("x1", "x2"), "x1")
    x2 = TruncatedSeries.variable(Ga.ctx, ("x1", "x2"), "x2")
    assert (img - (x1 ** 5 + x2.shift(1))).residual_valuation() == INF


def test_f_star_shifts_the_kernel_log_projections(ctx35, E11, Em10, E7):
    # the lateral Frobenius is the Witt Frobenius, w_j o f = w_(j+1), so
    # f* Lbar_j = Lbar_(j+1) to the precision the compose claims
    groups = (FormalGroupLaw.multiplicative(ctx35), E11, Em10, E7)
    for F in groups:
        for j in (1, 2, 3):
            xs = tuple(f"x{i}" for i in range(1, j + 2))
            lbar = kernel_log_projection(F, j, xs[:j])
            img = reference_restrict_lateral(lbar)
            want = kernel_log_projection(F, j + 1, xs)
            resid = (img - want).residual_valuation()
            claim = img.effective_precision()
            assert resid >= claim, (F.kind, F.ctx.p, j, resid, claim)


@pytest.mark.parametrize("p, N, M, a4, a6", [
    (5, 8, 35, None, None), (5, 8, 35, 1, 1), (5, 8, 35, -1, 0),
    (5, 8, 35, 0, 1), (7, 6, 56, 1, 1), (13, 4, 182, 1, 1)],
    ids=["Gm", "E11", "Em10", "E01", "E11-p7", "E11-p13"])
def test_f_star_psi1_matches_the_padic_horner(p, N, M, a4, a6):
    # f* Psi_1 = Psi_1(x1^p + p x2), which the compose expands by the
    # multinomial theorem, against Horner on PadicRational series: the
    # same keys in the same order and series absprec, the same values to
    # the lesser claim, and no claim shorter (E11 claims more on 20 keys
    # at p = 5 and on 40 at p = 7)
    ctx = Context(p=p, N=N, M=M)
    F = FormalGroupLaw.multiplicative(ctx) if a4 is None else curve(ctx, a4, a6)
    psi = psi1_series(F)
    got = restrict_lateral(psi)
    want = reference_compose(psi, lateral_frobenius_map(ctx, 2))
    assert (list(got.coeffs), got.absprec) == (list(want.coeffs), want.absprec)
    assert_claims_no_less_than_the_compose(got, want)


def test_f_star_shift_matches_the_composed_pullback(ga11, gam10, ga01, gagm,
                                                    E7):
    # f*(iota* Theta) and f*(iota* phi* Theta) by the index shift equal the
    # compose to its claim, and claim the same series absprec
    thetas = [ga.theta for ga in (ga11, gam10, ga01, gagm)]
    thetas.append(solve_character_lattice(E7, 2).basis[0])
    for th in thetas:
        for ch in (th, phi_star(th)):
            chi = iota_star(ch)
            got = f_star(ch, chi)
            want = reference_restrict_lateral(chi)
            label = (th.F.kind, th.F.ctx.p, ch.order)
            assert got.vars == want.vars, label
            assert got.absprec == want.absprec, label
            resid = (got - want).residual_valuation()
            assert resid >= want.effective_precision(), (label, resid)


# -- diff relation ---------------------------------------------------------------


def test_diff_relation_zero_character(Gm):
    zero = DeltaCharacter(Gm, (PadicRational.zero(Gm.ctx, 8),) * 2)
    rep = verify_diff_relation(zero)
    assert rep.residual_diff1 == INF


def wrong_sign_residual(rep):
    """Residual of f*(iota* Theta) = iota* phi* Theta + gamma Psi_1, the
    diff relation with sigma = +1, from the series the report carries."""
    gap = rep.fstar_iota_theta - rep.pullback
    return (gap - rep.psi.extend(gap.vars).scale(rep.gamma)).residual_valuation()


def test_diff_relation_gm(Gm):
    th = solve_character_lattice(Gm, 1).basis[0]
    rep = verify_diff_relation(th)
    assert rep.sign == -1
    assert rep.residual_diff1 >= Gm.ctx.N - 2
    assert wrong_sign_residual(rep) <= 2


def test_the_other_sign_fails_the_diff_relation(ga11, gam10):
    # sigma = -1 by construction; with +1 the relation fails at once, on
    # E11's order-2 Theta and Em10's order-1 Theta
    for ga in (ga11, gam10):
        assert ga.diff.residual_diff1 >= ga.F.ctx.N - 3, ga.F.curve
        assert wrong_sign_residual(ga.diff) <= 2, ga.F.curve


def test_diff_relation_elliptic_order2(E11):
    th = solve_character_lattice(E11, 2).basis[0]
    rep = verify_diff_relation(th)
    assert rep.sign == -1
    assert rep.ok
    assert rep.residual_diff2 is not None
    assert rep.residual_diff2 >= E11.ctx.N - 3


# -- isocrystal ---------------------------------------------------------------


@pytest.fixture(scope="module")
def ga11(E11):
    return analyze_group(E11)


@pytest.fixture(scope="module")
def gam10(Em10):
    return analyze_group(Em10)


@pytest.fixture(scope="module")
def ga01(E01):
    return analyze_group(E01)


@pytest.fixture(scope="module")
def gagm(ctx35):
    return analyze_group(FormalGroupLaw.multiplicative(ctx35))


def bend_kernel_log_projection(monkeypatch, j, bend):
    """Add bend(ctx, variables) to every Lbar_j that the run reads."""
    real = characters.kernel_log_projection

    def bent(F, i, variables):
        out = real(F, i, variables)
        if i == j:
            out = out + bend(F.ctx, out.vars)
        return out

    monkeypatch.setattr(characters, "kernel_log_projection", bent)


def p_power_x1(k, a):
    """p^a x1^k on the given variables."""
    return lambda ctx, xs: (TruncatedSeries.variable(ctx, xs, "x1") ** k).shift(a)


def test_analyze_group_raises_on_a_failed_diff_relation(E11, monkeypatch):
    # Lbar_4 enters only f*(iota* phi* Theta); with p^2 x1 added to it the
    # diff2 point check sees c_2 p^2 x1 = p^2 u at x1 = p u, while the
    # Frobenius matrix, and so the point-count gate, is unchanged
    bend_kernel_log_projection(monkeypatch, 4, p_power_x1(1, 2))
    with pytest.raises(IdentityViolation, match="diff2 residual 2 "):
        analyze_group(E11)


def test_a_bent_lbar3_is_seen_by_the_diff1_point_check(E11, monkeypatch):
    # c_2 Lbar_3 sits in f*(iota* Theta) and in iota* phi* Theta alike, so
    # the bend cancels in the c-vector identity; only the point check
    # against iota* Theta o f sees it
    bend_kernel_log_projection(monkeypatch, 3, p_power_x1(1, 2))
    with pytest.raises(IdentityViolation, match="diff1 residual 2 "):
        analyze_group(E11)


def test_a_bent_lbar2_is_seen_by_the_composed_f_star_psi(E11, monkeypatch):
    # p^3 x1^3 in Lbar_2 shows as c_1 p^3 (p u)^3, valuation 5 = N - 3, at
    # the points, so both point checks pass (the blind spot of a point
    # check in high degree); f* Psi_1 = Lbar_2 / p, checked coefficientwise
    # against the compose, drops to 2
    bend_kernel_log_projection(monkeypatch, 2, p_power_x1(3, 3))
    with pytest.raises(IdentityViolation, match="fstar_shift residual 2 "):
        analyze_group(E11)


def test_one_analysis_builds_each_lateral_pullback_once(E11, Em10,
                                                        monkeypatch):
    names = ("restrict_lateral", "f_star", "iota_star")
    counts = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(characters, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(characters, name, wrapper)

    for name in names:
        counted(name)
    # non-CL: the shift f* on iota* Theta and on iota* phi* Theta (diff2),
    # each one iota*; the compose only on Psi_1; iota* of Theta and
    # phi* Theta
    analyze_group(E11)
    assert counts == {"restrict_lateral": 1, "f_star": 2, "iota_star": 4}
    counts.update(dict.fromkeys(names, 0))
    analyze_group(Em10)
    assert counts == {"restrict_lateral": 0, "f_star": 1, "iota_star": 3}


def test_one_analysis_counts_points_once(ctx35, monkeypatch):
    calls = []
    real = formalgroup.count_points_ap

    def counted(E):
        calls.append(E)
        return real(E)

    monkeypatch.setattr(formalgroup, "count_points_ap", counted)
    analyze_group(curve(ctx35, 1, 1))
    assert len(calls) == 1


def test_one_analysis_builds_each_log_projection_once(ctx35, monkeypatch):
    # ghost_compose builds each L_i once per group, in order: L_0..L_4
    # for a non-CL curve (diff2 reads Lbar_4; y^2 = x^3 + x + 1 and the
    # supersingular y^2 = x^3 + 1), L_0..L_2 for a CL group.
    # Each L_i is composed once and expanded from w_i, L_0 from x0 alone,
    # below the cap (L_1, L_2 at p = 5, M = 35) and above it (L_3, L_4);
    # none takes the sum of products
    builds, composes, summed = [], [], []
    log = None
    real_build, real_compose = characters.ghost_compose, TruncatedSeries.compose
    real_sum = TruncatedSeries._sum_of_products

    def built(G, variables, blocks, i):
        if G is log:
            builds.append(i)
        return real_build(G, variables, blocks, i)

    def composed(self, args, cap=None):
        if self is log:
            composes.append(len(args[0].vars) - 1)
        return real_compose(self, args, cap)

    def by_sum(self, args, *rest):
        if self is log:
            summed.append(len(args[0].vars) - 1)
        return real_sum(self, args, *rest)

    monkeypatch.setattr(characters, "ghost_compose", built)
    monkeypatch.setattr(TruncatedSeries, "compose", composed)
    monkeypatch.setattr(TruncatedSeries, "_sum_of_products", by_sum)
    for F, levels in ((curve(ctx35, 1, 1), 5), (curve(ctx35, 0, 1), 5),
                      (curve(ctx35, -1, 0), 3),
                      (FormalGroupLaw.multiplicative(ctx35), 3)):
        builds.clear()
        composes.clear()
        summed.clear()
        log = F.log
        analyze_group(F)
        assert builds == list(range(levels)), (F.kind, builds)
        assert composes == list(range(levels)), (F.kind, composes)
        assert summed == [], (F.kind, summed)


def test_sum_of_products_census_names_only_the_callers_that_need_it(monkeypatch):
    # the sum-of-products route of compose serves three callers only:
    # reversion's Newton steps, canonical_lift_test's [p] = exp(p log) and
    # verify_jet_identities' lateral check f(K2).  Every ghost level and
    # f* Psi_1 are expansions, and the law of a long form reads the
    # inverse off the chord without a compose
    callers = set()
    real_sum = TruncatedSeries._sum_of_products
    compose_code = TruncatedSeries.compose.__code__

    def by_sum(self, *args):
        frame = sys._getframe(1)
        while frame.f_code is not compose_code:
            frame = frame.f_back
        callers.add(frame.f_back.f_code.co_name)
        return real_sum(self, *args)

    monkeypatch.setattr(TruncatedSeries, "_sum_of_products", by_sum)
    analyze_group(curve(Context(p=5, N=8, M=35), 1, 1))
    classify_CL(curve(Context(p=5, N=8, M=12), 1, 1))
    ctx8 = Context(p=5, N=8, M=8)
    for F in (FormalGroupLaw.multiplicative(ctx8), curve(ctx8, 1, 1)):
        assert verify_jet_identities(F).ok
    formal_group_from_curve(
        WeierstrassCurve(1, 1, 1, 1, 1, Context(p=5, N=8, M=20))).law
    assert callers == {"reversion", "canonical_lift_test",
                       "verify_jet_identities"}


def test_analyze_group_names_a_kind_it_cannot_analyse(Ga, Gm):
    for F, kind in ((Ga, "additive"), (n1_group(Gm), "kernel")):
        with pytest.raises(ArithJetError, match=kind) as err:
            analyze_group(F)
        assert not isinstance(err.value, PrecisionExhausted)
    # G_a's error says why: the isocrystal is defined for abelian schemes
    with pytest.raises(ArithJetError, match="G_a is not an abelian scheme"
                       ".*sub-isocrystal containing Fil\\^1"):
        analyze_group(Ga)


def test_frobenius_shifts_are_not_rebuilt_as_series(Em10):
    # a shift phi* Theta is integral where Theta is, so the solver reads
    # only its c-vector and never builds its jet series
    lat = solve_character_lattice(Em10, 2)
    assert lat.shift_relations
    for ch in lat.shift_relations:
        assert "series" not in vars(ch)


def test_analysis_reports_only_residuals_that_can_fail(ga11, gam10):
    # fstar_reduction read inf by construction and is not reported
    assert set(ga11.iso.residuals) == {"diff1", "diff2", "fstar_shift",
                                       "fstar_psi_expansion"}
    assert set(gam10.iso.residuals) == {"diff1", "diff2"}


def test_top_lattice_holds_theta_alone(ga11, gam10, ga01, gagm):
    # analyze_group solves gamma_hat against iota* phi* Theta alone, and
    # f* Psi_1 without a pullback column on the non-CL path
    for ga in (ga11, gam10, ga01, gagm):
        top = ga.lattices[ga.theta.order]
        assert len(top.basis) == 1 and top.basis[0] is ga.theta
        assert top.shift_relations == []
    for ga in (ga11, ga01):
        lat1 = ga.lattices[1]
        assert lat1.basis == [] and lat1.shift_relations == []


def test_splitting_nonCL(ga11):
    iso = ga11.iso
    assert iso.ranks_Xn == (0, 1)
    assert iso.m_u == 2
    assert iso.hdelta_rank == 2
    assert iso.filtration_dims == (1, 2, 2)
    assert iso.is_CL is False


def test_splitting_CL(gam10):
    iso = gam10.iso
    assert iso.ranks_Xn == (1, 2)
    assert iso.m_u == 1
    assert iso.hdelta_rank == 1
    assert iso.filtration_dims == (1, 1)
    assert iso.is_CL is True


def test_splitting_supersingular(ga01):
    iso = ga01.iso
    assert iso.ranks_Xn == (0, 1)
    assert iso.m_u == 2
    assert iso.hdelta_rank == 2
    assert iso.is_CL is False


def test_splitting_gm(gagm):
    iso = gagm.iso
    assert iso.m_u == 1
    assert iso.hdelta_rank == 1
    assert iso.is_CL is True
    lam = iso.frobenius_matrix[0][0]
    assert lam == 5                    # slope-1 eigenvalue p for the torus


def test_charpoly_nonCL(ga11):
    # trace = a_5 = -3, det = 5, mod 5^(N-3)
    iso = ga11.iso
    N = 8
    assert (iso.trace - (-3)).is_zero() or (iso.trace - (-3)).valuation() >= N - 3
    assert (iso.determinant - 5).is_zero() or \
        (iso.determinant - 5).valuation() >= N - 3
    assert iso.newton_slopes() == [0, 1]


def test_charpoly_at_a_large_prime():
    # y^2 = x^3 + x + 1 at (p, N, M) = (13, 4, 182), ordinary: trace = a_13
    # and det = 13 mod 13^(N-3), against the point count
    E = WeierstrassCurve(0, 0, 0, 1, 1, Context(p=13, N=4, M=182))
    iso = analyze_group(as_group(E)).iso
    assert iso.hdelta_rank == 2
    for got, want in ((iso.trace, count_points_ap(E).a_p), (iso.determinant, 13)):
        assert (got - want).is_zero() or (got - want).valuation() >= 1


def test_charpoly_nonCL_second_curve(ctx35):
    # y^2 = x^3 + 2x + 1 at p = 5: non-CL ordinary, a_5 = -1
    ga = analyze_group(curve(ctx35, 2, 1))
    c0, c1, c2 = ga.theta.c
    assert c0 == 1
    assert c1.shift(1) == 1                     # p*c1 = -a_p
    assert c2.shift(1) == 1                     # p*c2 = 1
    iso = ga.iso
    assert iso.ranks_Xn == (0, 1)
    assert (iso.trace - (-1)).valuation() >= ctx35.N - 3
    assert (iso.determinant - 5).valuation() >= ctx35.N - 3


# j - j' has valuation 3 on these curves at p = 5, N = 8: nonzero at its
# claim (6 digits), so non-CL, as none has a rational CM j-invariant
NONZERO_J_DISTANCE_3 = ((4, 1), (4, -1), (-2, 3), (-2, -3))


def test_classify_CL_reads_a_nonzero_j_distance_as_non_CL(ctx):
    for a4, a6 in NONZERO_J_DISTANCE_3:
        assert classify_CL(WeierstrassCurve(0, 0, 0, a4, a6, ctx)) is False


def test_one_digit_of_j_distance_decides_nothing():
    # at N = 3, j - j' is known to 1 digit, and j(E/C) = j(E) mod p makes
    # that digit zero on every ordinary curve: y^2 = x^3 + x + 1 (non-CL)
    # must not read as a canonical lift
    E = WeierstrassCurve(0, 0, 0, 1, 1, Context(p=5, N=3, M=35))
    with pytest.raises(PrecisionExhausted, match="N = 3"):
        classify_CL(E)
    with pytest.raises(PrecisionExhausted, match="N = 3"):
        analyze_group(as_group(E))


@pytest.mark.parametrize("a4, a6", [(-1, 0), (0, 1)])
def test_analyze_group_refuses_a_budget_its_gates_cannot_check(a4, a6):
    # at N = 3 the gates hold mod p^0: y^2 = x^3 - x would come back
    # unchecked, and y^2 = x^3 + 1 (supersingular) met AmbiguousRank
    E = WeierstrassCurve(0, 0, 0, a4, a6, Context(p=5, N=3, M=35))
    with pytest.raises(PrecisionExhausted, match=r"N = 3.*N >= 4"):
        analyze_group(as_group(E))


@pytest.mark.parametrize("p, N, M, enough", [(5, 5, 35, 6), (7, 4, 56, 5)])
def test_a_short_G_m_budget_names_the_N_it_needs(p, N, M, enough):
    # at these budgets G_m's rows hold K = d digits, one short of the
    # d + 1 the solve needs; the raise names the budget and N + d + 1 - K,
    # and that N analyses
    with pytest.raises(PrecisionExhausted,
                       match=rf"\(p, N, M\) = \({p}, {N}, {M}\).*N >= {enough}$"):
        analyze_group(FormalGroupLaw.multiplicative(Context(p=p, N=N, M=M)))
    ga = analyze_group(FormalGroupLaw.multiplicative(Context(p=p, N=enough, M=M)))
    assert ga.iso.is_CL and ga.iso.hdelta_rank == 1


@pytest.mark.xfail(strict=True, reason=(
    "j - j' is zero to all the digits it claims on the non-CL"
    " y^2 = x^3 + 4x + 1 at p=5, N=5: it analyses as rank 1 with is_CL True"))
def test_a_short_budget_never_calls_a_non_CL_curve_CL():
    for p, N, M, a4, a6 in ((5, 5, 35, 4, 1), (7, 3, 56, 2, 1)):
        E = WeierstrassCurve(0, 0, 0, a4, a6, Context(p=p, N=N, M=M))
        try:
            is_cl = analyze_group(as_group(E)).iso.is_CL
        except PrecisionExhausted:
            continue
        assert is_cl is False, (p, N, a4, a6)


def test_analyze_group_on_a_nonzero_j_distance_3(ctx35):
    ga = analyze_group(curve(ctx35, 4, 1))
    iso = ga.iso
    assert iso.is_CL is False
    assert iso.hdelta_rank == 2 and len(iso.frobenius_matrix) == 2
    check_point_count(ga.F, iso.frobenius_matrix)


def test_point_count_gate_rejects_wrong_matrix(ga11, gam10, gagm):
    for ga in (ga11, gam10, gagm):
        check_point_count(ga.F, ga.iso.frobenius_matrix)
    ctx = ga11.F.ctx
    one = PadicRational.one(ctx)
    zero = PadicRational.zero(ctx, ctx.N)
    # trace -3 and det 5 + 5^2: right trace, wrong determinant
    wrong = [[zero, PadicRational.from_int(ctx, -30)],
             [one, PadicRational.from_int(ctx, -3)]]
    with pytest.raises(IdentityViolation):
        check_point_count(ga11.F, wrong)
    lam = gam10.iso.frobenius_matrix[0][0]
    with pytest.raises(IdentityViolation):
        check_point_count(gam10.F, [[lam + PadicRational.from_int(ctx, 125)]])
    with pytest.raises(IdentityViolation):
        check_point_count(gagm.F, [[PadicRational.from_int(ctx, 10)]])


def test_charpoly_CL(gam10):
    # eigenvalue is the valuation-1 root of x^2 + 2x + 5
    iso = gam10.iso
    lam = iso.frobenius_matrix[0][0]
    assert lam.valuation() == 1
    val = lam * lam + lam.shift(0) * 2 + 5
    assert val.is_zero() or val.valuation() >= 8 - 3
    assert iso.newton_slopes() == [1]


@pytest.mark.xfail(strict=True, reason=(
    "the CL eigenvalue overclaims by one digit: for y^2 = x^3 - x at p=5,"
    " N=8, M=35 lambda claims O(5^7), lambda^2 - a_p lambda + p has"
    " valuation 6"))
def test_CL_eigenvalue_holds_its_claimed_digits(gam10):
    lam = gam10.iso.frobenius_matrix[0][0]
    a_p = count_points_ap(gam10.F.curve).a_p
    resid = lam * lam - lam * a_p + 5
    assert resid.valuation() >= lam.absprec, f"{lam}: residual {resid}"


def test_charpoly_supersingular(ga01):
    iso = ga01.iso
    t, d = iso.trace, iso.determinant
    assert t.is_zero() or t.valuation() >= 1
    assert d.valuation() == 1
    from fractions import Fraction
    assert iso.newton_slopes() == [Fraction(1, 2), Fraction(1, 2)]


def test_sign_convention_documented(ga11, gam10, ga01, gagm):
    signs = {g.iso.sign for g in (ga11, gam10, ga01, gagm)}
    assert signs == {-1}


def test_gamma_values_nonzero(ga11, gam10):
    for ga in (ga11, gam10):
        for g in ga.iso.gamma_values:
            assert not g.is_zero()


def test_order_one_span_identity(ga11, gam10, ga01, gagm):
    for ga in (ga11, gam10, ga01, gagm):
        rep = order_one_span_identity(ga)
        assert rep["match"], rep


def test_frob_up_identity(ga11, gam10):
    for ga in (ga11, gam10):
        rep = frob_up_matrix_identity(ga)
        assert rep["residual"] >= ga.F.ctx.N - 3, rep


def test_classify_and_wrappers(ctx35):
    E = WeierstrassCurve(0, 0, 0, -1, 0, ctx35)
    assert classify_CL(E) is True
    E2 = WeierstrassCurve(0, 0, 0, 1, 1, ctx35)
    assert classify_CL(E2) is False
    iso = analyze_group(as_group(E2)).iso
    assert (iso.m_u, iso.hdelta_rank) == (2, 2)
