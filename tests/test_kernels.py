"""Differential tests: the integer kernels against the loops they replaced.

The reference implementations below are the straightforward versions: the
per-pair PadicRational product loop of TruncatedSeries, the one-degree-
at-a-time reversion loop, the O(deg^2) coefficient recurrences for
w(t) and the elliptic logarithm, and the kernel log projection composed
on its own from the restricted ghost polynomial.  The fast versions must
agree with them bit for bit: the same monomials in the same order, the
same (unit, val, rel, ctx.N) per coefficient and the same series absprec.
Newton reversion agrees with the loop where the loop has a coefficient,
and keeps the O(p^w) zeros that the loop leaves out; the kernel log
projection read from the log-projection table may claim a lower series
absprec than its reference.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithjet import _intpoly, canonical
from arithjet.canonical import canonical_lift_test, short_model
from arithjet.context import Context
from arithjet.formalgroup import (
    WeierstrassCurve, _w_coefficients, _w_series, elliptic_log_coefficients,
    formal_group_from_curve,
)
from arithjet.errors import IdentityViolation
from arithjet.jet import ghost_series
from arithjet.padic import PadicRational
from arithjet.series import TruncatedSeries, _INF, _minp

# -- reference implementations ------------------------------------------------


def reference_mul(f: TruncatedSeries, g: TruncatedSeries, cap=None):
    """Product by the per-pair PadicRational loop."""
    cap = f.ctx.M if cap is None else min(cap, f.ctx.M)
    mva, mvb = f.min_valuation(), g.min_valuation()
    t1 = None if (f.absprec is None or mvb is _INF) else f.absprec + mvb
    t2 = None if (g.absprec is None or mva is _INF) else g.absprec + mva
    absp = _minp(t1, t2)
    a = [(e, sum(e), c) for e, c in f.coeffs.items()]
    b = [(e, sum(e), c) for e, c in g.coeffs.items()]
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for e1, d1, c1 in a:
        room = cap - d1
        for e2, d2, c2 in b:
            if d2 > room:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            prod = c1 * c2
            prev = out.get(e)
            out[e] = prod if prev is None else prev + prod
    return TruncatedSeries(f.ctx, f.vars, out, absp)


def reference_reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by M sequential composes: g_k from the t^k
    coefficient of f(g) with g known below degree k (zeros left out)."""
    ctx = f.ctx
    uinv = f.linear_coefficient(f.vars[0]).inverse()
    g = {(1,): uinv}
    for k in range(2, ctx.M + 1):
        fg = f.truncate(k).compose([TruncatedSeries(ctx, f.vars, g)], cap=k)
        ck = fg.get((k,))
        if not ck.is_zero():
            g[(k,)] = -(ck * uinv)
    return TruncatedSeries(ctx, f.vars, g)


def reference_w(E: WeierstrassCurve, deg: int, mod=None):
    """w(t) and w(t)^2 by the coefficient recurrence of
    w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3."""
    w = [0] * (deg + 1)
    w2 = [0] * (deg + 1)
    w3 = [0] * (deg + 1)
    if deg >= 3:
        w[3] = 1
    for k in range(4, deg + 1):
        a = sum(w[i] * w[k - i] for i in range(3, k - 2))
        b = sum(w2[i] * w[k - i] for i in range(6, k - 2))
        c = (E.a1 * w[k - 1] + E.a2 * w[k - 2] + E.a3 * a
             + E.a4 * w2[k - 1] + E.a6 * b)
        if mod is not None:
            a %= mod
            b %= mod
            c %= mod
        w2[k], w3[k], w[k] = a, b, c
    return w, w2


def reference_log(E: WeierstrassCurve, deg: int, digits: int):
    """[b_1..b_deg] by the division recurrence for P = log'."""
    ctx = E.ctx
    mod = ctx.pk(digits)
    w, w2 = reference_w(E, deg + 3, mod=mod)
    num = [((-2 - k) * w[k + 3]) % mod for k in range(deg + 1)]
    den = [(-2 * w[k + 3] + E.a1 * w[k + 2] + E.a3 * w2[k + 3]) % mod
           for k in range(deg + 1)]
    inv0 = pow(den[0], -1, mod)
    P = [0] * (deg + 1)
    for k in range(deg + 1):
        acc = num[k] - sum(P[i] * den[k - i] for i in range(k) if den[k - i])
        P[k] = acc * inv0 % mod
    out = []
    for j in range(1, deg + 1):
        raw = P[j - 1] % mod
        if raw == 0:
            out.append(PadicRational.zero(ctx, digits))
            continue
        c = PadicRational(ctx, raw, 0, digits)
        out.append(c / PadicRational.from_int(ctx, j, rel=digits))
    return out


def reference_series_log(E: WeierstrassCurve) -> TruncatedSeries:
    """The logarithm to degree M by series arithmetic: integrate
    P = (w - t w') / (w (-2 + a1 t + a3 w)), both parts divided by t^3."""
    ctx = E.ctx
    pad = ctx.with_degree(ctx.M + 4)
    w = _w_series(E, ctx.M + 4)
    wq = TruncatedSeries(pad, ("t",), {(e - 3,): c for (e,), c in w.coeffs.items()})
    t = TruncatedSeries.variable(pad, ("t",), "t")
    num = wq.scale(-2) - t * wq.derivative()
    den = wq * (TruncatedSeries.const(pad, ("t",), -2) + t.scale(E.a1)
                + (t ** 3) * wq.scale(E.a3))
    log = (num * den.inverse()).integrate()
    return TruncatedSeries(ctx, ("t",), dict(log.coeffs), log.absprec)


def reference_kernel_log_projection(F, j: int, variables) -> TruncatedSeries:
    """Lbar_j = log_G(w_j(0, x1..xj)) composed on its own, from the ghost
    polynomial with x0 = 0 (start=1), in the given kernel variables."""
    variables = tuple(variables)
    w = ghost_series(F.ctx, variables, variables[:j], j, start=1)
    return F.log.compose([w])


def exact_log(E: WeierstrassCurve, deg: int) -> list[Fraction]:
    """[b_1..b_deg] over Q: P = log' from its defining fraction, whose
    t^3-shifted denominator has constant term -2."""
    w, w2 = _w_coefficients(E, deg + 3)
    num = [(-2 - k) * w[k + 3] for k in range(deg)]
    den = [-2 * w[k + 3] + E.a1 * w[k + 2] + E.a3 * w2[k + 3] for k in range(deg)]
    P: list[Fraction] = []
    for k in range(deg):
        acc = num[k] - sum(P[i] * den[k - i] for i in range(k) if den[k - i])
        P.append(Fraction(acc, den[0]))
    return [x / j for j, x in enumerate(P, 1)]


def vp_fraction(x: Fraction, p: int) -> float:
    if x == 0:
        return _INF
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def value(c: PadicRational) -> Fraction:
    return Fraction(c.unit) * Fraction(c.ctx.p) ** c.val if c.unit else Fraction(0)


def shape(f: TruncatedSeries):
    return ([(e, c.unit, c.val, c.rel, c.ctx.N) for e, c in f.coeffs.items()],
            f.absprec)


def triples(cs):
    return [(c.unit, c.val, c.rel) for c in cs]


# -- products -------------------------------------------------------------------


@st.composite
def coefficient(draw, ctx):
    val = draw(st.integers(-3, 5))
    if draw(st.integers(0, 4)) == 0:
        return PadicRational.zero(ctx, val)  # O(p^val)
    unit = draw(st.integers(1, ctx.p ** 8))
    return PadicRational(ctx, unit, val, draw(st.integers(1, 8)))


@st.composite
def series_pair(draw):
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=draw(st.integers(2, 8)),
                  M=draw(st.integers(1, 9)))
    nv = draw(st.integers(1, 4))
    variables = tuple(f"x{i}" for i in range(nv))

    def one():
        keys = draw(st.lists(st.tuples(*[st.integers(0, ctx.M)] * nv),
                             max_size=14, unique=True))
        coeffs = {e: draw(coefficient(ctx)) for e in keys}
        absprec = draw(st.one_of(st.none(), st.integers(-2, 12)))
        return TruncatedSeries(ctx, variables, coeffs, absprec)

    f, g = one(), one()
    cap = draw(st.one_of(st.none(), st.integers(0, ctx.M)))
    return f, g, cap


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_pair())
def test_product_matches_pairwise_loop(args):
    f, g, cap = args
    assert shape(f.__mul__(g, cap)) == shape(reference_mul(f, g, cap))


def test_product_matches_on_dense_univariate():
    ctx = Context(p=5, N=10, M=40)
    rng = random.Random(7)
    for _ in range(10):
        f, g = (TruncatedSeries(ctx, ("t",), {
            (k,): PadicRational(ctx, rng.randrange(1, 5 ** 12),
                                rng.randrange(-2, 4), rng.randrange(1, 11))
            for k in range(ctx.M + 1) if rng.random() < 0.9}) for _ in "fg")
        for cap in (None, 17):
            assert shape(f.__mul__(g, cap)) == shape(reference_mul(f, g, cap))


def test_product_with_far_zero_bound():
    # an exact series may hold the O(p^(10^9)) zero that get() returns
    ctx = Context(p=5, N=6, M=6)
    f = TruncatedSeries(ctx, ("t",), {(1,): PadicRational.zero(ctx, 10 ** 9),
                                      (2,): PadicRational(ctx, 3, -1, 4)})
    g = TruncatedSeries(ctx, ("t",), {(0,): PadicRational(ctx, 7, 2, 5),
                                      (1,): PadicRational.zero(ctx, 10 ** 9)})
    assert shape(f * g) == shape(reference_mul(f, g))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=12),
       st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=12),
       st.integers(1, 25), st.sampled_from([None, 7, 5 ** 9]))
def test_intpoly_mul_matches_schoolbook(a, b, n, mod):
    want = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                want[i + j] += x * y
    if mod is not None:
        want = [x % mod for x in want]
    assert _intpoly.mul(a, b, n, mod) == want


# -- w(t) and the logarithm ---------------------------------------------------


# long forms with every a_i nonzero and good reduction at p
LONG_CURVES = [(5, (1, 2, 3, 4, 1)), (7, (1, 2, 3, 4, 5))]


def test_exact_w_matches_recurrence():
    ctx5 = Context(p=5, N=6, M=12)
    # the short model canonical_lift_test expands, with large coefficients
    A, B = short_model(WeierstrassCurve(*LONG_CURVES[0][1], ctx=ctx5))
    for p, a in LONG_CURVES + [(5, (0, 0, 0, 1, 1)), (5, (0, 0, 0, A, B))]:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        for deg in (0, 2, 3, 4, 5, 60):
            assert _w_coefficients(E, deg) == reference_w(E, deg)
        assert _w_coefficients(E, 61, mod=p ** 7) == reference_w(E, 61, p ** 7)


def test_log_matches_recurrence_on_long_form_curves():
    for p, a in LONG_CURVES:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        digits = 6 + 3
        got = elliptic_log_coefficients(E, 300, digits=digits)
        assert triples(got) == triples(reference_log(E, 300, digits))
        assert {c.ctx.N for c in got} == {6}


# short and long forms with good reduction at p
LOG_CURVES = [(5, (0, 0, 0, 1, 1)), (5, (0, 0, 0, -1, 0)), (7, (0, 0, 0, 1, 1)),
              (7, (0, 0, 0, 2, 3))] + LONG_CURVES


def test_log_coefficients_hold_their_claimed_digits():
    # against the exact rational log: every b_j must equal its claim mod
    # p^absprec, including the digits beyond N that digits > N buys
    for p, a in LOG_CURVES:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        exact = exact_log(E, 120)
        for deg in (30, 120):
            got = elliptic_log_coefficients(E, deg)
            for j, (c, x) in enumerate(zip(got, exact), 1):
                assert vp_fraction(x - value(c), p) >= c.absprec, (p, a, deg, j, c)


def test_formal_group_log_agrees_with_series_route():
    # the log of formal_group_from_curve against the series-arithmetic
    # route, to the smaller of the two precision claims at every degree
    for p, a in LOG_CURVES:
        ctx = Context(p=p, N=6, M=3 * p + 5)
        E = WeierstrassCurve(*a, ctx=ctx)
        log, ref = formal_group_from_curve(E).log, reference_series_log(E)
        assert log.absprec == ctx.N
        for k in range(1, ctx.M + 1):
            got, want = log.get((k,)), ref.get((k,))
            assert (got - want).is_zero(), (p, a, k, got, want)
            assert got.rel <= ctx.N


# -- composition and reversion ------------------------------------------------


def test_compose_matches_sum_of_products():
    # exponent gaps >= 2 in both variables, so Horner steps take powers
    ctx = Context(p=5, N=6, M=10)
    f = TruncatedSeries(ctx, ("x", "y"), {
        (0, 0): 1, (0, 3): 2, (2, 0): 3, (4, 2): -1, (6, 0): 7, (2, 5): 4,
        (0, 8): PadicRational(ctx, 3, -1, 4), (3, 3): 11})
    v = ("s", "t")
    s, t = (TruncatedSeries.variable(ctx, v, x) for x in v)
    args = [s.scale(3) + s * t + (t * t).scale(2), t - s * s + (s * t).scale(5)]
    want = TruncatedSeries.zero(ctx, v)
    for (i, j), c in f.coeffs.items():
        want = want + (args[0] ** i) * (args[1] ** j) * c
    got = f.compose(args)
    assert sorted(got.coeffs) == sorted(want.coeffs)
    assert {e: (c.unit, c.val, c.rel) for e, c in got.coeffs.items()} == \
        {e: (c.unit, c.val, c.rel) for e, c in want.coeffs.items()}


def exact_reversion(f: list[Fraction]) -> list[Fraction]:
    """[0, g_1, ..., g_M] with f(g) = t, f = [0, f_1, ..., f_M] over Q."""
    M = len(f) - 1
    g = [Fraction(0)] * (M + 1)
    g[1] = 1 / f[1]
    for k in range(2, M + 1):
        # t^k coefficient of f(g) with g known below degree k, by Horner
        acc = [Fraction(0)] * (k + 1)
        for j in range(k, 0, -1):
            acc = [sum(acc[i] * g[n - i] for i in range(n)) for n in range(k + 1)]
            acc[0] += f[j]
        g[k] = -sum(acc[i] * g[k - i] for i in range(k)) / f[1]
    return g


@st.composite
def inexact_series_and_perturbations(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    ctx = Context(p=p, N=draw(st.integers(2, 8)), M=draw(st.integers(2, 10)))
    unit = draw(st.integers(1, p ** 8))
    coeffs = {(1,): PadicRational(ctx, unit if unit % p else unit + 1, 0,
                                  draw(st.integers(1, 8)))}
    for k in range(2, ctx.M + 1):
        if draw(st.booleans()):
            coeffs[(k,)] = draw(coefficient(ctx))
    f = TruncatedSeries(ctx, ("t",), coeffs)
    # each coefficient moved by delta * p^absprec, within its claim
    shifts = [[0] * len(f.coeffs)] + [
        draw(st.lists(st.integers(-p ** 2, p ** 2), min_size=len(f.coeffs),
                      max_size=len(f.coeffs))) for _ in range(2)]
    return f, shifts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inexact_series_and_perturbations())
def test_reversion_holds_its_claimed_digits(args):
    # every coefficient of the reversion, an absent one included (claimed
    # exactly zero), must hold its claim for every input within its claims
    f, shifts = args
    p, M = f.ctx.p, f.ctx.M
    g = f.reversion()
    for deltas in shifts:
        exact = [Fraction(0)] * (M + 1)
        for ((k,), c), d in zip(f.coeffs.items(), deltas):
            exact[k] = value(c) + d * Fraction(p) ** c.absprec
        want = exact_reversion(exact)
        for k in range(1, M + 1):
            c = g.get((k,))
            assert vp_fraction(want[k] - value(c), p) >= c.absprec, (f, k, c)


@pytest.mark.parametrize("p, N, deg", [(5, 8, 52), (7, 6, 66)])
def test_canonical_exp_matches_reference_reversion(monkeypatch, p, N, deg):
    # the exp of canonical_lift_test's log (y^2 = x^3 + x + 1) against the
    # one-degree-at-a-time loop: the same triples where the loop has a
    # coefficient, and only the O(p^w) zeros that the loop leaves out beside
    seen = []
    newton = TruncatedSeries.reversion

    def recording(f):
        seen.append((f, newton(f)))
        return seen[-1][1]

    monkeypatch.setattr(TruncatedSeries, "reversion", recording)
    canonical_lift_test(WeierstrassCurve(0, 0, 0, 1, 1, Context(p=p, N=N, M=12)))
    (log, exp), = seen
    assert log.ctx.M == deg
    ref = reference_reversion(log)
    assert list(exp.coeffs) == sorted(exp.coeffs)
    assert triples(exp.coeffs[e] for e in ref.coeffs) == triples(ref.coeffs.values())
    assert all(exp.coeffs[e].is_zero() for e in exp.coeffs.keys() - ref.coeffs.keys())


def test_canonical_lift_test_rejects_an_even_log_coefficient(monkeypatch):
    real = canonical.elliptic_log_coefficients

    def corrupted(E, deg, digits=None):
        bs = real(E, deg, digits=digits)
        bs[3] = bs[3] + PadicRational.from_int(E.ctx, 5)  # b_4
        return bs

    monkeypatch.setattr(canonical, "elliptic_log_coefficients", corrupted)
    E = WeierstrassCurve(0, 0, 0, 1, 1, Context(p=5, N=8, M=12))
    with pytest.raises(IdentityViolation):
        canonical_lift_test(E)
