"""Differential tests: the integer kernels against the loops they replaced.

The reference implementations below are the straightforward versions: the
per-pair PadicRational product loop of TruncatedSeries, its per-term
PadicRational evaluation loop, the one-degree-at-a-time reversion loop,
the O(deg^2) coefficient recurrences for w(t) and the elliptic
logarithm, and the kernel log projection composed on its own from the
restricted ghost polynomial.  The fast versions must
agree with them bit for bit: the same monomials in the same order, the
same (unit, val, rel, ctx.N) per coefficient and the same series absprec.
The coefficient maps agree with the composes and loops they replaced in
(unit, val, rel) and series absprec, in any monomial order: the ghost
polynomial by its monomial loop, N^1's law and Psi_1 by composing with
p*t, and the chord slope of the elliptic law by its products of powers.
Newton reversion agrees with the loop where the loop has a coefficient,
and keeps the O(p^w) zeros that the loop leaves out; the kernel log
projection read from the log-projection table may claim a lower series
absprec than its reference.  The lateral Frobenius pullback f* by
composition is the reference for the ghost index shift of
arithjet.characters.f_star, which must agree with it to the compose's
claim.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithjet import _intpoly, canonical
from arithjet.canonical import canonical_lift_test, short_model
from arithjet.context import Context
from arithjet.formalgroup import (
    FormalGroupLaw, WeierstrassCurve, _chord, _w_coefficients,
    elliptic_log_coefficients, formal_group_from_curve,
)
from arithjet.errors import IdentityViolation, PrecisionExhausted
from arithjet.ghost import ghost_solve
from arithjet.jet import (
    ghost_series, lateral_frobenius_map, n1_group, psi1_series,
)
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


def reference_evaluate(f: TruncatedSeries, values: dict) -> PadicRational:
    """f at a point by the per-term PadicRational loop: each term c * x^e
    a chain of PadicRational products, the terms summed by PadicRational
    add from the series' own O(p^absprec) zero."""
    total = PadicRational.zero(f.ctx, 10 ** 9 if f.absprec is None
                               else f.absprec)
    for e, c in f.coeffs.items():
        term = c
        for name, k in zip(f.vars, e):
            if k:
                term = term * values[name] ** k
        total = total + term
    return total


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


def reference_dlog(E: WeierstrassCurve, deg: int, mod=None) -> list[int]:
    """P = log' = (w - t w')/(w (-2 + a1 t + a3 w)) to t^deg by the division
    recurrence, from reference_w: both parts divided by t^3, which leaves
    the denominator the constant term -2; exact, or reduced into [0, mod)."""
    w, w2 = reference_w(E, deg + 3, mod)
    num = [(-2 - k) * w[k + 3] for k in range(deg + 1)]
    den = [-2 * w[k + 3] + E.a1 * w[k + 2] + E.a3 * w2[k + 3]
           for k in range(deg + 1)]
    P: list = []
    for k in range(deg + 1):
        acc = num[k] - sum(P[i] * den[k - i] for i in range(k) if den[k - i])
        if mod is None:
            q = Fraction(acc, den[0])
            assert q.denominator == 1, (E, k)  # P is integral
            P.append(int(q))
        else:
            P.append(acc * pow(den[0], -1, mod) % mod)
    return P


def reference_log(E: WeierstrassCurve, deg: int, digits: int):
    """[b_1..b_deg] by the division recurrence for P = log'."""
    ctx = E.ctx
    P = reference_dlog(E, deg, ctx.pk(digits))
    out = []
    for j in range(1, deg + 1):
        if P[j - 1] == 0:
            out.append(PadicRational.zero(ctx, digits))
            continue
        c = PadicRational(ctx, P[j - 1], 0, digits)
        out.append(c / PadicRational.from_int(ctx, j, rel=digits))
    return out


def w_series(E: WeierstrassCurve, deg: int) -> TruncatedSeries:
    """w(t) to total degree deg, in a context of degree cap deg."""
    ctx = E.ctx.with_degree(deg)
    coeffs, _ = _w_coefficients(E, deg)
    return TruncatedSeries(ctx, ("t",),
                           {(k,): c for k, c in enumerate(coeffs) if c})


def reference_series_log(E: WeierstrassCurve) -> TruncatedSeries:
    """The logarithm to degree M by series arithmetic: integrate
    P = (w - t w') / (w (-2 + a1 t + a3 w)), both parts divided by t^3."""
    ctx = E.ctx
    pad = ctx.with_degree(ctx.M + 4)
    w = w_series(E, ctx.M + 4)
    wq = TruncatedSeries(pad, ("t",), {(e - 3,): c for (e,), c in w.coeffs.items()})
    t = TruncatedSeries.variable(pad, ("t",), "t")
    num = wq.scale(-2) - t * wq.derivative()
    den = wq * (TruncatedSeries.const(pad, ("t",), -2) + t.scale(E.a1)
                + (t ** 3) * wq.scale(E.a3))
    log = (num * den.inverse()).integrate()
    return TruncatedSeries(ctx, ("t",), dict(log.coeffs), log.absprec)


def reference_ghost_series(ctx: Context, variables, names, i: int,
                           start: int = 0) -> TruncatedSeries:
    """w_i by the monomial loop: the j-th listed name is the coordinate
    x_(start+j), all earlier coordinates zero, so it carries weight
    p^(start+j) and exponent p^(i-start-j); each coefficient claims N+i
    digits."""
    p = ctx.p
    coeffs = {}
    variables = tuple(variables)
    for j, name in enumerate(names):
        level = start + j
        if level > i:
            break
        e = [0] * len(variables)
        e[variables.index(name)] = p ** (i - level)
        key = tuple(e)
        prev = coeffs.get(key)
        c = PadicRational.from_int(ctx, p ** level, ctx.N + i)
        coeffs[key] = c if prev is None else prev + c
    return TruncatedSeries(ctx, variables, coeffs)


def reference_kernel_law(F, n: int) -> tuple[TruncatedSeries, ...]:
    """The group law of N^n, F composed with the ghosts restricted to
    x0 = y0 = 0 and ghost-solved, in (x1..xn, y1..yn)."""
    ctx = F.ctx
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    allv = xs + ys
    ghosts = [TruncatedSeries.zero(ctx, allv)]
    for i in range(1, n + 1):
        ghosts.append(F.law.compose(
            [reference_ghost_series(ctx, allv, names, i, start=1)
             for names in (xs, ys)]))
    return tuple(ghost_solve(ctx.p, ghosts, TruncatedSeries.shift)[1:])


def reference_psi1(F, var: str = "x1") -> TruncatedSeries:
    """Psi_1 = (1/p) log_G(p x): the log composed with p*x, shifted down."""
    t = TruncatedSeries.variable(F.ctx, (var,), var)
    return F.log.compose([t.shift(1)]).shift(-1)


def reference_chord_slope(E: WeierstrassCurve):
    """w(t1) by compose, and the chord slope
    sum_k A_k sum_(i+j=k-1) t1^i t2^j from products of powers of t1, t2."""
    ctx = E.ctx
    w = w_series(E, ctx.M + 4)
    v = ("t1", "t2")
    t1 = TruncatedSeries.variable(ctx, v, "t1")
    t2 = TruncatedSeries.variable(ctx, v, "t2")
    lam = TruncatedSeries.zero(ctx, v)
    pows1 = [TruncatedSeries.const(ctx, v, 1), t1]
    pows2 = [TruncatedSeries.const(ctx, v, 1), t2]
    top = max(e for (e,) in w.coeffs)
    for k in range(2, top):
        pows1.append(pows1[-1] * t1)
        pows2.append(pows2[-1] * t2)
    for (k,), A in sorted(w.coeffs.items()):
        if k == 0 or k - 1 > ctx.M:
            continue
        dd = TruncatedSeries.zero(ctx, v)
        for i in range(k):
            if i <= ctx.M and k - 1 - i <= ctx.M:
                dd = dd + pows1[i] * pows2[k - 1 - i]
        lam = lam + dd.scale(A)
    return w.compose([t1]), lam


def reference_kernel_log_projection(F, j: int, variables) -> TruncatedSeries:
    """Lbar_j = log_G(w_j(0, x1..xj)) composed on its own, from the ghost
    polynomial with x0 = 0 (start=1), in the given kernel variables."""
    variables = tuple(variables)
    w = reference_ghost_series(F.ctx, variables, variables[:j], j, start=1)
    return F.log.compose([w])


def reference_restrict_lateral(chi: TruncatedSeries) -> TruncatedSeries:
    """f* chi by composition with the lateral Frobenius series
    f : N^(m+1) -> N^m, m = len(chi.vars): the coefficientwise route that
    the ghost index shift replaced for every f* but f* Psi_1."""
    return chi.compose(lateral_frobenius_map(chi.ctx, len(chi.vars) + 1))


def exact_log(E: WeierstrassCurve, deg: int) -> list[Fraction]:
    """[b_1..b_deg] over Q: b_j = P_(j-1)/j with P = log' from its
    defining fraction (reference_dlog)."""
    return [Fraction(x, j) for j, x in enumerate(reference_dlog(E, deg - 1), 1)]


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
def context_and_variables(draw):
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=draw(st.integers(2, 8)),
                  M=draw(st.integers(1, 9)))
    nv = draw(st.integers(1, 4))
    return ctx, tuple(f"x{i}" for i in range(nv))


@st.composite
def series(draw, ctx, variables):
    """Up to 14 terms of degree <= M, O(p^w) zeros and negative
    valuations among them, with absprec None or set."""
    keys = draw(st.lists(st.tuples(*[st.integers(0, ctx.M)] * len(variables)),
                         max_size=14, unique=True))
    coeffs = {e: draw(coefficient(ctx)) for e in keys}
    absprec = draw(st.one_of(st.none(), st.integers(-2, 12)))
    return TruncatedSeries(ctx, variables, coeffs, absprec)


@st.composite
def series_pair(draw):
    ctx, variables = draw(context_and_variables())
    f, g = draw(series(ctx, variables)), draw(series(ctx, variables))
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


def schoolbook(a, b, n, mod):
    want = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                want[i + j] += x * y
    return want if mod is None else [x % mod for x in want]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=12),
       st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=12),
       st.integers(1, 25), st.sampled_from([None, 7, 5 ** 9]))
def test_intpoly_mul_matches_schoolbook(a, b, n, mod):
    assert _intpoly.mul(a, b, n, mod) == schoolbook(a, b, n, mod)


@st.composite
def parity_operand(draw):
    """t^r A(t^s) for s in {2, 4}; sometimes all zero, sometimes with one
    coefficient off the parity class of r."""
    r, s = draw(st.integers(0, 30)), draw(st.sampled_from([2, 4]))
    coeffs = draw(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=12))
    if draw(st.integers(0, 5)) == 0:
        coeffs = [0] * len(coeffs)
    a = [0] * (r + s * len(coeffs))
    a[r::s] = coeffs
    off = [i for i in range(len(a)) if (i - r) % 2]
    if off and draw(st.integers(0, 5)) == 0:  # mixed parity
        a[draw(st.sampled_from(off))] += draw(st.integers(1, 10 ** 30))
    return a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parity_operand(), parity_operand(), st.integers(1, 40),
       st.sampled_from([None, 7, 5 ** 9]))
@example([0, 0, 0, 5], [0, 3], 2, None)  # r >= n
@example([0, 0, 0, 5, 0, 7], [0, 0, 0, 0, 1], 4, None)  # r >= n, r odd
@example([0, 2, 0, 3], [0, 4], 1, 7)  # n = 1
@example([1, 0, 2], [0, 0, 0], 9, 5 ** 9)  # an all-zero operand
@example([0, 0, 0, 2, 0, 0, 0, 3], [1, 0, 0, 0, 5], 30, None)  # stride 4
@example([0, 0, 0, 2, 1, 3], [1, 0, 5], 12, 7)  # mixed parity
@example([0, 7, 0, 7], [0, 1, 0, 1], 6, 7)  # zero mod 7
def test_intpoly_mul_on_parity_classes_matches_schoolbook(a, b, n, mod):
    # t^ra A(t^2) * t^rb B(t^2) takes the half-length product
    assert _intpoly.mul(a, b, n, mod) == schoolbook(a, b, n, mod)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, -1, 2, 3]),
       st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=12),
       st.sampled_from([2, 4]), st.integers(1, 40),
       st.sampled_from([None, 7, 5 ** 9]))
def test_intpoly_inverse_of_an_even_series_matches_schoolbook(f0, tail, s, n, mod):
    assume(mod is not None or f0 in (1, -1))
    f = [f0] + [0] * (s * len(tail))
    f[s::s] = tail
    inv0 = f0 if mod is None else pow(f0, -1, mod)
    want = [inv0]
    for k in range(1, n):
        want.append(-inv0 * sum(f[i] * want[k - i]
                                for i in range(1, min(k, len(f) - 1) + 1)))
        if mod is not None:
            want[-1] %= mod
    assert _intpoly.inverse(f, n, mod) == want


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
            assert _w_coefficients(E, deg)[0] == reference_w(E, deg)[0]
        assert (_w_coefficients(E, 61, mod=p ** 7)[0]
                == reference_w(E, 61, p ** 7)[0])


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


def test_w_second_output_is_the_log_derivative():
    # 1/Phi'(w) = 1/G_w(t, w(t)) against the defining fraction of log'
    for p, a in LOG_CURVES:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        for deg in (0, 1, 2, 3, 4, 5, 60):
            assert _w_coefficients(E, deg)[1] == reference_dlog(E, deg), (a, deg)
        assert _w_coefficients(E, 61, mod=p ** 7)[1] == reference_dlog(E, 61, p ** 7)


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


# -- coefficient maps ---------------------------------------------------------


def claims(f: TruncatedSeries):
    return {e: (c.unit, c.val, c.rel) for e, c in f.coeffs.items()}, f.absprec


def with_zeros(F: FormalGroupLaw) -> FormalGroupLaw:
    """F with O(p^3) zeros in its law and its log, both series then bounded
    by O(p^(N+1)); the degree-8 zero of the law scales to O(p^10) and
    leaves."""
    ctx, zero = F.ctx, PadicRational.zero(F.ctx, 3)
    law = TruncatedSeries(ctx, F.law.vars,
                          {**F.law.coeffs, (2, 1): zero, (5, 3): zero}, ctx.N + 1)
    log = TruncatedSeries(ctx, F.log.vars, {**F.log.coeffs, (4,): zero}, ctx.N + 1)
    return FormalGroupLaw.from_kernel_law(ctx, law, log)


def coefficient_map_group(kind: str, ctx: Context):
    if kind == "Ga":
        return FormalGroupLaw.additive(ctx)
    if kind == "Gm":
        return FormalGroupLaw.multiplicative(ctx)
    if kind == "zeros":
        return with_zeros(FormalGroupLaw.multiplicative(ctx))
    a = (0, 0, 0, 1, 1) if kind == "short" else (1, 2, 3, 4, 1)
    return formal_group_from_curve(WeierstrassCurve(*a, ctx))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", ["Ga", "Gm", "short", "long", "zeros"])
def test_coefficient_maps_match_the_routes_they_replaced(kind, p):
    # N^1's law and Psi_1 by p-scaling, the chord of the elliptic law as a
    # table, and ghost_series on ghost_map, against the composes and loops
    # they replaced: the same (unit, val, rel) and series absprec
    ctx = Context(p=p, N=8, M=2 * p + 4)
    F = coefficient_map_group(kind, ctx)
    N1 = n1_group(F)
    assert claims(N1.law) == claims(reference_kernel_law(F, 1)[0].rename(N1.law.vars))
    assert claims(N1.log) == claims(reference_psi1(F, "t"))
    assert claims(psi1_series(F)) == claims(reference_psi1(F))
    if F.curve is not None:
        assert ([claims(f) for f in _chord(F.curve)]
                == [claims(f) for f in reference_chord_slope(F.curve)])
    xs = ("x0", "x1", "x2", "x3")
    for i in range(4):
        assert (claims(ghost_series(ctx, xs + ("y0",), xs, i))
                == claims(reference_ghost_series(ctx, xs + ("y0",), xs, i)))


def test_ghost_series_rejects_a_name_outside_its_variables():
    # such a name is an error, not a coordinate that reads as a constant
    with pytest.raises(ValueError):
        ghost_series(Context(p=5, N=8, M=12), ("x0", "x1"), ("x0", "z1"), 1)


# -- evaluation ----------------------------------------------------------------


@st.composite
def series_and_point(draw):
    # the point's coordinates include O(p^w) zeros, negative valuations
    # and relative precisions down to 1
    ctx, variables = draw(context_and_variables())
    f = draw(series(ctx, variables))
    return f, {name: draw(coefficient(ctx)) for name in variables}


def fixed_series_and_point(absprec, x_is_zero):
    """An O(5^3) zero and a negative valuation among the coefficients; x an
    O(5^2) zero or of valuation -1, y known to one digit."""
    ctx = Context(p=5, N=6, M=6)
    f = TruncatedSeries(ctx, ("x", "y"), {
        (1, 0): PadicRational.zero(ctx, 3), (0, 2): PadicRational(ctx, 7, -2, 5),
        (2, 1): PadicRational(ctx, 3, 0, 6), (0, 0): PadicRational(ctx, 4, 1, 2)},
        absprec)
    x = PadicRational.zero(ctx, 2) if x_is_zero else PadicRational(ctx, 11, -1, 3)
    return f, {"x": x, "y": PadicRational(ctx, 2, 1, 1)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(series_and_point())
@example(fixed_series_and_point(None, True))
@example(fixed_series_and_point(4, True))
@example(fixed_series_and_point(None, False))
@example(fixed_series_and_point(4, False))
def test_evaluate_matches_per_term_loop(args):
    f, point = args
    assert triples([f.evaluate(point)]) == triples([reference_evaluate(f, point)])


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


def test_canonical_lift_test_names_N_for_a_short_zero(monkeypatch):
    # y^2 = x^3 - x is CL; cut both j-invariants to 4 digits, so j - j'
    # is zero to fewer than N - 3 = 5 digits and decides nothing
    real = canonical.j_invariant

    def short(A, B, ctx):
        return real(A, B, ctx) + PadicRational.zero(ctx, 4)

    monkeypatch.setattr(canonical, "j_invariant", short)
    E = WeierstrassCurve(0, 0, 0, -1, 0, Context(p=5, N=8, M=12))
    with pytest.raises(PrecisionExhausted, match="N = 8"):
        canonical_lift_test(E)
