"""Differential tests: the integer kernels against the loops they replaced.

The reference implementations below are the straightforward versions: the
per-pair PadicRational product loop of TruncatedSeries (and repeated
squaring on it for powers), composition on PadicRational series by
Horner steps (reference_compose) and as a sum of products
(reference_sum_of_products), its per-term PadicRational evaluation loop
and the integer evaluation that reads every term,
the one-degree-at-a-time reversion loop, the O(deg^2) coefficient
recurrences for w(t) and the elliptic logarithm, the PadicRational
division (-1)^(k+1)/k for the log of G_m, and the kernel log projection
composed on its own from the restricted ghost polynomial.  The fast
versions must
agree with them bit for bit: the same monomials in the same order, the
same (unit, val, rel, ctx.N) per coefficient and the same series absprec.
The compose's sum-of-products route agrees bit for bit with
reference_sum_of_products, and the PadicRational Horner is the reference
for its multinomial route.  A ghost level G(w_i(b_1), ...), i >= 1,
which the compose expands, below the cap p^i <= M or above it, has
Horner's series absprec, agrees with it on every key to the lesser of
the two claims, and claims no less; on the benchmark groups' levels it
has Horner's keys, in Horner's order, and so has f* Psi_1.  The
expansion's claims hold for every series within its input's claims,
ghost polynomials or any other arguments of its shape: the inputs lifted
within them and composed by Horner agree with every key to its claim.
So does the compose's series absprec, also at arguments of negative
valuation: the absent monomials move by multiples of p^absprec.  compose
expands exactly when its arguments have the shape.
The coefficient maps agree with the composes and loops they replaced in
(unit, val, rel) and series absprec, in any monomial order: the ghost
polynomial by its monomial loop, N^1's law and Psi_1 by composing with
p*t, and the chord slope of the elliptic law by its products of powers.
The elliptic law agrees with its chord formulas on PadicRational series
(reference_law), and set_zero with the loop over terms, key for key and
in order, in (unit, val, rel) and series absprec.
Newton reversion agrees with the loop where the loop has a coefficient,
and keeps the O(p^w) zeros that the loop leaves out; on an input without
a series absprec it agrees with the Newton step that inverts f'(g), two
composes and a series inverse a step, in series absprec and on every key
to the lesser of the two claims, and claims no less.  The series inverse
on its Newton schedule agrees with the doubling loop it replaced in
(unit, val, rel) and series absprec on a univariate input without a
series absprec, in any monomial order.  The kernel log
projection read from the log-projection table may claim a lower series
absprec than its reference.  The lateral Frobenius pullback f* by
composition is the reference for the ghost index shift of
arithjet.characters.f_star, which must agree with it to the compose's
claim.  The character solver's rows, the x0^j coefficients of the log
projections read from the univariate log, give the Smith exponents of the
reference's rows: every monomial of the multivariate log projections to
degree M, and the deep x0 tower.  Each log coefficient b_j = P_(j-1)/j,
one validating PadicRational, agrees in (unit, val, rel) with the two
values multiplied that it replaced, and with +-u^(-1) over p^v for G_m.
kernel_lattice and lattice_exponents agree with their loops with the
clearing step written out: the same bases and (exponent, column) lists.
solve_padic agrees with full-row Gauss-Jordan elimination in the
(unit, val, rel) of every x and in the residual, or raises alike.
"""

import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithjet import _intpoly, canonical, jet
from arithjet.canonical import canonical_lift_test, short_model
from arithjet.context import Context
from arithjet.characters import (
    analyze_group, deep_log_coefficients, deep_tower_degree, log_projections,
    phi_star, solve_character_lattice,
)
from arithjet.formalgroup import (
    ELLIPTIC, MULTIPLICATIVE, FormalGroupLaw, WeierstrassCurve, _chord,
    _w_coefficients, elliptic_log_coefficients, formal_group_from_curve,
    multiplicative_log_coefficients,
)
from arithjet.errors import (
    ArithJetError, IdentityViolation, NonzeroConstantTerm, PrecisionExhausted,
    VariableMismatch,
)
from arithjet.ghost import ghost_map, ghost_solve
from arithjet.linalg import kernel_lattice, lattice_exponents, solve_padic
from arithjet.jet import (
    ghost_series, jet_group_law, jet_variables, lateral_frobenius_map,
    n1_group, psi1_series,
)
from arithjet.padic import PadicRational, vp
from arithjet import characters as characters_module, series as series_module
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


def reference_term_evaluate(f: TruncatedSeries, values: dict) -> PadicRational:
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


def reference_evaluate(f: TruncatedSeries, values: dict) -> PadicRational:
    """f at a point on integers from every term: each term's unit product
    and valuation, its claim lowering A, the exact sum reduced once mod
    p^A; no term skipped."""
    ctx, p = f.ctx, f.ctx.p
    A = 10 ** 9 if f.absprec is None else f.absprec
    xs = [values[name] for name in f.vars]
    terms = []
    for e, c in f.coeffs.items():
        u, v, rel = c.unit, c.val, c.rel
        for x, k in zip(xs, e):
            if k:
                v += k * x.val
                if u:
                    u *= pow(x.unit, k, p ** x.rel)
                    rel = min(rel, x.rel)
        if u:
            terms.append((u, v))
            A = min(A, v + rel)
        else:
            A = min(A, v)
    s = min((v for _, v in terms), default=A)
    total = sum(u * p ** (v - s) for u, v in terms)
    k = min(s, A)  # a zero below every unit term can put A below s
    return PadicRational(ctx, total * p ** (s - k), k, A - k)


def reference_compose(f: TruncatedSeries, args: list, cap=None):
    """f(args) by recursive Horner on PadicRational series: each step
    acc * arg^k + g a reference_mul and a series sum, each power arg^k
    (k >= 2) by reference_pow, once per call, or the zero with arg's
    absprec when every term of arg^k passes the cap; with a series
    absprec X, the result claims at most X + v, v the least
    min_valuation() of the arguments (X + cap * v when v < 0), and drops
    the zeros that covers."""
    if len(args) != len(f.vars):
        raise VariableMismatch("one argument per variable required")
    tgt = args[0].vars
    for a in args:
        if a.vars != tgt:
            raise VariableMismatch("composition arguments on mixed variables")
        if not a.constant_term().is_zero():
            raise NonzeroConstantTerm("composition argument has constant term")
    tctx = args[0].ctx
    cap = tctx.M if cap is None else min(cap, tctx.M)
    powers = {}

    def power(i, k):
        if k == 1:
            return args[i]
        if (i, k) not in powers:
            md = args[i].min_degree()
            powers[(i, k)] = (
                TruncatedSeries.zero(tctx, tgt, args[i].absprec)
                if md is not _INF and md * k > cap
                else reference_pow(args[i], k, cap))
        return powers[(i, k)]

    def rec(g: TruncatedSeries, active):
        zero = TruncatedSeries.zero(tctx, tgt, g.absprec)
        if not g.coeffs:
            return zero
        used = next((i for i in reversed(active)
                     if any(e[i] for e in g.coeffs)), None)
        if used is None:
            c = g.get(tuple(0 for _ in g.vars))
            return TruncatedSeries.const(tctx, tgt, c) + zero
        groups: dict = {}
        for e, c in g.coeffs.items():
            groups.setdefault(e[used], {})[
                tuple(0 if j == used else x for j, x in enumerate(e))] = c
        rest = [i for i in active if i != used]
        acc = None
        for k in sorted(groups, reverse=True):
            gval = rec(TruncatedSeries(g.ctx, g.vars, groups[k], g.absprec), rest)
            acc = gval if acc is None else (
                reference_mul(acc, power(used, prev_k - k), cap) + gval)
            prev_k = k
        if prev_k > 0:
            acc = reference_mul(acc, power(used, prev_k), cap)
        return acc

    out = rec(f, list(range(len(f.vars))))
    v = min(a.min_valuation() for a in args)
    if v < 0:
        v *= cap
    if f.absprec is None or v is _INF:
        return out
    return TruncatedSeries(tctx, tgt, out.coeffs, _minp(out.absprec, f.absprec + v))


def reference_sum_of_products(f: TruncatedSeries, args: list, cap=None):
    """f(args) by its definition on PadicRational series: the sum over f's
    terms c t^e, in ascending key order, of c * prod args[j]^(e_j), each
    product a reference_mul in increasing j.  power(j, k), built once per
    call, is args[j] for k = 1, else the reference_mul of the highest
    power below k built so far and the power that completes it, else
    reference_pow, or the zero with args[j]'s absprec when every term of
    args[j]^k passes the cap.  The series absprec and the zeros it
    covers as in reference_compose."""
    if len(args) != len(f.vars):
        raise VariableMismatch("one argument per variable required")
    tgt = args[0].vars
    for a in args:
        if a.vars != tgt:
            raise VariableMismatch("composition arguments on mixed variables")
        if not a.constant_term().is_zero():
            raise NonzeroConstantTerm("composition argument has constant term")
    tctx = args[0].ctx
    cap = tctx.M if cap is None else min(cap, tctx.M)
    powers = [{} for _ in args]

    def power(j, k):
        built = powers[j]
        if k not in built:
            below = max((b for b in built if b < k), default=None)
            md = args[j].min_degree()
            if k == 1:
                built[k] = args[j]
            elif below is not None:
                built[k] = reference_mul(power(j, below), power(j, k - below), cap)
            elif md is not _INF and md * k > cap:
                built[k] = TruncatedSeries.zero(tctx, tgt, args[j].absprec)
            else:
                built[k] = reference_pow(args[j], k, cap)
        return built[k]

    out = TruncatedSeries.zero(tctx, tgt)
    for e, c in sorted(f.coeffs.items()):
        term = TruncatedSeries.const(tctx, tgt, c)
        for j, k in enumerate(e):
            if k:
                term = reference_mul(term, power(j, k), cap)
        out = out + term
    v = min(a.min_valuation() for a in args)
    if v < 0:
        v *= cap
    if f.absprec is None or v is _INF:
        return out
    return TruncatedSeries(tctx, tgt, out.coeffs, _minp(out.absprec, f.absprec + v))


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


def reference_newton_reversion(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse by Newton iteration with the slope inverted:
    g <- g - (f(g) - t) * f'(g)^(-1), two composes and one series inverse
    a step, the known degree doubled (capped at M) each step."""
    t = TruncatedSeries.variable(f.ctx, f.vars, f.vars[0])
    df = f.derivative()
    g = t.scale(f.linear_coefficient(f.vars[0]).inverse())
    n = 1
    while n < f.ctx.M:
        n = min(2 * n, f.ctx.M)
        err = f.truncate(n).compose([g], cap=n) - t
        slope = df.truncate(n - 1).compose([g], cap=n - 1)
        g = g - err.__mul__(slope.inverse(n - 1), n)
    return TruncatedSeries(f.ctx, f.vars, dict(sorted(g.coeffs.items())),
                           g.absprec)


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
    ctx = Context(E.ctx.p, E.ctx.N, deg)
    coeffs, _ = _w_coefficients(E, deg)
    return TruncatedSeries(ctx, ("t",),
                           {(k,): c for k, c in enumerate(coeffs) if c})


def effective_precision(f: TruncatedSeries):
    """The least absolute precision over f's stored coefficients and its
    series absprec; None for a series with neither."""
    precs = [c.absprec for c in f.coeffs.values()]
    if f.absprec is not None:
        precs.append(f.absprec)
    return min(precs, default=None)


def integrate(f: TruncatedSeries) -> TruncatedSeries:
    """The termwise antiderivative of a univariate series, with zero
    constant term: the t^k coefficient divided by k+1, precision tracked."""
    assert len(f.vars) == 1, f.vars
    coeffs = {(k + 1,): c / PadicRational.from_int(f.ctx, k + 1)
              for (k,), c in f.coeffs.items()}
    return TruncatedSeries(f.ctx, f.vars, coeffs, f.absprec)


def reference_series_log(E: WeierstrassCurve) -> TruncatedSeries:
    """The logarithm to degree M by series arithmetic: integrate
    P = (w - t w') / (w (-2 + a1 t + a3 w)), both parts divided by t^3."""
    ctx = E.ctx
    pad = Context(ctx.p, ctx.N, ctx.M + 4)
    w = w_series(E, ctx.M + 4)
    wq = TruncatedSeries(pad, ("t",), {(e - 3,): c for (e,), c in w.coeffs.items()})
    t = TruncatedSeries.variable(pad, ("t",), "t")
    num = wq.scale(-2) - t * wq.derivative()
    den = wq * (TruncatedSeries.const(pad, ("t",), -2) + t.scale(E.a1)
                + (t ** 3) * wq.scale(E.a3))
    log = integrate(num * den.inverse())
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
        ghosts.append(reference_compose(F.law, [
            reference_ghost_series(ctx, allv, names, i, start=1)
            for names in (xs, ys)]))
    return tuple(ghost_solve(ctx.p, ghosts, TruncatedSeries.shift)[1:])


def reference_psi1(F, var: str = "x1") -> TruncatedSeries:
    """Psi_1 = (1/p) log_G(p x): the log composed with p*x, shifted down."""
    t = TruncatedSeries.variable(F.ctx, (var,), var)
    return reference_compose(F.log, [t.shift(1)]).shift(-1)


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
    return reference_compose(w, [t1]), lam


def reference_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """1/f by the Newton steps of TruncatedSeries.inverse on reference_mul."""
    cap = f.ctx.M
    two = TruncatedSeries.const(f.ctx, f.vars, 2)
    g = TruncatedSeries.const(f.ctx, f.vars, f.constant_term().inverse())
    for n in _intpoly.newton_schedule(cap + 1, 1):
        g = reference_mul(g, two - reference_mul(f, g, n - 1), n - 1)
    return g


def reference_law(E: WeierstrassCurve) -> TruncatedSeries:
    """F(t1, t2) by the chord formulas on PadicRational series: w(t1)
    (in ascending powers, as _chord's table holds it) and the slope lam
    from reference_chord_slope, nu = w(t1) - lam t1, the
    third point t3 = -t1 - t2 - c2 / c3 with each power of lam formed
    anew (lam^3 by reference_pow), and for a long form the inverse
    -t / (1 - a1 t - a3 w(t)) at t3, with w(t3) = lam t3 + nu."""
    ctx = E.ctx
    w1, lam = reference_chord_slope(E)
    v = ("t1", "t2")
    w1 = TruncatedSeries(ctx, v, dict(sorted(w1.coeffs.items())))
    t1, t2 = (TruncatedSeries.variable(ctx, v, x) for x in v)
    one = TruncatedSeries.const(ctx, v, 1)
    nu = w1 - reference_mul(lam, t1)
    c3 = (one + lam.scale(E.a2) + reference_mul(lam, lam).scale(E.a4)
          + reference_pow(lam, 3).scale(E.a6))
    c2 = (lam.scale(E.a1) + nu.scale(E.a2) + reference_mul(lam, lam).scale(E.a3)
          + reference_mul(lam, nu).scale(2 * E.a4)
          + reference_mul(reference_mul(lam, lam), nu).scale(3 * E.a6))
    t3 = -t1 - t2 - reference_mul(c2, reference_inverse(c3))
    if E.a1 == 0 and E.a3 == 0:
        return -t3
    return reference_mul(-t3, reference_inverse(
        one - t3.scale(E.a1) - (reference_mul(lam, t3) + nu).scale(E.a3)))


def reference_kernel_log_projection(F, j: int, variables) -> TruncatedSeries:
    """Lbar_j = log_G(w_j(0, x1..xj)) composed on its own, from the ghost
    polynomial with x0 = 0 (start=1), in the given kernel variables."""
    variables = tuple(variables)
    w = reference_ghost_series(F.ctx, variables, variables[:j], j, start=1)
    return reference_compose(F.log, [w])


def reference_restrict_lateral(chi: TruncatedSeries) -> TruncatedSeries:
    """f* chi by Horner composition with the lateral Frobenius series
    f : N^(m+1) -> N^m, m = len(chi.vars): the coefficientwise route that
    the ghost index shift replaced for every f* but f* Psi_1."""
    return reference_compose(chi, lateral_frobenius_map(chi.ctx, len(chi.vars) + 1))


def reference_monomial_rows(F, n: int) -> tuple[list[list[int]], int, int]:
    """The integrality rows of the order-n character solve built from the
    multivariate log projections: one row per monomial of the u-scaled
    columns L_i / p^i to total degree M, then the pure-x0 rows
    [x0^j] L_i / p^i = b_(j/p^i) / p^i for p | j beyond M, read from the
    deep log.  Returns (rows, d, K): each entry lifted as p^d times its
    value mod p^K, d the deepest denominator and K = min(d + 4, d plus the
    fewest digits any entry or column claims)."""
    ctx, p = F.ctx, F.ctx.p
    cols = [L.shift(-i) for i, L in enumerate(log_projections(F, n))]
    budget: dict = {}
    minval, avail = 0, _INF
    for i, col in enumerate(cols):
        for e, c in col.coeffs.items():
            budget.setdefault(e, [None] * (n + 1))[i] = c
        mv, ap = col.min_valuation(), effective_precision(col)
        if mv is not _INF:
            minval = min(minval, int(mv))
        if ap is not None:
            avail = min(avail, ap)
    rows = list(budget.values())
    if F.kind in (ELLIPTIC, MULTIPLICATIVE):
        deg = deep_tower_degree(F)
        bs = deep_log_coefficients(F)
        for j in range(ctx.M + 1, deg + 1):
            if j % p:
                continue
            row = [bs[j // p ** i].shift(-i) if j % p ** i == 0 else None
                   for i in range(n + 1)]
            if all(x is None or x.is_zero() for x in row):
                continue
            rows.append(row)
            for x in row:
                if x is not None and not x.is_zero():
                    minval = min(minval, x.valuation())
                    avail = min(avail, x.absprec)
    d = -minval
    K = int(min(d + 4, avail + d))
    mod = p ** K
    return ([[0 if x is None or x.is_zero() else (x.unit * p ** (x.val + d)) % mod
              for x in row] for row in rows], d, K)


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


def revalidated(f: TruncatedSeries) -> TruncatedSeries:
    """f's coefficients and absprec through the validating constructor."""
    return TruncatedSeries(f.ctx, f.vars, dict(f.coeffs), f.absprec)


def test_kernel_outputs_drop_the_zeros_the_constructor_drops():
    # f - f' and the x0 x1 term of (a x0 + b x1)(a' x0 - b' x1), with
    # a', b' the values of a, b at another precision, cancel to O(p^w)
    # zeros; the series absprec X puts them below, at and above the
    # output's absprec, or there is none
    seen = set()
    xy = ("x0", "x1")
    for p in (3, 5, 7):
        ctx = Context(p=p, N=6, M=4)
        for rel1, rel2 in ((1, 3), (2, 2), (4, 1)):
            a, b = PadicRational(ctx, 2, 0, rel1), PadicRational(ctx, 4, 1, rel1)
            a2, b2 = PadicRational(ctx, 2, 0, rel2), PadicRational(ctx, 4, 1, rel2)
            w = min(rel1, rel2)
            for X in (None, *range(-1, 7)):
                f = TruncatedSeries(ctx, xy, {(1, 0): a, (0, 1): b}, X)
                for out, ws in (
                        (f + TruncatedSeries(ctx, xy, {(1, 0): -a2, (0, 1): -b2}, X),
                         (w, w + 1)),
                        (f * TruncatedSeries(ctx, xy, {(1, 0): a2, (0, 1): -b2}, X),
                         (w + 1,))):
                    assert shape(out) == shape(revalidated(out))
                    for wz in ws:
                        seen.add("none" if out.absprec is None else
                                 "below" if wz < out.absprec else
                                 "at" if wz == out.absprec else "above")
    assert seen == {"none", "below", "at", "above"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_pair())
def test_sums_and_products_keep_the_constructors_zeros(args):
    f, g, cap = args
    for out in (f + g, f - f + g, f.__mul__(g, cap), (f - g) * (f + g)):
        assert shape(out) == shape(revalidated(out))


def reference_pow(f: TruncatedSeries, n: int, cap=None):
    """f^n (n >= 2) by repeated squaring on reference_mul."""
    r, b = None, f
    while n:
        if n & 1:
            r = b if r is None else reference_mul(r, b, cap)
        n >>= 1
        if n:
            b = reference_mul(b, b, cap)
    return r


@st.composite
def monomial_power(draw):
    """c x^e with no series absprec, n >= 2 and a cap near n |e|."""
    ctx, variables = draw(context_and_variables())
    e = draw(st.tuples(*[st.integers(0, 3)] * len(variables)))
    n = draw(st.integers(2, 5))
    cap = draw(st.integers(max(n * sum(e) - 2, 0), n * sum(e) + 2))
    ctx = Context(ctx.p, ctx.N, max(ctx.M, cap, sum(e)))
    f = TruncatedSeries(ctx, variables, {e: draw(coefficient(ctx))})
    return f, n, draw(st.sampled_from([None, cap]))


def fixed_monomial_power(c, n, cap):
    ctx = Context(p=5, N=6, M=12)
    f = TruncatedSeries(ctx, ("x", "y"), {(1, 2): c(ctx)})
    return f, n, cap


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(monomial_power())
@example(fixed_monomial_power(lambda ctx: PadicRational.zero(ctx, 3), 3, 9))
@example(fixed_monomial_power(lambda ctx: PadicRational(ctx, 7, -2, 4), 3, 9))
@example(fixed_monomial_power(lambda ctx: PadicRational(ctx, 7, -2, 4), 4, 11))
@example(fixed_monomial_power(lambda ctx: PadicRational.zero(ctx, -1), 4, 12))
def test_monomial_power_matches_repeated_squaring(args):
    # one stored term and no series absprec: the power is c^n x^(n e)
    f, n, cap = args
    assert shape(f.__pow__(n, cap)) == shape(reference_pow(f, n, cap))


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
# degrees at the edges of the Newton schedule of _w_coefficients: lengths
# deg + 1 = 7, 8 take one step from 4 and 9, 10 take two; 63..66 and
# 128, 129 lie on either side of a power of two
W_DEGREES = (0, 2, 3, 4, 5, 6, 7, 8, 9, 60, 62, 63, 64, 65, 127, 128)


def test_newton_schedule_halves_down_from_the_target():
    assert _intpoly.newton_schedule(66, 1) == [2, 3, 5, 9, 17, 33, 66]
    assert _intpoly.newton_schedule(3126, 4) == [
        7, 13, 25, 49, 98, 196, 391, 782, 1563, 3126]
    assert _intpoly.newton_schedule(4, 4) == []
    for target in range(2, 200):
        steps = _intpoly.newton_schedule(target, 1)
        assert steps[-1] == target
        # each step at most doubles what the one before it knew
        assert all(b <= 2 * a for a, b in zip([1] + steps, steps))


def test_exact_w_matches_recurrence():
    ctx5 = Context(p=5, N=6, M=12)
    # the short model canonical_lift_test expands, with large coefficients
    A, B = short_model(WeierstrassCurve(*LONG_CURVES[0][1], ctx=ctx5))
    for p, a in LONG_CURVES + [(5, (0, 0, 0, 1, 1)), (5, (0, 0, 0, A, B))]:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        for deg in W_DEGREES:
            assert _w_coefficients(E, deg)[0] == reference_w(E, deg)[0]
        assert (_w_coefficients(E, 61, mod=p ** 7)[0]
                == reference_w(E, 61, p ** 7)[0])


def test_log_matches_recurrence_on_long_form_curves():
    for p, a in LONG_CURVES:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        digits = 6 + 3
        got = elliptic_log_coefficients(E, range(1, 301), digits=digits)
        assert triples(got.values()) == triples(reference_log(E, 300, digits))
        assert {c.ctx.N for c in got.values()} == {6}


# short and long forms with good reduction at p
LOG_CURVES = [(5, (0, 0, 0, 1, 1)), (5, (0, 0, 0, -1, 0)), (7, (0, 0, 0, 1, 1)),
              (7, (0, 0, 0, 2, 3))] + LONG_CURVES


def test_w_second_output_is_the_log_derivative():
    # 1/Phi'(w) = 1/G_w(t, w(t)) against the defining fraction of log'
    for p, a in LOG_CURVES:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        for deg in (1,) + W_DEGREES:
            assert _w_coefficients(E, deg)[1] == reference_dlog(E, deg), (a, deg)
        assert _w_coefficients(E, 61, mod=p ** 7)[1] == reference_dlog(E, 61, p ** 7)


def test_log_coefficients_hold_their_claimed_digits():
    # against the exact rational log: every b_j must equal its claim mod
    # p^absprec, including the digits beyond N that digits > N buys
    for p, a in LOG_CURVES:
        E = WeierstrassCurve(*a, ctx=Context(p=p, N=6, M=12))
        exact = exact_log(E, 120)
        for deg in (30, 120):
            got = elliptic_log_coefficients(E, range(1, deg + 1))
            for j, (c, x) in enumerate(zip(got.values(), exact), 1):
                assert vp_fraction(x - value(c), p) >= c.absprec, (p, a, deg, j, c)


def reference_multiplicative_log(ctx: Context, deg: int) -> list[PadicRational]:
    """[b_1..b_deg] of log(1 + t) by PadicRational division, (-1)^(k+1)/k."""
    return [PadicRational.from_int(ctx, (-1) ** (k + 1))
            / PadicRational.from_int(ctx, k) for k in range(1, deg + 1)]


@pytest.mark.parametrize("p, kind, a4, a6", [
    (5, ELLIPTIC, 1, 1), (5, ELLIPTIC, -1, 0), (5, MULTIPLICATIVE, 0, 0),
    (7, ELLIPTIC, 1, 1)])
def test_deep_log_is_built_at_the_indices_the_solver_reads(p, kind, a4, a6):
    # the index set is p | k or k <= deg/p, each b_k as in the full list;
    # any other index is not there to read
    ctx = Context(p=p, N=8 if p == 5 else 6, M=12)
    if kind == MULTIPLICATIVE:
        F = FormalGroupLaw.multiplicative(ctx)
    else:
        F = formal_group_from_curve(WeierstrassCurve(0, 0, 0, a4, a6, ctx))
    deg = deep_tower_degree(F)
    bs = deep_log_coefficients(F)
    want = {k for k in range(1, deg + 1) if k % p == 0 or k <= deg // p}
    assert set(bs) == want
    assert len(want) == {5: 1125, 7: 637}[p]
    if kind == MULTIPLICATIVE:
        full = reference_multiplicative_log(ctx, deg)
    else:
        full = list(elliptic_log_coefficients(F.curve, range(1, deg + 1)).values())
    assert triples(bs[k] for k in sorted(want)) == triples(full[k - 1]
                                                           for k in sorted(want))
    with pytest.raises(KeyError):
        bs[deg // p + 1]
    assert deep_log_coefficients(F) is bs  # kept in F.deep_log_cache


def reference_log_coefficients(ctx: Context, P: list[int], indices,
                               digits: int) -> dict[int, PadicRational]:
    """{j: b_j} as two values multiplied: P_(j-1) over p^v, times u^(-1)
    when that is nonzero, for j = u p^v."""
    mod = ctx.pk(digits)
    out = {}
    for j in indices:
        v = vp(j, ctx.p)
        b = PadicRational(ctx, P[j - 1], -v, digits)
        if b.unit:
            b = b * PadicRational(ctx, pow(j // ctx.pk(v), -1, mod), 0, digits)
        out[j] = b
    return out


def reference_multiplicative_log_coefficients(ctx: Context, indices):
    """{k: b_k} of log(1 + t), +-u^(-1) mod p^N over p^v for k = u p^v."""
    mod = ctx.pk(ctx.N)
    out = {}
    for k in indices:
        v = vp(k, ctx.p)
        u = pow(k // ctx.pk(v), -1, mod)
        out[k] = PadicRational(ctx, u if k % 2 else -u, -v, ctx.N)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_multiplicative_log_matches_the_unit_inverse_formula(p):
    ctx = Context(p=p, N=8, M=12)
    got = multiplicative_log_coefficients(ctx, range(1, 3126))
    want = reference_multiplicative_log_coefficients(ctx, range(1, 3126))
    assert list(got) == list(want)
    assert triples(got.values()) == triples(want.values())


@pytest.mark.parametrize("p, a, deg, extra", [
    (5, (0, 0, 0, 1, 1), 3125, None), (5, (0, 0, 0, -1, 0), 400, 12),
    (7, (0, 0, 0, 2, 3), 343, None),
    (LONG_CURVES[0][0], LONG_CURVES[0][1], 300, None),
    (LONG_CURVES[1][0], LONG_CURVES[1][1], 300, 12)])
def test_elliptic_log_matches_the_two_value_product(p, a, deg, extra):
    # default digits are N plus the p-power denominators up to deg
    ctx = Context(p=p, N=8, M=12)
    E = WeierstrassCurve(*a, ctx=ctx)
    digits = ctx.N + (extra if extra else next(j for j in range(deg + 1)
                                               if p ** j >= deg))
    got = elliptic_log_coefficients(E, range(1, deg + 1),
                                    None if extra is None else digits)
    P = _w_coefficients(E, deg - 1, mod=ctx.pk(digits))[1]
    want = reference_log_coefficients(ctx, P, range(1, deg + 1), digits)
    assert list(got) == list(want)
    assert triples(got.values()) == triples(want.values())


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


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", ["short", "long"])
def test_law_matches_the_chord_formulas(kind, p):
    # the elliptic law, whose chord products share one square of the
    # slope, against the chord formulas on PadicRational series: the same
    # keys in the same order, (unit, val, rel) and series absprec
    F = coefficient_map_group(kind, Context(p=p, N=8, M=2 * p + 4))
    want = reference_law(F.curve)
    assert list(F.law.coeffs) == list(want.coeffs)
    assert claims(F.law) == claims(want)


def reference_set_zero(f: TruncatedSeries, names) -> TruncatedSeries:
    """f with 0 for the named variables, by the loop over its terms."""
    keep = [i for i, v in enumerate(f.vars) if v not in names]
    coeffs = {}
    for e, c in f.coeffs.items():
        if not any(k for v, k in zip(f.vars, e) if v in names):
            coeffs[tuple(e[i] for i in keep)] = c
    return TruncatedSeries(f.ctx, tuple(f.vars[i] for i in keep), coeffs,
                           f.absprec)


def test_set_zero_matches_the_term_loop():
    # a 6-variable J^2 law component restricted by index getters: the
    # same keys in the same order, (unit, val, rel) and series absprec as
    # the loop, also with no name, one name, one variable kept or none
    ctx = Context(p=5, N=8, M=12)
    c = jet_group_law(formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx)),
                      2).law[1]
    xs, ys = jet_variables(2)
    for names in (["x0", "y0"], ys, ["x1"], [], xs + ys[:2], xs + ys):
        got, want = c.set_zero(names), reference_set_zero(c, names)
        assert got.vars == want.vars, names
        assert list(got.coeffs) == list(want.coeffs), names
        assert claims(got) == claims(want), names


def test_ghost_series_rejects_a_name_outside_its_variables():
    # such a name is an error, not a coordinate that reads as a constant
    with pytest.raises(VariableMismatch, match="'z1'"):
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


def sum_and_point(cancels):
    """At p = 5: (1 + O(5^2)) + x at x = -1 known to 6 digits sums to
    5^6, which cancels mod 5^2 to O(5^2); 3 * 5^-1 x + O(5^-1) y at
    x = y = 1 has its least unit term at the claim, s = A = -1, and is
    O(5^-1)."""
    ctx = Context(p=5, N=6, M=6)
    one = PadicRational(ctx, 1, 0, 6)
    if cancels:
        return (TruncatedSeries(ctx, ("x",), {(0,): PadicRational(ctx, 1, 0, 2),
                                              (1,): one}),
                {"x": PadicRational(ctx, -1, 0, 6)})
    return (TruncatedSeries(ctx, ("x", "y"), {(1, 0): PadicRational(ctx, 3, -1, 4),
                                              (0, 1): PadicRational.zero(ctx, -1)}),
            {"x": one, "y": one})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(series_and_point())
@example(sum_and_point(True))
@example(sum_and_point(False))
@example(fixed_series_and_point(None, True))
@example(fixed_series_and_point(4, True))
@example(fixed_series_and_point(None, False))
@example(fixed_series_and_point(4, False))
def test_evaluate_matches_per_term_loop(args):
    f, point = args
    assert triples([f.evaluate(point)]) == triples([reference_term_evaluate(f, point)])


@st.composite
def series_and_nilpotent_point(draw):
    """A series and a point whose coordinates are O(p^w) zeros (w >= 0) or
    have valuation 0 to 3, so that high-degree terms pass the claim and
    evaluate stops before them."""
    ctx, variables = draw(context_and_variables())
    f = draw(series(ctx, variables))
    point = {}
    for name in variables:
        val = draw(st.integers(0, 3))
        point[name] = (PadicRational.zero(ctx, val) if draw(st.integers(0, 4)) == 0
                       else PadicRational(ctx, draw(st.integers(1, ctx.p ** 8)),
                                          val, draw(st.integers(1, 8))))
    return f, point


def dense_series_at_p(absprec):
    """1 + t + ... + t^9 at t = 5 known to 4 digits: with no series absprec
    the claim is 4, so every term from t^4 on is 0 mod 5^4 and is not
    read."""
    ctx = Context(p=5, N=4, M=9)
    f = TruncatedSeries(ctx, ("t",), {(k,): 1 for k in range(10)}, absprec)
    return f, {"t": PadicRational(ctx, 1, 1, 4)}


def pruning_series_and_point():
    """x^3 + y^3 + 2 * 5^-2 x^5 + x^2 y^2 + 3 * 5^-1 x^6 + O(5^4) at x of
    valuation 1 and y of valuation 2.  The degree bound c.val + |e| * 1
    drops x^2 y^2 and 5^-1 x^6 (bounds 4 and 5) before sorting; x^3 and
    5^-2 x^5 (valuation 3) are read, and a bound from the largest
    coordinate valuation (6 for x^3) or one that left out the negative
    c.val (5 for 5^-2 x^5) would drop them."""
    ctx = Context(p=5, N=6, M=6)
    f = TruncatedSeries(ctx, ("x", "y"), {
        (3, 0): 1, (0, 3): 1, (5, 0): PadicRational(ctx, 2, -2, 6), (2, 2): 1,
        (6, 0): PadicRational(ctx, 3, -1, 6)}, 4)
    return f, {"x": PadicRational(ctx, 7, 1, 6), "y": PadicRational(ctx, 3, 2, 6)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(series_and_point(), series_and_nilpotent_point()))
@example(pruning_series_and_point())
@example(dense_series_at_p(None))
@example(dense_series_at_p(2))
@example(sum_and_point(True))
@example(sum_and_point(False))
@example(fixed_series_and_point(None, True))
@example(fixed_series_and_point(4, False))
def test_evaluate_matches_the_all_terms_evaluation(args):
    # the degree bound drops terms past the series absprec, the skip rule
    # reads the rest in increasing valuation and stops at the claim;
    # reading every term gives the same (unit, val, rel)
    f, point = args
    assert triples([f.evaluate(point)]) == triples([reference_evaluate(f, point)])


# -- composition and reversion ------------------------------------------------


def test_compose_matches_sum_of_products():
    # exponent gaps >= 2 in both variables, so powers are built from lower ones
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


def outcome(run):
    """shape() of run(), or the type of the ArithJetError it raises."""
    try:
        return shape(run())
    except ArithJetError as e:
        return type(e)


@st.composite
def spaced_series(draw, ctx, variables, gap, max_terms, constant=True):
    """Up to max_terms terms whose exponents are mostly multiples of gap,
    O(p^w) zeros and negative valuations among them, with absprec None
    or set; a constant term only if `constant`."""
    exponent = st.one_of(st.integers(0, ctx.M // gap).map(lambda k: k * gap),
                         st.integers(0, ctx.M))
    keys = draw(st.lists(st.tuples(*[exponent] * len(variables)).filter(
        lambda e: sum(e) <= ctx.M and (constant or sum(e) > 0)),
        max_size=max_terms, unique=True))
    coeffs = {e: draw(coefficient(ctx)) for e in keys}
    absprec = draw(st.one_of(st.none(), st.integers(-2, 12)))
    return TruncatedSeries(ctx, variables, coeffs, absprec)


@st.composite
def compose_case(draw):
    """f on 1-3 variables with exponent gaps of 2-3, so that the products
    take powers built from lower ones, and 1-3 variable arguments up to
    degree M, so that a cap below
    M leaves argument terms above it; now and then an argument has a
    constant term, which compose refuses."""
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=draw(st.integers(2, 8)),
                  M=draw(st.integers(2, 9)))
    fv = tuple(f"x{i}" for i in range(draw(st.integers(1, 3))))
    tv = tuple(f"t{i}" for i in range(draw(st.integers(1, 3))))
    f = draw(spaced_series(ctx, fv, draw(st.integers(2, 3)), 12))
    args = [draw(spaced_series(ctx, tv, 1, 5, constant=draw(
        st.integers(0, 19)) == 0)) for _ in fv]
    return f, args, draw(st.one_of(st.none(), st.integers(0, ctx.M)))


def fixed_compose_case():
    # cap 3 < M: the arguments' degree-4 and -5 terms lie above it, and
    # still count in the products' claims and operand order
    ctx = Context(p=5, N=6, M=8)
    v = ("s", "t")
    f = TruncatedSeries(ctx, ("x", "y"), {
        (0, 0): 3, (2, 0): PadicRational(ctx, 7, -1, 3), (0, 2): 2,
        (2, 2): PadicRational.zero(ctx, 1), (3, 0): 4}, 5)
    a = TruncatedSeries(ctx, v, {(1, 0): 1, (0, 4): PadicRational(ctx, 2, -3, 2),
                                 (5, 0): PadicRational.zero(ctx, -2)})
    b = TruncatedSeries(ctx, v, {(0, 1): PadicRational(ctx, 3, 1, 4),
                                 (1, 1): 1, (4, 0): 6}, 3)
    return f, [a, b], 3


def fixed_operand_order_case():
    # 2x + 8x^2 at s t^3 + ..., cap 3: a has three terms stored, one
    # above the cap, which still counts in the operand order of 8 * a and
    # of a * a
    ctx = Context(p=5, N=6, M=4)
    v = ("s", "t")
    f = TruncatedSeries(ctx, ("x", "y"), {(1, 0): 2, (2, 0): 8})
    a = TruncatedSeries(ctx, v, {(1, 3): 7, (3, 0): 9, (1, 0): 3})
    b = TruncatedSeries(ctx, v, {(0, 1): 1, (1, 1): 2})
    return f, [a, b], 3


def fixed_unused_variable_case():
    # O(3^0) x1^2 + O(3^1) never uses x0, so no product reads the
    # argument O(3^0) of x0; the absent x0^k terms O(3^1) still compose to
    # O(3^1), so the claim is 1 + 0, not exact
    ctx = Context(p=3, N=4, M=6)
    f = TruncatedSeries(ctx, ("x0", "x1"),
                        {(0, 2): PadicRational.zero(ctx, 0)}, 1)
    v = ("t",)
    return f, [TruncatedSeries.zero(ctx, v, 0), TruncatedSeries.zero(ctx, v)], None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(compose_case())
@example(fixed_compose_case())
@example(fixed_operand_order_case())
@example(fixed_unused_variable_case())
def test_compose_matches_the_padic_sum_of_products(args):
    # the sum of products on int terms (the route compose takes when the
    # arguments do not have the expansion's shape) against the sum of
    # products on PadicRational series: the same monomials in the same
    # order, triples, absprec and errors
    f, fargs, cap = args
    with mock.patch.object(series_module, "_power_rows", lambda args: None):
        got = outcome(lambda: f.compose(fargs, cap))
    assert got == outcome(lambda: reference_sum_of_products(f, fargs, cap))


def test_compose_claims_no_more_than_the_absent_terms_allow():
    # 7 t^2 + O(5^3) at w_1 = x0^5 + 5 x1, (p, N, M) = (5, 8, 8): the
    # terms of w_1^2 within the cap have valuation 1, so a claim read off
    # 7 w_1^2 alone would be 4; but 7 t^2 + 125 t, within
    # G's claims, has the x0^5 coefficient 5^3
    ctx = Context(p=5, N=8, M=8)
    xs = ("x0", "x1")
    w1 = [ghost_series(ctx, xs, xs, 1)]
    assert TruncatedSeries(ctx, ("t",), {(2,): 7}, 3).compose(w1).absprec == 3
    moved = TruncatedSeries(ctx, ("t",), {(2,): 7, (1,): 125}, 3).compose(w1)
    assert moved.get((5, 0)).val == 3
    f, args, _ = fixed_unused_variable_case()
    assert f.compose(args).absprec == 1


def test_compose_claims_cap_times_a_negative_argument_valuation():
    # t + O(5^3) at 5^-1 s, (p, N, M) = (5, 8, 6): an absent t^e composes
    # to 5^(3-e) s^e, so the claim is 3 + 6 * (-1), not 3 - 1; adding
    # 5^3 t^2, within the claims, gives the s^2 coefficient 5^1
    ctx = Context(p=5, N=8, M=6)
    arg = [TruncatedSeries(ctx, ("s",), {(1,): PadicRational(ctx, 1, -1)})]
    f = TruncatedSeries(ctx, ("t",), {(1,): 1}, 3)
    assert f.compose(arg).absprec == -3
    moved = TruncatedSeries(ctx, ("t",), {(1,): 1, (2,): 125}, 3).compose(arg)
    assert moved.get((2,)).val == 1 >= f.compose(arg).absprec


@st.composite
def perturbed_compose_case(draw):
    """f with a series absprec X and no constant term (as no log or law
    has one), arguments of any valuation, and f with c p^X t^e added for
    up to four monomials e of degree 1..M that f does not store."""
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=draw(st.integers(2, 8)),
                  M=draw(st.integers(2, 9)))
    fv = tuple(f"x{i}" for i in range(draw(st.integers(1, 3))))
    tv = tuple(f"t{i}" for i in range(draw(st.integers(1, 3))))
    f = draw(spaced_series(ctx, fv, draw(st.integers(2, 3)), 12, constant=False))
    X = draw(st.integers(-2, 12))
    f = TruncatedSeries(ctx, fv, f.coeffs, X)
    args = [draw(spaced_series(ctx, tv, 1, 5, constant=False)) for _ in fv]
    absent = [e for e in product(range(ctx.M + 1), repeat=len(fv))
              if 0 < sum(e) <= ctx.M and e not in f.coeffs]
    assume(absent)
    added = draw(st.lists(st.sampled_from(absent), min_size=1, max_size=4,
                          unique=True))
    moved = TruncatedSeries(ctx, fv, {**f.coeffs, **{
        e: PadicRational(ctx, draw(st.integers(1, ctx.p ** 4)), X, 40)
        for e in added}}, X)
    return f, moved, args


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(perturbed_compose_case())
def test_compose_claim_holds_for_every_series_within_the_claims(case):
    # the p^X multiples that f's absprec allows at the monomials it does
    # not store move each monomial absent from f(args) by a multiple of
    # p^A, A the absprec f(args) claims
    f, moved, args = case
    got, other = f.compose(args), moved.compose(args)
    for e, c in other.coeffs.items():
        if e not in got.coeffs:
            assert got.absprec is not None and c.val >= got.absprec


@st.composite
def power_case(draw):
    """A series with a term of degree <= cap / n, so that the power is not
    cut to zero, and more than one stored term or a series absprec: the
    square-and-multiply branch."""
    ctx, variables = draw(context_and_variables())
    n = draw(st.integers(2, 6))
    cap = draw(st.one_of(st.none(), st.integers(0, ctx.M)))
    c = ctx.M if cap is None else cap
    f = draw(series(ctx, variables))
    low = (draw(st.integers(0, int(n <= c))),) + (0,) * (len(variables) - 1)
    f = TruncatedSeries(ctx, variables, {**f.coeffs, low: draw(coefficient(ctx))},
                        f.absprec)
    assume(f.min_degree() * n <= c)
    assume(len(f.coeffs) > 1 or f.absprec is not None)
    return f, n, cap


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(power_case())
def test_power_matches_repeated_squaring(args):
    f, n, cap = args
    assert shape(f.__pow__(n, cap)) == shape(reference_pow(f, n, cap))


def test_compose_and_power_build_each_output_value_once(monkeypatch):
    # the sum of products and squarings stay on int terms, and the
    # expansion builds each output once: the level-1 jet ghost of
    # y^2=x^3+x+1 by either route and ghost_solve's c^5 at (5, 8, 22)
    # build exactly one PadicRational per output coefficient
    ctx = Context(p=5, N=8, M=22)
    F = formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx))
    xs, ys = jet_variables(2)
    w = [ghost_series(ctx, xs + ys, names, 1) for names in (xs, ys)]
    c = jet_group_law(F, 2).law[1]
    built = []
    real = series_module._padic

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(series_module, "_padic", counted)
    for sum_of_products, run in ((False, lambda: F.law.compose(w)),
                                 (False, lambda: c ** 5),
                                 (True, lambda: F.law.compose(w))):
        del built[:]
        if sum_of_products:  # w has the expansion's shape: take it away
            monkeypatch.setattr(series_module, "_power_rows", lambda args: None)
        out = run()
        assert len(built) == len(out.coeffs) > 0


def test_compose_expands_exactly_at_arguments_of_its_shape(monkeypatch):
    # every argument term a power c x^d of a variable no other term uses,
    # and no argument absprec: the multinomial route; a shared variable, a
    # cross term or an argument absprec: the sum of products.  Either to
    # the PadicRational Horner's claims or beyond
    ctx = Context(p=5, N=6, M=12)
    v = ("s", "t", "u")

    def arg(coeffs, absprec=None):
        return TruncatedSeries(ctx, v, coeffs, absprec)

    G = TruncatedSeries(ctx, ("x", "y"), {(1, 0): 2, (0, 2): 3, (1, 1): 7,
                                          (3, 0): PadicRational(ctx, 4, -1, 3)}, 5)
    routes = []
    real_expand, real_sum = TruncatedSeries._expand, TruncatedSeries._sum_of_products

    def expand(self, *args):
        routes.append("expand")
        return real_expand(self, *args)

    def sum_of_products(self, *args):
        routes.append("sum of products")
        return real_sum(self, *args)

    monkeypatch.setattr(TruncatedSeries, "_expand", expand)
    monkeypatch.setattr(TruncatedSeries, "_sum_of_products", sum_of_products)
    cases = {
        "expand": [[arg({(2, 0, 0): 1, (0, 1, 0): 5}), arg({(0, 0, 3): 7})],
                   [arg({(1, 0, 0): PadicRational(ctx, 2, -1, 4)}), arg({})],
                   [arg({(0, 3, 0): 10}), arg({(4, 0, 0): 3, (0, 0, 1): 1})]],
        "sum of products": [
            [arg({(1, 0, 0): 1}), arg({(2, 0, 0): 1})],
            [arg({(2, 0, 0): 1, (1, 0, 0): 5}), arg({(0, 1, 0): 1})],
            [arg({(1, 1, 0): 1}), arg({(0, 0, 1): 1})],
            [arg({(1, 0, 0): 1}, 4), arg({(0, 1, 0): 1})]],
    }
    for route, argsets in cases.items():
        for args in argsets:
            del routes[:]
            got = G.compose(args)
            assert routes[0] == route, args
            want = reference_compose(G, args)
            assert got.absprec == want.absprec
            assert_claims_no_less_than_the_compose(got, want)


@st.composite
def power_argument_case(draw):
    """G on 1-2 variables with O(p^w) zeros, negative valuations and
    absprec None or set; arguments of the expansion's shape on 1-4
    variables: each stored term c x^d with any degree 1 <= d <= M, c a
    unit, a non-unit, of negative valuation or an O(p^w) zero, and no
    variable in two terms.  Then G and the arguments lifted within their
    claims: the unknown digits of every stored coefficient drawn to
    relative precision 40, and c p^X added at up to four non-constant
    monomials G does not store when G has a series absprec X."""
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=draw(st.integers(2, 8)),
                  M=draw(st.integers(1, 9)))
    p = ctx.p
    G = draw(series(ctx, ("t1", "t2")[:draw(st.integers(1, 2))]))
    tv = tuple(f"s{k}" for k in range(draw(st.integers(1, 4))))
    free = draw(st.permutations(range(len(tv))))
    args = []
    for _ in G.vars:
        coeffs = {}
        for _ in range(draw(st.integers(0, 2))):
            if not free:
                break
            e = [0] * len(tv)
            e[free.pop()] = draw(st.integers(1, ctx.M))
            coeffs[tuple(e)] = draw(coefficient(ctx))
        args.append(TruncatedSeries(ctx, tv, coeffs))
    digits = st.integers(0, p ** 40)

    def lift(f, extra=()):
        coeffs = {e: PadicRational(ctx, c.unit + p ** c.rel * draw(digits), c.val, 40)
                  for e, c in f.coeffs.items()}
        for e in extra:
            coeffs[e] = PadicRational(ctx, draw(st.integers(1, p ** 4)), f.absprec, 40)
        return TruncatedSeries(ctx, f.vars, coeffs)

    absent = [e for e in product(range(ctx.M + 1), repeat=len(G.vars))
              if 0 < sum(e) <= ctx.M and e not in G.coeffs]
    extra = draw(st.lists(st.sampled_from(absent), max_size=4, unique=True)) \
        if G.absprec is not None and absent else []
    return G, args, lift(G, extra), [lift(a) for a in args]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(power_argument_case())
def test_expansion_claims_hold_for_every_input_within_the_claims(case):
    # the lifted G at the lifted arguments, composed by the PadicRational
    # Horner, agrees
    # with every key of G(args) to that key's claim, and moves each key
    # absent from it by a multiple of p^absprec
    G, args, lifted, lifted_args = case
    got = G.compose(args)
    ref = reference_compose(lifted, lifted_args)
    for e, c in got.coeffs.items():
        r = ref.get(e)
        assert r.absprec >= c.absprec and (r - c).is_zero(), e
    for e, r in ref.coeffs.items():
        if e not in got.coeffs:
            assert got.absprec is not None and r.val >= got.absprec, e


# -- ghost levels by the multinomial theorem ------------------------------------


def ghost_level_and_compose(G: TruncatedSeries, variables, blocks, i: int):
    """Level i of G's ghost by ghost_compose (the compose, which expands
    ghost polynomials by the multinomial theorem), and by the
    PadicRational Horner, reference_compose."""
    args = [ghost_series(G.ctx, variables, b, i) for b in blocks]
    return jet.ghost_compose(G, variables, blocks, i), reference_compose(G, args)


def assert_claims_no_less_than_the_compose(got: TruncatedSeries,
                                           want: TruncatedSeries):
    """got, a ghost level or a reversion, against want, its reference: on
    every key of either (an absent one is O(p^absprec)), values agreeing
    to the lesser of the two claims and no claim below the reference's.
    So with the same series absprec the keys differ only where the
    reference claims too few digits to tell a term from zero: in
    O(7^0) t2 + (1 + O(7)) t2^21 + O(7^1) at (p, N, M) = (7, 2, 49),
    level 2, Horner sums 20 * 7^41 and 7^41 at y1^7 y2^20 to O(7^42) and
    drops it, while the expansion credits v_7(21) and keeps
    3 * 7^42 + O(7^43)."""
    for e in got.coeffs.keys() | want.coeffs.keys():
        c, d = got.get(e), want.get(e)
        assert (c - d).is_zero() and c.absprec >= d.absprec, e


def ghost_level_args(G: TruncatedSeries, i: int):
    """The variables and blocks of level i: (x0..xi) for one variable,
    J^i's (x0..xi, y0..yi) for two."""
    if len(G.vars) == 1:
        xs = tuple(f"x{k}" for k in range(i + 1))
        return xs, (xs,)
    xs, ys = jet_variables(i)
    return xs + ys, (xs, ys)


@st.composite
def ghost_level_case(draw):
    """G on 1-2 variables with any exponents, O(p^w) zeros, negative
    valuations, relative precisions above N+i and absprec None or set,
    at a level 1 <= i <= 2 with p^i <= M."""
    p = draw(st.sampled_from([3, 5, 7]))
    i = draw(st.sampled_from([1, 2]))
    ctx = Context(p=p, N=draw(st.integers(2, 8)),
                  M=draw(st.integers(p ** i, p ** i + 6)))
    names = ("t",) if draw(st.booleans()) else ("t1", "t2")
    keys = draw(st.lists(st.tuples(*[st.integers(0, ctx.M)] * len(names)).filter(
        lambda e: sum(e) <= ctx.M), max_size=6, unique=True))
    G = TruncatedSeries(ctx, names, {e: draw(coefficient(ctx)) for e in keys},
                        draw(st.one_of(st.none(), st.integers(-2, 12))))
    return (G,) + ghost_level_args(G, i) + (i,)


def fixed_ghost_level_case(p, N, M, i, coeffs, absprec=None):
    ctx = Context(p=p, N=N, M=M)
    names = ("t",) if len(next(iter(coeffs))) == 1 else ("t1", "t2")
    G = TruncatedSeries(ctx, names, {
        e: c(ctx) if callable(c) else c for e, c in coeffs.items()}, absprec)
    return (G,) + ghost_level_args(G, i) + (i,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ghost_level_case())
# 5^-1 u t^4 + 5^5 u' t^8 + O(5^-2) t^9 at level 2: a product with the
# accumulator outermost lists the compose's keys out of descending order
@example(fixed_ghost_level_case(5, 4, 31, 2, {
    (4,): lambda ctx: PadicRational(ctx, 333118, -1, 8),
    (8,): lambda ctx: PadicRational(ctx, 1151, 5, 5),
    (9,): lambda ctx: PadicRational.zero(ctx, -2)}))
# rel 12 above N+i = 4, and binom(5, 1) = 5 is credited to the valuation
@example(fixed_ghost_level_case(5, 3, 30, 1, {
    (1,): 1, (5,): lambda ctx: PadicRational(ctx, 7, -1, 12)}, 9))
# an O(3^1) zero on two variables, absprec None
@example(fixed_ghost_level_case(3, 4, 9, 1, {
    (1, 0): 1, (0, 1): 1, (1, 1): lambda ctx: PadicRational.zero(ctx, 1),
    (2, 1): 2}))
# a Horner step of exactly p: the power w_1^5 credits v_5 of its
# multinomials, and the expansion credits them alike
@example(fixed_ghost_level_case(5, 8, 35, 1, {(1,): 1, (6,): 3}))
# the PadicRational Horner drops keys that the expansion keeps (see
# assert_claims_no_less_than_the_compose)
@example(fixed_ghost_level_case(7, 2, 49, 2, {
    (0, 1): lambda ctx: PadicRational.zero(ctx, 0),
    (0, 21): lambda ctx: PadicRational(ctx, 1, 0, 1)}, 1))
def test_ghost_levels_match_the_compose(case):
    G, variables, blocks, i = case
    got, want = ghost_level_and_compose(G, variables, blocks, i)
    assert got.absprec == want.absprec
    assert_claims_no_less_than_the_compose(got, want)
    # keys descending, the last block read first, each from x_0
    ranked = [variables.index(v) for b in reversed(blocks) for v in b]
    keys = [[e[n] for n in ranked] for e in got.coeffs]
    assert keys == sorted(keys, reverse=True)


@st.composite
def lifted_ghost_level_case(draw):
    """A ghost_level_case or a mapped_ghost_level_case, and G lifted
    within its claims: the unknown digits of every stored coefficient
    drawn at random to relative precision 40 (an O(p^w) zero's from p^w
    on), and c p^X added at up to four monomials G does not store when G
    has a series absprec X.  Above the cap (p^i > M) the absent monomials
    lifted are non-constant, the precondition of ghost_compose's series
    absprec.  The lift has no series absprec: it is one series within G's
    claims."""
    G, variables, blocks, i = draw(st.one_of(ghost_level_case(),
                                             mapped_ghost_level_case()))
    ctx, p = G.ctx, G.ctx.p
    digits = st.integers(0, p ** 40)
    coeffs = {e: PadicRational(ctx, c.unit + p ** c.rel * draw(digits), c.val, 40)
              for e, c in G.coeffs.items()}
    absent = [e for e in product(range(ctx.M + 1), repeat=len(G.vars))
              if (sum(e) or p ** i <= ctx.M) and sum(e) <= ctx.M
              and e not in G.coeffs]
    if G.absprec is not None and absent:
        for e in draw(st.lists(st.sampled_from(absent), max_size=4, unique=True)):
            coeffs[e] = PadicRational(ctx, draw(st.integers(1, p ** 4)), G.absprec, 40)
    return G, TruncatedSeries(ctx, G.vars, coeffs), variables, blocks, i


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lifted_ghost_level_case())
def test_ghost_level_claims_hold_for_every_series_within_the_claims(case):
    # the lift composed at ghost polynomials whose coordinates claim 60
    # digits agrees with every key of G's level to that key's claim, and
    # moves each key absent from the level by a multiple of p^absprec
    G, lifted, variables, blocks, i = case
    ctx = G.ctx
    got = jet.ghost_compose(G, variables, blocks, i)
    args = []
    for b in blocks:
        coords = [TruncatedSeries(ctx, variables, {
            tuple(int(v == name) for v in variables): PadicRational(ctx, 1, 0, 60)})
            for name in b[:i + 1]]
        args.append(ghost_map(ctx.p, coords, TruncatedSeries.shift)[i])
    ref = reference_compose(lifted, args)
    for e, c in got.coeffs.items():
        r = ref.get(e)
        assert r.absprec >= c.absprec and (r - c).is_zero(), e
    for e, r in ref.coeffs.items():
        if e not in got.coeffs:
            assert got.absprec is not None and r.val >= got.absprec, e


def short_group(p, N, M, a4, a6):
    return formal_group_from_curve(WeierstrassCurve(0, 0, 0, a4, a6,
                                                    Context(p=p, N=N, M=M)))


GHOST_GROUPS = {
    "E11": lambda: short_group(5, 8, 35, 1, 1),
    "Em10": lambda: short_group(5, 8, 35, -1, 0),
    "Gm": lambda: FormalGroupLaw.multiplicative(Context(p=5, N=8, M=35)),
    "p7-seed0": lambda: short_group(7, 6, 56, 1, 1),
    "Gm-M22": lambda: FormalGroupLaw.multiplicative(Context(p=5, N=8, M=22)),
    "E11-M22": lambda: short_group(5, 8, 22, 1, 1),
    "E01": lambda: short_group(5, 8, 35, 0, 1),
    "E11-p3": lambda: short_group(3, 8, 30, 1, 1),
}


@pytest.mark.parametrize("group, series, i", [
    (group, "log", i) for group in ("E11", "Em10", "Gm", "p7-seed0")
    for i in (1, 2)] + [
    (group, series, 1) for group in ("Gm-M22", "E11-M22")
    for series in ("law", "N1-law")] + [
    (group, "log", i) for group in ("E01", "E11-p3") for i in (1, 2)] + [
    (group, "log", i) for group in ("E11", "Em10", "Gm", "E01", "p7-seed0")
    for i in (3, 4)] + [
    (group, "law", 2) for group in ("Gm-M22", "E11-M22")])
def test_benchmark_ghost_levels_are_expanded_as_composed(group, series, i):
    # the logs of analyze_p5's and analyze_p7's groups, the J^2 and N^1
    # jet laws of jet_p5's, and the logs of y^2 = x^3 + 1 at p = 5 and of
    # y^2 = x^3 + x + 1 at p = 3 (Horner steps of 6 and 4, at or above p);
    # above the cap, L_3 and L_4 of the analyzed groups and J^2's level 2
    # at M = 22: expanded, in the PadicRational Horner's key order, and to
    # its claims or beyond
    F = GHOST_GROUPS[group]()
    G = {"log": lambda: F.log, "law": lambda: F.law,
         "N1-law": lambda: n1_group(F).law}[series]()
    variables, blocks = ghost_level_args(G, i)
    if series == "law":
        xs, ys = jet_variables(2)
        variables, blocks = xs + ys, (xs, ys)
    got, want = ghost_level_and_compose(G, variables, blocks, i)
    assert (list(got.coeffs), got.absprec) == (list(want.coeffs), want.absprec)
    assert_claims_no_less_than_the_compose(got, want)


@st.composite
def mapped_ghost_level_case(draw):
    """G on 1-2 variables with O(p^w) zeros, negative valuations, relative
    precisions at most N and absprec None or set, at a level 1 <= i <= 2
    above the cap, p^i > M, where w_i lacks x_0^(p^i) and ghost_compose's
    series absprec is X + v with v >= 1.  G has no constant term, as no
    log or law has one, and at least one term.  The PadicRational Horner
    reads a stored constant term, or a G with no term, at X, so it claims
    X: with a stored constant, X + v is sound too and Horner's claim the
    more cautious; with no term, the absent constant is outside
    ghost_compose's precondition."""
    p = draw(st.sampled_from([3, 5, 7]))
    i = draw(st.sampled_from([1, 2]))
    ctx = Context(p=p, N=draw(st.integers(2, 8)),
                  M=draw(st.integers(1, min(p ** i - 1, 12))))
    names = ("t",) if draw(st.booleans()) else ("t1", "t2")
    keys = draw(st.lists(st.tuples(*[st.integers(0, ctx.M)] * len(names)).filter(
        lambda e: 0 < sum(e) <= ctx.M), max_size=6, unique=True))

    def rel_at_most_N():
        if draw(st.integers(0, 4)) == 0:
            return PadicRational.zero(ctx, draw(st.integers(-3, 5)))
        return PadicRational(ctx, draw(st.integers(1, p ** 8)),
                             draw(st.integers(-3, 5)), draw(st.integers(1, ctx.N)))

    G = TruncatedSeries(ctx, names, {e: rel_at_most_N() for e in keys},
                        draw(st.one_of(st.none(), st.integers(-2, 12))))
    assume(G.coeffs)
    return (G,) + ghost_level_args(G, i) + (i,)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mapped_ghost_level_case())
def test_mapped_ghost_levels_match_the_compose(case):
    # level i above the cap (p^i > M) is expanded, and is the compose's to
    # its claims or beyond, with the compose's series absprec
    G, variables, blocks, i = case
    level, want = ghost_level_and_compose(G, variables, blocks, i)
    assert level.absprec == want.absprec
    assert_claims_no_less_than_the_compose(level, want)


def test_sum_of_products_keeps_the_share_of_a_covered_zero():
    # O(3^0) t2^3 + O(3^0) t2^4 + O(3^0) t2^5 + (1 + O(3)) t2^6, series
    # absprec 1, at J^1's w_1, (p, N, M) = (3, 4, 8): only t2^6 reaches
    # y0^3 y1^5, as 6 * 3^5 (1 + O(3)) = 2 * 3^6 + O(3^7).  A Horner
    # accumulator holds y0^3 y1^2 as 27 + O(27), a zero that absprec 1
    # covers, drops it, and claims 3^6 + O(3^7) from the stored pairs alone
    # (the PadicRational Horner still does).  The sum of products reads
    # each term of G whole and drops covered zeros only at the end; it
    # claims right, as the expansion (got) does
    G, variables, blocks, i = fixed_ghost_level_case(3, 4, 8, 1, {
        (0, 3): lambda ctx: PadicRational.zero(ctx, 0),
        (0, 4): lambda ctx: PadicRational.zero(ctx, 0),
        (0, 5): lambda ctx: PadicRational.zero(ctx, 0),
        (0, 6): lambda ctx: PadicRational(ctx, 1, 0, 1)}, 1)
    got = jet.ghost_compose(G, variables, blocks, i)
    with mock.patch.object(series_module, "_power_rows", lambda args: None):
        want = jet.ghost_compose(G, variables, blocks, i)
    key = (0, 0, 3, 5)
    assert triples([got.get(key), want.get(key)]) == [(2, 6, 1)] * 2
    assert (want.get(key) - got.get(key)).is_zero()


def test_a_square_reads_its_operand_once(monkeypatch):
    ctx = Context(p=5, N=6, M=10)
    f = TruncatedSeries(ctx, ("x", "y"), {(1, 0): 2, (0, 1): 3, (1, 1): 7})
    reads = []
    real = series_module._int_terms

    def counted(g, *args):
        reads.append(g)
        return real(g, *args)

    monkeypatch.setattr(series_module, "_int_terms", counted)
    assert shape(f * f) == shape(reference_mul(f, f))
    assert reads == [f]


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
def reversion_input(draw, absprec=st.none()):
    """u t + up to M - 1 drawn terms (O(p^w) zeros and negative valuations
    among them) with u a unit, and a series absprec drawn from `absprec`."""
    p = draw(st.sampled_from([3, 5, 7]))
    ctx = Context(p=p, N=draw(st.integers(2, 8)), M=draw(st.integers(2, 10)))
    unit = draw(st.integers(1, p ** 8))
    coeffs = {(1,): PadicRational(ctx, unit if unit % p else unit + 1, 0,
                                  draw(st.integers(1, 8)))}
    for k in range(2, ctx.M + 1):
        if draw(st.booleans()):
            coeffs[(k,)] = draw(coefficient(ctx))
    return TruncatedSeries(ctx, ("t",), coeffs, draw(absprec))


@st.composite
def inexact_series_and_perturbations(draw):
    f = draw(reversion_input(st.one_of(st.none(), st.integers(1, 10))))
    # the t^k coefficient moved by delta * p^A, within its claim: A is its
    # absprec, or the series absprec when it is absent (exact when None)
    claim = [None] + [f.coeffs[(k,)].absprec if (k,) in f.coeffs else f.absprec
                      for k in range(1, f.ctx.M + 1)]
    p = f.ctx.p
    shifts = [[0] * len(claim)] + [
        draw(st.lists(st.integers(-p ** 2, p ** 2), min_size=len(claim),
                      max_size=len(claim))) for _ in range(2)]
    return f, claim, shifts


def slope_step_example():
    # (1 + O(3)) t + (1 + O(3)) t^2 + O(3^0) t^6 at (p, N, M) = (3, 4, 9):
    # reversion claims its t^8 coefficient as O(3^1), one digit more than
    # the slope-inverting step, and f moved within its claims keeps it
    ctx = Context(p=3, N=4, M=9)
    f = TruncatedSeries(ctx, ("t",), {(1,): PadicRational(ctx, 1, 0, 1),
                                      (2,): PadicRational(ctx, 1, 0, 1),
                                      (6,): PadicRational.zero(ctx, 0)})
    claim = [None, 1, 1, None, None, None, 0, None, None, None]
    shifts = [[0] * 10, [0, 1, -1, 0, 0, 0, 1, 0, 0, 0],
              [0, 2, 1, 0, 0, 0, -4, 0, 0, 0]]
    return f, claim, shifts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inexact_series_and_perturbations())
@example(slope_step_example())
def test_reversion_holds_its_claimed_digits(args):
    # every coefficient of the reversion, an absent one included (claimed
    # zero to the series absprec, exactly when that is None), must hold
    # its effective claim min(c.absprec, g.absprec) for every input within
    # the claims of f
    f, claim, shifts = args
    p, M = f.ctx.p, f.ctx.M
    g = f.reversion()
    for deltas in shifts:
        exact = [Fraction(0)] * (M + 1)
        for k in range(1, M + 1):
            c = f.get((k,))
            if claim[k] is not None:
                exact[k] = value(c) + deltas[k] * Fraction(p) ** claim[k]
        want = exact_reversion(exact)
        for k in range(1, M + 1):
            c = g.get((k,))
            held = _minp(c.absprec, g.absprec)
            assert vp_fraction(want[k] - value(c), p) >= held, (f, k, c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reversion_input())
def test_reversion_matches_the_slope_inverting_step(f):
    # g <- g - (f(g) - t) g' agrees with g <- g - (f(g) - t) f'(g)^(-1)
    # on every input without a series absprec: the same series absprec,
    # values equal to the lesser of the two claims, and no claim less
    # (slope_step_example claims one digit more)
    got, want = f.reversion(), reference_newton_reversion(f)
    assert got.absprec == want.absprec
    assert_claims_no_less_than_the_compose(got, want)


def monomials(nv: int, cap: int) -> list[tuple[int, ...]]:
    """The exponents of total degree <= cap in nv variables, by degree."""
    return sorted((e for e in product(range(cap + 1), repeat=nv)
                   if sum(e) <= cap), key=sum)


def exact_inverse(f: dict, monos) -> dict:
    """{e: g_e} with f g = 1 over Q at the exponents monos (closed under
    going down, by degree), f = {e: Fraction} with f[0] != 0."""
    zero = monos[0]
    g = {zero: 1 / f[zero]}
    for e in monos[1:]:
        acc = sum(c * g[tuple(x - y for x, y in zip(e, d))]
                  for d, c in f.items()
                  if d != zero and all(x <= y for x, y in zip(d, e)))
        g[e] = -acc / f[zero]
    return g


def reference_doubling_inverse(f: TruncatedSeries, cap=None):
    """1/f by Newton steps right to degrees 2, 4, 8, ..., each capped at
    cap: the loop that the Newton schedule replaced, which takes its last
    full-length step twice when cap is a power of two."""
    cap = f.ctx.M if cap is None else min(cap, f.ctx.M)
    g = TruncatedSeries.const(f.ctx, f.vars, f.constant_term().inverse())
    deg = 1
    while deg <= cap:
        deg *= 2
        fg = f.__mul__(g, min(deg, cap))
        g = g.__mul__(TruncatedSeries.const(f.ctx, f.vars, 2) - fg,
                      min(deg, cap))
    return g


@st.composite
def unit_series(draw, nvars=st.integers(1, 2)):
    """A unit constant term and up to 14 drawn terms in nvars variables
    (O(p^w) zeros and negative valuations among them), a series absprec
    that is None or set, and a cap."""
    p = draw(st.sampled_from([3, 5, 7]))
    ctx = Context(p=p, N=draw(st.integers(2, 8)), M=draw(st.integers(1, 10)))
    variables = ("s", "t")[-draw(nvars):]
    f = draw(series(ctx, variables))
    unit = draw(st.integers(1, p ** 8))
    coeffs = dict(f.coeffs) | {(0,) * len(variables): PadicRational(
        ctx, unit if unit % p else unit + 1, 0, draw(st.integers(1, 8)))}
    cap = draw(st.one_of(st.none(), st.integers(0, ctx.M)))
    return TruncatedSeries(ctx, variables, coeffs, f.absprec), cap


@st.composite
def inexact_unit_series_and_perturbations(draw):
    """A unit series and a cap, and two perturbations within the claims of
    the series besides none, one shift per monomial up to the cap."""
    f, cap = draw(unit_series())
    p = f.ctx.p
    monos = monomials(len(f.vars), f.ctx.M if cap is None else cap)
    shifts = [[0] * len(monos)] + [
        draw(st.lists(st.integers(-p ** 2, p ** 2), min_size=len(monos),
                      max_size=len(monos))) for _ in range(2)]
    return f, cap, monos, shifts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inexact_unit_series_and_perturbations())
def test_inverse_holds_its_claimed_digits(args):
    # every coefficient of 1/f up to the cap, an absent one included, must
    # hold its effective claim min(c.absprec, g.absprec) for every input
    # within the claims of f: a coefficient moved by delta * p^A, A its
    # absprec or, when absent, the series absprec (exact when None)
    f, cap, monos, shifts = args
    p = f.ctx.p
    g = f.inverse(cap)
    for deltas in shifts:
        exact = {}
        for e, delta in zip(monos, deltas):
            c = f.get(e)
            claim = c.absprec if e in f.coeffs else f.absprec
            if claim is not None:
                exact[e] = value(c) + delta * Fraction(p) ** claim
        want = exact_inverse(exact, monos)
        for e in monos:
            c = g.get(e)
            held = _minp(c.absprec, g.absprec)
            assert vp_fraction(want[e] - value(c), p) >= held, (f, cap, e, c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(unit_series(nvars=st.just(1)))
def test_inverse_matches_the_doubling_loop_on_univariate_input(args):
    # on a univariate input without a series absprec the Newton schedule
    # gives the doubling loop's triples and absprec (in another monomial
    # order)
    f, cap = args
    f = TruncatedSeries(f.ctx, f.vars, f.coeffs)
    assert claims(f.inverse(cap)) == claims(reference_doubling_inverse(f, cap))


def test_inverse_takes_one_full_length_step(monkeypatch):
    # a dense unit series at M = 64: Newton right to degrees 1, 2, 4, ...,
    # 64, one product pair each, so one pair at the full cap
    ctx = Context(p=5, N=8, M=64)
    f = TruncatedSeries(ctx, ("t",), {(k,): k + 1 for k in range(65)})
    caps = []
    real = TruncatedSeries.__mul__

    def counted(self, other, cap=None):
        caps.append(cap)
        return real(self, other, cap)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    f.inverse()
    assert caps == [1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64]


@pytest.mark.parametrize("a4, a6", [(1, 1), (-1, 0), (0, 1)])
@pytest.mark.parametrize("p, N, deg", [(5, 8, 52), (7, 6, 66)])
def test_canonical_exp_matches_reference_reversion(monkeypatch, p, N, deg, a4, a6):
    # the exp of canonical_lift_test's log (y^2 = x^3 + a4 x + a6) against
    # the one-degree-at-a-time loop: the same triples where the loop has a
    # coefficient, and only the O(p^w) zeros that the loop leaves out
    # beside; and against the slope-inverting Newton step, claims included
    seen = []
    newton = TruncatedSeries.reversion

    def recording(f):
        seen.append((f, newton(f)))
        return seen[-1][1]

    monkeypatch.setattr(TruncatedSeries, "reversion", recording)
    canonical_lift_test(WeierstrassCurve(0, 0, 0, a4, a6, Context(p=p, N=N, M=12)))
    (log, exp), = seen
    assert log.ctx.M == deg
    ref = reference_reversion(log)
    assert list(exp.coeffs) == sorted(exp.coeffs)
    assert triples(exp.coeffs[e] for e in ref.coeffs) == triples(ref.coeffs.values())
    assert all(exp.coeffs[e].is_zero() for e in exp.coeffs.keys() - ref.coeffs.keys())
    assert claims(exp) == claims(reference_newton_reversion(log))


def test_canonical_lift_test_composes_once_per_newton_step(monkeypatch):
    # the reversion at M = 66 climbs 2, 3, 5, 9, 17, 33, 66 with one compose
    # and no series inverse a step; [p] = exp(p log) adds one compose and
    # x(t) one inverse
    counts = {"compose": 0, "inverse": 0}
    for name in counts:
        real = getattr(TruncatedSeries, name)

        def counted(self, *args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    canonical_lift_test(WeierstrassCurve(0, 0, 0, 1, 1, Context(p=7, N=6, M=12)))
    assert counts == {"compose": 8, "inverse": 1}


def test_canonical_lift_test_rejects_an_even_log_coefficient(monkeypatch):
    real = canonical.elliptic_log_coefficients

    def corrupted(E, indices, digits=None):
        bs = real(E, indices, digits=digits)
        bs[4] = bs[4] + PadicRational.from_int(E.ctx, 5)  # b_4
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


# -- the character solver's integrality rows ----------------------------------


def row_sweep_groups():
    """The 20 good-reduction short curves mod 5 and G_m at p=5, N=8, M=35,
    and y^2 = x^3 + x + 1 at p=7, N=6, M=56."""
    ctx = Context(p=5, N=8, M=35)
    for a4, a6 in product(range(5), repeat=2):
        if (4 * a4 ** 3 + 27 * a6 ** 2) % 5:
            yield formal_group_from_curve(WeierstrassCurve(0, 0, 0, a4, a6, ctx))
    yield FormalGroupLaw.multiplicative(ctx)
    yield formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, Context(p=7, N=6, M=56)))


def test_x0_tower_rows_give_the_monomial_rows_lattice():
    # the solver reads the univariate log alone; the monomial rows of the
    # multivariate log projections give the same Smith exponents at orders
    # 1 and 2, and every basis character's jet series is integral.  So are
    # its Frobenius shift phi* Theta and Psi_1, which the run takes as
    # integral by construction and does not check
    groups = list(row_sweep_groups())
    assert len(groups) == 22
    for F in groups:
        assert psi1_series(F).is_integral(), F.curve
        lower = None
        for n in (1, 2):
            lat = solve_character_lattice(F, n, lower=lower)
            rows, d, K = reference_monomial_rows(F, n)
            basis = kernel_lattice(rows, n + 1, F.ctx.p, m=d, K=K)
            assert [s for s, _ in lattice_exponents(basis, F.ctx.p, K)] \
                == lat.exponents, (F.ctx.p, F.curve, n)
            assert all(ch.series.is_integral() for ch in lat.basis), (F.curve, n)
            assert all(phi_star(ch).series.is_integral() for ch in lat.basis), \
                (F.curve, n)
            lower = lat


# -- lattice reductions ---------------------------------------------------------


def reference_kernel_lattice(rows, ncols: int, p: int, m: int, K: int):
    """kernel_lattice with the clearing step written out in its loop."""
    mod = p ** K
    basis = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    for row in rows:
        vals = [sum(r * c for r, c in zip(row, col)) % mod for col in basis]
        piv, pivval = None, None
        for j, v in enumerate(vals):
            s = vp(v, p)
            if s >= m:
                continue
            if pivval is None or s < pivval:
                piv, pivval = j, s
        if piv is None:
            continue
        pu_inv = pow(vals[piv] // p ** pivval, -1, p ** (K - pivval))
        for j in range(ncols):
            if j == piv or vals[j] == 0:
                continue
            f = ((vals[j] // p ** pivval) * pu_inv) % (p ** (K - pivval))
            if f:
                basis[j] = [(a - f * b) % mod for a, b in zip(basis[j], basis[piv])]
        basis[piv] = [(p ** (m - pivval) * a) % mod for a in basis[piv]]
    return basis


def reference_lattice_exponents(basis_cols, p: int, K: int):
    """lattice_exponents with the clearing step written out in its loop."""
    cols = [list(c) for c in basis_cols]
    nrows = len(cols[0]) if cols else 0
    done_rows: set[int] = set()
    out = []
    remaining = list(range(len(cols)))
    while remaining:
        best = None
        for j in remaining:
            for r in range(nrows):
                s = vp(cols[j][r] % p ** K, p)
                if r not in done_rows and s < K and (best is None or s < best[0]):
                    best = (s, j, r)
        if best is None:
            out.extend((K, cols[j]) for j in remaining)
            break
        s, jp, rp = best
        pivcol = cols[jp]
        pu_inv = pow(pivcol[rp] // p ** s, -1, p ** (K - s))
        for j in remaining:
            v = cols[j][rp] % p ** K
            if j == jp or v == 0:
                continue
            f = ((v // p ** s) * pu_inv) % (p ** (K - s))
            if f:
                cols[j] = [(a - f * b) % p ** K for a, b in zip(cols[j], pivcol)]
        out.append((s, pivcol))
        done_rows.add(rp)
        remaining.remove(jp)
    out.sort(key=lambda t: t[0])
    return out


@st.composite
def kernel_rows(draw):
    """(rows, ncols, p, m): up to 8 rows of 1-3 entries u p^v, with zeros,
    units and entries of valuation at and beyond m, and some entries far
    above p^m."""
    p = draw(st.sampled_from([3, 5, 7]))
    ncols = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(0),
        st.builds(lambda u, v: u * p ** v, st.integers(-p ** (m + 3), p ** (m + 3)),
                  st.integers(0, m + 1)))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=8))
    return rows, ncols, p, m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_rows())
@example(([[5, 0], [0, 25]], 2, 5, 2))
@example(([[0, 0, 0]], 3, 3, 1))
def test_kernel_exponents_do_not_depend_on_the_digits_beyond_m(args):
    # {u : B u = 0 mod p^m} reads B only mod p^m, so every K >= m + 1 gives
    # the same Smith exponents: the solver runs one K
    rows, ncols, p, m = args
    exps = [[s for s, _ in lattice_exponents(
        kernel_lattice(rows, ncols, p, m, K), p, K)] for K in range(m + 1, m + 5)]
    assert all(e == exps[0] for e in exps), exps


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_rows(), st.integers(0, 3))
@example(([[5, 0], [0, 25]], 2, 5, 2), 0)
@example(([[1, 2, 3], [3, 6, 9]], 3, 3, 2), 1)
def test_lattice_reductions_match_their_written_out_loops(args, extra):
    # bases and exponent lists identical to the reference loops, on the
    # kernel basis (reduced mod p^K) and on the raw rows read as columns
    rows, ncols, p, m = args
    K = m + extra
    basis = kernel_lattice(rows, ncols, p, m, K)
    assert basis == reference_kernel_lattice(rows, ncols, p, m, K)
    for cols in (basis, rows):
        assert lattice_exponents(cols, p, K) == reference_lattice_exponents(cols, p, K)


# -- the p-adic solve ----------------------------------------------------------


def reference_solve_padic(columns, target):
    """solve_padic by full-row Gauss-Jordan: each elimination scales the
    whole pivot row and updates every entry of every other row."""
    k, nrows = len(columns), len(target)
    rows = [[col[i] for col in columns] + [target[i]] for i in range(nrows)]
    piv_rows = []
    for j in range(k):
        free = [i for i in range(nrows)
                if i not in piv_rows and not rows[i][j].is_zero()]
        if not free:
            raise PrecisionExhausted(f"column {j} vanishes at working precision")
        best = min(free, key=lambda i: rows[i][j].valuation())
        piv_rows.append(best)
        inv = rows[best][j].inverse()
        rows[best] = pr = [e * inv for e in rows[best]]
        for i in range(nrows):
            f = rows[i][j]
            if i != best and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
    resid = min((rows[i][-1].valuation() for i in range(nrows)
                 if i not in piv_rows and not rows[i][-1].is_zero()),
                default=_INF)
    return [rows[i][-1] for i in piv_rows], resid


@st.composite
def padic_system(draw):
    """(columns, target): 1-3 columns of 1-6 rows, entries with O(p^w)
    zeros and negative valuations (see coefficient), so that some systems
    have a column that vanishes at working precision."""
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=8, M=4)
    k = draw(st.integers(1, 3))
    nrows = draw(st.integers(1, 6))
    entries = st.lists(coefficient(ctx), min_size=nrows, max_size=nrows)
    return draw(st.lists(entries, min_size=k, max_size=k)), draw(entries)


def solve_or_raise(solve, columns, target):
    try:
        xs, resid = solve(columns, target)
    except PrecisionExhausted as err:
        return str(err)
    return triples(xs), resid


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(padic_system())
def test_solve_padic_matches_full_row_elimination(system):
    # updating only the later columns and the target gives the same xs
    # triples and residual as updating every entry, or the same raise
    assert (solve_or_raise(solve_padic, *system)
            == solve_or_raise(reference_solve_padic, *system))


def test_class_solves_of_a_p7_analysis_match_full_row_elimination(monkeypatch):
    # the two class solves of y^2 = x^3 + x + 1 at (p, N, M) = (7, 6, 56):
    # gamma_hat's and the f* Psi_1 expansion
    seen = []

    def recording(columns, target):
        seen.append((columns, target))
        return solve_padic(columns, target)

    monkeypatch.setattr(characters_module, "solve_padic", recording)
    ctx = Context(p=7, N=6, M=56)
    analyze_group(formal_group_from_curve(WeierstrassCurve(0, 0, 0, 1, 1, ctx)))
    assert len(seen) == 2
    for columns, target in seen:
        xs, resid = solve_padic(columns, target)
        ref_xs, ref_resid = reference_solve_padic(columns, target)
        assert triples(xs) == triples(ref_xs) and resid == ref_resid
