"""Canonical-lift classification via the canonical-subgroup quotient.

An ordinary elliptic curve E/Z_p is a canonical lift (CL) exactly when it
admits an endomorphism reducing to the p-power Frobenius, equivalently
when E is isomorphic to its quotient by the canonical subgroup C (the
p-torsion of the formal group).  That bit is what separates rk X_1 = 1
from 0; it is NOT visible in disk-local integrality of character series
(the unit-root relation is locally integral for every ordinary curve),
so it is computed here from honest moduli data:

* [p](t), the multiplication-by-p series of the formal group, as
  exp(p log t): the logarithm of a short model to degree deg at R
  digits, R covering the p-power denominators (up to deg/(p-1)) that exp
  brings and [p] cancels; every coefficient of [p] must come out
  integral and known mod p^(N+6), or the test raises;
* ordinary reduction means [p]/t = t^(p-1) * unit mod p; a
  Hensel/Weierstrass factorization mod p^K splits off the distinguished
  degree-(p-1) factor whose roots are the t-coordinates of C minus O;
* Newton identities on that factor (and on its reversal, for inverse
  roots) give the power sums of x(t_Q) = t_Q/w(t_Q), hence the Velu
  sums, hence E/C;
* E is CL iff j(E) - j(E/C) = 0: a difference nonzero at its claimed
  precision means non-CL, a zero one means CL when it holds to
  max(N-3, 2) digits (one never decides: j(E/C) = j(E) mod p), and a
  shorter zero raises PrecisionExhausted.
"""

from . import _intpoly
from .context import Context, Record
from .padic import PadicRational
from .series import TruncatedSeries
from .formalgroup import (
    WeierstrassCurve, _w_coefficients,
    elliptic_log_coefficients,
)
from .errors import ArithJetError, IdentityViolation, PrecisionExhausted

_INF = float("inf")


def short_model(E: WeierstrassCurve) -> tuple[int, int]:
    """(A, B) with E isomorphic to y^2 = x^3 + Ax + B (needs p >= 5)."""
    if E.ctx.p < 5:
        raise ArithJetError("short model transform needs p >= 5")
    b2, b4, b6, _ = E.b_invariants
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6


def j_invariant(A, B, ctx: Context) -> PadicRational:
    """j = 1728 * 4A^3 / (4A^3 + 27B^2) as a p-adic number."""
    if isinstance(A, int):
        A = PadicRational.from_int(ctx, A)
    if isinstance(B, int):
        B = PadicRational.from_int(ctx, B)
    four_a3 = A ** 3 * 4
    den = four_a3 + B * B * 27
    return four_a3 * 1728 / den


def _hensel_series_factor(g_ints: list[int], r: int, p: int, K: int) -> list[int]:
    """Factor g = W * U mod (p^K, t^len(g)) with W monic distinguished of
    degree r; requires g = t^r * unit mod p.  Returns [W_0, ..., W_(r-1), 1].
    """
    mod = p ** K
    J = len(g_ints)
    gbar = [c % p for c in g_ints]
    if any(gbar[i] for i in range(r)) or gbar[r] % p == 0:
        raise ArithJetError("series is not t^r * unit mod p")

    W = [0] * r + [1] + [0] * (J - r - 1)
    U = [(g_ints[r + i] if r + i < J else 0) % mod for i in range(J)]
    # every update adds p^k eps with k >= 1, so U mod p never changes
    Ubar = [c % p for c in U]
    Ubar_inv = _intpoly.inverse(Ubar, J, p)
    for k in range(1, K):
        pk = p ** k
        WU = _intpoly.mul(W, U, J, mod)
        rdef = [(((g_ints[i] if i < J else 0) - WU[i]) % mod) // pk % p
                for i in range(J)]
        if not any(rdef):
            continue
        s = _intpoly.mul(rdef, Ubar_inv, J, p)
        delta = s[:r]
        eps = _intpoly.mul(s[r:] + [0] * r, Ubar, J, p)
        for i, c in enumerate(delta):
            if c:
                W[i] = (W[i] + pk * c) % mod
        for i, c in enumerate(eps):
            if c:
                U[i] = (U[i] + pk * c) % mod
    return [W[i] % mod for i in range(r)] + [1]


def _power_sums(c: list[PadicRational], count: int, ctx: Context):
    """Power sums p_1..p_count of the roots of the monic polynomial
    t^r + c_(r-1) t^(r-1) + ... + c_0, by Newton's identities:

        p_k + sum_(i=1..min(k-1, r)) c_(r-i) p_(k-i) + [k <= r] k c_(r-k) = 0
        (for k > r the last term is absent and i runs to r).
    """
    r = len(c)
    out: list[PadicRational] = []
    for k in range(1, count + 1):
        acc = PadicRational.zero(ctx, ctx.N + 8)
        for i in range(1, min(k - 1, r) + 1):
            acc = acc + c[r - i] * out[k - i - 1]
        if k <= r:
            acc = acc + c[r - k] * k
        out.append(-acc)
    return out


class CanonicalLiftReport(Record):
    """Whether E is a canonical lift, by v(j(E/C) - j(E)) against a threshold."""

    ordinary: bool
    is_cl: bool
    j_distance: float
    threshold: int
    quotient_j: PadicRational | None
    curve_j: PadicRational


def canonical_lift_test(E: WeierstrassCurve) -> CanonicalLiftReport:
    """Decide whether E is a canonical lift, via j(E/C) = j(E)."""
    p, N = E.ctx.p, E.ctx.N
    A, B = short_model(E)
    # degree: tails of the x-power sums carry v >= (deg - 6)/(p-1); working
    # precision: exp acquires denominators up to deg/(p-1) which [p] cancels,
    # plus ~6 digits lost in the power-sum and Velu assembly
    deg = max((p - 1) * (N + 5), p + 2)
    R = N + 8 + (deg - 1) // (p - 1)
    ctx = Context(p=p, N=R, M=deg)
    Es = WeierstrassCurve(0, 0, 0, A, B, ctx)
    bs = elliptic_log_coefficients(Es, range(1, deg + 1), digits=R)
    # a short model has [-1](t) = -t, so its log is odd: an even b_k is 0
    # exactly, not the O(p^w) zero computed for it, and leaving it out
    # keeps that bound out of every product of the reversion and of [p]
    if any(not bs[k].is_zero() for k in range(2, deg + 1, 2)):
        raise IdentityViolation("log of the short model is not odd")
    log = TruncatedSeries(ctx, ("t",),
                          {(k,): bs[k] for k in range(1, deg + 1, 2)})
    exp = log.reversion()
    mult_p = exp.compose([log.shift(1)])  # [p](t) = exp(p log t)

    K = N + 6
    g = []
    for k in range(1, deg + 1):
        c = mult_p.get((k,))
        if c.is_zero():
            if c.val < K:
                raise ArithJetError("[p] coefficient known below p^K")
            g.append(0)
        else:
            if c.val < 0:
                raise ArithJetError("[p] series not integral")
            if c.absprec < K:
                raise ArithJetError("[p] coefficient known below p^K")
            g.append((c.unit * ctx.pk(c.val)) % ctx.pk(K))

    ordinary = g[p - 1] % p != 0
    if ordinary != E.invariants.ordinary:
        raise IdentityViolation(
            "[p]-series ordinarity disagrees with the point count")
    jE = j_invariant(A, B, ctx)
    thr = max(N - 3, 2)  # j(E/C) = j(E)^p = j(E) mod p on every E
    if not ordinary:
        return CanonicalLiftReport(False, False, 0.0, thr, None, jE)

    r = p - 1
    W = _hensel_series_factor(g, r, p, K)
    Wc = [PadicRational(ctx, W[i], 0, K) for i in range(r)]
    ps_pos = _power_sums(Wc, deg, ctx)

    # inverse-root power sums: reversed polynomial s^r W(1/s)/W_0 has
    # coefficient list [1/W_0, W_(r-1)/W_0, ..., W_1/W_0]
    w0inv = Wc[0].inverse()
    rev_c = [w0inv] + [Wc[i] * w0inv for i in range(r - 1, 0, -1)]
    ps_neg = _power_sums(rev_c, 8, ctx)

    def P(m: int) -> PadicRational:
        if m == 0:
            return PadicRational.from_int(ctx, r)
        if m > 0:
            return ps_pos[m - 1]
        return ps_neg[-m - 1]

    # x(t)^k = t^(-2k) Xt^k with Xt = (w/t^3)^(-1) a unit power series
    wc, _ = _w_coefficients(Es, deg + 3)
    wq = TruncatedSeries(ctx, ("t",),
                         {(k,): wc[k + 3] for k in range(deg + 1) if wc[k + 3]})
    Xt = wq.inverse()
    xsums = []
    for k in (1, 2, 3):
        Xk = Xt ** k
        acc = PadicRational.zero(ctx, N + 4)
        for (j,), cc in Xk.coeffs.items():
            acc = acc + cc * P(j - 2 * k)
        xsums.append(acc)
    S1, S2, S3 = xsums

    Ar = PadicRational.from_int(ctx, A)
    Br = PadicRational.from_int(ctx, B)
    T = S2 * 3 + Ar * r
    Wv = S3 * 5 + Ar * S1 * 3 + Br * (2 * r)
    jq = j_invariant(Ar - T * 5, Br - Wv * 7, ctx)
    diff = jE - jq
    dist = diff.valuation()  # for a zero difference this is the absprec bound
    if diff.is_zero() and dist < thr:
        raise PrecisionExhausted(
            f"j - j' = O({p}^{dist}) is zero to fewer than {thr} digits at "
            f"N = {N}; raise N")
    return CanonicalLiftReport(True, diff.is_zero(), dist, thr, jq, jE)
