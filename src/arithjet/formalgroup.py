"""Formal group laws: additive, multiplicative, and elliptic.

An elliptic curve in long Weierstrass form is completed at the origin in
the parameter t = -x/y, w = -1/y.  w(t) is the root of

    w = t^3 + a1*t*w + a2*t^2*w + a3*w^2 + a4*t*w^2 + a6*w^3,

found by Newton iteration on integer polynomials (_w_coefficients); the
chord construction through (t1, w(t1)), (t2, w(t2)) gives the group law
F(t1, t2).  The formal logarithm integrates the normalized invariant
differential dx/(2y + a1*x + a3) expanded in t, and it has one route:
elliptic_log_coefficients computes it mod p^digits on integers, the
deep Frobenius tower reads it as is, and formal_group_from_curve caps it
at relative precision N for F.log.  The exponential is the reversion of
the log.  The law is computed lazily (the character solver only consumes
the logarithm).

Point counts over F_p are exhaustive (one quadratic per x), made once per
curve (WeierstrassCurve.invariants), giving the trace a_p used by the
crystalline cross-checks.
"""

from dataclasses import dataclass
from functools import cached_property

from . import _intpoly
from .context import Context
from .padic import PadicRational, vp
from .series import TruncatedSeries
from .errors import BadReduction, ArithJetError

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
ELLIPTIC = "elliptic"
KERNEL = "kernel"


def parse_curve(spec: str) -> tuple[int, int, int, int, int]:
    """Parse "a4,a6" (short form) or "a1,a2,a3,a4,a6"."""
    parts = [s.strip() for s in spec.split(",")]
    try:
        nums = [int(s) for s in parts]
    except ValueError as e:
        raise ArithJetError(f"curve spec {spec!r} must be integers") from e
    if len(nums) == 2:
        return (0, 0, 0, nums[0], nums[1])
    if len(nums) == 5:
        return tuple(nums)
    raise ArithJetError("curve spec needs 2 (a4,a6) or 5 (a1,..,a6) integers")


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Z_p, good reduction."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    ctx: Context

    def __post_init__(self):
        if self.discriminant % self.ctx.p == 0:
            raise BadReduction(
                f"discriminant {self.discriminant} vanishes mod {self.ctx.p}")

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def is_short(self) -> bool:
        return self.a1 == self.a2 == self.a3 == 0

    @cached_property
    def invariants(self) -> "CurveInvariants":
        """a_p, #E(F_p) and ordinarity, counted once per curve."""
        return count_points_ap(self)

    def label(self) -> str:
        if self.is_short:
            return f"{self.a4},{self.a6}"
        return f"{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}"


@dataclass(frozen=True)
class CurveInvariants:
    a_p: int
    point_count: int
    ordinary: bool


def count_points_ap(E: WeierstrassCurve) -> CurveInvariants:
    """Exhaustive point count of E(F_p) including infinity.

    Completing the square (p odd) reduces each fiber to one Legendre
    symbol: #roots of Y^2 = (a1 x + a3)^2 + 4 f(x).
    """
    p = E.ctx.p
    if p > 10 ** 5:
        raise ArithJetError("brute-force counting capped at p <= 10^5")
    squares = {(y * y) % p for y in range(p)}
    count = 1  # point at infinity
    for x in range(p):
        f = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
        d = ((E.a1 * x + E.a3) ** 2 + 4 * f) % p
        if d == 0:
            count += 1
        elif d in squares:
            count += 2
    a_p = p + 1 - count
    if a_p * a_p > 4 * p:
        raise ArithJetError(f"Hasse bound violated: a_p = {a_p}")
    return CurveInvariants(a_p=a_p, point_count=count, ordinary=a_p % p != 0)


class FormalGroupLaw:
    """One-dimensional formal group law with its logarithm.

    kind in {additive, multiplicative, elliptic, kernel}.  ``law`` is
    F(t1, t2) truncated at total degree M; ``log`` satisfies
    log(F(t1,t2)) = log(t1) + log(t2) with linear coefficient 1; ``exp``
    is its reversion (computed on demand).  ``deep_log_cache`` holds the
    longest [b_1, ...] of log coefficients computed beyond M so far (see
    characters.deep_log_coefficients).  ``log_projection_cache`` holds
    the log projections L_0, L_1, ... built so far, L_i = log(w_i) on its
    own variables (x0..xi) (see characters.log_projections).
    """

    def __init__(self, ctx: Context, kind: str, law_builder, log: TruncatedSeries,
                 curve: WeierstrassCurve | None = None):
        self.ctx = ctx
        self.kind = kind
        self._law_builder = law_builder
        self.log = log
        self.curve = curve
        self.deep_log_cache: list[PadicRational] = []
        self.log_projection_cache: list[TruncatedSeries] = []

    @cached_property
    def law(self) -> TruncatedSeries:
        return self._law_builder()

    @cached_property
    def exp(self) -> TruncatedSeries:
        return self.log.reversion()

    # -- constructors -----------------------------------------------------

    @classmethod
    def additive(cls, ctx: Context) -> "FormalGroupLaw":
        t = TruncatedSeries.variable(ctx, ("t",), "t")

        def build():
            t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
            t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
            return t1 + t2

        return cls(ctx, ADDITIVE, build, log=t)

    @classmethod
    def multiplicative(cls, ctx: Context) -> "FormalGroupLaw":
        log = TruncatedSeries(ctx, ("t",), {
            (k,): b for k, b in
            enumerate(multiplicative_log_coefficients(ctx, ctx.M), 1)})

        def build():
            t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
            t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
            return t1 + t2 + t1 * t2

        return cls(ctx, MULTIPLICATIVE, build, log=log)

    @classmethod
    def from_kernel_law(cls, ctx: Context, law: TruncatedSeries,
                        log: TruncatedSeries) -> "FormalGroupLaw":
        return cls(ctx, KERNEL, lambda: law, log=log)


def multiplicative_log_coefficients(ctx: Context,
                                    deg: int) -> list[PadicRational]:
    """[b_1, ..., b_deg] of log(1 + t): b_k = (-1)^(k+1)/k."""
    return [PadicRational.from_int(ctx, (-1) ** (k + 1))
            / PadicRational.from_int(ctx, k) for k in range(1, deg + 1)]


def _w_coefficients(E: WeierstrassCurve, deg: int,
                    mod: int | None = None) -> tuple[list[int], list[int]]:
    """Coefficients [t^0..t^deg] of w(t) = t^3(1 + ...) and of w(t)^2,
    exact, or reduced into [0, mod) when mod is given.

    w is the root of

        Phi(w) = w - t^3 - a1 t w - a2 t^2 w - a3 w^2 - a4 t w^2 - a6 w^3,

    found by Newton iteration w <- w - Phi(w)/Phi'(w) on integer
    polynomials.  Phi'(w) has constant term 1, so the division is exact
    over Z, and each step doubles the number of correct coefficients
    (w = t^3 is right mod t^4).  The result is the exact w(t) mod t^(deg+1)
    (mod `mod`), so it does not depend on how it was computed.
    """
    n = deg + 1
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    w = [0] * min(n, 3) + [1] * (n > 3)
    while len(w) < n:
        j = len(w)  # w is right mod t^j (j >= 4), so Phi(w) = O(t^j)
        k = min(2 * j, n)
        w = w + [0] * (k - j)
        w2 = _intpoly.mul(w, w, k, mod)
        w3 = _intpoly.mul(w2, w, k, mod)
        tw, t2w, tw2 = [0] + w[:-1], [0, 0] + w[:-2], [0] + w2[:-1]
        phi = [x - a1 * y - a2 * z - a3 * u - a4 * v - a6 * s
               for x, y, z, u, v, s in zip(w[j:], tw[j:], t2w[j:], w2[j:],
                                           tw2[j:], w3[j:])]
        # Phi(w)/Phi'(w) mod t^k needs Phi'(w) only mod t^(k-j)
        dphi = [-2 * a3 * x - 2 * a4 * y - 3 * a6 * u
                for x, y, u in zip(w[:max(k - j, 3)], tw, w2)]
        dphi[0] += 1
        dphi[1] -= a1
        dphi[2] -= a2
        step = _intpoly.mul(phi, _intpoly.inverse(dphi, k - j, mod), k - j, mod)
        w[j:] = [x - y for x, y in zip(w[j:], step)]
        if mod is not None:
            w = [x % mod for x in w]
    return w, _intpoly.mul(w, w, n, mod)


def _w_series(E: WeierstrassCurve, deg: int) -> TruncatedSeries:
    """w(t) to total degree deg."""
    ctx = E.ctx.with_degree(deg)
    coeffs, _ = _w_coefficients(E, deg)
    return TruncatedSeries(ctx, ("t",),
                           {(k,): c for k, c in enumerate(coeffs) if c})


def elliptic_log_coefficients(E: WeierstrassCurve, deg: int,
                              digits: int | None = None) -> list[PadicRational]:
    """[b_1, ..., b_deg]: coefficients of the formal logarithm, from
    integer polynomials mod p^digits (fast enough for the deep Frobenius
    tower).

    log' = P = (w - t w') / (w (-2 + a1 t + a3 w)); both sides of the
    fraction are divisible by t^3 and the shifted denominator has unit
    constant term -2, so P = num * den^(-1) mod (p^digits, t^(deg+1)) with
    a Newton inverse, and b_j = P_(j-1)/j.  P is unique mod p^digits, so
    every b_j is P_(j-1)/j known to exactly digits absolute digits before
    the division (relative precision digits - v(P_(j-1))), whatever
    algorithm found P.  digits defaults to N plus the number of p-power
    denominators j can carry.
    """
    ctx = E.ctx
    if digits is None:
        j, t = 0, 1
        while t < deg:
            t *= ctx.p
            j += 1
        digits = ctx.N + j
    mod = ctx.pk(digits)
    w, w2 = _w_coefficients(E, deg + 3, mod=mod)
    # numerator (w - t w')/t^3: coefficient (1-j) w_j at t^j, shifted by 3
    num = [((-2 - k) * w[k + 3]) % mod for k in range(deg + 1)]
    # denominator w(-2 + a1 t + a3 w)/t^3
    den = [(-2 * w[k + 3] + E.a1 * w[k + 2] + E.a3 * w2[k + 3]) % mod
           for k in range(deg + 1)]
    P = _intpoly.mul(num, _intpoly.inverse(den, deg + 1, mod), deg + 1, mod)
    out = []
    for j in range(1, deg + 1):
        # b_j = P_(j-1)/j = (P_(j-1)/p^v) * u^(-1) for j = u p^v
        v = vp(j, ctx.p)
        b = PadicRational(ctx, P[j - 1], -v, digits)
        if b.unit:
            b = b * PadicRational(ctx, pow(j // ctx.pk(v), -1, mod), 0, digits)
        out.append(b)
    return out


def formal_group_from_curve(E: WeierstrassCurve) -> FormalGroupLaw:
    """Formal group of E at the origin.

    The log is elliptic_log_coefficients(E, M) with each coefficient capped
    at relative precision N and the series absprec N, so a zero
    coefficient, left out, is O(p^N).  Without these bounds the longer
    claims reach the isocrystal unearned: the CL eigenvalue of
    y^2 = x^3 - x at p = 5, N = 8, M = 35 then claims 9 digits and holds 6."""
    ctx = E.ctx
    if ctx.M < 4:
        raise ArithJetError("elliptic formal group needs M >= 4")
    log = TruncatedSeries(ctx, ("t",), {
        (k,): PadicRational(ctx, b.unit, b.val, min(b.rel, ctx.N))
        for k, b in enumerate(elliptic_log_coefficients(E, ctx.M), 1) if b.unit},
        ctx.N)

    def build_law() -> TruncatedSeries:
        w = _w_series(E, ctx.M + 4)
        v = ("t1", "t2")
        t1 = TruncatedSeries.variable(ctx, v, "t1")
        t2 = TruncatedSeries.variable(ctx, v, "t2")
        # divided-difference slope of the chord, exact (no division):
        # lambda = sum_k A_k * sum_{i+j=k-1} t1^i t2^j
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
        w1 = w.compose([t1])
        nu = w1 - lam * t1
        c3 = (TruncatedSeries.const(ctx, v, 1) + lam.scale(E.a2)
              + (lam * lam).scale(E.a4) + (lam ** 3).scale(E.a6))
        c2 = (lam.scale(E.a1) + nu.scale(E.a2) + (lam * lam).scale(E.a3)
              + (lam * nu).scale(2 * E.a4) + (lam * lam * nu).scale(3 * E.a6))
        t3 = -t1 - t2 - c2 * c3.inverse()
        if E.a1 == 0 and E.a3 == 0:
            return -t3
        # inversion series i(t) = -t * (1 - a1 t - a3 w(t))^(-1)
        ts = TruncatedSeries.variable(ctx, ("t",), "t")
        wt = TruncatedSeries(ctx, ("t",), dict(w.coeffs), w.absprec)
        inv_series = (-ts) * (TruncatedSeries.const(ctx, ("t",), 1)
                              - ts.scale(E.a1) - wt.scale(E.a3)).inverse()
        return inv_series.compose([t3])

    return FormalGroupLaw(ctx, ELLIPTIC, build_law, log=log, curve=E)


def multiplication_by(F: FormalGroupLaw, m: int) -> TruncatedSeries:
    """[m](t), the multiplication-by-m series of the law."""
    if m < 1:
        raise ArithJetError("m >= 1 required")
    t = TruncatedSeries.variable(F.ctx, ("t",), "t")
    acc = t
    for _ in range(m - 1):
        acc = F.law.compose([acc, t])
    return acc
