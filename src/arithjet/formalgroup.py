"""Formal group laws: additive, multiplicative, and elliptic.

An elliptic curve in long Weierstrass form is completed at the origin in
the parameter t = -x/y, w = -1/y.  w(t) is the root of

    w = t^3 + a1*t*w + a2*t^2*w + a3*w^2 + a4*t*w^2 + a6*w^3,

found by Newton iteration on integer polynomials (_w_coefficients); the
chord construction through (t1, w(t1)), (t2, w(t2)) gives the group law
F(t1, t2).  The formal logarithm integrates the normalized invariant
differential, which in these parameters is dt/G_w for the curve
G(t, w) = w - t^3 - ... = 0 (Silverman, AEC, ch. IV.1): log' = 1/G_w(t, w(t)),
the inverse that the same Newton iteration for w refines at every step.
The log has one route: elliptic_log_coefficients computes it mod
p^digits on integers, the deep Frobenius tower reads the coefficients
it needs as they are, and
formal_group_from_curve caps it at relative precision N for F.log.  The
law is computed lazily (the character solver only consumes the
logarithm).

Point counts over F_p are exhaustive (one quadratic per x), made once per
curve (WeierstrassCurve.invariants), giving the trace a_p that
characters.check_point_count and characters._honda_character read, and
the ordinarity that canonical_lift_test checks its own against.
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
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ArithJetError(f"coefficient {name} = {value!r} is not an int")
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

    @cached_property
    def invariants(self) -> "CurveInvariants":
        """a_p, #E(F_p) and ordinarity, counted once per curve."""
        return count_points_ap(self)


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

    kind in {additive, multiplicative, elliptic, kernel}; a kernel group
    is N^1 of a jet space, F's law and log scaled by p (jet.n1_group).
    ``law`` is F(t1, t2) truncated at total degree M; ``log`` satisfies
    log(F(t1,t2)) = log(t1) + log(t2) with linear coefficient 1.
    ``deep_log_cache`` holds the log coefficients beyond M that the
    character solver reads, as the dict {k: b_k} over just those k, built
    once (see characters.deep_log_coefficients).
    ``log_projection_cache`` holds the log projections L_i = log(w_i)
    built so far, each on (x0..xi), for character jet series and kernel
    projections (characters.log_projections); the solver never reads it.
    Each L_i is built by jet.ghost_compose.
    ``kernel_projection_cache`` holds the kernel projections
    Lbar_j = L_j(0, x1..xj) built so far, as the dict {j: Lbar_j} on
    (x1..xj), each restricted from L_j once
    (characters.kernel_log_projection).
    """

    def __init__(self, ctx: Context, kind: str, law_builder, log: TruncatedSeries,
                 curve: WeierstrassCurve | None = None):
        self.ctx = ctx
        self.kind = kind
        self._law_builder = law_builder
        self.log = log
        self.curve = curve
        self.deep_log_cache: dict[int, PadicRational] = {}
        self.log_projection_cache: list[TruncatedSeries] = []
        self.kernel_projection_cache: dict[int, TruncatedSeries] = {}

    @cached_property
    def law(self) -> TruncatedSeries:
        return self._law_builder()

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
            multiplicative_log_coefficients(ctx, range(1, ctx.M + 1)).items()})

        def build():
            t1 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t1")
            t2 = TruncatedSeries.variable(ctx, ("t1", "t2"), "t2")
            return t1 + t2 + t1 * t2

        return cls(ctx, MULTIPLICATIVE, build, log=log)

    @classmethod
    def from_kernel_law(cls, ctx: Context, law: TruncatedSeries,
                        log: TruncatedSeries) -> "FormalGroupLaw":
        return cls(ctx, KERNEL, lambda: law, log=log)


def _log_coefficient(ctx: Context, P: int, j: int, digits: int) -> PadicRational:
    """b_j = P_(j-1)/j for the integer P = P_(j-1) known mod p^digits: for
    j = u p^v, P u^(-1) mod p^digits over p^v."""
    v = vp(j, ctx.p)
    mod = ctx.pk(digits)
    return PadicRational(ctx, P * pow(j // ctx.pk(v), -1, mod), -v, digits)


def multiplicative_log_coefficients(ctx: Context,
                                    indices) -> dict[int, PadicRational]:
    """{k: b_k} for k in `indices`, b_k = (-1)^(k+1)/k the coefficients of
    log(1 + t), i.e. P_(k-1) = (-1)^(k-1): the triple that PadicRational
    division of +-1 by k gives."""
    return {k: _log_coefficient(ctx, 1 if k % 2 else -1, k, ctx.N)
            for k in indices}


def _w_coefficients(E: WeierstrassCurve, deg: int,
                    mod: int | None = None) -> tuple[list[int], list[int]]:
    """Coefficients [t^0..t^deg] of w(t) = t^3(1 + ...) and of
    1/Phi'(w(t)), exact, or reduced into [0, mod) when mod is given.

    w is the root of

        Phi(w) = w - t^3 - a1 t w - a2 t^2 w - a3 w^2 - a4 t w^2 - a6 w^3,

    found by Newton iteration w <- w - Phi(w) g on integer polynomials,
    with g = 1/Phi'(w) refined alongside by one Newton step
    g <- g - g (Phi'(w) g - 1) per step of w (the coupled iteration of
    Brent-Kung, J. ACM 1978).  Phi'(w) has constant term 1, so g is
    integral, and each step at most doubles the number of correct
    coefficients of both (w = t^3 is right mod t^4, g = 1 + a1 t mod
    t^2); the lengths climb _intpoly.newton_schedule(deg + 1, 4),
    7, 13, ..., 1563, 3126 for deg = 3125.  Phi' is the partial
    derivative G_w of the curve's equation G(t, w) = Phi(w), and
    dt/G_w(t, w(t)) is the invariant differential
    (Silverman, AEC, ch. IV.1), so the second output is log'.  Both are
    the exact series mod t^(deg+1) (mod `mod`), so they do not depend on
    how they were computed.
    """
    n = deg + 1
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6

    def dphi(w, w2, k):  # Phi'(w) mod t^k; w, w^2 and t w vanish mod t^3
        return ([1, -a1, -a2] + [-2 * a3 * x - 2 * a4 * y - 3 * a6 * u
                                 for x, y, u in zip(w[3:k], w[2:], w2[3:])])[:k]

    w = [0] * min(n, 3) + [1] * (n > 3)
    g = [1, a1 if mod is None else a1 % mod]
    for k in _intpoly.newton_schedule(n, len(w)):
        j = len(w)  # w is right mod t^j (j >= 4), so Phi(w) = O(t^j)
        w = w + [0] * (k - j)
        w2 = _intpoly.mul(w, w, k, mod)
        w3 = _intpoly.mul(w2, w, k, mod) if a6 else [0] * k
        tw, t2w, tw2 = [0] + w[:-1], [0, 0] + w[:-2], [0] + w2[:-1]
        phi = [x - a1 * y - a2 * z - a3 * u - a4 * v - a6 * s
               for x, y, z, u, v, s in zip(w[j:], tw[j:], t2w[j:], w2[j:],
                                           tw2[j:], w3[j:])]
        # Phi'(w) is right mod t^j; g was right mod t^ceil(j/2) (t^2 at first)
        g = _intpoly.newton_inverse_step(dphi(w, w2, j), g, j, mod)
        step = _intpoly.mul(phi, g, k - j, mod)
        w[j:] = [x - y for x, y in zip(w[j:], step)]
        if mod is not None:
            w = [x % mod for x in w]
    # g is right mod t^j >= t^(n/2) (or mod t^2 when n <= 4)
    w2 = _intpoly.mul(w, w, n, mod)
    return w, _intpoly.newton_inverse_step(dphi(w, w2, n), g, n, mod)


def elliptic_log_coefficients(E: WeierstrassCurve, indices,
                              digits: int | None = None) -> dict[int, PadicRational]:
    """{j: b_j} for j in `indices`: coefficients of the formal logarithm,
    from integer polynomials mod p^digits (fast enough for the deep
    Frobenius tower).  Only the listed b_j are built, so a reader that
    needs few of them (the x0 tower rows of the character solver) pays for
    few PadicRationals; reading any other index raises KeyError.

    log' = P = 1/G_w(t, w(t)), the invariant differential dt/G_w of the
    curve G(t, w) = 0 in the parameters of _w_coefficients (Silverman,
    AEC, ch. IV.1): its second output, mod (p^digits, t^deg) for deg the
    largest index.  Then b_j = P_(j-1)/j.  P is unique mod p^digits, so
    every b_j is P_(j-1)/j known to exactly digits absolute digits before
    the division (relative precision digits - v(P_(j-1))), whatever
    algorithm found P.  digits defaults to N plus the number of p-power
    denominators j can carry.
    """
    ctx = E.ctx
    deg = max(indices, default=0)
    if digits is None:
        j, t = 0, 1
        while t < deg:
            t *= ctx.p
            j += 1
        digits = ctx.N + j
    mod = ctx.pk(digits)
    _, P = _w_coefficients(E, max(deg - 1, 0), mod=mod)
    return {j: _log_coefficient(ctx, P[j - 1], j, digits) for j in indices}


def _chord(E: WeierstrassCurve) -> tuple[TruncatedSeries, TruncatedSeries]:
    """w(t1) and the chord slope (w(t2) - w(t1))/(t2 - t1) on (t1, t2) to
    degree M, exact and without a division: from the coefficients A_k of
    w they are the tables {t1^k: A_k} and {t1^i t2^j: A_(i+j+1)}."""
    ctx = E.ctx
    A, _ = _w_coefficients(E, ctx.M + 1)
    v = ("t1", "t2")
    return (TruncatedSeries(ctx, v, {(k, 0): a for k, a in enumerate(A)}),
            TruncatedSeries(ctx, v, {(i, d - i): a for d, a in enumerate(A[1:])
                                     for i in range(d + 1)}))


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
        for k, b in elliptic_log_coefficients(E, range(1, ctx.M + 1)).items()
        if b.unit},
        ctx.N)

    def build_law() -> TruncatedSeries:
        w1, lam = _chord(E)
        v = ("t1", "t2")
        t1 = TruncatedSeries.variable(ctx, v, "t1")
        t2 = TruncatedSeries.variable(ctx, v, "t2")
        nu = w1 - lam * t1
        c3 = (TruncatedSeries.const(ctx, v, 1) + lam.scale(E.a2)
              + (lam * lam).scale(E.a4) + (lam ** 3).scale(E.a6))
        c2 = (lam.scale(E.a1) + nu.scale(E.a2) + (lam * lam).scale(E.a3)
              + (lam * nu).scale(2 * E.a4) + (lam * lam * nu).scale(3 * E.a6))
        t3 = -t1 - t2 - c2 * c3.inverse()
        if E.a1 == 0 and E.a3 == 0:
            return -t3
        # the inverse -t / (1 - a1 t - a3 w(t)) at t3, whose w(t3) is the
        # chord's lam t3 + nu, as the third point lies on it
        return (-t3) * (TruncatedSeries.const(ctx, v, 1) - t3.scale(E.a1)
                        - (lam * t3 + nu).scale(E.a3)).inverse()

    return FormalGroupLaw(ctx, ELLIPTIC, build_law, log=log, curve=E)

