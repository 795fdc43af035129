"""Arithmetic jet spaces J^nG in Witt coordinates, n <= 2.

A point of J^nG near the identity has Witt coordinates (x_0,...,x_n); the
group law is the base formal group law F evaluated through the Witt ring
of the coordinate ring, computed here on the ghost side: apply F to each
ghost coordinate and solve the components back with arithjet.ghost's
ghost_solve (divisions by p^i are valuation shifts over Q_p
coefficients).  Symbolic ghosts are arithjet.ghost's ghost_map on
coordinate series (ghost_series, which claims N+i digits for w_i);
numeric points use ghost_map directly.

ghost_solve's powers a^(p^k) of the components are the costly part;
their squarings run on int terms, building PadicRationals once, for the
result (arithjet.series).  jet_group_law builds the ghosts
F(w_i(x), w_i(y)) on all of J^n's variables (x0..xn, y0..yn), one level
at a time (ghost_compose: F composed with the ghost polynomials, which
the compose expands by the multinomial theorem), and keeps them in
JetGroupLaw.ghosts beside the components they solve to.  One
verify_jet_identities builds J^2 once, and lateral-homomorphism reads
the level-1 ghost of N^1's jet law (f is w_1 on (x1, x2)), so each level
of F's law and of N^1's is built once.

N^1 = ker(J^1G -> G) needs no compose, only p-scaling: its law is
(1/p) F(p t1, p t2) and its log is Psi_1 = (1/p) log_G(p t), so the t^e
coefficient of either is F's times p^(|e|-1).

Structural maps, all formal-group independent in these coordinates:

* u (projection) drops the last coordinate;
* phi^i : J^n -> J^(n-i) is the Witt Frobenius coordinate map, whose base
  coordinate is the ghost polynomial w_i;
* iota : N^n -> J^n prepends a zero coordinate;
* the lateral Frobenius f : N^(m) -> N^(m-1) is, under the canonical
  identification N^m = J^(m-1)(N^1G) (coordinates match up literally),
  again a Witt Frobenius coordinate map, here on (x_1,...,x_m).

verify_jet_identities checks the kernel identification, f as a kernel
homomorphism, the identity section, and at sampled points commutativity,
associativity and phi as a homomorphism, each reported with the residual
valuation achieved.  What these coordinates fix by construction (phi-fra,
phi o iota = p, the ghost round trip, the base reduction) is left to tests.
"""

import random

from .context import Context, Record
from .padic import PadicRational
from .series import TruncatedSeries, _unit_exponent
from .formalgroup import FormalGroupLaw
from .errors import ArithJetError, LengthMismatch
from .ghost import ghost_map, ghost_solve

_INF = float("inf")

JET_LEVEL_CAP = 2


def jet_variables(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(f"x{i}" for i in range(n + 1)), tuple(f"y{i}" for i in range(n + 1))


def ghost_series(ctx: Context, variables, names, i: int) -> TruncatedSeries:
    """w_i of the coordinates (x_0, ..., x_i) named by names[:i+1], inside
    a larger variable tuple; each coordinate's coefficient 1 claims N+i
    digits.  VariableMismatch names a coordinate outside variables."""
    variables = tuple(variables)
    coords = []
    for name in names[:i + 1]:
        coords.append(TruncatedSeries(ctx, variables, {
            _unit_exponent(variables, name): PadicRational(ctx, 1, 0, ctx.N + i)}))
    return ghost_map(ctx.p, coords, TruncatedSeries.shift)[i]


def ghost_compose(G: TruncatedSeries, variables, blocks, i: int) -> TruncatedSeries:
    """G(w_i(b_1), ..., w_i(b_r)) on variables, with one block of
    coordinate names b_j = (x_0, x_1, ...) per variable of G: every jet
    law ghost and every log projection L_i.  The terms p^m x_m^(p^(i-m))
    of the ghost polynomials within the cap are powers of distinct
    coordinates (x_0 alone at level 0), so the compose expands G by the
    multinomial theorem."""
    return G.compose([ghost_series(G.ctx, variables, b, i) for b in blocks])


class JetGroupLaw(Record, frozen=True):
    """law: the components of the J^n law; ghosts: the series
    F(w_i(x), w_i(y)) they are ghost-solved from, i = 0..n."""
    law: tuple[TruncatedSeries, ...]
    ghosts: tuple[TruncatedSeries, ...]


def jet_group_law(F: FormalGroupLaw, n: int) -> JetGroupLaw:
    """Group law of J^nG in Witt coordinates (x_0..x_n) * (y_0..y_n), with
    the ghosts on all of J^n's variables (ghost_compose)."""
    if not 0 <= n <= JET_LEVEL_CAP:
        raise ArithJetError(f"jet level n = {n}: need 0 <= n <= {JET_LEVEL_CAP}")
    xs, ys = jet_variables(n)
    allv = xs + ys
    ghosts = [ghost_compose(F.law, allv, (xs, ys), i) for i in range(n + 1)]
    comps = ghost_solve(F.ctx.p, ghosts, TruncatedSeries.shift)
    return JetGroupLaw(law=tuple(comps), ghosts=tuple(ghosts))


def kernel_law(J: JetGroupLaw) -> tuple[TruncatedSeries, ...]:
    """Substitute x_0 = y_0 = 0 in the jet law: the group law of N^n."""
    return tuple(c.set_zero(["x0", "y0"]) for c in J.law[1:])


def _scale_by_p(f: TruncatedSeries, variables) -> TruncatedSeries:
    """(1/p) f(p t) on the given variables: the coefficient of t^e times
    p^(|e|-1), with f's series absprec."""
    return TruncatedSeries(f.ctx, variables,
                           {e: c.shift(sum(e) - 1) for e, c in f.coeffs.items()},
                           f.absprec)


def psi1_series(F: FormalGroupLaw, var: str = "x1") -> TruncatedSeries:
    """Fundamental character series (1/p) log_G(p*x) on the kernel coordinate;
    its x^k coefficient b_k p^(k-1) is integral, as b_k lies in (1/k)Z_p."""
    return _scale_by_p(F.log, (var,))


def n1_group(F: FormalGroupLaw) -> FormalGroupLaw:
    """N^1 G as a one-dimensional formal group: its law is
    (1/p) F(p t1, p t2), its log is Psi_1."""
    return FormalGroupLaw.from_kernel_law(
        F.ctx, _scale_by_p(F.law, ("t1", "t2")), psi1_series(F, "t"))


def witt_frobenius_series(ctx: Context, names, power: int = 1
                          ) -> list[TruncatedSeries]:
    """Coordinates of F^power on Witt vectors with the given coordinate
    names: ghost-invert (w_power, ..., w_top).  The base coordinate of the
    result is exactly the ghost polynomial w_power."""
    names = tuple(names)
    n = len(names) - 1
    if power < 1 or power > n:
        raise ArithJetError("need 1 <= power <= length-1")
    ghosts = [ghost_series(ctx, names, names, i) for i in range(power, n + 1)]
    return ghost_solve(ctx.p, ghosts, TruncatedSeries.shift)


def lateral_frobenius_map(ctx: Context, m: int) -> list[TruncatedSeries]:
    """Coordinate series of f : N^m -> N^(m-1) in variables (x_1..x_m),
    i.e. the Witt Frobenius of W_(m-1) under N^m = J^(m-1)(N^1)."""
    names = tuple(f"x{i}" for i in range(1, m + 1))
    return witt_frobenius_series(ctx, names, power=1)


# -- numeric point helpers --------------------------------------------------


def random_jet_point(ctx: Context, n: int, rng: random.Random) -> list[PadicRational]:
    """Witt coordinates in p*Z_p (topologically nilpotent region)."""
    return [PadicRational.from_int(ctx, ctx.p * rng.randrange(1, ctx.pk(ctx.N - 1)))
            for _ in range(n + 1)]


def jet_point_product(F: FormalGroupLaw, a, b) -> list[PadicRational]:
    """Group product of two numeric jet points via the ghost construction;
    the ghosts of a and b are capped at O(p^(N+n))."""
    if len(a) != len(b):
        raise LengthMismatch(f"jet points of lengths {len(a)} and {len(b)}")
    ctx = F.ctx
    cap = PadicRational.zero(ctx, ctx.N + len(a) - 1)
    ga, gb = ([g + cap for g in ghost_map(ctx.p, v, PadicRational.shift)]
              for v in (a, b))
    ghosts = [F.law.evaluate({"t1": x, "t2": y}) for x, y in zip(ga, gb)]
    return ghost_solve(ctx.p, ghosts, PadicRational.shift)


def lateral_frobenius_point(p: int, xs) -> list[int]:
    """f(x) for an integer point x = (x_1..x_m) of N^m: the Witt Frobenius
    over Z, exactly (ghost_solve of the ghosts w_1..w_(m-1) of x; each
    division by p^i is exact since the Witt Frobenius is integral)."""
    def shift(a, k):
        return a * p ** k if k >= 0 else a // p ** -k

    return ghost_solve(p, ghost_map(p, list(xs), shift)[1:], shift)


# -- identity verification ---------------------------------------------------


class JetCheck(Record):
    """One identity's residual valuation against the threshold it must meet."""

    name: str
    residual_valuation: float
    threshold: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual_valuation >= self.threshold


class JetIdentityReport(Record):
    """The identity checks of one group's jet spaces at one context."""

    group: str
    ctx: Context
    checks: list[JetCheck] = None

    def __post_init__(self):
        self.checks = [] if self.checks is None else self.checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, resid, threshold, note=""):
        self.checks.append(JetCheck(name, resid, threshold, note))


def _min_resid(series_list) -> float:
    vals = [s.residual_valuation() for s in series_list]
    return min(vals, default=_INF)


def _point_resid(xs, ys) -> float:
    """Fewest digits to which two sampled jet points agree."""
    return min((x - y).val for x, y in zip(xs, ys))


def verify_jet_identities(F: FormalGroupLaw, samples: int = 8,
                          seed: int = 0) -> JetIdentityReport:
    """Run the structural identity suite for a formal group at n <= 2."""
    if samples < 1:
        raise ArithJetError(f"samples = {samples}: the sampled checks need "
                            "at least one point")
    ctx = F.ctx
    rep = JetIdentityReport(group=F.kind, ctx=ctx)
    thr = ctx.N - 2
    rng = random.Random(seed)

    J2 = jet_group_law(F, 2)
    K2 = kernel_law(J2)
    f = lateral_frobenius_map(ctx, 2)[0]
    xs, ys = jet_variables(2)

    # (b) kernel identification N^2 = J^1(N^1): transported laws agree
    N1 = n1_group(F)
    JN1 = jet_group_law(N1, 1)
    relabel = ("x1", "x2", "y1", "y2")
    transported = [c.rename(relabel) for c in JN1.law]
    resid = _min_resid([a - b for a, b in zip(K2, transported)])
    rep.add("kernel-identification", resid, thr,
            "kernel law of J^2 = jet law of N^1 under coordinate match")

    # (e) lateral Frobenius is a homomorphism of kernel laws; N1.law is
    #     the kernel law of N^1 and f is w_1 on (x1, x2), so N1.law(f, f)
    #     is the level-1 ghost compose of N^1's jet law in (x1, x2, y1, y2)
    lhs = f.compose(list(K2))
    rhs = JN1.ghosts[1].rename(relabel)
    rep.add("lateral-homomorphism", (lhs - rhs).residual_valuation(), thr)

    # (g) jet law identity section: law(x, 0) = x
    resid = _min_resid([
        J2.law[i].set_zero(ys) - TruncatedSeries.variable(ctx, xs, xs[i])
        for i in range(3)
    ])
    rep.add("identity-section", resid, thr)

    # (i) numeric group-law checks at n = 2: commutativity, associativity,
    #     and phi homomorphism on sampled points
    phi_series = witt_frobenius_series(ctx, xs, power=1)
    worst_comm = worst_assoc = worst_phi = _INF
    for _ in range(samples):
        a = random_jet_point(ctx, 2, rng)
        b = random_jet_point(ctx, 2, rng)
        c = random_jet_point(ctx, 2, rng)
        ab = jet_point_product(F, a, b)
        ba = jet_point_product(F, b, a)
        worst_comm = min(worst_comm, _point_resid(ab, ba))
        abc1 = jet_point_product(F, ab, c)
        abc2 = jet_point_product(F, a, jet_point_product(F, b, c))
        worst_assoc = min(worst_assoc, _point_resid(abc1, abc2))
        lhs_pts, pa, pb = ([s.evaluate(dict(zip(xs, pt))) for s in phi_series]
                           for pt in (ab, a, b))
        rhs_pts = jet_point_product(F, pa, pb)
        worst_phi = min(worst_phi, _point_resid(lhs_pts, rhs_pts))
    rep.add("commutativity-sampled", worst_comm, thr, f"{samples} random pairs")
    rep.add("associativity-sampled", worst_assoc, thr, f"{samples} random triples")
    rep.add("phi-homomorphism-J2-sampled", worst_phi, thr, f"{samples} random pairs")

    return rep
