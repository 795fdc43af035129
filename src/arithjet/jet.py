"""Arithmetic jet spaces J^nG in Witt coordinates, n <= 2.

A point of J^nG near the identity has Witt coordinates (x_0,...,x_n); the
group law is the base formal group law F evaluated through the Witt ring
of the coordinate ring, computed here on the ghost side: apply F to each
ghost coordinate and solve the components back with arithjet.ghost's
ghost_solve (divisions by p^i are valuation shifts over Q_p
coefficients).  Symbolic ghosts are arithjet.ghost's ghost_map on
coordinate series (ghost_series, which claims N+i digits for w_i);
numeric points use ghost_map directly.

The composes F(w_i(x), w_i(y)) are the costly part, and each is made
once per group: F.ghost_law_cache keeps entry i on its own variables
(x0..xi, y0..yi), and jet_group_law extends the entries it needs.  So
J^2 reuses J^1's levels, and two checks of verify_jet_identities read
the cache for their right-hand sides: phi-homomorphism-J1 reads F's
entry 1, and lateral-homomorphism reads the N^1 group's entry 1 (f is
w_1 on (x1, x2)).  truncation-functorial then compares two ghost solves
of the same composes, and reads inf by construction.  One verify
composes F's law 3 times (levels 0-2) and N^1's twice.

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

verify_jet_identities checks phi-fra (phi^2 o iota = phi o iota o f), the
kernel identification, phi o iota = multiplication by p on the kernel
coordinate, truncation functoriality, and homomorphism properties, each
reported with the residual valuation actually achieved.
"""

import random
from dataclasses import dataclass, field

from .context import Context
from .padic import PadicRational
from .series import TruncatedSeries
from .formalgroup import FormalGroupLaw
from .errors import ArithJetError
from .ghost import ghost_map, ghost_solve

_INF = float("inf")

JET_LEVEL_CAP = 2


def jet_variables(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(f"x{i}" for i in range(n + 1)), tuple(f"y{i}" for i in range(n + 1))


def ghost_series(ctx: Context, variables, names, i: int) -> TruncatedSeries:
    """w_i of the coordinates (x_0, ..., x_i) named by names[:i+1], inside
    a larger variable tuple; each coordinate's coefficient 1 claims N+i
    digits."""
    variables = tuple(variables)
    coords = []
    for name in names[:i + 1]:
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        coords.append(TruncatedSeries(
            ctx, variables, {tuple(e): PadicRational(ctx, 1, 0, ctx.N + i)}))
    return ghost_map(ctx.p, coords, TruncatedSeries.shift)[i]


@dataclass(frozen=True)
class JetGroupLaw:
    n: int
    law: tuple[TruncatedSeries, ...]
    base: FormalGroupLaw

    @property
    def ctx(self) -> Context:
        return self.base.ctx


def _ghost_law_table(F: FormalGroupLaw, n: int) -> list[TruncatedSeries]:
    """F.ghost_law_cache filled to level n; entry i = F(w_i(x), w_i(y)) is
    composed once per group, on its own variables (x0..xi, y0..yi)."""
    table = F.ghost_law_cache
    for i in range(len(table), n + 1):
        xs, ys = jet_variables(i)
        allv = xs + ys
        table.append(F.law.compose([ghost_series(F.ctx, allv, xs, i),
                                    ghost_series(F.ctx, allv, ys, i)]))
    return table


def jet_group_law(F: FormalGroupLaw, n: int) -> JetGroupLaw:
    """Group law of J^nG in Witt coordinates (x_0..x_n) * (y_0..y_n)."""
    if n > JET_LEVEL_CAP:
        raise ArithJetError(f"jet level capped at n <= {JET_LEVEL_CAP}")
    xs, ys = jet_variables(n)
    ghosts = [g.extend(xs + ys) for g in _ghost_law_table(F, n)[:n + 1]]
    comps = ghost_solve(F.ctx.p, ghosts, TruncatedSeries.shift)
    return JetGroupLaw(n=n, law=tuple(comps), base=F)


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
    """Fundamental character series (1/p) log_G(p*x) on the kernel coordinate."""
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


def jet_frobenius(J: JetGroupLaw, i: int = 1) -> tuple[TruncatedSeries, ...]:
    """Coordinates of phi^i : J^n -> J^(n-i)."""
    if i not in (1, 2):
        raise ArithJetError("phi power must be 1 or 2")
    if i > J.n:
        raise ArithJetError("phi power exceeds jet level")
    xs, _ = jet_variables(J.n)
    return tuple(witt_frobenius_series(J.ctx, xs, power=i))


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


@dataclass
class JetCheck:
    name: str
    residual_valuation: float
    threshold: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual_valuation >= self.threshold


@dataclass
class JetIdentityReport:
    group: str
    ctx: Context
    checks: list[JetCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, resid, threshold, note=""):
        if resid is None:
            resid = _INF
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
    ctx = F.ctx
    rep = JetIdentityReport(group=F.kind, ctx=ctx)
    thr = ctx.N - 2
    rng = random.Random(seed)

    J1 = jet_group_law(F, 1)
    J2 = jet_group_law(F, 2)
    K2 = kernel_law(J2)
    f = lateral_frobenius_map(ctx, 2)[0]

    # (a) phi-fra: phi^2 o iota = phi o iota o f  (coordinate identity)
    phi2 = witt_frobenius_series(ctx, ("x0", "x1", "x2"), power=2)[0]
    rep.add("phi-fra", (phi2.set_zero(["x0"]) - f.shift(1)).residual_valuation(),
            thr, "phi^2 . iota = phi . iota . lateral")

    # (b) kernel identification N^2 = J^1(N^1): transported laws agree
    N1 = n1_group(F)
    JN1 = jet_group_law(N1, 1)
    relabel = ("x1", "x2", "y1", "y2")
    transported = [c.rename(relabel) for c in JN1.law]
    resid = _min_resid([a - b for a, b in zip(K2, transported)])
    rep.add("kernel-identification", resid, thr,
            "kernel law of J^2 = jet law of N^1 under coordinate match")

    # (c) phi o iota = multiplication by p on the kernel coordinate
    phi1 = witt_frobenius_series(ctx, ("x0", "x1"), power=1)[0]
    x1 = TruncatedSeries.variable(ctx, ("x1",), "x1")
    rep.add("phi-iota-mult-p",
            (phi1.set_zero(["x0"]) - x1.shift(1)).residual_valuation(), thr)

    # (d) truncation functoriality: u o law = law o (u, u)
    xs, ys = jet_variables(2)
    resid = _min_resid([
        J2.law[i] - J1.law[i].extend(xs + ys) for i in range(2)
    ])
    rep.add("truncation-functorial", resid, thr,
            "first two components of the J^2 law equal the J^1 law; both "
            "ghost-solve the same cached composes, so this reads inf")

    # (e) lateral Frobenius is a homomorphism of kernel laws; N1.law is
    #     the kernel law of N^1 and f is w_1 on (x1, x2), so N1.law(f, f)
    #     is N^1's cached level-1 ghost compose in (x1, x2, y1, y2)
    lhs = f.compose(list(K2))
    rhs = _ghost_law_table(N1, 1)[1].rename(("x1", "x2", "y1", "y2"))
    rep.add("lateral-homomorphism", (lhs - rhs).residual_valuation(), thr)

    # (f) phi homomorphism at n = 1 (symbolic): w_1 of the product against
    #     F(w_1(x), w_1(y)), F's cached level-1 ghost compose
    lhs = (J1.law[0] ** ctx.p) + J1.law[1].shift(1)
    rhs = _ghost_law_table(F, 1)[1]
    rep.add("phi-homomorphism-J1", (lhs - rhs).residual_valuation(), thr)

    # (g) jet law identity section: law(x, 0) = x
    resid = _min_resid([
        J2.law[i].set_zero(ys) - TruncatedSeries.variable(ctx, xs, xs[i])
        for i in range(3)
    ])
    rep.add("identity-section", resid, thr)

    # (h) reduction to the base law when higher coordinates vanish
    base = J2.law[0].set_zero(["x1", "x2", "y1", "y2"]).rename(("t1", "t2"))
    rep.add("base-reduction", (base - F.law).residual_valuation(), thr)

    # (i) numeric group-law checks at n = 2: commutativity, associativity,
    #     and phi homomorphism on sampled points
    phi_series = jet_frobenius(J2, 1)
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
