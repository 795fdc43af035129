"""Arithmetic jet spaces J^nG in Witt coordinates, n <= 2.

A point of J^nG near the identity has Witt coordinates (x_0,...,x_n); the
group law is the base formal group law F evaluated through the Witt ring
of the coordinate ring, computed here on the ghost side: apply F to each
ghost coordinate and solve the components back with arithjet.ghost's
ghost_solve (divisions by p^i are valuation shifts over Q_p
coefficients).  Symbolic ghosts come from ghost_series, which claims
N+i digits for w_i; numeric points use ghost_map.

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


def ghost_series(ctx: Context, variables, names, i: int,
                 start: int = 0) -> TruncatedSeries:
    """w_i over the listed coordinate names inside a larger variable tuple.

    With start=k the names are treated as coordinates (x_k, x_{k+1}, ...)
    all of whose earlier coordinates vanish, i.e. the j-th listed name
    carries weight p^(start+j) and exponent p^(i-start-j).
    """
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


@dataclass(frozen=True)
class JetGroupLaw:
    n: int
    law: tuple[TruncatedSeries, ...]
    base: FormalGroupLaw

    @property
    def ctx(self) -> Context:
        return self.base.ctx


@dataclass(frozen=True)
class KernelLaw:
    n: int
    law: tuple[TruncatedSeries, ...]
    base: FormalGroupLaw


def jet_group_law(F: FormalGroupLaw, n: int) -> JetGroupLaw:
    """Group law of J^nG in Witt coordinates (x_0..x_n) * (y_0..y_n)."""
    if n > JET_LEVEL_CAP:
        raise ArithJetError(f"jet level capped at n <= {JET_LEVEL_CAP}")
    ctx = F.ctx
    xs, ys = jet_variables(n)
    allv = xs + ys
    ghosts = []
    for i in range(n + 1):
        gx = ghost_series(ctx, allv, xs, i)
        gy = ghost_series(ctx, allv, ys, i)
        ghosts.append(F.law.compose([gx, gy]))
    comps = ghost_solve(ctx.p, ghosts, TruncatedSeries.shift)
    return JetGroupLaw(n=n, law=tuple(comps), base=F)


def kernel_law(J: JetGroupLaw) -> KernelLaw:
    """Substitute x_0 = y_0 = 0 in the jet law: the group law of N^n."""
    comps = [c.set_zero(["x0", "y0"]) for c in J.law[1:]]
    return KernelLaw(n=J.n, law=tuple(comps), base=J.base)


def kernel_law_direct(F: FormalGroupLaw, n: int) -> KernelLaw:
    """Group law of N^n computed on the restricted ghosts (x_0 = y_0 = 0)."""
    if n > JET_LEVEL_CAP:
        raise ArithJetError(f"jet level capped at n <= {JET_LEVEL_CAP}")
    ctx = F.ctx
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    allv = xs + ys
    ghosts = [TruncatedSeries.zero(ctx, allv)]
    for i in range(1, n + 1):
        gx = ghost_series(ctx, allv, xs, i, start=1)
        gy = ghost_series(ctx, allv, ys, i, start=1)
        ghosts.append(F.law.compose([gx, gy]))
    comps = ghost_solve(ctx.p, ghosts, TruncatedSeries.shift)
    return KernelLaw(n=n, law=tuple(comps[1:]), base=F)


def psi1_series(F: FormalGroupLaw, var: str = "x1") -> TruncatedSeries:
    """Fundamental character series (1/p) log_G(p*x) on the kernel coordinate."""
    ctx = F.ctx
    t = TruncatedSeries.variable(ctx, (var,), var)
    return F.log.compose([t.shift(1)]).shift(-1)


def n1_group(F: FormalGroupLaw) -> FormalGroupLaw:
    """N^1 G as a one-dimensional formal group; its log is Psi_1."""
    k = kernel_law_direct(F, 1)
    law = k.law[0].rename(("t1", "t2"))
    return FormalGroupLaw.from_kernel_law(F.ctx, law, psi1_series(F, "t"))


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


def evaluate_map(series_tuple, values: dict) -> list[PadicRational]:
    return [s.evaluate(values) for s in series_tuple]


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
    resid = _min_resid([a - b for a, b in zip(K2.law, transported)])
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
            "first two components of the J^2 law equal the J^1 law")

    # (e) lateral Frobenius is a homomorphism of kernel laws; N1.law is
    #     the kernel law of N^1
    lhs = f.compose([K2.law[0], K2.law[1]])
    fx = f.rename(("x1", "x2"))
    fy = f.rename(("y1", "y2"))
    kv = ("x1", "x2", "y1", "y2")
    rhs = N1.law.compose([fx.extend(kv), fy.extend(kv)])
    rep.add("lateral-homomorphism", (lhs - rhs).residual_valuation(), thr)

    # (f) phi homomorphism at n = 1 (symbolic)
    v4 = ("x0", "x1", "y0", "y1")
    w1x = ghost_series(ctx, v4, ("x0", "x1"), 1)
    w1y = ghost_series(ctx, v4, ("y0", "y1"), 1)
    lhs = (J1.law[0] ** ctx.p) + J1.law[1].shift(1)  # w_1 of the product
    rhs = F.law.compose([w1x, w1y])
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
        env_ab = {n: v for n, v in zip(xs, ab)}
        lhs_pts = evaluate_map(phi_series, env_ab)
        pa = evaluate_map(phi_series, dict(zip(xs, a)))
        pb = evaluate_map(phi_series, dict(zip(xs, b)))
        rhs_pts = jet_point_product(F, pa, pb)
        worst_phi = min(worst_phi, _point_resid(lhs_pts, rhs_pts))
    rep.add("commutativity-sampled", worst_comm, thr, f"{samples} random pairs")
    rep.add("associativity-sampled", worst_assoc, thr, f"{samples} random triples")
    rep.add("phi-homomorphism-J2-sampled", worst_phi, thr, f"{samples} random pairs")

    return rep
