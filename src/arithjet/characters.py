"""Delta characters and the delta isocrystal of a 1-dimensional group.

An additive character of J^nG over K is, in the Witt chart, a K-linear
combination Theta = sum c_i L_i of the log projections

    L_i = log_G(w_i(x_0,...,x_i)),

each automatically additive for the jet law (log_G is a K-homomorphism to
the additive group and the ghost projection w_i is a group map), so Theta
is a character over Z_p exactly when its series coefficients are
p-integral.  A DeltaCharacter is its c-vector.  Every character series is
one c-combination of one table per group: each L_i is built once, on
(x0..xi), and kept in F.log_projection_cache; log_projections reads it
extended, and the kernel projections Lbar_j = L_j(0, x1..xj) are the same
table restricted to x0 = 0, each restricted once and kept in
F.kernel_projection_cache.  Each L_i is built by jet.ghost_compose,
which expands log_G(w_i) by the multinomial theorem (claiming no less
than the tests' reference, Horner composition of log_G with w_i).

The solver's rows need no jet series.  As w_i(x0, 0..0) = x0^(p^i), the x0^j
coefficient of Theta is sum c_i b_(j/p^i) over p^i | j, for b_k those of
log_G; each j <= M, and each p | j beyond M up to deep_tower_degree,
gives one integrality row (_tower_reads).  In u-coordinates
u_i = p^i c_i (the linear x_i coefficient of Theta is p^i c_i, forcing u
into Z_p^(n+1)) it reduces the row lattice by Smith-style column
reduction over Z/p^K, and takes as X_n basis the exponent-zero
directions (exactly integral, lattice-primitive) together with the
Frobenius shifts of the X_(n-1) basis, integral by construction (phi*
composes with the Witt Frobenius).  That integrality on the x0 tower gives
it on the whole jet series is tested, not proved, so each basis vector's
jet series is re-checked.

Integrality alone cannot choose the order-2 basis vector of an elliptic
curve with rk X_1 = 0 (ordinary non-CL, or supersingular).  The excluded
order-1 unit-root pseudo-character, u = (1, -alpha), is locally integral,
so its Frobenius shift p*(0, 1, -alpha) lies in the order-2 lattice at
exponent 1 and the exponent-0 vector is fixed only modulo p times it.
That vector is therefore taken in Honda's normal form c = (1, -a_p/p, 1/p)
(the formal group has type T^2 - a_p T + p; Honda, Osaka J. Math. 1968;
Buium, Invent. Math. 1995), with a_p from the point count, and the lattice
solve only verifies it.  analyze_group in turn checks the Frobenius
matrix against the point count before it returns.

From there: the fundamental character Psi_1 = (1/p) log_G(p x), gamma and
the cotangent map Upsilon, the three lateral maps, the diff relation

    f*(iota* Theta) = iota* phi* Theta + sigma * gamma_Theta * Psi_1

(sigma = -1 by construction, see below), the matrix of the lateral
Frobenius on H_delta = lim Hom(N^n, G_a)/pullbacks, splitting numbers,
the filtration F_(i+1) = X_prim + f* F_i, and the CL classification
rk X_1 = 1.

All three lateral maps act on c-vectors.  phi_star shifts c to
(0, c_0..c_n); iota_star, the restriction to the kernel, is
sum c_i Lbar_i; and f*, the pullback along the lateral Frobenius
f : N^(m+1) -> N^m, is the ghost index shift f_star.  The lateral
Frobenius is the Witt Frobenius, so w_j o f = w_(j+1) and
f* Lbar_j = Lbar_(j+1); with Lbar_0 = 0 this gives
f*(iota* Theta) = sum_(i>=1) c_i Lbar_(i+1), read from the kernel table.
A character of the kernel N^m is a plain series in (x1..xm), and its
pullback to a deeper kernel is the same series extended.

On c-vectors the diff relation reads -c_0 Lbar_1 = sigma gamma Psi_1, with
gamma = p c_0 b_1 (b_1 = 1) and Lbar_1 = p Psi_1 from the same log, so
sigma = -1, and its order-2 form holds by construction; so
verify_diff_relation also ties each shift to f at seeded points: the
shifted series at x in pZ_p^(n+1) against the unshifted one at the exact
numeric f(x).  Beside the log projections, one compose is in the run:
restrict_lateral, f* Psi_1 for the rank-2 matrix, checked coefficientwise
against f* Psi_1 = Lbar_2 / p.  The compose expands Psi_1(x1^p + p x2)
by the multinomial theorem, as it expands Lbar_2, so that check compares
two expansions; a point check sees an error of valuation v in degree k as
v + k, so the test suite compares f* Psi_1 and every shift with Horner
composition.  analyze_group builds each lateral object once, in
verify_diff_relation, and reads its solves and checks from that report.
Only elliptic curves and G_m are analysed; other kinds raise before any
solve.
"""

import random
from functools import cached_property

from .context import Record
from .padic import PadicRational
from .series import TruncatedSeries
from .formalgroup import (
    FormalGroupLaw, WeierstrassCurve, formal_group_from_curve,
    elliptic_log_coefficients, multiplicative_log_coefficients,
    ADDITIVE, ELLIPTIC, MULTIPLICATIVE,
)
from .jet import (
    ghost_compose, lateral_frobenius_map, lateral_frobenius_point, psi1_series,
)
from .linalg import kernel_lattice, lattice_exponents, solve_padic
from .errors import (
    PrecisionExhausted, AmbiguousRank, RankMismatch, IntegralityViolation,
    IdentityViolation, ArithJetError,
)

_INF = float("inf")

ORDER_CAP = 2


def _lift_int(x: PadicRational, K: int) -> int:
    return x.lift() % x.ctx.pk(K)


# ---------------------------------------------------------------------------
# log projections and the deep log


def _log_table(F: FormalGroupLaw, n: int) -> list[TruncatedSeries]:
    """F.log_projection_cache filled to L_n; each L_i = log_G(w_i) is built
    once per group, on its own variables (x0..xi), by jet.ghost_compose
    from log_G."""
    if not 0 <= n <= ORDER_CAP + 2:
        raise ArithJetError(f"log projection order n = {n}: need"
                            f" 0 <= n <= {ORDER_CAP + 2}")
    table = F.log_projection_cache
    for i in range(len(table), n + 1):
        xs = tuple(f"x{k}" for k in range(i + 1))
        table.append(ghost_compose(F.log, xs, (xs,), i))
    return table


def log_projections(F: FormalGroupLaw, n: int) -> list[TruncatedSeries]:
    """[L_0, ..., L_n] in variables (x0..xn); L_i = log_G(w_i), read from
    the group's table and extended."""
    xs = tuple(f"x{k}" for k in range(n + 1))
    return [L.extend(xs) for L in _log_table(F, n)[:n + 1]]


def kernel_log_projection(F: FormalGroupLaw, j: int, variables) -> TruncatedSeries:
    """Lbar_j = log_G(w_j(0, x1..xj)): the table's L_j with x0 set to 0,
    viewed in the given kernel variables.  The restriction, on (x1..xj),
    is built once per group, in F.kernel_projection_cache."""
    lbar = F.kernel_projection_cache.get(j)
    if lbar is None:
        lbar = F.kernel_projection_cache[j] = _log_table(F, j)[j].set_zero(["x0"])
    return lbar.extend(variables)


def _kernel_vars(m: int) -> tuple[str, ...]:
    """(x1..xm), the coordinates of N^m; a character of N^m is a series
    in them, and its pullback to N^k (k >= m) is the same series extended."""
    return tuple(f"x{i}" for i in range(1, m + 1))


def deep_tower_degree(F: FormalGroupLaw) -> int:
    """Degree bound p^j for the solver's x0 tower rows beyond M.

    The tower x0^(p^j) is where log denominators accumulate; every
    ordinary curve carries a unit-root pseudo-character that is integral
    up to one tower level beyond wherever its eigenvalue got pinned, so
    rank detection needs the tower as deep as the cost cap allows.

    Depth p^j pins the unit root alpha of T^2 - a_p T + p to j digits,
    and so the CL eigenvalue p/alpha to j + 1: by Dwork's congruence,
    alpha = P_(p^j - 1) / P_(p^(j-1) - 1) mod p^j with P_(k-1) = k b_k, and
    no better in general (Dwork, "p-adic cycles", Publ. Math. IHES 37,
    1969; Katz, "Crystalline cohomology, Dieudonne modules and Jacobi
    sums", 1981).  At 5^5 = 3125 that is 6 digits of the eigenvalue."""
    p = F.ctx.p
    j = 1
    while p ** (j + 1) <= 4000:
        j += 1
    return p ** j


def _tower_reads(p: int, j: int, n: int) -> list[int | None]:
    """The log indices that the row of x0^j reads from L_0..L_n:
    [x0^j] L_i = b_(j/p^i) when p^i divides j, nothing (None) else."""
    return [j // p ** i if j % p ** i == 0 else None for i in range(n + 1)]


def deep_log_coefficients(F: FormalGroupLaw) -> dict[int, PadicRational]:
    """{k: b_k} of log_G read by the solver's rows x0^j beyond M: the k
    that a row with p | j <= deep_tower_degree(F) reads at an order up to
    ORDER_CAP, i.e. p | k or k <= deg/p (1125 of 3125 at p = 5), to more
    digits than F.log.  No other b_k is built, and reading one raises
    KeyError.  The dict is built once per group, in F.deep_log_cache."""
    if F.deep_log_cache:
        return F.deep_log_cache
    p, deg = F.ctx.p, deep_tower_degree(F)
    want = {k for j in range(p, deg + 1, p)
            for k in _tower_reads(p, j, ORDER_CAP) if k is not None}
    if F.kind == ELLIPTIC:
        out = elliptic_log_coefficients(F.curve, want)
    elif F.kind == MULTIPLICATIVE:
        out = multiplicative_log_coefficients(F.ctx, want)
    else:
        raise ArithJetError(f"no deep log for kind {F.kind!r}")
    F.deep_log_cache = out
    return out


# ---------------------------------------------------------------------------
# character lattice solver


def _combine(c, table) -> TruncatedSeries:
    """sum c_i table[i] over the nonzero c_i, from an exact zero."""
    out = TruncatedSeries.zero(table[0].ctx, table[0].vars)
    for ci, Li in zip(c, table):
        if not ci.is_zero():
            out = out + Li.scale(ci)
    return out


class DeltaCharacter(Record, frozen=True):
    """Theta = sum c_i L_i, an additive character of J^nG over Z_p, held as
    its c-vector; its order n is len(c) - 1.  The jet series on (x0..xn)
    is the c-combination of log_projections(F, n), built on first read."""

    F: FormalGroupLaw
    c: tuple[PadicRational, ...]

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @cached_property
    def series(self) -> TruncatedSeries:
        return _combine(self.c, log_projections(self.F, self.order))

    def u_ints(self, K: int) -> list[int]:
        """The u-vector u_i = p^i c_i as integers mod p^K."""
        return [_lift_int(ci.shift(i), K) for i, ci in enumerate(self.c)]


class CharacterLattice(Record):
    """Solved X_n: basis, Frobenius shifts of X_(n-1) and Smith exponents.
    The characters are c-vectors, and a shift is phi_star of a lower one."""

    order: int
    rank: int
    basis: list[DeltaCharacter]
    shift_relations: list[DeltaCharacter]
    exponents: list[int]


def _canonical_bit(F: FormalGroupLaw) -> bool:
    """Whether G admits a Frobenius-lift endomorphism (CL).

    The multiplicative group always does (x -> x^p).  For elliptic curves
    this is the canonical-subgroup moduli test; disk-local integrality
    cannot decide it (the unit-root pseudo-character is locally integral
    for every ordinary curve), see the canonical module."""
    if F.kind == MULTIPLICATIVE:
        return True
    if F.kind != ELLIPTIC:
        raise ArithJetError("CL bit defined for G_m and elliptic curves")
    from .canonical import canonical_lift_test
    return canonical_lift_test(F.curve).is_cl


def _normalize_c(c: list[PadicRational]) -> list[PadicRational]:
    """Unit-normalize so the first nonzero entry is an exact power of p."""
    for ci in c:
        if not ci.is_zero():
            inv = PadicRational(ci.ctx, ci.unit, 0, ci.rel).inverse()
            return [x * inv for x in c]
    return c


def _span_rank(int_vectors, p, K) -> int:
    return sum(1 for s, _ in lattice_exponents(int_vectors, p, K) if s < K - 2)


def solve_character_lattice(F: FormalGroupLaw, n: int,
                            lower: CharacterLattice | None = None
                            ) -> CharacterLattice:
    """X_n(G) inside the K-span of {L_0..L_n}, from one integrality row per
    x0^j: every j <= M, and the Frobenius tower p | j beyond M.

    ``lower`` is X_(n-1) of the same group, solved here when not given.

    The basis is the exponent-0 directions of the integrality lattice,
    except at order 2 for an elliptic curve with rk X_1 = 0.  There the
    Frobenius shift of the excluded order-1 pseudo-character lies in the
    lattice at exponent 1, so the exponent-0 vector is pinned only mod p
    (for y^2 = x^3 + x + 1 at p = 5 the lattice returned Honda's vector
    plus 75804 p (0, 1, -alpha), which passes the diff relation to the
    same residual).  The basis vector is then Honda's c = (1, -a_p/p, 1/p);
    see _honda_character for how the lattice verifies it."""
    ctx = F.ctx
    p = ctx.p
    if not 0 <= n <= ORDER_CAP:
        raise ArithJetError(f"character order n = {n}: need"
                            f" 0 <= n <= {ORDER_CAP}")
    if F.kind in (ELLIPTIC, MULTIPLICATIVE) and n == 0:
        # X_0 = Hom(G, G_a) = 0; skip the degenerate solver run
        return CharacterLattice(0, 0, [], [], [])
    if F.kind == ELLIPTIC and n >= 1 and ctx.M < p ** n + p:
        raise PrecisionExhausted(
            f"order-{n} elliptic characters need M >= p^{n}+p = {p ** n + p},"
            f" have M = {ctx.M}")

    if n >= 1 and lower is None:
        lower = solve_character_lattice(F, n - 1)
    if lower is not None and lower.order != n - 1:
        raise ArithJetError(f"order-{n} solve needs X_{n - 1}, got X_{lower.order}")

    # one integrality row per x0^j: [x0^j] L_i / p^i = b_(j/p^i) / p^i,
    # b_k from F.log for j <= M, from the deep log for the tower p | j
    # beyond M; None marks a zero entry
    log = {k: c for (k,), c in F.log.coeffs.items()}
    top, bs = ctx.M, {}
    if F.kind in (ELLIPTIC, MULTIPLICATIVE):
        top = deep_tower_degree(F)
        bs = deep_log_coefficients(F)
    rows = {}
    for j in range(1, top + 1):
        if j > ctx.M and j % p:
            continue
        b = log if j <= ctx.M else bs
        row = [b[k].shift(-i) if k in b and not b[k].is_zero() else None
               for i, k in enumerate(_tower_reads(p, j, n))]
        if any(x is not None for x in row):
            rows[j] = row

    entries = [x for row in rows.values() for x in row if x is not None]
    d = -min([0] + [x.valuation() for x in entries])
    avail = min(x.absprec for x in entries)
    if F.log.absprec is not None:
        avail = min(avail, F.log.absprec - n)
    K = int(min(d + 4, avail + d))
    if K < d + 1:
        # here K = avail + d, and avail grows one-for-one with N
        raise PrecisionExhausted(
            f"only {K} digits available at (p, N, M) = ({p}, {ctx.N},"
            f" {ctx.M}), need > {d}; raise N to N >= {ctx.N + d + 1 - K}")
    ints = {j: [0 if x is None else (x.unit * p ** (x.val + d)) % p ** K
                for x in row] for j, row in rows.items()}

    # the kernel reads the rows only mod p^d and K > d, so fewer digits
    # cannot move it; the row cut drops the rows j = M - 1, M
    def zero_count(deg_cap):
        cut = [r for j, r in ints.items() if j <= deg_cap or j > ctx.M]
        return lattice_exponents(kernel_lattice(cut, n + 1, p, m=d, K=K), p, K)

    exps = zero_count(ctx.M)
    zero_vectors = [col for s, col in exps if s == 0]
    if sum(1 for s, _ in zero_count(ctx.M - 2) if s == 0) != len(zero_vectors):
        raise AmbiguousRank(f"order-{n} rank unstable under the row cut")

    basis_chars: list[DeltaCharacter] = []
    if n == 2 and F.kind == ELLIPTIC and lower.rank == 0:
        basis_chars.append(
            _honda_character(F, zero_vectors, ints.values(), d))
    else:
        for col in zero_vectors:
            ch = DeltaCharacter(F, tuple(_normalize_c(
                [PadicRational(ctx, ui, -i, K) for i, ui in enumerate(col)])))
            if not ch.series.is_integral():
                raise IntegralityViolation(
                    f"order-{n} solver vector fails integrality re-check")
            basis_chars.append(ch)

    # rank semantics at order 1: an exponent-0 vector is a genuine
    # character only when the group is CL; otherwise it is the unit-root
    # pseudo-character (locally integral but not a morphism of p-formal
    # schemes), excluded here
    if n == 1 and F.kind in (ELLIPTIC, MULTIPLICATIVE):
        if _canonical_bit(F):
            if not basis_chars:
                raise AmbiguousRank(
                    "CL group but no order-1 character at this budget")
        else:
            basis_chars = []

    shifts: list[DeltaCharacter] = []
    if lower is not None:
        shifts = [phi_star(th) for th in lower.basis + lower.shift_relations]

    rank = _span_rank([ch.u_ints(K) for ch in basis_chars + shifts], p, K)

    if F.kind in (ELLIPTIC, MULTIPLICATIVE) and n == 2:
        if rank - lower.rank != 1:
            raise RankMismatch(
                f"rk X_2 - rk X_1 = {rank - lower.rank}, expected 1 (g = 1)")

    return CharacterLattice(n, rank, basis_chars, shifts,
                            [s for s, _ in exps])


def _honda_character(F, zero_vectors, rows, d) -> DeltaCharacter:
    """The order-2 character of an elliptic curve with rk X_1 = 0, in
    Honda's normal form c = (1, -a_p/p, 1/p), i.e. u = (1, -a_p, p).

    The lattice solve verifies it: the Honda jet series must be integral
    to M and u must pass every x0 tower row, the lattice must have
    exactly one exponent-0 direction, and that direction must agree with
    u mod p (integrality pins it no better, see solve_character_lattice)."""
    ctx = F.ctx
    p = ctx.p
    a_p = F.curve.invariants.a_p
    u = [1, -a_p, p]
    if len(zero_vectors) != 1:
        raise AmbiguousRank(
            f"order-2 lattice has {len(zero_vectors)} exponent-0 vectors,"
            " expected 1")
    col = zero_vectors[0]
    if col[0] % p == 0 or any((ui - hi * col[0]) % p for ui, hi in zip(col, u)):
        raise IdentityViolation(
            f"order-2 lattice vector disagrees with Honda's (1, {-a_p}, {p})"
            " mod p")
    ch = DeltaCharacter(F, (PadicRational.one(ctx),
                            PadicRational.from_int(ctx, -a_p).shift(-1),
                            PadicRational.one(ctx).shift(-1)))
    if not ch.series.is_integral():
        raise IntegralityViolation("Honda character fails integrality to M")
    # the rows are lifted as p^d times the u-scaled columns
    if any(sum(r * ui for r, ui in zip(row, u)) % p ** d for row in rows):
        raise IntegralityViolation(
            "Honda character fails integrality on the x0 tower rows")
    return ch


def primitive_quotient(top: CharacterLattice,
                       F: FormalGroupLaw) -> CharacterLattice:
    """Basis of X_prim = X_n modulo Frobenius shifts of lower order, for
    the top lattice X_n."""
    ctx = F.ctx
    K = ctx.N
    shift_vecs = [ch.u_ints(K) for ch in top.shift_relations]
    base_rank = _span_rank(shift_vecs, ctx.p, K)
    primitive = []
    for ch in top.basis:
        if _span_rank(shift_vecs + [ch.u_ints(K)], ctx.p, K) > base_rank:
            primitive.append(ch)
    if F.kind in (ELLIPTIC, MULTIPLICATIVE) and len(primitive) != 1:
        raise RankMismatch(
            f"primitive quotient rank {len(primitive)}, expected 1 (g = 1)")
    return CharacterLattice(top.order, len(primitive), primitive,
                            top.shift_relations, top.exponents)


# ---------------------------------------------------------------------------
# differential, gamma, Upsilon and the lateral maps iota*, phi*, f*


def differential_gamma(theta: DeltaCharacter):
    """D Theta = (A_0..A_n) from the linear part; gamma_Theta = p * A_0."""
    A = tuple(theta.series.linear_coefficient(f"x{i}")
              for i in range(theta.order + 1))
    return A, A[0].shift(1)


def upsilon(theta: DeltaCharacter) -> PadicRational:
    """Coordinate of Upsilon(Theta) = (gamma/p) dx_0 against dx_0."""
    _, gamma = differential_gamma(theta)
    return gamma.shift(-1)


def iota_star(theta: DeltaCharacter) -> TruncatedSeries:
    """iota* Theta = sum c_i Lbar_i: the restriction of a jet character to
    the kernel N^n, a series in (x1..xn).  It equals Theta's jet series at
    x0 = 0, key for key."""
    F, n = theta.F, theta.order
    xs = _kernel_vars(n)
    return _combine(theta.c, [kernel_log_projection(F, i, xs)
                              for i in range(n + 1)])


def phi_star(theta: DeltaCharacter) -> DeltaCharacter:
    """phi* Theta: the Frobenius shift c -> (0, c_0..c_n), one order up."""
    ctx = theta.F.ctx
    return DeltaCharacter(theta.F, (PadicRational.zero(ctx, ctx.N), *theta.c))


def restrict_lateral(chi: TruncatedSeries) -> TruncatedSeries:
    """f* chi by composition: the pullback of a character chi of N^m,
    m = len(chi.vars), along the lateral Frobenius f : N^(m+1) -> N^m.
    analyze_group runs it on Psi_1 alone; every other f* is f_star."""
    return chi.compose(lateral_frobenius_map(chi.ctx, len(chi.vars) + 1))


def f_star(theta: DeltaCharacter, chi: TruncatedSeries) -> TruncatedSeries:
    """f*(iota* Theta) by the ghost index shift, where chi = iota* Theta.

    The lateral Frobenius is the Witt Frobenius, w_j o f = w_(j+1), so
    f* Lbar_j = Lbar_(j+1); with Lbar_0 = 0 this gives
    f*(iota* Theta) = sum_(i>=1) c_i Lbar_(i+1), a series on N^(n+1) read
    from the kernel table.  The table holds Lbar_(i+1) to one digit more
    than restrict_lateral(chi) claims, by either route of the compose, and
    no independent test backs that digit yet, so the series absprec is
    capped at chi's, the compose's claim."""
    ctx = theta.F.ctx
    tail = DeltaCharacter(theta.F, (PadicRational.zero(ctx, ctx.N), *theta.c[1:]))
    out = iota_star(phi_star(tail))
    return out + TruncatedSeries.zero(ctx, out.vars, chi.absprec)


# seeded points per point check of a diff relation
_CHECK_POINTS = 4


def _point_residual(lhs: TruncatedSeries, chi: TruncatedSeries) -> float:
    """Fewest digits to which lhs(x) and chi(f(x)) agree, over seeded
    integer points x = p u (u a unit) of N^m, m = len(lhs.vars), with f(x)
    the exact lateral Frobenius of x; _INF when every difference vanishes
    at the precision the two evaluations hold.  At x in pZ_p an error of
    valuation v in a degree-k coefficient shows as v + k, so this check
    sees low-degree errors only; the coefficientwise compose check is in
    the test suite."""
    ctx = lhs.ctx
    p = ctx.p
    rel = ctx.N + ctx.M  # the points are exact; this only bounds the work
    rng = random.Random(len(lhs.vars))

    def at(series, point):
        return series.evaluate({name: PadicRational.from_int(ctx, v, rel)
                                for name, v in zip(series.vars, point)})

    resid = _INF
    for _ in range(_CHECK_POINTS):
        x = [p * (p * rng.randrange(p ** ctx.N) + rng.randrange(1, p))
             for _ in lhs.vars]
        d = at(lhs, x) - at(chi, lateral_frobenius_point(p, x))
        if not d.is_zero():
            resid = min(resid, d.val)
    return resid


# ---------------------------------------------------------------------------
# the diff relation


class DiffRelationReport(Record):
    """Residuals of the diff relation, and the lateral objects it was
    checked on: Psi_1 on N^1, iota* Theta on N^n, and f*(iota* Theta) (by
    the index shift, f_star) and iota* phi* Theta on N^(n+1).

    residual_diff1 is the smaller of the c-vector residual of
    f*(iota* Theta) - iota* phi* Theta - sigma gamma Psi_1 and the point
    residual of f*(iota* Theta) against iota* Theta o f; residual_diff2
    (order 2) is the point residual of f*(iota* phi* Theta) against
    iota* phi* Theta o f.  sign is sigma = -1, fixed by the construction
    (see verify_diff_relation)."""

    order: int
    residual_diff1: float
    residual_diff2: float | None
    gamma: PadicRational
    threshold: float
    psi: TruncatedSeries
    iota_theta: TruncatedSeries
    fstar_iota_theta: TruncatedSeries
    pullback: TruncatedSeries
    sign = -1

    @property
    def ok(self) -> bool:
        if self.residual_diff1 < self.threshold:
            return False
        return self.residual_diff2 is None or self.residual_diff2 >= self.threshold


def verify_diff_relation(theta: DeltaCharacter) -> DiffRelationReport:
    """f*(iota* Theta) = iota* phi* Theta - gamma Psi_1; at order 2 also
    f*(iota* phi* Theta) = iota* (phi^2)* Theta.

    Both f* are f_star, the index shift, so on c-vectors the first
    relation reads -c_0 Lbar_1 = -gamma Psi_1, which checks the kernel
    table's Lbar_1 (sigma = -1 by construction, see the module docstring),
    and the second holds by construction.  What ties
    the shift to the lateral Frobenius is the point check: each shifted
    series is evaluated at seeded points x of pZ_p^(n+1) (n+2 for diff2)
    and compared with the unshifted series at the numeric f(x).  The
    report carries Psi_1, iota* Theta, f*(iota* Theta) and
    iota* phi* Theta, each built once here, for the solves of
    analyze_group."""
    F, ctx, n = theta.F, theta.F.ctx, theta.order
    if n > 2:
        raise ArithJetError("diff relation checked for order <= 2")
    _, gamma = differential_gamma(theta)
    psi = psi1_series(F)
    iota_theta = iota_star(theta)
    lhs = f_star(theta, iota_theta)
    rhs0 = iota_star(phi_star(theta))
    # all three series are on N^(n+1), in x1..x(n+1)
    gap = lhs - rhs0 + psi.extend(lhs.vars).scale(gamma)
    r1 = min(gap.residual_valuation(), _point_residual(lhs, iota_theta))
    r2 = None
    if n == 2:
        r2 = _point_residual(f_star(phi_star(theta), rhs0), rhs0)  # on N^4
    return DiffRelationReport(order=n, residual_diff1=r1,
                              residual_diff2=r2, gamma=gamma,
                              threshold=ctx.N - 3, psi=psi,
                              iota_theta=iota_theta, fstar_iota_theta=lhs,
                              pullback=rhs0)


# ---------------------------------------------------------------------------
# the delta isocrystal


def trace_determinant(m) -> tuple[PadicRational, PadicRational]:
    """Trace and determinant of a 1x1 or 2x2 Frobenius matrix."""
    if len(m) == 1:
        return m[0][0], m[0][0]
    return m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]


class IsocrystalData(Record):
    """The delta isocrystal: rank, basis, Frobenius matrix and filtration."""

    hdelta_rank: int
    basis: list[str]
    frobenius_matrix: list[list[PadicRational]]
    hodge_rank: int
    filtration_dims: tuple[int, ...]
    m_u: int
    ranks_Xn: tuple[int, int]
    is_CL: bool
    gamma_values: list[PadicRational]
    sign: int
    residuals: dict

    @property
    def trace(self) -> PadicRational:
        return trace_determinant(self.frobenius_matrix)[0]

    @property
    def determinant(self) -> PadicRational:
        return trace_determinant(self.frobenius_matrix)[1]

    def newton_slopes(self) -> list:
        """Eigenvalue valuations from the Newton polygon of the char poly."""
        from fractions import Fraction
        if len(self.frobenius_matrix) == 1:
            return [Fraction(self.frobenius_matrix[0][0].valuation())]
        t, d = self.trace, self.determinant
        vt = t.valuation() if not t.is_zero() else _INF
        vd = d.valuation()
        if 2 * vt < vd:
            return sorted([Fraction(vt), Fraction(vd - vt)])
        return [Fraction(vd, 2), Fraction(vd, 2)]


class GroupAnalysis(Record):
    """analyze_group's lattices, primitive character, diff relation and isocrystal."""

    F: FormalGroupLaw
    lattices: list[CharacterLattice]
    primitive: CharacterLattice
    theta: DeltaCharacter
    diff: DiffRelationReport
    gamma_hat: PadicRational
    iso: IsocrystalData


def _class_solve(target: TruncatedSeries, columns: list[TruncatedSeries]):
    """Solve target = sum x_j columns[j] coefficientwise; (xs, residual)."""
    keys = set(target.monomials())
    for c in columns:
        keys |= set(c.monomials())
    keys = sorted(keys)
    cols = [[c.get(k) for k in keys] for c in columns]
    return solve_padic(cols, [target.get(k) for k in keys])


def analyze_group(F: FormalGroupLaw) -> GroupAnalysis:
    """Full character-side pipeline for an elliptic curve or G_m."""
    if F.kind not in (ELLIPTIC, MULTIPLICATIVE):
        # their f* solve has a vanishing column, and a larger budget does
        # not help (G_a at N=8, M=35 and at N=12, M=60)
        why = "" if F.kind != ADDITIVE else (
            ": G_a is not an abelian scheme, so the smallest sub-isocrystal"
            " containing Fil^1 is not defined for it")
        raise ArithJetError(
            f"analyze_group needs an elliptic or multiplicative group,"
            f" got the {F.kind} group{why}")
    ctx = F.ctx
    if ctx.N - 3 < 1:
        # the residual and point-count gates hold mod p^(N - 3)
        raise PrecisionExhausted(
            f"the gates of analyze_group check mod p^(N - 3), so nothing at"
            f" N = {ctx.N}; raise N to N >= 4")
    lat0 = solve_character_lattice(F, 0)
    lat1 = solve_character_lattice(F, 1, lower=lat0)
    lat2 = solve_character_lattice(F, 2, lower=lat1)
    prim = primitive_quotient(lat2, F)
    rk1, rk2 = lat1.rank, lat2.rank
    is_cl = rk1 == 1

    # splitting numbers: rk I_n = n*g - (rk X_n - rk X_0), g = 1, X_0 = 0
    rkI = {0: 0, 1: 1 - rk1, 2: 2 - rk2}
    # h_2 = rkI[2] - rkI[1] = 0 by the order-2 solve's RankMismatch
    m_u = 1 if rkI[1] == rkI[0] else 2
    r_delta = prim.rank + rkI[m_u - 1]

    theta = lat1.basis[0] if is_cl else prim.basis[0]
    diff = verify_diff_relation(theta)
    psi = diff.psi
    residuals = {"diff1": diff.residual_diff1, "diff2": diff.residual_diff2}

    # gamma_hat: the Psi_1 coefficient of f*(iota* Theta) modulo pullbacks.
    # The pullbacks are iota* phi* of the top lattice, which is {Theta}
    # since X_0 = 0; on the non-CL path X_1 = 0, so f* Psi_1 is expanded
    # without one.  The target is pullback - gamma Psi_1 where diff1 holds,
    # so the solve checks nothing; it gives gamma_hat's precision claim.
    psi_top = psi.extend(_kernel_vars(theta.order + 1))
    xs, _ = _class_solve(diff.fstar_iota_theta, [psi_top, diff.pullback])
    gamma_hat = xs[0]

    if is_cl:
        # H_delta is the line [iota* Theta] = rho [Psi_1], rho = p c_1; the
        # identity behind it, Lbar_1 = p Psi_1, is diff1's c-vector residual
        rho = theta.c[1].shift(1)
        lam = gamma_hat * rho.inverse()
        matrix = [[lam]]
        basis = ["[iota* Theta]"]
        tmat = [[lam]]
    else:
        # basis ([iota* Theta], [f* iota* Theta]); [f* iota* Theta] =
        # gamma_hat [Psi_1]; expand f* Psi_1 = x [iota* Theta] + y [Psi_1]
        # f* Psi_1 is the run's one compose beside the log projections
        # (expanded); it checks the shift too, f* Psi_1 = Lbar_2 / p
        fpsi = restrict_lateral(psi)
        lbar2 = kernel_log_projection(F, 2, fpsi.vars)
        residuals["fstar_shift"] = (fpsi - lbar2.shift(-1)).residual_valuation()
        xy, residuals["fstar_psi_expansion"] = _class_solve(
            fpsi, [diff.iota_theta, psi.extend(_kernel_vars(2))])
        x, y = xy[0], xy[1]
        zero = PadicRational.zero(ctx, ctx.N)
        matrix = [[zero, gamma_hat * x], [PadicRational.one(ctx), y]]
        basis = ["[iota* Theta]", "[f* iota* Theta]"]
        # f* on coordinates in the basis ([iota* Theta], [Psi_1])
        tmat = [[zero, x], [gamma_hat, y]]

    for name, r in residuals.items():
        if r is not None and r < diff.threshold:
            raise IdentityViolation(
                f"{name} residual {r} is below the threshold"
                f" N - 3 = {diff.threshold}")

    # filtration F_0 = X_prim, F_(i+1) = X_prim + f* F_i
    one = PadicRational.one(ctx)
    zero = PadicRational.zero(ctx, ctx.N)
    xprim_vec = [one] + [zero] * (len(tmat) - 1)
    spanning = [xprim_vec]
    dims = [_coord_rank(spanning, ctx)]
    for _ in range(m_u):
        spanning = [xprim_vec] + [_matvec(tmat, v, ctx) for v in spanning]
        dims.append(_coord_rank(spanning, ctx))
    dims = tuple(dims)

    _, det = trace_determinant(matrix)
    if det.is_zero() or det.valuation() > 2:
        raise AmbiguousRank("f* matrix not invertible at working precision")
    if dims[m_u - 1] != r_delta or not 1 <= r_delta <= 2:
        raise AmbiguousRank(
            f"filtration dims {dims} inconsistent with delta rank {r_delta}")

    check_point_count(F, matrix)
    iso = IsocrystalData(
        hdelta_rank=r_delta,
        basis=basis,
        frobenius_matrix=matrix,
        hodge_rank=prim.rank,
        filtration_dims=dims,
        m_u=m_u,
        ranks_Xn=(rk1, rk2),
        is_CL=is_cl,
        gamma_values=[diff.gamma],
        sign=diff.sign,
        residuals=residuals,
    )
    return GroupAnalysis(F=F, lattices=[lat0, lat1, lat2], primitive=prim,
                         theta=theta, diff=diff, gamma_hat=gamma_hat, iso=iso)


def check_point_count(F: FormalGroupLaw, matrix) -> None:
    """Raise IdentityViolation unless the Frobenius matrix has the
    characteristic polynomial the point count predicts, mod p^(N-3) (the
    threshold of DiffRelationReport): trace = a_p and det = p at rank 2,
    lambda^2 - a_p lambda + p = 0 at rank 1, lambda = p for G_m.  A
    residual known to fewer than N-3 digits fails too.  Other kinds have
    no point count and pass unchecked."""
    ctx = F.ctx
    p = ctx.p
    if F.kind == MULTIPLICATIVE:
        residuals = {"lambda - p": matrix[0][0] - p}
    elif F.kind == ELLIPTIC:
        a_p = F.curve.invariants.a_p
        if len(matrix) == 2:
            trace, det = trace_determinant(matrix)
            residuals = {"trace - a_p": trace - a_p, "det - p": det - p}
        else:
            lam = matrix[0][0]
            residuals = {"lambda^2 - a_p lambda + p": lam * lam - lam * a_p + p}
    else:
        return
    for name, r in residuals.items():
        if r.valuation() < ctx.N - 3:
            raise IdentityViolation(
                f"Frobenius matrix disagrees with the point count (a_p from"
                f" #E(F_{p})): {name} = {r}, needs O({p}^{ctx.N - 3})")


def _matvec(tmat, vec, ctx):
    out = []
    for i in range(len(tmat)):
        acc = PadicRational.zero(ctx, ctx.N)
        for j in range(len(tmat)):
            acc = acc + tmat[i][j] * vec[j]
        out.append(acc)
    return out


def _coord_rank(vectors, ctx) -> int:
    K = ctx.N
    ints = []
    for v in vectors:
        shift = min([x.valuation() for x in v if not x.is_zero()] + [0])
        ints.append([_lift_int(x.shift(-shift), K) for x in v])
    return _span_rank(ints, ctx.p, K)


# -- spec-level wrappers -----------------------------------------------------


def classify_CL(E) -> bool:
    return solve_character_lattice(as_group(E), 1).rank == 1


def as_group(E) -> FormalGroupLaw:
    if isinstance(E, FormalGroupLaw):
        return E
    if isinstance(E, WeierstrassCurve):
        return formal_group_from_curve(E)
    raise ArithJetError("expected a curve or a formal group law")


# ---------------------------------------------------------------------------
# theorem-level cross checks consumed by the acceptance suite


def order_one_span_identity(ga: GroupAnalysis) -> dict:
    """iota* X_1 = iota* X_prim intersect f* iota* X_prim inside H_delta,
    tested as solvability of f*(iota* Theta) against iota* Theta and the
    pullback span at the common level."""
    ctx, theta, diff = ga.F.ctx, ga.theta, ga.diff
    iota_theta = diff.iota_theta.extend(_kernel_vars(theta.order + 1))
    xs, resid = _class_solve(diff.fstar_iota_theta,
                             [iota_theta, diff.pullback])
    solvable = resid >= ctx.N - 4
    dim_intersection = 1 if solvable and not xs[0].is_zero() else 0
    return {
        "dim_intersection": dim_intersection,
        "rk_X1": ga.lattices[1].rank,
        "match": dim_intersection == ga.lattices[1].rank,
        "residual": resid,
    }


def frob_up_matrix_identity(ga: GroupAnalysis) -> dict:
    """[f*]^(Psi_1)_B = sigma * p * [Upsilon]^(dx0)_B in the computed bases."""
    predicted = upsilon(ga.theta).shift(1) * ga.iso.sign
    diff = ga.gamma_hat - predicted
    return {
        "measured": ga.gamma_hat,
        "predicted": predicted,
        "residual": _INF if diff.is_zero() else diff.valuation(),
        "sign": ga.iso.sign,
    }
