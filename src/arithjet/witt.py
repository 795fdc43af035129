"""p-typical Witt vectors of length n+1 over Z_p (q = p, phi = id on scalars).

The ghost map sends (a_0,...,a_n) to (w_0,...,w_n) with

    w_i = a_0^(p^i) + p*a_1^(p^(i-1)) + ... + p^i*a_i

and the ring structure is the unique one making the ghost map a natural
ring homomorphism.  Two evaluation backends are provided:

* universal structure polynomials S_i, P_i, Neg_i, Frob_i (derived once
  per (p, n) by arithjet.ghost's ghost_solve with exact integer divisions
  and verified symbolically through ghost_map), evaluated on components;

* the ghost-side oracle witt_arith_ghost_mod: lift components, combine
  ghost coordinates, and solve back through its own copy of the
  recursion mod p^(N+n), kept apart from arithjet.ghost so that it stays
  an independent check of the structure polynomials.  Over torsion-free
  coefficients the two agree exactly; over Z/p^N the ghost route pads
  working precision by n digits.

Also home to the p-derivation delta(x) = (x - x^p)/p and its axiom checks.
"""

from .context import Context, Record
from .padic import PadicRational
from .exactpoly import ExactPoly
from .errors import (LengthMismatch, LengthTooShort, ArithJetError,
                     IdentityViolation)
from .ghost import ghost_map, ghost_solve

STRUCT_LEVEL_CAP = 2  # coefficient explosion bound for universal polynomials


def _exact_shift(p: int):
    """The ghost-module shift over Z: times p^k, or an exact division by
    p^(-k) for ExactPoly (InexactDivision otherwise)."""
    return lambda x, k: x * p ** k if k >= 0 else x.exact_div(p ** -k)


def witt_polynomial(p: int, i: int, names: tuple[str, ...]) -> ExactPoly:
    """Ghost polynomial w_i in the first i+1 of the given variables."""
    comps = [ExactPoly.variable(names, v) for v in names[:i + 1]]
    return ghost_map(p, comps, _exact_shift(p))[i]


class StructurePolySet(Record, frozen=True):
    """Universal polynomials for W_n: sum, product, negation, Frobenius."""

    p: int
    n: int
    S: tuple[ExactPoly, ...]
    P: tuple[ExactPoly, ...]
    Neg: tuple[ExactPoly, ...]
    Frob: tuple[ExactPoly, ...]
    vars_xy: tuple[str, ...] = ()


_struct_cache: dict[tuple[int, int], StructurePolySet] = {}


def structure_polynomials(ctx: Context, n: int) -> StructurePolySet:
    """Derive and verify the universal Witt structure polynomials at level n.

    Each set is solved from its ghost values and mapped back through the
    ghost map; IdentityViolation unless that gives the ghost values
    exactly, so a wrong set is never cached."""
    if n > STRUCT_LEVEL_CAP:
        raise ArithJetError(f"structure polynomials capped at n <= {STRUCT_LEVEL_CAP}")
    key = (ctx.p, n)
    if key in _struct_cache:
        return _struct_cache[key]
    p = ctx.p
    shift = _exact_shift(p)
    xs = tuple(f"X{i}" for i in range(n + 1))
    ys = tuple(f"Y{i}" for i in range(n + 1))
    both = xs + ys
    gx = ghost_map(p, [ExactPoly.variable(both, v) for v in xs], shift)
    gy = ghost_map(p, [ExactPoly.variable(both, v) for v in ys], shift)
    gX = ghost_map(p, [ExactPoly.variable(xs, v) for v in xs], shift)
    ghosts = {"S": [a + b for a, b in zip(gx, gy)],
              "P": [a * b for a, b in zip(gx, gy)],
              "Neg": [-g for g in gX],
              "Frob": gX[1:]}
    solved = {name: ghost_solve(p, g, shift) for name, g in ghosts.items()}
    for name, comps in solved.items():
        if ghost_map(p, comps, shift) != ghosts[name]:
            raise IdentityViolation(
                f"{name} ghost identity failed for W_{n} at p = {p}")

    out = StructurePolySet(p=p, n=n, **{k: tuple(v) for k, v in solved.items()},
                           vars_xy=both)
    _struct_cache[key] = out
    return out


class WittVector:
    """Length-(n+1) Witt vector over ints, PadicRational, ExactPoly or series.

    Over Z/p^N the components are PadicRationals known modulo p^N.

    Textual format: [a0, a1, ..., an].
    """

    __slots__ = ("ctx", "components")

    def __init__(self, ctx: Context, components):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "components", tuple(components))
        if len(self.components) < 1:
            raise LengthTooShort("Witt vector needs length >= 1")

    def __setattr__(self, *a):
        raise AttributeError("WittVector is immutable")

    def __len__(self):
        return len(self.components)

    @property
    def level(self) -> int:
        return len(self.components) - 1

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (len(self) == len(other)
                and all(a == b for a, b in zip(self.components, other.components)))

    __hash__ = None

    def __repr__(self):
        return "[" + ", ".join(str(c) for c in self.components) + "]"

    def _chk(self, other):
        if len(self) != len(other):
            raise LengthMismatch(f"lengths {len(self)} vs {len(other)}")

    def ghost(self):
        """Ghost coordinates (w_0, ..., w_n)."""
        return tuple(ghost_map(self.ctx.p, self.components, _exact_shift(self.ctx.p)))

    # -- arithmetic via universal polynomials -----------------------------

    def _apply(self, name, other=None):
        """The structure polynomials sp.<name> at X_i = the components (and
        Y_i = other's components)."""
        env = {f"X{i}": a for i, a in enumerate(self.components)}
        if other is not None:
            self._chk(other)
            env.update((f"Y{i}", b) for i, b in enumerate(other.components))
        polys = getattr(structure_polynomials(self.ctx, self.level), name)
        return WittVector(self.ctx, [q.substitute(env) for q in polys])

    def __add__(self, other):
        return self._apply("S", other)

    def __mul__(self, other):
        return self._apply("P", other)

    def __neg__(self):
        return self._apply("Neg")

    def __sub__(self, other):
        return self + (-other)

    def frobenius(self) -> "WittVector":
        if len(self) < 2:
            raise LengthTooShort("Frobenius needs length >= 2")
        return self._apply("Frob")

    def truncate(self) -> "WittVector":
        if len(self) < 2:
            raise LengthTooShort("truncation needs length >= 2")
        return WittVector(self.ctx, self.components[:-1])

    def verschiebung(self) -> "WittVector":
        zero = self.components[0] * 0
        return WittVector(self.ctx, (zero,) + self.components)

    @classmethod
    def teichmuller(cls, ctx: Context, c, length: int) -> "WittVector":
        zero = c * 0
        return cls(ctx, (c,) + tuple(zero for _ in range(length - 1)))


# -- ghost-side oracle over Z/p^N ----------------------------------------


def witt_arith_ghost_mod(ctx: Context, a: list[int], b: list[int], op: str,
                         prec: int | None = None) -> list[int]:
    """Oracle backend over Z/p^prec: lift, combine ghosts with n guard
    digits, solve components back with checked divisions."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} vs {len(b)}")
    n = len(a) - 1
    prec = ctx.N if prec is None else prec
    p = ctx.p
    work = ctx.pk(prec + n)

    def ghost(v):
        return [sum(p ** j * pow(v[j], p ** (i - j), work) for j in range(i + 1)) % work
                for i in range(n + 1)]

    ga, gb = ghost(a), ghost(b)
    if op == "add":
        g = [(x + y) % work for x, y in zip(ga, gb)]
    elif op == "mul":
        g = [(x * y) % work for x, y in zip(ga, gb)]
    elif op == "neg":
        g = [(-x) % work for x in ga]
    else:
        raise ArithJetError(f"unknown op {op!r}")
    comps: list[int] = []
    mod = work
    for i in range(n + 1):
        acc = g[i]
        for j in range(i):
            acc -= p ** j * pow(comps[j], p ** (i - j), work)
        acc %= work
        q, r = divmod(acc, p ** i)
        if r:
            raise ArithJetError("ghost recursion produced an inexact division")
        comps.append(q % ctx.pk(prec))
    return comps


# -- the p-derivation ------------------------------------------------------


def delta_map(x: PadicRational) -> PadicRational:
    """delta(x) = (x - x^p)/p, the p-derivation attached to phi = p-power
    lift; for x known modulo p^k the result is known modulo p^(k-1)."""
    if not x.is_integral():
        raise ArithJetError(f"delta of the non-integral {x}")
    return (x - x ** x.ctx.p).shift(-1)


def delta_int(x: int, p: int) -> int:
    """Exact delta on integers: (x - x^p)/p."""
    return (x - x ** p) // p


def c_pi_int(x: int, y: int, p: int) -> int:
    """C_p(x, y) = (x^p + y^p - (x+y)^p)/p, exact over Z."""
    return (x ** p + y ** p - (x + y) ** p) // p


def c_pi(x: PadicRational, y: PadicRational) -> PadicRational:
    """C_p(x, y) = (x^p + y^p - (x+y)^p)/p on integral p-adic numbers."""
    if not (x.is_integral() and y.is_integral()):
        raise ArithJetError(f"C_p of the non-integral pair {x}, {y}")
    p = x.ctx.p
    return (x ** p + y ** p - (x + y) ** p).shift(-1)


class DeltaAxiomReport(Record):
    """The sampled pairs that break a delta-ring axiom at the given precision."""

    samples: int
    precision: int
    failures: list = None

    def __post_init__(self):
        self.failures = [] if self.failures is None else self.failures

    @property
    def ok(self) -> bool:
        return not self.failures


def check_delta_axioms(ctx: Context, samples: int = 500, seed: int = 0) -> DeltaAxiomReport:
    """Sample pairs (x, y) and check the delta-ring axioms at precision N-1:

    (i)   delta(0) = delta(1) = 0
    (ii)  delta(x+y) = delta(x) + delta(y) + C_p(x, y)
    (iii) delta(xy)  = x^p delta(y) + y^p delta(x) + p delta(x) delta(y)
    """
    if samples < 1:
        raise ArithJetError(f"samples = {samples}: axioms (ii) and (iii) "
                            "need at least one pair")
    import random
    rng = random.Random(seed)
    rep = DeltaAxiomReport(samples=samples, precision=ctx.N - 1)
    if not delta_map(PadicRational(ctx, 0, 0)).is_zero():
        rep.failures.append(("axiom-i", 0, 0))
    if not delta_map(PadicRational.one(ctx)).is_zero():
        rep.failures.append(("axiom-i", 1, 1))
    m = ctx.pk(ctx.N)
    for _ in range(samples):
        xv, yv = rng.randrange(m), rng.randrange(m)
        x, y = PadicRational(ctx, xv, 0), PadicRational(ctx, yv, 0)
        lhs = delta_map(x + y)
        rhs = delta_map(x) + delta_map(y) + c_pi(x, y)
        if lhs != rhs:
            rep.failures.append(("axiom-ii", xv, yv))
        lhs = delta_map(x * y)
        rhs = (x ** ctx.p) * delta_map(y) + (y ** ctx.p) * delta_map(x) \
            + delta_map(x) * delta_map(y) * ctx.p
        if lhs != rhs:
            rep.failures.append(("axiom-iii", xv, yv))
    return rep
