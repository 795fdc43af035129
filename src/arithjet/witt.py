"""p-typical Witt vectors of length n+1 over Z_p (q = p, phi = id on scalars).

The ghost map sends (a_0,...,a_n) to (w_0,...,w_n) with

    w_i = a_0^(p^i) + p*a_1^(p^(i-1)) + ... + p^i*a_i

and the ring structure is the unique one making the ghost map a natural
ring homomorphism.  WittVector computes it by that definition: map the
operands to ghost coordinates (arithjet.ghost), add, multiply, negate or
shift them there (Frobenius drops w_0), and solve back level by level.

* Int components: the route runs exactly over Z.  Each solve step
  divides by p^i, which Witt theory says is exact; a remainder raises
  IdentityViolation.
* PadicRational components (Z/p^k, k the least absprec among them): the
  route runs exactly on their integer lifts, and every result component
  is reduced mod p^k and claims k digits.  The structure polynomials have
  integer coefficients, so inputs moved within their claims move no
  result within k digits.  A non-integral component raises ArithJetError.

Also home to the p-derivation delta(x) = (x - x^p)/p and C_p.
"""

from .context import Context
from .padic import PadicRational
from .errors import LengthMismatch, LengthTooShort, ArithJetError
from .ghost import ghost_map, ghost_solve, int_shift


def _lift(c) -> int:
    """An int component as it is, a PadicRational one by its integer lift."""
    if isinstance(c, PadicRational):
        if not c.is_integral():
            raise ArithJetError(f"Witt component {c} is not integral")
        return c.lift()
    if isinstance(c, int):
        return c
    raise ArithJetError(f"Witt component {c!r} is neither an int nor a PadicRational")


class WittVector:
    """Length-(n+1) Witt vector over ints or PadicRationals.

    Over Z/p^k the components are PadicRationals known modulo p^k.

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
        return tuple(ghost_map(self.ctx.p, self.components, int_shift(self.ctx.p)))

    # -- arithmetic on the ghost side --------------------------------------

    def _apply(self, op, *others) -> "WittVector":
        """The vector whose ghost coordinates are op(ghosts of self,
        ghosts of others), solved back over Z on the lifted components and,
        if any component is a PadicRational, reduced to the least absprec
        among them (module docstring)."""
        for other in others:
            self._chk(other)
        p, shift = self.ctx.p, int_shift(self.ctx.p)
        vectors = (self,) + others
        ghosts = [ghost_map(p, [_lift(c) for c in v.components], shift)
                  for v in vectors]
        comps = ghost_solve(p, op(*ghosts), shift)
        claims = [c.absprec for v in vectors for c in v.components
                  if isinstance(c, PadicRational)]
        if claims:
            k = min(claims)
            comps = [PadicRational(self.ctx, c, 0, k) for c in comps]
        return WittVector(self.ctx, comps)

    def __add__(self, other):
        return self._apply(lambda a, b: [x + y for x, y in zip(a, b)], other)

    def __mul__(self, other):
        return self._apply(lambda a, b: [x * y for x, y in zip(a, b)], other)

    def __neg__(self):
        return self._apply(lambda a: [-x for x in a])

    def __sub__(self, other):
        return self + (-other)

    def frobenius(self) -> "WittVector":
        if len(self) < 2:
            raise LengthTooShort("Frobenius needs length >= 2")
        return self._apply(lambda a: a[1:])

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


# -- the p-derivation ------------------------------------------------------


def delta_map(x: PadicRational) -> PadicRational:
    """delta(x) = (x - x^p)/p, the p-derivation attached to phi = p-power
    lift; for x known modulo p^k the result is known modulo p^(k-1)."""
    if not x.is_integral():
        raise ArithJetError(f"delta of the non-integral {x}")
    return (x - x ** x.ctx.p).shift(-1)


def c_pi(x: PadicRational, y: PadicRational) -> PadicRational:
    """C_p(x, y) = (x^p + y^p - (x+y)^p)/p on integral p-adic numbers."""
    if not (x.is_integral() and y.is_integral()):
        raise ArithJetError(f"C_p of the non-integral pair {x}, {y}")
    p = x.ctx.p
    return (x ** p + y ** p - (x + y) ** p).shift(-1)
