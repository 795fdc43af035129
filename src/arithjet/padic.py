"""Exact p-adic numbers with tracked precision.

A ``PadicRational`` is unit * p^val in Q_p with the unit known modulo
p^rel (capped relative precision), so the value is known modulo
p^(val+rel).  Denominators are always powers of p, stored as a negative
valuation.  Zero is representable only up to a bound: a zero
PadicRational records the absolute precision w below which it is
indistinguishable from 0, printed as ``O(p^w)``.  An element of Z/p^k is
``PadicRational(ctx, n, 0, k)``: its stray p-powers move into the
valuation, so it is known modulo p^k.

Canonical rendering is ``u*p^v + O(p^w)``.

All values are immutable; operations are pure functions.
"""

from .context import Context
from .errors import DivisionByZero, ArithJetError

_INF = float("inf")


def vp(n: int, p: int) -> int | float:
    """p-adic valuation of an integer (inf for 0)."""
    if n == 0:
        return _INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicRational:
    """unit * p^val in Q_p, unit known modulo p^rel.

    Invariants: for nonzero values ``unit`` is prime to p and lies in
    [1, p^rel); zero values have unit == 0, rel == 0, and ``val`` holds
    the absolute precision bound (the value is O(p^val)).
    """

    __slots__ = ("ctx", "unit", "val", "rel")

    def __init__(self, ctx: Context, unit: int, val: int, rel: int | None = None):
        if rel is None:
            rel = ctx.N
        unit %= ctx.pk(max(rel, 1))
        if unit == 0 or rel <= 0:
            object.__setattr__(self, "ctx", ctx)
            object.__setattr__(self, "unit", 0)
            object.__setattr__(self, "val", val + max(rel, 0))
            object.__setattr__(self, "rel", 0)
            return
        w = vp(unit, ctx.p)
        if w:
            # normalize stray p-powers into the valuation
            unit //= ctx.pk(w)
            val += w
            rel -= w
            if rel <= 0:
                object.__setattr__(self, "ctx", ctx)
                object.__setattr__(self, "unit", 0)
                object.__setattr__(self, "val", val + max(rel, 0))
                object.__setattr__(self, "rel", 0)
                return
            unit %= ctx.pk(rel)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "rel", rel)

    def __setattr__(self, *a):
        raise AttributeError("PadicRational is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context, absprec: int | None = None) -> "PadicRational":
        if absprec is None:
            absprec = ctx.N
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "unit", 0)
        object.__setattr__(self, "val", absprec)
        object.__setattr__(self, "rel", 0)
        return self

    @classmethod
    def from_int(cls, ctx: Context, n: int, rel: int | None = None) -> "PadicRational":
        if n == 0:
            return cls.zero(ctx, (rel or ctx.N))
        v = vp(n, ctx.p)
        return cls(ctx, n // ctx.pk(v), v, rel if rel is not None else ctx.N)

    @classmethod
    def one(cls, ctx: Context) -> "PadicRational":
        return cls(ctx, 1, 0, ctx.N)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def absprec(self) -> int:
        """Value is known modulo p^absprec."""
        return self.val + self.rel

    def valuation(self) -> int | float:
        """Exact valuation for nonzero; for zero, a lower bound absprec."""
        return self.val

    def is_integral(self) -> bool:
        return self.val >= 0

    def lift(self) -> int:
        """Canonical lift unit*p^val as an integer; requires val >= 0."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ArithJetError("cannot lift a value with negative valuation")
        return self.unit * self.ctx.pk(self.val)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return PadicRational.from_int(self.ctx, other)
        if isinstance(other, PadicRational):
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self, o
        if a.is_zero() and b.is_zero():
            return PadicRational.zero(a.ctx, min(a.absprec, b.absprec))
        if a.is_zero():
            a, b = b, a
        # a nonzero now
        absp = min(a.absprec, b.absprec)
        if b.is_zero():
            if a.val >= absp:
                return PadicRational.zero(a.ctx, absp)
            return PadicRational(a.ctx, a.unit, a.val, absp - a.val)
        m = min(a.val, b.val)
        if absp <= m:
            return PadicRational.zero(a.ctx, absp)
        p = a.ctx.p
        s = (a.unit * a.ctx.pk(a.val - m) + b.unit * b.ctx.pk(b.val - m)) % a.ctx.pk(absp - m)
        if s == 0:
            return PadicRational.zero(a.ctx, absp)
        t = vp(s, p)
        return PadicRational(a.ctx, s // a.ctx.pk(t), m + t, absp - m - t)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return PadicRational(self.ctx, self.ctx.pk(self.rel) - self.unit, self.val, self.rel)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero() or o.is_zero():
            # O(p^A) * (u p^v + O(..)) = O(p^(A+v))
            av = self.val if self.is_zero() else self.valuation()
            bv = o.val if o.is_zero() else o.valuation()
            return PadicRational.zero(self.ctx, av + bv)
        rel = min(self.rel, o.rel)
        return PadicRational(self.ctx, self.unit * o.unit, self.val + o.val, rel)

    __rmul__ = __mul__

    def inverse(self) -> "PadicRational":
        if self.is_zero():
            raise DivisionByZero(f"inverse of O(p^{self.val})")
        inv = pow(self.unit, -1, self.ctx.pk(self.rel))
        return PadicRational(self.ctx, inv, -self.val, self.rel)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if self.is_zero():
            if e == 0:
                return PadicRational.one(self.ctx)
            return PadicRational.zero(self.ctx, self.val * e)
        u = pow(self.unit, e, self.ctx.pk(self.rel))
        return PadicRational(self.ctx, u, self.val * e, self.rel)

    def shift(self, k: int) -> "PadicRational":
        """Multiply by p^k (exact valuation shift)."""
        if self.is_zero():
            return PadicRational.zero(self.ctx, self.val + k)
        return PadicRational(self.ctx, self.unit, self.val + k, self.rel)

    # -- comparison / rendering -----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).is_zero()

    __hash__ = None

    def __repr__(self):
        p = self.ctx.p
        if self.is_zero():
            return f"O({p}^{self.val})"
        return f"{self.unit}*{p}^{self.val} + O({p}^{self.absprec})"

