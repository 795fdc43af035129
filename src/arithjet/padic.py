"""Exact p-adic numbers with tracked precision.

A ``PadicRational`` is unit * p^val in Q_p with the unit known modulo
p^rel (capped relative precision), so the value is known modulo
p^(val+rel).  Denominators are always powers of p, stored as a negative
valuation.  Zero is representable only up to a bound: a zero
PadicRational records the absolute precision w below which it is
indistinguishable from 0, printed as ``O(p^w)``.  An element of Z/p^k is
``PadicRational(ctx, n, 0, k)``: its stray p-powers move into the
valuation, so it is known modulo p^k.

Canonical form, the one invariant every value keeps: a nonzero value has
``unit`` prime to p in [1, p^rel) and rel >= 1; a zero has unit = rel =
0 and ``val`` holding its absolute precision w.  Two constructors make
values.  ``PadicRational(ctx, unit, val, rel)`` validates: it takes any
integer unit, reduces it mod p^rel and moves its stray p-powers into the
valuation, and is the one for input from callers.  ``_padic(ctx, unit,
val, rel)`` trusts: it stores its arguments as given, and only the
kernels that already hold their result in canonical form call it (the
arithmetic below, ``zero``, and the integer kernels of
arithjet.series).

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

    The constructor validates (see the module docstring for the
    canonical form it produces); kernel outputs go through _padic.
    """

    __slots__ = ("ctx", "unit", "val", "rel")

    def __init__(self, ctx: Context, unit: int, val: int, rel: int | None = None):
        if rel is None:
            rel = ctx.N
        unit %= ctx.pk(max(rel, 1))
        if unit and rel > 0:
            w = vp(unit, ctx.p)
            if w:
                # normalize stray p-powers into the valuation
                val += w
                rel -= w
                unit = unit // ctx.pk(w) % ctx.pk(rel) if rel > 0 else 0
        if not unit or rel <= 0:
            unit, val, rel = 0, val + max(rel, 0), 0
        _set_ctx(self, ctx)
        _set_unit(self, unit)
        _set_val(self, val)
        _set_rel(self, rel)

    def __setattr__(self, *a):
        raise AttributeError("PadicRational is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context, absprec: int | None = None) -> "PadicRational":
        return _padic(ctx, 0, ctx.N if absprec is None else absprec, 0)

    @classmethod
    def from_int(cls, ctx: Context, n: int, rel: int | None = None) -> "PadicRational":
        if n == 0:
            return cls.zero(ctx, ctx.N if rel is None else rel)
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
            return _padic(a.ctx, 0, min(a.absprec, b.absprec), 0)
        if a.is_zero():
            a, b = b, a
        # a nonzero now
        absp = min(a.absprec, b.absprec)
        if b.is_zero():
            if a.val >= absp:
                return _padic(a.ctx, 0, absp, 0)
            rel = absp - a.val
            return _padic(a.ctx, a.unit % a.ctx.pk(rel), a.val, rel)
        m = min(a.val, b.val)  # absp > m: each absprec exceeds its val
        pk = a.ctx.pk
        s = (a.unit * pk(a.val - m) + b.unit * pk(b.val - m)) % pk(absp - m)
        if s == 0:
            return _padic(a.ctx, 0, absp, 0)
        # 0 < s < p^(absp-m), so t < absp - m and the unit is in range
        t = vp(s, a.ctx.p)
        return _padic(a.ctx, s // pk(t), m + t, absp - m - t)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return _padic(self.ctx, self.ctx.pk(self.rel) - self.unit, self.val, self.rel)

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
        # a zero has rel 0: O(p^A) * (u p^v + O(..)) = O(p^(A+v))
        rel = min(self.rel, o.rel)
        return _padic(self.ctx, self.unit * o.unit % self.ctx.pk(rel),
                      self.val + o.val, rel)

    __rmul__ = __mul__

    def inverse(self) -> "PadicRational":
        if self.is_zero():
            raise DivisionByZero(f"inverse of O(p^{self.val})")
        inv = pow(self.unit, -1, self.ctx.pk(self.rel))
        return _padic(self.ctx, inv, -self.val, self.rel)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if self.is_zero():
            if e == 0:
                return PadicRational.one(self.ctx)
            return _padic(self.ctx, 0, self.val * e, 0)
        u = pow(self.unit, e, self.ctx.pk(self.rel))
        return _padic(self.ctx, u, self.val * e, self.rel)

    def shift(self, k: int) -> "PadicRational":
        """Multiply by p^k (exact valuation shift)."""
        return _padic(self.ctx, self.unit, self.val + k, self.rel)

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


_new = object.__new__
_set_ctx, _set_unit, _set_val, _set_rel = (
    PadicRational.__dict__[k].__set__ for k in PadicRational.__slots__)


def _padic(ctx: Context, unit: int, val: int, rel: int) -> PadicRational:
    """The PadicRational with exactly these fields, unchecked: the caller
    holds it in canonical form (module docstring).  The slot setters
    bypass the immutability guard without PadicRational's validation."""
    x = _new(PadicRational)
    _set_ctx(x, ctx)
    _set_unit(x, unit)
    _set_val(x, val)
    _set_rel(x, rel)
    return x
