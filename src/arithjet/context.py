"""Arithmetic context: the odd prime p, p-adic precision N, series degree M.

One Context is threaded through every computation.  The base ring is
R = Z_p with uniformizer p, residue field F_p, and the Frobenius lift on
scalars is the identity, so q = p throughout.

Record, the base of every arithjet record, replaces dataclasses.dataclass,
which generates and compiles methods per class: most of a warm-cache import.
"""

from .errors import ArithJetError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Record:
    """Fields from the class's own annotations, in order, defaults from
    the class body; built by position or keyword, then __post_init__.
    frozen=True: read-only fields, hashable by them; else unhashable."""

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse_change
            cls.__hash__ = Record._hash_fields

    def __init__(self, *args, **kwargs):
        # field by field: filling self.__dict__ would slow every ctx.pk read
        fields, defaults, put = self._fields, self._defaults, object.__setattr__
        for f, value in zip(fields, args):
            put(self, f, value)
        for f in fields[len(args):]:
            if f not in kwargs and f not in defaults:
                raise TypeError(f"{type(self).__name__} is missing {f!r}")
            put(self, f, kwargs.pop(f) if f in kwargs else defaults[f])
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}: got "
                            f"{len(args)} by position, {list(kwargs)} unknown or repeated")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash_fields(self) -> int:
        return hash(self._values())

    def _refuse_change(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: "
                             f"cannot set or delete {name!r}")


class Context(Record, frozen=True):
    """p-adic working context.

    p: odd prime; N: number of tracked p-adic digits; M: total-degree
    truncation bound for power series.
    """

    p: int
    N: int = 8
    M: int = 12

    def __post_init__(self):
        for name in ("p", "N", "M"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ArithJetError(f"{name} = {value!r} is not an int")
        if not _is_prime(self.p):
            raise ArithJetError(f"p = {self.p} is not prime")
        if self.p < 3:
            raise ArithJetError("p must be an odd prime (p >= 3)")
        if self.N < 2:
            raise ArithJetError("precision N must be >= 2")
        if self.M < 1:
            raise ArithJetError("degree bound M must be >= 1")
        # set like a field, in order: a direct write to self.__dict__ (as
        # functools.cached_property makes) would slow every ctx.pk read
        object.__setattr__(self, "_powers", ([1], {1: 0}))

    def pk(self, k: int) -> int:
        """p^k (k >= 0)."""
        return self.p ** k

    def p_powers(self, top: int) -> tuple[list, dict]:
        """([1, p, ..., p^k], {p^i: i}) with k >= top: one table per
        Context, extended as far as a caller needs it."""
        pw, exponent = self._powers
        while len(pw) <= top:
            exponent[pw[-1] * self.p] = len(pw)
            pw.append(pw[-1] * self.p)
        return pw, exponent
