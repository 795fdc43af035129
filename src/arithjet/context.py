"""Arithmetic context: the odd prime p, p-adic precision N, series degree M.

One Context is threaded through every computation.  The base ring is
R = Z_p with uniformizer p, residue field F_p, and the Frobenius lift on
scalars is the identity, so q = p throughout.
"""

from dataclasses import dataclass, replace
from functools import cached_property

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


@dataclass(frozen=True)
class Context:
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

    def with_degree(self, M: int) -> "Context":
        return replace(self, M=M)

    def pk(self, k: int) -> int:
        """p^k (k >= 0)."""
        return self.p ** k

    @cached_property
    def _powers(self) -> tuple[list, dict]:
        return [1], {1: 0}

    def p_powers(self, top: int) -> tuple[list, dict]:
        """([1, p, ..., p^k], {p^i: i}) with k >= top: one table per
        Context, extended as far as a caller needs it."""
        pw, exponent = self._powers
        while len(pw) <= top:
            exponent[pw[-1] * self.p] = len(pw)
            pw.append(pw[-1] * self.p)
        return pw, exponent
