"""Independent oracles for the benchmark's operations.

None of these use arithjet's arithmetic.  p-adic outputs are read as
(unit, val, absprec) triples and checked with exact rationals.

* Isocrystal: the Frobenius matrix must have the characteristic
  polynomial of the point count to p^(N-3).  Rank 2 needs trace = a_p and
  det = p; rank 1 needs lambda^2 - a_p lambda + p = 0, and for G_m
  lambda = p.
* Canonical lift: by Deuring and Serre-Tate, an elliptic curve over Q
  with good ordinary reduction at p is the canonical lift of its
  reduction exactly when it has CM and p splits in the CM field.  A curve
  over Q has CM exactly when its j is one of the 13 rational CM
  j-invariants below.
"""

from fractions import Fraction
from typing import NamedTuple

# rational CM j-invariant -> discriminant of its CM field
CM_FIELD_DISCRIMINANT = {
    0: -3, 54000: -3, -12288000: -3,
    1728: -4, 287496: -4,
    -3375: -7, 16581375: -7,
    8000: -8,
    -32768: -11,
    -884736: -19,
    -884736000: -43,
    -147197952000: -67,
    -262537412640768000: -163,
}


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion.
    For an odd prime p it equals the Kronecker symbol."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def has_good_reduction(a4: int, a6: int, p: int) -> bool:
    """The discriminant -16(4 a4^3 + 27 a6^2) is prime to the odd p."""
    return (4 * a4 ** 3 + 27 * a6 ** 2) % p != 0


def j_invariant(a4: int, a6: int) -> Fraction:
    return Fraction(1728 * 4 * a4 ** 3, 4 * a4 ** 3 + 27 * a6 ** 2)


def trace_of_frobenius(a4: int, a6: int, p: int) -> int:
    """a_p = p + 1 - #E(F_p) = -sum_x (f(x)/p) for y^2 = f(x)."""
    return -sum(legendre(x ** 3 + a4 * x + a6, p) for x in range(p))


def expected_canonical_lift(a4: int, a6: int, p: int) -> bool:
    """Whether y^2 = x^3 + a4 x + a6 is the canonical lift of its
    reduction at p (good reduction required)."""
    if not has_good_reduction(a4, a6, p):
        raise ValueError(f"y^2 = x^3 + {a4}x + {a6} has bad reduction at {p}")
    if trace_of_frobenius(a4, a6, p) % p == 0:
        return False  # supersingular
    D = CM_FIELD_DISCRIMINANT.get(j_invariant(a4, a6))
    return D is not None and legendre(D, p) == 1


# -- p-adic numbers read from (unit, val, absprec) triples ------------------


EXACT = 10 ** 9  # precision of an exact integer


class Approx(NamedTuple):
    """A rational known modulo p^prec."""

    value: Fraction
    prec: int


def _vp(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def from_triple(t, p: int) -> Approx:
    unit, val, absprec = t
    return Approx(Fraction(unit) * Fraction(p) ** val, absprec)


def valuation(x: Approx, p: int) -> int:
    """Valuation of a nonzero value; the precision bound of a zero one."""
    return x.prec if x.value == 0 else min(_vp(x.value, p), x.prec)


def add(x: Approx, y: Approx) -> Approx:
    return Approx(x.value + y.value, min(x.prec, y.prec))


def mul(x: Approx, y: Approx, p: int) -> Approx:
    return Approx(x.value * y.value,
                  min(x.prec + valuation(y, p), y.prec + valuation(x, p)))


def agrees(x: Approx, target: int, k: int, p: int) -> bool:
    """x = target modulo p^k, with x known at least that far."""
    if x.prec < k:
        return False
    d = x.value - target
    return d == 0 or _vp(d, p) >= k


def exact(n: int) -> Approx:
    return Approx(Fraction(n), EXACT)


def isocrystal_agrees(matrix, a_p: int | None, p: int, N: int) -> bool:
    """Check a Frobenius matrix of (unit, val, absprec) triples against the
    point count; a_p None means G_m, whose eigenvalue is p."""
    k = N - 3
    m = [[from_triple(t, p) for t in row] for row in matrix]
    if len(m) == 2:
        trace = add(m[0][0], m[1][1])
        det = add(mul(m[0][0], m[1][1], p),
                  mul(mul(exact(-1), m[0][1], p), m[1][0], p))
        return agrees(trace, a_p, k, p) and agrees(det, p, k, p)
    if len(m) != 1:
        return False
    lam = m[0][0]
    if a_p is None:
        return agrees(lam, p, k, p)
    charpoly = add(add(mul(lam, lam, p), mul(exact(-a_p), lam, p)), exact(p))
    return agrees(charpoly, 0, k, p)
