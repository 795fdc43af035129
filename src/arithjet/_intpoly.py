"""Dense truncated polynomials over Z or Z/mZ, as lists of Python ints.

A polynomial is the list [c_0, c_1, ...] of its coefficients.  Products
use Kronecker substitution: both operands are packed into one big
integer, one slot of whole bytes per coefficient, so the product is a
single big-int multiply (Harvey, J. Symbolic Comput. 2009).  Slots hold
signed values (each carries an offset of half its range), so the same
code serves exact integer polynomials and residues mod m.  Inverses use
Newton iteration g <- g (2 - f g), doubling the length each step
(Brent-Kung, J. ACM 1978).

With ``mod`` given every result coefficient lies in [0, mod); without it
results are exact integers.
"""

from .errors import DivisionByZero


def _halves(count: int, nbytes: int) -> int:
    """The integer whose count slots of nbytes bytes each hold 2^(8 nbytes - 1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(coeffs: list[int], nbytes: int) -> int:
    """sum c_i 2^(8 nbytes i), for |c_i| < 2^(8 nbytes - 1)."""
    half = 1 << (8 * nbytes - 1)
    data = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(data, "little") - _halves(len(coeffs), nbytes)


def _unpack(x: int, nbytes: int, slots: int, count: int) -> list[int]:
    """The first count of the slots signed coefficients packed in x."""
    half = 1 << (8 * nbytes - 1)
    data = (x + _halves(slots, nbytes)).to_bytes(slots * nbytes, "little")
    return [int.from_bytes(data[i:i + nbytes], "little") - half
            for i in range(0, count * nbytes, nbytes)]


def mul(a: list[int], b: list[int], n: int, mod: int | None = None) -> list[int]:
    """The first n coefficients of a*b (reduced into [0, mod) if mod)."""
    a, b = a[:n], b[:n]
    if mod is not None:
        a = [x % mod for x in a]
        b = [x % mod for x in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b:
        return [0] * n
    # every product coefficient is below this bound in absolute value
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = bound.bit_length() // 8 + 1
    slots = len(a) + len(b) - 1
    count = min(n, slots)
    out = _unpack(_pack(a, nbytes) * _pack(b, nbytes), nbytes, slots, count)
    if mod is not None:
        out = [x % mod for x in out]
    return out + [0] * (n - count)


def inverse(f: list[int], n: int, mod: int | None = None) -> list[int]:
    """The first n coefficients of 1/f.  f[0] must be a unit: invertible
    mod `mod`, or +-1 when exact."""
    if mod is None:
        if f[0] not in (1, -1):
            raise DivisionByZero("exact series inverse needs constant term +-1")
        g = [f[0]]
    else:
        g = [pow(f[0], -1, mod)]
    k = 1
    while k < n:
        k = min(2 * k, n)
        e = mul(f, g, k, mod)  # f g = 1 + O(t^(old k))
        e[0] -= 1
        d = mul(g, e, k, mod)
        g = [x - y for x, y in zip(g + [0] * (k - len(g)), d)]
        if mod is not None:
            g = [x % mod for x in g]
    return g
