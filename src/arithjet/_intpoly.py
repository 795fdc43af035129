"""Dense truncated polynomials over Z or Z/mZ, as lists of Python ints.

A polynomial is the list [c_0, c_1, ...] of its coefficients.  Products
use Kronecker substitution: both operands are packed into one big
integer, one slot of whole bytes per coefficient, so the product is a
single big-int multiply (Harvey, J. Symbolic Comput. 2009).  Slots hold
signed values (each carries an offset of half its range), so the same
code serves exact integer polynomials and residues mod m.

A product skips what it can see to be zero.  Leading zeros are split
off as a power of t.  When each operand lives on one parity class,
a = t^ra A(t^2) and b = t^rb B(t^2), the product is t^(ra+rb) (AB)(t^2):
one product of half the length, whose operands may again be of this
shape (w(t) of y^2 = x^3 + a4 x lies in t^3 Z[[t^4]]).  The series of a
short Weierstrass model have this shape, so their products are half as
long; dense operands take the plain product.

Inverses use Newton iteration g <- g - g (f g - 1), doubling the length
each step (Brent-Kung, J. ACM 1978); `newton_inverse_step` is one such
step, for callers that refine an inverse as f changes.

`inverse`, the w(t) iteration of the formal-group layer, series
reversion and the series inverse (TruncatedSeries.inverse) climb one
Newton schedule, `newton_schedule`: the precisions halved down from the
target, ceil(target/2), ... to what is already known, taken in
ascending order.  A step at most doubles what it knows
and ceil(n/2) doubled is at least n, so every step is as short as the
next one allows and the last lands on the target; a doubling loop
overshoots instead (full steps at 64 and then at 66 for a target of 66).

With ``mod`` given every result coefficient lies in [0, mod); without it
results are exact integers.
"""

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
    return _mul(a, b, n, mod)


def _first_nonzero(a: list[int]) -> int | None:
    return next((i for i, x in enumerate(a) if x), None)


def _mul(a: list[int], b: list[int], n: int, mod: int | None) -> list[int]:
    """mul on operands already reduced mod `mod`."""
    ra, rb = _first_nonzero(a), _first_nonzero(b)
    if ra is None or rb is None or ra + rb >= n:
        return [0] * n
    r = ra + rb
    # only a_i with i < n - rb (and b_j with j < n - ra) reach t^(n-1)
    if (n - r > 1 and not any(a[ra + 1:n - rb:2])
            and not any(b[rb + 1:n - ra:2])):
        # t^ra A(t^2) * t^rb B(t^2) = t^r (AB)(t^2), and t^r, t^(r+2), ...
        # below t^n are (n - r + 1) // 2 < n - r coefficients
        out = [0] * n
        out[r::2] = _mul(a[ra:n - rb:2], b[rb:n - ra:2], (n - r + 1) // 2, mod)
        return out
    a, b = a[ra:n - rb], b[rb:n - ra]
    while not a[-1]:
        a.pop()
    while not b[-1]:
        b.pop()
    # every product coefficient is below this bound in absolute value
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = bound.bit_length() // 8 + 1
    slots = len(a) + len(b) - 1
    count = min(n - r, slots)
    out = _unpack(_pack(a, nbytes) * _pack(b, nbytes), nbytes, slots, count)
    if mod is not None:
        out = [x % mod for x in out]
    return [0] * r + out + [0] * (n - r - count)


def newton_inverse_step(f: list[int], g: list[int], k: int,
                        mod: int | None = None) -> list[int]:
    """g - g (f g - 1) mod t^k: 1/f to k coefficients when g is 1/f to
    (k + 1) // 2 of them."""
    e = mul(f, g, k, mod)  # f g = 1 + O(t^((k + 1) // 2))
    e[0] -= 1
    d = mul(g, e, k, mod)
    g = [x - y for x, y in zip(g[:k] + [0] * (k - len(g)), d)]
    if mod is not None:
        g = [x % mod for x in g]
    return g


def newton_schedule(target: int, known: int) -> list[int]:
    """The precisions target, ceil(target/2), ... that exceed `known`,
    in ascending order: newton_schedule(66, 1) = [2, 3, 5, 9, 17, 33, 66]."""
    steps = []
    while target > known:
        steps.append(target)
        target = (target + 1) // 2
    return steps[::-1]


def inverse(f: list[int], n: int, mod: int) -> list[int]:
    """The first n coefficients of 1/f mod `mod`; f[0] must be invertible
    mod `mod`."""
    g = [pow(f[0], -1, mod)]
    for k in newton_schedule(n, 1):
        g = newton_inverse_step(f, g, k, mod)
    return g
