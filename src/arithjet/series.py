"""Truncated multivariate power series over Q_p.

A TruncatedSeries stores a sparse map from exponent tuples (total degree
<= ctx.M) to PadicRational coefficients.  Absent monomials are zero up to
the series-level ambient precision ``absprec`` (None meaning exactly
zero).  A coefficient that cancels to an O(p^w) zero is kept unless the
ambient bound already covers it (w >= absprec), also in an exact series:
there an absent monomial claims O(p^(10^9)), so dropping the zero would
overstate its precision ((1 + O(5^3)) t - t keeps an O(5^3) t-term).

That is the canonical form every series keeps: tuple keys of degree
<= M, PadicRational values (each canonical, see arithjet.padic), and no
O(p^w) zero with w >= absprec.  ``TruncatedSeries(ctx, vars, coeffs,
absprec)`` validates: it takes any mapping with int or PadicRational
values, drops keys above M, int zeros and covered zeros, and is the one
for input from callers.  ``_series`` trusts: it stores its arguments as
given, for kernel outputs that are canonical by construction.  Products
and sums can cancel to new zeros, so they drop the covered ones before
building the result unchecked; negation, shifts, scaling, truncation,
renaming and extension only carry canonical coefficients over.

Supported operations: ring arithmetic, scalar multiplication, p-power
shifts, composition (by the multinomial theorem where the arguments
allow it, else as the sum of products that defines it; for a series
absprec X the result claims at most X + v, v the least valuation of the
arguments, or X + cap * v when v < 0), reversion of a univariate
series, substitution of zero for variables, numeric evaluation, the
derivative of a univariate series, and residual-valuation comparison for
budgeted identity checks.

Products (and so powers, inverses, composition and reversion) run on
integers in three steps: read a series into int terms (_int_terms, scaled
by its smallest nonzero valuation, monomials packed into single ints),
multiply int terms (_mul_terms visits only the pairs within the degree
cap, _canonical reduces each sum), and build the PadicRationals once
(_build).  A product reads, multiplies and builds; a power reads once,
squares on int terms and builds once; a sum-of-products composition
keeps its powers (each once per call), products and sum on int terms and
builds only its result.  Whatever the kernel, a coefficient must equal
the PadicRational sum of the PadicRational pairwise products, value and
precision alike (see TruncatedSeries.__mul__), and evaluation at a point
the PadicRational sum of the PadicRational terms (see
TruncatedSeries.evaluate, which reduces its sum once, through the
validating PadicRational constructor).
Evaluation reads the terms in increasing valuation, which it gets from
valuations alone, and stops at the first term whose valuation reaches
the claim A so far: that term and every later one are 0 mod p^A, and
their claims cannot lower A, so the skipped terms change neither the
value nor its precision, and it builds unit products only for the terms
it read.  Before that it drops every term c t^e whose degree bound,
c.val + |e| times the least coordinate valuation (no more than the
term's valuation), reaches the series absprec: A never exceeds the
series absprec, so the skip rule would never read such a term, and it
is neither valued nor sorted.  A power of a single stored term with no
series absprec is an exponent shift, c^n t^(n e), not a product chain.
Reversion runs Newton iteration on the tracked operations with one
compose a step, g <- g - (f(g) - t) g', its degrees halved down from M
(_intpoly.newton_schedule; see TruncatedSeries.reversion for why the
step is exact Newton).
"""

from math import comb, gcd
from operator import itemgetter, mul

from . import _intpoly
from .context import Context
from .padic import PadicRational, _padic
from .errors import (
    VariableMismatch, NonzeroConstantTerm, NonUnitLinearCoefficient,
    DivisionByZero, ArithJetError,
)

_INF = float("inf")


def _minp(a, b):
    """min of two absolute precisions where None means infinite."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _addp(a, k):
    return None if a is None else a + k


def _int_terms(f, cap: int):
    """f read as int terms (terms, s, absprec, mv, n) at cap.  terms holds
    (key, degree, x, v, A) for each coefficient of degree <= cap: key =
    sum(e[i] * (cap + 1)^i) packs its exponents e (_build unpacks them),
    x * p^s is its value (x = 0 for an O(p^w) zero), v its valuation and
    A its absprec.  absprec is f's, and mv = f.min_valuation() and
    n = len(f.coeffs) count every stored term, those above cap included."""
    weights = [(cap + 1) ** i for i in range(len(f.vars))]
    p = f.ctx.p
    m = min((c.val for c in f.coeffs.values() if c.unit), default=0)
    terms = []
    for e, c in f.coeffs.items():
        d = sum(e)
        if d > cap:
            continue
        x = c.unit * p ** (c.val - m) if c.unit else 0
        terms.append((sum(map(mul, e, weights)), d, x, c.val, c.val + c.rel))
    return terms, m, f.absprec, f.min_valuation(), len(f.coeffs)


def _canonical(ctx: Context, acc: dict, s: int, absp):
    """Int terms of acc, {key: [total, A, degree]} at scale s: each
    total * p^s known mod p^A in canonical form, x * p^s with
    x = total mod p^(A-s) and v its valuation (from gcd(x, p^(A-s)) and
    the Context's table of p-powers), or the zero O(p^A) (x = 0, v = A),
    which is dropped when absp covers it (A >= absp)."""
    p = ctx.p
    pw, exponent = ctx.p_powers(max(
        (A for total, A, _ in acc.values() if total), default=s) - s)
    keep = _INF if absp is None else absp  # a zero O(p^A) stays if A < keep
    out, mv = [], keep
    for k, (total, A, d) in acc.items():
        if total and A > s and (x := total % pw[A - s]):
            v = s if x % p else s + exponent[gcd(x, pw[A - s])]
        elif A < keep:
            x, v = 0, A
        else:
            continue
        out.append((k, d, x, v, A))
        if v < mv:
            mv = v
    return out, s, absp, mv, len(out)


def _mul_terms(ctx: Context, a, b, cap: int):
    """The product of int terms a and b read at cap, as int terms; see
    TruncatedSeries.__mul__ for what each coefficient is."""
    ta, sa, Xa, mva, na = a
    tb, sb, Xb, mvb, nb = b
    t1 = None if (Xa is None or mvb is _INF) else Xa + mvb
    t2 = None if (Xb is None or mva is _INF) else Xb + mva
    if na > nb:  # the shorter operand runs outermost
        ta, tb = tb, ta
    fitting: dict = {}  # room -> the terms of tb of degree <= room, in order
    acc: dict = {}  # packed key -> [sum, A, degree]
    for k1, d1, x1, v1, A1 in ta:
        room = cap - d1
        partners = fitting.get(room)
        if partners is None:
            partners = fitting[room] = [t for t in tb if t[1] <= room]
        for k2, d2, x2, v2, A2 in partners:
            k = k1 + k2
            prec = A1 + v2
            if v1 + A2 < prec:
                prec = v1 + A2
            entry = acc.get(k)
            if entry is None:
                acc[k] = [x1 * x2, prec, d1 + d2]
            else:
                entry[0] += x1 * x2
                if prec < entry[1]:
                    entry[1] = prec
    return _canonical(ctx, acc, sa + sb, _minp(t1, t2))


def _add_terms(ctx: Context, a, b):
    """a + b on int terms, as TruncatedSeries.__add__ gives it: a's
    monomials first, and on a shared one PadicRational.__add__'s
    canonical (x_a + x_b) mod p^min(A_a, A_b), zeros included."""
    ta, sa, Xa, _, _ = a
    tb, sb, Xb, _, _ = b
    s = min(sa, sb)
    pw = ctx.p_powers(max(sa, sb) - s)[0]
    acc = {k: [x * pw[sa - s], A, d] for k, d, x, _, A in ta}
    for k, d, x, _, A in tb:
        entry = acc.setdefault(k, [0, A, d])
        entry[0] += x * pw[sb - s]
        entry[1] = min(entry[1], A)
    return _canonical(ctx, acc, s, _minp(Xa, Xb))


def _build(ctx: Context, variables: tuple, packed, cap: int):
    """The TruncatedSeries of int terms packed at cap, each coefficient
    built once, unchecked."""
    terms, s, absprec, _, _ = packed
    pw = ctx.p_powers(max((v for _, _, x, v, _ in terms if x), default=s) - s)[0]
    base = cap + 1
    weights = [base ** i for i in range(len(variables))]
    return _series(ctx, variables, {
        tuple([k // w % base for w in weights]):
            _padic(ctx, x // pw[v - s], v, A - v) if x else _padic(ctx, 0, A, 0)
        for k, _, x, v, A in terms}, absprec)


def _power_rows(args):
    """Each argument's terms c x^d as (d, variable index, c), highest
    degree first, if no argument has a series absprec and each term is a
    power of a variable no other term uses; else None."""
    seen, rows = set(), []
    for a in args:
        if a.absprec is not None:
            return None
        row = []
        for e, c in a.coeffs.items():
            used = [n for n, k in enumerate(e) if k]
            if len(used) != 1 or used[0] in seen:
                return None
            seen.add(used[0])
            row.append((e[used[0]], used[0], c))
        rows.append(sorted(row, key=itemgetter(0, 1), reverse=True))
    return rows


def _splits(degrees, k: int, room: int) -> list[tuple]:
    """The exponent vectors e with sum(e) = k and sum(e_m * degrees[m])
    at most room, in descending order."""
    if len(degrees) < 2:  # all of k on the one term, or k = 0 on none
        fits = k * degrees[0] <= room if degrees else not k
        return [(k,) * len(degrees)] if fits else []
    d = degrees[0]
    return [(e,) + tail for e in range(min(k, room // d), -1, -1)
            for tail in _splits(degrees[1:], k - e, room - e * d)]


def _unit_exponent(variables: tuple, name) -> tuple:
    """The exponent of the variable name; VariableMismatch names it if absent."""
    if name not in variables:
        raise VariableMismatch(f"no variable {name!r} in {variables}")
    return tuple(int(v == name) for v in variables)


def _index_getter(indices: list):
    """e -> the tuple of e's entries at indices, by itemgetter (which
    returns a bare entry for one index and needs at least one)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda e: tuple([e[i] for i in indices])


def _series(ctx: Context, variables: tuple, coeffs: dict, absprec):
    """The TruncatedSeries with exactly these fields, unchecked: the
    caller holds coeffs in canonical form (module docstring)."""
    f = _new(TruncatedSeries)
    _set_ctx(f, ctx)
    _set_vars(f, variables)
    _set_coeffs(f, coeffs)
    _set_absprec(f, absprec)
    return f


class TruncatedSeries:
    __slots__ = ("ctx", "vars", "coeffs", "absprec")

    def __init__(self, ctx: Context, variables, coeffs=None, absprec=None):
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if sum(e) > ctx.M:
                    continue
                if isinstance(c, int):
                    if c == 0:
                        continue
                    c = PadicRational.from_int(ctx, c)
                if c.is_zero() and absprec is not None and c.val >= absprec:
                    continue
                cleaned[tuple(e)] = c
        _set_ctx(self, ctx)
        _set_vars(self, tuple(variables))
        _set_coeffs(self, cleaned)
        _set_absprec(self, absprec)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx, variables, absprec=None):
        return _series(ctx, tuple(variables), {}, absprec)

    @classmethod
    def const(cls, ctx, variables, c):
        z = tuple(0 for _ in variables)
        return cls(ctx, variables, {z: c})

    @classmethod
    def variable(cls, ctx, variables, name):
        return cls(ctx, variables, {_unit_exponent(tuple(variables), name): 1})

    # -- queries ---------------------------------------------------------

    def get(self, expt) -> PadicRational:
        expt = tuple(expt)
        c = self.coeffs.get(expt)
        if c is not None:
            return c
        if len(expt) != len(self.vars):
            raise VariableMismatch(f"exponent of arity {len(expt)} on {self.vars}")
        absprec = 10 ** 9 if self.absprec is None else self.absprec
        return PadicRational.zero(self.ctx, absprec)

    def constant_term(self) -> PadicRational:
        return self.get(tuple(0 for _ in self.vars))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def min_degree(self):
        """Lowest total degree of a stored monomial, O(p^w) zeros included,
        so that a power is cut to zero only when all its terms pass the cap."""
        return min((sum(e) for e in self.coeffs), default=_INF)

    def min_valuation(self):
        """Minimum coefficient valuation (absprec bounds for zero entries)."""
        vals = [c.val for c in self.coeffs.values()]
        if self.absprec is not None:
            vals.append(self.absprec)
        return min(vals, default=_INF)

    def is_integral(self) -> bool:
        return all(c.val >= 0 for c in self.coeffs.values() if not c.is_zero())

    def monomials(self):
        return self.coeffs.keys()

    # -- arithmetic ------------------------------------------------------

    def _chk(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        if self.ctx is not other.ctx and (self.ctx.p, self.ctx.N, self.ctx.M) != \
                (other.ctx.p, other.ctx.N, other.ctx.M):
            raise VariableMismatch("series built over different contexts")

    def _coerce(self, other):
        if isinstance(other, (int, PadicRational)):
            return TruncatedSeries.const(self.ctx, self.vars, other)
        if isinstance(other, TruncatedSeries):
            self._chk(other)
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        absp = _minp(self.absprec, o.absprec)
        coeffs = dict(self.coeffs)
        for e, c in o.coeffs.items():
            prev = coeffs.get(e)
            coeffs[e] = c if prev is None else prev + c
        if absp is not None:  # drop the zeros absp covers, as __init__ does
            coeffs = {e: c for e, c in coeffs.items() if c.unit or c.val < absp}
        return _series(self.ctx, self.vars, coeffs, absp)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.ctx, self.vars,
                       {e: -c for e, c in self.coeffs.items()}, self.absprec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "TruncatedSeries":
        """Multiply by a scalar."""
        if isinstance(c, int):
            c = PadicRational.from_int(self.ctx, c)
        if c.is_zero():
            mv = self.min_valuation()
            absp = None if mv is _INF else c.val + mv
            return TruncatedSeries.zero(self.ctx, self.vars, absp)
        return _series(self.ctx, self.vars,
                       {e: v * c for e, v in self.coeffs.items()},
                       _addp(self.absprec, c.val))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply all coefficients by p^k (exact valuation shift)."""
        return _series(self.ctx, self.vars,
                       {e: c.shift(k) for e, c in self.coeffs.items()},
                       _addp(self.absprec, k))

    def __mul__(self, other, cap=None):
        """Product truncated at total degree cap (at most ctx.M).

        Per output monomial e the loop sums the exact pairwise products
        S_e and takes A_e = min over the pairs of min(A1 + v2, v1 + A2)
        (v a coefficient's valuation, A its absprec; an O(p^w) zero has
        v = A = w); the coefficient is S_e mod p^(A_e) in canonical form
        (_canonical): the unit S_e / p^t prime to p, t the valuation of
        S_e mod p^(A_e), or the zero O(p^(A_e)).  PadicRational add and
        mul are canonical in (value mod p^A, A), so this is exactly the
        sum of the pairwise PadicRational products.  The zeros the series
        absprec covers are dropped, as the validating constructor would.
        Output monomials come in first-hit order of the pair loop, the
        shorter operand outermost.  The operands are read into int terms
        (a square reads its operand once), multiplied, and the product's
        PadicRationals built once, unchecked."""
        if isinstance(other, (int, PadicRational)):
            return self.scale(other)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = self.ctx.M if cap is None else min(cap, self.ctx.M)
        a = _int_terms(self, cap)
        b = a if o is self else _int_terms(o, cap)
        return _build(self.ctx, self.vars, _mul_terms(self.ctx, a, b, cap), cap)

    __rmul__ = __mul__

    def __pow__(self, n: int, cap=None):
        """self^n truncated at cap, as repeated squaring on __mul__ would
        give it; for n >= 2 the squarings and products run on int terms
        (_power_terms) and only the result's PadicRationals are built."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TruncatedSeries.const(self.ctx, self.vars, 1)
        cap = self.ctx.M if cap is None else min(cap, self.ctx.M)
        if n == 1 and self.min_degree() <= cap:
            return self
        return _build(self.ctx, self.vars, self._power_terms(n, cap), cap)

    def _power_terms(self, n: int, cap: int):
        """self^n (n >= 1) at cap as int terms.  A power of terms all above
        the cap is the zero with self's absprec, and a power of a single
        stored term with no series absprec an exponent shift,
        c^n t^(n e), as the products would give them."""
        md = self.min_degree()
        if md is not _INF and md * n > cap:
            return _canonical(self.ctx, {}, 0, self.absprec)
        if len(self.coeffs) == 1 and self.absprec is None:
            (e, c), = self.coeffs.items()
            return _int_terms(_series(self.ctx, self.vars,
                                      {tuple(n * x for x in e): c ** n}, None), cap)
        r = None
        b = _int_terms(self, cap)
        while n:
            if n & 1:
                r = b if r is None else _mul_terms(self.ctx, r, b, cap)
            n >>= 1
            if n:
                b = _mul_terms(self.ctx, b, b, cap)
        return r

    def inverse(self, cap=None) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be a p-adic unit."""
        c0 = self.constant_term()
        if c0.is_zero() or c0.val != 0:
            raise DivisionByZero("series inverse requires a unit constant term")
        cap = self.ctx.M if cap is None else min(cap, self.ctx.M)
        g = TruncatedSeries.const(self.ctx, self.vars, c0.inverse())
        for n in _intpoly.newton_schedule(cap + 1, 1):
            # Newton: g <- g*(2 - f*g), right to degree n - 1
            fg = self.__mul__(g, n - 1)
            two_minus = TruncatedSeries.const(self.ctx, self.vars, 2) - fg
            g = g.__mul__(two_minus, n - 1)
        return g

    def truncate(self, deg: int) -> "TruncatedSeries":
        return _series(self.ctx, self.vars,
                       {e: c for e, c in self.coeffs.items() if sum(e) <= deg},
                       self.absprec)

    # -- structure maps ---------------------------------------------------

    def rename(self, variables) -> "TruncatedSeries":
        variables = tuple(variables)
        if len(variables) != len(self.vars):
            raise VariableMismatch("rename must preserve arity")
        return _series(self.ctx, variables, dict(self.coeffs), self.absprec)

    def extend(self, variables) -> "TruncatedSeries":
        """View on a larger variable tuple (old variables must all appear)."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        idx = [_unit_exponent(variables, v).index(1) for v in self.vars]
        coeffs = {}
        for e, c in self.coeffs.items():
            ee = [0] * len(variables)
            for j, k in zip(idx, e):
                ee[j] = k
            coeffs[tuple(ee)] = c
        return _series(self.ctx, variables, coeffs, self.absprec)

    def set_zero(self, names) -> "TruncatedSeries":
        """Substitute 0 for the named variables and drop them; VariableMismatch
        names any that is not a variable."""
        names = set(names)
        if not names <= set(self.vars):
            raise VariableMismatch(
                f"no variable {sorted(names - set(self.vars))} in {self.vars}")
        keep = _index_getter([i for i, v in enumerate(self.vars) if v not in names])
        kill = _index_getter([i for i, v in enumerate(self.vars) if v in names])
        return _series(self.ctx, keep(self.vars), {
            keep(e): c for e, c in self.coeffs.items() if not any(kill(e))},
            self.absprec)

    def linear_coefficient(self, name) -> PadicRational:
        return self.get(_unit_exponent(self.vars, name))

    def evaluate(self, values: dict) -> PadicRational:
        """Numeric evaluation; values map every variable to a PadicRational
        (topologically nilpotent for honest convergence mod p^N).

        Runs on integers and must equal the PadicRational sum of the
        PadicRational terms c * x^e.  A term's valuation v is the sum of
        its factors' valuations (an O(p^w) zero counting w); it is known
        to v plus the least relative precision among its factors, or is
        O(p^v) when a factor is such a zero.  The sum is known to A, the
        least of these claims and the series absprec, and add and mul are
        canonical in (value mod p^A, A), so the exact integer sum of the
        terms is reduced once, mod p^A.

        The skip rule: v comes from valuations alone, so the terms are
        read in increasing v, and reading stops at the first v >= A (A as
        read so far).  That term and every later one is 0 mod p^A, and
        its claim, v or more, cannot lower A; so the result is the same
        as from every term, and only the terms read build unit products.

        The degree bound: v >= c.val + low * |e|, low the least coordinate
        valuation, whatever their signs (no exponent is negative).  A never
        exceeds the series absprec, so a term whose bound reaches it comes
        after the stop; it is dropped before the terms are valued and
        sorted, which changes neither the value nor its claim."""
        ctx, p = self.ctx, self.ctx.p
        A = 10 ** 9 if self.absprec is None else self.absprec
        try:
            xs = [values[name] for name in self.vars]
        except KeyError as missing:
            raise VariableMismatch(f"no value for variable {missing}") from None
        vals = [x.val for x in xs]
        low = min(vals, default=0)
        order = sorted([(c.val + sum(map(mul, e, vals)), e, c)
                        for e, c in self.coeffs.items()
                        if c.val + low * sum(e) < A], key=itemgetter(0))
        tables = [{} for _ in xs]  # k -> x.unit^k mod p^(x.rel)
        terms = []  # (unit product, valuation) of the nonzero terms read
        for v, e, c in order:
            if v >= A:
                break
            u, rel = c.unit, c.rel
            if u:
                for x, k, table in zip(xs, e, tables):
                    if k:
                        xk = table.get(k)
                        if xk is None:
                            xk = table[k] = pow(x.unit, k, p ** x.rel)
                        u *= xk
                        if x.rel < rel:
                            rel = x.rel
            if u:
                terms.append((u, v))
                if v + rel < A:
                    A = v + rel
            else:
                A = v
        # A >= s: a term read has v < A, and A then falls only to v + rel
        # or to a later zero's v >= s; with no unit term read, s = A
        s = terms[0][1] if terms else A
        total = sum(u * p ** (v - s) for u, v in terms)
        return PadicRational(ctx, total, s, A - s)

    # -- calculus (univariate) --------------------------------------------

    def _require_univariate(self):
        if len(self.vars) != 1:
            raise ArithJetError("operation requires a univariate series")

    def derivative(self) -> "TruncatedSeries":
        self._require_univariate()
        coeffs = {}
        for (k,), c in self.coeffs.items():
            if k >= 1:
                coeffs[(k - 1,)] = c * k
        return TruncatedSeries(self.ctx, self.vars, coeffs, self.absprec)

    # -- composition -------------------------------------------------------

    def compose(self, args: list, cap=None) -> "TruncatedSeries":
        """Substitute args[i] for self.vars[i]; every argument must share
        one variable tuple and have zero constant term.  The arguments
        alone choose the route: the multinomial theorem (_expand) when no
        argument has a series absprec and each stored argument term is a
        power c x^d of a variable no other term uses (ghost polynomials of
        disjoint blocks, the lateral Frobenius x1^p + p x2), else the sum
        of products that defines composition (_sum_of_products), on int
        terms.  Each key claims what the PadicRational products and sums
        that define it claim (see __mul__), and self's series absprec
        enters only at the end, as the bound below, so no zero it covers
        is dropped while a later product still needs its share.

        With a series absprec X, the result claims at most X + v when
        the least min_valuation() v of the arguments is >= 0, and at most
        X + cap * v when it is negative: an absent non-constant monomial
        O(p^X) t^e of self composes to valuation X + |e| v or more, and
        only |e| <= cap reaches the result, as the arguments have no
        constant term; the zeros this bound covers are dropped.  The
        expansion claims this bound (none without X), and both routes read
        an absent constant term of self as zero."""
        if len(args) != len(self.vars):
            raise VariableMismatch("one argument per variable required")
        tgt = args[0].vars
        for a in args:
            if a.vars != tgt:
                raise VariableMismatch("composition arguments on mixed variables")
            if not a.constant_term().is_zero():
                raise NonzeroConstantTerm("composition argument has constant term")
        tctx = args[0].ctx
        cap = tctx.M if cap is None else min(cap, tctx.M)
        v = min(a.min_valuation() for a in args)
        if v < 0:  # an absent t^e, |e| <= cap, composes to X + |e| v or more
            v *= cap
        bound = None if self.absprec is None or v is _INF else self.absprec + v
        rows = _power_rows(args)
        if rows is not None:
            return self._expand(rows, tgt, tctx, cap, bound)
        terms, s, absp, _, _ = self._sum_of_products(args, tctx, cap)
        if bound is not None and (absp is None or bound < absp):
            absp = bound
            terms = [t for t in terms if t[2] or t[4] < absp]
        return _build(tctx, tgt, (terms, s, absp, None, None), cap)

    def _expand(self, rows, tgt, tctx, cap, bound) -> "TruncatedSeries":
        """self(args), rows = _power_rows(args), with series absprec bound,
        less the O(p^w) zeros that bound covers.  A term u p^v t^k of self and
        a split e_j of each k_j over the terms c_m x^(d_m) of args[j] give
        u p^v prod multinomial(k_j; e_j) prod c_m^(e_m) at the monomial
        prod x^(d_m e_m), which no other term or split reaches.  So its
        valuation v + s (s the sum of e_m v_p(c_m) and v_p of the
        multinomials) and its claim v + s + min(r, rel of each c_m used),
        r the term's relative precision, hold for every self and args
        within their claims, and no sound claim is longer; an O(p^w)
        factor gives the zero O(p^(v+s)).  Keys descend in the exponents
        read from the last argument to the first, each from its highest
        degree."""
        p, base = tctx.p, cap + 1
        top = [n for row in reversed(rows) for _, n, _ in row]  # top digit first
        low = [n for n in range(len(tgt)) if n not in top] + top[::-1]
        weights = [base ** low.index(n) for n in range(len(tgt))]
        pw = tctx.p_powers(max([c.rel for c in self.coeffs.values()] + [
            c.rel for row in rows for _, _, c in row], default=0))[0]
        # each argument's terms as (degree, packed key, unit, val, rel)
        terms = [[(d, d * weights[n], c.unit, c.val, c.rel) for d, n, c in row]
                 for row in rows]
        memo: dict[tuple[int, int], list] = {}

        def split_rows(j, k):
            # args[j]^k within the cap: (degree, packed key, the multinomial
            # with p divided out times the units, s, least rel used)
            found = memo.get((j, k))
            if found is None:
                found = memo[(j, k)] = []
                for e in _splits([t[0] for t in terms[j]], k, cap):
                    m, f, left, s, rel, deg, key = 1, 1, k, 0, _INF, 0, 0
                    for em, (d, kk, u, v, r) in zip(e, terms[j]):
                        if em:
                            m *= comb(left, em)
                            f *= u ** em
                            left -= em
                            s += em * v
                            rel = min(rel, r)
                            deg += em * d
                            key += em * kk
                    while not m % p:  # credit v_p of the multinomial to s
                        m //= p
                        s += 1
                    found.append((deg, key, m * f, s, rel))
            return found

        coeffs = {}
        for e, c in self.coeffs.items():
            u, v, r = c.unit, c.val, c.rel
            combos = [(0, 0, 1, 0, _INF)]
            for j, k in enumerate(e):
                combos = [(d1 + d2, k1 + k2, f1 * f2, s1 + s2, min(r1, r2))
                          for d1, k1, f1, s1, r1 in combos
                          for d2, k2, f2, s2, r2 in split_rows(j, k)
                          if d1 + d2 <= cap]
            for _, key, f, s, rel in combos:
                if u and f:  # u * f is prime to p
                    rel = min(r, rel)
                    coeffs[key] = _padic(tctx, u * f % pw[rel], v + s, rel)
                elif bound is None or v + s < bound:  # an O(p^w) factor
                    coeffs[key] = _padic(tctx, 0, v + s, 0)
        return _series(tctx, tgt, {
            tuple([key // w % base for w in weights]): coeffs[key]
            for key in sorted(coeffs, reverse=True)}, bound)

    def _sum_of_products(self, args, tctx, cap):
        """self(args) as int terms: over self's terms c t^e in ascending key
        order, c * prod args[j]^(e_j) by _mul_terms, j rising, summed by
        _add_terms; each power once, from the highest built below or squared."""
        powers = [{} for _ in args]

        def power(j, k):
            built = powers[j]
            if k not in built:
                below = max((b for b in built if b < k), default=0)
                if k == 1:
                    built[k] = _int_terms(args[j], cap)
                elif below:
                    built[k] = _mul_terms(tctx, power(j, below),
                                          power(j, k - below), cap)
                else:
                    built[k] = args[j]._power_terms(k, cap)
            return built[k]

        acc = _canonical(tctx, {}, 0, None)
        for e, c in sorted(self.coeffs.items()):
            # c at the constant key, x * p^s with x = 0 for an O(p^w) zero
            term = ([(0, 0, c.unit, c.val, c.val + c.rel)],
                    c.val if c.unit else 0, None, c.val, 1)
            for j, k in enumerate(e):
                if k:
                    term = _mul_terms(tctx, term, power(j, k), cap)
            acc = _add_terms(tctx, acc, term)
        return acc

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g) = t mod degree M.

        Requires a univariate input u*t + O(t^2) with u a unit.  Newton
        iteration g <- g - (f(g) - t) * g' doubles the degree to which g
        is known (Brent-Kung, J. ACM 1978) with one compose a step: let
        h = f^(-1) and g = h + d with d = O(t^(m+1)).  Then
        f(g) - t = f(h + d) - f(h) = f'(h) d + O(t^(2m+2)) and
        g' = h' + O(t^m), and f'(h) h' = 1 (the derivative of f(h) = t),
        so (f(g) - t) g' = d + O(t^(2m+1)): the step leaves g right to
        degree 2m, as the step by f'(g)^(-1) does, without composing f'
        or inverting a series.  The degrees climb
        _intpoly.newton_schedule(M, 1), [2, 3, 5, 9, 17, 33, 66] for
        M = 66; keys come in ascending degree.

        Why the claims hold: run exactly, the iteration returns the
        reversion of whatever input it is given, and each step (compose,
        truncation, derivative, products, differences) claims only what
        holds for every input within the claims of its operands.  So each
        coefficient of g holds its claim for every f' within the claims of
        f.  This needs the O(p^w) zeros kept: f(g) - t cancels to such
        zeros below the new degree, and dropping them would claim them
        exact.
        """
        self._require_univariate()
        if not self.constant_term().is_zero():
            raise NonUnitLinearCoefficient("reversion input has constant term")
        t = TruncatedSeries.variable(self.ctx, self.vars, self.vars[0])
        u = self.linear_coefficient(self.vars[0])
        if u.is_zero() or u.val != 0:
            raise NonUnitLinearCoefficient("linear coefficient is not a unit")
        g = t.scale(u.inverse())
        for n in _intpoly.newton_schedule(self.ctx.M, 1):
            err = self.truncate(n).compose([g], cap=n) - t
            g = g - err.__mul__(g.derivative(), n)
        return _series(self.ctx, self.vars, dict(sorted(g.coeffs.items())),
                       g.absprec)

    # -- comparison --------------------------------------------------------

    def residual_valuation(self):
        """Minimum valuation over all monomials; _INF when every tracked
        coefficient vanishes.  On a difference the check is meaningful
        modulo the least absprec of its coefficients and series."""
        vals = [c.val for c in self.coeffs.values() if not c.is_zero()]
        return min(vals, default=_INF)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            tail = "" if self.absprec is None else f" + O(p^{self.absprec})"
            return "0" + tail
        bits = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            c = self.coeffs[e]
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        s = " + ".join(bits[:12])
        if len(bits) > 12:
            s += f" + ... [{len(bits)} terms]"
        return s



_new = object.__new__
_set_ctx, _set_vars, _set_coeffs, _set_absprec = (
    TruncatedSeries.__dict__[k].__set__ for k in TruncatedSeries.__slots__)
