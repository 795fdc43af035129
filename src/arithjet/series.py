"""Truncated multivariate power series over Q_p.

A TruncatedSeries stores a sparse map from exponent tuples (total degree
<= ctx.M) to PadicRational coefficients.  Absent monomials are zero up to
the series-level ambient precision ``absprec`` (None meaning exactly
zero).  A coefficient that cancels to an O(p^w) zero is kept unless the
ambient bound already covers it (w >= absprec), also in an exact series:
there an absent monomial claims O(p^(10^9)), so dropping the zero would
overstate its precision ((1 + O(5^3)) t - t keeps an O(5^3) t-term).

Supported operations: ring arithmetic, scalar multiplication, p-power
shifts, composition (recursive Horner), reversion of a univariate series,
substitution of zero for variables, numeric evaluation, derivative and
termwise integration of univariate series, and residual-valuation
comparison for budgeted identity checks.

Products (and so powers, inverses, composition and reversion) run on
integers: each operand is scaled to integers by its smallest nonzero
valuation, monomials are packed into single ints, and only pairs within
the degree cap are visited.  Whatever the kernel, a product coefficient
must equal the PadicRational sum of the PadicRational pairwise products,
value and precision alike (see TruncatedSeries.__mul__).  Evaluation at
a point runs on integers under the same contract: it must equal the
PadicRational sum of the PadicRational terms (see
TruncatedSeries.evaluate), and both reduce their integer sums through
one helper, _scaled_padic.  A composition
computes each power arg^k it needs once per call, and reversion runs
Newton iteration on the tracked operations (see TruncatedSeries.reversion).
"""

from math import gcd
from operator import add

from .context import Context
from .padic import PadicRational
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


def _int_terms(coeffs: dict, cap: int, base: int, p: int):
    """([(key, degree, x, v, A, e)], m) for the coefficients of degree
    <= cap: e is the exponent tuple and key packs it in base `base`,
    x * p^m is the coefficient's value with m the smallest nonzero
    valuation (x = 0 for an O(p^w) zero), v its valuation and A its
    absprec."""
    m = min((c.val for c in coeffs.values() if c.unit), default=0)
    terms = []
    for e, c in coeffs.items():
        d = sum(e)
        if d > cap:
            continue
        key = 0
        for x in reversed(e):
            key = key * base + x
        x = c.unit * p ** (c.val - m) if c.unit else 0
        terms.append((key, d, x, c.val, c.val + c.rel, e))
    return terms, m


def _scaled_padic(ctx: Context, s: int, top: int):
    """scaled(total, A): the PadicRational total * p^s known mod p^A, for
    an integer total and A - s <= top whenever total is nonzero.  It
    reduces total mod p^(A-s) and takes the valuation from
    gcd(r, p^(A-s)) = p^t, from one table of p-powers shared by all the
    calls."""
    p = ctx.p
    pw = [1]
    while len(pw) <= top:
        pw.append(pw[-1] * p)
    exponent = {q: i for i, q in enumerate(pw)}

    def scaled(total, A):
        r = total % pw[A - s] if total and A > s else 0
        if r:
            g = gcd(r, pw[A - s])
            t = exponent[g]
            return PadicRational(ctx, r // g, s + t, A - s - t)
        return PadicRational.zero(ctx, A)

    return scaled


class TruncatedSeries:
    __slots__ = ("ctx", "vars", "coeffs", "absprec")

    def __init__(self, ctx: Context, variables, coeffs=None, absprec=None):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "vars", tuple(variables))
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
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "absprec", absprec)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx, variables, absprec=None):
        return cls(ctx, variables, {}, absprec)

    @classmethod
    def const(cls, ctx, variables, c):
        z = tuple(0 for _ in variables)
        return cls(ctx, variables, {z: c})

    @classmethod
    def variable(cls, ctx, variables, name):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(ctx, variables, {tuple(e): 1})

    # -- queries ---------------------------------------------------------

    def get(self, expt) -> PadicRational:
        expt = tuple(expt)
        c = self.coeffs.get(expt)
        if c is not None:
            return c
        if self.absprec is None:
            return PadicRational.zero(self.ctx, 10 ** 9)
        return PadicRational.zero(self.ctx, self.absprec)

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

    def effective_precision(self):
        """Minimum absolute precision over tracked coefficients."""
        precs = [c.absprec for c in self.coeffs.values()]
        if self.absprec is not None:
            precs.append(self.absprec)
        return min(precs, default=None)

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
        return TruncatedSeries(self.ctx, self.vars, coeffs, absp)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ctx, self.vars,
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
        return TruncatedSeries(self.ctx, self.vars,
                               {e: v * c for e, v in self.coeffs.items()},
                               _addp(self.absprec, c.val))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply all coefficients by p^k (exact valuation shift)."""
        return TruncatedSeries(self.ctx, self.vars,
                               {e: c.shift(k) for e, c in self.coeffs.items()},
                               _addp(self.absprec, k))

    def __mul__(self, other, cap=None):
        """Product truncated at total degree cap (at most ctx.M).

        Per output monomial e the loop sums the exact pairwise products
        S_e and takes A_e = min over the pairs of min(A1 + v2, v1 + A2)
        (v a coefficient's valuation, A its absprec; an O(p^w) zero has
        v = A = w); the coefficient is S_e mod p^(A_e), normalised by
        PadicRational.  PadicRational add and mul are canonical in
        (value mod p^A, A), so this is exactly the sum of the pairwise
        PadicRational products.  Output monomials come in first-hit order
        of the pair loop, the shorter operand outermost."""
        if isinstance(other, (int, PadicRational)):
            return self.scale(other)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = self.ctx.M if cap is None else min(cap, self.ctx.M)
        mva, mvb = self.min_valuation(), o.min_valuation()
        t1 = None if (self.absprec is None or mvb is _INF) else self.absprec + mvb
        t2 = None if (o.absprec is None or mva is _INF) else o.absprec + mva
        absp = _minp(t1, t2)
        a, b = (self, o) if len(self.coeffs) <= len(o.coeffs) else (o, self)
        p, base = self.ctx.p, cap + 1
        ta, sa = _int_terms(a.coeffs, cap, base, p)
        tb, sb = _int_terms(b.coeffs, cap, base, p)
        fitting: dict = {}  # room -> the terms of tb of degree <= room, in order
        acc: dict = {}  # packed key -> [sum, A, exponents of its first pair]
        for k1, d1, x1, v1, A1, e1 in ta:
            room = cap - d1
            partners = fitting.get(room)
            if partners is None:
                partners = fitting[room] = [t for t in tb if t[1] <= room]
            for k2, _, x2, v2, A2, e2 in partners:
                k = k1 + k2
                prec = A1 + v2
                if v1 + A2 < prec:
                    prec = v1 + A2
                entry = acc.get(k)
                if entry is None:
                    acc[k] = [x1 * x2, prec, e1, e2]
                else:
                    entry[0] += x1 * x2
                    if prec < entry[1]:
                        entry[1] = prec
        ctx, s = self.ctx, sa + sb
        top = max((A for total, A, _, _ in acc.values() if total), default=s) - s
        scaled = _scaled_padic(ctx, s, top)
        out = {tuple(map(add, e1, e2)): scaled(total, A)
               for total, A, e1, e2 in acc.values()}
        return TruncatedSeries(ctx, self.vars, out, absp)

    __rmul__ = __mul__

    def __pow__(self, n: int, cap=None):
        if n < 0:
            return self.inverse() ** (-n)
        cap = self.ctx.M if cap is None else min(cap, self.ctx.M)
        md = self.min_degree()
        if n == 0:
            return TruncatedSeries.const(self.ctx, self.vars, 1)
        if md is not _INF and md * n > cap:
            return TruncatedSeries.zero(self.ctx, self.vars,
                                        _addp(self.absprec, 0))
        r = None
        b = self
        k = n
        while k:
            if k & 1:
                r = b if r is None else r.__mul__(b, cap)
            k >>= 1
            if k:
                b = b.__mul__(b, cap)
        return r

    def inverse(self, cap=None) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be a p-adic unit."""
        c0 = self.constant_term()
        if c0.is_zero() or c0.val != 0:
            raise DivisionByZero("series inverse requires a unit constant term")
        cap = self.ctx.M if cap is None else min(cap, self.ctx.M)
        inv0 = c0.inverse()
        g = TruncatedSeries.const(self.ctx, self.vars, inv0)
        deg = 1
        while deg <= cap:
            deg *= 2
            # Newton: g <- g*(2 - f*g)
            fg = self.__mul__(g, min(deg, cap))
            two_minus = TruncatedSeries.const(self.ctx, self.vars, 2) - fg
            g = g.__mul__(two_minus, min(deg, cap))
        return g

    def truncate(self, deg: int) -> "TruncatedSeries":
        return TruncatedSeries(self.ctx, self.vars,
                               {e: c for e, c in self.coeffs.items() if sum(e) <= deg},
                               self.absprec)

    # -- structure maps ---------------------------------------------------

    def rename(self, variables) -> "TruncatedSeries":
        variables = tuple(variables)
        if len(variables) != len(self.vars):
            raise VariableMismatch("rename must preserve arity")
        return TruncatedSeries(self.ctx, variables, dict(self.coeffs), self.absprec)

    def extend(self, variables) -> "TruncatedSeries":
        """View on a larger variable tuple (old variables must all appear)."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        idx = [variables.index(v) for v in self.vars]
        coeffs = {}
        for e, c in self.coeffs.items():
            ee = [0] * len(variables)
            for j, k in zip(idx, e):
                ee[j] = k
            coeffs[tuple(ee)] = c
        return TruncatedSeries(self.ctx, variables, coeffs, self.absprec)

    def set_zero(self, names) -> "TruncatedSeries":
        """Substitute 0 for the named variables and drop them."""
        names = set(names)
        keep = [i for i, v in enumerate(self.vars) if v not in names]
        kill = [i for i, v in enumerate(self.vars) if v in names]
        coeffs = {}
        for e, c in self.coeffs.items():
            if any(e[i] for i in kill):
                continue
            coeffs[tuple(e[i] for i in keep)] = c
        return TruncatedSeries(self.ctx, tuple(self.vars[i] for i in keep),
                               coeffs, self.absprec)

    def linear_coefficient(self, name) -> PadicRational:
        e = [0] * len(self.vars)
        e[self.vars.index(name)] = 1
        return self.get(tuple(e))

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
        terms is reduced once, mod p^A."""
        ctx, p = self.ctx, self.ctx.p
        A = 10 ** 9 if self.absprec is None else self.absprec
        xs = [values[name] for name in self.vars]
        tables = [{} for _ in xs]  # k -> x.unit^k mod p^(x.rel)
        terms = []  # (unit product, valuation) of the nonzero terms
        for e, c in self.coeffs.items():
            u, v, rel = c.unit, c.val, c.rel
            for x, k, table in zip(xs, e, tables):
                if k:
                    v += k * x.val
                    if u:
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
            elif v < A:
                A = v
        s = min((v for _, v in terms), default=A)
        total = sum(u * p ** (v - s) for u, v in terms)
        return _scaled_padic(ctx, s, A - s)(total, A)

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

    def integrate(self) -> "TruncatedSeries":
        """Termwise antiderivative with zero constant term; divides the
        t^k coefficient of the integrand by k+1 (precision tracked)."""
        self._require_univariate()
        coeffs = {}
        for (k,), c in self.coeffs.items():
            coeffs[(k + 1,)] = c / PadicRational.from_int(self.ctx, k + 1)
        return TruncatedSeries(self.ctx, self.vars, coeffs, self.absprec)

    # -- composition -------------------------------------------------------

    def compose(self, args: list, cap=None) -> "TruncatedSeries":
        """Substitute args[i] for self.vars[i]; every argument must share
        one variable tuple and have zero constant term.  Each power
        args[i]^k that the Horner steps need is computed once per call."""
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
        return self._compose_rec(list(range(len(self.vars))), args, {}, tgt,
                                 tctx, cap)

    def _compose_rec(self, active, args, powers, tgt, tctx, cap):
        """Horner in the last variable of `active` that self uses;
        `powers` maps (argument index, k) to args[index]^k at this cap."""
        zero = TruncatedSeries.zero(tctx, tgt, self.absprec)
        if not self.coeffs:
            return zero
        # find last variable actually used
        used = None
        for i in reversed(active):
            if any(e[i] for e in self.coeffs):
                used = i
                break
        if used is None:
            c = self.get(tuple(0 for _ in self.vars))
            return TruncatedSeries.const(tctx, tgt, c) + zero
        # group by exponent of var `used`
        groups: dict[int, dict] = {}
        for e, c in self.coeffs.items():
            k = e[used]
            ee = list(e)
            ee[used] = 0
            groups.setdefault(k, {})[tuple(ee)] = c
        arg = args[used]
        rest = [i for i in active if i != used]

        def power(k):
            if k == 1:
                return arg
            pw = powers.get((used, k))
            if pw is None:
                pw = powers[(used, k)] = arg.__pow__(k, cap)
            return pw

        acc = None
        for k in sorted(groups, reverse=True):
            g = TruncatedSeries(self.ctx, self.vars, groups[k], self.absprec)
            gval = g._compose_rec(rest, args, powers, tgt, tctx, cap)
            if acc is None:
                acc = gval
            else:
                acc = acc.__mul__(power(prev_k - k), cap) + gval
            prev_k = k
        if prev_k > 0:
            acc = acc.__mul__(power(prev_k), cap)
        return acc

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g) = t mod degree M.

        Requires a univariate input u*t + O(t^2) with u a unit.  Newton
        iteration g <- g - (f(g) - t) * f'(g)^(-1) doubles the degree to
        which g is known (Brent-Kung, J. ACM 1978); keys come in ascending
        degree.

        Why the claims hold: run exactly, the iteration returns the
        reversion of whatever input it is given, and each step (compose,
        derivative, inverse, truncation, products, differences) claims
        only what holds for every input within the claims of its operands.
        So each coefficient of g holds its claim for every f' within the
        claims of f.  This needs the O(p^w) zeros kept: f(g) - t cancels
        to such zeros below the new degree, and dropping them would claim
        them exact.
        """
        self._require_univariate()
        if not self.constant_term().is_zero():
            raise NonUnitLinearCoefficient("reversion input has constant term")
        t = TruncatedSeries.variable(self.ctx, self.vars, self.vars[0])
        u = self.linear_coefficient(self.vars[0])
        if u.is_zero() or u.val != 0:
            raise NonUnitLinearCoefficient("linear coefficient is not a unit")
        df = self.derivative()
        g = t.scale(u.inverse())
        n = 1
        while n < self.ctx.M:
            n = min(2 * n, self.ctx.M)
            err = self.truncate(n).compose([g], cap=n) - t
            slope = df.truncate(n - 1).compose([g], cap=n - 1)
            g = g - err.__mul__(slope.inverse(n - 1), n)
        return TruncatedSeries(self.ctx, self.vars, dict(sorted(g.coeffs.items())),
                               g.absprec)

    # -- comparison --------------------------------------------------------

    def residual_valuation(self):
        """Minimum valuation over all monomials; _INF when every tracked
        coefficient vanishes.  On a difference the check is meaningful
        modulo its effective precision."""
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

