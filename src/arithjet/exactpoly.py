"""Exact multivariate integer polynomials.

Carrier for the universal Witt structure polynomials (S_i, P_i, Frobenius
components and the ghost polynomials w_i), where divisions by p^i must be
performed exactly over Z and verified.  Coefficients are Python ints with
no modular reduction.
"""

from .errors import InexactDivision, VariableMismatch


class ExactPoly:
    """Immutable polynomial in named variables with integer coefficients.

    terms: dict mapping exponent tuples (one slot per variable) to
    nonzero integer coefficients.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})

    def __setattr__(self, *a):
        raise AttributeError("ExactPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, variables, c: int) -> "ExactPoly":
        z = tuple(0 for _ in variables)
        return cls(variables, {z: c} if c else {})

    @classmethod
    def variable(cls, variables, name: str) -> "ExactPoly":
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): 1})

    # -- basic ops -------------------------------------------------------

    def _chk(self, other: "ExactPoly"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = ExactPoly.const(self.vars, other)
        self._chk(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return ExactPoly(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = ExactPoly.const(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        self._chk(other)
        t: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return ExactPoly(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        r = ExactPoly.const(self.vars, 1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b if n > 1 else b
            n >>= 1
        return r

    def exact_div(self, k: int) -> "ExactPoly":
        """Divide every coefficient by k, raising InexactDivision on remainder."""
        t = {}
        for e, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise InexactDivision(f"coefficient {c} not divisible by {k}")
            t[e] = q
        return ExactPoly(self.vars, t)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = ExactPoly.const(self.vars, other)
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None

    def substitute(self, values: dict):
        """Evaluate with each variable bound to a value in any commutative
        ring supporting +, *, ** and integer scalars.  Variables not
        occurring in the polynomial may be omitted from the mapping."""
        out = None
        for e, c in self.terms.items():
            term = None
            for name, exp in zip(self.vars, e):
                if exp == 0:
                    continue
                f = values[name] ** exp
                term = f if term is None else term * f
            term = c if term is None else term * c
            out = term if out is None else out + term
        return 0 if out is None else out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")
