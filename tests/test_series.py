import pytest

from arithjet.context import Context
from arithjet.padic import PadicRational
from arithjet.series import TruncatedSeries
from arithjet.errors import (
    VariableMismatch, NonzeroConstantTerm, NonUnitLinearCoefficient,
)
from test_kernels import effective_precision, integrate


def S(ctx, variables, coeffs):
    return TruncatedSeries(ctx, variables, coeffs)


@pytest.fixture
def ctx():
    return Context(p=5, N=6, M=8)


def test_difference_of_squares(ctx):
    x = TruncatedSeries.variable(ctx, ("x", "y"), "x")
    y = TruncatedSeries.variable(ctx, ("x", "y"), "y")
    assert (x + y) * (x - y) == x * x - y * y


def test_multiplication_absorbs_zero(ctx):
    x = TruncatedSeries.variable(ctx, ("x",), "x")
    f = x * x + x + 1
    z = TruncatedSeries.zero(ctx, ("x",))
    assert (f * z).is_zero()


def test_truncating_product():
    # M=3: (1+x+x^2+x^3)(1-x) = 1 - x^4 -> 1
    ctx = Context(p=5, N=6, M=3)
    f = S(ctx, ("x",), {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    g = S(ctx, ("x",), {(0,): 1, (1,): -1})
    assert f * g == S(ctx, ("x",), {(0,): 1})


def test_variable_mismatch(ctx):
    x = TruncatedSeries.variable(ctx, ("x",), "x")
    y = TruncatedSeries.variable(ctx, ("y",), "y")
    with pytest.raises(VariableMismatch):
        x + y


def test_lookups_name_the_variable_or_arity_they_miss(ctx):
    f = TruncatedSeries.variable(ctx, ("x",), "x")
    for lookup, names in ((lambda: f.get((1, 2)), "arity 2"),
                          (lambda: f.extend(("y", "z")), "'x'"),
                          (lambda: f.linear_coefficient("y"), "'y'"),
                          (lambda: TruncatedSeries.variable(ctx, ("x",), "y"), "'y'"),
                          (lambda: f.evaluate({"y": PadicRational.from_int(ctx, 5)}),
                           "'x'")):
        with pytest.raises(VariableMismatch, match=names):
            lookup()


def test_compose_square_of_sum(ctx):
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    f = t * t
    x = TruncatedSeries.variable(ctx, ("x", "y"), "x")
    y = TruncatedSeries.variable(ctx, ("x", "y"), "y")
    got = f.compose([x + y])
    want = S(ctx, ("x", "y"), {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert got == want


def test_compose_identity(ctx):
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    g = S(ctx, ("u", "v"), {(1, 0): 3, (1, 1): 2, (0, 2): -1})
    assert t.compose([g]) == g


def test_compose_log_like_series():
    # f = sum (-1)^(k+1) t^k / k composed with 5x, p=5, M=3
    ctx = Context(p=5, N=6, M=3)
    f = S(ctx, ("t",), {(k,): PadicRational.from_int(ctx, (-1) ** (k + 1))
                        / PadicRational.from_int(ctx, k)
                        for k in range(1, 4)})
    x5 = S(ctx, ("x",), {(1,): 5})
    got = f.compose([x5])
    assert got.get((1,)) == PadicRational.from_int(ctx, 5)
    assert got.get((2,)) == PadicRational.from_int(ctx, -25) / 2
    assert got.get((3,)) == PadicRational.from_int(ctx, 125) / 3


def test_compose_rejects_constant_term(ctx):
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    g = S(ctx, ("x",), {(0,): 1, (1,): 1})
    with pytest.raises(NonzeroConstantTerm):
        (t * t).compose([g])


def test_exact_series_keeps_an_inexact_zero():
    # (1 + O(5^3)) t - t is O(5^3) t, not an exact 0
    ctx = Context(p=5, N=6, M=5)
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    f = t.scale(PadicRational(ctx, 1, 0, 3)) - t
    assert f.absprec is None and list(f.coeffs) == [(1,)]
    assert f.get((1,)).is_zero() and effective_precision(f) == 3
    # a power past the cap of the nonzero terms still carries the zero:
    # (O(5^3) t + t^2)^3 has 3 O(5^3) t^5
    assert ((f + t * t) ** 3).get((5,)).absprec == 3


def test_reversion_identity(ctx):
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    assert t.reversion() == t


def test_reversion_catalan_signs():
    ctx = Context(p=7, N=8, M=6)
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    f = t + t * t
    g = f.reversion()
    # t - t^2 + 2t^3 - 5t^4 + 14t^5 - 42t^6 (signed Catalan numbers)
    for k, c in [(1, 1), (2, -1), (3, 2), (4, -5), (5, 14), (6, -42)]:
        assert g.get((k,)) == PadicRational.from_int(ctx, c)
    assert f.compose([g]) == t
    assert g.compose([f]) == t


def test_reversion_requires_unit_linear_part(ctx):
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    with pytest.raises(NonUnitLinearCoefficient):
        (t * t).reversion()
    with pytest.raises(NonUnitLinearCoefficient):
        (t.scale(5)).reversion()


def test_inverse_series(ctx):
    t = TruncatedSeries.variable(ctx, ("t",), "t")
    one = TruncatedSeries.const(ctx, ("t",), 1)
    f = one - t
    g = f.inverse()
    # geometric series
    for k in range(ctx.M + 1):
        assert g.get((k,)) == 1
    assert f * g == one


def test_set_zero_and_extend(ctx):
    f = S(ctx, ("x", "y"), {(1, 0): 2, (0, 1): 3, (1, 1): 4})
    fx = f.set_zero(["y"])
    assert fx == S(ctx, ("x",), {(1,): 2})
    g = fx.extend(("x", "y"))
    assert g == S(ctx, ("x", "y"), {(1, 0): 2})


def test_set_zero_names_what_it_cannot_zero(ctx):
    # a name outside the variables is an error, not a variable that is
    # already zero, also beside a name that is a variable
    f = S(ctx, ("x", "y"), {(1, 0): 2, (0, 1): 3})
    for names in (["z"], ["y", "z"]):
        with pytest.raises(VariableMismatch, match="'z'"):
            f.set_zero(names)


def test_integral_flag_and_shift(ctx):
    f = S(ctx, ("x",), {(1,): PadicRational.from_int(ctx, 1) / 5})
    assert not f.is_integral()
    assert f.shift(1).is_integral()


def test_evaluate_matches_symbolic(ctx):
    f = S(ctx, ("x", "y"), {(1, 0): 1, (0, 1): 2, (2, 1): 7})
    vals = {"x": PadicRational.from_int(ctx, 5),
            "y": PadicRational.from_int(ctx, 10)}
    got = f.evaluate(vals)
    assert got == PadicRational.from_int(ctx, 5 + 20 + 7 * 25 * 10)


def test_derivative_integrate_roundtrip(ctx):
    f = S(ctx, ("t",), {(k,): k + 1 for k in range(1, 6)})
    assert integrate(f.derivative()).get((3,)) == f.get((3,))


def test_purity(ctx):
    f = S(ctx, ("x",), {(1,): 2})
    g = S(ctx, ("x",), {(1,): 3})
    _ = f * g
    _ = f + g
    assert f == S(ctx, ("x",), {(1,): 2})
    assert g == S(ctx, ("x",), {(1,): 3})
