import random

import pytest
from hypothesis import example, given, settings, strategies as st

from arithjet.context import Context
from arithjet.padic import PadicRational
from arithjet.errors import DivisionByZero, ArithJetError


@pytest.fixture
def ctx54():
    return Context(p=5, N=4)


def mod_pk(ctx, n, prec=4):
    """n as an element of Z/p^prec."""
    return PadicRational(ctx, n, 0, prec)


def test_small_integer_arithmetic(ctx54):
    a = mod_pk(ctx54, 2)
    b = mod_pk(ctx54, 3)
    assert (a * b).lift() == 6
    assert (a + b).lift() == 5


def test_inverse_of_unit_matches_extended_gcd(ctx54):
    # oracle: pow(2, -1, 5**4)
    inv = mod_pk(ctx54, 2).inverse()
    assert inv.lift() == pow(2, -1, 625) == 313
    assert (mod_pk(ctx54, 2) * inv).lift() == 1


def test_inverse_of_zero_raises(ctx54):
    with pytest.raises(DivisionByZero):
        mod_pk(ctx54, 0).inverse()
    with pytest.raises(DivisionByZero):
        mod_pk(ctx54, 625).inverse()


def test_scalar_operators(ctx54):
    a = mod_pk(ctx54, 7)
    b = mod_pk(ctx54, 11)
    assert a + b == mod_pk(ctx54, 18)
    assert a * b == mod_pk(ctx54, 77)
    assert -a == mod_pk(ctx54, -7)


def test_precision_is_min_of_operands(ctx54):
    a = mod_pk(ctx54, 7, prec=4)
    b = mod_pk(ctx54, 11, prec=2)
    assert (a + b).absprec == 2
    assert (a * b).absprec == 2


def test_valuation_reporting(ctx54):
    assert mod_pk(ctx54, 50).valuation() == 2
    for zero in (mod_pk(ctx54, 0), mod_pk(ctx54, 625)):
        assert zero.is_zero()
        assert zero.valuation() == 4  # ">= N"


def test_ring_axioms_randomized():
    ctx = Context(p=7, N=6)
    rng = random.Random(1)
    m = ctx.pk(ctx.N)
    for _ in range(300):
        a, b, c = (PadicRational(ctx, rng.randrange(m), 0, ctx.N) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_rational_representation(ctx54):
    x = PadicRational.from_int(ctx54, 50)
    assert (x.unit, x.val) == (2, 2)
    assert repr(x) == "2*5^2 + O(5^6)"
    z = PadicRational.zero(ctx54, 4)
    assert repr(z) == "O(5^4)"


def test_rational_mul_valuations_add():
    ctx = Context(p=5, N=6)
    rng = random.Random(2)
    for _ in range(200):
        a = PadicRational(ctx, rng.randrange(1, 5 ** 6), rng.randrange(-4, 5))
        b = PadicRational(ctx, rng.randrange(1, 5 ** 6), rng.randrange(-4, 5))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_rational_cancellation_tracks_precision():
    ctx = Context(p=5, N=4)
    a = PadicRational(ctx, 1, 0)         # 1 + O(5^4)
    b = PadicRational(ctx, 1 + 25, 0)    # 26 = 1 + 5^2
    d = a - b
    assert d.valuation() == 2
    assert d.absprec == 4                # rel dropped to 2
    assert (a - a).is_zero()
    assert (a - a).absprec == 4


def test_rational_inverse_and_division():
    ctx = Context(p=5, N=4)
    x = PadicRational.from_int(ctx, 10)  # 2*5
    y = x.inverse()
    assert (x * y) == PadicRational.one(ctx)
    assert y.val == -1
    q = PadicRational.from_int(ctx, 6) / PadicRational.from_int(ctx, 2)
    assert q == PadicRational.from_int(ctx, 3)


def test_foreign_left_operand_of_a_division_is_not_implemented():
    # "a" / x reached NotImplemented * x.inverse() before it raised
    ctx = Context(p=5, N=4)
    x = PadicRational.from_int(ctx, 10)
    assert x.__rtruediv__("a") is NotImplemented
    with pytest.raises(TypeError, match="'str' and 'PadicRational'"):
        "a" / x
    q = 2 / x
    assert (q.unit, q.val, q.rel) == (1, -1, 4)  # 2 / (2 * 5) = 5^(-1)
    assert q == PadicRational.from_int(ctx, 2) * x.inverse()


def test_from_int_reads_rel_zero_as_no_digits():
    # rel = 0 claims no relative digits, for zero as for any n: 0 is then
    # O(p^0), as 5 is O(5^1); an absent rel claims N
    ctx = Context(p=5, N=4)
    zero = PadicRational.from_int(ctx, 0, 0)
    assert zero.is_zero() and zero.absprec == 0
    assert PadicRational.from_int(ctx, 5, 0).absprec == 1
    assert PadicRational.from_int(ctx, 0).absprec == 4
    assert PadicRational.from_int(ctx, 0, 3).absprec == 3


def test_shift_is_exact():
    ctx = Context(p=5, N=4)
    x = PadicRational.from_int(ctx, 7)
    assert x.shift(-3).val == -3
    assert x.shift(-3).rel == x.rel
    assert x.shift(2).shift(-2) == x


def test_zeroth_power_is_one_for_every_base():
    # the empty product: an O(p^w) zero included, whose positive powers
    # stay zeros of the scaled bound
    ctx = Context(p=5, N=8)
    for x in (PadicRational.zero(ctx, 4), PadicRational.zero(ctx, -2),
              PadicRational.from_int(ctx, 10), PadicRational(ctx, 3, -1, 2)):
        one = x ** 0
        assert (one.unit, one.val) == (1, 0), x
        assert one == PadicRational.one(ctx)
    cube = PadicRational.zero(ctx, 4) ** 3
    assert cube.is_zero() and cube.val == 12


# -- trusted producers against the validating constructor ----------------------


def fields(x):
    return x.unit, x.val, x.rel


def validated(ctx, n, m, A):
    """The validating constructor on n * p^m known mod p^A."""
    k = min(m, A)
    return PadicRational(ctx, n * ctx.p ** (m - k), k, A - k)


@st.composite
def padic(draw, ctx):
    """A nonzero value (rel = 1 among them, negative valuations too) or an
    O(p^w) zero."""
    if draw(st.integers(0, 3)) == 0:
        return PadicRational.zero(ctx, draw(st.integers(-3, 8)))
    return PadicRational(ctx, draw(st.integers(-ctx.p ** 7, ctx.p ** 7)),
                         draw(st.integers(-4, 6)), draw(st.integers(1, 6)))


@st.composite
def padic_pair(draw):
    """(ctx, a, b), b drawn on its own or as -a at another precision, so
    that a + b cancels to an O(p^w) zero."""
    ctx = Context(p=draw(st.sampled_from([3, 5, 7])), N=6)
    a = draw(padic(ctx))
    if draw(st.booleans()) or a.is_zero():
        return ctx, a, draw(padic(ctx))
    rel = draw(st.integers(1, 6))
    return ctx, a, PadicRational(ctx, -a.unit, a.val, rel)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(padic_pair(), st.integers(-3, 3), st.integers(-3, 4))
@example((Context(5, 6), PadicRational(Context(5, 6), 7, 1, 1),
          PadicRational(Context(5, 6), -7, 1, 3)), 0, 0)
@example((Context(3, 6), PadicRational.zero(Context(3, 6), -2),
          PadicRational(Context(3, 6), 2, -3, 1)), -2, 2)
def test_trusted_producers_match_the_validating_constructor(args, k, e):
    ctx, a, b = args
    p = ctx.p
    m = min(a.val, b.val)
    want = validated(ctx, a.unit * p ** (a.val - m) + b.unit * p ** (b.val - m),
                     m, min(a.absprec, b.absprec))
    assert fields(a + b) == fields(want)
    assert fields(-a) == fields(validated(ctx, -a.unit, a.val, a.absprec))
    m = a.val + b.val
    A = m + min(a.rel, b.rel) if a.unit and b.unit else m
    assert fields(a * b) == fields(validated(ctx, a.unit * b.unit, m, A))
    assert fields(a.shift(k)) == fields(validated(ctx, a.unit, a.val + k,
                                                  a.absprec + k))
    if a.is_zero():
        want = validated(ctx, 1, 0, ctx.N) if e == 0 else validated(
            ctx, 0, a.val * e, a.val * e)
        if e >= 0:
            assert fields(a ** e) == fields(want)
        return
    inv = pow(a.unit, -1, p ** a.rel)
    assert fields(a.inverse()) == fields(validated(ctx, inv, -a.val, a.rel - a.val))
    n, v = (a.unit, a.val) if e >= 0 else (inv, -a.val)
    assert fields(a ** e) == fields(validated(ctx, n ** abs(e), v * abs(e),
                                              v * abs(e) + a.rel))


def test_context_validation():
    with pytest.raises(ArithJetError):
        Context(p=4)
    with pytest.raises(ArithJetError):
        Context(p=2)
    with pytest.raises(ArithJetError):
        Context(p=5, N=1)
    with pytest.raises(ArithJetError):
        Context(p=5, N=4, M=0)


def test_context_takes_only_int_budgets():
    # a float budget reached int-only arithmetic before it raised; a bool
    # is an int subclass, and M = True constructed
    for kwargs, name in (({"p": 5.0}, "p"), ({"p": 5, "N": 8.0}, "N"),
                         ({"p": 5, "M": 35.0}, "M"), ({"p": 5, "M": True}, "M"),
                         ({"p": 5, "N": True}, "N"), ({"p": True}, "p")):
        with pytest.raises(ArithJetError, match=f"{name} = "):
            Context(**kwargs)


def test_records_keep_the_dataclass_semantics():
    from arithjet.formalgroup import WeierstrassCurve
    from arithjet.jet import JetCheck, JetIdentityReport

    assert (Context(5).N, Context(5).M) == (8, 12)
    ctx = Context(5, 8, 35)
    assert ctx == Context(p=5, N=8, M=35) and ctx != Context(5, 8, 36)
    assert hash(ctx) == hash(Context(p=5, N=8, M=35))
    assert {ctx: 1}[Context(p=5, N=8, M=35)] == 1
    assert {Context(p=5, N=8, M=35): 1}[ctx] == 1
    E = WeierstrassCurve(0, 0, 0, 1, 1, ctx)
    for record, name in ((ctx, "p"), (E, "a4")):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == before
    assert ctx.p_powers(3)[0] == [1, 5, 25, 125]
    assert E.invariants.a_p == -3  # cached_property fills on a frozen record
    for args, kwargs in (((), {}), ((5,), {"q": 1}), ((5,), {"p": 5}),
                         ((5, 8, 12, 1), {})):
        with pytest.raises(TypeError):
            Context(*args, **kwargs)
    a, b = JetIdentityReport("g", ctx), JetIdentityReport(group="g", ctx=ctx)
    a.add("x", 1.0, 2.0)
    assert b.checks == [] and len(a.checks) == 1
    check = JetCheck("x", 1.0, 2.0)
    with pytest.raises(TypeError):
        hash(check)
    assert check == a.checks[0]
    assert repr(ctx) == "Context(p=5, N=8, M=35)"
    assert repr(check) == ("JetCheck(name='x', residual_valuation=1.0, "
                           "threshold=2.0, note='')")
