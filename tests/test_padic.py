import random

import pytest

from arithjet.context import Context
from arithjet.padic import PadicScalar, PadicRational
from arithjet.errors import DivisionByZero, ArithJetError


@pytest.fixture
def ctx54():
    return Context(p=5, N=4)


def test_small_integer_arithmetic(ctx54):
    a = PadicScalar(ctx54, 2)
    b = PadicScalar(ctx54, 3)
    assert (a * b).lift() == 6
    assert (a + b).lift() == 5


def test_inverse_of_unit_matches_extended_gcd(ctx54):
    # oracle: pow(2, -1, 5**4)
    inv = PadicScalar(ctx54, 2).inverse()
    assert inv.lift() == pow(2, -1, 625) == 313
    assert (PadicScalar(ctx54, 2) * inv).lift() == 1


def test_inverse_of_uniformizer_promotes(ctx54):
    inv = PadicScalar(ctx54, 5).inverse()
    assert isinstance(inv, PadicRational)
    assert inv.unit == 1 and inv.val == -1


def test_inverse_of_zero_raises(ctx54):
    with pytest.raises(DivisionByZero):
        PadicScalar(ctx54, 0).inverse()
    with pytest.raises(DivisionByZero):
        PadicScalar(ctx54, 625).inverse()


def test_scalar_operators(ctx54):
    a = PadicScalar(ctx54, 7)
    b = PadicScalar(ctx54, 11)
    assert a + b == PadicScalar(ctx54, 18)
    assert a * b == PadicScalar(ctx54, 77)
    assert -a == PadicScalar(ctx54, -7)


def test_precision_is_min_of_operands(ctx54):
    a = PadicScalar(ctx54, 7, prec=4)
    b = PadicScalar(ctx54, 11, prec=2)
    assert (a + b).prec == 2
    assert (a * b).prec == 2


def test_valuation_reporting(ctx54):
    assert PadicScalar(ctx54, 50).valuation() == 2
    assert PadicScalar(ctx54, 0).valuation() is None  # ">= N"
    assert PadicScalar(ctx54, 625).valuation() is None


def test_ring_axioms_randomized():
    ctx = Context(p=7, N=6)
    rng = random.Random(1)
    m = ctx.pk(ctx.N)
    for _ in range(300):
        a, b, c = (PadicScalar(ctx, rng.randrange(m)) for _ in range(3))
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


def test_shift_is_exact():
    ctx = Context(p=5, N=4)
    x = PadicRational.from_int(ctx, 7)
    assert x.shift(-3).val == -3
    assert x.shift(-3).rel == x.rel
    assert x.shift(2).shift(-2) == x


def test_context_validation():
    with pytest.raises(ArithJetError):
        Context(p=4)
    with pytest.raises(ArithJetError):
        Context(p=2)
    with pytest.raises(ArithJetError):
        Context(p=5, N=1)
    with pytest.raises(ArithJetError):
        Context(p=5, N=4, M=0)
