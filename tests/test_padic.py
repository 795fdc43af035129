import random

import pytest

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

def test_context_validation():
    with pytest.raises(ArithJetError):
        Context(p=4)
    with pytest.raises(ArithJetError):
        Context(p=2)
    with pytest.raises(ArithJetError):
        Context(p=5, N=1)
    with pytest.raises(ArithJetError):
        Context(p=5, N=4, M=0)
