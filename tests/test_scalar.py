import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlsb.errors import ParseError, RingMismatchError, ScalarError
from hlsb.scalar import MAX_NESTING, ParamRing, Scalar

RING = ParamRing(["a", "b", "s"], invertible=["s"])


def coeffs():
    return st.fractions(min_value=-50, max_value=50, max_denominator=9).filter(
        lambda q: q != 0)


@st.composite
def scalars(draw, ring=RING):
    n = draw(st.integers(min_value=0, max_value=4))
    value = ring.zero()
    for _ in range(n):
        exps = []
        for name in ring.names:
            lo = -2 if name in ring.invertible else 0
            exps.append(draw(st.integers(min_value=lo, max_value=3)))
        term = ring.from_fraction(draw(coeffs()))
        for name, e in zip(ring.names, exps):
            term = term * ring.param(name) ** e
        value = value + term
    return value


def test_constants():
    assert RING.zero().is_zero()
    assert RING.one().is_one()
    assert RING.from_fraction(Fraction(2, 4)) == Fraction(1, 2)
    assert RING.from_fraction(0).terms == {}
    assert not RING.zero()
    assert RING.one()


def test_canonical_cancellation():
    a = RING.param("a")
    assert (a - a).is_zero()
    assert (a - a).terms == {}
    assert (a + a) - 2 * a == 0


@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + RING.zero() == x
    assert x * RING.one() == x
    assert x - x == 0


@given(scalars())
def test_str_parse_round_trip(x):
    assert RING.parse(str(x)) == x


def test_parse_examples():
    s = RING.parse("3/2*a^2*b - s")
    expected = Fraction(3, 2) * RING.param("a") ** 2 * RING.param("b") - RING.param("s")
    assert s == expected
    assert RING.parse("-a") == -RING.param("a")
    assert RING.parse("-(a + b)") == -(RING.param("a") + RING.param("b"))
    assert RING.parse("s^-2") == RING.param("s").inverse() ** 2
    assert RING.parse("(1 + a)*(1 - a)") == 1 - RING.param("a") ** 2
    assert RING.parse("0").is_zero()
    assert RING.parse("7/2") == Fraction(7, 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        RING.parse("a +")
    with pytest.raises(ParseError):
        RING.parse("qq")  # unknown parameter
    with pytest.raises(ParseError):
        RING.parse("a^x")
    with pytest.raises(ParseError):
        RING.parse("(a")
    with pytest.raises(ParseError):
        RING.parse("a^-1")  # 'a' is not invertible
    with pytest.raises(ParseError):
        RING.parse("1/b")


def test_parse_nesting_limit():
    deep = MAX_NESTING
    assert RING.parse("(" * deep + "a" + ")" * deep) == RING.param("a")
    assert RING.parse("-" * deep + "a") == RING.param("a")
    assert RING.parse("-(" * (deep // 2) + "a" + ")" * (deep // 2)) == RING.param("a")
    for text in ("(" * 5000 + "a" + ")" * 5000, "-" * 5000 + "a",
                 "(" * (deep + 1) + "a" + ")" * (deep + 1), "+" * (deep + 1) + "a"):
        with pytest.raises(ParseError, match="nested deeper"):
            RING.parse(text)


def test_inverse():
    s = RING.param("s")
    assert s * s.inverse() == 1
    assert (3 * s ** 2).inverse() == Fraction(1, 3) * s ** -2
    with pytest.raises(ScalarError):
        RING.param("a").inverse()
    with pytest.raises(ScalarError):
        (s + 1).inverse()
    with pytest.raises(ScalarError):
        RING.zero().inverse()


def test_ring_mismatch():
    other = ParamRing(["a"])
    with pytest.raises(RingMismatchError):
        RING.param("a") + other.param("a")
    with pytest.raises(RingMismatchError):
        RING.lift(other.param("a"))


@given(scalars(), scalars())
def test_evaluate_is_a_homomorphism(x, y):
    point = {"a": Fraction(2, 3), "b": Fraction(-1), "s": Fraction(5, 2)}
    assert (x + y).evaluate(point) == x.evaluate(point) + y.evaluate(point)
    assert (x * y).evaluate(point) == x.evaluate(point) * y.evaluate(point)


def test_evaluate_rejects_zero_for_invertible():
    s = RING.param("s").inverse()
    with pytest.raises(ScalarError):
        s.evaluate({"s": 0})
    # but an honest polynomial evaluates fine at 0
    assert RING.param("a").evaluate({"a": 0}) == 0


def test_substitute():
    target = ParamRing(["t"], invertible=["t"])
    x = RING.parse("a^2 + b*s^-1")
    out = x.substitute({"a": "t", "b": "2*t", "s": "t^2"}, ring=target)
    assert out == target.parse("t^2 + 2*t^-1")
    # unmapped names pass through by name
    same = RING.parse("a*b").substitute({"a": RING.param("b")})
    assert same == RING.param("b") ** 2
    with pytest.raises(ScalarError):
        x.substitute({"nope": 1})


@given(scalars())
def test_substitute_identity(x):
    assert x.substitute({}) == x


def test_substitution_agrees_with_evaluation():
    # substituting constants, then reading the constant, is evaluation
    x = RING.parse("3*a*b - s^-1")
    sub = x.substitute({"a": 2, "b": Fraction(1, 2), "s": -1})
    assert sub.is_constant()
    assert sub.constant_value() == x.evaluate({"a": 2, "b": Fraction(1, 2), "s": -1})


def test_power():
    a = RING.param("a")
    assert a ** 0 == 1
    assert a ** 3 == a * a * a
    with pytest.raises(ScalarError):
        a ** -1
    s = RING.param("s")
    assert s ** -2 * s ** 2 == 1


def test_power_by_squaring():
    start = time.perf_counter()
    big = RING.parse("a^1234567890")
    assert time.perf_counter() - start < 1.0
    assert big.terms == {(1234567890, 0, 0): 1}
    assert RING.parse("s^-1234567890").terms == {(0, 0, -1234567890): 1}
    for x in (RING.parse("a + 2*b - 1"), RING.parse("3/2*s^-1 - a*b"), RING.zero()):
        product = RING.one()
        for n in range(13):
            assert x ** n == product, (x, n)
            product = product * x
