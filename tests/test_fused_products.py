"""``scalar._Accumulator`` adds term products into one flat dict and builds
each nonzero cell once.  Its cells must be exactly what the generic path
``_add_at(cells, idx, +-(x * y))`` gives, product after product, each of
them canonical; it must keep every scalar it reads unchanged, and take
the exact product where the rings differ or the exponents may overflow.
A check or construction built on it must leave the structure constants
it reads untouched."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import glmn  # noqa: E402
from test_scalar import scalars  # noqa: E402
from test_structures import LAURENT  # noqa: E402

from hlsb.catalog import expand_variants, get_row  # noqa: E402
from hlsb.constructions import dualize, manin_supertriple, twist_power  # noqa: E402
from hlsb.errors import RingMismatchError, ScalarError  # noqa: E402
from hlsb.scalar import MAX_EXPONENT, ParamRing, _Accumulator, _add_at  # noqa: E402
from hlsb.structures import delta0, delta1  # noqa: E402
from hlsb.superlinear import Tensor2  # noqa: E402
from hlsb.yangbaxter import alpha_fixed_tensors, coboundary_from_r  # noqa: E402

IDX, OTHER = (0, 1), (1, 0)


def state(s):
    """What a scalar holds: its terms in order and its exponent bound."""
    return list(s._terms.items()), s._bound


def generic(cells, x, y, negate, idx=IDX):
    """The cells after the generic path ``_add_at(cells, idx, +-(x * y))``."""
    want = dict(cells)
    _add_at(want, idx, -(x * y) if negate else x * y)
    return want


def accumulated(cells, x, y, negate, ring=LAURENT):
    """The cells after adding *cells* and then +-(x * y) at IDX into one
    accumulator over *ring*."""
    acc = _Accumulator(ring)
    for idx, v in cells.items():
        acc.add(idx, v)
    acc.mul(x, [(IDX, y)], negate)
    return acc.cells()


def assert_canonical(cells):
    for v in cells.values():
        assert v._terms
        assert v._bound < MAX_EXPONENT
        assert all(abs(e) <= v._bound for exps in v.terms for e in exps)
        for c in v._terms.values():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=150, deadline=None)
@given(x=scalars(LAURENT), y=scalars(LAURENT), prior=scalars(LAURENT),
       has_prior=st.booleans(), cancel=st.booleans(), negate=st.booleans())
def test_add_product_matches_the_generic_path(x, y, prior, has_prior, cancel, negate):
    if cancel:  # a prior cell that the product cancels exactly
        prior = x * y if negate else -(x * y)
    cells = {IDX: prior} if has_prior and prior else {}
    before = [state(s) for s in (x, y, prior)]
    want = generic(cells, x, y, negate)
    got = accumulated(cells, x, y, negate)
    assert got == want
    assert [v._bound for v in got.values()] == [v._bound for v in want.values()]
    assert_canonical(got)
    if cancel and has_prior and prior:
        assert IDX not in got
    assert [state(s) for s in (x, y, prior)] == before


@settings(max_examples=100, deadline=None)
@given(first=st.lists(st.tuples(scalars(LAURENT), scalars(LAURENT), st.booleans(),
                                st.booleans()), min_size=1, max_size=4),
       then=st.lists(st.tuples(scalars(LAURENT), scalars(LAURENT), st.booleans(),
                               st.booleans()), max_size=4))
def test_add_products_cancel_a_cell_part_way_and_fill_it_again(first, then):
    """Products into one cell (and a few into another), then the negated
    sum of that cell so far, which cancels it, then more products: the
    cells match the generic path applied in sequence, at the cancelling
    point and at the end."""
    acc, want = _Accumulator(LAURENT), {}
    for x, y, negate, other in first:
        idx = OTHER if other else IDX
        acc.mul(x, [(idx, y)], negate)
        want = generic(want, x, y, negate, idx)
    assert acc.cells() == want
    if IDX in want:
        acc.mul(want[IDX], [(IDX, LAURENT.one())], True)
        want = generic(want, want[IDX], LAURENT.one(), True)
    assert IDX not in acc.cells() and acc.cells() == want
    for x, y, negate, other in then:
        idx = OTHER if other else IDX
        acc.mul(x, [(idx, y)], negate)
        want = generic(want, x, y, negate, idx)
    got = acc.cells()
    assert got == want
    assert_canonical(got)
    # one bound for the whole accumulator: never below a cell's own
    assert all(want[idx]._bound <= v._bound for idx, v in got.items())


def test_add_product_deletes_a_cell_that_cancels():
    s, t = LAURENT.param("s"), LAURENT.param("t")
    x, y = 1 + s, t.inverse() - 2 * s
    assert accumulated({IDX: x * y}, x, y, True) == {}


def test_add_product_stores_an_integral_fraction_sum_as_int():
    s, t = LAURENT.param("s"), LAURENT.param("t")
    half = LAURENT.from_fraction(Fraction(1, 2))
    got = accumulated({IDX: half * s * t}, half * s, t, False)
    assert got[IDX]._terms == (s * t)._terms
    (coeff,) = got[IDX]._terms.values()
    assert type(coeff) is int and coeff == 1


def test_add_product_refuses_a_mismatched_ring():
    other = ParamRing(["u"])
    s, u = LAURENT.param("s"), other.param("u")
    with pytest.raises(RingMismatchError):
        accumulated({}, s, u, False)
    with pytest.raises(RingMismatchError):
        accumulated({}, u, u, False)
    with pytest.raises(RingMismatchError):
        accumulated({IDX: u}, s, s, False)
    # an equal ring that is another object takes the exact path
    twin = ParamRing(["s", "t"], invertible=["t"])
    assert accumulated({IDX: twin.param("s")}, s, s, False, ring=twin) == generic(
        {IDX: twin.param("s")}, s, s, False)
    assert accumulated({IDX: s}, twin.param("s"), s, True) == generic(
        {IDX: s}, twin.param("s"), s, True)


def test_add_product_takes_the_exact_path_near_max_exponent():
    half = MAX_EXPONENT // 2
    x, y = LAURENT.parse("s^%d" % half), LAURENT.parse("t^%d" % half)
    assert x._bound + y._bound >= MAX_EXPONENT
    got = accumulated({IDX: LAURENT.one()}, x, y, True)
    assert got == generic({IDX: LAURENT.one()}, x, y, True)
    assert_canonical(got)
    acc = _Accumulator(LAURENT)
    with pytest.raises(ScalarError, match="MAX_EXPONENT"):
        acc.mul(x, [(IDX, x)])
    assert acc == {}  # refused before any packed key was added


def gl21():
    A = glmn.gl_algebra(2, 1)
    r = glmn.cartan_wedge(A, 2, 1)
    return coboundary_from_r(A, r), r


def jordan8():
    """A symbolic catalog variant with a constant alpha, so that it has
    alpha-fixed tensors."""
    B = expand_variants(get_row("jordan-8"))[0].bialgebra
    rng, r = random.Random(8), Tensor2(B.ring, B.basis)
    for b in alpha_fixed_tensors(B.algebra, even_only=True):
        r = r + b.scale(rng.randint(1, 5))
    return B, r


def constants(B, r):
    """Every scalar of the bracket, cobracket and alpha views and of r."""
    views = [B.bracket, B.cobracket, B.alpha.matrix]
    out = [v for view in views for plane in view for row in plane
           for v in (row if isinstance(row, tuple) else (row,))]
    return out + list(r._cells.values())


@pytest.mark.parametrize("build", [gl21, jordan8], ids=["gl(2|1)", "jordan-8"])
def test_checks_and_constructions_leave_the_constants_unchanged(build):
    B, r = build()
    assert r
    before = [(s, state(s)) for s in constants(B, r)]
    assert B.check(multiplicative=True).passed
    dual = dualize(B)
    twist_power(B, 2)
    manin_supertriple(B.algebra, dual.algebra)
    delta1(B.algebra, delta0(B.algebra, r))
    assert [(s, state(s)) for s, _ in before] == before
