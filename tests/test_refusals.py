"""Refusal branches: each case builds an input that one guard of the
package exists to turn away, and asserts the error type it raises."""

import pytest

from hlsb.catalog import concrete_variant, expand_variants, get_row
from hlsb.constructions import (
    MatchedPair, Representation, coadjoint_action, dualize, invert_even_map,
    semidirect_product, transport_structure, twist, twist_power)
from hlsb.errors import (
    DimensionMismatchError, HypothesisError, ParseError, RingMismatchError, ScalarError)
from hlsb.scalar import ParamRing
from hlsb.structures import HomSuperAlgebra, HomSuperBialgebra
from hlsb.superlinear import EvenMap, SuperBasis, Tensor2, Tensor3
from hlsb.yangbaxter import alpha_fixed_tensors

QQ = ParamRing()
X = ParamRing(["x"])
E = SuperBasis([0], ["e"])
F = SuperBasis([0], ["f"])
EF = SuperBasis([0, 0], ["e", "f"])


def algebra(basis, ring=QQ, scale=1):
    """The abelian algebra on *basis* with alpha = scale * id."""
    return HomSuperAlgebra(ring, basis, {}, EvenMap.diagonal(ring, basis, [scale] * basis.dim))


def inert(acting, module_basis, module_map):
    """The zero action of *acting* on *module_basis*."""
    return Representation(acting, module_basis, module_map, {})


def matched_pair(left, right, left_map=None, right_map=None):
    """The matched pair of two zero actions, the left one on right's
    basis with module map *left_map* (right's alpha by default), the
    right one on left's basis with *right_map* (left's alpha)."""
    return MatchedPair(left, right,
                       inert(left, right.basis, left_map or right.alpha),
                       inert(right, left.basis, right_map or left.alpha))


def not_comultiplicative():
    """Abelian on two even vectors, delta(e) = e (x) f - f (x) e and
    alpha = diag(1, 2): alpha is multiplicative but not comultiplicative."""
    alpha = EvenMap.diagonal(QQ, EF, [1, 2])
    return HomSuperBialgebra(QQ, EF, {}, {(0, 0, 1): 1, (0, 1, 0): -1}, alpha)


def bialgebra(basis):
    return HomSuperBialgebra(QQ, basis, {}, {}, EvenMap.identity(QQ, basis))


REFUSALS = {
    # MatchedPair
    "matched pair over two rings": (RingMismatchError,
                                    lambda: matched_pair(algebra(E), algebra(F, X))),
    "matched pair actions off the partner spaces": (
        DimensionMismatchError,
        lambda: MatchedPair(algebra(E), algebra(F), inert(algebra(E), E, algebra(E).alpha),
                            inert(algebra(F), E, algebra(E).alpha))),
    "left action module map not the right alpha": (
        HypothesisError,
        lambda: matched_pair(algebra(E), algebra(F), left_map=EvenMap.diagonal(QQ, F, [2]))),
    "right action module map not the left alpha": (
        HypothesisError,
        lambda: matched_pair(algebra(E), algebra(F), right_map=EvenMap.diagonal(QQ, E, [2]))),
    # _require_dual_shape
    "dual pair over two rings": (RingMismatchError,
                                 lambda: coadjoint_action(algebra(E), algebra(F, X))),
    "dual pair with other parities": (
        HypothesisError,
        lambda: coadjoint_action(algebra(E), algebra(SuperBasis([1], ["f"])))),
    "dual pair without the transposed alpha": (
        HypothesisError, lambda: coadjoint_action(algebra(E), algebra(F, scale=2))),
    # Representation
    "module map off the module basis": (
        DimensionMismatchError,
        lambda: Representation(algebra(E), E, EvenMap.identity(QQ, F), {})),
    "one action matrix too few": (DimensionMismatchError,
                                  lambda: Representation(algebra(EF), E, [[1]], [[[0]]])),
    # constructions
    "semidirect product of another algebra's action": (
        DimensionMismatchError,
        lambda: semidirect_product(algebra(E), inert(algebra(F), E, algebra(E).alpha))),
    "twist by a map off the basis": (
        DimensionMismatchError, lambda: twist(bialgebra(E), EvenMap.identity(QQ, F))),
    "twist power of a map that is not comultiplicative": (
        HypothesisError, lambda: twist_power(not_comultiplicative(), 2)),
    "inverse of a map that is not square": (
        DimensionMismatchError, lambda: invert_even_map(EvenMap(QQ, E, EF, {(0, 0): 1}))),
    "transport from another basis": (
        DimensionMismatchError,
        lambda: transport_structure(bialgebra(E), EvenMap.identity(QQ, F))),
    "unknown pairing convention": (
        ValueError,
        lambda: dualize(HomSuperBialgebra(QQ, E, {}, {(0, 0, 0): 1}, [[1]]), "plainer")),
    # EvenMap
    "diagonal with too few values": (DimensionMismatchError,
                                     lambda: EvenMap.diagonal(QQ, EF, [1])),
    "composition through two bases": (
        DimensionMismatchError,
        lambda: EvenMap.identity(QQ, E).compose(EvenMap.identity(QQ, F))),
    "power of a map that is not an endomorphism": (
        DimensionMismatchError, lambda: EvenMap(QQ, E, F, {(0, 0): 1}).power(2)),
    "negative power": (ValueError, lambda: EvenMap.identity(QQ, E).power(-1)),
    # tensors
    "grid of the wrong shape": (DimensionMismatchError, lambda: Tensor2(QQ, EF, [[1]])),
    "sum of two ranks": (TypeError, lambda: Tensor2(QQ, E) + Tensor3(QQ, E)),
    "sum over two rings": (DimensionMismatchError, lambda: Tensor2(QQ, E) + Tensor2(X, E)),
    # structures
    "alpha off the structure basis": (
        DimensionMismatchError, lambda: HomSuperAlgebra(QQ, E, {}, EvenMap.identity(QQ, F))),
    # scalars
    "duplicate parameter names": (ScalarError, lambda: ParamRing(["x", "x"])),
    "invertible name that is not a parameter": (ScalarError,
                                                lambda: ParamRing(["x"], invertible=["y"])),
    "trailing parse input": (ParseError, lambda: X.parse("x 2")),
    # sampling and the catalog
    "sampling a symbolic alpha": (
        HypothesisError,
        lambda: alpha_fixed_tensors(HomSuperAlgebra(X, E, {}, [[X.param("x")]]))),
    "zero value for an invertible parameter": (
        ValueError,
        lambda: concrete_variant(expand_variants(get_row("diagonal-1"))[0], {"a4": 0})),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_branches(case):
    error, attempt = REFUSALS[case]
    with pytest.raises(error):
        attempt()
