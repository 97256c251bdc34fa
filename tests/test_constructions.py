from fractions import Fraction

import pytest

from hlsb.catalog import concrete_variant, expand_variants, get_row
from hlsb.constructions import (
    BilinearForm,
    MatchedPair,
    adjoint_representation,
    check_admissible,
    check_algebra_morphism,
    check_bialgebra_morphism,
    check_dual_pair,
    coadjoint_action,
    cobracket_from_dual_bracket,
    dual_basis,
    dual_coadjoint_action,
    dual_matched_pair,
    dual_representation,
    dualize,
    invert_even_map,
    manin_supertriple,
    semidirect_product,
    transport_structure,
    twist,
    twist_power,
)
from hlsb.errors import HypothesisError, MorphismError
from hlsb.scalar import ParamRing
from hlsb.structures import HomSuperAlgebra, HomSuperBialgebra, zero_bracket
from hlsb.superlinear import EvenMap, SuperBasis

QQ = ParamRing()


def diag_family(a4="a4"):
    """alpha = diag(1, a4, -1), [e1,e2] = b4 e2, [e1,e3] = b5 e3,
    delta(e1) = c5 e3(x)e3; a valid multiplicative family."""
    ring = ParamRing(["a4", "b4", "b5", "c5"], invertible=["a4"])
    basis = SuperBasis([0, 0, 1])
    br = zero_bracket(ring, basis)
    br[0][1][1] = ring.param("b4")
    br[1][0][1] = -ring.param("b4")
    br[0][2][2] = ring.param("b5")
    br[2][0][2] = -ring.param("b5")
    co = zero_bracket(ring, basis)
    co[0][2][2] = ring.param("c5")
    alpha = EvenMap.diagonal(ring, basis, [ring.one(), ring.lift(a4),
                                           -ring.one()])
    return HomSuperBialgebra(ring, basis, br, co, alpha)


def concrete_diag(a4=-1, b4=2, b5=3, c5=5):
    B = diag_family()
    sub = {"a4": a4, "b4": b4, "b5": b5, "c5": c5}
    ring = QQ
    br = [[[v.substitute(sub, ring=ring) for v in row] for row in plane]
          for plane in B.bracket]
    co = [[[v.substitute(sub, ring=ring) for v in row] for row in plane]
          for plane in B.cobracket]
    al = [[v.substitute(sub, ring=ring) for v in row] for row in B.alpha.matrix]
    return HomSuperBialgebra(ring, B.basis, br, co, al)


def broken_pair_dim2():
    """alpha = id, [e1,e2] = e2, delta(e2) = e1^e2: compatibility fails."""
    basis = SuperBasis([0, 1])
    br = zero_bracket(QQ, basis)
    br[0][1][1] = QQ.one()
    br[1][0][1] = -QQ.one()
    co = zero_bracket(QQ, basis)
    co[1][0][1] = QQ.one()
    co[1][1][0] = -QQ.one()
    return HomSuperBialgebra(QQ, basis, br, co, EvenMap.identity(QQ, basis))


def test_family_is_a_valid_bialgebra():
    B = diag_family()
    assert B.check(multiplicative=True).passed


def test_twist_power_zero_is_identity():
    B = diag_family()
    T = twist_power(B, 0)
    assert T.bracket == B.bracket
    assert T.cobracket == B.cobracket
    assert T.alpha == B.alpha


def test_twist_powers_stay_valid_symbolically():
    B = diag_family()
    for n in range(4):
        assert twist_power(B, n).check(multiplicative=True).passed


def test_twist_power_composes():
    B = diag_family()
    once = twist_power(B, 1)
    twice = twist_power(B, 2)
    again = twist(once, B.alpha)
    assert twice.bracket == again.bracket
    assert twice.cobracket == again.cobracket
    assert twice.alpha == again.alpha


def test_twist_rejects_non_morphism():
    B = diag_family()
    beta = EvenMap.diagonal(B.ring, B.basis, [2, 1, 1])
    with pytest.raises(MorphismError):
        twist(B, beta)


def test_twist_power_needs_multiplicativity():
    B = broken_pair_dim2()
    # make alpha non-multiplicative on purpose
    basis = B.basis
    alpha = EvenMap.diagonal(QQ, basis, [2, 1])
    C = HomSuperBialgebra(QQ, basis, B.bracket, B.cobracket, alpha)
    with pytest.raises(HypothesisError):
        twist_power(C, 1)


def test_alpha_is_an_endomorphism_of_multiplicative_structure():
    B = diag_family()
    assert check_bialgebra_morphism(B.alpha, B, B).passed
    bad = EvenMap.diagonal(B.ring, B.basis, [2, 1, 1])
    report = check_algebra_morphism(bad, B.algebra, B.algebra)
    assert not report.passed
    assert report.by_axiom("bracket-morphism")


def test_dual_basis_labels():
    basis = SuperBasis([0, 1], labels=["x", "y"])
    d = dual_basis(basis)
    assert d.labels == ("x^*", "y^*")
    assert dual_basis(d).labels == ("x", "y")
    assert d.parities == basis.parities


@pytest.mark.parametrize("convention", ["koszul", "plain"])
def test_dualize_is_an_involution(convention):
    B = diag_family()
    DD = dualize(dualize(B, convention), convention)
    assert DD.bracket == B.bracket
    assert DD.cobracket == B.cobracket
    assert DD.alpha == B.alpha
    assert DD.basis.labels == B.basis.labels


@pytest.mark.parametrize("convention", ["koszul", "plain"])
def test_dual_of_valid_is_valid(convention):
    B = diag_family()
    assert dualize(B, convention).check(multiplicative=True).passed


def test_dualize_transposes_alpha():
    B = diag_family()
    D = dualize(B)
    n = B.dim
    for i in range(n):
        for j in range(n):
            assert D.alpha.matrix[i][j] == B.alpha.matrix[j][i]


def test_cobracket_rebuild_inverts_dualize():
    for convention in ("koszul", "plain"):
        B = diag_family()
        gstar = dualize(B, convention).algebra
        rebuilt = cobracket_from_dual_bracket(B.algebra, gstar, convention)
        assert rebuilt == B.cobracket


def test_adjoint_representation_is_a_representation():
    B = concrete_diag()
    rep = adjoint_representation(B.algebra)
    assert rep.check().passed


def test_admissibility_controls_the_dual_adjoint():
    # involutive structure map: admissible, and the dual of the adjoint
    # action is again an action
    B = concrete_diag(a4=-1)
    assert check_admissible(B.algebra).passed
    dual_rep = dual_representation(adjoint_representation(B.algebra))
    assert dual_rep.check().passed
    # non-involutive with a surviving bracket: not admissible, and the
    # dual action fails precisely the intertwine/action conditions
    C = concrete_diag(a4=2)
    assert not check_admissible(C.algebra).passed
    report = dual_representation(adjoint_representation(C.algebra)).check()
    assert not report.passed
    assert report.by_axiom("action-intertwine") or report.by_axiom("action-bracket")


def test_semidirect_product_with_adjoint_module():
    B = concrete_diag()
    A = B.algebra
    rep = adjoint_representation(A)
    S = semidirect_product(A, rep)
    assert S.dim == 2 * A.dim
    # collision handling: module labels pick up primes
    assert S.basis.labels[3:] == ("e1'", "e2'", "e3'")
    assert S.check().passed


def test_transport_structure_gives_an_isomorphic_copy():
    B = diag_family()
    f = EvenMap.diagonal(B.ring, B.basis, [2, 3, 5])
    T = transport_structure(B, f)
    assert T.check(multiplicative=True).passed
    assert check_bialgebra_morphism(f, B, T).passed
    g = invert_even_map(f)
    assert f.compose(g).is_identity()
    assert g.compose(f).is_identity()


def test_invert_even_map_requires_invertible_determinant():
    ring = ParamRing(["t"])
    basis = SuperBasis([0])
    f = EvenMap(ring, basis, basis, [[ring.param("t")]])
    with pytest.raises(HypothesisError):
        invert_even_map(f)


def test_dual_pair_positive():
    B = concrete_diag(a4=-1)
    g = B.algebra
    gstar = dualize(B).algebra
    assert check_dual_pair(g, gstar).passed
    pair = dual_matched_pair(g, gstar)
    assert pair.check().passed
    triple = manin_supertriple(g, gstar)
    assert triple.passed
    assert triple.form.is_nondegenerate()
    assert triple.double.dim == 6


def test_dual_pair_convention_must_match_the_dual():
    # diagonal-10 with unit parameters: the one measured pair whose
    # verdict depends on the convention it is checked under
    v = expand_variants(get_row("diagonal-10"))[0]
    B = concrete_variant(v, assignment={"s": 1, "b2": 1, "b4": 1, "c2": 1})
    for dual_convention in ("koszul", "plain"):
        gstar = dualize(B, dual_convention).algebra
        for convention in ("koszul", "plain"):
            report = check_dual_pair(B.algebra, gstar, convention=convention)
            if convention == dual_convention:
                assert report.passed, (dual_convention, convention)
            else:
                assert report.axioms_violated() == [
                    "pairing-cocycle", "dual-pairing-cocycle"], (
                        dual_convention, convention)


def test_dual_pair_negative_all_three_characterizations_agree():
    B = broken_pair_dim2()
    g = B.algebra
    gstar = dualize(B).algebra
    assert g.check().passed and gstar.check().passed  # halves are fine
    report = check_dual_pair(g, gstar)
    assert not report.passed
    assert report.by_axiom("pairing-cocycle") or report.by_axiom("dual-pairing-cocycle")
    assert not dual_matched_pair(g, gstar).check().passed
    assert not manin_supertriple(g, gstar).passed


def test_manin_form_shape():
    B = concrete_diag(a4=-1)
    triple = manin_supertriple(B.algebra, dualize(B).algebra)
    S = triple.form
    n = B.dim
    # pairing blocks: <e_i, e^j> = (-1)^{|e_i|} delta_ij, <e^j, e_i> = delta_ij
    for i in range(n):
        sign = -1 if B.basis.parity(i) else 1
        assert S.matrix[i][n + i] == sign
        assert S.matrix[n + i][i] == 1
    assert not S.supersymmetry_violations()
    assert not S.evenness_violations()


def test_coadjoint_actions_have_valid_grading():
    B = concrete_diag(a4=-1)
    g = B.algebra
    gstar = dualize(B).algebra
    assert not coadjoint_action(g, gstar).grading_violations()
    assert not dual_coadjoint_action(g, gstar).grading_violations()
