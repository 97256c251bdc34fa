import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    ActionOracle, DenseOracle, FormOracle, morphism_violations, t2_dict, vec_dict)
from hlsb import constructions
from hlsb.catalog import catalog_list, concrete_variant, expand_variants, get_row
from hlsb.constructions import (
    BilinearForm,
    MatchedPair,
    Representation,
    _det,
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
from hlsb.errors import DimensionMismatchError, HypothesisError, MorphismError
from hlsb.scalar import ParamRing
from hlsb.structures import (
    HomSuperAlgebra, HomSuperBialgebra, _bracket_cells, _cobracket_cells, zero_bracket)
from hlsb.superlinear import EvenMap, SuperBasis, _map_cells

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
    return diag_family().substitute({"a4": a4, "b4": b4, "b5": b5, "c5": c5}, QQ)


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


def test_representations_are_exactly_the_actions_with_a_valid_semidirect_product(rng):
    """(rho, beta) is a representation of a multiplicative structure A
    exactly when A (x| V passes check(multiplicative=True)."""
    agree = {True: 0, False: 0}
    for v in (v for row in catalog_list() for v in expand_variants(row)):
        A = concrete_variant(v, rng=rng).algebra
        if not A.check(multiplicative=True).passed:
            continue
        n = A.dim
        adjoint = adjoint_representation(A)
        cells = adjoint._cells()
        for _ in range(2):
            idx = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            cells[idx] = cells.get(idx, 0) + rng.choice((-1, 1))
        for rep in (adjoint, dual_representation(adjoint),
                    Representation(A, A.basis, A.alpha, cells)):
            passed = rep.check().passed
            assert semidirect_product(A, rep).check(multiplicative=True).passed == passed, v.ident
            agree[passed] += 1
    assert agree[True] > 50 and agree[False] > 50


def test_zero_dimensional_structures_pass_every_check():
    """A dim-0 algebra and bialgebra, and a small algebra acting on a dim-0
    module, run through every check and construction whose bracket walks
    enumerate rows: nothing indexes a first row, and the module's empty
    columns are its own, not alpha's."""
    empty = SuperBasis(())
    A = HomSuperAlgebra(QQ, empty, {}, {})
    B = HomSuperBialgebra(QQ, empty, {}, {}, {})
    assert A.check(multiplicative=True).passed and A.is_multiplicative()
    assert B.check(multiplicative=True).passed
    square = twist_power(B, 2)
    assert square.dim == 0 and square.check(multiplicative=True).passed
    assert check_admissible(A).passed and check_admissible(B.algebra).passed
    assert adjoint_representation(A).check().passed
    assert dual_representation(adjoint_representation(A)).check().passed
    small = HomSuperAlgebra(QQ, SuperBasis([0, 1]), {(0, 1, 1): 1, (1, 0, 1): -1},
                            {(0, 0): 1, (1, 1): 1})
    assert small.check(multiplicative=True).passed
    rep = Representation(small, empty, [], {})
    assert rep.check().passed and dual_representation(rep).check().passed
    S = semidirect_product(small, rep)
    assert S.dim == 2 and S.check(multiplicative=True).passed
    assert semidirect_product(A, adjoint_representation(A)).check().passed
    D = dualize(B)
    assert D.dim == 0 and D.check(multiplicative=True).passed
    M = manin_supertriple(A, D.algebra, multiplicative=True)
    assert M.double.dim == 0 and M.passed


def test_transport_structure_gives_an_isomorphic_copy():
    B = diag_family()
    f = EvenMap.diagonal(B.ring, B.basis, [2, 3, 5])
    T = transport_structure(B, f)
    assert T.check(multiplicative=True).passed
    assert check_bialgebra_morphism(f, B, T).passed
    g = invert_even_map(f)
    assert f.compose(g).is_identity()
    assert g.compose(f).is_identity()


def test_transport_structure_onto_a_relabelled_basis():
    B = diag_family()
    target = SuperBasis(B.basis.parities, ["x", "y", "z"])
    f = EvenMap(B.ring, B.basis, target, {(0, 0): 1, (1, 0): 1, (1, 1): 3, (2, 2): 5})
    T = transport_structure(B, f)
    assert T.basis == target and T.cobracket != B.cobracket
    assert T.check(multiplicative=True).passed
    assert check_bialgebra_morphism(f, B, T).passed


def test_invert_even_map_requires_invertible_determinant():
    ring = ParamRing(["t"])
    basis = SuperBasis([0])
    f = EvenMap(ring, basis, basis, [[ring.param("t")]])
    with pytest.raises(HypothesisError):
        invert_even_map(f)


def test_dense_dim10_map_inverts_quickly():
    rng = random.Random(10)
    basis = SuperBasis([0] * 10)
    m = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
    f = EvenMap(QQ, basis, basis, m)
    start = time.perf_counter()
    g = invert_even_map(f)
    assert time.perf_counter() - start < 2
    assert f.compose(g).is_identity()


def _laplace(ring, m):
    if not m:
        return ring.one()
    total = ring.zero()
    for c, v in enumerate(m[0]):
        if v:
            term = v * _laplace(ring, [row[:c] + row[c + 1:] for row in m[1:]])
            total = total + term if c % 2 == 0 else total - term
    return total


def test_determinant_matches_laplace_expansion(rng):
    ring = ParamRing(["s", "t"], invertible=["t"])
    s, t = ring.param("s"), ring.param("t")
    monomials = [ring.one(), s, t, t ** -1, s * t]
    for n in range(1, 6):
        basis = SuperBasis([0] * n)
        for _ in range(3):
            m = [[sum((rng.randint(-2, 2) * mono for mono in rng.sample(monomials, 2)),
                      ring.zero()) for _ in range(n)] for _ in range(n)]
            assert BilinearForm(ring, basis, m).determinant() == _laplace(ring, m)


def _berkowitz_calls(monkeypatch):
    calls = []

    def counted(ring, m):
        calls.append(len(m))
        return _det(ring, m)
    monkeypatch.setattr(constructions, "_det", counted)
    return calls


def test_manin_form_determinant_skips_berkowitz(monkeypatch):
    calls = _berkowitz_calls(monkeypatch)
    variants = [v for row in catalog_list() for v in expand_variants(row)]
    assert len(variants) == 77
    for v in variants:
        B = v.bialgebra
        form = manin_supertriple(B.algebra, dualize(B).algebra).form
        assert form.determinant() == _det(form.ring, form.matrix), v.ident
    assert calls == []


def test_monomial_form_determinant_matches_berkowitz(rng, monkeypatch):
    calls = _berkowitz_calls(monkeypatch)
    ring = ParamRing(["s", "t"], invertible=["t"])
    s, t = ring.param("s"), ring.param("t")
    values = [ring.one(), -s, t, 3 * t ** -2, s * t ** -1 + Fraction(1, 2)]
    odd = 0
    for n in range(1, 8):
        basis = SuperBasis([rng.randint(0, 1) for _ in range(n)])
        for _ in range(6):
            perm = rng.sample(range(n), n)
            odd += sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            form = BilinearForm(ring, basis, {(i, perm[i]): rng.choice(values)
                                              for i in range(n)})
            assert form.determinant() == _det(ring, form.matrix), perm
    assert calls == [] and odd > 5
    # two cells in a row, or a column hit twice, is not monomial
    basis = SuperBasis([0, 0, 1])
    dense = BilinearForm(ring, basis, {(0, 1): s, (0, 0): t, (1, 0): 2, (2, 2): t ** -1})
    assert dense.determinant() == _det(ring, dense.matrix) == -2 * s * t ** -1
    singular = BilinearForm(ring, basis, {(0, 1): s, (1, 1): t, (2, 0): 1})
    assert singular.determinant() == ring.zero()
    assert calls == [3, 3]


@pytest.mark.parametrize("x, y", [([1], [1, 0, 0]), ([1, 0, 0], [1, 0, 0, 0])])
def test_bilinear_form_value_refuses_a_vector_of_the_wrong_length(x, y):
    form = BilinearForm(QQ, SuperBasis([0, 1, 1]), {(0, 0): 1, (1, 2): 2})
    assert form.value([1, 1, 0], [1, 0, 1]) == QQ.lift(3)
    with pytest.raises(DimensionMismatchError):
        form.value(x, y)


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


def _dense(cells, shape):
    if len(shape) == 1:
        return [QQ.lift(cells.get((i,), 0)) for i in range(shape[0])]
    return [_dense({idx[1:]: v for idx, v in cells.items() if idx[0] == i}, shape[1:])
            for i in range(shape[0])]


@st.composite
def sparse_actions_and_forms(draw):
    """An algebra, an action of it on a module and a form on it, each a
    few random cells; bracket, action and form cells may break parity."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pm = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    pv = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    value = st.integers(-2, 2)

    def cells(*dims, size=6):
        return draw(st.dictionaries(st.tuples(*(st.integers(0, k - 1) for k in dims)),
                                    value, max_size=size))

    def even_map(p):
        diag = {(i, i): draw(value) for i in range(len(p))}
        return {**diag, **{(i, j): v for (i, j), v in cells(len(p), len(p), size=3).items()
                           if p[i] == p[j]}}
    return (pm, cells(n, n, n, size=8), even_map(pm), pv, even_map(pv),
            cells(n, d, d, size=10), cells(n, n, size=8))


def _found(violations):
    """Violations as (axiom, indices, residual), a matrix residual as the
    dict of its nonzero cells."""
    out = []
    for v in violations:
        r = v.residual
        if isinstance(r, list):
            r = {(i, j): x for i, row in enumerate(r) for j, x in enumerate(row) if x}
        out.append((v.axiom, v.indices, r))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_actions_and_forms())
# rho(e_0) = 0 but rho(alpha(e_0)) = rho(e_1) != 0, so intertwining fails at 0
@example(([0, 0], {}, {(1, 0): 1}, [0], {(0, 0): 1}, {(1, 0, 0): 1}, {}))
def test_action_and_form_violations_match_dense_oracle(data):
    pm, bracket, alpha, pv, beta, action, form = data
    n, d = len(pm), len(pv)
    g = HomSuperAlgebra(QQ, SuperBasis(pm), bracket, alpha)
    module = SuperBasis(pv, ["v%d" % i for i in range(d)])
    br, al = _dense(bracket, (n, n, n)), _dense(alpha, (n, n))
    rho = _dense(action, (n, d, d))
    rep = Representation(g, module, beta, action)
    assert rep.matrices == tuple(tuple(map(tuple, mat)) for mat in rho)
    expected = ActionOracle(QQ, pm, br, al, pv, _dense(beta, (d, d)), rho).violations()
    assert _found(rep.check().violations) == expected
    assert _found(Representation(g, module, beta, rho).check().violations) == expected
    adjoint = [[[br[m][j][i] for j in range(n)] for i in range(n)] for m in range(n)]
    assert (_found(adjoint_representation(g).check().violations)
            == ActionOracle(QQ, pm, br, al, pm, al, adjoint).violations())
    S = BilinearForm(QQ, g.basis, form)
    oracle = FormOracle(QQ, pm, _dense(form, (n, n)), br, al)
    assert _found(S.evenness_violations()) == oracle.evenness()
    assert _found(S.supersymmetry_violations()) == oracle.supersymmetry()
    assert _found(S.self_adjoint_violations(g.alpha)) == oracle.self_adjoint()
    assert _found(S.invariance_violations(g)) == oracle.invariance()


@st.composite
def two_bialgebras_and_a_map(draw):
    """Two bialgebras on one basis and an even map between them, each a
    few random cells; bracket and cobracket cells may break parity."""
    n = draw(st.integers(1, 5))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    value = st.integers(-2, 2)

    def cells(*dims, size):
        return draw(st.dictionaries(st.tuples(*(st.integers(0, k - 1) for k in dims)),
                                    value, max_size=size))

    def even_map():
        diag = {(i, i): draw(value) for i in range(n)}
        return {**diag, **{(i, j): v for (i, j), v in cells(n, n, size=4).items()
                           if p[i] == p[j]}}
    basis = SuperBasis(p)
    src, dst = (HomSuperBialgebra(QQ, basis, cells(n, n, n, size=8), cells(n, n, n, size=8),
                                  even_map()) for _ in range(2))
    return src, dst, EvenMap(QQ, basis, basis, even_map())


def _morphism_found(violations):
    """Violations as (axiom, indices, residual), each residual as the dict
    of its nonzero cells."""
    out = []
    for v in violations:
        r = v.residual
        if v.axiom == "bracket-morphism":
            r = vec_dict(r)
        elif v.axiom == "cobracket-morphism":
            r = t2_dict(r)
        else:
            r = {(i, j): x for i, row in enumerate(r) for j, x in enumerate(row) if x}
        out.append((v.axiom, v.indices, r))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(two_bialgebras_and_a_map())
def test_morphism_residuals_match_the_dense_oracle(data):
    src, dst, f = data
    oracles = [DenseOracle(QQ, B.basis.parities, bracket=B.bracket, cobracket=B.cobracket,
                           alpha=B.alpha.matrix) for B in (src, dst)]
    expected = morphism_violations(*oracles, f.matrix)
    assert _morphism_found(check_bialgebra_morphism(f, src, dst).violations) == expected
    assert (_morphism_found(check_algebra_morphism(f, src.algebra, dst.algebra).violations)
            == [v for v in expected if v[0] != "cobracket-morphism"])


LAURENT = ParamRing(["a", "b"], invertible=["a"])
LAURENT_VALUES = ["a", "-a^-1", "2*b", "a*b - 1", "a^-2*b^2", "3", "-1"]


@st.composite
def structures_to_derive_from(draw):
    """A bialgebra, two even maps on its basis, an exponent and an action of
    its algebra on a module, each a few random cells over QQ or a Laurent
    ring; bracket, cobracket and action cells may break parity."""
    ring = draw(st.sampled_from([QQ, LAURENT]))
    value = (st.integers(-2, 2) if ring is QQ
             else st.sampled_from(LAURENT_VALUES).map(ring.parse))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    pv = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))

    def cells(*dims, size):
        return draw(st.dictionaries(st.tuples(*(st.integers(0, k - 1) for k in dims)),
                                    value, max_size=size))

    def even_map(parities):
        m = len(parities)
        return {(i, j): v for (i, j), v in cells(m, m, size=m * m).items()
                if parities[i] == parities[j]}
    basis = SuperBasis(p)
    B = HomSuperBialgebra(ring, basis, cells(n, n, n, size=10), cells(n, n, n, size=10),
                          even_map(p))
    f, g = (EvenMap(ring, basis, basis, even_map(p)) for _ in range(2))
    module = SuperBasis(pv, ["v%d" % i for i in range(d)])
    rep = Representation(B.algebra, module, even_map(pv), cells(n, d, d, size=8))
    return B, f, g, draw(st.integers(0, 3)), rep


def _assert_canonical_map(f):
    rebuilt = EvenMap(f.ring, f.src, f.dst, _map_cells(f))
    assert f._cols == rebuilt._cols and f.matrix == rebuilt.matrix


def _assert_canonical_algebra(A):
    rebuilt = HomSuperAlgebra(A.ring, A.basis, _bracket_cells(A), A.alpha)
    assert A._rows == rebuilt._rows and A.bracket == rebuilt.bracket
    _assert_canonical_map(A.alpha)


def _assert_canonical_bialgebra(B):
    rebuilt = HomSuperBialgebra(B.ring, B.basis, _bracket_cells(B.algebra),
                                _cobracket_cells(B.coalgebra), B.alpha)
    assert B.coalgebra._planes == rebuilt.coalgebra._planes
    assert B.cobracket == rebuilt.cobracket
    assert B.coalgebra.alpha is B.alpha is B.algebra.alpha
    _assert_canonical_algebra(B.algebra)


def _assert_canonical_action(rep):
    rebuilt = Representation(rep.algebra, rep.module_basis, rep.module_map, rep._cells())
    assert rep._rows == rebuilt._rows and rep.matrices == rebuilt.matrices
    _assert_canonical_map(rep.module_map)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structures_to_derive_from())
# full 2 x 2 blocks: every column of f, its transpose and its powers has two cells
@example((HomSuperBialgebra(QQ, SuperBasis([0, 0]), {(0, 1, 1): 1, (0, 1, 0): 2},
                            {(1, 0, 1): 1, (1, 1, 0): -1, (0, 1, 1): 3},
                            {(0, 0): 1, (0, 1): 2, (1, 0): -1, (1, 1): 1}),
          EvenMap(QQ, SuperBasis([0, 0]), SuperBasis([0, 0]), [[1, 2], [3, 4]]),
          EvenMap(QQ, SuperBasis([0, 0]), SuperBasis([0, 0]), [[0, 1], [1, 1]]), 3,
          Representation(HomSuperAlgebra(QQ, SuperBasis([0, 0]), {}, [[1, 0], [0, 1]]),
                         SuperBasis([0, 0], ["v0", "v1"]), [[1, 1], [1, 0]],
                         {(0, 0, 1): 1, (0, 1, 1): 2, (1, 1, 0): 1})))
def test_derived_structures_are_built_in_canonical_form(data):
    """Each construction that wraps what it derives holds exactly the
    sparse rows, planes and columns, sorted and free of zeros, that the
    validating constructor builds from the same cells, and the same dense
    views."""
    B, f, g, k, rep = data
    for m in (f.transpose(), f.compose(g), f.power(k)):
        _assert_canonical_map(m)
    for convention in ("koszul", "plain"):
        _assert_canonical_bialgebra(dualize(B, convention))
    _assert_canonical_bialgebra(twist(B, f, verify=False))
    gstar = dualize(B).algebra
    _assert_canonical_algebra(dual_matched_pair(B.algebra, gstar).double())
    for action in (coadjoint_action(B.algebra, gstar), dual_coadjoint_action(B.algebra, gstar),
                   dual_representation(rep)):
        _assert_canonical_action(action)


@st.composite
def actions_and_module_vectors(draw):
    """An action of an algebra on a module, a few random cells over QQ or
    a Laurent ring that may break parity, an algebra index m and a module
    vector of one parity, odd as often as even, over the same ring."""
    ring = draw(st.sampled_from([QQ, LAURENT]))
    value = (st.integers(-2, 2) if ring is QQ
             else st.sampled_from(LAURENT_VALUES).map(ring.parse))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pm = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    pv = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    action = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1),
                                            st.integers(0, d - 1)), value, max_size=10))
    parity = draw(st.integers(0, 1))
    vec = [draw(value) if pv[k] == parity else 0 for k in range(d)]
    return ring, pm, pv, action, draw(st.integers(0, n - 1)), vec


@settings(max_examples=80, deadline=None, derandomize=True)
@given(actions_and_module_vectors())
# an odd e_1 acting on an odd v_1 with Laurent entries, onto two rows
@example((LAURENT, [0, 1], [0, 1], {(1, 0, 1): LAURENT.parse("a^-1"),
                                    (1, 1, 1): LAURENT.parse("2*b")},
          1, [0, LAURENT.parse("a*b - 1")]))
def test_act_matches_the_dense_oracle(data):
    """``Representation.act`` is the matrix product rho(e_m) v of the
    dense oracle, for vectors of either parity."""
    ring, pm, pv, action, m, vec = data
    n, d = len(pm), len(pv)
    g = HomSuperAlgebra(ring, SuperBasis(pm), {}, {(i, i): 1 for i in range(n)})
    module = SuperBasis(pv, ["v%d" % i for i in range(d)])
    rep = Representation(g, module, {(k, k): 1 for k in range(d)}, action)
    rho = [[[ring.lift(action.get((a, i, j), 0)) for j in range(d)] for i in range(d)]
           for a in range(n)]
    oracle = ActionOracle(ring, pm, None, None, pv, None, rho)
    want = oracle.reduce(oracle.act(oracle.unit(m),
                                    [(ring.lift(v), (k,)) for k, v in enumerate(vec) if v]))
    assert vec_dict(rep.act(m, vec)) == want
