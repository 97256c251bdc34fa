import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlsb import structures, superlinear
from hlsb.constructions import Representation, adjoint_representation, check_admissible
from hlsb.errors import (
    DimensionMismatchError, HypothesisError, ParityError, RingMismatchError, ScalarError)
from hlsb.scalar import ParamRing, Scalar, _add_product
from hlsb.structures import (
    HomSuperAlgebra,
    HomSuperBialgebra,
    HomSuperCoalgebra,
    ad_action,
    ad_basis,
    bialgebra_from_deltas,
    delta0,
    delta1,
    zero_bracket,
    zero_cobracket,
)
from hlsb.superlinear import EvenMap, SuperBasis, Tensor2, Tensor3

from dense_oracle import DenseOracle, t2_dict, t3_dict, vec_dict

QQ = ParamRing()


def dim2_family():
    """The 2-dim family: e1 even, e2 odd, [e1,e2]=b e2, [e2,e2]=c e1,
    delta(e2) = d (e1(x)e2 - e2(x)e1), alpha = diag(a1, a2)."""
    ring = ParamRing(["a1", "a2", "b", "c", "d"])
    basis = SuperBasis([0, 1])
    br = zero_bracket(ring, basis)
    br[0][1][1] = ring.param("b")
    br[1][0][1] = -ring.param("b")
    br[1][1][0] = ring.param("c")
    co = zero_cobracket(ring, basis)
    co[1][0][1] = ring.param("d")
    co[1][1][0] = -ring.param("d")
    alpha = [[ring.param("a1"), 0], [0, ring.param("a2")]]
    return ring, HomSuperBialgebra(ring, basis, br, co, alpha)


def test_dim2_residuals_match_hand_values():
    ring, B = dim2_family()
    a1, a2, b, c, d = (ring.param(x) for x in "a1 a2 b c d".split())
    alg = B.algebra

    for i in range(2):
        for j in range(i, 2):
            assert not any(alg.skew_residual(i, j))

    # every Jacobi obstruction is a multiple of a2*b*c
    assert alg.jacobi_residual(1, 1, 1) == [ring.zero(), 3 * a2 * b * c]
    assert alg.jacobi_residual(0, 1, 1) == [-2 * a2 * b * c, ring.zero()]
    assert not any(alg.jacobi_residual(0, 0, 1))
    assert not any(alg.jacobi_residual(0, 0, 0))

    assert alg.mult_residual(0, 1) == [ring.zero(), a2 * b * (1 - a1)]
    assert alg.mult_residual(1, 1) == [c * (a1 - a2 ** 2), ring.zero()]

    coa = B.coalgebra
    for i in range(2):
        assert coa.coskew_residual(i).is_zero()
        assert coa.cojacobi_residual(i).is_zero()
    assert t2_dict(coa.comult_residual(1)) == {
        (0, 1): a2 * d * (1 - a1), (1, 0): -a2 * d * (1 - a1)}

    r01 = B.compat_residual(0, 1)
    assert t2_dict(r01) == {(0, 1): b * d * (1 - a1 ** 2),
                            (1, 0): -b * d * (1 - a1 ** 2)}
    r11 = B.compat_residual(1, 1)
    assert t2_dict(r11) == {(1, 1): 4 * a2 ** 2 * b * d}
    assert B.compat_residual(0, 0).is_zero()


def test_dim2_strata_pass():
    ring, B = dim2_family()
    # a1 = 1, b = 0: everything down to compatibility holds symbolically
    sring = ParamRing(["a2", "c", "d"])
    stratum = B.substitute({"a1": 1, "b": 0}, sring)
    assert stratum.algebra._rows[0][1] == stratum.algebra._rows[1][0] == ()  # b cells dropped
    assert stratum.check().passed
    # generic parameters violate jacobi and compatibility, nothing else
    report = B.check()
    assert set(report.axioms_violated()) == {"jacobi", "compatibility"}


def rand_parity_matrix(rng, basis, ring):
    n = basis.dim
    return [[ring.from_fraction(rng.randint(-3, 3))
             if basis.parity(i) == basis.parity(j) else ring.zero()
             for j in range(n)] for i in range(n)]


def rand_cube(rng, n, ring):
    return [[[ring.from_fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]


def test_random_residuals_match_dense_oracle(rng):
    # structure constants here are arbitrary garbage on purpose: the
    # library and the oracle must agree on residuals of *invalid*
    # structures too
    for trial in range(12):
        parities = [rng.randint(0, 1) for _ in range(3)]
        basis = SuperBasis(parities)
        br = rand_cube(rng, 3, QQ)
        co = rand_cube(rng, 3, QQ)
        al = rand_parity_matrix(rng, basis, QQ)
        B = HomSuperBialgebra(QQ, basis, br, co, al)
        oracle = DenseOracle(QQ, parities, bracket=br, cobracket=co, alpha=al)
        alg, coa = B.algebra, B.coalgebra
        for i in range(3):
            assert t2_dict(coa.coskew_residual(i)) == oracle.coskew(i)
            assert t3_dict(coa.cojacobi_residual(i)) == oracle.cojacobi(i)
            assert t2_dict(coa.comult_residual(i)) == oracle.comult(i)
            for j in range(3):
                assert vec_dict(alg.skew_residual(i, j)) == oracle.skew(i, j)
                assert vec_dict(alg.mult_residual(i, j)) == oracle.mult(i, j)
                assert t2_dict(B.compat_residual(i, j)) == oracle.compat(i, j)
                for k in range(3):
                    assert vec_dict(alg.jacobi_residual(i, j, k)) == oracle.jacobi(i, j, k)


def test_ad_action_matches_dense_oracle(rng):
    for trial in range(8):
        parities = [0, 1, rng.randint(0, 1)]
        basis = SuperBasis(parities)
        br = rand_cube(rng, 3, QQ)
        al = rand_parity_matrix(rng, basis, QQ)
        A = HomSuperAlgebra(QQ, basis, br, al)
        oracle = DenseOracle(QQ, parities, bracket=br, alpha=al)
        m = rng.randrange(3)
        t2 = Tensor2(QQ, basis, [[QQ.from_fraction(rng.randint(-2, 2))
                                  for _ in range(3)] for _ in range(3)])
        t3 = Tensor3(QQ, basis, rand_cube(rng, 3, QQ))
        got2 = ad_basis(A, m, t2)
        want2 = oracle.reduce(oracle.ad(oracle.basis_term(m), parities[m],
                                        [(v, (i, j)) for i, j, v in t2.items()]))
        assert t2_dict(got2) == want2
        got3 = ad_basis(A, m, t3)
        want3 = oracle.reduce(oracle.ad(oracle.basis_term(m), parities[m],
                                        [(v, (i, j, k)) for i, j, k, v in t3.items()]))
        assert t3_dict(got3) == want3


def test_grading_detection():
    basis = SuperBasis([0, 1])
    br = zero_bracket(QQ, basis)
    br[0][0][1] = QQ.one()  # even bracket even -> odd: forbidden
    A = HomSuperAlgebra(QQ, basis, br, EvenMap.identity(QQ, basis))
    report = A.check()
    assert [v.axiom for v in report.by_axiom("bracket-grading")] == ["bracket-grading"]
    assert report.by_axiom("bracket-grading")[0].indices == (0, 0, 1)

    co = zero_cobracket(QQ, basis)
    co[0][0][1] = QQ.one()
    C = HomSuperCoalgebra(QQ, basis, co, EvenMap.identity(QQ, basis))
    assert C.check().by_axiom("cobracket-grading")[0].indices == (0, 0, 1)


def test_fault_injection_changes_exactly_the_right_axioms():
    ring, B = dim2_family()
    # break skew-symmetry by flipping one paired sign
    br = [[[v for v in row] for row in plane] for plane in B.bracket]
    br[1][0][1] = ring.param("b")
    broken = HomSuperAlgebra(ring, B.basis, br, B.alpha)
    report = broken.check()
    assert report.by_axiom("skew")
    assert vec_dict(broken.skew_residual(0, 1)) == {(1,): 2 * ring.param("b")}


def concrete_three_dim():
    """alpha = diag(1, 2, -1), [e1,e2] = 3 e2, [e1,e3] = 5 e3 (e3 odd)."""
    basis = SuperBasis([0, 0, 1])
    br = zero_bracket(QQ, basis)
    br[0][1][1] = QQ.from_fraction(3)
    br[1][0][1] = QQ.from_fraction(-3)
    br[0][2][2] = QQ.from_fraction(5)
    br[2][0][2] = QQ.from_fraction(-5)
    alpha = EvenMap.diagonal(QQ, basis, [1, 2, -1])
    return HomSuperAlgebra(QQ, basis, br, alpha)


def test_delta0_requires_fixed_tensor():
    A = concrete_three_dim()
    r = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})  # eigenvalue 4, not fixed
    with pytest.raises(HypothesisError):
        delta0(A, r)


def test_delta1_after_delta0_vanishes():
    A = concrete_three_dim()
    assert A.check(multiplicative=True).passed
    r = Tensor2.from_dict(QQ, A.basis, {(0, 0): 2, (2, 2): -7})
    deltas = delta0(A, r)
    grid = delta1(A, deltas)
    for row in grid:
        for residual in row:
            assert residual.is_zero()
    # and the packaged object satisfies compatibility by construction
    B = bialgebra_from_deltas(A, deltas)
    assert not B.check().by_axiom("compatibility")


def test_ad_alpha_column_is_ad_of_alpha_image():
    # acting by alpha(e_m) must equal the linear extension of ad to the
    # alpha column, as the action is linear in the acting element
    A = concrete_three_dim()
    t = Tensor2.from_dict(QQ, A.basis, {(0, 2): 1, (2, 0): 2, (1, 1): -1})
    m = 1
    col = A.alpha.column(m)
    got = ad_action(A, (col, A.basis.parity(m)), t)
    want = ad_basis(A, m, t).scale(2)  # alpha(e2) = 2 e2
    assert t2_dict(got) == t2_dict(want)


LAURENT = ParamRing(["s", "t"], invertible=["t"])


def draw_value(rng, ring, value):
    """*value* over QQ; over LAURENT, *value* times a random monomial
    s^a t^b (a in 0..1, b in -1..1), with 1 added at random."""
    value = ring.from_fraction(value)
    if ring is QQ:
        return value
    value = value * ring.param("s") ** rng.randint(0, 1) * ring.param("t") ** rng.randint(-1, 1)
    return value + 1 if rng.random() < 0.3 else value


def sparse_cube(rng, n, fill, empty, ring=QQ):
    """Random integer constants (symbolic over LAURENT, see ``draw_value``)
    with about *fill* of the cells nonzero and every cell whose leading
    indices are in *empty* zero."""
    cube = [[[ring.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i, j) not in empty and i not in empty and rng.random() < fill:
                    cube[i][j][k] = draw_value(rng, ring, rng.choice([-2, -1, 1, 2, 3]))
    return cube


def sparse_tensor(rng, n, rank, fill):
    cells = {}
    for _ in range(int(fill * n ** rank) + 1):
        cells[tuple(rng.randrange(n) for _ in range(rank))] = rng.randint(-2, 2)
    return cells


def residual_dict(r):
    if isinstance(r, list):
        return vec_dict(r)
    if isinstance(r, Tensor3):
        return t3_dict(r)
    return t2_dict(r) if isinstance(r, Tensor2) else r


def oracle_violations(oracle, cube, cocube):
    """The violations check(multiplicative=True) must report, in order,
    computed from the dense grids and the oracle alone."""
    n, p = oracle.n, oracle.p
    out = [("bracket-grading", (i, j, k), cube[i][j][k])
           for i in range(n) for j in range(n) for k in range(n)
           if cube[i][j][k] and (p[i] + p[j]) % 2 != p[k]]
    out += [("skew", (i, j), oracle.skew(i, j)) for i in range(n) for j in range(i, n)]
    out += [("jacobi", (i, j, k), oracle.jacobi(i, j, k))
            for i in range(n) for j in range(i, n) for k in range(j, n)]
    out += [("multiplicative", (i, j), oracle.mult(i, j)) for i in range(n) for j in range(n)]
    out += [("cobracket-grading", (i, j, k), cocube[i][j][k])
            for i in range(n) for j in range(n) for k in range(n)
            if cocube[i][j][k] and p[i] != (p[j] + p[k]) % 2]
    out += [("coskew", (i,), oracle.coskew(i)) for i in range(n)]
    out += [("cojacobi", (i,), oracle.cojacobi(i)) for i in range(n)]
    out += [("comultiplicative", (i,), oracle.comult(i)) for i in range(n)]
    out += [("compatibility", (i, j), oracle.compat(i, j)) for i in range(n) for j in range(n)]
    return [v for v in out if v[2]]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([0.0, 0.05, 0.15, 0.3]), as_dict=st.booleans(),
       laurent=st.booleans())
def test_sparse_constants_match_the_dense_oracle(n, seed, fill, as_dict, laurent):
    """Over QQ, or over a Laurent ring where the residuals are symbolic;
    alpha has random entries on and off the diagonal of both parity
    blocks, so the twisted-bracket rows are sums of products."""
    ring = LAURENT if laurent else QQ
    rng = random.Random(seed)
    parities = [rng.randint(0, 1) for _ in range(n)]
    basis = SuperBasis(parities)
    empty = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}
    empty |= {i for i in range(n) if rng.random() < 0.3}
    cube = sparse_cube(rng, n, fill, empty, ring)
    cocube = sparse_cube(rng, n, fill, empty, ring)
    alpha = [[draw_value(rng, ring, rng.randint(-2, 2))
              if parities[i] == parities[j] and rng.random() < max(fill, 0.3) else ring.zero()
              for j in range(n)] for i in range(n)]

    def cells(grid):
        return {(i, j, k): v for i, plane in enumerate(grid) for j, row in enumerate(plane)
                for k, v in enumerate(row) if v}
    if as_dict:
        B = HomSuperBialgebra(ring, basis, cells(cube), cells(cocube),
                              {(i, j): v for i, row in enumerate(alpha)
                               for j, v in enumerate(row) if v})
    else:
        B = HomSuperBialgebra(ring, basis, cube, cocube, alpha)
    oracle = DenseOracle(ring, parities, bracket=cube, cobracket=cocube, alpha=alpha)
    assert B.bracket == tuple(tuple(map(tuple, plane)) for plane in cube)
    assert B.cobracket == tuple(tuple(map(tuple, plane)) for plane in cocube)
    assert B.alpha.matrix == tuple(map(tuple, alpha))

    got = [(v.axiom, v.indices, residual_dict(v.residual))
           for v in B.check(multiplicative=True).violations]
    assert got == oracle_violations(oracle, cube, cocube)
    alg = B.algebra
    for i in range(n):
        for j in range(n):
            assert vec_dict(alg.mult_residual(i, j)) == oracle.mult(i, j)
            assert t2_dict(B.compat_residual(i, j)) == oracle.compat(i, j)
            for k in range(n):
                assert vec_dict(alg.jacobi_residual(i, j, k)) == oracle.jacobi(i, j, k)
    admissible = [(i, j) for i in range(n) for j in range(n) if oracle.admissible(i, j)]
    assert [(v.indices, vec_dict(v.residual)) for v in check_admissible(alg).violations] \
        == [(ij, oracle.admissible(*ij)) for ij in admissible]
    for rank, kind in ((2, Tensor2), (3, Tensor3)):
        t = kind.from_dict(ring, basis, sparse_tensor(rng, n, rank, fill))
        q = rng.randint(0, 1)
        x = [ring.from_fraction(rng.randint(-1, 1)) if parities[m] == q else ring.zero()
             for m in range(n)]
        want = oracle.reduce(oracle.ad([(v, (m,)) for m, v in enumerate(x) if v], q,
                                       [(row[-1], tuple(row[:-1])) for row in t.items()]))
        assert residual_dict(ad_action(alg, (x, q), t)) == want


@pytest.mark.parametrize("key", [(0, 1.5, 0), (0, True, 1), 5, (0, "1", 1), (0, 1)],
                         ids=repr)
def test_a_malformed_structure_constant_index_is_refused(key):
    basis = SuperBasis([0, 1])
    with pytest.raises(DimensionMismatchError):
        HomSuperAlgebra(QQ, basis, {key: 1}, EvenMap.identity(QQ, basis))
    with pytest.raises(DimensionMismatchError):
        HomSuperCoalgebra(QQ, basis, {key: 1}, {(0, 0): 1, (1, 1): 1})


def test_ad_action_refuses_a_short_vector():
    ring, B = dim2_family()
    with pytest.raises(DimensionMismatchError):
        ad_action(B.algebra, ([ring.one()], 0), Tensor2.from_dict(ring, B.basis, {(0, 1): 1}))


def test_ad_action_refuses_a_long_vector():
    ring, B = dim2_family()
    with pytest.raises(DimensionMismatchError):
        ad_action(B.algebra, ([ring.one()] * 3, 0), Tensor2.from_dict(ring, B.basis, {(0, 1): 1}))


def odd_pair_algebra():
    """Basis (e1 even, e2 odd, e3 odd), [e2, e3] = [e3, e2] = e1, alpha = id."""
    basis = SuperBasis([0, 1, 1])
    return HomSuperAlgebra(QQ, basis, {(1, 2, 0): 1, (2, 1, 0): 1},
                           EvenMap.identity(QQ, basis))


def test_ad_action_of_an_odd_element_signs_the_second_slot():
    A = odd_pair_algebra()
    e3 = [QQ.zero(), QQ.zero(), QQ.one()]
    t = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})
    assert t2_dict(ad_action(A, (e3, 1), t)) == {(0, 1): QQ.one(), (1, 0): -QQ.one()}


@pytest.mark.parametrize("coeffs, parity", [
    ([0, 0, 1], 0),  # e3 is odd, labelled even
    ([1, 1, 0], 0),  # e1 + e2 mixes the parities
    ([1, 0, 0], 2),  # no parity
])
def test_ad_action_refuses_an_element_that_is_not_homogeneous_of_its_parity(coeffs, parity):
    A = odd_pair_algebra()
    t = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})
    with pytest.raises(ParityError):
        ad_action(A, ([QQ.lift(c) for c in coeffs], parity), t)


@pytest.mark.parametrize("length", [1, 3])
def test_delta_vector_and_act_refuse_a_vector_of_the_wrong_length(length):
    ring, B = dim2_family()
    vec = [ring.one()] * length
    with pytest.raises(DimensionMismatchError):
        B.coalgebra.delta_vector(vec)
    rep = Representation(B.algebra, B.basis, B.alpha, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    with pytest.raises(DimensionMismatchError):
        rep.act(0, vec)


@pytest.mark.parametrize("m", [3, -1])
@pytest.mark.parametrize("call", ["act", "ad_basis", "bracket_of", "delta"])
def test_a_basis_index_out_of_range_is_a_dimension_mismatch(call, m):
    A = odd_pair_algebra()
    calls = {
        "act": lambda: adjoint_representation(A).act(m, [1, 1, 1]),
        "ad_basis": lambda: ad_basis(A, m, Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})),
        "bracket_of": lambda: A.bracket_of(1, m),
        "delta": lambda: HomSuperCoalgebra(QQ, A.basis, {(2, 0, 2): 1}, A.alpha).delta(m),
    }
    with pytest.raises(DimensionMismatchError):
        calls[call]()


def test_check_on_zero_constants_multiplies_nothing(monkeypatch):
    n = 30
    basis = SuperBasis([i % 2 for i in range(n)])
    B = HomSuperBialgebra(QQ, basis, zero_bracket(QQ, basis), {},
                          EvenMap.identity(QQ, basis))
    calls = []
    mul = Scalar.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    def counted_product(cells, idx, x, y, negate=False):
        calls.append(1)
        return _add_product(cells, idx, x, y, negate)
    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    for module in (structures, superlinear):
        monkeypatch.setattr(module, "_add_product", counted_product)
    assert B.check(multiplicative=True).passed
    assert calls == []


@pytest.mark.parametrize("call, idx", [
    ("skew", (-1, 0)), ("jacobi", (0, 0, -1)), ("compat", (-1, 0)), ("comult", (-1,)),
    ("jacobi", (0, 0, 7)), ("mult", (9, 0)), ("compat", (5, 0)), ("skew", (0, 2)),
    ("mult", (0, -2)), ("comult", (2,))])
def test_a_residual_index_out_of_range_is_a_dimension_mismatch(call, idx):
    _, B = dim2_family()
    residual = {"skew": B.algebra.skew_residual, "jacobi": B.algebra.jacobi_residual,
                "mult": B.algebra.mult_residual, "compat": B.compat_residual,
                "comult": B.coalgebra.comult_residual}[call]
    with pytest.raises(DimensionMismatchError, match="out of range"):
        residual(*idx)


@pytest.mark.parametrize("count", [1, 3])
def test_cobracket_images_must_cover_the_basis(count):
    ring, B = dim2_family()
    deltas = [Tensor2(ring, B.basis)] * count
    with pytest.raises(DimensionMismatchError, match="cobracket images"):
        delta1(B.algebra, deltas)
    with pytest.raises(DimensionMismatchError, match="cobracket images"):
        bialgebra_from_deltas(B.algebra, deltas)
    # no images at all is the zero cobracket
    assert not any(bialgebra_from_deltas(B.algebra, ()).coalgebra._planes)


@pytest.mark.parametrize("make", [
    lambda ring, basis: Tensor3(ring, basis, {(0, 0, 1): 1}),
    lambda ring, basis: Tensor3(ring, basis),
    lambda ring, basis: [[ring.zero()] * basis.dim] * basis.dim,
], ids=["tensor3", "zero tensor3", "grid"])
def test_a_cobracket_image_that_is_not_a_tensor2_is_a_type_error(make):
    ring, B = dim2_family()
    deltas = [B.delta(0), make(ring, B.basis)]
    for build in (delta1, bialgebra_from_deltas):
        with pytest.raises(TypeError, match="must be a Tensor2"):
            build(B.algebra, deltas)


@pytest.mark.parametrize("nonzero", [False, True])
def test_a_cobracket_image_on_another_basis_is_a_dimension_mismatch(nonzero):
    ring, B = dim2_family()
    other = SuperBasis([1, 0])  # same dimension, other parities
    image = Tensor2(ring, other, {(0, 0): ring.param("d")} if nonzero else None)
    deltas = [image, B.delta(1)]
    for build in (delta1, bialgebra_from_deltas):
        with pytest.raises(DimensionMismatchError, match="bases differ"):
            build(B.algebra, deltas)


def test_structure_constant_views_are_read_only():
    ring, B = dim2_family()
    A = B.algebra
    with pytest.raises(TypeError):
        A.bracket[0][1][1] = ring.one()
    with pytest.raises(TypeError):
        B.cobracket[1][0][1] = ring.one()
    with pytest.raises(TypeError):
        B.alpha.matrix[0][0] = ring.one()
    with pytest.raises(AttributeError):
        A.bracket = zero_bracket(ring, B.basis)
    # the view is the stored constants, unchanged by the failed writes
    assert A.bracket[0][1][1] == ring.param("b")
    assert set(B.check().axioms_violated()) == {"jacobi", "compatibility"}


def test_alpha_over_another_ring_is_refused_at_construction():
    R, S = ParamRing(["a"]), ParamRing(["b"])
    basis = SuperBasis([0, 1])
    alpha = EvenMap.identity(S, basis)
    for build in (lambda: HomSuperBialgebra(R, basis, zero_bracket(R, basis), {}, alpha),
                  lambda: HomSuperAlgebra(R, basis, {}, alpha),
                  lambda: HomSuperCoalgebra(R, basis, {}, alpha)):
        with pytest.raises(RingMismatchError, match="alpha over"):
            build()
    # an equal ring built separately is the same ring
    same = EvenMap.identity(ParamRing(["a"]), basis)
    assert HomSuperBialgebra(R, basis, {}, {}, same).check(multiplicative=True).passed


def substituted_view(grid, values, ring):
    """A dense view with each cell mapped by its own
    ``Scalar.substitute(values, ring=ring)``, as nested tuples."""
    if isinstance(grid, Scalar):
        return grid.substitute(values, ring=ring)
    return tuple(substituted_view(g, values, ring) for g in grid)


def substituted_per_cell(B, values, ring):
    """The bialgebra on B's basis built from its dense ``bracket``,
    ``cobracket`` and ``alpha.matrix`` views mapped cell by cell: the
    oracle for ``HomSuperBialgebra.substitute``."""
    return HomSuperBialgebra(ring, B.basis, *(substituted_view(g, values, ring)
                                              for g in (B.bracket, B.cobracket, B.alpha.matrix)))


T_ONLY = ParamRing(["t"], invertible=["t"])
U_ONLY = ParamRing(["u"], invertible=["u"])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([0.0, 0.15, 0.4]), laurent=st.booleans(),
       target=st.sampled_from(["QQ", "t", "u", "laurent"]),
       s=st.sampled_from([0, 1, -1, Fraction(1, 2), 3]),
       t=st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
@example(n=2, seed=0, fill=0.4, laurent=True, target="t", s=0, t=1)
def test_substitute_is_the_scalar_map_on_every_cell(n, seed, fill, laurent, target, s, t):
    """Over QQ the map is the empty substitution into QQ or into the
    larger LAURENT.  Over LAURENT it sends s and t to constants (into
    QQ), s alone to a constant (a partial substitution into the smaller
    ring Q[t, 1/t]), s and t to text over Q[u, 1/u], or s to s + t within
    LAURENT.  s = 0 sends every cell c*s*t^b to zero, and such cells are
    dropped."""
    ring = LAURENT if laurent else QQ
    rng = random.Random(seed)
    parities = [rng.randint(0, 1) for _ in range(n)]
    basis = SuperBasis(parities)
    alpha = [[draw_value(rng, ring, rng.randint(-2, 2))
              if parities[i] == parities[j] and rng.random() < max(fill, 0.3) else ring.zero()
              for j in range(n)] for i in range(n)]
    B = HomSuperBialgebra(ring, basis, sparse_cube(rng, n, fill, set(), ring),
                          sparse_cube(rng, n, fill, set(), ring), alpha)
    if not laurent:
        values, into = {}, (LAURENT if target == "laurent" else QQ)
    else:
        values, into = {
            "QQ": ({"s": s, "t": t}, QQ),
            "t": ({"s": s}, T_ONLY),
            "u": ({"s": "u + %s" % s, "t": "%s*u" % t}, U_ONLY),
            "laurent": ({"s": "s + t"}, LAURENT),
        }[target]
    got = B.substitute(values, into)
    want = substituted_per_cell(B, values, into)
    assert got.ring is into and got.basis == B.basis
    assert got.algebra._rows == want.algebra._rows
    assert got.coalgebra._planes == want.coalgebra._planes
    assert got.alpha._cols == want.alpha._cols
    assert got.algebra.alpha is got.coalgebra.alpha is got.alpha
    for view, grid in ((got.bracket, B.bracket), (got.cobracket, B.cobracket),
                       (got.alpha.matrix, B.alpha.matrix)):
        assert view == substituted_view(grid, values, into)


def test_substitute_refuses_what_the_scalar_map_refuses():
    ring, B = dim2_family()
    sring = ParamRing(["a2", "c", "d"])
    with pytest.raises(ScalarError, match="not parameters"):
        B.substitute({"a1": 1, "b": 0, "nope": 2}, sring)
    with pytest.raises(ScalarError, match="float"):
        B.substitute({"a1": 0.5, "b": 0}, sring)
    with pytest.raises(RingMismatchError):
        B.substitute({"a1": ParamRing(["x"]).param("x"), "b": 0}, sring)
    # a parameter left in place must exist in the target
    with pytest.raises(ScalarError, match="not a parameter"):
        B.substitute({"a1": 1}, sring)
