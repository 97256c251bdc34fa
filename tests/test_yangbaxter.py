import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlsb.catalog import concrete_variant
from hlsb.errors import DimensionMismatchError, HypothesisError
from hlsb.scalar import ParamRing
from hlsb.structures import (
    HomSuperAlgebra,
    HomSuperBialgebra,
    ad_action,
    ad_basis,
    bialgebra_from_deltas,
    delta0,
    zero_bracket,
)
from hlsb.superlinear import EvenMap, SuperBasis, Tensor2, tau
from hlsb import yangbaxter
from hlsb.yangbaxter import (
    alpha_fixed_tensors,
    alpha_otimes_delta,
    bracket_12_13,
    bracket_12_23,
    bracket_13_23,
    check_coboundary,
    check_perturbation_hypotheses,
    check_quasi_triangular,
    coboundary_from_r,
    coboundary_hypothesis_violations,
    delta_otimes_alpha,
    perturb_cobracket,
    perturbation_defect,
    quasi_triangular_equivalences,
    random_fixed_tensor,
    rational_nullspace,
    yang_baxter_residual,
)

from dense_oracle import fixed_span, t2_dict, t3_dict
from test_acceptance import multiplicative_variants
from test_structures import draw_value, random_algebra, sparse_tensor

QQ = ParamRing()


def odd_heisenberg():
    """alpha = id, [e2,e2] = e1 with e2 odd; the abelian-even toy case."""
    basis = SuperBasis([0, 1])
    br = zero_bracket(QQ, basis)
    br[1][1][0] = QQ.one()
    return HomSuperAlgebra(QQ, basis, br, EvenMap.identity(QQ, basis))


def scaling_family(a4):
    """alpha = diag(1, a4, -1), [e1,e2] = 2 e2, [e1,e3] = 3 e3."""
    basis = SuperBasis([0, 0, 1])
    br = zero_bracket(QQ, basis)
    br[0][1][1] = QQ.from_fraction(2)
    br[1][0][1] = QQ.from_fraction(-2)
    br[0][2][2] = QQ.from_fraction(3)
    br[2][0][2] = QQ.from_fraction(-3)
    return HomSuperAlgebra(QQ, basis, br, EvenMap.diagonal(QQ, basis, [1, a4, -1]))


def test_rational_nullspace():
    basis = rational_nullspace([[Fraction(1), Fraction(1)]], 2)
    assert basis == [[Fraction(-1), Fraction(1)]]
    assert rational_nullspace([[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]], 2) == []


def test_fixed_tensor_space_dimensions():
    A = scaling_family(2)
    assert len(alpha_fixed_tensors(A)) == 2          # e1(x)e1 and e3(x)e3
    assert len(alpha_fixed_tensors(A, even_only=True)) == 2
    assert len(alpha_fixed_tensors(A, skew=True, even_only=True)) == 1
    B = scaling_family(1)
    assert len(alpha_fixed_tensors(B)) == 5
    assert len(alpha_fixed_tensors(B, skew=True, even_only=True)) == 2


def test_rational_nullspace_contract(rng):
    """On seeded sparse rational matrices, some with dependent rows: one
    vector per free column, each killing every row, 1 at its own free
    column and 0 at the others, as many as ncols - rank (by sympy).  A
    column is free when it lies in the span of the columns before it."""
    deficient = 0
    for _ in range(80):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.35 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.5:
            a, b, c = rng.choice(rows), rng.choice(rows), Fraction(rng.randint(-3, 3), 2)
            rows.insert(rng.randint(0, len(rows)), [x + c * y for x, y in zip(a, b)])
        M = sympy.Matrix(len(rows), ncols, [x for row in rows for x in row])
        rank = M.rank()
        free = [c for c in range(ncols) if M[:, :c + 1].rank() == M[:, :c].rank()]
        basis = rational_nullspace(rows, ncols)
        assert len(basis) == len(free) == ncols - rank
        for f, vec in zip(free, basis):
            assert len(vec) == ncols
            assert all(sum(x * v for x, v in zip(row, vec)) == 0 for row in rows)
            assert [vec[c] for c in free] == [int(c == f) for c in free]
        deficient += 0 < rank < min(len(rows), ncols)
    assert deficient  # some matrix had dependent rows and a nonzero rank


@pytest.mark.parametrize("skew, even_only", list(product((False, True), repeat=2)))
def test_alpha_fixed_tensors_match_dense_oracle(rng, skew, even_only):
    """Every concrete multiplicative catalog variant: the span equals the
    reduced-echelon basis of the dense oracle's system, and each tensor of
    it is fixed by alpha (x) alpha."""
    sizes = []
    for v in multiplicative_variants():
        A = concrete_variant(v, rng=rng).algebra
        span = alpha_fixed_tensors(A, skew=skew, even_only=even_only)
        want = fixed_span(A.alpha.matrix, A.basis.parities, skew, even_only)
        assert [{(i, j): c.constant_value() for i, j, c in t.items()} for t in span] == want, v.ident
        assert all(t.apply_all(A.alpha) == t for t in span), v.ident
        sizes.append(len(span))
    assert len(sizes) == 71 and min(sizes) < max(sizes)


def test_alpha_fixed_tensors_refuse_a_symbolic_alpha():
    symbolic = [v for v in multiplicative_variants()
                if any(not x.is_constant() for row in v.bialgebra.alpha.matrix for x in row)]
    assert symbolic
    for v, (skew, even_only) in product(symbolic, product((False, True), repeat=2)):
        with pytest.raises(HypothesisError,
                           match=r"^sampling needs a fully numeric structure map$"):
            alpha_fixed_tensors(v.bialgebra.algebra, skew=skew, even_only=even_only)


def test_random_fixed_tensor_is_fixed_skew_even(rng):
    A = scaling_family(1)
    for _ in range(5):
        r = random_fixed_tensor(A, rng, skew=True, even_only=True)
        assert r.apply_all(A.alpha) == r
        assert (r + tau(r)).is_zero()
        for i, j, _ in r.items():
            assert (A.basis.parity(i) + A.basis.parity(j)) % 2 == 0


def test_yang_baxter_residual_hand_value():
    A = odd_heisenberg()
    r = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})
    yb = yang_baxter_residual(A, r)
    one = QQ.one()
    assert t3_dict(yb) == {(0, 1, 1): -one, (1, 0, 1): one, (1, 1, 0): -one}


def test_coboundary_construction_and_check():
    A = odd_heisenberg()
    r = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})
    B = coboundary_from_r(A, r)
    one = QQ.one()
    assert t2_dict(B.delta(1)) == {(0, 1): one, (1, 0): -one}
    assert B.delta(0).is_zero()
    assert B.check().passed
    assert check_coboundary(B, r).passed
    # a different cobracket is not the coboundary of this r
    other = HomSuperBialgebra(QQ, A.basis, A.bracket,
                              [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], A.alpha)
    report = check_coboundary(other, r)
    assert not report.passed
    assert report.by_axiom("coboundary")


def test_coboundary_holds_its_algebra_and_skips_a_zero_defect(monkeypatch):
    A = scaling_family(2)
    r = Tensor2.from_dict(QQ, A.basis, {(2, 2): 7})
    assert yang_baxter_residual(A, r).is_zero()
    seen = []
    images = yangbaxter._ad_images
    monkeypatch.setattr(yangbaxter, "_ad_images",
                        lambda algebra, t: seen.append(t) or images(algebra, t))
    B = coboundary_from_r(A, r)
    assert B.algebra is A
    # one walk for the n cobracket images: no adjoint image of the zero defect
    assert seen == [r]


def test_nonzero_defect_reports_each_adjoint_image():
    B = scaling_family(1)
    r = Tensor2.from_dict(QQ, B.basis, {(0, 1): -1, (1, 0): 1, (2, 2): 2})
    yb = yang_baxter_residual(B, r)
    want = [((i,), t) for i in range(B.dim) if (t := ad_basis(B, i, yb).apply_all(B.alpha))]
    got = [(v.indices, v.residual) for v in coboundary_hypothesis_violations(B, r)
           if v.axiom == "r-adjoint-yang-baxter"]
    assert want and got == want


def test_quasi_triangular_statements_all_false_together():
    A = odd_heisenberg()
    r = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})
    B = coboundary_from_r(A, r)
    eq = quasi_triangular_equivalences(B, r)
    assert eq.as_tuple() == (False, False, False)
    assert eq.all_agree()
    report = check_quasi_triangular(B, r)
    assert not report.passed
    assert report.by_axiom("yang-baxter")


def test_quasi_triangular_statements_all_true_together():
    A = scaling_family(2)
    r = Tensor2.from_dict(QQ, A.basis, {(2, 2): 7})
    B = coboundary_from_r(A, r)
    assert not B.delta(0).is_zero()  # a genuinely nonzero cobracket
    eq = quasi_triangular_equivalences(B, r)
    assert eq.as_tuple() == (True, True, True)
    assert check_quasi_triangular(B, r).passed


def test_quasi_triangular_equivalences_build_one_beside_table(monkeypatch):
    """One _beside(r) table serves the Yang-Baxter residual and both
    partial-bracket forms, on the all-false and all-true cases above."""
    calls = []
    beside = yangbaxter._beside
    monkeypatch.setattr(yangbaxter, "_beside",
                        lambda t, alpha: calls.append(t) or beside(t, alpha))
    for A, cells, want in ((odd_heisenberg(), {(1, 1): 1}, (False, False, False)),
                           (scaling_family(2), {(2, 2): 7}, (True, True, True))):
        r = Tensor2.from_dict(QQ, A.basis, cells)
        B = coboundary_from_r(A, r)
        calls.clear()
        assert quasi_triangular_equivalences(B, r).as_tuple() == want
        assert calls == [r]


def test_cojacobi_defect_is_alpha_cube_of_adjoint_yang_baxter(rng):
    # the co-Jacobi defect of ad(r) equals the alpha-cube of the adjoint
    # image of the Yang-Baxter residual, computed along independent paths
    A = scaling_family(1)
    span = alpha_fixed_tensors(A, skew=True, even_only=True)
    for _ in range(6):
        r = random_fixed_tensor(A, rng, span=span)
        B = bialgebra_from_deltas(A, delta0(A, r))
        yb = yang_baxter_residual(A, r)
        for i in range(A.dim):
            lhs = B.coalgebra.cojacobi_residual(i)
            rhs = ad_basis(A, i, yb).apply_all(A.alpha)
            assert lhs == rhs


def test_coboundary_hypothesis_failures():
    A = scaling_family(2)
    with pytest.raises(HypothesisError, match="skew"):
        coboundary_from_r(A, Tensor2.from_dict(QQ, A.basis, {(0, 0): 1}))
    with pytest.raises(HypothesisError, match="alpha-fixed"):
        coboundary_from_r(A, Tensor2.from_dict(QQ, A.basis,
                                               {(0, 1): 1, (1, 0): -1}))
    with pytest.raises(HypothesisError, match="even"):
        coboundary_from_r(A, Tensor2.from_dict(QQ, A.basis, {(0, 2): 1}))
    # alpha = diag(1,1,-1) leaves a skew even fixed r whose Yang-Baxter
    # residual survives the adjoint action: the last hypothesis bites
    B = scaling_family(1)
    r = Tensor2.from_dict(QQ, B.basis, {(0, 1): -1, (1, 0): 1, (2, 2): 2})
    with pytest.raises(HypothesisError, match="adjoint-yang-baxter"):
        coboundary_from_r(B, r)


def symbolic_family():
    ring = ParamRing(["a4", "b4", "b5", "c5"], invertible=["a4"])
    basis = SuperBasis([0, 0, 1])
    br = zero_bracket(ring, basis)
    br[0][1][1] = ring.param("b4")
    br[1][0][1] = -ring.param("b4")
    br[0][2][2] = ring.param("b5")
    br[2][0][2] = -ring.param("b5")
    co = zero_bracket(ring, basis)
    co[0][2][2] = ring.param("c5")
    alpha = EvenMap.diagonal(ring, basis, [ring.one(), ring.param("a4"),
                                           -ring.one()])
    return ring, HomSuperBialgebra(ring, basis, br, co, alpha)


def test_perturbation_shifts_within_the_family():
    ring, B = symbolic_family()
    t = Tensor2.from_dict(ring, B.basis, {(2, 2): 1})
    report = check_perturbation_hypotheses(B, t)
    assert report.passed
    assert report.details["defect_vanishes"] is True
    P = perturb_cobracket(B, t)
    c5, b5 = ring.param("c5"), ring.param("b5")
    assert t2_dict(P.delta(0)) == {(2, 2): c5 - 2 * b5}
    assert P.delta(1).is_zero() and P.delta(2).is_zero()
    assert P.check(multiplicative=True).passed


def test_perturbation_by_zero_is_identity():
    ring, B = symbolic_family()
    P = perturb_cobracket(B, Tensor2(ring, B.basis))
    assert P.cobracket == B.cobracket
    assert P.bracket == B.bracket


def test_perturbation_rejects_unfixed_tensor():
    ring, B = symbolic_family()
    t = Tensor2.from_dict(ring, B.basis, {(0, 1): 1, (1, 0): -1})
    with pytest.raises(HypothesisError):
        perturb_cobracket(B, t)
    report = check_perturbation_hypotheses(B, t)
    assert "t-alpha-fixed" in report.axioms_violated()


def test_alpha_otimes_delta_hand_value():
    ring, B = symbolic_family()
    r = Tensor2.from_dict(ring, B.basis, {(2, 2): 1})
    out = alpha_otimes_delta(B, r)
    # alpha(e3) = -e3 and delta(e3) = 0, so the image dies entirely
    assert out.is_zero()
    r2 = Tensor2.from_dict(ring, B.basis, {(0, 0): 1})
    out2 = alpha_otimes_delta(B, r2)
    assert t3_dict(out2) == {(0, 2, 2): ring.param("c5")}


def off_basis_tensor(B, kind):
    """A tensor on a basis other than B's: one vector longer, its cells
    reaching the extra vector, or relabelled with the same parities."""
    if kind == "larger":
        basis = SuperBasis(B.basis.parities + (1,))
        return Tensor2.from_dict(B.ring, basis, {(0, 0): 1, (0, 3): 1, (3, 3): 1})
    basis = SuperBasis(B.basis.parities, ["x%d" % i for i in range(B.dim)])
    return Tensor2.from_dict(B.ring, basis, {(0, 0): 1, (2, 2): 1})


TENSOR_ENTRY_POINTS = {
    "yang_baxter_residual": lambda B, t: yang_baxter_residual(B.algebra, t),
    "bracket_12_13": lambda B, t: bracket_12_13(B.algebra, t, t),
    # the off-basis tensor alone as rp, then alone as r, beside a zero one
    "bracket_12_23": lambda B, t: bracket_12_23(B.algebra, Tensor2(B.ring, B.basis), t),
    "bracket_13_23": lambda B, t: bracket_13_23(B.algebra, t, Tensor2(B.ring, B.basis)),
    "coboundary_hypothesis_violations":
        lambda B, t: coboundary_hypothesis_violations(B.algebra, t),
    "check_coboundary": check_coboundary,
    "perturbation_defect": perturbation_defect,
    "ad_action": lambda B, t: ad_action(B.algebra, ([1, 0, 0], 0), t),
    "ad_basis": lambda B, t: ad_basis(B.algebra, 0, t),
    "alpha_otimes_delta": alpha_otimes_delta,
    "delta_otimes_alpha": delta_otimes_alpha,
}


@pytest.mark.parametrize("kind", ["larger", "relabelled"])
@pytest.mark.parametrize("entry", sorted(TENSOR_ENTRY_POINTS))
def test_tensor_entry_points_refuse_another_basis(entry, kind):
    _, B = symbolic_family()
    with pytest.raises(DimensionMismatchError, match="bases differ"):
        TENSOR_ENTRY_POINTS[entry](B, off_basis_tensor(B, kind))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([0.1, 0.3, 0.5]), laurent=st.booleans())
@example(n=3, seed=1, fill=0.5, laurent=False)
def test_partial_brackets_match_the_dense_oracle(n, seed, fill, laurent):
    """The three partial brackets of r and an independent rp, and the
    Yang-Baxter residual of r, against the oracle's term-dict partial
    bracket, on a random sparse algebra with e0 odd and a Jordan-block
    alpha, over QQ or a Laurent ring; r and rp have odd cells."""
    rng = random.Random(seed)
    A, oracle = random_algebra(rng, n, fill, laurent)

    def tensor():
        cells = sparse_tensor(rng, n, 2, fill)
        return Tensor2.from_dict(A.ring, A.basis, {ij: draw_value(rng, A.ring, v)
                                                   for ij, v in cells.items() if v})
    r, rp = tensor(), tensor()
    for slot, bracket in enumerate((bracket_12_13, bracket_12_23, bracket_13_23)):
        want = oracle.partial_bracket(t2_dict(r), t2_dict(rp), slot)
        assert t3_dict(bracket(A, r, rp)) == want
    want = oracle.reduce([(v, idx) for slot in range(3)
                          for idx, v in oracle.partial_bracket(t2_dict(r), t2_dict(r), slot).items()])
    assert t3_dict(yang_baxter_residual(A, r)) == want
