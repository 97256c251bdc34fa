"""``HomSuperBialgebra.check`` evaluates the compatibility residual once per
unordered pair {i, j} at which the bracket is skew and derives the mirror
pair (j, i) from it.  These tests pin the pairs it must still evaluate
directly, the number of evaluations it makes, and its agreement with
``delta1``, which evaluates every ordered pair.  They also hold the
skew, Jacobi and multiplicativity violations, which ``check`` finds from
sparse kernels, and every other axiom ``check`` reports, to the public
residuals on the same inputs."""

import dataclasses
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import glmn  # noqa: E402
from dense_oracle import t2_dict  # noqa: E402
from hlsb import structures  # noqa: E402
from hlsb.catalog import Stratum, catalog_list, expand_variants, get_row  # noqa: E402
from hlsb.constructions import check_algebra_morphism  # noqa: E402
from hlsb.structures import HomSuperAlgebra, HomSuperBialgebra, delta0, delta1  # noqa: E402
from hlsb.superlinear import EvenMap, SuperBasis, Tensor2  # noqa: E402
from hlsb.yangbaxter import coboundary_from_r  # noqa: E402
from test_structures import LAURENT, QQ, draw_value, sparse_cube  # noqa: E402


def nonskew_bialgebra():
    """e1, e2 even, e3 odd and alpha = id.  The bracket is skew except at
    (e1, e2), where [e1, e2] = e2 but [e2, e1] = 0, and at the even diagonal
    (e1, e1), where [e1, e1] = e2; compatibility fails at both, and at the
    odd diagonal (e3, e3)."""
    basis = SuperBasis([0, 0, 1])
    bracket = {(0, 0, 1): 1, (0, 1, 1): 1, (0, 2, 2): 2, (2, 0, 2): -2,
               (1, 2, 2): 1, (2, 1, 2): -1, (2, 2, 0): 1}
    cobracket = {(1, 0, 1): 1, (1, 1, 0): -1, (0, 2, 2): 1, (2, 0, 2): 1, (2, 2, 0): -1}
    return HomSuperBialgebra(QQ, basis, bracket, cobracket, EvenMap.identity(QQ, basis))


def coboundary(m, n, algebra=None):
    A = glmn.gl_algebra(m, n) if algebra is None else algebra
    return coboundary_from_r(A, glmn.cartan_wedge(A, m, n))


def test_compat_is_evaluated_directly_where_the_bracket_is_not_skew():
    B = nonskew_bialgebra()
    report = B.check()
    assert [v.indices for v in report.by_axiom("skew")] == [(0, 0), (0, 1)]
    want = [((i, j), r) for i, j in product(range(B.dim), repeat=2)
            if (r := B.compat_residual(i, j))]
    assert {(0, 0), (0, 1), (1, 0), (2, 2)} <= {idx for idx, _ in want}
    assert [(v.indices, v.residual) for v in report.by_axiom("compatibility")] == want


@pytest.mark.parametrize("build, nonskew, calls", [
    (lambda: coboundary(2, 2), set(), 116),
    (lambda: coboundary(2, 1, glmn.control_algebra()), {(1, 1)}, 38),
], ids=["gl(2|2)", "gl(2|1) shifted"])
def test_check_evaluates_each_skew_pair_once(monkeypatch, build, nonskew, calls):
    B = build()
    n, p = B.dim, B.basis.parities
    evaluated = []
    compat = structures._compat_residual

    def counted(algebra, deltas, i, j, *rest):
        evaluated.append((i, j))
        return compat(algebra, deltas, i, j, *rest)
    monkeypatch.setattr(structures, "_compat_residual", counted)
    B.check(multiplicative=True)
    direct = ({(i, j) for i in range(n) for j in range(i + 1, n)}
              | {(i, i) for i in range(n) if p[i]} | nonskew)
    # compat(i, j) is zero where [e_i, e_j], delta(e_i) and delta(e_j) all are
    want = {(i, j) for i, j in direct if any(B.bracket[i][j]) or B.delta(i) or B.delta(j)}
    assert len(evaluated) == calls == len(want)
    assert set(evaluated) == want


def dim2_strata():
    """The dim-2 row's free family and its two strata that fail compatibility."""
    row = get_row("dim2")

    def family(*subs):
        return expand_variants(dataclasses.replace(row, strata=(Stratum("x", (), subs),)))[0]
    return [family(), family(("a2", "0", None)), family(("a1", "1", None))]


def test_check_and_delta1_agree_on_compatibility():
    cases = [(v.ident, v.bialgebra) for row in catalog_list() for v in expand_variants(row)]
    failing = [("dim2 family %d" % k, v.bialgebra) for k, v in enumerate(dim2_strata())]
    failing.append(("non-skew", nonskew_bialgebra()))
    cases += failing + [("gl(1|1)", coboundary(1, 1)), ("gl(2|1)", coboundary(2, 1)),
                        ("gl(2|1) shifted", coboundary(2, 1, glmn.control_algebra()))]
    assert len(cases) == 77 + 4 + 3
    for label, B in cases:
        grid = delta1(B.algebra, [B.delta(k) for k in range(B.dim)])
        want = [((i, j), t2_dict(r)) for i, row in enumerate(grid) for j, r in enumerate(row)
                if r]
        got = [(v.indices, t2_dict(v.residual)) for v in B.check().by_axiom("compatibility")]
        assert got == want, label
        assert bool(want) == any(B is b for _, b in failing), label


def test_check_reports_exactly_the_nonzero_public_bracket_residuals():
    cases = [(v.ident, v.bialgebra) for row in catalog_list() for v in expand_variants(row)]
    cases += [("dim2 family %d" % k, v.bialgebra) for k, v in enumerate(dim2_strata())]
    cases += [("non-skew", nonskew_bialgebra()),
              ("gl(2|1) shifted", coboundary(2, 1, glmn.control_algebra()))]
    assert len(cases) == 77 + 3 + 2
    failed = set()
    for label, B in cases:
        A = B.algebra
        n = A.dim
        report = A.check(multiplicative=True)
        for axiom, residual, indices in (
                ("skew", A.skew_residual, [(i, j) for i in range(n) for j in range(i, n)]),
                ("jacobi", A.jacobi_residual,
                 [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]),
                ("multiplicative", A.mult_residual, list(product(range(n), repeat=2)))):
            want = [(idx, r) for idx in indices if any(r := residual(*idx))]
            got = [(v.indices, v.residual) for v in report.by_axiom(axiom)]
            assert got == want, (label, axiom)
            failed |= {axiom} if want else set()
    assert failed == {"skew", "jacobi", "multiplicative"}


def random_bialgebra(rng, n, fill, ring, skew):
    """Random sparse constants (see ``sparse_cube``) on a random basis.
    With *skew* the bracket is made graded skew, [e_j, e_i] =
    -(-1)^{|e_i||e_j|} [e_i, e_j] and an even [e_i, e_i] zero, at about
    four pairs in five; about two in five deltas are zero."""
    parities = [rng.randint(0, 1) for _ in range(n)]
    cube = sparse_cube(rng, n, fill, set(), ring)
    for i, j in product(range(n), repeat=2):
        if skew and i <= j and (i < j or not parities[i]) and rng.random() < 0.8:
            odd = parities[i] * parities[j]
            cube[j][i] = [v if odd else -v for v in cube[i][j]] if i < j else [ring.zero()] * n
    cocube = sparse_cube(rng, n, fill, {i for i in range(n) if rng.random() < 0.4}, ring)
    alpha = [[draw_value(rng, ring, rng.randint(-2, 2))
              if parities[i] == parities[j] and rng.random() < 0.4 else ring.zero()
              for j in range(n)] for i in range(n)]
    return HomSuperBialgebra(ring, SuperBasis(parities), cube, cocube, alpha)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([0.05, 0.15, 0.3]), laurent=st.booleans(), skew=st.booleans())
def test_check_reports_exactly_the_nonzero_public_residuals(n, seed, fill, laurent, skew):
    B = random_bialgebra(random.Random(seed), n, fill, LAURENT if laurent else QQ, skew)
    A, C = B.algebra, B.coalgebra
    report = B.check(multiplicative=True)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    triples = [(i, j, k) for i, j in pairs for k in range(j, n)]
    square = list(product(range(n), repeat=2))
    each = [(i,) for i in range(n)]
    for axiom, residual, indices in (
            ("skew", A.skew_residual, pairs), ("jacobi", A.jacobi_residual, triples),
            ("multiplicative", A.mult_residual, square),
            ("coskew", C.coskew_residual, each), ("cojacobi", C.cojacobi_residual, each),
            ("comultiplicative", C.comult_residual, each),
            ("compatibility", B.compat_residual, square)):
        want = [(idx, r) for idx in indices
                if (any(r) if isinstance(r := residual(*idx), list) else r)]
        got = [(v.indices, v.residual) for v in report.by_axiom(axiom)]
        assert got == want, axiom


def test_the_algebra_builds_its_twisted_table_once(monkeypatch):
    """Two coboundary checks over one gl(2|1) and delta1 on it all read the
    table T[a][m] = [alpha(e_a), e_m] that the algebra keeps: it is built
    once, from the algebra's rows and alpha's columns."""
    A = glmn.gl_algebra(2, 1)
    built, images = [], structures._images
    monkeypatch.setattr(structures, "_images",
                        lambda rows, cols: built.append((rows, cols)) or images(rows, cols))
    # h_1 ^ h_3 and h_1 ^ h_2, h_i = E_ii at index 4 (i - 1)
    wedges = [glmn.cartan_wedge(A, 2, 1),
              Tensor2.from_dict(A.ring, A.basis, {(0, 4): 1, (4, 0): -1})]
    for r in wedges:
        assert coboundary_from_r(A, r).check(multiplicative=True).passed
    assert not any(t for line in delta1(A, delta0(A, wedges[1])) for t in line)
    assert len(built) == 1 and built[0][0] is A._rows and built[0][1] is A.alpha._cols


def test_rebinding_alpha_rebuilds_the_tables():
    """After alpha is rebound to another even map, check and delta1 answer
    as an algebra built with that map does, not from the tables kept for
    the old one."""
    A = glmn.gl_algebra(2, 1)
    deltas = delta0(A, glmn.cartan_wedge(A, 2, 1))
    assert A.check(multiplicative=True).passed
    assert not any(t for line in delta1(A, deltas) for t in line)
    for other in (A.alpha.power(2), EvenMap.identity(A.ring, A.basis)):
        A.alpha = other
        fresh = HomSuperAlgebra(A.ring, A.basis, A.bracket, other)
        got, want = (A.check(multiplicative=True), fresh.check(multiplicative=True))
        assert got.by_axiom("jacobi")  # the tables of the first alpha would pass
        assert ([(v.axiom, v.indices, v.residual) for v in got.violations]
                == [(v.axiom, v.indices, v.residual) for v in want.violations])
        grid = delta1(A, deltas)
        assert any(t for line in grid for t in line) and grid == delta1(fresh, deltas)


def violation_list(report):
    return [(v.axiom, v.indices, v.residual) for v in report.violations]


def test_the_algebra_builds_its_product_lists_once(monkeypatch):
    """Two coboundary checks over one gl(2|1) and a multiplicativity test
    after them replay the Jacobi and multiplicativity product lists that
    the algebra's kernel keeps: each is built once, for that kernel."""
    A = glmn.gl_algebra(2, 1)
    built = {"_jacobi_list": [], "_morphism_list": []}
    for name, calls in built.items():
        def counted(*args, _calls=calls, _build=getattr(structures, name)):
            _calls.append(args)
            return _build(*args)
        monkeypatch.setattr(structures, name, counted)
    wedges = [glmn.cartan_wedge(A, 2, 1),
              Tensor2.from_dict(A.ring, A.basis, {(0, 4): 1, (4, 0): -1})]
    for r in wedges:
        assert coboundary_from_r(A, r).check(multiplicative=True).passed
    assert A.is_multiplicative()
    kernel = A._tables()
    [(jacobi_kernel, _, _)], [(rows, morphism_kernel)] = built.values()
    assert jacobi_kernel is morphism_kernel is kernel and rows is A._rows
    assert kernel.jacobi and kernel.morphism


def test_jacobi_residual_builds_only_the_twisted_rows_of_its_triple():
    """A hop of the cyclic sum at (i, j, k) brackets alpha of one of e_i,
    e_j, e_k, so one ``jacobi_residual`` on a fresh algebra builds the
    rows T[a] of those three a and no other."""
    A = glmn.gl_algebra(2, 1)
    A.jacobi_residual(1, 3, 5)
    assert sorted(A._tables().twisted) == [1, 3, 5]


def test_a_morphism_check_keeps_the_algebra_lists():
    """A morphism check of the same algebra into itself, between two
    checks, builds its lists on a kernel of its own: the algebra's kept
    lists stay, and the second check reports what the first did and what a
    freshly built algebra does, on the shifted gl(2|1) control, which
    fails skew symmetry, Hom-Jacobi and multiplicativity."""
    A = glmn.control_algebra()
    first = violation_list(A.check(multiplicative=True))
    kernel = A._tables()
    kept = kernel.jacobi, kernel.morphism
    square = A.alpha.power(2)
    morphism = violation_list(check_algebra_morphism(square, A, A))
    second = violation_list(A.check(multiplicative=True))
    fresh = HomSuperAlgebra(A.ring, A.basis, A.bracket, A.alpha)
    assert {axiom for axiom, _, _ in first} == glmn.CONTROL_VIOLATIONS
    assert second == first == violation_list(fresh.check(multiplicative=True))
    assert A._tables() is kernel
    assert all(x is y for x, y in zip((kernel.jacobi, kernel.morphism), kept))
    assert morphism == violation_list(check_algebra_morphism(square, fresh, fresh))


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2)])
def test_replayed_checks_pass_as_the_first(m, n):
    """A second coboundary check on one gl(m|n) replays the lists the
    first built, and passes as the first did (the shifted control's
    replayed violations are held to its first check's above)."""
    A = glmn.gl_algebra(m, n)
    r = glmn.cartan_wedge(A, m, n)
    for _ in range(2):
        assert coboundary_from_r(A, r).check(multiplicative=True).passed
