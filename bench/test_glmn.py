"""Checks on the gl(m|n) generator the glmn workload uses.

Run from the repository root:  python3 -m pytest -q bench/test_glmn.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for extra in (ROOT / "src", ROOT / "tests"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

from dense_oracle import DenseOracle, t2_dict, t3_dict, vec_dict  # noqa: E402
from hlsb.yangbaxter import (  # noqa: E402
    coboundary_from_r,
    coboundary_hypothesis_violations,
)

import glmn  # noqa: E402


def _matrix_unit(size, i, j):
    out = [[0] * size for _ in range(size)]
    out[i][j] = 1
    return out


def _matmul(x, y):
    size = len(x)
    return [[sum(x[i][t] * y[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_untwisted_bracket_is_the_matrix_supercommutator(m, n):
    size = m + n
    A = glmn.gl_algebra(m, n)
    ones = {name: 1 for name in A.ring.names}
    par = [0] * m + [1] * n
    pairs = [(i, j) for i in range(size) for j in range(size)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            x, y = _matrix_unit(size, i, j), _matrix_unit(size, k, l)
            sign = -1 if (par[i] + par[j]) % 2 and (par[k] + par[l]) % 2 else 1
            xy, yx = _matmul(x, y), _matmul(y, x)
            want = [xy[p][q] - sign * yx[p][q] for p, q in pairs]
            got = [A.bracket[a][b][c].evaluate(ones) for c in range(len(pairs))]
            assert got == [Fraction(w) for w in want]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_coboundary_structure_is_valid(m, n):
    A = glmn.gl_algebra(m, n)
    r = glmn.cartan_wedge(A, m, n)
    assert coboundary_hypothesis_violations(A, r) == []
    assert coboundary_from_r(A, r).check(multiplicative=True).passed


def test_gl11_residuals_match_dense_oracle():
    A = glmn.gl_algebra(1, 1)
    B = coboundary_from_r(A, glmn.cartan_wedge(A, 1, 1))
    oracle = DenseOracle(B.ring, B.basis.parities, bracket=B.bracket,
                         cobracket=B.cobracket, alpha=B.alpha.matrix)
    alg, coa = B.algebra, B.coalgebra
    dim = B.dim
    for i in range(dim):
        assert t2_dict(coa.coskew_residual(i)) == oracle.coskew(i)
        assert t3_dict(coa.cojacobi_residual(i)) == oracle.cojacobi(i)
        assert t2_dict(coa.comult_residual(i)) == oracle.comult(i)
        for j in range(dim):
            assert vec_dict(alg.skew_residual(i, j)) == oracle.skew(i, j)
            assert vec_dict(alg.mult_residual(i, j)) == oracle.mult(i, j)
            assert t2_dict(B.compat_residual(i, j)) == oracle.compat(i, j)
            for k in range(dim):
                assert (vec_dict(alg.jacobi_residual(i, j, k))
                        == oracle.jacobi(i, j, k))


def test_shifted_control_fails_exactly_three_axioms():
    A = glmn.control_algebra()
    B = coboundary_from_r(A, glmn.cartan_wedge(A, 2, 1))
    report = B.check(multiplicative=True)
    assert set(report.axioms_violated()) == glmn.CONTROL_VIOLATIONS
