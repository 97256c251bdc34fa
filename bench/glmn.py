"""The general linear Lie superalgebra gl(m|n), Yau-twisted, as a family of
known-valid structures of growing dimension (m + n)^2.

Basis: the elementary matrices E_ij, 1 <= i, j <= m + n, with index parity
|i| = 0 for i <= m and 1 otherwise, and |E_ij| = |i| + |j| mod 2.  The
bracket is the supercommutator (Kac, "Lie superalgebras", 1977)

    [E_ij, E_kl] = delta_jk E_il - (-1)^{|E_ij||E_kl|} delta_li E_kj

composed with alpha = conjugation by diag(d_1, ..., d_{m+n}), so that
alpha(E_ij) = d_i d_j^-1 E_ij.  Twisting a Lie superalgebra by an
automorphism gives a multiplicative Hom-Lie superalgebra (Yau, "The
classical Hom-Yang-Baxter equation and Hom-Lie bialgebras").  Every
structure constant is a single monomial in the invertible d_i.

The tensor r = h_1 ^ h_{m+n} of the diagonal elements h_i = E_ii is even,
skew, fixed by alpha, and has zero Yang-Baxter residual (diagonal elements
commute), so ad(r) is a valid coboundary cobracket.
"""

from hlsb.scalar import ParamRing
from hlsb.structures import HomSuperAlgebra, zero_bracket
from hlsb.superlinear import EvenMap, SuperBasis, Tensor2

# (m, n) of the structures one glmn pass checks.  gl(3|2) (dimension 25)
# takes about 13 s to construct and check, so a run would hold one pass.
SIZES = ((1, 1), (2, 1), (2, 2))

# The negative control adds E_11 to [E_12, E_12] in gl(2|1).  Skew
# symmetry forces the bracket of an even element with itself to zero, so
# this breaks exactly skew symmetry, the Hom-Jacobi identity and
# multiplicativity.
CONTROL_SHIFT = ((0, 1), (0, 1), (0, 0))
CONTROL_VIOLATIONS = frozenset({"skew", "jacobi", "multiplicative"})


def _index_parities(m, n):
    return [0] * m + [1] * n


def gl_algebra(m, n, shift=None):
    """The Yau-twisted gl(m|n) as a HomSuperAlgebra.

    *shift* ``((i, j), (k, l), (p, q))`` adds 1 to the coefficient of
    E_pq in [E_ij, E_kl] (0-based indices), for negative controls.
    """
    size = m + n
    par = _index_parities(m, n)
    pairs = [(i, j) for i in range(size) for j in range(size)]
    pos = {ij: k for k, ij in enumerate(pairs)}
    names = ["d%d" % (i + 1) for i in range(size)]
    ring = ParamRing(names, invertible=names)
    basis = SuperBasis([(par[i] + par[j]) % 2 for i, j in pairs],
                       ["E%d_%d" % (i + 1, j + 1) for i, j in pairs])
    d = [ring.param(name) for name in names]
    weight = [d[i] * d[j].inverse() for i, j in pairs]

    bracket = zero_bracket(ring, basis)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            sign = -1 if basis.parity(a) and basis.parity(b) else 1
            if j == k:
                c = pos[(i, l)]
                bracket[a][b][c] = bracket[a][b][c] + weight[c]
            if l == i:
                c = pos[(k, j)]
                bracket[a][b][c] = bracket[a][b][c] - sign * weight[c]
    if shift is not None:
        a, b, c = (pos[ij] for ij in shift)
        bracket[a][b][c] = bracket[a][b][c] + 1
    alpha = EvenMap.diagonal(ring, basis, weight)
    return HomSuperAlgebra(ring, basis, bracket, alpha)


def cartan_wedge(algebra, m, n):
    """r = h_1 (x) h_{m+n} - h_{m+n} (x) h_1."""
    size = m + n
    first, last = 0, (size - 1) * size + (size - 1)
    ring = algebra.ring
    r = Tensor2(ring, algebra.basis)
    r.entries[first][last] = ring.one()
    r.entries[last][first] = -ring.one()
    return r


def control_algebra():
    """gl(2|1) with CONTROL_SHIFT applied."""
    return gl_algebra(2, 1, shift=CONTROL_SHIFT)
