"""Solutions r of the twisted Yang-Baxter condition and what they induce:
coboundary cobrackets, quasi-triangularity, and perturbations.

An r-tensor lives in the two-fold tensor power of the underlying space.
The three partial brackets insert r twice into three tensor slots, with
the structure map covering the untouched slot:

    [r12, r13] = sum (+-) [a, c] (x) alpha(b) (x) alpha(d)
    [r12, r23] = sum      alpha(a) (x) [b, c] (x) alpha(d)
    [r13, r23] = sum (+-) alpha(a) (x) alpha(c) (x) [b, d]

for r = sum a (x) b, r' = sum c (x) d, where the sign is the Koszul sign
for moving b past c.  Their sum (with r' = r) is the Yang-Baxter residual.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import HypothesisError, ScalarError
from .scalar import _Accumulator
from .structures import (
    CheckReport,
    _ad_images,
    _beside,
    _odd_cells,
    _violations,
    alpha_otimes_delta,
    bialgebra_from_deltas,
    delta_otimes_alpha,
)
from .superlinear import Tensor2, Tensor3, cyclic_sum, koszul_sign, tau

# ---------------------------------------------------------------------------
# partial brackets and the Yang-Baxter residual


def _partial_bracket(algebra, r, rp, slots, beside=None):
    """The partial brackets of r and rp whose bracket lands in the tensor
    slots *slots* (each 0, 1 or 2), summed in one accumulator.  alpha
    covers the other two slots through ``_beside(r)`` and ``_beside(rp)``
    (one table when rp is r, which the caller may pass as *beside*): slot
    0 reads a (x) alpha(b) of r and c (x) alpha(d) of rp, slot 1 alpha(a)
    (x) b and c (x) alpha(d), slot 2 alpha(a) (x) b and alpha(c) (x) d.
    rp's cells are grouped by the index y it brings into the bracket (c
    for slots 0 and 1, d for slot 2), so only the groups with [e_x, e_y]
    nonzero are walked."""
    p, rows = algebra.basis.parities, algebra._rows
    if beside is None:
        beside = _beside(r, algebra.alpha)
    beside_p = beside if rp is r else _beside(rp, algebra.alpha)
    by_y = {}
    for side in {slot > 1 for slot in slots}:
        groups = by_y[side] = {}
        for cd, vb in beside_p[side]:
            groups.setdefault(cd[side], []).append((cd, vb))
    acc = _Accumulator(algebra.ring)
    for slot in slots:
        groups = by_y[slot > 1].items()
        for (a, b), va in beside[slot > 0]:
            bracketed = rows[b if slot else a]
            for y, cells in groups:
                row = bracketed[y]
                if row:
                    for (c, d), vb in cells:
                        outer = ((b, d), (a, d), (a, c))[slot]
                        # slot 1 brackets b with c directly; the other two move c past b
                        acc.mul(va * vb, row, slot != 1 and p[b] & p[c],
                                outer[:slot], outer[slot:])
    return Tensor3._wrap(algebra.ring, algebra.basis, acc.cells())


def bracket_12_13(algebra, r, rp):
    return _partial_bracket(algebra, r, rp, (0,))


def bracket_12_23(algebra, r, rp):
    return _partial_bracket(algebra, r, rp, (1,))


def bracket_13_23(algebra, r, rp):
    return _partial_bracket(algebra, r, rp, (2,))


def yang_baxter_residual(algebra, r):
    """[r12,r13] + [r12,r23] + [r13,r23]."""
    return _partial_bracket(algebra, r, r, (0, 1, 2))


# ---------------------------------------------------------------------------
# coboundary structures


def _tensor_hypotheses(algebra, r, defect, name, defect_name):
    """r even, alpha-fixed and skew under the graded flip, and the adjoint
    image of the 3-tensor *defect* killed by the cube of the structure map.
    A zero defect has zero adjoint images, so none is computed."""
    p, alpha = algebra.basis.parities, algebra.alpha
    images = _ad_images(algebra, defect) if defect else []
    return (_odd_cells(name + "-even", r._cells.items(), (p, p))[:1]  # the first odd cell only
            + _violations(name + "-alpha-fixed", [()], lambda: r.apply_all(alpha) - r)
            + _violations(name + "-skew", [()], lambda: r + tau(r))
            + _violations(name + "-adjoint-" + defect_name, [(i,) for i in range(len(images))],
                          lambda i: images[i].apply_all(alpha)))


def coboundary_hypothesis_violations(algebra, r, name="r"):
    """The hypotheses under which ad(r) is a usable cobracket candidate:
    r even, alpha-fixed, skew under the graded flip, and the adjoint image
    of its Yang-Baxter residual killed by the cube of the structure map."""
    return _tensor_hypotheses(algebra, r, yang_baxter_residual(algebra, r), name,
                              "yang-baxter")


def coboundary_from_r(algebra, r):
    """The bialgebra with cobracket x -> ad_x(r).

    Raises HypothesisError naming the first failing hypothesis.
    """
    violations = coboundary_hypothesis_violations(algebra, r)
    if violations:
        raise HypothesisError("coboundary hypotheses fail: %r" % (violations[0],))
    return bialgebra_from_deltas(algebra, _ad_images(algebra, r))


def check_coboundary(bialgebra, r):
    """Is the bialgebra's cobracket exactly ad(r), hypotheses included?"""
    B = bialgebra
    violations = coboundary_hypothesis_violations(B.algebra, r)
    images = _ad_images(B.algebra, r)
    return CheckReport("coboundary-structure", violations + _violations(
        "coboundary", [(i,) for i in range(B.dim)], lambda i: B.delta(i) - images[i]))


class QuasiTriangularEquivalences(NamedTuple):
    """Truth values of the three quasi-triangularity statements."""

    yang_baxter: bool
    left_form: bool
    right_form: bool

    def all_agree(self):
        return self.yang_baxter == self.left_form == self.right_form

    def as_tuple(self):
        return tuple(self)


def quasi_triangular_equivalences(bialgebra, r):
    """Evaluate the three statements whose equivalence characterizes
    quasi-triangularity of a coboundary structure:

    1. the Yang-Baxter residual of r vanishes;
    2. (alpha (x) delta)(r) = -[r12, r13];
    3. (delta (x) alpha)(r) = [r13, r23].
    """
    B = bialgebra
    beside = _beside(r, B.alpha)
    b12_13, b12_23, b13_23 = (_partial_bracket(B.algebra, r, r, (slot,), beside)
                              for slot in range(3))
    s1 = (b12_13 + b12_23 + b13_23).is_zero()
    s2 = (alpha_otimes_delta(B, r) + b12_13).is_zero()
    s3 = (delta_otimes_alpha(B, r) - b13_23).is_zero()
    return QuasiTriangularEquivalences(s1, s2, s3)


def check_quasi_triangular(bialgebra, r):
    """Coboundary check plus vanishing of the Yang-Baxter residual."""
    violations = check_coboundary(bialgebra, r).violations + _violations(
        "yang-baxter", [()], lambda: yang_baxter_residual(bialgebra.algebra, r))
    eq = quasi_triangular_equivalences(bialgebra, r)
    return CheckReport("quasi-triangular", violations,
                       details={"equivalences": eq.as_tuple()})


# ---------------------------------------------------------------------------
# perturbation


def perturbation_defect(bialgebra, t):
    """[[t,t]] + the graded cyclic sum of (alpha (x) delta)(t)."""
    B = bialgebra
    return (yang_baxter_residual(B.algebra, t)
            + cyclic_sum(alpha_otimes_delta(B, t)))


def check_perturbation_hypotheses(bialgebra, t):
    """Can the cobracket be perturbed by ad(t)?

    Requires t even, alpha-fixed and skew, and the adjoint image of the
    perturbation defect killed by the cube of the structure map.  Whether
    the defect vanishes identically (a stronger sufficient condition) is
    reported in the details.
    """
    B = bialgebra
    defect = perturbation_defect(B, t)
    return CheckReport("perturbation", _tensor_hypotheses(B.algebra, t, defect, "t", "defect"),
                       details={"defect_vanishes": defect.is_zero()})


def perturb_cobracket(bialgebra, t):
    """The bialgebra with cobracket delta + ad(t)."""
    B = bialgebra
    report = check_perturbation_hypotheses(B, t)
    if not report.passed:
        raise HypothesisError("perturbation hypotheses fail: %r"
                              % (report.violations[0],))
    images = _ad_images(B.algebra, t)
    return bialgebra_from_deltas(B.algebra, [B.delta(i) + images[i] for i in range(B.dim)])


# ---------------------------------------------------------------------------
# sampling the space of candidate r-tensors


def rational_nullspace(rows, ncols):
    """Basis of the right nullspace of a rational matrix."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis


def alpha_fixed_tensors(algebra, skew=False, even_only=False):
    """A basis of the tensors fixed by alpha (x) alpha, optionally
    restricted to skew and/or even ones: the rational nullspace of one
    system over the slots (i, j), all n^2 or the even ones.

    Its column at slot (a, b) is that of alpha (x) alpha - 1, read off
    alpha's sparse columns: -1 on its own row, and x y on row (u, v) for
    each term x e_u of alpha(e_a) and y e_v of alpha(e_b).  alpha is even,
    so (u, v) is a slot whenever (a, b) is.  With *skew*, each i <= j adds
    the row t_ij + (-1)^{|e_i||e_j|} t_ji unless it is zero (an odd
    diagonal slot).  alpha must have constant entries."""
    basis, ring = algebra.basis, algebra.ring
    p, n = basis.parities, basis.dim
    try:
        cols = [[(u, x.constant_value()) for (u,), x in col] for col in algebra.alpha._cols]
    except ScalarError as exc:
        raise HypothesisError("sampling needs a fully numeric structure map") from exc
    slots = [(i, j) for i in range(n) for j in range(n) if not even_only or p[i] == p[j]]
    index = {s: k for k, s in enumerate(slots)}
    rows = [[0] * len(index) for _ in index]
    for (a, b), k in index.items():
        rows[k][k] -= 1
        for u, x in cols[a]:
            for v, y in cols[b]:
                rows[index[u, v]][k] += x * y
    if skew:
        for (i, j), k in index.items():
            if i <= j:
                row = [0] * len(index)
                row[k] = 1
                row[index[j, i]] += koszul_sign(p[i], p[j])
                if any(row):
                    rows.append(row)
    return [Tensor2._wrap(ring, basis, {ij: ring.from_fraction(vec[k])
                                        for ij, k in index.items() if vec[k]})
            for vec in rational_nullspace(rows, len(index))]


def random_fixed_tensor(algebra, rng, skew=False, even_only=False, span=None):
    """A random rational combination of a fixed-tensor basis."""
    if span is None:
        span = alpha_fixed_tensors(algebra, skew=skew, even_only=even_only)
    t = Tensor2(algebra.ring, algebra.basis)
    for b in span:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            t = t + b.scale(algebra.ring.from_fraction(c))
    return t
