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

from .errors import HypothesisError, ScalarError
from .structures import (
    CheckReport,
    Violation,
    ad_basis,
    alpha_otimes_delta,
    bialgebra_from_deltas,
    delta_otimes_alpha,
)
from .superlinear import Tensor2, Tensor3, cyclic_sum, koszul_sign, tau

# ---------------------------------------------------------------------------
# partial brackets and the Yang-Baxter residual


def _pairs(r):
    return list(r.items())


def _partial_bracket(algebra, r, rp, slot):
    """Insert r and rp with the bracket landing in tensor *slot* (0, 1 or
    2) and the structure map covering the other two slots."""
    ring, basis = algebra.ring, algebra.basis
    n, p = basis.dim, basis.parities
    A, c = algebra.alpha.matrix, algebra.bracket
    out = Tensor3(ring, basis)
    for a, b, va in _pairs(r):
        for cc, d, vb in _pairs(rp):
            coeff = va * vb
            # slot 1 brackets b with c directly; the other two move c past b
            if slot != 1 and koszul_sign(p[b], p[cc]) == -1:
                coeff = -coeff
            x, y, first, second = ((a, cc, b, d), (b, cc, a, d), (b, d, a, cc))[slot]
            for t in range(n):
                if not c[x][y][t]:
                    continue
                head = coeff * c[x][y][t]
                for u in range(n):
                    if not A[u][first]:
                        continue
                    for w in range(n):
                        if A[w][second]:
                            i, j, k = ((t, u, w) if slot == 0 else (u, t, w) if slot == 1
                                       else (u, w, t))
                            out.entries[i][j][k] = (
                                out.entries[i][j][k] + head * A[u][first] * A[w][second])
    return out


def bracket_12_13(algebra, r, rp):
    return _partial_bracket(algebra, r, rp, 0)


def bracket_12_23(algebra, r, rp):
    return _partial_bracket(algebra, r, rp, 1)


def bracket_13_23(algebra, r, rp):
    return _partial_bracket(algebra, r, rp, 2)


def yang_baxter_residual(algebra, r):
    """[r12,r13] + [r12,r23] + [r13,r23]."""
    return (bracket_12_13(algebra, r, r) + bracket_12_23(algebra, r, r)
            + bracket_13_23(algebra, r, r))


# ---------------------------------------------------------------------------
# coboundary structures


def _even_violation(r):
    basis = r.basis
    for i, j, v in r.items():
        if (basis.parity(i) + basis.parity(j)) % 2:
            return Violation("r-even", (i, j), v)
    return None


def coboundary_hypothesis_violations(algebra, r, name="r"):
    """The hypotheses under which ad(r) is a usable cobracket candidate:
    r even, alpha-fixed, skew under the graded flip, and the adjoint image
    of its Yang-Baxter residual killed by the cube of the structure map."""
    violations = []
    bad = _even_violation(r)
    if bad is not None:
        violations.append(Violation(name + "-even", bad.indices, bad.residual))
    fixed = r.apply_all(algebra.alpha) - r
    if not fixed.is_zero():
        violations.append(Violation(name + "-alpha-fixed", (), fixed))
    skew = r + tau(r)
    if not skew.is_zero():
        violations.append(Violation(name + "-skew", (), skew))
    yb = yang_baxter_residual(algebra, r)
    for i in range(algebra.dim):
        image = ad_basis(algebra, i, yb).apply_all(algebra.alpha)
        if not image.is_zero():
            violations.append(Violation(name + "-adjoint-yang-baxter", (i,), image))
    return violations


def coboundary_from_r(algebra, r):
    """The bialgebra with cobracket x -> ad_x(r).

    Raises HypothesisError naming the first failing hypothesis.
    """
    violations = coboundary_hypothesis_violations(algebra, r)
    if violations:
        raise HypothesisError("coboundary hypotheses fail: %r" % (violations[0],))
    return bialgebra_from_deltas(
        algebra, [ad_basis(algebra, i, r) for i in range(algebra.dim)])


def check_coboundary(bialgebra, r):
    """Is the bialgebra's cobracket exactly ad(r), hypotheses included?"""
    B = bialgebra
    violations = coboundary_hypothesis_violations(B.algebra, r)
    for i in range(B.dim):
        residual = B.delta(i) - ad_basis(B.algebra, i, r)
        if not residual.is_zero():
            violations.append(Violation("coboundary", (i,), residual))
    return CheckReport("coboundary-structure", violations)


class QuasiTriangularEquivalences:
    """Truth values of the three quasi-triangularity statements."""

    def __init__(self, yang_baxter, left_form, right_form):
        self.yang_baxter = yang_baxter
        self.left_form = left_form
        self.right_form = right_form

    def all_agree(self):
        return self.yang_baxter == self.left_form == self.right_form

    def as_tuple(self):
        return (self.yang_baxter, self.left_form, self.right_form)

    def __repr__(self):
        return ("QuasiTriangularEquivalences(yang_baxter=%r, left_form=%r, "
                "right_form=%r)" % self.as_tuple())


def quasi_triangular_equivalences(bialgebra, r):
    """Evaluate the three statements whose equivalence characterizes
    quasi-triangularity of a coboundary structure:

    1. the Yang-Baxter residual of r vanishes;
    2. (alpha (x) delta)(r) = -[r12, r13];
    3. (delta (x) alpha)(r) = [r13, r23].
    """
    B = bialgebra
    s1 = yang_baxter_residual(B.algebra, r).is_zero()
    s2 = (alpha_otimes_delta(B, r) + bracket_12_13(B.algebra, r, r)).is_zero()
    s3 = (delta_otimes_alpha(B, r) - bracket_13_23(B.algebra, r, r)).is_zero()
    return QuasiTriangularEquivalences(s1, s2, s3)


def check_quasi_triangular(bialgebra, r):
    """Coboundary check plus vanishing of the Yang-Baxter residual."""
    report = check_coboundary(bialgebra, r)
    violations = list(report.violations)
    yb = yang_baxter_residual(bialgebra.algebra, r)
    if not yb.is_zero():
        violations.append(Violation("yang-baxter", (), yb))
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
    violations = []
    bad = _even_violation(t)
    if bad is not None:
        violations.append(Violation("t-even", bad.indices, bad.residual))
    fixed = t.apply_all(B.alpha) - t
    if not fixed.is_zero():
        violations.append(Violation("t-alpha-fixed", (), fixed))
    skew = t + tau(t)
    if not skew.is_zero():
        violations.append(Violation("t-skew", (), skew))
    defect = perturbation_defect(B, t)
    for i in range(B.dim):
        image = ad_basis(B.algebra, i, defect).apply_all(B.alpha)
        if not image.is_zero():
            violations.append(Violation("t-adjoint-defect", (i,), image))
    return CheckReport("perturbation", violations,
                       details={"defect_vanishes": defect.is_zero()})


def perturb_cobracket(bialgebra, t):
    """The bialgebra with cobracket delta + ad(t)."""
    B = bialgebra
    report = check_perturbation_hypotheses(B, t)
    if not report.passed:
        raise HypothesisError("perturbation hypotheses fail: %r"
                              % (report.violations[0],))
    return bialgebra_from_deltas(
        B.algebra, [B.delta(i) + ad_basis(B.algebra, i, t) for i in range(B.dim)])


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


def _constant_matrix(alpha):
    try:
        return [[v.constant_value() for v in row] for row in alpha.matrix]
    except ScalarError as exc:
        raise HypothesisError(
            "sampling needs a fully numeric structure map") from exc


def alpha_fixed_tensors(algebra, skew=False, even_only=False):
    """A basis of the tensors fixed by alpha (x) alpha, optionally
    restricted to skew and/or even ones."""
    basis = algebra.basis
    n = basis.dim
    A = _constant_matrix(algebra.alpha)
    if even_only:
        slots = [(i, j) for i in range(n) for j in range(n)
                 if (basis.parity(i) + basis.parity(j)) % 2 == 0]
    else:
        slots = [(i, j) for i in range(n) for j in range(n)]
    index = {s: k for k, s in enumerate(slots)}
    rows = []
    for (u, v) in slots:
        row = [Fraction(0)] * len(slots)
        for (a, b) in slots:
            coeff = A[u][a] * A[v][b]
            if coeff:
                row[index[(a, b)]] += coeff
        row[index[(u, v)]] -= 1
        rows.append(row)
    if skew:
        for (i, j) in slots:
            if i > j:
                continue
            row = [Fraction(0)] * len(slots)
            row[index[(i, j)]] += 1
            if (j, i) in index:
                s = koszul_sign(basis.parity(i), basis.parity(j))
                row[index[(j, i)]] += s
            if any(row):
                rows.append(row)
    out = []
    for vec in rational_nullspace(rows, len(slots)):
        t = Tensor2(algebra.ring, basis)
        for (i, j), k in index.items():
            if vec[k]:
                t.entries[i][j] = algebra.ring.from_fraction(vec[k])
        out.append(t)
    return out


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
