"""Brackets, cobrackets and the axioms that tie them together.

A *twisted bracket structure* here is a Z2-graded vector space with a
bilinear bracket, an even structure map ``alpha``, and optionally a
cobracket.  Structure constants follow the column convention of
:mod:`hlsb.superlinear`:

    [e_i, e_j]   = sum_k bracket[i][j][k] e_k
    delta(e_i)   = sum_{j,k} cobracket[i][j][k] e_j (x) e_k
    alpha(e_j)   = sum_i  A[i][j] e_i

Nothing is validated eagerly beyond shapes and ring membership: the point
of the package is to *report* which axioms hold, so malformed structures
are representable and ``check`` methods return a :class:`CheckReport`
listing every violated axiom with the exact symbolic residual.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, HypothesisError
from .superlinear import (
    EvenMap, SuperBasis, Tensor2, Tensor3, _add_products, _dense, _sparse, _sparse_columns,
    _TensorBase, cyclic_sum, koszul_sign, tau)


class Violation:
    """One failed axiom instance: which axiom, at which basis indices,
    with what (nonzero) symbolic residual."""

    def __init__(self, axiom, indices, residual):
        self.axiom = axiom
        self.indices = tuple(indices)
        self.residual = residual

    def _residual_str(self):
        def fmt(value):
            if isinstance(value, list):
                return "(" + ", ".join(fmt(v) for v in value) + ")"
            return str(value)
        return fmt(self.residual)

    def to_dict(self):
        return {"axiom": self.axiom, "indices": list(self.indices),
                "residual": self._residual_str()}

    def __repr__(self):
        return "%s%r: %s" % (self.axiom, self.indices, self._residual_str())


class CheckReport:
    """Outcome of a structure check: a list of violations plus optional
    named extras in ``details``."""

    def __init__(self, subject, violations=None, details=None):
        self.subject = subject
        self.violations = list(violations or [])
        self.details = dict(details or {})

    @property
    def passed(self):
        return not self.violations

    def __bool__(self):
        return self.passed

    def by_axiom(self, axiom):
        return [v for v in self.violations if v.axiom == axiom]

    def axioms_violated(self):
        seen = []
        for v in self.violations:
            if v.axiom not in seen:
                seen.append(v.axiom)
        return seen

    def summary(self):
        if self.passed:
            return "%s: all checks passed" % self.subject
        lines = ["%s: %d violation(s)" % (self.subject, len(self.violations))]
        for v in self.violations:
            lines.append("  " + repr(v))
        return "\n".join(lines)

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "details": {k: str(v) for k, v in self.details.items()},
        }

    def __repr__(self):
        state = "passed" if self.passed else "%d violations" % len(self.violations)
        return "<CheckReport %s: %s>" % (self.subject, state)


def _lift_bracket(ring, basis, bracket):
    n = basis.dim
    if len(bracket) != n or any(len(plane) != n for plane in bracket) or any(
            len(row) != n for plane in bracket for row in plane):
        raise DimensionMismatchError("bracket constants must form an %d^3 grid" % n)
    return [[[ring.lift(v) for v in row] for row in plane] for plane in bracket]


def _lift_alpha(ring, basis, alpha):
    if isinstance(alpha, EvenMap):
        if alpha.src != basis or alpha.dst != basis:
            raise DimensionMismatchError("alpha is not an endomorphism of the basis")
        return alpha
    return EvenMap(ring, basis, basis, alpha)


def zero_bracket(ring, basis):
    n = basis.dim
    return [[[ring.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]


def zero_cobracket(ring, basis):
    return zero_bracket(ring, basis)


class HomSuperAlgebra:
    """A Z2-graded bracket together with its twisting map."""

    def __init__(self, ring, basis, bracket, alpha):
        self.ring = ring
        self.basis = basis
        self.bracket = _lift_bracket(ring, basis, bracket)
        self.alpha = _lift_alpha(ring, basis, alpha)

    @property
    def dim(self):
        return self.basis.dim

    def bracket_of(self, i, j):
        """[e_i, e_j] as a coefficient vector."""
        return list(self.bracket[i][j])

    def bracket_vectors(self, x, y):
        """The bracket of two coefficient vectors (bilinear extension)."""
        n = self.dim
        out = [self.ring.zero()] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                row = self.bracket[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] = out[k] + coeff * row[k]
        return out

    # -- residuals -------------------------------------------------------

    def grading_violations(self):
        out = []
        p = self.basis.parities
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    v = self.bracket[i][j][k]
                    if v and (p[i] + p[j]) % 2 != p[k]:
                        out.append(Violation("bracket-grading", (i, j, k), v))
        return out

    def skew_residual(self, i, j):
        """[e_i,e_j] + (-1)^{|e_i||e_j|} [e_j,e_i]."""
        s = koszul_sign(self.basis.parity(i), self.basis.parity(j))
        return [a + (b if s == 1 else -b)
                for a, b in zip(self.bracket[i][j], self.bracket[j][i])]

    def jacobi_residual(self, i, j, k):
        """The graded cyclic sum of [alpha(x), [y, z]] over (e_i,e_j,e_k)."""
        p = self.basis.parities

        def hop(a, b, c):
            inner = self.bracket_of(b, c)
            return self.bracket_vectors(self.alpha.column(a), inner)

        n = self.dim
        out = [self.ring.zero()] * n
        for (a, b, c), sgn in (((i, j, k), koszul_sign(p[i], p[k])),
                               ((k, i, j), koszul_sign(p[k], p[j])),
                               ((j, k, i), koszul_sign(p[j], p[i]))):
            term = hop(a, b, c)
            for m in range(n):
                if term[m]:
                    out[m] = out[m] + (term[m] if sgn == 1 else -term[m])
        return out

    def mult_residual(self, i, j):
        """alpha([e_i,e_j]) - [alpha(e_i), alpha(e_j)]."""
        lhs = self.alpha.apply(self.bracket_of(i, j))
        rhs = self.bracket_vectors(self.alpha.column(i), self.alpha.column(j))
        return [a - b for a, b in zip(lhs, rhs)]

    # -- checks ----------------------------------------------------------

    def check(self, multiplicative=False):
        violations = list(self.grading_violations())
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                r = self.skew_residual(i, j)
                if any(r):
                    violations.append(Violation("skew", (i, j), r))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    r = self.jacobi_residual(i, j, k)
                    if any(r):
                        violations.append(Violation("jacobi", (i, j, k), r))
        if multiplicative:
            for i in range(n):
                for j in range(n):
                    r = self.mult_residual(i, j)
                    if any(r):
                        violations.append(Violation("multiplicative", (i, j), r))
        return CheckReport("hom-super-algebra", violations)

    def is_multiplicative(self):
        return not any(any(self.mult_residual(i, j))
                       for i in range(self.dim) for j in range(self.dim))


class HomSuperCoalgebra:
    """A Z2-graded cobracket together with its twisting map."""

    def __init__(self, ring, basis, cobracket, alpha):
        self.ring = ring
        self.basis = basis
        self.cobracket = _lift_bracket(ring, basis, cobracket)
        self.alpha = _lift_alpha(ring, basis, alpha)

    @property
    def dim(self):
        return self.basis.dim

    def delta(self, i):
        """delta(e_i) as a Tensor2."""
        return Tensor2._wrap(self.ring, self.basis, dict(_sparse(self.cobracket[i], 2)))

    def grading_violations(self):
        out = []
        p = self.basis.parities
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    v = self.cobracket[i][j][k]
                    if v and p[i] != (p[j] + p[k]) % 2:
                        out.append(Violation("cobracket-grading", (i, j, k), v))
        return out

    def coskew_residual(self, i):
        """(1 + tau) delta(e_i)."""
        d = self.delta(i)
        return d + tau(d)

    def delta_vector(self, x):
        """delta of a coefficient vector (linear extension), as a Tensor2."""
        cells = {}
        for m, c in enumerate(x):
            if c:
                _add_products(cells, c, [_sparse(self.cobracket[m], 2)])
        return Tensor2._wrap(self.ring, self.basis, cells)

    def cojacobi_residual(self, i):
        """The graded cyclic sum of (alpha (x) delta) delta at e_i."""
        return cyclic_sum(alpha_otimes_delta(self, self.delta(i)))

    def comult_residual(self, i):
        """delta(alpha(e_i)) - (alpha (x) alpha) delta(e_i)."""
        return (self.delta_vector(self.alpha.column(i))
                - self.delta(i).apply_all(self.alpha))

    def check(self, comultiplicative=False):
        violations = list(self.grading_violations())
        for i in range(self.dim):
            r = self.coskew_residual(i)
            if not r.is_zero():
                violations.append(Violation("coskew", (i,), r))
        for i in range(self.dim):
            r = self.cojacobi_residual(i)
            if not r.is_zero():
                violations.append(Violation("cojacobi", (i,), r))
        if comultiplicative:
            for i in range(self.dim):
                r = self.comult_residual(i)
                if not r.is_zero():
                    violations.append(Violation("comultiplicative", (i,), r))
        return CheckReport("hom-super-coalgebra", violations)

    def is_comultiplicative(self):
        return not any(not self.comult_residual(i).is_zero() for i in range(self.dim))


def _alpha_beside_delta(coalgebra, r, delta_first):
    """alpha on one factor of r and delta on the other, as a Tensor3 with
    the alpha image in the first slot, or in the last if *delta_first*."""
    C = coalgebra
    cols = _sparse_columns(C.alpha)
    cells = {}
    for (a, b), va in r._cells.items():
        if delta_first:
            _add_products(cells, va, [_sparse(C.cobracket[a], 2), cols[b]])
        else:
            _add_products(cells, va, [cols[a], _sparse(C.cobracket[b], 2)])
    return Tensor3._wrap(C.ring, C.basis, cells)


def alpha_otimes_delta(coalgebra, r):
    """(alpha (x) delta)(r) as a Tensor3."""
    return _alpha_beside_delta(coalgebra, r, False)


def delta_otimes_alpha(coalgebra, r):
    """(delta (x) alpha)(r) as a Tensor3."""
    return _alpha_beside_delta(coalgebra, r, True)


def ad_action(algebra, x, t):
    """The twisted adjoint action of a homogeneous element on a tensor.

    *x* is a pair ``(coeffs, parity)``.  On each summand the bracket hits
    one slot while ``alpha`` hits all the others, with the Koszul sign for
    moving x past the slots it skips:

        x . (y1 (x) ... (x) yn)
          = sum_i (+-) alpha(y1) (x) ... (x) [x, y_i] (x) ... (x) alpha(yn)
    """
    if not isinstance(t, _TensorBase):
        raise TypeError("ad_action expects a Tensor2 or Tensor3")
    coeffs, parity = x
    p = algebra.basis.parities
    out_parity = None if t.parity is None else (t.parity + parity) % 2
    cells, src = {}, t._cells
    used = {i for idx in src for i in idx}
    cols = {j: _sparse(algebra.alpha.column(j), 1) for j in used}
    for m, xm in enumerate(coeffs):
        if not xm:
            continue
        rows = {i: _sparse(algebra.bracket[m][i], 1) for i in used}
        for idx, v in src.items():
            base = xm * v
            skipped = 0
            for slot, i in enumerate(idx):
                if rows[i]:
                    factors = [cols[j] for j in idx]
                    factors[slot] = rows[i]
                    _add_products(cells, -base if parity * skipped % 2 else base, factors)
                skipped += p[i]
    return t._wrap(algebra.ring, algebra.basis, cells, out_parity)


def ad_basis(algebra, m, t):
    """ad of the m-th basis element on a tensor."""
    coeffs = [algebra.ring.zero()] * algebra.dim
    coeffs[m] = algebra.ring.one()
    return ad_action(algebra, (coeffs, algebra.basis.parity(m)), t)


def _compat_residual(algebra, deltas, i, j):
    """delta([e_i,e_j]) - ad_{alpha(e_i)} delta(e_j)
    + (-1)^{|e_i||e_j|} ad_{alpha(e_j)} delta(e_i)."""
    ring, basis = algebra.ring, algebra.basis
    p = basis.parities
    out = Tensor2(ring, basis)
    for k, coeff in enumerate(algebra.bracket[i][j]):
        if coeff:
            out = out + deltas[k].scale(coeff)
    out = out - ad_action(algebra, (algebra.alpha.column(i), p[i]), deltas[j])
    term = ad_action(algebra, (algebra.alpha.column(j), p[j]), deltas[i])
    if koszul_sign(p[i], p[j]) == 1:
        out = out + term
    else:
        out = out - term
    return out


class HomSuperBialgebra:
    """Bracket + cobracket over one twisting map, with the compatibility
    condition linking them."""

    def __init__(self, ring, basis, bracket, cobracket, alpha):
        self.ring = ring
        self.basis = basis
        self.alpha = _lift_alpha(ring, basis, alpha)
        self.algebra = HomSuperAlgebra(ring, basis, bracket, self.alpha)
        self.coalgebra = HomSuperCoalgebra(ring, basis, cobracket, self.alpha)

    @property
    def dim(self):
        return self.basis.dim

    @property
    def bracket(self):
        return self.algebra.bracket

    @property
    def cobracket(self):
        return self.coalgebra.cobracket

    def delta(self, i):
        return self.coalgebra.delta(i)

    def compat_residual(self, i, j):
        deltas = [self.delta(k) for k in range(self.dim)]
        return _compat_residual(self.algebra, deltas, i, j)

    def check(self, multiplicative=False):
        report_a = self.algebra.check(multiplicative=multiplicative)
        report_c = self.coalgebra.check(comultiplicative=multiplicative)
        violations = report_a.violations + report_c.violations
        deltas = [self.delta(k) for k in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                r = _compat_residual(self.algebra, deltas, i, j)
                if not r.is_zero():
                    violations.append(Violation("compatibility", (i, j), r))
        return CheckReport("hom-super-bialgebra", violations)


def delta0(algebra, r):
    """Send an alpha-fixed tensor r to the cobracket candidate
    ``e_i -> ad_{e_i}(r)``, returned as a list of Tensor2 images."""
    if not isinstance(r, Tensor2):
        raise TypeError("delta0 expects a Tensor2")
    if r.apply_all(algebra.alpha) != r:
        raise HypothesisError("r is not fixed by alpha (x) alpha")
    return [ad_basis(algebra, i, r) for i in range(algebra.dim)]


def delta1(algebra, deltas):
    """The compatibility defect of a cobracket candidate, as a grid of
    Tensor2 residuals indexed by ordered basis pairs."""
    n = algebra.dim
    return [[_compat_residual(algebra, deltas, i, j) for j in range(n)]
            for i in range(n)]


def bialgebra_from_deltas(algebra, deltas):
    """Package an algebra and per-basis cobracket images as a bialgebra."""
    cobracket = [_dense(d) for d in deltas]
    return HomSuperBialgebra(algebra.ring, algebra.basis, algebra.bracket,
                             cobracket, algebra.alpha)
