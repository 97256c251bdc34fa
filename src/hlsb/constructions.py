"""Derived objects: morphism checks, twists, duals, representations,
semidirect sums, matched pairs and invariant-pairing doubles.

All constructions are exact: given structure constants over a parameter
ring they produce structure constants over the same ring (or its dual
basis), and every hypothesis a construction needs is either verified on
the spot or surfaced through :class:`~hlsb.errors.HypothesisError`.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, HypothesisError, MorphismError, RingMismatchError
from .structures import (
    CheckReport,
    HomSuperAlgebra,
    HomSuperBialgebra,
    Violation,
    _bracket_cells,
    _cobracket_cells,
    _delta_cells,
    delta1,
)
from .superlinear import EvenMap, SuperBasis, Tensor2, _add_at, _frozen, _map_cells, koszul_sign

# ---------------------------------------------------------------------------
# small matrix helpers (entries may be parity-shifting, so EvenMap does
# not apply; plain nested lists of scalars)


def _mat_zero(ring, rows, cols):
    return [[ring.zero() for _ in range(cols)] for _ in range(rows)]


def _mat_add(x, y, sign=1):
    return [[a + b if sign == 1 else a - b for a, b in zip(rx, ry)]
            for rx, ry in zip(x, y)]


def _mat_scale(c, x):
    return [[c * a for a in row] for row in x]


def _mat_mul(ring, x, y):
    rows, inner, cols = len(x), len(y), len(y[0])
    out = _mat_zero(ring, rows, cols)
    for i in range(rows):
        for t in range(inner):
            if not x[i][t]:
                continue
            for j in range(cols):
                if y[t][j]:
                    out[i][j] = out[i][j] + x[i][t] * y[t][j]
    return out


def _mat_is_zero(x):
    return all(not v for row in x for v in row)


# ---------------------------------------------------------------------------
# morphisms


def check_algebra_morphism(f, src, dst):
    """Is f a morphism of bracket structures (bracket- and twist-compatible)?"""
    if f.src != src.basis or f.dst != dst.basis:
        raise DimensionMismatchError("map bases do not match the structures")
    violations = []
    n = src.dim
    for i in range(n):
        for j in range(n):
            lhs = f.apply(src.bracket_of(i, j))
            rhs = dst.bracket_vectors(f.column(i), f.column(j))
            r = [a - b for a, b in zip(lhs, rhs)]
            if any(r):
                violations.append(Violation("bracket-morphism", (i, j), r))
    violations.extend(_intertwine_violations(f, src, dst))
    return CheckReport("algebra-morphism", violations)


def check_coalgebra_morphism(f, src, dst):
    """Is f a morphism of cobracket structures?"""
    if f.src != src.basis or f.dst != dst.basis:
        raise DimensionMismatchError("map bases do not match the structures")
    violations = []
    for i in range(src.dim):
        r = dst.delta_vector(f.column(i)) - src.delta(i).apply_all(f)
        if not r.is_zero():
            violations.append(Violation("cobracket-morphism", (i,), r))
    violations.extend(_intertwine_violations(f, src, dst))
    return CheckReport("coalgebra-morphism", violations)


def _intertwine_violations(f, src, dst):
    """f o alpha_src - alpha_dst o f, reported if nonzero."""
    diff = _mat_add(f.compose(src.alpha).matrix, dst.alpha.compose(f).matrix,
                    sign=-1)
    if _mat_is_zero(diff):
        return []
    return [Violation("twist-intertwine", (), diff)]


def check_bialgebra_morphism(f, src, dst):
    ra = check_algebra_morphism(f, src.algebra, dst.algebra)
    rc = check_coalgebra_morphism(f, src.coalgebra, dst.coalgebra)
    seen = {}
    merged = []
    for v in ra.violations + rc.violations:
        key = (v.axiom, v.indices)
        if key not in seen:
            seen[key] = True
            merged.append(v)
    return CheckReport("bialgebra-morphism", merged)


# ---------------------------------------------------------------------------
# twisting


def twist(bialgebra, beta, verify=True):
    """Twist a bialgebra along an endomorphism beta of itself.

    The result keeps the underlying space and replaces

        bracket   -> beta o bracket
        cobracket -> cobracket o beta
        alpha     -> beta o alpha
    """
    B = bialgebra
    if beta.src != B.basis or beta.dst != B.basis:
        raise DimensionMismatchError("twisting map is not an endomorphism")
    if verify:
        report = check_bialgebra_morphism(beta, B, B)
        if not report.passed:
            raise MorphismError(
                "twisting map is not a bialgebra endomorphism; first failure: %r"
                % (report.violations[0],))
    bracket = {}
    for (i, j, k), v in _bracket_cells(B.algebra).items():
        for (m,), b in beta._cols[k]:
            _add_at(bracket, (i, j, m), b * v)
    cobracket = _delta_cells([B.coalgebra.delta_vector(beta.column(i)) for i in range(B.dim)])
    return HomSuperBialgebra(B.ring, B.basis, bracket, cobracket,
                             beta.compose(B.alpha))


def twist_power(bialgebra, n):
    """Twist along the n-th power of the structure map itself.

    Requires the structure map to be both multiplicative and
    comultiplicative, which is exactly what makes its powers bialgebra
    endomorphisms.
    """
    if n < 0:
        raise ValueError("the twisting exponent must be >= 0")
    B = bialgebra
    if not B.algebra.is_multiplicative():
        raise HypothesisError("structure map is not multiplicative")
    if not B.coalgebra.is_comultiplicative():
        raise HypothesisError("structure map is not comultiplicative")
    return twist(B, B.alpha.power(n), verify=False)


def _dot(ring, x, y):
    total = ring.zero()
    for a, b in zip(x, y):
        if a and b:
            total = total + a * b
    return total


def _charpoly(ring, m):
    """Coefficients [1, c_1, ..., c_n] of det(t I - m) by Berkowitz's
    division-free algorithm: O(n^4) ring operations and no minors.  Each
    leading principal block [[M, col], [row, a]] multiplies the previous
    coefficients by the Toeplitz matrix with first column
    1, -a, -row.col, -row.M.col, ..., -row.M^(k-1).col."""
    coeffs = [ring.one()]
    for k in range(len(m)):
        col = [m[i][k] for i in range(k)]
        toeplitz = [ring.one(), -m[k][k]]
        for _ in range(k):
            toeplitz.append(-_dot(ring, m[k], col))
            col = [_dot(ring, m[i], col) for i in range(k)]
        coeffs = [_dot(ring, toeplitz[i::-1], coeffs) for i in range(k + 2)]
    return coeffs


def _det(ring, m):
    c = _charpoly(ring, m)[-1]
    return c if len(m) % 2 == 0 else -c


def invert_even_map(f):
    """Invert an even map via the adjugate; the determinant must be an
    invertible scalar.  By Cayley-Hamilton the adjugate is
    (-1)^(n-1) (m^(n-1) + c_1 m^(n-2) + ... + c_(n-1)) for the
    characteristic coefficients c_i of the matrix m."""
    if f.src.dim != f.dst.dim:
        raise DimensionMismatchError("only square maps can be inverted")
    ring = f.ring
    n = f.src.dim
    coeffs = _charpoly(ring, f.matrix)
    full = coeffs[-1] if n % 2 == 0 else -coeffs[-1]
    try:
        inv_det = full.inverse()
    except Exception as exc:
        raise HypothesisError("determinant %s is not invertible" % (full,)) from exc
    adj = EvenMap.identity(ring, f.src).matrix
    for c in coeffs[1:n]:
        adj = _mat_mul(ring, f.matrix, adj)
        for i in range(n):
            adj[i][i] = adj[i][i] + c
    return EvenMap(ring, f.dst, f.src, _mat_scale(inv_det if n % 2 else -inv_det, adj))


def transport_structure(bialgebra, f):
    """Push the whole structure through an invertible even map f, making f
    an isomorphism from the input onto the result."""
    B = bialgebra
    if f.src != B.basis:
        raise DimensionMismatchError("transport map must start at the structure basis")
    g = invert_even_map(f)
    ring = B.ring
    basis = f.dst
    n = basis.dim
    bracket = {(i, j, k): v for i in range(n) for j in range(n) for k, v in enumerate(
        f.apply(B.algebra.bracket_vectors(g.column(i), g.column(j))))}
    cobracket = _delta_cells([B.coalgebra.delta_vector(g.column(i)).apply_all(f)
                              for i in range(n)])
    alpha = f.compose(B.alpha).compose(g)
    return HomSuperBialgebra(ring, basis, bracket, cobracket, alpha)


# ---------------------------------------------------------------------------
# duals


def dual_basis(basis):
    """Same parities, labels starred (an existing star is stripped, so
    taking the dual basis twice is the identity)."""
    labels = []
    for l in basis.labels:
        labels.append(l[:-2] if l.endswith("^*") else l + "^*")
    return SuperBasis(basis.parities, labels)


def _pair_sign(convention, p, q, shift=0):
    """The sign relating cobracket constants to dual bracket constants:
    the pairing sign of a 2-tensor of parities (p, q) against the partner
    space, times (-1)^shift."""
    if convention == "koszul":
        sign = koszul_sign(p, q)
    elif convention == "plain":
        sign = 1
    else:
        raise ValueError("unknown pairing convention %r" % (convention,))
    return -sign if shift % 2 else sign


def dualize(bialgebra, convention="koszul"):
    """The dual bialgebra on the dual basis.

    The cobracket constants become the dual bracket constants and vice
    versa; the structure map dualizes to its transpose.  With the default
    "koszul" convention the odd-odd constants pick up a sign; "plain"
    transposes the constants untouched.  Either way the construction is
    an involution.

    Both conventions give valid duals: they differ only in the sign of
    the odd-odd constants, which is a rescaling of the odd basis vectors
    by sqrt(-1) (over the rationals, a twist by the bicharacter
    (-1)^{|x||y|}) and so keeps every axiom residual zero.  "koszul" is
    the convention that agrees with the supersymmetric pairing used by
    ``coadjoint_action`` and ``manin_supertriple``: wherever the
    invariant-pairing double g (+) g* closes under "plain" it closes
    under "koszul", but not conversely.
    """
    B = bialgebra
    ring = B.ring
    basis = dual_basis(B.basis)
    p = basis.parities

    def signed(i, j, v):
        return v if _pair_sign(convention, p[i], p[j]) == 1 else -v
    bracket = {(i, j, k): signed(i, j, v)
               for (k, i, j), v in _cobracket_cells(B.coalgebra).items()}
    cobracket = {(k, i, j): signed(i, j, v)
                 for (i, j, k), v in _bracket_cells(B.algebra).items()}
    alpha = EvenMap(ring, basis, basis, {(j, i): v for (i, j), v in _map_cells(B.alpha).items()})
    return HomSuperBialgebra(ring, basis, bracket, cobracket, alpha)


# ---------------------------------------------------------------------------
# representations


class Representation:
    """An action of a bracket structure on a graded module.

    ``matrices[m]`` is the matrix of the action of the m-th algebra basis
    vector on the module (column convention).  ``module_map`` is the
    module's own structure map.
    """

    def __init__(self, algebra, module_basis, module_map, matrices):
        self.algebra = algebra
        self.ring = algebra.ring
        self.module_basis = module_basis
        if not isinstance(module_map, EvenMap):
            module_map = EvenMap(self.ring, module_basis, module_basis, module_map)
        if module_map.src != module_basis or module_map.dst != module_basis:
            raise DimensionMismatchError("module map must be an endomorphism "
                                         "of the module basis")
        self.module_map = module_map
        if len(matrices) != algebra.dim:
            raise DimensionMismatchError("one action matrix per algebra basis "
                                         "vector is required")
        lift = self.ring.lift
        self.matrices = []
        for mat in matrices:
            if len(mat) != module_basis.dim or any(
                    len(row) != module_basis.dim for row in mat):
                raise DimensionMismatchError("action matrices must be square "
                                             "of the module dimension")
            self.matrices.append([[lift(v) for v in row] for row in mat])

    def act(self, m, vec):
        """Action of the m-th algebra basis vector on a module vector."""
        out = [self.ring.zero()] * self.module_basis.dim
        for i in range(self.module_basis.dim):
            for j, v in enumerate(vec):
                if v and self.matrices[m][i][j]:
                    out[i] = out[i] + self.matrices[m][i][j] * v
        return out

    def act_by(self, coeffs):
        """Matrix of the action of a general algebra element."""
        out = _mat_zero(self.ring, self.module_basis.dim, self.module_basis.dim)
        for m, c in enumerate(coeffs):
            if c:
                out = _mat_add(out, _mat_scale(c, self.matrices[m]))
        return out

    def grading_violations(self):
        out = []
        pm = self.algebra.basis.parities
        pv = self.module_basis.parities
        for m in range(self.algebra.dim):
            for i in range(self.module_basis.dim):
                for j in range(self.module_basis.dim):
                    v = self.matrices[m][i][j]
                    if v and (pv[j] + pm[m]) % 2 != pv[i]:
                        out.append(Violation("action-grading", (m, i, j), v))
        return out

    def intertwine_residual(self, i):
        """rho(alpha(e_i)) o module_map - module_map o rho(e_i)."""
        acted = self.act_by(self.algebra.alpha.column(i))
        beta = self.module_map.matrix
        return _mat_add(_mat_mul(self.ring, acted, beta),
                        _mat_mul(self.ring, beta, self.matrices[i]), sign=-1)

    def action_residual(self, i, j):
        """rho([e_i,e_j]) o module_map
        - (rho(alpha(e_i)) rho(e_j) - (-1)^{|e_i||e_j|} rho(alpha(e_j)) rho(e_i))."""
        ring = self.ring
        lhs = _mat_mul(ring, self.act_by(self.algebra.bracket_of(i, j)),
                       self.module_map.matrix)
        first = _mat_mul(ring, self.act_by(self.algebra.alpha.column(i)),
                         self.matrices[j])
        second = _mat_mul(ring, self.act_by(self.algebra.alpha.column(j)),
                          self.matrices[i])
        s = koszul_sign(self.algebra.basis.parity(i), self.algebra.basis.parity(j))
        rhs = _mat_add(first, second, sign=-1 if s == 1 else 1)
        return _mat_add(lhs, rhs, sign=-1)

    def check(self):
        violations = list(self.grading_violations())
        n = self.algebra.dim
        for i in range(n):
            r = self.intertwine_residual(i)
            if not _mat_is_zero(r):
                violations.append(Violation("action-intertwine", (i,), r))
        for i in range(n):
            for j in range(n):
                r = self.action_residual(i, j)
                if not _mat_is_zero(r):
                    violations.append(Violation("action-bracket", (i, j), r))
        return CheckReport("representation", violations)


def adjoint_representation(algebra):
    """The structure acting on itself by its own bracket."""
    n = algebra.dim
    matrices = [_mat_zero(algebra.ring, n, n) for _ in range(n)]
    for (m, j, i), v in _bracket_cells(algebra).items():
        matrices[m][i][j] = v
    return Representation(algebra, algebra.basis, algebra.alpha, matrices)


def dual_representation(rep):
    """The negated graded transpose action on the dual module."""
    ring = rep.ring
    basis = dual_basis(rep.module_basis)
    pm = rep.algebra.basis.parities
    pv = basis.parities
    n = basis.dim
    matrices = []
    for m in range(rep.algebra.dim):
        mat = _mat_zero(ring, n, n)
        for k in range(n):
            for j in range(n):
                v = rep.matrices[m][j][k]
                if v:
                    s = koszul_sign(pm[m], pv[j])
                    mat[k][j] = -v if s == 1 else v
        matrices.append(mat)
    module_map = EvenMap(ring, basis, basis,
                         [[rep.module_map.matrix[j][i] for j in range(n)]
                          for i in range(n)])
    return Representation(rep.algebra, basis, module_map, matrices)


def check_admissible(algebra):
    """Does [(Id - alpha^2) x, alpha(y)] vanish identically?

    This is the condition under which the dual of the adjoint action is
    again an action with respect to the transposed structure map.
    """
    A = algebra
    n = A.dim
    ident = EvenMap.identity(A.ring, A.basis)
    sq = A.alpha.power(2)
    defect = [[a - b for a, b in zip(ra, rb)]
              for ra, rb in zip(ident.matrix, sq.matrix)]
    violations = []
    for i in range(n):
        x = [defect[r][i] for r in range(n)]
        for j in range(n):
            r = A.bracket_vectors(x, A.alpha.column(j))
            if any(r):
                violations.append(Violation("admissible", (i, j), r))
    return CheckReport("admissible", violations)


# ---------------------------------------------------------------------------
# sums and doubles


def _merge_labels(first, second):
    labels = list(first)
    for l in second:
        while l in labels:
            l = l + "'"
        labels.append(l)
    return labels


def semidirect_product(algebra, rep):
    """The bracket structure on algebra (+) module with the module abelian
    and the algebra acting through the representation: the double of the
    matched pair whose module side acts by zero."""
    A = algebra
    ring = A.ring
    if rep.algebra.basis != A.basis:
        raise DimensionMismatchError("representation does not act for this structure")
    module = HomSuperAlgebra(ring, rep.module_basis, {}, rep.module_map)
    inert = Representation(module, A.basis, A.alpha,
                           [_mat_zero(ring, A.dim, A.dim)] * module.dim)
    return MatchedPair(A, module, rep, inert).double()


class MatchedPair:
    """Two bracket structures acting on each other.

    ``left_action`` is a representation of the left structure on the
    right structure's space (module map = right structure map) and
    ``right_action`` the other way around.
    """

    def __init__(self, left, right, left_action, right_action):
        if left.ring != right.ring:
            raise RingMismatchError("matched pair halves over different rings")
        self.left = left
        self.right = right
        if (left_action.module_basis != right.basis
                or right_action.module_basis != left.basis):
            raise DimensionMismatchError("actions do not act on the partner spaces")
        if left_action.module_map != right.alpha:
            raise HypothesisError("left action module map must be the right "
                                  "structure map")
        if right_action.module_map != left.alpha:
            raise HypothesisError("right action module map must be the left "
                                  "structure map")
        self.left_action = left_action
        self.right_action = right_action

    def double(self):
        """The bracket structure on left (+) right."""
        g, h = self.left, self.right
        ring = g.ring
        n, m = g.dim, h.dim
        basis = SuperBasis(g.basis.parities + h.basis.parities,
                           _merge_labels(g.basis.labels, h.basis.labels))
        bracket = _bracket_cells(g)
        for (i, j, k), v in _bracket_cells(h).items():
            bracket[n + i, n + j, n + k] = v
        rho, mu = self.left_action.matrices, self.right_action.matrices
        for i in range(n):
            for j in range(m):
                s = koszul_sign(g.basis.parity(i), h.basis.parity(j))
                for p in range(m):
                    v = rho[i][p][j]
                    if v:
                        bracket[i, n + j, n + p] = v
                        bracket[n + j, i, n + p] = -v if s == 1 else v
                for p in range(n):
                    w = mu[j][p][i]
                    if w:
                        value = -w if s == 1 else w
                        bracket[i, n + j, p] = value
                        bracket[n + j, i, p] = -value if s == 1 else value
        alpha = _map_cells(g.alpha)
        for (i, j), v in _map_cells(h.alpha).items():
            alpha[n + i, n + j] = v
        return HomSuperAlgebra(ring, basis, bracket, alpha)

    def check(self, multiplicative=False):
        violations = []
        for prefix, rep in (("left-action:", self.left_action),
                            ("right-action:", self.right_action)):
            for v in rep.check().violations:
                violations.append(Violation(prefix + v.axiom, v.indices, v.residual))
        for v in self.double().check(multiplicative=multiplicative).violations:
            violations.append(Violation("double:" + v.axiom, v.indices, v.residual))
        return CheckReport("matched-pair", violations)


def _require_dual_shape(g, gstar):
    if g.ring != gstar.ring:
        raise RingMismatchError("the two halves live over different rings")
    if g.basis.parities != gstar.basis.parities:
        raise HypothesisError("dual-space partner must have the same parities")
    if gstar.alpha.matrix != tuple(zip(*g.alpha.matrix)):
        raise HypothesisError("dual-space partner must carry the transposed "
                              "structure map")


def _coadjoint(acting, partner, sign_on_target):
    """Negated graded transpose of *acting*'s own adjoint action, acting on
    *partner*'s space.  The Koszul sign pairs the acting index with the
    output index if *sign_on_target*, else with the input index."""
    ring, n = acting.ring, acting.dim
    p = acting.basis.parities
    matrices = [_mat_zero(ring, n, n) for _ in range(n)]
    for (m, out, j), v in _bracket_cells(acting).items():
        q = p[out] if sign_on_target else p[j]
        matrices[m][out][j] = -v if koszul_sign(p[m], q) == 1 else v
    return Representation(acting, partner.basis, partner.alpha, matrices)


def coadjoint_action(g, gstar):
    """g acting on the dual space by the negated graded transpose of its
    own adjoint action."""
    _require_dual_shape(g, gstar)
    return _coadjoint(g, gstar, False)


def dual_coadjoint_action(g, gstar):
    """The dual space acting back on g, through the pairing that
    identifies g with the double dual."""
    _require_dual_shape(g, gstar)
    return _coadjoint(gstar, g, True)


def dual_matched_pair(g, gstar):
    """The matched pair carried by a structure and its dual-space partner,
    with both halves acting by coadjoint-type actions."""
    return MatchedPair(g, gstar, coadjoint_action(g, gstar),
                       dual_coadjoint_action(g, gstar))


# ---------------------------------------------------------------------------
# bilinear forms and the invariant-pairing double


class BilinearForm:
    """An even bilinear form on a graded space, as a matrix of values
    ``S[i][j] = S(e_i, e_j)``."""

    def __init__(self, ring, basis, matrix):
        self.ring = ring
        self.basis = basis
        if len(matrix) != basis.dim or any(len(r) != basis.dim for r in matrix):
            raise DimensionMismatchError("form matrix must be square of the "
                                         "basis dimension")
        self.matrix = [[ring.lift(v) for v in row] for row in matrix]

    def value(self, x, y):
        total = self.ring.zero()
        for i, xv in enumerate(x):
            if not xv:
                continue
            for j, yv in enumerate(y):
                if yv and self.matrix[i][j]:
                    total = total + xv * self.matrix[i][j] * yv
        return total

    def evenness_violations(self):
        out = []
        p = self.basis.parities
        for i in range(self.basis.dim):
            for j in range(self.basis.dim):
                if self.matrix[i][j] and (p[i] + p[j]) % 2:
                    out.append(Violation("form-even", (i, j), self.matrix[i][j]))
        return out

    def supersymmetry_violations(self):
        out = []
        p = self.basis.parities
        for i in range(self.basis.dim):
            for j in range(i, self.basis.dim):
                s = koszul_sign(p[i], p[j])
                other = self.matrix[j][i]
                r = self.matrix[i][j] - (other if s == 1 else -other)
                if r:
                    out.append(Violation("form-supersymmetric", (i, j), r))
        return out

    def self_adjoint_violations(self, alpha):
        out = []
        n = self.basis.dim
        for i in range(n):
            for j in range(n):
                lhs = self.value(alpha.column(i), _unit(self.ring, n, j))
                rhs = self.value(_unit(self.ring, n, i), alpha.column(j))
                if lhs - rhs:
                    out.append(Violation("form-self-adjoint", (i, j), lhs - rhs))
        return out

    def invariance_violations(self, algebra):
        out = []
        n = self.basis.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.value(algebra.bracket_of(i, j), _unit(self.ring, n, k))
                    rhs = self.value(_unit(self.ring, n, i), algebra.bracket_of(j, k))
                    if lhs - rhs:
                        out.append(Violation("form-invariant", (i, j, k), lhs - rhs))
        return out

    def determinant(self):
        return _det(self.ring, self.matrix)

    def is_nondegenerate(self):
        return not self.determinant().is_zero()


def _unit(ring, n, i):
    out = [ring.zero()] * n
    out[i] = ring.one()
    return out


class ManinTriple:
    """An invariant-pairing double: the assembled structure, the pairing
    form, and the validity report."""

    def __init__(self, double, form, report, pair):
        self.double = double
        self.form = form
        self.report = report
        self.pair = pair

    @property
    def passed(self):
        return self.report.passed


def manin_supertriple(g, gstar, multiplicative=False):
    """Assemble g (+) g* with coadjoint-type mixed brackets and the
    canonical invariant pairing, and report every validity condition."""
    pair = dual_matched_pair(g, gstar)
    double = pair.double()
    ring, n = g.ring, g.dim
    mat = _mat_zero(ring, 2 * n, 2 * n)
    for i in range(n):
        one = ring.one()
        mat[i][n + i] = -one if g.basis.parity(i) else one
        mat[n + i][i] = one
    form = BilinearForm(ring, double.basis, mat)
    violations = []
    for v in double.check(multiplicative=multiplicative).violations:
        violations.append(Violation("double:" + v.axiom, v.indices, v.residual))
    violations.extend(form.evenness_violations())
    violations.extend(form.supersymmetry_violations())
    violations.extend(form.self_adjoint_violations(double.alpha))
    violations.extend(form.invariance_violations(double))
    for i in range(n):
        for j in range(n):
            if form.matrix[i][j]:
                violations.append(Violation("half-isotropic", (i, j),
                                            form.matrix[i][j]))
            if form.matrix[n + i][n + j]:
                violations.append(Violation("half-isotropic", (n + i, n + j),
                                            form.matrix[n + i][n + j]))
    if not form.is_nondegenerate():
        violations.append(Violation("form-nondegenerate", (), form.determinant()))
    report = CheckReport("invariant-pairing-double", violations)
    return ManinTriple(double, form, report, pair)


# ---------------------------------------------------------------------------
# the two-sided cocycle condition for a dual pair


def cobracket_from_dual_bracket(g, gstar, convention="koszul"):
    """Rebuild the cobracket on g whose dualization is gstar's bracket.

    The roles are symmetric: ``cobracket_from_dual_bracket(gstar, g)``
    rebuilds the cobracket on gstar whose dualization is g's bracket.
    The result is a read-only grid ``cobracket[i][a][b]``, in the form of
    the ``cobracket`` view of a structure.
    """
    cells = _dual_cobracket_cells(g, gstar, convention)
    return _frozen(cells, (g.dim,) * 3, g.ring.zero())


def _dual_cobracket_cells(g, gstar, convention):
    p = g.basis.parities
    out = {}
    for (a, b, i), v in _bracket_cells(gstar).items():
        s = _pair_sign(convention, p[a], p[b], p[i] + p[a] + p[b])
        out[i, a, b] = v if s == 1 else -v
    return out


def _pairing_cocycle_violations(g, gstar, convention, shifted, axiom):
    """Pair the compatibility defect of the cobracket rebuilt on g against
    the twisted wedge arguments from gstar.  The pairing sign is
    ``_pair_sign``, times (-1)^{|s|+|q|} at the slot parities if *shifted*.
    """
    ring, n = g.ring, g.dim
    p = g.basis.parities
    A = g.alpha.matrix
    deltas = [{} for _ in range(n)]
    for (i, a, b), v in _dual_cobracket_cells(g, gstar, convention).items():
        deltas[i][a, b] = v
    defect = delta1(g, [Tensor2._wrap(ring, g.basis, d) for d in deltas])

    def pairing(t, s, q):
        # <t, e^s (x) e^q> for a 2-tensor t on g
        v = t._cells.get((s, q))
        if v is None:
            return ring.zero()
        shift = p[s] + p[q] if shifted else 0
        return v if _pair_sign(convention, p[s], p[q], shift) == 1 else -v

    violations = []
    for i in range(n):
        for j in range(n):
            t = defect[i][j]
            if t.is_zero():
                continue
            for q in range(n):
                for pp in range(n):
                    total = ring.zero()
                    for s in range(n):
                        if not A[pp][s]:
                            continue
                        wedge = pairing(t, s, q)
                        back = pairing(t, q, s)
                        wedge = wedge - (back if koszul_sign(p[s], p[q]) == 1 else -back)
                        if wedge:
                            total = total + A[pp][s] * wedge
                    if total:
                        violations.append(Violation(axiom, (i, j, pp, q), total))
    return violations


def check_dual_pair(g, gstar, convention="koszul", multiplicative=False):
    """Do a structure and its dual-space partner fit together into one
    bialgebra?

    Checks admissibility of both halves, validity of both halves, and the
    two mutual cocycle conditions: the compatibility defect of the
    cobracket rebuilt on either half must pair to zero against the other
    half's twisted wedge arguments.  One procedure serves both halves.
    The primal half ("pairing-cocycle") rebuilds on g and pairs a primal
    2-tensor against dual arguments with ``_pair_sign`` times
    (-1)^{|s|+|q|}; the dual half ("dual-pairing-cocycle") is the same
    procedure on (gstar, g) with ``_pair_sign`` alone.  *convention*
    ("koszul" or "plain") selects ``_pair_sign`` for the rebuild and for
    both pairings; it should be the convention gstar was dualized with.
    """
    _require_dual_shape(g, gstar)
    violations = []
    for v in g.check(multiplicative=multiplicative).violations:
        violations.append(Violation("primal:" + v.axiom, v.indices, v.residual))
    for v in gstar.check(multiplicative=multiplicative).violations:
        violations.append(Violation("dual:" + v.axiom, v.indices, v.residual))
    for v in check_admissible(g).violations:
        violations.append(Violation("primal-" + v.axiom, v.indices, v.residual))
    for v in check_admissible(gstar).violations:
        violations.append(Violation("dual-" + v.axiom, v.indices, v.residual))
    violations.extend(_pairing_cocycle_violations(
        g, gstar, convention, True, "pairing-cocycle"))
    violations.extend(_pairing_cocycle_violations(
        gstar, g, convention, False, "dual-pairing-cocycle"))
    return CheckReport("dual-pair", violations)
