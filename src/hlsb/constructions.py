"""Derived objects: morphism checks, twists, duals, representations,
semidirect sums, matched pairs and invariant-pairing doubles.

All constructions are exact: given structure constants over a parameter
ring they produce structure constants over the same ring (or its dual
basis), and every hypothesis a construction needs is either verified on
the spot or surfaced through :class:`~hlsb.errors.HypothesisError`.

Outside input is validated and what the library derives is wrapped.  A
construction reads structures that their constructors have already
validated, so it builds its result from their sparse rows, planes and
columns through the private ``_wrap`` of each class, which checks
nothing again: ``dualize``, ``twist`` and ``transport_structure``
(through ``_bialgebra``), ``MatchedPair.double``, every dual action and
the pairing form of ``manin_supertriple``.  ``_dual_action`` is the one
negated graded transpose: ``dual_representation``, ``coadjoint_action``,
``dual_coadjoint_action`` and ``dual_matched_pair`` (which checks the
dual shape of its halves once) all build through it.  The form's
self-adjoint and invariance checks are one ``_adjoint_defect`` walk.
The public constructors (``Representation``, ``BilinearForm``,
``MatchedPair`` and those of :mod:`hlsb.structures`) still validate what
a caller passes.

Morphism, representation and admissibility checks run on the bracket
kernels of :mod:`hlsb.structures`, one ``_Kernel`` per check (of f, of
alpha over the action rows, of Id - alpha^2).  A morphism check and a
representation's intertwining replay a ``_morphism_list`` with
``_replayed``; the action and admissibility residuals and ``act`` walk
each nonzero column once, as ``[col]``, through ``_act_into``.  Each
check adds every instance into one flat term accumulator
(``hlsb.scalar._Accumulator``) keyed by (instance, cell) and reads the
nonzero instances back in sorted order, and a vector or matrix is filled
only for a reported violation or for ``act``.  ``_cobracket_morphism``
gives delta(f(x)) - (f (x) f) delta(x) for morphism checks; ``twist``
multiplies beta's columns straight into the delta planes.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatchError, HypothesisError, MorphismError, RingMismatchError
from .scalar import _Accumulator, _add_at
from .structures import (
    CheckReport,
    HomSuperAlgebra,
    HomSuperBialgebra,
    Violation,
    _act_into,
    _bracket_cells,
    _cobracket_cells,
    _cobracket_morphism,
    _group,
    _grouped,
    _images,
    _Kernel,
    _morphism_list,
    _odd_cells,
    _prefixed,
    _replayed,
    _violations,
    delta1,
)
from .superlinear import (
    EvenMap, SuperBasis, Tensor2, _basis_index, _columns, _filled, _frozen, _lift_cells,
    _map_cells, _mul_tensor, _vector_cells, koszul_sign)

# ---------------------------------------------------------------------------
# morphisms


def check_algebra_morphism(f, src, dst):
    """Is f a morphism of bracket structures (bracket- and twist-compatible)?"""
    if f.src != src.basis or f.dst != dst.basis:
        raise DimensionMismatchError("map bases do not match the structures")
    residuals = _replayed(dst.ring, _morphism_list(src._rows, _Kernel(dst._rows, f)), 2)
    violations = [Violation("bracket-morphism", ij, dst._vector(cells))
                  for ij, cells in residuals.items()]
    diff = _map_cells(f.compose(src.alpha))
    for idx, v in _map_cells(dst.alpha.compose(f)).items():
        _add_at(diff, idx, v, True)
    if diff:
        residual = _filled(diff, (dst.dim, src.dim), f.ring.zero())
        violations.append(Violation("twist-intertwine", (), residual))
    return CheckReport("algebra-morphism", violations)


def check_bialgebra_morphism(f, src, dst):
    """check_algebra_morphism, then f's cobracket-morphism residuals."""
    planes = src.coalgebra._planes
    violations = check_algebra_morphism(f, src.algebra, dst.algebra).violations + _violations(
        "cobracket-morphism", [(i,) for i in range(src.dim)],
        lambda i: _cobracket_morphism(dst.coalgebra, f._cols[i], f, planes[i]))
    return CheckReport("bialgebra-morphism", violations)


# ---------------------------------------------------------------------------
# twisting


def _bialgebra(ring, basis, bracket, cobracket, alpha):
    """A bialgebra over bracket and cobracket cells {(i, j, k): value} that
    are already lifted, in range and free of zeros, and an EvenMap alpha on
    *basis*: what a construction derives from a structure that its
    constructor has validated, so nothing is checked again."""
    shape = (basis.dim,) * 3
    return HomSuperBialgebra._wrap(
        HomSuperAlgebra._wrap(ring, basis, _group(bracket, shape, 2), alpha),
        _group(cobracket, shape, 1))


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
    bracket, cobracket = _Accumulator(B.ring), _Accumulator(B.ring)
    for (i, j, k), v in _bracket_cells(B.algebra).items():
        bracket.mul(v, beta._cols[k], prefix=(i, j))
    planes = B.coalgebra._planes
    for i, col in enumerate(beta._cols):  # delta(beta(e_i)) at (i, j, k)
        for (m,), c in col:
            cobracket.mul(c, planes[m], prefix=(i,))
    return _bialgebra(B.ring, B.basis, bracket.cells(), cobracket.cells(),
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
    acc = _Accumulator(ring)
    for a, b in zip(x, y):
        acc.mul(a, [((), b)])
    return acc.cells().get((), ring.zero())


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
    adj = {(i, i): ring.one() for i in range(n)}
    for c in coeffs[1:n]:
        prod = _Accumulator(ring)
        for (t, j), b in adj.items():
            prod.mul(b, f._cols[t], suffix=(j,))
        for i in range(n):
            prod.add((i, i), c)
        adj = prod.cells()
    scale = inv_det if n % 2 else -inv_det
    return EvenMap(ring, f.dst, f.src, {idx: scale * v for idx, v in adj.items()})


def transport_structure(bialgebra, f):
    """Push the whole structure through an invertible even map f, making f
    an isomorphism from the input onto the result."""
    B = bialgebra
    if f.src != B.basis:
        raise DimensionMismatchError("transport map must start at the structure basis")
    g = invert_even_map(f)
    basis = f.dst
    rows_of_g = g.transpose()._cols
    bracket, cobracket = _Accumulator(B.ring), _Accumulator(B.ring)
    for (a, b, k), v in _bracket_cells(B.algebra).items():
        _mul_tensor(bracket, v, [rows_of_g[a], rows_of_g[b], f._cols[k]])
    for (i, j, k), v in _cobracket_cells(B.coalgebra).items():
        _mul_tensor(cobracket, v, [rows_of_g[i], f._cols[j], f._cols[k]])
    alpha = f.compose(B.alpha).compose(g)
    return _bialgebra(B.ring, basis, bracket.cells(), cobracket.cells(), alpha)


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
    alpha = EvenMap._wrap(ring, basis, basis, B.alpha.transpose()._cols)
    return _bialgebra(ring, basis, bracket, cobracket, alpha)


# ---------------------------------------------------------------------------
# representations


class Representation:
    """An action of a bracket structure on a graded module.

    *matrices* gives the matrix of the action of each algebra basis vector
    on the module (column convention): a list of dense square grids, one
    per algebra basis vector, or a dict ``{(m, i, j): value}`` of the
    cells ``rho(e_m)[i][j]``.  The action is stored once, as the sparse
    columns ``_rows[m][j]`` of ``rho(e_m) e_j``, in the shape of bracket
    rows, so the adjoint action is the algebra's own rows.  ``matrices``
    is a read-only nested-tuple view.  ``module_map`` is the module's own
    structure map.
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
        n, d = algebra.dim, module_basis.dim
        if not isinstance(matrices, dict) and len(matrices) != n:
            raise DimensionMismatchError("one action matrix per algebra basis "
                                         "vector is required")
        cells = _lift_cells(self.ring, matrices, (n, d, d), "action matrices")
        self._rows = _group({(m, j, i): v for (m, i, j), v in cells.items()}, (n, d, d), 2)
        self._view = None

    @classmethod
    def _wrap(cls, algebra, module_basis, module_map, rows):
        """An action over a rows table that is already lifted and sparse."""
        rep = object.__new__(cls)
        rep.algebra, rep.ring, rep.module_basis = algebra, algebra.ring, module_basis
        rep.module_map, rep._rows, rep._view = module_map, rows, None
        return rep

    def _cells(self):
        """The nonzero cells as {(m, i, j): rho(e_m)[i][j]}."""
        return {(m, i, j): v for m, plane in enumerate(self._rows)
                for j, col in enumerate(plane) for (i,), v in col}

    @property
    def matrices(self):
        """The read-only dense view ``matrices[m][i][j]``, built on first use."""
        if self._view is None:
            d = self.module_basis.dim
            self._view = _frozen(self._cells(), (self.algebra.dim, d, d), self.ring.zero())
        return self._view

    def act(self, m, vec):
        """Action of the m-th algebra basis vector on a module vector,
        whose coefficients are lifted into the ring as in
        ``EvenMap.apply``."""
        rows = self._rows[_basis_index(m, self.algebra.dim)]
        acc = _act_into(_Accumulator(self.ring), rows,
                        [_vector_cells(vec, self.module_basis.dim, self.ring)])
        return _filled(acc.cells(), (self.module_basis.dim,), self.ring.zero())

    def grading_violations(self):
        pv = self.module_basis.parities
        return _odd_cells("action-grading", self._cells().items(),
                          (self.algebra.basis.parities, pv, pv))

    def check(self):
        A, rows, beta = self.algebra, self._rows, self.module_map._cols
        p, d = A.basis.parities, self.module_basis.dim
        # rho(alpha(e_a)) v_m, read by both residuals
        kernel = _Kernel(rows, A.alpha)
        # beta(rho(e_i) v_c) - rho(alpha(e_i)) beta(v_c) at cells (i, c, k)
        intertwine = _replayed(self.ring, _morphism_list(rows, kernel, right=beta), 1)
        # column c of the action residual at (i, j), at cells (i, j, k, c):
        # rho([e_i, e_j]) beta(e_c) - rho(alpha(e_i)) rho(e_j) v_c
        # + (-1)^{|e_i||e_j|} rho(alpha(e_j)) rho(e_i) v_c
        action = _Accumulator(self.ring)
        for i, plane in enumerate(A._rows):
            table = _images(rows, plane)  # rho([e_i, e_j]) v_b at [j][b]
            for j, row in enumerate(plane):
                if row:
                    for c, ys in enumerate(beta):
                        _act_into(action, table[j], [ys], False, (i, j), (c,))
        for j, plane in enumerate(rows):
            for c, col in enumerate(plane):
                if col:
                    for i in kernel.live:
                        _act_into(action, kernel.twisted[i], [col], True, (i, j), (c,))
                        _act_into(action, kernel.twisted[i], [col], p[i] & p[j], (j, i), (c,))

        def matrix(cells):
            return _filled(cells, (d, d), self.ring.zero())
        # the intertwine matrices hold rho(alpha(e_i)) beta - beta rho(e_i), at (k, c)
        found = ([Violation("action-intertwine", i,
                            matrix({(k, c): -v for (c, k), v in cells.items()}))
                  for i, cells in intertwine.items()]
                 + [Violation("action-bracket", ij, matrix(cells))
                    for ij, cells in _grouped(action.cells(), 2).items()])
        return CheckReport("representation", self.grading_violations() + found)


def adjoint_representation(algebra):
    """The structure acting on itself by its own bracket."""
    return Representation._wrap(algebra, algebra.basis, algebra.alpha, algebra._rows)


def _dual_action(algebra, rows, basis, module_map, on_input=False):
    """The negated graded transpose of the action *rows* of *algebra*, on
    *basis* with structure map *module_map*: the one dual action,
    rho*(e_m)[c][r] = -(-1)^{|e_m||e_q|} rho(e_m)[r][c], where q = r, or
    q = c if *on_input*, at the parities of *basis*."""
    pm, p = algebra.basis.parities, basis.parities
    cells = {}  # at (m, r, c): rho*(e_m)[c][r], in column r of rho*(e_m)
    for m, plane in enumerate(rows):
        for c, col in enumerate(plane):
            for (r,), v in col:
                cells[m, r, c] = -v if koszul_sign(pm[m], p[c if on_input else r]) == 1 else v
    n, d = algebra.dim, basis.dim
    return Representation._wrap(algebra, basis, module_map, _group(cells, (n, d, d), 2))


def dual_representation(rep):
    """The negated graded transpose action on the dual module."""
    basis = dual_basis(rep.module_basis)
    module_map = EvenMap._wrap(rep.ring, basis, basis, rep.module_map.transpose()._cols)
    return _dual_action(rep.algebra, rep._rows, basis, module_map)


def check_admissible(algebra):
    """Does [(Id - alpha^2) x, alpha(y)] vanish identically?

    This is the condition under which the dual of the adjoint action is
    again an action with respect to the transposed structure map.
    """
    A = algebra
    n = A.dim
    defect = {(i, i): A.ring.one() for i in range(n)}
    for idx, v in _map_cells(A.alpha.power(2)).items():
        _add_at(defect, idx, v, True)
    kernel = _Kernel(A._rows, EvenMap._wrap(A.ring, A.basis, A.basis, _columns(defect, n)))
    acc = _Accumulator(A.ring)
    for i in kernel.live:
        for j, col in enumerate(A.alpha._cols):
            _act_into(acc, kernel.twisted[i], [col], False, (i, j))
    return CheckReport("admissible", [Violation("admissible", ij, A._vector(cells))
                                      for ij, cells in _grouped(acc.cells(), 2).items()])


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
    inert = Representation(module, A.basis, A.alpha, {})
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
        n = g.dim
        basis = SuperBasis(g.basis.parities + h.basis.parities,
                           _merge_labels(g.basis.labels, h.basis.labels))
        bracket = _bracket_cells(g)
        for (i, j, k), v in _bracket_cells(h).items():
            bracket[n + i, n + j, n + k] = v
        # [x, y] = rho(x) y for x acting on y of the other half, and
        # [y, x] = -(-1)^{|x||y|} [x, y]
        for rep, acting, module, a0, b0 in ((self.left_action, g, h, 0, n),
                                            (self.right_action, h, g, n, 0)):
            for a, plane in enumerate(rep._rows):
                for b, col in enumerate(plane):
                    s = koszul_sign(acting.basis.parity(a), module.basis.parity(b))
                    for (q,), v in col:
                        bracket[a0 + a, b0 + b, b0 + q] = v
                        bracket[b0 + b, a0 + a, b0 + q] = -v if s == 1 else v
        alpha = EvenMap._wrap(ring, basis, basis, g.alpha._cols + tuple(
            tuple(((n + i,), v) for (i,), v in col) for col in h.alpha._cols))
        return HomSuperAlgebra._wrap(ring, basis, _group(bracket, (basis.dim,) * 3, 2), alpha)

    def check(self, multiplicative=False):
        return CheckReport("matched-pair", (
            _prefixed("left-action:", self.left_action.check().violations)
            + _prefixed("right-action:", self.right_action.check().violations)
            + _prefixed("double:", self.double().check(multiplicative=multiplicative).violations)))


def _require_dual_shape(g, gstar):
    if g.ring != gstar.ring:
        raise RingMismatchError("the two halves live over different rings")
    if g.basis.parities != gstar.basis.parities:
        raise HypothesisError("dual-space partner must have the same parities")
    if gstar.alpha._cols != g.alpha.transpose()._cols:
        raise HypothesisError("dual-space partner must carry the transposed "
                              "structure map")


def coadjoint_action(g, gstar):
    """g acting on the dual space by the negated graded transpose of its
    own adjoint action."""
    _require_dual_shape(g, gstar)
    return _dual_action(g, g._rows, gstar.basis, gstar.alpha)


def dual_coadjoint_action(g, gstar):
    """The dual space acting back on g, through the pairing that
    identifies g with the double dual."""
    _require_dual_shape(g, gstar)
    return _dual_action(gstar, gstar._rows, g.basis, g.alpha, True)


def dual_matched_pair(g, gstar):
    """The matched pair carried by a structure and its dual-space partner,
    with both halves acting by coadjoint-type actions."""
    _require_dual_shape(g, gstar)
    return MatchedPair(g, gstar, _dual_action(g, g._rows, gstar.basis, gstar.alpha),
                       _dual_action(gstar, gstar._rows, g.basis, g.alpha, True))


# ---------------------------------------------------------------------------
# bilinear forms and the invariant-pairing double


class BilinearForm:
    """An even bilinear form on a graded space with values
    ``S(e_i, e_j)``, given as a dense square grid or a dict ``{(i, j):
    value}`` and stored as its nonzero cells; ``matrix`` is a read-only
    nested-tuple view."""

    def __init__(self, ring, basis, matrix):
        self.ring = ring
        self.basis = basis
        self._cells = _lift_cells(ring, matrix, (basis.dim, basis.dim), "form matrix")
        self._view = None

    @classmethod
    def _wrap(cls, ring, basis, cells):
        """A form over a cell dict that is already lifted, in range and
        free of zeros; unlike the constructor it checks nothing."""
        S = object.__new__(cls)
        S.ring, S.basis, S._cells, S._view = ring, basis, cells, None
        return S

    @property
    def matrix(self):
        """The read-only dense view ``matrix[i][j]``, built on first use."""
        if self._view is None:
            self._view = _frozen(self._cells, (self.basis.dim,) * 2, self.ring.zero())
        return self._view

    def value(self, x, y):
        n = self.basis.dim
        xs, ys = dict(_vector_cells(x, n, self.ring)), dict(_vector_cells(y, n, self.ring))
        total = self.ring.zero()
        for (i, j), s in self._cells.items():
            if (i,) in xs and (j,) in ys:
                total = total + xs[i,] * s * ys[j,]
        return total

    def evenness_violations(self):
        p = self.basis.parities
        return _odd_cells("form-even", self._cells.items(), (p, p))

    def supersymmetry_violations(self):
        p, cells, zero = self.basis.parities, self._cells, self.ring.zero()

        def residual(i, j):
            other = cells.get((j, i), zero)
            return cells.get((i, j), zero) - (other if koszul_sign(p[i], p[j]) == 1 else -other)
        return _violations("form-supersymmetric",
                           sorted({(min(idx), max(idx)) for idx in cells}), residual)

    def _adjoint_defect(self, axiom, images):
        """S(L e_x, e_k) - S(e_k, L e_x) at x + (k,) and (k,) + x, for the
        sparse images (x, L e_x) of L = alpha or the bracket, reported if
        nonzero."""
        rows = [[] for _ in range(self.basis.dim)]  # ((j,), S_ij) in rows[i]
        cols = [[] for _ in range(self.basis.dim)]  # ((i,), S_ij) in cols[j]
        for (i, j), s in self._cells.items():
            rows[i].append(((j,), s))
            cols[j].append(((i,), s))
        diff = _Accumulator(self.ring)
        for x, image in images:
            for (m,), c in image:
                diff.mul(c, rows[m], prefix=x)
                diff.mul(c, cols[m], True, suffix=x)
        return [Violation(axiom, idx, v) for idx, v in sorted(diff.cells().items())]

    def self_adjoint_violations(self, alpha):
        """S(alpha(e_i), e_j) - S(e_i, alpha(e_j)), reported if nonzero."""
        return self._adjoint_defect("form-self-adjoint",
                                    (((i,), col) for i, col in enumerate(alpha._cols)))

    def invariance_violations(self, algebra):
        """S([e_i, e_j], e_k) - S(e_i, [e_j, e_k]), reported if nonzero."""
        return self._adjoint_defect("form-invariant", (
            ((i, j), row) for i, plane in enumerate(algebra._rows) for j, row in enumerate(plane)))

    def determinant(self):
        """det S.  A form with exactly one cell in each row and each column
        is the sign of that permutation times the product of its cells;
        any other form goes through ``_det``."""
        cols = [j for _, j in sorted(self._cells)]
        n = self.basis.dim
        if len(cols) != n or len(set(cols)) != n or len({i for i, _ in self._cells}) != n:
            return _det(self.ring, self.matrix)
        odd = sum(a > b for a, b in combinations(cols, 2)) % 2
        det = -self.ring.one() if odd else self.ring.one()
        for i, j in enumerate(cols):
            det = det * self._cells[i, j]
        return det

    def is_nondegenerate(self):
        return not self.determinant().is_zero()


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
    n, one = g.dim, g.ring.one()
    cells = {}
    for i in range(n):
        cells[i, n + i] = -one if g.basis.parity(i) else one
        cells[n + i, i] = one
    form = BilinearForm._wrap(g.ring, double.basis, cells)
    violations = (_prefixed("double:", double.check(multiplicative=multiplicative).violations)
                  + form.evenness_violations() + form.supersymmetry_violations()
                  + form.self_adjoint_violations(double.alpha)
                  + form.invariance_violations(double))
    # cells within one half, (i, j) before (n + i, n + j)
    violations += [Violation("half-isotropic", (a, b), form._cells[a, b])
                   for a, b in sorted(form._cells, key=lambda ab: (ab[0] % n, ab[1] % n, ab))
                   if a // n == b // n]
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
    n = g.dim
    p = g.basis.parities
    planes = _group(_dual_cobracket_cells(g, gstar, convention), (n,) * 3, 1)
    defect = delta1(g, [Tensor2._wrap(g.ring, g.basis, dict(plane)) for plane in planes])
    violations = []
    for i in range(n):
        for j in range(n):
            # wedge[s, q] = <t, e^s (x) e^q> - (-1)^{|s||q|} <t, e^q (x) e^s>,
            # and totals[q, pp] = sum_s alpha[pp][s] wedge[s, q]
            totals = _Accumulator(g.ring)
            for (s, q), v in defect[i][j]._cells.items():
                shift = p[s] + p[q] if shifted else 0
                flip = _pair_sign(convention, p[s], p[q], shift) == -1
                totals.mul(v, g.alpha._cols[s], flip, (q,))
                totals.mul(v, g.alpha._cols[q], flip != (koszul_sign(p[s], p[q]) == 1), (s,))
            violations.extend(Violation(axiom, (i, j, pp, q), v)
                              for (q, pp), v in sorted(totals.cells().items()))
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
    return CheckReport("dual-pair", (
        _prefixed("primal:", g.check(multiplicative=multiplicative).violations)
        + _prefixed("dual:", gstar.check(multiplicative=multiplicative).violations)
        + _prefixed("primal-", check_admissible(g).violations)
        + _prefixed("dual-", check_admissible(gstar).violations)
        + _pairing_cocycle_violations(g, gstar, convention, True, "pairing-cocycle")
        + _pairing_cocycle_violations(gstar, g, convention, False, "dual-pairing-cocycle")))
