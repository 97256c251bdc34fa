"""Brackets, cobrackets and the axioms that tie them together.

A *twisted bracket structure* here is a Z2-graded vector space with a
bilinear bracket, an even structure map ``alpha``, and optionally a
cobracket.  Structure constants follow the column convention of
:mod:`hlsb.superlinear`:

    [e_i, e_j]   = sum_k bracket[i][j][k] e_k
    delta(e_i)   = sum_{j,k} cobracket[i][j][k] e_j (x) e_k
    alpha(e_j)   = sum_i  A[i][j] e_i

Constructors take the constants as a dense n^3 grid or as a dict
``{(i, j, k): value}`` of cells.  Each structure stores them once and
sparsely: the bracket as rows ``_rows[i][j]`` of nonzero ``((k,), value)``
pairs, delta(e_i) as planes ``_planes[i]`` of nonzero ``((j, k), value)``
pairs, and alpha as the sparse columns of its :class:`EvenMap`.  Every
residual loops over these lists only (Jacobi skips each hop whose inner
bracket is zero, and ``check`` each skew pair, Jacobi triple and
multiplicativity pair that no nonzero bracket enters), so its cost
follows the nonzero constants.  The skew, Jacobi and multiplicativity
residuals add into sparse ``{(k,): value}`` cell dicts, and only
``skew_residual``, ``jacobi_residual``, ``mult_residual`` and a reported
violation fill a dense coefficient vector from them.  The ``bracket``,
``cobracket`` and ``alpha.matrix`` attributes are read-only nested-tuple
views, built on first use.

Every bracket of an image runs on one kernel set.  ``_images(rows,
cols)`` is the lazy table T[a][m] = [f(e_a), e_m] for bracket (or action)
rows and a map's columns, built on first read for one check and never
kept on a structure; ``_bracket_into`` adds [f(e_a), y] = sum_b y_b
T[a][b] into a cell dict; ``_bracket_morphism`` adds f([e_i, e_j]) -
[f(e_i), f(e_j)] from T, for morphism checks, alpha's multiplicativity
and a representation's intertwining columns.  Jacobi walks each hop
[alpha(e_a), [e_b, e_c]] inline, adding y_m T[a][m] for each term y_m e_m
of [e_b, e_c], and ``ad_action`` reads [x, e_u] from the table of x.
``_compat_residual`` adds delta([e_i, e_j]) and both ad terms into one
cell dict, each ad term an alpha-table row times a cell of
(id (x) alpha) delta(e_k) or (alpha (x) id) delta(e_k)
(``_compat_tables``).  Every product in these kernels, a row times a
coefficient or an alpha-table row times a cell, is added by the fused
kernel ``hlsb.scalar._add_product``, which takes a ``negate`` flag in
place of a negated factor.  ``HomSuperBialgebra.check`` shares alpha's table
between its algebra check and its compatibility pairs, which it
evaluates once per unordered pair {i, j} where the bracket is skew
(deriving (j, i) by the Koszul sign), directly where it is not, and not
at all where [e_i, e_j], delta(e_i) and delta(e_j) are all zero, and
keeps only the nonzero residuals; each pair of ``delta1`` builds its
own.  ``_cobracket_morphism`` gives delta(f(e_i)) - (f (x) f)
delta(e_i): comultiplicativity, the cobracket half of a morphism check,
``delta_vector`` and the twisted cobrackets of :mod:`hlsb.constructions`.

Nothing is validated eagerly beyond shapes and ring membership: the point
of the package is to *report* which axioms hold, so malformed structures
are representable and ``check`` methods return a :class:`CheckReport`
listing every violated axiom with the exact symbolic residual.  The
bracket and cobracket grading checks walk their sorted rows and planes
for odd cells, and compatibility reports the residuals
``_compat_residuals`` kept; every other check builds that list through
four helpers: ``_violations`` calls a residual kernel directly at each
index tuple, with any extra arguments such as a table, and keeps the
nonzero ones (a residual is a tensor, a scalar or a sparse cell dict,
and each of those is falsy exactly when it is zero), ``_densified``
replaces the cell dicts of the kept ones by their dense vectors or
matrices, ``_odd_cells`` reports the cells whose indices have odd total
parity, and ``_prefixed`` relabels the violations of a sub-report.
"""

from __future__ import annotations

from itertools import product
from operator import getitem, itemgetter

from .errors import DimensionMismatchError, HypothesisError, ParityError, RingMismatchError
from .scalar import _add_at, _add_product, _same_ring
from .superlinear import (
    EvenMap, Tensor2, Tensor3, _add_products, _basis_index, _check_same_basis, _filled, _frozen,
    _grid, _lift_cells, _map_cells, _TensorBase, _vector_cells, cyclic_sum, koszul_sign, tau)


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


def _violations(axiom, indices, residual, *extra):
    """One Violation per index tuple idx of *indices* at which
    ``residual(*idx, *extra)``, a tensor, a scalar or a sparse cell dict,
    is nonzero; each of those is falsy exactly when it is zero."""
    return [Violation(axiom, idx, r) for idx in indices if (r := residual(*idx, *extra))]


def _densified(violations, dense):
    """The violations, each residual, found as sparse cells, replaced by
    its dense form ``dense(cells)``."""
    for v in violations:
        v.residual = dense(v.residual)
    return violations


def _odd_cells(axiom, cells, slot_parities):
    """One Violation per cell of *cells*, (index tuple, value) pairs, whose
    indices have odd total parity, the parity of slot s read from
    ``slot_parities[s]``; in sorted order."""
    odd = [(idx, v) for idx, v in cells if sum(map(getitem, slot_parities, idx)) % 2]
    return [Violation(axiom, idx, v) for idx, v in sorted(odd, key=itemgetter(0))]


def _prefixed(prefix, violations):
    """The violations with *prefix* put before each axiom name."""
    return [Violation(prefix + v.axiom, v.indices, v.residual) for v in violations]


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


def _constants(ring, basis, constants, name, split):
    """Structure constants, given as a dense n^3 grid or a dict
    ``{(i, j, k): value}``, grouped by their first *split* indices."""
    n = basis.dim
    return _group(_lift_cells(ring, constants, (n, n, n), name), (n, n, n), split)


def _group(cells, shape, split):
    """Nonzero cells of the given shape grouped by their first *split*
    indices: a nested list (depth *split*) of tuples of ``(rest, value)``
    pairs in row-major order, the empty tuple where there are none."""
    groups = _grid(shape[:split], ())
    for idx, v in sorted(cells.items()):
        *path, last = idx[:split]
        row = groups
        for i in path:
            row = row[i]
        row[last] = row[last] + ((idx[split:], v),)
    return groups


def _lift_alpha(ring, basis, alpha):
    if isinstance(alpha, EvenMap):
        if alpha.src != basis or alpha.dst != basis:
            raise DimensionMismatchError("alpha is not an endomorphism of the basis")
        if not _same_ring(alpha.ring, ring):
            raise RingMismatchError("alpha over %r used where %r expected" % (alpha.ring, ring))
        return alpha
    return EvenMap(ring, basis, basis, alpha)


def zero_bracket(ring, basis):
    n = basis.dim
    return [[[ring.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]


def zero_cobracket(ring, basis):
    return zero_bracket(ring, basis)


def _add_row(out, c, row, negate=False):
    """out += c * row, or -= if *negate*, for sparse (index tuple, value)
    pairs *row*, such as a bracket row or a tensor's cells, into the
    sparse cell dict *out*."""
    for k, v in row:
        _add_product(out, k, c, v, negate)


def _bracket_into(out, table, ys, negate=False):
    """out += sum_b y_b table[b], or -= if *negate*, for a sparse vector
    *ys* of ((b,), y_b) pairs, into the sparse cell dict *out*.  With
    table = ``_images(rows, cols)[a]`` it adds [f(e_a), y]; with table =
    rows[a], one plane of bracket (or action) rows, [e_a, y] (or
    rho(e_a) y).  Returns out."""
    for (b,), y in ys:
        row = table[b]
        if row:
            _add_row(out, y, row, negate)
    return out


class _Lazy(dict):
    """A table whose missing entry is built by ``build(key)`` on first
    read and then kept."""

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


def _images(rows, cols):
    """The bracket-of-images table T[a][m] = [f(e_a), e_m] as a lazy table,
    for bracket (or action) rows *rows* and the sparse columns *cols* of a
    map f, each row a tuple of nonzero ((k,), value) pairs like a bracket
    row.  T[a] is built on first read, and is the rows of e_i itself where
    f(e_a) = e_i; otherwise each of its rows is built on first read.  One
    table serves one check: it is never kept on a structure."""
    def table(a):
        col = cols[a]
        if len(col) == 1 and col[0][1].is_one():
            return rows[col[0][0][0]]

        def row(m):
            out = {}
            for (i,), x in col:
                _add_row(out, x, rows[i][m])
            return tuple(out.items())
        return _Lazy(row)
    return _Lazy(table)


def _morphism_pairs(src, dst, f):
    """The ordered pairs (i, j) whose bracket-morphism residual for f from
    src to dst can be nonzero: [e_i, e_j] or [f(e_i), f(e_j)] is."""
    rows, cols = dst._rows, f._cols
    return [(i, j) for i, plane in enumerate(src._rows) for j, row in enumerate(plane)
            if row or any(rows[a][b] for (a,), _ in cols[i] for (b,), _ in cols[j])]


def _bracket_morphism(out, image, src_rows, images, right, i, j, negate):
    """out += image([e_i, e_j]) - [left(e_i), right(e_j)], or -= if
    *negate*, into the sparse cell dict *out*, for bracket (or action) rows
    *src_rows*, sparse map columns *image* and *right*, and the table
    *images* = ``_images(dst_rows, left)``.  With image = left = right = f
    it is f's bracket-morphism residual at (i, j), with f = alpha the
    multiplicativity residual; with action rows, left = alpha and image =
    right = the module map it is an intertwining column.  Returns out."""
    for (k,), v in src_rows[i][j]:
        for m, a in image[k]:
            _add_product(out, m, a, v, negate)
    return _bracket_into(out, images[i], right[j], not negate)


def _cobracket_morphism(dst, x, f, plane):
    """delta_dst(x) - (f (x) f)(plane) as a Tensor2 on dst's basis, for a
    sparse vector x of ((m,), value) pairs and a delta plane of ((j, k),
    value) pairs.  With x = f(e_i), f's sparse column, and plane =
    delta_src(e_i) it is f's cobracket-morphism residual at e_i; with an
    empty plane it is delta_dst(x) alone."""
    cells = {}
    for (m,), c in x:
        _add_products(cells, c, [dst._planes[m]])
    for (a, b), v in plane:
        _add_products(cells, -v, [f._cols[a], f._cols[b]])
    return Tensor2._wrap(dst.ring, dst.basis, cells)


def _bracket_cells(algebra):
    """The nonzero bracket constants as {(i, j, k): value}."""
    return {(i, j, k): v for i, plane in enumerate(algebra._rows)
            for j, row in enumerate(plane) for (k,), v in row}


def _cobracket_cells(coalgebra):
    """The nonzero cobracket constants as {(i, j, k): value}."""
    return {(i,) + jk: v for i, plane in enumerate(coalgebra._planes) for jk, v in plane}


def _delta_cells(deltas):
    """The cobracket constants of the images delta(e_i) = deltas[i]."""
    return {(i,) + jk: v for i, d in enumerate(deltas) for jk, v in d._cells.items()}


class HomSuperAlgebra:
    """A Z2-graded bracket together with its twisting map."""

    def __init__(self, ring, basis, bracket, alpha):
        self.ring = ring
        self.basis = basis
        self._rows = _constants(ring, basis, bracket, "bracket", 2)
        self._view = None
        self.alpha = _lift_alpha(ring, basis, alpha)

    @property
    def dim(self):
        return self.basis.dim

    @property
    def bracket(self):
        """The read-only dense view ``bracket[i][j][k]``, built on first use."""
        if self._view is None:
            self._view = _frozen(_bracket_cells(self), (self.dim,) * 3, self.ring.zero())
        return self._view

    def bracket_of(self, i, j):
        """[e_i, e_j] as a coefficient vector."""
        n = self.dim
        return self._vector(dict(self._rows[_basis_index(i, n)][_basis_index(j, n)]))

    def _vector(self, cells):
        """The coefficient vector holding sparse ``{(k,): value}`` cells."""
        return _filled(cells, (self.dim,), self.ring.zero())

    # -- residuals -------------------------------------------------------

    def grading_violations(self):
        p = self.basis.parities
        return [Violation("bracket-grading", (i, j, k), v)
                for i, plane in enumerate(self._rows) for j, row in enumerate(plane)
                for (k,), v in row if (p[i] + p[j] + p[k]) % 2]

    def _indices(self, *idx):
        """idx, each of which must index the basis (``_basis_index``)."""
        return [_basis_index(i, self.dim) for i in idx]

    def skew_residual(self, i, j):
        """[e_i,e_j] + (-1)^{|e_i||e_j|} [e_j,e_i]."""
        return self._vector(self._skew_cells(*self._indices(i, j)))

    def jacobi_residual(self, i, j, k):
        """The graded cyclic sum of [alpha(x), [y, z]] over (e_i,e_j,e_k)."""
        return self._vector(self._jacobi_cells(*self._indices(i, j, k),
                                               _images(self._rows, self.alpha._cols)))

    def mult_residual(self, i, j):
        """alpha([e_i,e_j]) - [alpha(e_i), alpha(e_j)]."""
        return self._vector(self._mult_cells(*self._indices(i, j),
                                             _images(self._rows, self.alpha._cols)))

    def _skew_cells(self, i, j):
        """skew_residual(i, j) as sparse ``{(k,): value}`` cells."""
        out = dict(self._rows[i][j])
        s = koszul_sign(self.basis.parity(i), self.basis.parity(j))
        for k, v in self._rows[j][i]:
            _add_at(out, k, v if s == 1 else -v)
        return out

    def _jacobi_cells(self, i, j, k, twisted):
        """jacobi_residual(i, j, k) as sparse ``{(k,): value}`` cells, read
        from the twisted-bracket table *twisted* = ``_images(rows, alpha)``:
        a hop [alpha(e_a), [e_b, e_c]] is the sum over [e_b, e_c] =
        sum y_m e_m of y_m T[a][m], one fused product per term of each row."""
        p, rows = self.basis.parities, self._rows
        out = {}
        for a, b, c, odd in ((i, j, k, p[i] * p[k]), (k, i, j, p[k] * p[j]),
                             (j, k, i, p[j] * p[i])):
            inner = rows[b][c]
            if inner:
                table = twisted[a]
                for (m,), y in inner:
                    for idx, v in table[m]:
                        _add_product(out, idx, y, v, odd)
        return out

    def _mult_cells(self, i, j, twisted):
        """mult_residual(i, j) as sparse ``{(k,): value}`` cells: alpha's
        bracket-morphism residual, read from *twisted* as in
        ``_jacobi_cells``."""
        cols = self.alpha._cols
        return _bracket_morphism({}, cols, self._rows, twisted, cols, i, j, False)

    # -- checks ----------------------------------------------------------

    def check(self, multiplicative=False):
        return CheckReport("hom-super-algebra", self._found(
            multiplicative, _images(self._rows, self.alpha._cols)))

    def _found(self, multiplicative, twisted):
        """check's violations, reading the twisted-bracket table *twisted*."""
        n = self.dim
        rows = self._rows
        pairs = [(i, j) for i in range(n) for j in range(i, n) if rows[i][j] or rows[j][i]]
        # each hop of the cyclic sum brackets one of these rows
        triples = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)
                   if rows[j][k] or rows[i][j] or rows[k][i]]
        found = (_violations("skew", pairs, self._skew_cells)
                 + _violations("jacobi", triples, self._jacobi_cells, twisted))
        if multiplicative:
            found += _violations("multiplicative", _morphism_pairs(self, self, self.alpha),
                                 self._mult_cells, twisted)
        return self.grading_violations() + _densified(found, self._vector)

    def is_multiplicative(self):
        twisted = _images(self._rows, self.alpha._cols)
        return not any(self._mult_cells(i, j, twisted)
                       for i, j in _morphism_pairs(self, self, self.alpha))


class HomSuperCoalgebra:
    """A Z2-graded cobracket together with its twisting map."""

    def __init__(self, ring, basis, cobracket, alpha):
        self.ring = ring
        self.basis = basis
        self._planes = _constants(ring, basis, cobracket, "cobracket", 1)
        self._view = None
        self.alpha = _lift_alpha(ring, basis, alpha)

    @property
    def dim(self):
        return self.basis.dim

    @property
    def cobracket(self):
        """The read-only dense view ``cobracket[i][j][k]``, built on first use."""
        if self._view is None:
            self._view = _frozen(_cobracket_cells(self), (self.dim,) * 3, self.ring.zero())
        return self._view

    def delta(self, i):
        """delta(e_i) as a Tensor2."""
        plane = self._planes[_basis_index(i, self.dim)]
        return Tensor2._wrap(self.ring, self.basis, dict(plane))

    def grading_violations(self):
        p = self.basis.parities
        return [Violation("cobracket-grading", (i, j, k), v)
                for i, plane in enumerate(self._planes) for (j, k), v in plane
                if (p[i] + p[j] + p[k]) % 2]

    def coskew_residual(self, i):
        """(1 + tau) delta(e_i)."""
        d = self.delta(i)
        return d + tau(d)

    def delta_vector(self, x):
        """delta of a coefficient vector (linear extension), as a Tensor2."""
        return _cobracket_morphism(self, _vector_cells(x, self.dim), None, ())

    def cojacobi_residual(self, i):
        """The graded cyclic sum of (alpha (x) delta) delta at e_i."""
        plane = self._planes[_basis_index(i, self.dim)]
        return cyclic_sum(_alpha_beside_delta(self, plane, False))

    def comult_residual(self, i):
        """delta(alpha(e_i)) - (alpha (x) alpha) delta(e_i)."""
        i = _basis_index(i, self.dim)
        return _cobracket_morphism(self, self.alpha._cols[i], self.alpha, self._planes[i])

    def check(self, comultiplicative=False):
        each = [(i,) for i in range(self.dim)]
        violations = (self.grading_violations()
                      + _violations("coskew", each, self.coskew_residual)
                      + _violations("cojacobi", each, self.cojacobi_residual))
        if comultiplicative:
            violations += _violations("comultiplicative", each, self.comult_residual)
        return CheckReport("hom-super-coalgebra", violations)

    def is_comultiplicative(self):
        return not any(self.comult_residual(i) for i in range(self.dim))


def _alpha_beside_delta(coalgebra, pairs, delta_first):
    """alpha on one factor and delta on the other of the tensor with the
    ((a, b), value) pairs *pairs*, such as a Tensor2's cells or a delta
    plane, as a Tensor3 with the alpha image in the first slot, or in the
    last if *delta_first*.  *coalgebra* may also be a bialgebra."""
    C = getattr(coalgebra, "coalgebra", coalgebra)
    cols, planes = C.alpha._cols, C._planes
    cells = {}
    for (a, b), va in pairs:
        if delta_first:
            _add_products(cells, va, [planes[a], cols[b]])
        else:
            _add_products(cells, va, [cols[a], planes[b]])
    return Tensor3._wrap(C.ring, C.basis, cells)


def alpha_otimes_delta(coalgebra, r):
    """(alpha (x) delta)(r) as a Tensor3."""
    return _alpha_beside_delta(coalgebra, r._cells.items(), False)


def delta_otimes_alpha(coalgebra, r):
    """(delta (x) alpha)(r) as a Tensor3."""
    return _alpha_beside_delta(coalgebra, r._cells.items(), True)


def ad_action(algebra, x, t):
    """The twisted adjoint action of a homogeneous element on a tensor.

    *x* is a pair ``(coeffs, parity)``, whose coefficients must all lie on
    basis vectors of that parity.  On each summand the bracket hits one
    slot while ``alpha`` hits all the others, with the Koszul sign for
    moving x past the slots it skips:

        x . (y1 (x) ... (x) yn)
          = sum_i (+-) alpha(y1) (x) ... (x) [x, y_i] (x) ... (x) alpha(yn)
    """
    if not isinstance(t, _TensorBase):
        raise TypeError("ad_action expects a Tensor2 or Tensor3")
    coeffs, parity = x
    xs = _vector_cells(coeffs, algebra.dim)
    p = algebra.basis.parities
    if parity not in (0, 1) or any(p[m] != parity for (m,), _ in xs):
        raise ParityError("x is not homogeneous of parity %r" % (parity,))
    out_parity = None if t.parity is None else (t.parity + parity) % 2
    cells, cols = {}, algebra.alpha._cols
    bracket = _images(algebra._rows, [xs])[0]  # bracket[u] = [x, e_u]
    for idx, v in t._cells.items():
        skipped = 0
        for slot, i in enumerate(idx):
            row = bracket[i]
            if row:
                factors = [cols[j] for j in idx]
                factors[slot] = row
                _add_products(cells, -v if parity * skipped % 2 else v, factors)
            skipped += p[i]
    return t._wrap(algebra.ring, algebra.basis, cells, out_parity)


def ad_basis(algebra, m, t):
    """ad of the m-th basis element on a tensor."""
    coeffs = [algebra.ring.zero()] * algebra.dim
    coeffs[_basis_index(m, algebra.dim)] = algebra.ring.one()
    return ad_action(algebra, (coeffs, algebra.basis.parity(m)), t)


def _compat_tables(algebra, deltas, twisted):
    """The tables compatibility reads, each a lazy table built on first
    read: the twisted-bracket table *twisted* = ``_images(rows, alpha)``
    and, per k, the cells of (id (x) alpha) delta(e_k) and of
    (alpha (x) id) delta(e_k)."""
    alpha = algebra.alpha
    return (twisted,
            _Lazy(lambda k: deltas[k].apply(alpha, 1)._cells),
            _Lazy(lambda k: deltas[k].apply(alpha, 0)._cells))


def _compat_residual(algebra, deltas, i, j, tables):
    """delta([e_i,e_j]) - ad_{alpha(e_i)} delta(e_j)
    + (-1)^{|e_i||e_j|} ad_{alpha(e_j)} delta(e_i), added into one cell dict.

    ad_{alpha(e_x)} sends e_u (x) e_v to T[x][u] (x) alpha(e_v)
    + (-1)^{|e_x||e_u|} alpha(e_u) (x) T[x][v], so each ad term reads T
    against (id (x) alpha) delta and (alpha (x) id) delta, whose cells keep
    the parity of e_u as alpha is even.  *tables* are ``_compat_tables``,
    of which only what this pair reads is built."""
    twisted, id_alpha, alpha_id = tables
    p = algebra.basis.parities
    out = {}
    for (k,), c in algebra._rows[i][j]:
        _add_row(out, c, deltas[k]._cells.items())
    for x, t, negate in ((i, j, True), (j, i, p[i] * p[j] == 1)):
        if not deltas[t]:
            continue
        twisted_x = twisted[x]
        for (u, w), d in id_alpha[t].items():
            row = twisted_x[u]
            if row:
                for (k,), y in row:
                    _add_product(out, (k, w), d, y, negate)
        for (w, v), d in alpha_id[t].items():
            row = twisted_x[v]
            if row:
                flip = negate != (p[x] * p[w] == 1)
                for (k,), y in row:
                    _add_product(out, (w, k), d, y, flip)
    return Tensor2._wrap(algebra.ring, algebra.basis, out)


def _compat_residuals(algebra, deltas, nonskew, tables):
    """The nonzero compatibility residuals, as a dict keyed by (i, j) in
    row-major order, read from the ``_compat_tables`` *tables*.  *nonskew*
    holds the pairs (i, j), i <= j, at which the bracket is not skew.
    Where it is skew, [e_j, e_i] = -s [e_i, e_j] with s =
    (-1)^{|e_i||e_j|}; delta is linear and the two ad terms trade places,
    so compat(j, i) = -s compat(i, j) exactly, and an even compat(i, i) is
    zero.  So is compat(i, j) when [e_i, e_j], delta(e_i) and delta(e_j)
    are all zero.  Every other pair, odd diagonal ones included, is
    evaluated by ``_compat_residual``."""
    p, rows = algebra.basis.parities, algebra._rows
    out = {}
    for i, j in product(range(algebra.dim), repeat=2):
        if i > j and (j, i) not in nonskew:
            if (j, i) in out:
                out[i, j] = out[j, i].scale(-koszul_sign(p[i], p[j]))
        elif ((i != j or p[i] or (i, i) in nonskew)
              and (rows[i][j] or deltas[i] or deltas[j])
              and (r := _compat_residual(algebra, deltas, i, j, tables))):
            out[i, j] = r
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
        A = self.algebra
        i, j = A._indices(i, j)
        deltas = [self.delta(k) for k in range(self.dim)]
        tables = _compat_tables(A, deltas, _images(A._rows, A.alpha._cols))
        return _compat_residual(A, deltas, i, j, tables)

    def check(self, multiplicative=False):
        A = self.algebra
        deltas = [self.delta(k) for k in range(self.dim)]
        twisted = _images(A._rows, A.alpha._cols)
        violations = A._found(multiplicative, twisted)
        nonskew = {v.indices for v in violations if v.axiom == "skew"}
        compat = _compat_residuals(A, deltas, nonskew, _compat_tables(A, deltas, twisted))
        violations += (self.coalgebra.check(comultiplicative=multiplicative).violations
                       + [Violation("compatibility", ij, r) for ij, r in compat.items()])
        return CheckReport("hom-super-bialgebra", violations)

    def substitute(self, values, ring):
        """This bialgebra over *ring* on the same basis: each value lifted
        into *ring* once, every bracket, cobracket and alpha cell mapped by
        ``Scalar.substitute(values, ring)``, and the cells that become zero
        dropped.  The cell map refuses a name outside this ring."""
        values = {name: ring.lift(v) for name, v in values.items()}

        def sub(cells):
            return {idx: s.substitute(values, ring) for idx, s in cells.items()}
        return HomSuperBialgebra(
            ring, self.basis, sub(_bracket_cells(self.algebra)),
            sub(_cobracket_cells(self.coalgebra)), sub(_map_cells(self.alpha)))


def delta0(algebra, r):
    """Send an alpha-fixed tensor r to the cobracket candidate
    ``e_i -> ad_{e_i}(r)``, returned as a list of Tensor2 images."""
    if not isinstance(r, Tensor2):
        raise TypeError("delta0 expects a Tensor2")
    if r.apply_all(algebra.alpha) != r:
        raise HypothesisError("r is not fixed by alpha (x) alpha")
    return [ad_basis(algebra, i, r) for i in range(algebra.dim)]


def _require_deltas(algebra, deltas):
    """Refuse cobracket images *deltas* that are not one Tensor2 on the
    algebra's basis per basis vector."""
    if len(deltas) != algebra.dim:
        raise DimensionMismatchError("%d cobracket images for dimension %d"
                                     % (len(deltas), algebra.dim))
    for d in deltas:
        if not isinstance(d, Tensor2):
            raise TypeError("a cobracket image must be a Tensor2, not %s" % type(d).__name__)
        _check_same_basis(d.basis, algebra.basis)


def delta1(algebra, deltas):
    """The compatibility defect of a cobracket candidate, as a grid of
    Tensor2 residuals indexed by ordered basis pairs.  Each pair builds
    its own tables and shares nothing with the others."""
    _require_deltas(algebra, deltas)
    n, rows, cols = algebra.dim, algebra._rows, algebra.alpha._cols
    return [[_compat_residual(algebra, deltas, i, j,
                              _compat_tables(algebra, deltas, _images(rows, cols)))
             for j in range(n)] for i in range(n)]


def bialgebra_from_deltas(algebra, deltas):
    """Package an algebra and per-basis cobracket images as a bialgebra,
    which holds *algebra* itself: only the cobracket is built.  *deltas*
    has one image per basis vector, or is empty for the zero cobracket."""
    if deltas:
        _require_deltas(algebra, deltas)
    B = object.__new__(HomSuperBialgebra)
    B.ring, B.basis, B.alpha, B.algebra = algebra.ring, algebra.basis, algebra.alpha, algebra
    B.coalgebra = HomSuperCoalgebra(algebra.ring, algebra.basis, _delta_cells(deltas),
                                    algebra.alpha)
    return B
