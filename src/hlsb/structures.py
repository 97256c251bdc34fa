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
pairs, and alpha as the sparse columns of its :class:`EvenMap`.  The
constructors validate outside input; a structure the library derives
from one it already holds is wrapped (``_wrap``) over rows or planes in
the form ``_group`` gives, and nothing is checked again.  Every
residual loops over these lists only (``check`` skips each skew pair
that no nonzero bracket enters, and builds the product lists of Jacobi
and multiplicativity from their nonzero hops and from their nonzero
bracket rows and images, not from their index tuples; the coalgebra
check evaluates coskew and co-Jacobi only where delta(e_i) is nonzero),
so its cost follows the nonzero constants.
The skew, Jacobi and multiplicativity residuals come out as sparse
``{(k,): value}`` cell dicts, and only ``skew_residual``,
``jacobi_residual``, ``mult_residual`` and a reported violation fill a
dense coefficient vector from them.  The ``bracket``, ``cobracket`` and
``alpha.matrix`` attributes are read-only nested-tuple views, built on
first use.

Every bracket of an image runs on one kernel set.  ``_images(rows,
cols)`` is the lazy table T[a][m] = [f(e_a), e_m] for bracket (or action)
rows and a map's columns, each T[a] built on first read.  A ``_Kernel``
holds T for rows under a map, the ``live`` a for which T[a] can be
nonzero, and, each built on first read, the ``acting`` lists of the
adjoint walk and two product lists.  A product list holds
every product a residual adds, as entries (x, row, negate, instance),
and ``_replayed`` adds them into one ``hlsb.scalar._Accumulator`` keyed
by (instance, cell) and reads the nonzero instances back in sorted order
(``_grouped``).  Two builders make the lists: ``_jacobi_list`` walks the
nonzero hops [alpha(e_a), [e_b, e_c]] through T into the cyclic sums of
the triples they enter (never the n^3 / 6 triples), looking each hop up
in an index of the live a by the e_m it reaches, built for that one
list (of only e_i, e_j, e_k for ``jacobi_residual(i, j, k)``), and
``_morphism_list`` gives every bracket-morphism residual g([e_i, e_j]) -
[f(e_i), g(e_j)]: multiplicativity and ``mult_residual`` (f = g =
alpha), a morphism check (f = g) and a representation's intertwining
(action rows, f = alpha, g the module map).  Each algebra keeps one
kernel for its alpha (``HomSuperAlgebra._tables``), built again once
alpha is rebound, so every check replays the kernel's ``jacobi`` and
``morphism`` lists and every ``delta1`` pair and adjoint walk reads the
same tables; ``jacobi_residual`` and ``mult_residual`` replay a list of
their one instance.  Every other twisted action is one walk,
``_act_into``: acc += y . t, y acting on e_u by a sparse row
``table[u]``, one slot of t at a time with the Koszul sign for moving y
past the slots before it and alpha on the others, applied once by
``_beside(t, alpha)`` (which the partial brackets of
:mod:`hlsb.yangbaxter` read too).  ``_ad_images`` walks the rows of each
e_m over ``_beside(t)``, less the cells no bracket row acts on
(``acting``); ``_compat_residual`` adds delta([e_i, e_j]) and both ad
terms, walks of T[x] over ``_beside(delta(e_k))`` (built lazily per k by
its caller), into one accumulator; a sparse vector walks as ``[col]``.
Products take a ``negate`` flag in place of a negated factor, so a
residual that cancels builds no scalar at all.
``HomSuperBialgebra.check`` evaluates its compatibility pairs once per
unordered pair {i, j} where the bracket is skew (deriving (j, i) by the
Koszul sign), directly where it is not, and not at all where [e_i, e_j],
delta(e_i) and delta(e_j) are all zero, and keeps only the nonzero
residuals; each pair of ``delta1`` builds its own ``_beside(delta(e_k))``
tables.  Compatibility stays per pair: one accumulator over the same
walks, or an indexed scatter of them, measured slower on the catalog's
small structures than the per-pair residuals.

Skew and the three coalgebra axioms fill one table each per check too:
an accumulator keyed by (instance, cell), read back with ``_grouped``.
Skew adds [e_i, e_j] and
the signed [e_j, e_i] of each pair (``_skew_table``); coskew and
co-Jacobi add the cells of delta(e_i) and ``tau(delta(e_i))``, and of
``cyclic_sum(_alpha_beside_delta(...))``, for each i with delta(e_i)
nonzero (``HomSuperCoalgebra._table``), so ``tau`` and ``cyclic_sum``
keep the flip and rotation signs; and ``_comorphism_table``, the
coalgebra twin of ``_morphism_list``, adds delta(f(e_i)) - (f (x) f)
delta(e_i) for each i through ``_cobracket_morphism``, which adds at a
prefix into its caller's accumulator: comultiplicativity, the cobracket
half of a morphism check and, with no plane, ``delta_vector``.  Each
public residual of these axioms is its table at one instance.

Nothing is validated eagerly beyond shapes and ring membership: the point
of the package is to *report* which axioms hold, so malformed structures
are representable and ``check`` methods return a :class:`CheckReport`
listing every violated axiom with the exact symbolic residual.  Grading
checks walk the sorted rows and planes for odd cells (``_odd_cells``
for other cell lists), the bilinear checks report their table's
nonzero instances and compatibility those ``_compat_residuals`` kept.
``_violations`` keeps the nonzero residuals of a kernel called at each
index tuple (a tensor, a scalar or a sparse cell dict, each falsy
exactly when zero), for the checks of the other modules.
``_densified`` fills the dense vectors of kept cell dicts and
``_prefixed`` relabels the violations of a sub-report.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import getitem, itemgetter

from .errors import DimensionMismatchError, HypothesisError, ParityError, RingMismatchError
from .scalar import _Accumulator, _same_ring
from .superlinear import (
    EvenMap, Tensor2, Tensor3, _basis_index, _check_same_basis, _filled, _frozen, _grid,
    _lift_cells, _map_cells, _mul_tensor, _TensorBase, _vector_cells, cyclic_sum, koszul_sign, tau)


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


def _sorted_rotations(a, b, c):
    """The rotations (a, b, c), (b, c, a) and (c, a, b) that are in
    nondecreasing order, with repeats: all three when a = b = c."""
    if a <= b <= c:
        return ((a, b, c),) * 3 if a == c else ((a, b, c),)
    if b <= c <= a:
        return ((b, c, a),)
    if c <= a <= b:
        return ((c, a, b),)
    return ()


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
    pairs in row-major order, the empty tuple where there are none.  Each
    row is gathered in a list and frozen once."""
    groups, rows = _grid(shape[:split], ()), {}
    for idx, v in sorted(cells.items()):
        rows.setdefault(idx[:split], []).append((idx[split:], v))
    for key, row in rows.items():
        group = groups
        for i in key[:-1]:
            group = group[i]
        group[key[-1]] = tuple(row)
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


def _act_into(acc, table, beside, negate=False, prefix=(), suffix=(), py=0, p=()):
    """acc += y . t, or -= if *negate*: the one twisted-action walk.  y
    has parity *py* and acts on e_u by the sparse row ``table[u]``: T[a]
    of ``_images`` for y = f(e_a), rows[a] for y = e_a (or rho(e_a)).
    *beside* holds per slot s the (idx, value) cells with y acting on
    slot s (``_beside``), or is ``[col]`` for a vector.  Each product
    takes the Koszul sign for moving y past idx[:s] (parities *p*) and
    lands at prefix + idx[:s] + (k,) + idx[s + 1:] + suffix.  Returns acc."""
    for s, cells in enumerate(beside):
        for idx, v in cells:
            row = table[idx[s]]
            if row:
                sign = negate
                if py:
                    for j in idx[:s]:
                        sign ^= p[j]
                acc.mul(v, row, sign, prefix + idx[:s], idx[s + 1:] + suffix)
    return acc


def _grouped(cells, split):
    """The nonzero cells {idx: value} of one check's table as
    {idx[:split]: {idx[split:]: value}}: the nonzero instances, in sorted
    order, each with its residual cells."""
    out = {}
    for idx, v in sorted(cells.items()):
        out.setdefault(idx[:split], {})[idx[split:]] = v
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
    """The bracket-of-images table T[a][m] = [f(e_a), e_m], for bracket (or
    action) rows *rows* and the sparse columns *cols* of a map f, each row
    a sequence of nonzero ((k,), value) pairs like a bracket row.  T[a] is
    built on first read, from one accumulator, and is the rows of e_i
    itself where f(e_a) = e_i."""
    def table(a):
        col = cols[a]
        if len(col) == 1 and col[0][1].is_one():
            return rows[col[0][0][0]]
        out, acc = [[] for _ in rows[0]], _Accumulator(col[0][1].ring if col else None)
        for (i,), x in col:
            for m, row in enumerate(rows[i]):
                if row:
                    acc.mul(x, row, False, (m,))
        for (m, k), value in acc.cells().items():
            out[m].append(((k,), value))
        return out
    return _Lazy(table)


class _Kernel:
    """The kernel tables of bracket (or action) rows *rows* under a map f:
    ``twisted`` is T = ``_images(rows, f)``, ``acting[u]`` the m with
    rows[m][u] nonzero, ``live`` the a for which T[a] can be nonzero (f(e_a)
    has a term e_m with rows[m] nonzero), and the product lists ``jacobi``
    (every nonzero [e_b, e_c], each hop at its nondecreasing rotations) and
    ``morphism`` (the rows to themselves), which a check replays
    (``_replayed``).  T, ``acting`` and the lists are built on first read
    and then kept.  ``HomSuperAlgebra._tables`` keeps one per algebra, for
    its alpha."""

    def __init__(self, rows, f):
        self.rows, self.f = rows, f
        self.twisted = _images(rows, f._cols)
        self.acting = _Lazy(lambda u: [m for m, plane in enumerate(rows) if plane[u]])
        planted = {m for m, plane in enumerate(rows) if any(plane)}
        self.live = {a for a, col in enumerate(f._cols) if any(m in planted for (m,), _ in col)}

    @cached_property
    def jacobi(self):
        return _jacobi_list(self, [(b, c) for b, plane in enumerate(self.rows)
                                   for c, row in enumerate(plane) if row], _sorted_rotations)

    @cached_property
    def morphism(self):
        return _morphism_list(self.rows, self)


def _jacobi_list(kernel, pairs, targets, hops=None):
    """The product list of the Jacobi residuals of the algebra rows and
    alpha that *kernel* was built for.

    The cyclic sum of (i, j, k) has the hops [alpha(e_a), [e_b, e_c]] for
    (a, b, c) = (i, j, k), (k, i, j) and (j, k, i), each with the sign
    (-1)^{|e_a||e_c|}; so each hop enters the triples (a, b, c), (b, c, a)
    and (c, a, b), and ``targets(a, b, c)`` says which of those are
    wanted, with repeats.  For each (b, c) in *pairs* and each term y_m
    e_m of [e_b, e_c], the hop a runs over ``index[m]``, the live a (in
    *hops*, if given; sorted) with T[a][m] nonzero, built on first read
    for this list; each
    wanted triple t gets the entry (y_m, T[a][m], sign, t), which
    ``_replayed`` adds into one accumulator keyed by (i, j, k, l) for the
    cells (l,) of T[a][m].  Hops with no wanted triple add nothing."""
    p = kernel.f.src.parities
    live = sorted(kernel.live if hops is None else kernel.live.intersection(hops))
    rows, twisted = kernel.rows, kernel.twisted
    index = _Lazy(lambda m: [a for a in live if twisted[a][m]])
    out = []
    for b, c in pairs:
        pc = p[c]
        for (m,), y in rows[b][c]:
            for a in index[m]:
                rotations = targets(a, b, c)
                if rotations:
                    row, negate = twisted[a][m], p[a] & pc
                    for t in rotations:
                        out.append((y, row, negate, t))
    return out


def _replayed(ring, entries, split):
    """The product list *entries*, each (x, row, negate, prefix), added
    into one accumulator over *ring* by ``_Accumulator.mul(x, row,
    negate, prefix)``: the nonzero cells grouped by their first *split*
    indices (``_grouped``); an empty list builds no accumulator."""
    if not entries:
        return {}
    acc = _Accumulator(ring)
    for x, row, negate, prefix in entries:
        acc.mul(x, row, negate, prefix)
    return _grouped(acc.cells(), split)


def _morphism_list(src_rows, kernel, pairs=None, right=None):
    """The product list of the bracket-morphism residuals g([e_i, e_j]) -
    [f(e_i), g(e_j)], for bracket (or action) rows *src_rows* and the map
    f that *kernel*, the ``_Kernel`` of the target rows under f, was built
    for; g has the sparse columns *right*, f's own by default.  With g = f
    it is f's bracket-morphism residual, with f = alpha the
    multiplicativity residual, and with action rows and g the module map
    it is the intertwining residual at (i, c).  For each (i, j) of
    *pairs*, by default every (i, j) with [e_i, e_j] nonzero or with
    [f(e_i), -] possibly nonzero (``kernel.live``), it holds g([e_i, e_j])
    as the entries (v_k, g(e_k), False, (i, j)) and [f(e_i), g(e_j)] as
    the entries (y_b, T[i][b], True, (i, j)), for ``_replayed``."""
    twisted = kernel.twisted
    right = kernel.f._cols if right is None else right
    if pairs is None:
        live = kernel.live
        pairs = [(i, j) for i, plane in enumerate(src_rows)
                 for j, row in enumerate(plane) if row or i in live]
    out = []
    for ij in pairs:
        i, j = ij
        image = twisted[i]
        for (k,), v in src_rows[i][j]:
            if right[k]:
                out.append((v, right[k], False, ij))
        for (b,), y in right[j]:
            if image[b]:
                out.append((y, image[b], True, ij))
    return out


def _cobracket_morphism(acc, dst, x, f, plane, prefix=()):
    """acc += delta_dst(x) - (f (x) f)(plane) at prefix + (j, k), for a
    sparse vector x of ((m,), value) pairs and a delta plane of ((j, k),
    value) pairs.  With x = f(e_i), f's sparse column, and plane =
    delta_src(e_i) it adds f's cobracket-morphism residual at e_i; with an
    empty plane it adds delta_dst(x) alone.  Returns acc."""
    for (m,), c in x:
        acc.mul(c, dst._planes[m], False, prefix)
    for (a, b), v in plane:
        _mul_tensor(acc, v, [f._cols[a], f._cols[b]], True, prefix)
    return acc


def _comorphism_table(dst, f, planes, instances):
    """The cobracket-morphism residuals delta_dst(f(e_i)) - (f (x) f)
    delta_src(e_i), for the delta planes *planes* of the source, at each i
    of *instances*, added by ``_cobracket_morphism`` into one accumulator
    keyed by (i, j, k): the nonzero ones, in sorted order, each as its
    sparse ((j, k): value) cells (``_grouped``).  With f = alpha it is
    comultiplicativity; the coalgebra twin of ``_morphism_list``."""
    acc = _Accumulator(dst.ring)
    for i in instances:
        _cobracket_morphism(acc, dst, f._cols[i], f, planes[i], (i,))
    return _grouped(acc.cells(), 1)


def _bracket_cells(algebra):
    """The nonzero bracket constants as {(i, j, k): value}."""
    return {(i, j, k): v for i, plane in enumerate(algebra._rows)
            for j, row in enumerate(plane) for (k,), v in row}


def _cobracket_cells(coalgebra):
    """The nonzero cobracket constants as {(i, j, k): value}."""
    return {(i,) + jk: v for i, plane in enumerate(coalgebra._planes) for jk, v in plane}


class HomSuperAlgebra:
    """A Z2-graded bracket together with its twisting map."""

    def __init__(self, ring, basis, bracket, alpha):
        self.ring = ring
        self.basis = basis
        self._rows = _constants(ring, basis, bracket, "bracket", 2)
        self._view = self._kernel = None
        self.alpha = _lift_alpha(ring, basis, alpha)

    @classmethod
    def _wrap(cls, ring, basis, rows, alpha):
        """An algebra over bracket rows in the form of ``_rows`` (``_group``
        of lifted, in-range, zero-free cells) and an EvenMap alpha on
        *basis* over *ring*; unlike the constructor it checks nothing."""
        A = object.__new__(cls)
        A.ring, A.basis, A._rows, A.alpha = ring, basis, rows, alpha
        A._view = A._kernel = None
        return A

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

    def _tables(self):
        """The ``_Kernel`` of this algebra's rows under alpha, kept across
        checks and walks until alpha is rebound to another map: alpha is a
        public attribute, while ``_rows`` is never written after
        construction or ``_wrap``."""
        kernel = self._kernel
        if kernel is None or kernel.f is not self.alpha:
            kernel = self._kernel = _Kernel(self._rows, self.alpha)
        return kernel

    # -- residuals -------------------------------------------------------

    def grading_violations(self):
        p = self.basis.parities
        return [Violation("bracket-grading", (i, j, k), v)
                for i, plane in enumerate(self._rows) for j, row in enumerate(plane)
                for (k,), v in row if (p[i] + p[j] + p[k]) % 2]

    def skew_residual(self, i, j):
        """[e_i,e_j] + (-1)^{|e_i||e_j|} [e_j,e_i]."""
        ij = _basis_index(i, self.dim), _basis_index(j, self.dim)
        return self._vector(self._skew_table([ij]).get(ij, {}))

    def jacobi_residual(self, i, j, k):
        """The graded cyclic sum of [alpha(x), [y, z]] over (e_i,e_j,e_k)."""
        n = self.dim
        ijk = i, j, k = _basis_index(i, n), _basis_index(j, n), _basis_index(k, n)

        def targets(a, b, c):
            return [t for t in ((a, b, c), (b, c, a), (c, a, b)) if t == ijk]
        # the hops of (i, j, k) bracket these pairs, each walked once
        entries = _jacobi_list(self._tables(), dict.fromkeys([(j, k), (k, i), (i, j)]),
                               targets, hops=ijk)
        return self._vector(_replayed(self.ring, entries, 3).get(ijk, {}))

    def mult_residual(self, i, j):
        """alpha([e_i,e_j]) - [alpha(e_i), alpha(e_j)]."""
        ij = _basis_index(i, self.dim), _basis_index(j, self.dim)
        entries = _morphism_list(self._rows, self._tables(), [ij])
        return self._vector(_replayed(self.ring, entries, 2).get(ij, {}))

    def _skew_table(self, pairs):
        """The skew residuals at each (i, j) of *pairs*, added into one
        accumulator keyed by (i, j, k): the nonzero ones, in sorted order,
        each as its sparse ``{(k,): value}`` cells (``_grouped``)."""
        acc, p, rows = _Accumulator(self.ring), self.basis.parities, self._rows
        for ij in pairs:
            i, j = ij
            for k, v in rows[i][j]:
                acc.add(ij + k, v)
            for k, v in rows[j][i]:
                acc.add(ij + k, v, p[i] & p[j])
        return _grouped(acc.cells(), 2)

    # -- checks ----------------------------------------------------------

    def check(self, multiplicative=False):
        """Grading, skew, Hom-Jacobi and, if asked, multiplicativity.  Skew
        is evaluated at the pairs i <= j that a nonzero bracket enters, and
        Hom-Jacobi only at the nondecreasing triples i <= j <= k: that is
        complete only where the bracket is skew.  A bracket that is not
        skew may have a nonzero ``jacobi_residual`` at an unsorted triple
        and no reported ``jacobi`` violation, but its check then fails on
        ``skew``."""
        return CheckReport("hom-super-algebra", self._found(multiplicative))

    def _found(self, multiplicative):
        """check's violations."""
        n = self.dim
        rows = self._rows
        pairs = [(i, j) for i in range(n) for j in range(i, n) if rows[i][j] or rows[j][i]]
        hops = _replayed(self.ring, self._tables().jacobi, 3)
        found = ([Violation("skew", ij, cells) for ij, cells in self._skew_table(pairs).items()]
                 + [Violation("jacobi", t, cells) for t, cells in hops.items()])
        if multiplicative:
            found += [Violation("multiplicative", ij, cells) for ij, cells
                      in _replayed(self.ring, self._tables().morphism, 2).items()]
        return self.grading_violations() + _densified(found, self._vector)

    def is_multiplicative(self):
        return not _replayed(self.ring, self._tables().morphism, 2)


class HomSuperCoalgebra:
    """A Z2-graded cobracket together with its twisting map."""

    def __init__(self, ring, basis, cobracket, alpha):
        self.ring = ring
        self.basis = basis
        self._planes = _constants(ring, basis, cobracket, "cobracket", 1)
        self._view = None
        self.alpha = _lift_alpha(ring, basis, alpha)

    @classmethod
    def _wrap(cls, ring, basis, planes, alpha):
        """A coalgebra over delta planes in the form of ``_planes``
        (``_group`` of lifted, in-range, zero-free cells) and an EvenMap
        alpha on *basis* over *ring*; unlike the constructor it checks
        nothing."""
        C = object.__new__(cls)
        C.ring, C.basis, C._planes, C._view, C.alpha = ring, basis, planes, None, alpha
        return C

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
        i = _basis_index(i, self.dim)
        return Tensor2._wrap(self.ring, self.basis,
                             self._table([i], self._coskew_terms).get((i,), {}))

    def delta_vector(self, x):
        """delta of a coefficient vector (linear extension), as a Tensor2;
        the coefficients are lifted into the ring as in ``EvenMap.apply``."""
        x = _vector_cells(x, self.dim, self.ring)
        return Tensor2._wrap(self.ring, self.basis, _cobracket_morphism(
            _Accumulator(self.ring), self, x, None, ()).cells())

    def cojacobi_residual(self, i):
        """The graded cyclic sum of (alpha (x) delta) delta at e_i."""
        i = _basis_index(i, self.dim)
        return Tensor3._wrap(self.ring, self.basis,
                             self._table([i], self._cojacobi_terms).get((i,), {}))

    def comult_residual(self, i):
        """delta(alpha(e_i)) - (alpha (x) alpha) delta(e_i)."""
        i = _basis_index(i, self.dim)
        return Tensor2._wrap(self.ring, self.basis, _comorphism_table(
            self, self.alpha, self._planes, [i]).get((i,), {}))

    def _coskew_terms(self, i):
        """delta(e_i) and tau(delta(e_i)), the terms of coskew at i."""
        d = self.delta(i)
        return d, tau(d)

    def _cojacobi_terms(self, i):
        """The one term of co-Jacobi at i, the cyclic sum itself."""
        return (cyclic_sum(_alpha_beside_delta(self, self._planes[i], False)),)

    def _table(self, instances, terms):
        """The residuals at each i of *instances* that are the sums of the
        tensors ``terms(i)``, added into one accumulator keyed by (i,) +
        cell: the nonzero ones, in sorted order, each as its sparse cells
        (``_grouped``).  ``tau`` and ``cyclic_sum`` keep the signs of the
        coskew and co-Jacobi terms."""
        acc = _Accumulator(self.ring)
        for i in instances:
            for t in terms(i):
                for idx, v in t._cells.items():
                    acc.add((i,) + idx, v)
        return _grouped(acc.cells(), 1)

    def check(self, comultiplicative=False):
        # coskew and co-Jacobi are zero where delta(e_i) is; comultiplicativity
        # is not, as delta(alpha(e_i)) need not be
        planted = [i for i, plane in enumerate(self._planes) if plane]
        tables = [("coskew", Tensor2, self._table(planted, self._coskew_terms)),
                  ("cojacobi", Tensor3, self._table(planted, self._cojacobi_terms))]
        if comultiplicative:
            tables.append(("comultiplicative", Tensor2, _comorphism_table(
                self, self.alpha, self._planes, range(self.dim))))
        return CheckReport("hom-super-coalgebra", self.grading_violations() + [
            Violation(axiom, i, kind._wrap(self.ring, self.basis, cells))
            for axiom, kind, table in tables for i, cells in table.items()])

    def is_comultiplicative(self):
        return not _comorphism_table(self, self.alpha, self._planes, range(self.dim))


def _alpha_beside_delta(coalgebra, pairs, delta_first):
    """alpha on one factor and delta on the other of the tensor with the
    ((a, b), value) pairs *pairs*, such as a Tensor2's cells or a delta
    plane, as a Tensor3 with the alpha image in the first slot, or in the
    last if *delta_first*.  *coalgebra* may also be a bialgebra."""
    C = getattr(coalgebra, "coalgebra", coalgebra)
    cols, planes = C.alpha._cols, C._planes
    acc = _Accumulator(C.ring)
    for (a, b), va in pairs:
        _mul_tensor(acc, va, [planes[a], cols[b]] if delta_first else [cols[a], planes[b]])
    return Tensor3._wrap(C.ring, C.basis, acc.cells())


def alpha_otimes_delta(coalgebra, r):
    """(alpha (x) delta)(r) as a Tensor3."""
    _check_same_basis(r.basis, coalgebra.basis)
    return _alpha_beside_delta(coalgebra, r._cells.items(), False)


def delta_otimes_alpha(coalgebra, r):
    """(delta (x) alpha)(r) as a Tensor3."""
    _check_same_basis(r.basis, coalgebra.basis)
    return _alpha_beside_delta(coalgebra, r._cells.items(), True)


def _beside(t, alpha, acting=None):
    """For each slot s of the tensor t, the cells of t with alpha applied to
    every other slot, as an ``items()`` view: the one place where alpha
    reaches the slots an ``_act_into`` walk leaves untouched.  With a table
    *acting*, the cells whose index u in slot s has no ``acting[u]`` are
    dropped from slot s before alpha is applied.  t's basis is checked
    first, and as alpha is even, every slot of a cell keeps its parity."""
    _check_same_basis(t.basis, alpha.src)
    out = []
    for s in range(t.rank):
        u = t if acting is None else t._wrap(
            t.ring, t.basis, {idx: v for idx, v in t._cells.items() if acting[idx[s]]})
        for other in (o for o in range(t.rank) if o != s):
            u = u.apply(alpha, other)
        out.append(u._cells.items())
    return out


def _ad_images(algebra, t):
    """The twisted adjoint images ad_{e_m}(t) of a tensor, for every basis
    vector e_m, as a list indexed by m, from one ``_beside(t)`` table.

    On each summand the bracket hits one slot while ``alpha`` hits all the
    others, with the Koszul sign for moving e_m past the slots it skips:

        e_m . (y1 (x) ... (x) yn)
          = sum_i (+-) alpha(y1) (x) ... (x) [e_m, y_i] (x) ... (x) alpha(yn)

    so ad_{e_m}(t) is one ``_act_into`` walk of the bracket rows of e_m
    over that table; the cells on which no bracket row acts (the
    algebra's ``acting`` table, ``_tables``) are dropped before alpha is
    applied."""
    if not isinstance(t, _TensorBase):
        raise TypeError("ad_action expects a Tensor2 or Tensor3")
    p, ring = algebra.basis.parities, algebra.ring
    beside = _beside(t, algebra.alpha, algebra._tables().acting)
    return [t._wrap(ring, algebra.basis,
                    _act_into(_Accumulator(ring), plane, beside, False, (), (), p[m], p).cells(),
                    None if t.parity is None else (t.parity + p[m]) % 2)
            for m, plane in enumerate(algebra._rows)]


def ad_action(algebra, x, t):
    """The twisted adjoint action of a homogeneous element on a tensor,
    sum_m x_m ad_{e_m}(t) (``_ad_images``).

    *x* is a pair ``(coeffs, parity)``, whose coefficients, lifted into
    the ring as in ``EvenMap.apply``, must all lie on basis vectors of
    that parity."""
    images = _ad_images(algebra, t)
    coeffs, parity = x
    xs = _vector_cells(coeffs, algebra.dim, algebra.ring)
    p = algebra.basis.parities
    if parity not in (0, 1) or any(p[m] != parity for (m,), _ in xs):
        raise ParityError("x is not homogeneous of parity %r" % (parity,))
    acc = _Accumulator(algebra.ring)
    for (m,), c in xs:
        acc.mul(c, images[m]._cells.items())
    return t._wrap(algebra.ring, algebra.basis, acc.cells(),
                   None if t.parity is None else (t.parity + parity) % 2)


def ad_basis(algebra, m, t):
    """ad of the m-th basis element on a tensor."""
    m = _basis_index(m, algebra.dim)
    return _ad_images(algebra, t)[m]


def _compat_residual(algebra, deltas, i, j, beside):
    """delta([e_i,e_j]) - ad_{alpha(e_i)} delta(e_j)
    + (-1)^{|e_i||e_j|} ad_{alpha(e_j)} delta(e_i), added into one accumulator.

    ad_{alpha(e_x)} sends e_u (x) e_v to T[x][u] (x) alpha(e_v)
    + (-1)^{|e_x||e_u|} alpha(e_u) (x) T[x][v], so each ad term is one
    ``_act_into`` walk of T[x] over the two slots of
    ``_beside(delta(e_t))``, whose cells keep the parity of e_u as alpha
    is even.  T is the algebra's twisted-bracket
    table (``_tables``), and *beside* a ``_Lazy`` table of
    ``_beside(delta(e_k))`` per k: only what this pair reads is built."""
    twisted, p = algebra._tables().twisted, algebra.basis.parities
    acc = _Accumulator(algebra.ring)
    for (k,), c in algebra._rows[i][j]:
        acc.mul(c, deltas[k]._cells.items())
    for x, t, negate in ((i, j, 1), (j, i, p[i] & p[j])):
        if deltas[t]._cells:
            _act_into(acc, twisted[x], beside[t], negate, (), (), p[x], p)
    return Tensor2._wrap(algebra.ring, algebra.basis, acc.cells())


def _compat_residuals(algebra, deltas, nonskew, beside):
    """The nonzero compatibility residuals, as a dict keyed by (i, j) in
    row-major order, each pair reading the ``_beside`` tables *beside*
    (``_compat_residual``).  *nonskew*
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
              and (rows[i][j] or deltas[i]._cells or deltas[j]._cells)
              and (r := _compat_residual(algebra, deltas, i, j, beside))):
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

    @classmethod
    def _wrap(cls, algebra, planes):
        """A bialgebra holding *algebra* itself, with delta planes in the
        form of ``_planes`` over its alpha; unlike the constructor it
        checks nothing."""
        B = object.__new__(cls)
        B.ring, B.basis, B.alpha, B.algebra = algebra.ring, algebra.basis, algebra.alpha, algebra
        B.coalgebra = HomSuperCoalgebra._wrap(algebra.ring, algebra.basis, planes, algebra.alpha)
        return B

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
        A, n = self.algebra, self.dim
        i, j = _basis_index(i, n), _basis_index(j, n)
        deltas = [self.delta(k) for k in range(n)]
        return _compat_residual(A, deltas, i, j, _Lazy(lambda k: _beside(deltas[k], A.alpha)))

    def check(self, multiplicative=False):
        A = self.algebra
        deltas = [self.delta(k) for k in range(self.dim)]
        violations = A._found(multiplicative)
        nonskew = {v.indices for v in violations if v.axiom == "skew"}
        compat = _compat_residuals(A, deltas, nonskew,
                                   _Lazy(lambda k: _beside(deltas[k], A.alpha)))
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
    return _ad_images(algebra, r)


def _require_deltas(algebra, deltas):
    """Refuse cobracket images *deltas* that are not one Tensor2 on the
    algebra's basis over its ring per basis vector."""
    if len(deltas) != algebra.dim:
        raise DimensionMismatchError("%d cobracket images for dimension %d"
                                     % (len(deltas), algebra.dim))
    for d in deltas:
        if not isinstance(d, Tensor2):
            raise TypeError("a cobracket image must be a Tensor2, not %s" % type(d).__name__)
        _check_same_basis(d.basis, algebra.basis)
        if not _same_ring(d.ring, algebra.ring):
            raise RingMismatchError("cobracket image over %r used where %r expected"
                                    % (d.ring, algebra.ring))


def delta1(algebra, deltas):
    """The compatibility defect of a cobracket candidate, as a grid of
    Tensor2 residuals indexed by ordered basis pairs.  Every pair reads the
    algebra's twisted-bracket table T, and each builds its own
    ``_beside(delta(e_k))`` tables."""
    _require_deltas(algebra, deltas)
    n = algebra.dim
    return [[_compat_residual(algebra, deltas, i, j,
                              _Lazy(lambda k: _beside(deltas[k], algebra.alpha)))
             for j in range(n)] for i in range(n)]


def bialgebra_from_deltas(algebra, deltas):
    """Package an algebra and per-basis cobracket images as a bialgebra,
    which holds *algebra* itself: only the cobracket is built, as the
    sorted cells of each image (``_require_deltas`` has refused any image
    on another basis or ring).  *deltas* has one image per basis vector,
    or is empty for the zero cobracket."""
    if deltas:
        _require_deltas(algebra, deltas)
    planes = [tuple(sorted(d._cells.items())) for d in deltas] or [()] * algebra.dim
    return HomSuperBialgebra._wrap(algebra, planes)
