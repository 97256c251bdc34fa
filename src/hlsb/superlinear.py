"""Z2-graded linear algebra over a parameter ring.

Vectors are plain lists of scalars over a :class:`SuperBasis` whose basis
elements carry parities (0 = even, 1 = odd).  Maps are stored as matrices
in the column convention: ``f(e_j) = sum_i A[i][j] e_i``.  An element of
a tensor power of the space is stored sparsely, as a dict ``{index tuple:
scalar}`` of its nonzero coefficients, optionally constrained to a fixed
total parity; :class:`Tensor2` and :class:`Tensor3` only fix the rank, and
``entries`` is a dense nested-list view kept for compatibility.  The
contractions of the other modules add sparse slot products into such
dicts through ``_add_products``.

The graded flip ``tau`` and the graded cyclic rotation ``xi`` are one
signed slot permutation and implement

    tau(x (x) y)       = (-1)^{|x||y|} y (x) x
    xi(x (x) y (x) z)  = (-1)^{|x|(|y|+|z|)} y (x) z (x) x

so that ``xi`` is (1 (x) tau) o (tau (x) 1) and ``xi^3`` is the identity.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, ParityError
from .scalar import ParamRing

EVEN = 0
ODD = 1


def koszul_sign(p, q):
    """(-1)**(p*q) for parities p, q."""
    return -1 if (p * q) % 2 else 1


class SuperBasis:
    """An ordered homogeneous basis: labels plus parities."""

    def __init__(self, parities, labels=None):
        parities = tuple(int(p) for p in parities)
        if any(p not in (0, 1) for p in parities):
            raise ParityError("parities must be 0 or 1, got %r" % (parities,))
        if labels is None:
            labels = tuple("e%d" % (i + 1) for i in range(len(parities)))
        else:
            labels = tuple(labels)
            if len(labels) != len(parities):
                raise DimensionMismatchError(
                    "%d labels for %d parities" % (len(labels), len(parities)))
            if len(set(labels)) != len(labels):
                raise ParityError("duplicate basis labels in %r" % (labels,))
        self.parities = parities
        self.labels = labels
        self.dim = len(parities)

    def parity(self, i):
        return self.parities[i]

    def __eq__(self, other):
        if not isinstance(other, SuperBasis):
            return NotImplemented
        return self.parities == other.parities and self.labels == other.labels

    def __hash__(self):
        return hash((self.parities, self.labels))

    def __repr__(self):
        marks = ["%s%s" % (l, "~" if p else "") for l, p in zip(self.labels, self.parities)]
        return "SuperBasis(%s)" % ", ".join(marks)


def _check_same_basis(a, b):
    if a != b:
        raise DimensionMismatchError("bases differ: %r vs %r" % (a, b))


class EvenMap:
    """A parity-preserving linear map in the column convention.

    ``matrix[i][j]`` is the coefficient of the i-th target basis vector in
    the image of the j-th source basis vector.  Any nonzero entry linking
    basis vectors of different parity raises :class:`ParityError`.
    """

    def __init__(self, ring, src, dst, matrix):
        if len(matrix) != dst.dim or any(len(row) != src.dim for row in matrix):
            raise DimensionMismatchError(
                "matrix shape does not match bases (%d x %d expected)"
                % (dst.dim, src.dim))
        self.ring = ring
        self.src = src
        self.dst = dst
        self.matrix = [[ring.lift(v) for v in row] for row in matrix]
        for i in range(dst.dim):
            for j in range(src.dim):
                if self.matrix[i][j] and dst.parity(i) != src.parity(j):
                    raise ParityError(
                        "entry (%s <- %s) of an even map is nonzero but "
                        "changes parity" % (dst.labels[i], src.labels[j]))

    @classmethod
    def identity(cls, ring, basis):
        return cls.diagonal(ring, basis, [ring.one()] * basis.dim)

    @classmethod
    def diagonal(cls, ring, basis, values):
        n = basis.dim
        if len(values) != n:
            raise DimensionMismatchError("%d diagonal values for dim %d"
                                         % (len(values), n))
        return cls(ring, basis, basis,
                   [[ring.lift(values[i]) if i == j else ring.zero()
                     for j in range(n)] for i in range(n)])

    def column(self, j):
        return [self.matrix[i][j] for i in range(self.dst.dim)]

    def apply(self, vec):
        if len(vec) != self.src.dim:
            raise DimensionMismatchError("vector length %d, expected %d"
                                         % (len(vec), self.src.dim))
        terms = [(j, v) for j, v in enumerate(vec) if v]
        return [sum((row[j] * v for j, v in terms), self.ring.zero()) for row in self.matrix]

    def compose(self, other):
        """self after other."""
        if other.dst != self.src:
            raise DimensionMismatchError("composition bases do not match")
        cols = [other.column(j) for j in range(other.src.dim)]
        matrix = [[sum((a * b for a, b in zip(row, col) if a and b), self.ring.zero())
                   for col in cols] for row in self.matrix]
        return EvenMap(self.ring, other.src, self.dst, matrix)

    def power(self, n):
        if self.src != self.dst:
            raise DimensionMismatchError("only endomorphisms have powers")
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = EvenMap.identity(self.ring, self.src)
        base = self
        while n:
            if n & 1:
                result = base.compose(result)
            n >>= 1
            if n:
                base = base.compose(base)
        return result

    def transpose(self):
        matrix = [[self.matrix[i][j] for i in range(self.dst.dim)]
                  for j in range(self.src.dim)]
        return EvenMap(self.ring, self.dst, self.src, matrix)

    def is_identity(self):
        n = self.dst.dim
        return self.src == self.dst and all(
            self.matrix[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    def __eq__(self, other):
        if not isinstance(other, EvenMap):
            return NotImplemented
        return (self.ring == other.ring and self.src == other.src
                and self.dst == other.dst and self.matrix == other.matrix)

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(v) for v in row) for row in self.matrix)
        return "EvenMap[%s]" % rows


def _grid(depth, n, fill):
    """A nested-list grid of the given depth and side, every cell *fill*."""
    if depth == 1:
        return [fill] * n
    return [_grid(depth - 1, n, fill) for _ in range(n)]


def _has_shape(grid, depth, n):
    return len(grid) == n and (depth == 1 or all(_has_shape(g, depth - 1, n) for g in grid))


def _sparse(grid, depth, lift=None):
    """The nonzero cells of a grid (a bracket row, a delta plane, a tensor
    grid) as (index tuple, value) pairs in row-major order, lifted if asked."""
    rows = [((), grid)]
    for _ in range(depth - 1):
        rows = [(idx + (i,), sub) for idx, g in rows for i, sub in enumerate(g)]
    return [(idx + (i,), v) for idx, row in rows
            for i, v in enumerate(row if lift is None else map(lift, row)) if v]


def _add_at(cells, idx, value):
    """cells[idx] += value in a sparse cell dict, which never keeps a zero."""
    if value:
        value = cells[idx] + value if idx in cells else value
        if value:
            cells[idx] = value
        else:
            del cells[idx]


def _add_products(cells, coeff, factors):
    """Add coeff * (f_1 (x) f_2 (x) ...) into a sparse cell dict.

    Each factor is a sparse list of (index tuple, scalar) pairs over one or
    more consecutive slots: an alpha column, a bracket row, a delta plane.
    """
    terms = [((), coeff)]
    for factor in factors:
        terms = [(idx + i, c * v) for idx, c in terms for i, v in factor]
    for idx, c in terms:
        _add_at(cells, idx, c)


def _sparse_columns(f):
    """The columns of an even map as sparse ((row,), value) lists."""
    return [_sparse(f.column(j), 1) for j in range(f.src.dim)]


def _dense(t):
    """A fresh nested-list grid holding the cells of the tensor t."""
    grid = _grid(t.rank, t.basis.dim, t.ring.zero())
    for (*path, last), v in t._cells.items():
        row = grid
        for i in path:
            row = row[i]
        row[last] = v
    return grid


class _TensorBase:
    """An element of the rank-fold tensor power of V, stored sparsely as
    ``{(i, j, ...): coefficient of e_i (x) e_j (x) ...}``.  No zero is
    stored, so each operation costs in proportion to the nonzero cells.

    *entries* is a dense nested-list grid of depth ``rank`` or a dict of
    cells.  The ``entries`` attribute is a dense compatibility view:
    reading it builds the grid and makes it this tensor's storage, so a
    cell written into it is seen by every later operation, each of which
    then scans the whole grid.  If *parity* is given, every nonzero entry
    must have that total parity.
    """

    rank = None
    __slots__ = ("ring", "basis", "parity", "_store")

    def __init__(self, ring, basis, entries=None, parity=None):
        n = basis.dim
        self.ring, self.basis, self.parity, self._store = ring, basis, parity, {}
        name = type(self).__name__
        if isinstance(entries, dict):
            for idx, v in entries.items():
                idx = tuple(idx)
                if len(idx) != self.rank or not all(0 <= i < n for i in idx):
                    raise DimensionMismatchError("%r is not a %s index for dim %d"
                                                 % (idx, name, n))
                _add_at(self._store, idx, ring.lift(v))
        elif entries is not None:
            if not _has_shape(entries, self.rank, n):
                raise DimensionMismatchError("%s grid must be %d^%d" % (name, n, self.rank))
            self._store = dict(_sparse(entries, self.rank, ring.lift))
        if parity is not None:
            for *idx, v in self.items():
                p = sum(basis.parity(i) for i in idx) % 2
                if p != parity % 2:
                    raise ParityError(
                        "entry %s has parity %d, expected %d"
                        % ("(x)".join(basis.labels[i] for i in idx), p, parity % 2))

    @classmethod
    def _wrap(cls, ring, basis, cells=None, parity=None):
        """A tensor over a cell dict that is already lifted, indexed and
        free of zeros (or an empty one); unlike the constructor it checks nothing."""
        t = object.__new__(cls)
        t.ring, t.basis, t.parity, t._store = ring, basis, parity, {} if cells is None else cells
        return t

    @classmethod
    def from_dict(cls, ring, basis, data, parity=None):
        return cls(ring, basis, data, parity=parity)

    @property
    def _cells(self):
        """The nonzero cells as {index tuple: value}, read from the grid
        once ``entries`` has handed it out."""
        store = self._store
        return store if type(store) is dict else dict(_sparse(store, self.rank))

    @property
    def entries(self):
        """The dense grid ``entries[i][j]...``, from now on this tensor's storage."""
        if type(self._store) is dict:
            self._store = _dense(self)
        return self._store

    def items(self):
        """Nonzero entries as (i, j, ..., value), in row-major order."""
        return [idx + (v,) for idx, v in sorted(self._cells.items())]

    def _check_compat(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("cannot combine %s with %r" % (type(self).__name__, other))
        _check_same_basis(self.basis, other.basis)
        if self.ring != other.ring:
            raise DimensionMismatchError("tensors over different rings")

    def __add__(self, other):
        self._check_compat(other)
        parity = self.parity if self.parity == other.parity else None
        cells = dict(self._cells)
        for idx, v in other._cells.items():
            _add_at(cells, idx, v)
        return self._wrap(self.ring, self.basis, cells, parity)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.ring.lift(c)
        cells = {idx: w for idx, v in self._cells.items() if (w := c * v)}
        return self._wrap(self.ring, self.basis, cells, self.parity)

    def apply(self, f, slot):
        """Apply an even map to one tensor slot (0 to rank - 1)."""
        _check_same_basis(f.src, self.basis)
        if not 0 <= slot < self.rank:
            raise ValueError("%s slots are 0 to %d" % (type(self).__name__, self.rank - 1))
        cols = _sparse_columns(f)
        cells = {}
        for idx, v in self._cells.items():
            head, tail = idx[:slot], idx[slot + 1:]
            for u, a in cols[idx[slot]]:
                _add_at(cells, head + u + tail, a * v)
        return self._wrap(f.ring, f.dst, cells, self.parity)

    def apply_all(self, f):
        out = self
        for slot in range(self.rank):
            out = out.apply(f, slot)
        return out

    def is_zero(self):
        return not self._cells

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.basis == other.basis and self.ring == other.ring
                and self._cells == other._cells)

    __hash__ = None

    def __repr__(self):
        labels = self.basis.labels
        parts = ["%s: %s" % ("(x)".join(labels[i] for i in idx), v)
                 for *idx, v in self.items()]
        return "%s{%s}" % (type(self).__name__, ", ".join(parts))


class Tensor2(_TensorBase):
    """An element of V (x) V, with the dense view ``entries[i][j]``."""

    rank = 2
    __slots__ = ()
    # Own bindings, so that per-class patches (bench/tracing.py) see each rank.
    __init__, __add__, scale, apply, apply_all = (
        _TensorBase.__init__, _TensorBase.__add__, _TensorBase.scale,
        _TensorBase.apply, _TensorBase.apply_all)
    from_dict = vars(_TensorBase)["from_dict"]


class Tensor3(_TensorBase):
    """An element of V (x) V (x) V, with the dense view
    ``entries[i][j][k]``."""

    rank = 3
    __slots__ = ()
    # Own bindings, so that per-class patches (bench/tracing.py) see each rank.
    __init__, __add__, scale, apply, apply_all = (
        _TensorBase.__init__, _TensorBase.__add__, _TensorBase.scale,
        _TensorBase.apply, _TensorBase.apply_all)


def _permuted(t, order):
    """The tensor whose slot k holds slot order[k] of t, with the Koszul
    sign of every pair of slots that changes places."""
    p = t.basis.parities
    crossed = [(a, b) for k, a in enumerate(order) for b in order[k + 1:] if a > b]
    cells = {}
    for idx, v in t._cells.items():
        odd = sum(p[idx[a]] * p[idx[b]] for a, b in crossed) % 2
        cells[tuple(idx[s] for s in order)] = -v if odd else v
    return t._wrap(t.ring, t.basis, cells, t.parity)


def tau(t):
    """Graded flip on a Tensor2."""
    return _permuted(t, (1, 0))


def xi(t):
    """Graded cyclic rotation on a Tensor3 (first slot moves to the back)."""
    return _permuted(t, (1, 2, 0))


def cyclic_sum(t):
    """t + xi(t) + xi(xi(t)) for a Tensor3."""
    first = xi(t)
    return t + first + xi(first)
