"""Z2-graded linear algebra over a parameter ring.

Vectors are plain lists of scalars over a :class:`SuperBasis` whose basis
elements carry parities (0 = even, 1 = odd).  Maps follow the column
convention ``f(e_j) = sum_i A[i][j] e_i`` and are stored once, as the
sparse columns ``((i,), A[i][j])`` of their nonzero entries; ``matrix`` is
a read-only nested-tuple view.  An element of a tensor power of the space
is stored sparsely, as a dict ``{index tuple: scalar}`` of its nonzero
coefficients, optionally constrained to a fixed total parity;
:class:`Tensor2` and :class:`Tensor3` only fix the rank, and ``entries``
is a dense nested-list view kept for compatibility, built afresh on each
read, whose cell writes go through to the dict.  Outside input is
validated and what the library derives is wrapped.  The constructors of
maps, tensors and the structures of :mod:`hlsb.structures` take outside
input, a dense grid or such a dict of cells (``_lift_cells``): a cell
key must be a tuple of in-range ints, a value is lifted into the ring
(one that is already a Scalar over the ring object itself is adopted as
it is), and zeros are dropped.  What the library builds from a
structure it already holds goes through a private ``_wrap`` instead,
from cells or sparse rows that are lifted, in range, sorted and free of
zeros, and nothing is checked again: ``EvenMap.transpose``, ``compose``,
``power`` and ``identity`` here, and every tensor a contraction
returns.  A contraction adds its
products into a ``hlsb.scalar._Accumulator``, so its cost follows the
nonzero entries: ``EvenMap.apply``, ``EvenMap.compose``,
``_TensorBase.apply`` (through which the bracket walks of the other
modules apply alpha to their untouched slots once, in ``_beside``) and
``_mul_tensor``, for maps that act on every slot.  ``hlsb.scalar._add_at``
adds a scalar that is already built, as a tensor sum does.

The graded flip ``tau`` and the graded cyclic rotation ``xi`` are signed
slot permutations, each computing its fixed Koszul sign inline per cell:

    tau(x (x) y)       = (-1)^{|x||y|} y (x) x
    xi(x (x) y (x) z)  = (-1)^{|x|(|y|+|z|)} y (x) z (x) x

so that ``xi`` is (1 (x) tau) o (tau (x) 1) and ``xi^3`` is the identity.
``cyclic_sum`` adds t, xi(t) and xi(xi(t)) into one accumulator.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, ParityError
from .scalar import ParamRing, Scalar, _Accumulator, _add_at, _same_ring

EVEN = 0
ODD = 1


def koszul_sign(p, q):
    """(-1)**(p*q) for parities p, q."""
    return -1 if (p * q) % 2 else 1


class SuperBasis:
    """An ordered homogeneous basis: labels plus parities."""

    def __init__(self, parities, labels=None):
        parities = tuple(parities)
        if any(p not in (0, 1) for p in parities):
            raise ParityError("parities must be 0 or 1, got %r" % (parities,))
        parities = tuple(map(int, parities))
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
    if a is not b and a != b:
        raise DimensionMismatchError("bases differ: %r vs %r" % (a, b))


class EvenMap:
    """A parity-preserving linear map in the column convention.

    ``matrix[i][j]`` is the coefficient of the i-th target basis vector in
    the image of the j-th source basis vector; *matrix* is a dense grid or
    a dict ``{(i, j): value}``.  Any nonzero entry linking basis vectors
    of different parity raises :class:`ParityError`.
    """

    def __init__(self, ring, src, dst, matrix):
        self.ring = ring
        self.src = src
        self.dst = dst
        cells = _lift_cells(ring, matrix, (dst.dim, src.dim), "matrix")
        dp, sp = dst.parities, src.parities
        odd = [(i, j) for i, j in cells if dp[i] != sp[j]]
        if odd:
            i, j = min(odd)
            raise ParityError(
                "entry (%s <- %s) of an even map is nonzero but "
                "changes parity" % (dst.labels[i], src.labels[j]))
        self._cols = _columns(cells, src.dim)
        self._view = None

    @classmethod
    def _wrap(cls, ring, src, dst, cols):
        """A map over sparse columns that are already lifted, in range,
        parity-preserving, sorted and free of zeros, in the form of
        ``_cols``; unlike the constructor it checks nothing."""
        f = object.__new__(cls)
        f.ring, f.src, f.dst, f._cols, f._view = ring, src, dst, cols, None
        return f

    @classmethod
    def identity(cls, ring, basis):
        one = ring.one()
        return cls._wrap(ring, basis, basis, tuple((((j,), one),) for j in range(basis.dim)))

    @classmethod
    def diagonal(cls, ring, basis, values):
        n = basis.dim
        if len(values) != n:
            raise DimensionMismatchError("%d diagonal values for dim %d"
                                         % (len(values), n))
        return cls(ring, basis, basis, {(i, i): v for i, v in enumerate(values)})

    @property
    def matrix(self):
        """The read-only dense view ``matrix[i][j]``, built on first use."""
        if self._view is None:
            self._view = _frozen(_map_cells(self), (self.dst.dim, self.src.dim),
                                 self.ring.zero())
        return self._view

    def column(self, j):
        """f(e_j) as a coefficient vector; j must index the source basis."""
        col = self._cols[_basis_index(j, self.src.dim)]
        return _filled(dict(col), (self.dst.dim,), self.ring.zero())

    def apply(self, vec):
        """f of a coefficient vector, each entry lifted by ``ring.lift``:
        a Scalar of this ring, an int, a Fraction or a str."""
        acc = _Accumulator(self.ring)
        for (j,), v in _vector_cells(vec, self.src.dim, self.ring):
            acc.mul(v, self._cols[j])
        return _filled(acc.cells(), (self.dst.dim,), self.ring.zero())

    def compose(self, other):
        """self after other."""
        if other.dst != self.src:
            raise DimensionMismatchError("composition bases do not match")
        acc = _Accumulator(self.ring)
        for j, col in enumerate(other._cols):
            for (t,), b in col:
                acc.mul(b, self._cols[t], suffix=(j,))
        return EvenMap._wrap(self.ring, other.src, self.dst, _columns(acc.cells(), other.src.dim))

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
        rows = [[] for _ in range(self.dst.dim)]  # rows[i] holds ((j,), A[i][j]) by j
        for j, col in enumerate(self._cols):
            for (i,), v in col:
                rows[i].append(((j,), v))
        return EvenMap._wrap(self.ring, self.dst, self.src, tuple(map(tuple, rows)))

    def is_identity(self):
        return self.src == self.dst and self._cols == EvenMap.identity(self.ring, self.src)._cols

    def __eq__(self, other):
        if not isinstance(other, EvenMap):
            return NotImplemented
        return (_same_ring(self.ring, other.ring) and self.src == other.src
                and self.dst == other.dst and self._cols == other._cols)

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(v) for v in row) for row in self.matrix)
        return "EvenMap[%s]" % rows


def _map_cells(f):
    """The nonzero entries of an even map as {(i, j): value}."""
    return {(i, j): v for j, col in enumerate(f._cols) for (i,), v in col}


def _columns(cells, ncols):
    """The nonzero cells {(i, j): value} of a map with *ncols* columns as
    its sparse columns ``((i,), value)``, each sorted by i."""
    cols = [[] for _ in range(ncols)]
    for (i, j), v in sorted(cells.items()):
        cols[j].append(((i,), v))
    return tuple(map(tuple, cols))


def _grid(shape, fill):
    """A nested-list grid of the given shape, every cell *fill*."""
    if len(shape) == 1:
        return [fill] * shape[0]
    return [_grid(shape[1:], fill) for _ in range(shape[0])]


def _has_shape(grid, shape):
    return len(grid) == shape[0] and (
        len(shape) == 1 or all(_has_shape(g, shape[1:]) for g in grid))


def _sparse(grid, depth, lift=None):
    """The nonzero cells of a grid (a coefficient vector, a tensor grid)
    as (index tuple, value) pairs in row-major order, lifted if asked."""
    rows = [((), grid)]
    for _ in range(depth - 1):
        rows = [(idx + (i,), sub) for idx, g in rows for i, sub in enumerate(g)]
    return [(idx + (i,), v) for idx, row in rows
            for i, v in enumerate(row if lift is None else map(lift, row)) if v]


def _vector_cells(vec, dim, ring):
    """The nonzero cells of a coefficient vector, which must have length
    *dim*, each entry lifted by ``ring.lift``: a Scalar of *ring*, an int,
    a Fraction or a str."""
    if len(vec) != dim:
        raise DimensionMismatchError("vector length %d, expected %d" % (len(vec), dim))
    return _sparse(vec, 1, ring.lift)


def _basis_index(i, dim):
    """i, which must index a basis of dimension *dim*: 0 <= i < dim."""
    if not 0 <= i < dim:
        raise DimensionMismatchError("index %r out of range for dimension %d" % (i, dim))
    return i


def _lift_cells(ring, data, shape, name):
    """The nonzero cells of *data*, a dense grid of the given shape or a
    dict ``{index tuple: value}``, as a lifted {index tuple: scalar} dict.

    A dict key must be a tuple of ints (not bools), each in range for its
    slot.  A value that is a Scalar over *ring* itself is adopted as it
    is, and any other value goes through ``ring.lift``."""
    if not isinstance(data, dict):
        if not _has_shape(data, shape):
            raise DimensionMismatchError("%s must be a %s grid or a dict of cells"
                                         % (name, "x".join(map(str, shape))))
        return dict(_sparse(data, len(shape), ring.lift))
    cells, rank = {}, len(shape)
    for idx, v in data.items():
        if type(idx) is not tuple or len(idx) != rank:
            _bad_index(idx, shape, name)
        for i, s in zip(idx, shape):
            if type(i) is not int or not 0 <= i < s:
                _bad_index(idx, shape, name)
        if type(v) is not Scalar or v.ring is not ring:
            v = ring.lift(v)
        if v:
            cells[idx] = v
    return cells


def _bad_index(idx, shape, name):
    raise DimensionMismatchError("%r is not a %s index for shape %s"
                                 % (idx, name, "x".join(map(str, shape))))


def _filled(cells, shape, zero):
    """A fresh nested-list grid of the given shape holding *cells*."""
    grid = _grid(shape, zero)
    for (*path, last), v in cells.items():
        row = grid
        for i in path:
            row = row[i]
        row[last] = v
    return grid


def _frozen(cells, shape, zero):
    """A read-only nested-tuple grid of the given shape holding *cells*."""
    def freeze(g):
        return tuple(map(freeze, g)) if type(g) is list else g
    return freeze(_filled(cells, shape, zero))


def _mul_tensor(acc, coeff, factors, negate=False, prefix=()):
    """Add coeff * (f_1 (x) f_2 (x) ...), or subtract it if *negate*, into
    the accumulator *acc* at cells led by *prefix*, where maps act on
    every slot.  Each factor is a sparse list of (index tuple, scalar)
    pairs over one or more consecutive slots, a map's column or row or a
    delta plane; the last, of at least one, is multiplied straight into
    *acc* by ``_Accumulator.mul``."""
    *head, last = factors
    terms = [(prefix, coeff)]
    for factor in head:
        terms = [(idx + i, c * v) for idx, c in terms for i, v in factor]
    for idx, c in terms:
        acc.mul(c, last, negate, idx)


class _Row(list):
    """An innermost row of an ``entries`` grid.  A cell written into it is
    written through to its tensor: lifted into the ring, and dropped from
    the tensor's cells if it is zero."""

    __slots__ = ("_tensor", "_prefix")

    def __init__(self, tensor, prefix, values):
        super().__init__(values)
        self._tensor, self._prefix = tensor, prefix

    def __setitem__(self, i, value):
        if isinstance(i, slice):
            raise TypeError("entries rows are written one cell at a time")
        i = range(len(self))[i]
        t = self._tensor
        value = t.ring.lift(value)
        super().__setitem__(i, value)
        if value:
            t._cells[self._prefix + (i,)] = value
        else:
            t._cells.pop(self._prefix + (i,), None)


class _TensorBase:
    """An element of the rank-fold tensor power of V, stored sparsely as
    ``{(i, j, ...): coefficient of e_i (x) e_j (x) ...}``.  No zero is
    stored, so each operation costs in proportion to the nonzero cells.
    A tensor is falsy exactly when it is zero.

    *entries* is a dense nested-list grid of depth ``rank`` or a dict of
    cells.  The ``entries`` attribute is a dense compatibility view: each
    read builds a fresh grid, and a cell written into one of its rows is
    written through to the cells.  If *parity* (None, 0 or 1) is given,
    every nonzero entry must have that total parity.
    """

    rank = None
    __slots__ = ("ring", "basis", "parity", "_cells")

    def __init__(self, ring, basis, entries=None, parity=None):
        if parity not in (None, 0, 1):
            raise ParityError("a tensor's parity is None, 0 or 1, got %r" % (parity,))
        self.ring, self.basis, self.parity, self._cells = ring, basis, parity, {}
        if entries is not None:
            self._cells = _lift_cells(ring, entries, (basis.dim,) * self.rank,
                                      type(self).__name__)
        if parity is not None:
            parities = basis.parities
            for *idx, v in self.items():
                p = sum(parities[i] for i in idx) % 2
                if p != parity:
                    raise ParityError(
                        "entry %s has parity %d, expected %d"
                        % ("(x)".join(basis.labels[i] for i in idx), p, parity))

    @classmethod
    def _wrap(cls, ring, basis, cells=None, parity=None):
        """A tensor over a cell dict that is already lifted, indexed and
        free of zeros (or an empty one); unlike the constructor it checks nothing."""
        t = object.__new__(cls)
        t.ring, t.basis, t.parity, t._cells = ring, basis, parity, {} if cells is None else cells
        return t

    @classmethod
    def from_dict(cls, ring, basis, data, parity=None):
        return cls(ring, basis, data, parity=parity)

    @property
    def entries(self):
        """A fresh dense grid ``entries[i][j]...``; a cell written into it
        is written through to this tensor."""
        n, cells, zero = self.basis.dim, self._cells, self.ring.zero()

        def grid(prefix):
            if len(prefix) + 1 < self.rank:
                return [grid(prefix + (i,)) for i in range(n)]
            return _Row(self, prefix, [cells.get(prefix + (i,), zero) for i in range(n)])
        return grid(())

    def items(self):
        """Nonzero entries as (i, j, ..., value), in row-major order."""
        return [idx + (v,) for idx, v in sorted(self._cells.items())]

    def _check_compat(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("cannot combine %s with %r" % (type(self).__name__, other))
        _check_same_basis(self.basis, other.basis)
        if not _same_ring(self.ring, other.ring):
            raise DimensionMismatchError("tensors over different rings")

    def __add__(self, other, negate=False):
        """self + other, or self - other if *negate*, in one pass."""
        self._check_compat(other)
        parity = self.parity if self.parity == other.parity else None
        cells = dict(self._cells)
        for idx, v in other._cells.items():
            _add_at(cells, idx, v, negate)
        return self._wrap(self.ring, self.basis, cells, parity)

    def __sub__(self, other):
        return self.__add__(other, True)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.ring.lift(c)
        cells = {idx: w for idx, v in self._cells.items() if (w := c * v)}
        return self._wrap(self.ring, self.basis, cells, self.parity)

    def apply(self, f, slot):
        """Apply an even endomorphism of the basis to one tensor slot (0 to
        rank - 1); every slot shares the one basis."""
        _check_same_basis(f.src, self.basis)
        _check_same_basis(f.dst, self.basis)
        if not 0 <= slot < self.rank:
            raise ValueError("%s slots are 0 to %d" % (type(self).__name__, self.rank - 1))
        cols, acc = f._cols, _Accumulator(f.ring)
        for idx, v in self._cells.items():
            acc.mul(v, cols[idx[slot]], False, idx[:slot], idx[slot + 1:])
        return self._wrap(f.ring, self.basis, acc.cells(), self.parity)

    def apply_all(self, f):
        out = self
        for slot in range(self.rank):
            out = out.apply(f, slot)
        return out

    def is_zero(self):
        return not self._cells

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.basis == other.basis and _same_ring(self.ring, other.ring)
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


def _require_rank(t, rank):
    if t.rank != rank:
        raise TypeError("a %d-slot permutation cannot act on %s"
                        % (rank, type(t).__name__))


def tau(t):
    """Graded flip on a Tensor2."""
    _require_rank(t, 2)
    p = t.basis.parities
    cells = {(j, i): -v if p[i] & p[j] else v for (i, j), v in t._cells.items()}
    return t._wrap(t.ring, t.basis, cells, t.parity)


def xi(t):
    """Graded cyclic rotation on a Tensor3 (first slot moves to the back)."""
    _require_rank(t, 3)
    p = t.basis.parities
    cells = {(j, k, i): -v if p[i] & (p[j] ^ p[k]) else v
             for (i, j, k), v in t._cells.items()}
    return t._wrap(t.ring, t.basis, cells, t.parity)


def cyclic_sum(t):
    """t + xi(t) + xi(xi(t)) for a Tensor3, added into one accumulator;
    xi(xi(t)) is the rotation that moves the last slot to the front."""
    _require_rank(t, 3)
    p, acc = t.basis.parities, _Accumulator(t.ring)
    for (i, j, k), v in t._cells.items():
        acc.add((i, j, k), v)
        acc.add((j, k, i), v, p[i] & (p[j] ^ p[k]))
        acc.add((k, i, j), v, p[k] & (p[i] ^ p[j]))
    return t._wrap(t.ring, t.basis, acc.cells(), t.parity)
