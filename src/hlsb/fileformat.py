"""Versioned JSON schema for structure definitions.

A definition file carries a parameter ring, a graded basis, the structure
map as a matrix of scalar strings, sparse bracket and cobracket triples,
and optional named payloads (2-tensors, candidate morphism matrices,
module actions).  The same schema is used for the shipped catalog data and
for everything the command line reads or writes, so files round-trip:
``parse -> serialize -> parse`` reproduces the structures exactly.

Index convention: entries reference basis positions 0-based.  ``alpha`` is
stored row-major with ``alpha[i][j]`` the coefficient of basis element
``i`` in the image of basis element ``j``.  A bracket triple ``[i, j, k,
expr]`` contributes ``expr * e_k`` to the bracket of ``(e_i, e_j)``; a
cobracket triple ``[i, j, k, expr]`` contributes ``expr * e_j (x) e_k`` to
the image of ``e_i``.  Bracket triples are stored in full (no implicit
skew completion).  A missing ``bracket`` or ``cobracket`` is empty.

Fields are read strictly: ``format_version``, parities and indices must
be JSON integers (``true`` or ``1.0`` is refused), a parameter's
``invertible`` must be ``true`` or ``false``, and every entry list
(bracket, cobracket, 2-tensor entries) refuses a repeated index tuple.
Each schema element has one reader and one writer, shared by the top
level and every payload kind.

Parsing is bounded: a basis may have at most ``MAX_DIMENSION`` elements,
and every scalar string obeys the parser limits of :mod:`hlsb.scalar`
(``MAX_NESTING``, ``MAX_POWER_SIZE``, ``MAX_PRODUCT_TERMS``).  Input past
a limit raises :class:`ParseError`.  Bracket and cobracket triples go to
the structures as cells, so parsing costs in proportion to the file, not
to the cube of the dimension.

:class:`hlsb.constructions.Representation` is imported only where a
``representation`` payload is read or written, so loading a file without
one does not load :mod:`hlsb.constructions`.
"""

from __future__ import annotations

import json

from .errors import ParityError, ParseError, ScalarError
from .scalar import ParamRing
from .structures import HomSuperBialgebra, _bracket_cells, _cobracket_cells
from .superlinear import EvenMap, SuperBasis, Tensor2

FORMAT_VERSION = 1

# Largest basis a definition may declare.  The structure map is written
# as a dense matrix, so a file at this limit holds at least 128^2 alpha
# entries.  Checking Jacobi costs one product per term of each nonzero
# hop [alpha(e_a), [e_b, e_c]], not a visit to each of the 128^3 / 6
# triples, so a sparse bracket at this limit checks in milliseconds.
MAX_DIMENSION = 128


class Definition:
    """A parsed definition file: the ring, the basis, the bialgebra, the
    named payloads and the description."""

    def __init__(self, ring, basis, bialgebra, tensors=None, description=""):
        self.ring = ring
        self.basis = basis
        self.bialgebra = bialgebra
        self.tensors = {} if tensors is None else tensors
        self.description = description


def _fail(path, message):
    raise ParseError("%s: %s" % (path, message))


def _expect(cond, path, message):
    if not cond:
        _fail(path, message)


def _scalar(ring, value, path):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        _fail(path, "expected a scalar string, got %r" % (value,))
    try:
        return ring.lift(value)
    except (ParseError, ScalarError) as exc:
        _fail(path, "bad scalar %r (%s)" % (value, exc))


def _choice(value, choices, path, what):
    """*value*, which must be a JSON integer in *choices*, described as *what*."""
    if isinstance(value, bool) or not isinstance(value, int) or value not in choices:
        _fail(path, "expected %s, got %r" % (what, value))
    return value


def _matrix(ring, value, nrows, ncols, path):
    _expect(isinstance(value, list) and len(value) == nrows, path,
            "expected %d rows" % nrows)
    out = []
    for i, row in enumerate(value):
        _expect(isinstance(row, list) and len(row) == ncols,
                "%s[%d]" % (path, i), "expected %d entries" % ncols)
        out.append([_scalar(ring, row[j], "%s[%d][%d]" % (path, i, j))
                    for j in range(ncols)])
    return out


def _even_map(ring, value, basis, path):
    """An even endomorphism of *basis* from its matrix."""
    try:
        return EvenMap(ring, basis, basis, _matrix(ring, value, basis.dim, basis.dim, path))
    except ParityError as exc:
        _fail(path, str(exc))


def _basis(value, path):
    _expect(isinstance(value, list) and value, path,
            "expected a non-empty list of basis elements")
    _expect(len(value) <= MAX_DIMENSION, path, "%d basis elements, more than "
            "MAX_DIMENSION = %d" % (len(value), MAX_DIMENSION))
    labels, parities = [], []
    for i, item in enumerate(value):
        here = "%s[%d]" % (path, i)
        _expect(isinstance(item, dict), here, "expected an object")
        _expect(isinstance(item.get("label"), str) and item["label"], here,
                "missing label")
        labels.append(item["label"])
        parities.append(_choice(item.get("parity"), (0, 1), here + ".parity", "parity 0 or 1"))
    if len(set(labels)) != len(labels):
        _fail(path, "duplicate basis labels")
    return SuperBasis(parities, labels)


def _cells(ring, value, dim, rank, path):
    """Entries ``[i, ..., scalar]`` with *rank* basis indices as a cell dict
    of their nonzero scalars; an index tuple may appear only once."""
    shape = "[%s, scalar]" % ", ".join("ijk"[:rank])
    what = "a basis index below %d" % dim
    _expect(isinstance(value, list), path, "expected a list of " + shape)
    cells = {}
    for t, item in enumerate(value):
        here = "%s[%d]" % (path, t)
        _expect(isinstance(item, list) and len(item) == rank + 1, here, "expected " + shape)
        idx = tuple(_choice(i, range(dim), here, what) for i in item[:rank])
        if idx in cells:
            _fail(here, "duplicate entry %r" % (idx,))
        cells[idx] = _scalar(ring, item[rank], here)
    return {idx: v for idx, v in cells.items() if v}


def _tensor(algebra, name, value):
    ring, basis = algebra.ring, algebra.basis
    path = "tensors[%r]" % name
    _expect(isinstance(value, dict), path, "expected an object")
    kind = value.get("kind")
    if kind == "tensor2":
        cells = _cells(ring, value.get("entries"), basis.dim, 2, path + ".entries")
        return Tensor2._wrap(ring, basis, cells)
    if kind == "map":
        return _even_map(ring, value.get("matrix"), basis, path + ".matrix")
    if kind == "representation":
        from .constructions import Representation

        module = _basis(value.get("module_basis"), path + ".module_basis")
        module_map = _even_map(ring, value.get("module_map"), module, path + ".module_map")
        raw = value.get("matrices")
        _expect(isinstance(raw, list) and len(raw) == basis.dim, path + ".matrices",
                "expected one matrix per algebra basis element")
        matrices = [_matrix(ring, m, module.dim, module.dim, "%s.matrices[%d]" % (path, i))
                    for i, m in enumerate(raw)]
        return Representation(algebra, module, module_map, matrices)
    _fail(path, "unknown kind %r" % (kind,))


def parse_definition(data):
    """Build a :class:`Definition` from a decoded JSON object."""
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    _choice(data.get("format_version"), (FORMAT_VERSION,), "format_version",
            str(FORMAT_VERSION))

    params = data.get("parameters", [])
    _expect(isinstance(params, list), "parameters", "expected a list")
    names, invertible = [], []
    for i, item in enumerate(params):
        here = "parameters[%d]" % i
        _expect(isinstance(item, dict) and isinstance(item.get("name"), str),
                here, "expected an object with a name")
        names.append(item["name"])
        flag = item.get("invertible", False)
        _expect(isinstance(flag, bool), here + ".invertible", "expected true or false")
        if flag:
            invertible.append(item["name"])
    try:
        ring = ParamRing(names, invertible=invertible)
    except ScalarError as exc:
        _fail("parameters", str(exc))

    basis = _basis(data.get("basis"), "basis")
    alpha = _even_map(ring, data.get("alpha"), basis, "alpha")
    bracket, cobracket = (_cells(ring, data.get(key, []), basis.dim, 3, key)
                          for key in ("bracket", "cobracket"))
    bialgebra = HomSuperBialgebra(ring, basis, bracket, cobracket, alpha)

    raw = data.get("tensors", {})
    _expect(isinstance(raw, dict), "tensors", "expected an object")
    tensors = {name: _tensor(bialgebra.algebra, name, value) for name, value in raw.items()}

    description = data.get("description", "")
    _expect(isinstance(description, str), "description", "expected a string")
    return Definition(ring, basis, bialgebra, tensors, description)


def loads_definition(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc, text=text,
                         pos=getattr(exc, "pos", None))
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode") from None
    return parse_definition(data)


def load_definition(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_definition(text)


def _basis_data(basis):
    return [{"label": label, "parity": p} for label, p in zip(basis.labels, basis.parities)]


def _grid_data(grid):
    """A matrix of scalars as rows of scalar strings."""
    return [[str(v) for v in row] for row in grid]


def _cell_data(cells):
    """A cell dict as entries ``[i, ..., scalar string]`` in index order."""
    return [[*idx, str(v)] for idx, v in sorted(cells.items())]


def dump_definition(defn):
    """Serialize a :class:`Definition` back to a JSON-ready dict."""
    from .constructions import Representation

    ring, B = defn.ring, defn.bialgebra
    data = {"format_version": FORMAT_VERSION}
    if defn.description:
        data["description"] = defn.description
    data["parameters"] = [{"name": name,
                           "invertible": name in ring.invertible}
                          for name in ring.names]
    data["basis"] = _basis_data(defn.basis)
    data["alpha"] = _grid_data(B.alpha.matrix)
    data["bracket"] = _cell_data(_bracket_cells(B.algebra))
    data["cobracket"] = _cell_data(_cobracket_cells(B.coalgebra))
    if defn.tensors:
        out = {}
        for name in sorted(defn.tensors):
            value = defn.tensors[name]
            if isinstance(value, Tensor2):
                out[name] = {"kind": "tensor2", "entries": _cell_data(value._cells)}
            elif isinstance(value, EvenMap):
                out[name] = {"kind": "map", "matrix": _grid_data(value.matrix)}
            elif isinstance(value, Representation):
                out[name] = {"kind": "representation",
                             "module_basis": _basis_data(value.module_basis),
                             "module_map": _grid_data(value.module_map.matrix),
                             "matrices": [_grid_data(mat) for mat in value.matrices]}
            else:
                raise TypeError("cannot serialize tensor %r of type %s"
                                % (name, type(value).__name__))
        data["tensors"] = out
    return data


def definition_text(defn):
    return json.dumps(dump_definition(defn), indent=2) + "\n"


def definition_from_bialgebra(B, description="", tensors=None):
    return Definition(B.ring, B.basis, B, dict(tensors or {}), description)
