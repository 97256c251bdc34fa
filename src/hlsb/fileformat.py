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
skew completion).

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
from .superlinear import EvenMap, SuperBasis, Tensor2, _add_at

FORMAT_VERSION = 1

# Largest basis a definition may declare.  The structure map is written
# as a dense matrix, so a file at this limit holds at least 128^2 alpha
# entries; checking such a structure visits about 128^3 / 6 Jacobi
# triples.
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
        return ring.parse(str(value))
    except (ParseError, ScalarError) as exc:
        _fail(path, "bad scalar %r (%s)" % (value, exc))


def _index(value, dim, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected a basis index, got %r" % (value,))
    if not 0 <= value < dim:
        _fail(path, "index %d out of range for dimension %d" % (value, dim))
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
        parity = item.get("parity")
        if parity not in (0, 1):
            _fail(here, "parity must be 0 or 1, got %r" % (parity,))
        labels.append(item["label"])
        parities.append(parity)
    if len(set(labels)) != len(labels):
        _fail(path, "duplicate basis labels")
    return SuperBasis(parities, labels)


def _sparse3(ring, value, dim, path):
    """Bracket or cobracket triples as a cell dict {(i, j, k): scalar}."""
    cells = {}
    if value is None:
        return cells
    _expect(isinstance(value, list), path, "expected a list of triples")
    for t, item in enumerate(value):
        here = "%s[%d]" % (path, t)
        _expect(isinstance(item, list) and len(item) == 4, here,
                "expected [i, j, k, scalar]")
        idx = tuple(_index(item[m], dim, here) for m in range(3))
        if idx in cells:
            _fail(here, "duplicate entry (%d, %d, %d)" % idx)
        cells[idx] = _scalar(ring, item[3], here)
    return cells


def _tensor(algebra, name, value):
    ring, basis = algebra.ring, algebra.basis
    path = "tensors[%r]" % name
    _expect(isinstance(value, dict), path, "expected an object")
    kind = value.get("kind")
    if kind == "tensor2":
        entries = value.get("entries")
        _expect(isinstance(entries, list), path + ".entries",
                "expected a list of [i, j, scalar]")
        cells = {}
        for e, item in enumerate(entries):
            here = "%s.entries[%d]" % (path, e)
            _expect(isinstance(item, list) and len(item) == 3, here,
                    "expected [i, j, scalar]")
            i = _index(item[0], basis.dim, here)
            j = _index(item[1], basis.dim, here)
            _add_at(cells, (i, j), _scalar(ring, item[2], here))
        return Tensor2._wrap(ring, basis, cells)
    if kind == "map":
        matrix = _matrix(ring, value.get("matrix"), basis.dim, basis.dim,
                         path + ".matrix")
        try:
            return EvenMap(ring, basis, basis, matrix)
        except ParityError as exc:
            _fail(path, str(exc))
    if kind == "representation":
        from .constructions import Representation

        module = _basis(value.get("module_basis"), path + ".module_basis")
        mat = _matrix(ring, value.get("module_map"), module.dim, module.dim,
                      path + ".module_map")
        try:
            module_map = EvenMap(ring, module, module, mat)
        except ParityError as exc:
            _fail(path + ".module_map", str(exc))
        raw = value.get("matrices")
        _expect(isinstance(raw, list) and len(raw) == basis.dim,
                path + ".matrices",
                "expected one matrix per algebra basis element")
        matrices = [_matrix(ring, raw[i], module.dim, module.dim,
                            "%s.matrices[%d]" % (path, i))
                    for i in range(basis.dim)]
        return Representation(algebra, module, module_map, matrices)
    _fail(path, "unknown kind %r" % (kind,))


def parse_definition(data):
    """Build a :class:`Definition` from a decoded JSON object."""
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        _fail("format_version",
              "expected %d, got %r" % (FORMAT_VERSION, version))

    params = data.get("parameters", [])
    _expect(isinstance(params, list), "parameters", "expected a list")
    names, invertible = [], []
    for i, item in enumerate(params):
        here = "parameters[%d]" % i
        _expect(isinstance(item, dict) and isinstance(item.get("name"), str),
                here, "expected an object with a name")
        names.append(item["name"])
        if item.get("invertible", False):
            invertible.append(item["name"])
    try:
        ring = ParamRing(names, invertible=invertible)
    except ScalarError as exc:
        _fail("parameters", str(exc))

    basis = _basis(data.get("basis"), "basis")
    n = basis.dim
    matrix = _matrix(ring, data.get("alpha"), n, n, "alpha")
    try:
        alpha = EvenMap(ring, basis, basis, matrix)
    except ParityError as exc:
        _fail("alpha", str(exc))
    bracket = _sparse3(ring, data.get("bracket"), n, "bracket")
    cobracket = _sparse3(ring, data.get("cobracket"), n, "cobracket")
    bialgebra = HomSuperBialgebra(ring, basis, bracket, cobracket, alpha)

    tensors = {}
    raw = data.get("tensors", {})
    _expect(isinstance(raw, dict), "tensors", "expected an object")
    for name, value in raw.items():
        tensors[name] = _tensor(bialgebra.algebra, name, value)

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


def dump_definition(defn):
    """Serialize a :class:`Definition` back to a JSON-ready dict."""
    from .constructions import Representation

    ring, basis = defn.ring, defn.basis
    B = defn.bialgebra
    n = basis.dim
    data = {"format_version": FORMAT_VERSION}
    if defn.description:
        data["description"] = defn.description
    data["parameters"] = [{"name": name,
                           "invertible": name in ring.invertible}
                          for name in ring.names]
    data["basis"] = [{"label": basis.labels[i], "parity": basis.parity(i)}
                     for i in range(n)]
    data["alpha"] = [[str(B.alpha.matrix[i][j]) for j in range(n)]
                     for i in range(n)]
    data["bracket"] = [[i, j, k, str(v)]
                       for (i, j, k), v in sorted(_bracket_cells(B.algebra).items())]
    data["cobracket"] = [[i, j, k, str(v)]
                         for (i, j, k), v in sorted(_cobracket_cells(B.coalgebra).items())]
    if defn.tensors:
        out = {}
        for name in sorted(defn.tensors):
            value = defn.tensors[name]
            if isinstance(value, Tensor2):
                out[name] = {"kind": "tensor2",
                             "entries": [[i, j, str(v)]
                                         for i, j, v in value.items()]}
            elif isinstance(value, EvenMap):
                out[name] = {"kind": "map",
                             "matrix": [[str(value.matrix[i][j])
                                         for j in range(n)]
                                        for i in range(n)]}
            elif isinstance(value, Representation):
                m = value.module_basis.dim
                out[name] = {
                    "kind": "representation",
                    "module_basis": [{"label": value.module_basis.labels[i],
                                      "parity": value.module_basis.parity(i)}
                                     for i in range(m)],
                    "module_map": [[str(value.module_map.matrix[i][j])
                                    for j in range(m)] for i in range(m)],
                    "matrices": [[[str(mat[i][j]) for j in range(m)]
                                  for i in range(m)]
                                 for mat in value.matrices],
                }
            else:
                raise TypeError("cannot serialize tensor %r of type %s"
                                % (name, type(value).__name__))
        data["tensors"] = out
    return data


def definition_text(defn):
    return json.dumps(dump_definition(defn), indent=2) + "\n"


def definition_from_bialgebra(B, description="", tensors=None):
    return Definition(B.ring, B.basis, B, dict(tensors or {}), description)
