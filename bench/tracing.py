"""Spans and counters installed from outside the package.

A :class:`Tracer` replaces entry points of the hlsb modules with wrappers
that record one span per call: name, start, end, parent span and the
workload operation that was running.  Module functions are replaced in
every hlsb module that holds them, so calls through module globals are
caught; methods are replaced on their class, so ``self.`` calls are caught.
:meth:`Tracer.remove` puts the originals back.

Scalar arithmetic runs millions of times per pass, and a span around each
call would inflate every other layer's self time, so a :class:`Counter`
pass counts those calls instead, together with tensor allocations and the
fill of the grids entering the contractions.
"""

import array
import functools
import gzip
import json
import random
import sys
import time

# Spanned entry points, by layer: (module, attribute path).
SPANNED = {
    "scalar": [
        ("hlsb.scalar", "ParamRing.parse"),
        ("hlsb.scalar", "Scalar.substitute"),
    ],
    "superlinear": [
        ("hlsb.superlinear", name) for name in (
            "Tensor2.__init__", "Tensor2.__add__", "Tensor2.scale",
            "Tensor2.apply", "Tensor2.apply_all", "Tensor2.from_dict",
            "Tensor3.__init__", "Tensor3.__add__", "Tensor3.scale",
            "Tensor3.apply", "Tensor3.apply_all",
            "_TensorBase.__sub__", "_TensorBase.is_zero", "_TensorBase.__eq__",
            "EvenMap.__init__", "EvenMap.apply", "EvenMap.compose",
            "EvenMap.power", "EvenMap.transpose",
            "tau", "xi", "cyclic_sum")
    ],
    "structures": [
        ("hlsb.structures", name) for name in (
            "HomSuperAlgebra.grading_violations",
            "HomSuperAlgebra.skew_residual",
            "HomSuperAlgebra.jacobi_residual",
            "HomSuperAlgebra.mult_residual",
            "HomSuperAlgebra.check",
            "HomSuperAlgebra.is_multiplicative",
            "HomSuperCoalgebra.grading_violations",
            "HomSuperCoalgebra.coskew_residual",
            "HomSuperCoalgebra.cojacobi_residual",
            "HomSuperCoalgebra.comult_residual",
            "HomSuperCoalgebra.check",
            "HomSuperCoalgebra.is_comultiplicative",
            "HomSuperBialgebra.check",
            "ad_action", "_compat_residual", "delta0", "delta1")
    ],
    "yangbaxter": [
        ("hlsb.yangbaxter", name) for name in (
            "yang_baxter_residual", "coboundary_hypothesis_violations",
            "coboundary_from_r", "alpha_fixed_tensors", "rational_nullspace",
            "random_fixed_tensor")
    ],
    "constructions": [
        ("hlsb.constructions", name) for name in (
            "dualize", "twist", "twist_power", "manin_supertriple")
    ],
    "catalog": [
        ("hlsb.catalog", "expand_variants"),
        ("hlsb.catalog", "concrete_variant"),
    ],
    "fileformat": [
        ("hlsb.fileformat", name) for name in (
            "load_definition", "parse_definition", "dump_definition",
            "definition_text")
    ],
}


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _hlsb_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hlsb" or name.startswith("hlsb."))]


class _Patches:
    """Replace attributes and remember how to put them back."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name, path, make_wrapper):
        owner, attr = _resolve(module_name, path)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(owner, attr)
        new = make_wrapper(original)
        for module in _hlsb_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, new)
                    self._undo.append((module, name, original))

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


class Tracer:
    """Span recorder.  Each span is five integers ``name_id, start_ns,
    end_ns, parent, op_id`` in one flat array, which the garbage collector
    does not traverse, so recording does not change how often it runs.
    Spans are appended when they start, so a parent's index is always
    below its children's."""

    def __init__(self):
        self.names = []
        self.spans = array.array("q")
        self.op = -1
        self._stack = [-1]
        self._patches = _Patches()

    def _wrapper(self, name, fn):
        k = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            at = len(spans)
            spans.extend((k, clock(), 0, stack[-1], tracer.op))
            stack.append(at // 5)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[at + 2] = clock()
        return traced

    def install(self):
        for targets in SPANNED.values():
            for module_name, path in targets:
                name = module_name.split(".")[-1] + "." + path
                self._patches.replace(
                    module_name, path,
                    lambda fn, name=name: self._wrapper(name, fn))

    def remove(self):
        self._patches.remove()

    def rows(self):
        """The spans as (name_id, start_ns, end_ns, parent, op_id)."""
        s = self.spans
        return [tuple(s[i:i + 5]) for i in range(0, len(s), 5)]

    def summary(self):
        return SpanSummary(self.names, self.rows())

    def write(self, path):
        """Write the name table and one span per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.rows():
                fh.write("[%d,%d,%d,%d,%d]\n" % span)


class SpanSummary:
    """Calls, self time and inclusive time of groups of span names."""

    def __init__(self, names, spans):
        self._ids = {name: k for k, name in enumerate(names)}
        child = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        # per span: (name id, duration, self, name ids of its callers)
        self._rows = []
        chains = []
        empty = frozenset()
        for i, (k, start, end, parent, _) in enumerate(spans):
            chain = empty if parent < 0 else chains[parent] | {spans[parent][0]}
            chains.append(chain)
            self._rows.append((k, end - start, end - start - child[i], chain))

    def _select(self, names):
        return {self._ids[n] for n in names if n in self._ids}

    def calls(self, names):
        ids = self._select(names)
        return sum(1 for k, _, _, _ in self._rows if k in ids)

    def self_s(self, names):
        ids = self._select(names)
        return sum(own for k, _, own, _ in self._rows if k in ids) / 1e9

    def inclusive_s(self, names):
        """Time inside any of *names*, each instant counted once."""
        ids = self._select(names)
        return sum(dur for k, dur, _, chain in self._rows
                   if k in ids and not chain & ids) / 1e9


def _nonzero_cells(t):
    grid = t.entries
    if grid and grid[0] and isinstance(grid[0][0], list):
        return sum(1 for plane in grid for row in plane for v in row if v), \
            len(grid) ** 3
    return sum(1 for row in grid for v in row if v), len(grid) ** 2


class Counter:
    """Counts calls of the scalar operators and tensor allocations, and
    the fill of the tensors entering ``ad_action`` and ``cyclic_sum``.
    It also keeps a seeded reservoir sample of the operand pairs of scalar
    additions and multiplications, for timing those on the workload's own
    operands."""

    KEYS = ("scalar.add_calls", "scalar.mul_calls", "scalar.eq_calls",
            "scalar.ring_eq_calls", "superlinear.tensor_allocs",
            "superlinear.grid_cells", "fill.nonzero", "fill.cells")
    SAMPLE = 400

    def __init__(self, seed):
        self.counts = dict.fromkeys(self.KEYS, 0)
        self.operands = {"scalar.add_calls": [], "scalar.mul_calls": []}
        self._rng = random.Random(seed)
        self._patches = _Patches()

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _sampling(self, key, fn):
        counts, sample, rng, size = (self.counts, self.operands[key],
                                     self._rng, self.SAMPLE)
        scalar = sys.modules["hlsb.scalar"].Scalar

        @functools.wraps(fn)
        def sampled(a, b):
            counts[key] += 1
            if isinstance(b, scalar):
                if len(sample) < size:
                    sample.append((a, b))
                else:
                    k = rng.randrange(counts[key])
                    if k < size:
                        sample[k] = (a, b)
            return fn(a, b)
        return sampled

    def _allocating(self, power, fn):
        counts = self.counts

        @functools.wraps(fn)
        def allocating(self_, ring, basis, *args, **kwargs):
            counts["superlinear.tensor_allocs"] += 1
            counts["superlinear.grid_cells"] += basis.dim ** power
            return fn(self_, ring, basis, *args, **kwargs)
        return allocating

    def _filling(self, position, fn):
        counts = self.counts

        @functools.wraps(fn)
        def filling(*args, **kwargs):
            nonzero, cells = _nonzero_cells(args[position])
            counts["fill.nonzero"] += nonzero
            counts["fill.cells"] += cells
            return fn(*args, **kwargs)
        return filling

    def install(self):
        replace = self._patches.replace
        for path, key in (("Scalar.__add__", "scalar.add_calls"),
                          ("Scalar.__radd__", "scalar.add_calls"),
                          ("Scalar.__mul__", "scalar.mul_calls"),
                          ("Scalar.__rmul__", "scalar.mul_calls")):
            replace("hlsb.scalar", path,
                    lambda fn, key=key: self._sampling(key, fn))
        for path, key in (("Scalar.__eq__", "scalar.eq_calls"),
                          ("ParamRing.__eq__", "scalar.ring_eq_calls")):
            replace("hlsb.scalar", path,
                    lambda fn, key=key: self._counting(key, fn))
        replace("hlsb.superlinear", "Tensor2.__init__",
                lambda fn: self._allocating(2, fn))
        replace("hlsb.superlinear", "Tensor3.__init__",
                lambda fn: self._allocating(3, fn))
        replace("hlsb.structures", "ad_action",
                lambda fn: self._filling(2, fn))
        replace("hlsb.superlinear", "cyclic_sum",
                lambda fn: self._filling(0, fn))

    def remove(self):
        self._patches.remove()
