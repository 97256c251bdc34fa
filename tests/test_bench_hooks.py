"""The benchmark's tracing hooks must find every entry point they patch,
so that a refactor that moves one fails here instead of silently
dropping a layer from ``bench/run.py --trace 1``."""

import importlib
import importlib.util
import os

import pytest

from hlsb import scalar, structures, superlinear, yangbaxter
from hlsb.scalar import ParamRing
from hlsb.superlinear import SuperBasis, Tensor2, Tensor3

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "hlsb_bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing():
    return _load("tracing")


def test_every_spanned_target_resolves(tracing):
    for targets in tracing.SPANNED.values():
        for module_name, path in targets:
            importlib.import_module(module_name)
            owner, attr = tracing._resolve(module_name, path)
            if isinstance(owner, type):
                assert attr in owner.__dict__, "%s.%s" % (module_name, path)
            else:
                assert callable(getattr(owner, attr)), "%s.%s" % (module_name, path)


def test_tracer_and_counter_install_and_remove(tracing):
    originals = {name: Tensor2.__dict__[name] for name in ("__init__", "__add__")}
    ring = ParamRing()
    basis = SuperBasis([0, 1])
    tracer = tracing.Tracer()
    counter = tracing.Counter(seed=1)
    try:
        tracer.install()
        counter.install()
        t = Tensor2(ring, basis) + Tensor2.from_dict(ring, basis, {(0, 0): 1})
        Tensor3(ring, basis)
        assert not t.is_zero()
    finally:
        counter.remove()
        tracer.remove()
    assert counter.counts["superlinear.tensor_allocs"] >= 3
    assert counter.counts["superlinear.grid_cells"] >= 2 * 4 + 8
    names = {tracer.names[row[0]] for row in tracer.rows()}
    assert {"superlinear.Tensor2.__init__", "superlinear.Tensor2.__add__",
            "superlinear.Tensor2.from_dict", "superlinear.Tensor3.__init__",
            "superlinear._TensorBase.is_zero"} <= names
    for name, value in originals.items():
        assert Tensor2.__dict__[name] is value


def test_traced_coboundary_check_counts_fill_on_sparse_tensors(tracing):
    glmn = _load("glmn")
    A = glmn.gl_algebra(1, 1)
    r = glmn.cartan_wedge(A, 1, 1)
    hooked = [(Tensor2, "__init__"), (Tensor2, "__add__"), (Tensor3, "apply"),
              (scalar.Scalar, "__add__"), (scalar.Scalar, "__mul__"),
              (structures, "ad_action"), (superlinear, "cyclic_sum")]
    originals = [vars(owner)[name] for owner, name in hooked]
    tracer = tracing.Tracer()
    counter = tracing.Counter(seed=1)
    try:
        tracer.install()
        counter.install()
        # through the module, so that the call meets the tracer's span
        report = yangbaxter.coboundary_from_r(A, r).check(multiplicative=True)
    finally:
        counter.remove()
        tracer.remove()
    assert report.passed, report.summary()
    assert counter.counts["fill.nonzero"] > 0
    assert counter.counts["fill.cells"] >= counter.counts["fill.nonzero"]
    assert counter.counts["scalar.mul_calls"] > 0
    names = {tracer.names[row[0]] for row in tracer.rows()}
    assert {"yangbaxter.coboundary_from_r", "structures._compat_residual",
            "superlinear.cyclic_sum"} <= names
    for (owner, name), value in zip(hooked, originals):
        assert vars(owner)[name] is value, name
