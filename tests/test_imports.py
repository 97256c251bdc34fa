"""The package's import graph follows use: ``import hlsb.cli`` loads only
what ``hlsb check`` runs, and every public name of ``hlsb`` resolves
lazily to the current attribute of the module that defines it."""

import json
import os
import subprocess
import sys

import pytest

import hlsb
from hlsb.catalog import expand_variants, get_row
from hlsb.constructions import adjoint_representation
from hlsb.fileformat import definition_from_bialgebra, definition_text

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

PUBLIC = {
    "BilinearForm", "CatalogRow", "CatalogSummary", "CatalogVariant", "CheckReport",
    "Definition", "DimensionMismatchError", "EVEN", "EvenMap", "HlsbError",
    "HomSuperAlgebra", "HomSuperBialgebra", "HomSuperCoalgebra", "HypothesisError",
    "ManinTriple", "MatchedPair", "MorphismError", "ODD", "ParamRing", "ParityError",
    "ParseError", "QuasiTriangularEquivalences", "Representation", "RingMismatchError",
    "Scalar", "ScalarError", "Stratum", "SuperBasis", "Tensor2", "Tensor3", "Violation",
    "__version__", "ad_action", "ad_basis", "adjoint_representation",
    "alpha_fixed_tensors", "bialgebra_from_deltas", "catalog_list", "catalog_payload",
    "check_admissible", "check_coboundary", "check_dual_pair",
    "check_perturbation_hypotheses", "check_quasi_triangular", "coadjoint_action",
    "cobracket_from_dual_bracket", "coboundary_from_r", "coboundary_hypothesis_violations",
    "concrete_variant", "cyclic_sum", "definition_from_bialgebra", "definition_text",
    "delta0", "delta1", "dual_basis", "dual_coadjoint_action", "dual_matched_pair",
    "dual_representation", "dualize", "dump_definition", "expand_variants", "get_row",
    "invert_even_map", "koszul_sign", "load_definition", "loads_definition",
    "manin_supertriple", "parse_definition", "perturb_cobracket", "perturbation_defect",
    "quasi_triangular_equivalences", "random_fixed_tensor", "semidirect_product", "tau",
    "transport_structure", "twist", "twist_power", "verify_all", "verify_row",
    "verify_variant", "xi", "yang_baxter_residual", "zero_bracket", "zero_cobracket",
}


def _python(*args):
    paths = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_importing_the_cli_loads_only_what_check_runs():
    done = _python("-c", "import json, sys, hlsb.cli; print(json.dumps(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert not loaded & {"hlsb.catalog", "hlsb.yangbaxter", "hlsb.constructions",
                         "dataclasses"}
    assert {"hlsb.fileformat", "hlsb.structures"} <= loaded


def test_public_names_are_unchanged():
    assert len(PUBLIC) == 84
    assert set(hlsb.__all__) == PUBLIC
    scope = {}
    exec("from hlsb import *", scope)
    assert PUBLIC <= set(scope)
    assert scope["twist"] is hlsb.constructions.twist
    assert scope["__version__"] == hlsb.__version__


def test_submodules_and_missing_names():
    assert hlsb.structures.HomSuperAlgebra is hlsb.HomSuperAlgebra
    with pytest.raises(AttributeError):
        hlsb.no_such_name
    assert "__all__" in dir(hlsb) and "twist" in dir(hlsb)


def test_a_public_name_follows_a_patched_module(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(hlsb.constructions, "twist", sentinel)
    assert hlsb.twist is sentinel
    monkeypatch.undo()
    assert hlsb.twist is not sentinel


def test_check_reads_a_representation_payload_in_a_fresh_process(tmp_path):
    v = expand_variants(get_row("diagonal-1"))[0]
    B = v.bialgebra
    defn = definition_from_bialgebra(B, tensors={"ad": adjoint_representation(B.algebra)})
    path = tmp_path / "with_rep.json"
    path.write_text(definition_text(defn))
    done = _python("-m", "hlsb.cli", "check", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "result: PASS" in done.stdout


def test_construct_dual_never_loads_yangbaxter(tmp_path):
    v = expand_variants(get_row("diagonal-1"))[0]
    path = tmp_path / "in.json"
    path.write_text(definition_text(definition_from_bialgebra(v.bialgebra)))
    out = tmp_path / "dual.json"
    code = ("import json, sys\nfrom hlsb.cli import main\n"
            "code = main(['construct', 'dual', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(json.dumps([code, sorted(sys.modules)]))")
    done = _python("-c", code, str(path), str(out))
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert code == 0 and out.exists()
    assert "hlsb.constructions" in loaded and "hlsb.yangbaxter" not in loaded
