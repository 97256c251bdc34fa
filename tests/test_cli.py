import json

import pytest

from hlsb.catalog import expand_variants, get_row
from hlsb.cli import main
from hlsb.fileformat import (
    definition_from_bialgebra,
    definition_text,
    load_definition,
)
from hlsb.superlinear import EvenMap, Tensor2


def write_variant(tmp_path, ident, name="input.json", tensors=None,
                  variant=0):
    v = expand_variants(get_row(ident))[variant]
    defn = definition_from_bialgebra(v.bialgebra, description=v.ident,
                                     tensors=tensors or {})
    path = tmp_path / name
    path.write_text(definition_text(defn))
    return path, v


def test_check_passes_on_catalog_variant(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    assert main(["check", str(path), "--multiplicative"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "pass  compatibility" in out


def test_check_dim2_strata_pass_without_multiplicativity(tmp_path):
    for k in range(6):
        path, _ = write_variant(tmp_path, "dim2", name="v%d.json" % k,
                                variant=k)
        assert main(["check", str(path)]) == 0


def test_check_fails_naming_compatibility(tmp_path, capsys):
    # a1 = a2 = b = d = 1, c = 0 violates exactly the cocycle condition
    data = {
        "format_version": 1,
        "parameters": [],
        "basis": [{"label": "e1", "parity": 0}, {"label": "e2", "parity": 1}],
        "alpha": [["1", "0"], ["0", "1"]],
        "bracket": [[0, 1, 1, "1"], [1, 0, 1, "-1"]],
        "cobracket": [[1, 0, 1, "1"], [1, 1, 0, "-1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  compatibility" in out


def test_check_json_format_agrees(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "jordan-4")
    code = main(["check", str(path), "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["passed"] is True
    assert data["subject"]


def test_malformed_parity_is_a_parse_error(tmp_path, capsys):
    data = {
        "format_version": 1,
        "parameters": [],
        "basis": [{"label": "e1", "parity": 2}],
        "alpha": [["1"]],
        "bracket": [],
        "cobracket": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parity" in err


def test_deeply_nested_scalar_is_a_parse_error(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    for name, scalar in (("parens.json", "(" * 5000 + "1" + ")" * 5000),
                         ("signs.json", "-" * 5000 + "1")):
        data = json.loads(path.read_text())
        data["alpha"][0][0] = scalar
        bad = tmp_path / name
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "nested deeper" in err and "Traceback" not in err


def test_missing_file_and_bad_json(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check", str(broken)]) == 2


def test_construct_dual_round_trips(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-3")
    out = tmp_path / "dual.json"
    assert main(["construct", "dual", str(path), "--out", str(out)]) == 0
    assert main(["check", str(out), "--multiplicative"]) == 0


def test_construct_twist_identity_preserves_tensors(tmp_path):
    v = expand_variants(get_row("diagonal-1"))[0]
    ident = EvenMap.identity(v.ring, v.bialgebra.basis)
    path, _ = write_variant(tmp_path, "diagonal-1", tensors={"id": ident})
    out = tmp_path / "twisted.json"
    assert main(["construct", "twist", str(path), "--morphism", "id",
                 "--out", str(out)]) == 0
    result = load_definition(out)
    assert result.bialgebra.bracket == v.bialgebra.bracket
    assert result.bialgebra.cobracket == v.bialgebra.cobracket
    assert result.bialgebra.alpha == v.bialgebra.alpha


def test_construct_twist_power(tmp_path):
    path, _ = write_variant(tmp_path, "diagonal-24")
    out = tmp_path / "tw2.json"
    assert main(["construct", "twist", str(path), "--power", "2",
                 "--out", str(out)]) == 0
    assert main(["check", str(out), "--multiplicative"]) == 0


def test_construct_twist_flag_validation(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    out = tmp_path / "x.json"
    assert main(["construct", "twist", str(path), "--out", str(out)]) == 2
    assert main(["construct", "twist", str(path), "--power", "-1",
                 "--out", str(out)]) == 2


def test_construct_coboundary_rejects_non_skew_r(tmp_path, capsys):
    v = expand_variants(get_row("diagonal-1"))[0]
    r = Tensor2.from_dict(v.ring, v.bialgebra.basis, {(0, 0): 1})
    path, _ = write_variant(tmp_path, "diagonal-1", tensors={"r": r})
    out = tmp_path / "x.json"
    assert main(["construct", "coboundary", str(path), "--r", "r",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "r21 = -r" in err


def test_construct_coboundary_valid_r(tmp_path):
    # on the a4-generic scaling algebra the odd square spans the admissible
    # tensors, and its coboundary is again a checkable structure
    v = expand_variants(get_row("diagonal-1"))[0]
    r = Tensor2.from_dict(v.ring, v.bialgebra.basis, {(2, 2): 7})
    path, _ = write_variant(tmp_path, "diagonal-1", tensors={"r": r})
    out = tmp_path / "cob.json"
    assert main(["construct", "coboundary", str(path), "--r", "r",
                 "--out", str(out)]) == 0
    assert main(["check", str(out), "--multiplicative"]) == 0


def test_construct_perturb(tmp_path):
    v = expand_variants(get_row("diagonal-1"))[0]
    t = Tensor2.from_dict(v.ring, v.bialgebra.basis, {(2, 2): 1})
    path, _ = write_variant(tmp_path, "diagonal-1", tensors={"t": t})
    out = tmp_path / "pert.json"
    assert main(["construct", "perturb", str(path), "--t", "t",
                 "--out", str(out)]) == 0
    result = load_definition(out)
    c5 = v.ring.param("c5")
    b5 = v.ring.param("b5")
    assert result.bialgebra.cobracket[0][2][2] == c5 - 2 * b5


def test_construct_double_doubles_the_dimension(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1", variant=0)
    out = tmp_path / "double.json"
    assert main(["construct", "double", str(path), "--out", str(out)]) == 0
    result = load_definition(out)
    assert result.basis.dim == 6


def test_construct_unknown_tensor_name(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    out = tmp_path / "x.json"
    assert main(["construct", "coboundary", str(path), "--r", "nope",
                 "--out", str(out)]) == 2


def test_catalog_list_mentions_dim2(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "dim2" in out and "jordan-17" in out


def test_catalog_verify_single_row(capsys):
    assert main(["catalog", "verify", "--row", "jordan-1"]) == 0
    assert "jordan-1" in capsys.readouterr().out


def test_catalog_verify_unknown_row(capsys):
    assert main(["catalog", "verify", "--row", "made-up"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
