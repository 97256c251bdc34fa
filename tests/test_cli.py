import json
import time
from collections import Counter
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlsb import structures
from hlsb.catalog import expand_variants, get_row
from hlsb.cli import main
from hlsb.constructions import adjoint_representation
from hlsb.fileformat import (
    MAX_DIMENSION,
    definition_from_bialgebra,
    definition_text,
    load_definition,
    loads_definition,
)
from hlsb.scalar import _Accumulator
from hlsb.structures import HomSuperAlgebra
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


@pytest.mark.parametrize("parity", [2, True, 1.0])
def test_malformed_parity_is_a_parse_error(tmp_path, capsys, parity):
    data = {
        "format_version": 1,
        "parameters": [],
        "basis": [{"label": "e1", "parity": parity}],
        "alpha": [["1"]],
        "bracket": [],
        "cobracket": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parity" in err


@pytest.mark.parametrize("where, value, message", [
    (["format_version"], True, "format_version"),
    (["format_version"], 1.0, "format_version"),
    (["parameters", 0, "invertible"], "no", "invertible"),
    (["parameters", 0, "invertible"], 1, "invertible"),
    (["tensors", "r", "entries"], [[0, 1, "1"], [0, 1, "1"]], "duplicate entry"),
    (["bracket"], None, "bracket"),
], ids=["version-true", "version-float", "invertible-string", "invertible-int",
        "repeated-tensor2-entry", "null-bracket"])
def test_loosely_typed_field_is_a_parse_error(tmp_path, capsys, where, value, message):
    data = json.loads(json.dumps(FUZZ_SEED))
    *parents, last = where
    owner = data
    for key in parents:
        owner = owner[key]
    owner[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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


def test_huge_power_is_a_parse_error(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    for name, scalar in (("poly.json", "1 + (1 + b4)^100000 - (1 + b4)^100000"),
                         ("const.json", "2^1234567890")):
        data = json.loads(path.read_text())
        data["alpha"][0][0] = scalar
        bad = tmp_path / name
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "MAX_POWER_SIZE" in err and "Traceback" not in err


def test_exponent_of_max_exponent_is_a_parse_error(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    data = json.loads(path.read_text())
    data["parameters"].append({"name": "s", "invertible": True})
    data["alpha"][0][0] = "s^4611686018427387904"
    bad = tmp_path / "exponent.json"
    bad.write_text(json.dumps(data))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "MAX_EXPONENT" in err and "Traceback" not in err


def test_long_product_of_sums_is_a_parse_error(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    data = json.loads(path.read_text())
    data["parameters"] += [{"name": "q%d" % i} for i in range(30)]
    data["alpha"][0][0] = "*".join("(1+q%d)" % i for i in range(30))
    bad = tmp_path / "product.json"
    bad.write_text(json.dumps(data))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "MAX_PRODUCT_TERMS" in err and "Traceback" not in err


def wide_definition(dim):
    """A definition with a dim-element basis of alternating parities
    (e0 even), alpha = id and a handful of bracket and cobracket triples."""
    return {
        "format_version": 1,
        "basis": [{"label": "e%d" % i, "parity": i % 2} for i in range(dim)],
        "alpha": [["1" if i == j else "0" for j in range(dim)] for i in range(dim)],
        "bracket": [[0, 1, 1, "2"], [1, 0, 1, "-2"], [0, 3, 3, "5"], [3, 0, 3, "-5"]],
        "cobracket": [[1, 0, 1, "1"], [1, 1, 0, "-1"]],
    }


def test_dim100_definition_parses_in_little_memory():
    text = json.dumps(wide_definition(100))
    tracemalloc.start()
    try:
        defn = loads_definition(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
    B = defn.bialgebra
    assert B.dim == 100 and B.bracket[3][0][3] == -5 and B.cobracket[1][1][0] == -1


def test_dimension_limit_is_a_parse_error(tmp_path, capsys):
    ok = tmp_path / "at-limit.json"
    ok.write_text(json.dumps({**wide_definition(MAX_DIMENSION), "cobracket": []}))
    assert load_definition(ok).bialgebra.dim == MAX_DIMENSION
    bad = tmp_path / "too-wide.json"
    bad.write_text(json.dumps(wide_definition(MAX_DIMENSION + 1)))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "MAX_DIMENSION" in err and "Traceback" not in err


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


def test_catalog_list_honours_row(capsys):
    assert main(["catalog", "list", "--row", "jordan-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("jordan-1 ")
    assert main(["catalog", "list", "--row", "nope"]) == 2
    assert "unknown catalog row 'nope'" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2


def write_semidirect_input(tmp_path):
    """diagonal-1 with its adjoint action as a "representation" payload."""
    path, v = write_variant(tmp_path, "diagonal-1")
    rep = adjoint_representation(v.bialgebra.algebra)
    data = json.loads(path.read_text())
    data["tensors"] = {"ad": {
        "kind": "representation",
        "module_basis": data["basis"],
        "module_map": data["alpha"],
        "matrices": [[[str(x) for x in row] for row in mat] for mat in rep.matrices],
    }}
    path.write_text(json.dumps(data))
    return path, v


def test_construct_semidirect_round_trips(tmp_path):
    path, v = write_semidirect_input(tmp_path)
    again = tmp_path / "again.json"
    again.write_text(definition_text(load_definition(path)))
    assert json.loads(again.read_text())["tensors"] == json.loads(path.read_text())["tensors"]
    out = tmp_path / "semi.json"
    assert main(["construct", "semidirect", str(again), "--rep", "ad",
                 "--out", str(out)]) == 0
    result = load_definition(out)
    assert result.basis.dim == 2 * v.bialgebra.dim
    assert main(["check", str(out)]) == 0


def test_construct_semidirect_wrong_matrix_count(tmp_path, capsys):
    path, _ = write_semidirect_input(tmp_path)
    data = json.loads(path.read_text())
    data["tensors"]["ad"]["matrices"].pop()
    path.write_text(json.dumps(data))
    out = tmp_path / "semi.json"
    assert main(["construct", "semidirect", str(path), "--rep", "ad",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "one matrix per algebra basis element" in err and "Traceback" not in err


def test_construct_semidirect_rejects_an_action_that_breaks_parity(tmp_path, capsys):
    path, _ = write_semidirect_input(tmp_path)
    data = json.loads(path.read_text())
    # rho(e1) sending the even e1 to the odd e3
    data["tensors"]["ad"]["matrices"][0][2][0] = "1"
    path.write_text(json.dumps(data))
    out = tmp_path / "semi.json"
    assert main(["construct", "semidirect", str(path), "--rep", "ad",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "action-grading" in err and "Traceback" not in err
    assert not out.exists()


def count_products(monkeypatch):
    """Patch ``_Accumulator.mul`` to record, for each row entry it is
    passed (one product each), the (prefix, suffix) cell placement."""
    products, kernel = [], _Accumulator.mul

    def counted_kernel(acc, x, row, negate=False, prefix=(), suffix=()):
        row = list(row)
        products.extend((prefix, suffix) for _ in row)
        return kernel(acc, x, row, negate, prefix, suffix)
    monkeypatch.setattr(_Accumulator, "mul", counted_kernel)
    return products


def test_wide_check_evaluates_only_jacobi_triples_with_a_bracket(monkeypatch):
    data = wide_definition(MAX_DIMENSION)
    A = loads_definition(json.dumps(data)).bialgebra.algebra
    calls, replayed = [], structures._replayed
    products = count_products(monkeypatch)

    def counted(ring, entries, split):
        before = len(products)
        out = replayed(ring, entries, split)
        if split == 3:
            calls.append(len(products) - before)
        return out
    monkeypatch.setattr(structures, "_replayed", counted)
    assert A.check(multiplicative=True).passed
    # alpha = id and each [e_b, e_c] here is one term y e_m: the hop
    # [e_a, [e_b, e_c]] is one product where [e_a, e_m] is nonzero, once
    # per nondecreasing rotation of (a, b, c)
    bracket = {(i, j): k for i, j, k, _ in data["bracket"]}
    want = sum(sorted(t) == list(t) for (b, c), m in bracket.items()
               for a in range(A.dim) if (a, m) in bracket
               for t in ((a, b, c), (b, c, a), (c, a, b)))
    assert calls == [want] and 0 < want < 300


def test_wide_check_evaluates_only_skew_and_mult_pairs_with_a_bracket(monkeypatch):
    data = wide_definition(MAX_DIMENSION)
    A = loads_definition(json.dumps(data)).bialgebra.algebra
    skew, mult = [], []
    skew_cells, replayed = HomSuperAlgebra._skew_cells, structures._replayed
    monkeypatch.setattr(HomSuperAlgebra, "_skew_cells",
                        lambda self, *args: skew.append(args) or skew_cells(self, *args))
    products = count_products(monkeypatch)

    def counted(ring, entries, split):
        before = len(products)
        out = replayed(ring, entries, split)
        if split == 2:
            mult.append(len(products) - before)
        return out
    monkeypatch.setattr(structures, "_replayed", counted)
    assert A.check(multiplicative=True).passed
    assert A.is_multiplicative()
    assert skew == [(0, 1), (0, 3)]
    # alpha = id and each [e_i, e_j] here is one term: its residual
    # alpha([e_i, e_j]) - [alpha(e_i), alpha(e_j)] is one product for each
    # half, and a pair with no bracket gets none
    assert mult == [2 * len(data["bracket"])] * 2 == [8, 8]


def adjoint_products(data):
    """The products the adjoint representation check of *data*, with
    alpha = id and one term per bracket cell, adds at each (instance,
    column): the intertwine residual at (i, c), one per half of
    beta(rho(e_i) v_c) - rho(alpha(e_i)) beta(v_c); the action residual at
    (i, j), column c, one for rho([e_i, e_j]) v_c and one for each of
    rho(alpha(e_i)) rho(e_j) v_c and rho(alpha(e_j)) rho(e_i) v_c."""
    bracket = {(i, j): k for i, j, k, _ in data["bracket"]}
    want = Counter()
    for (i, c), k in bracket.items():
        want[(i, c), ()] += 2
        for a in range(len(data["basis"])):
            if (a, k) in bracket:  # [e_a, [e_i, e_c]] is nonzero
                want[(a, i), (c,)] += 1
                want[(i, a), (c,)] += 1
    for (i, j), k in bracket.items():
        for c in range(len(data["basis"])):
            if (k, c) in bracket:  # rho([e_i, e_j]) v_c is nonzero
                want[(i, j), (c,)] += 1
    return want


def test_wide_representation_check_evaluates_only_pairs_an_action_enters(monkeypatch):
    data = wide_definition(32)
    rep = adjoint_representation(loads_definition(json.dumps(data)).bialgebra.algebra)
    products = count_products(monkeypatch)
    assert rep.check().passed
    # besides the residuals' products, each table row rho([e_i, e_j]) =
    # y rho(e_k) is built with one product per cell of rho(e_k)
    bracket = {(i, j): k for i, j, k, _ in data["bracket"]}
    rows = sum(a == k for k in bracket.values() for a, _ in bracket)
    assert len(products) == sum(adjoint_products(data).values()) + rows == 24


def test_wide_representation_check_evaluates_only_columns_an_action_reaches(monkeypatch):
    data = wide_definition(32)
    rep = adjoint_representation(loads_definition(json.dumps(data)).bialgebra.algebra)
    products = count_products(monkeypatch)
    assert rep.check().passed
    # the residuals' products, by the (instance, column) they enter; a
    # table row's products are placed at one index only
    placed = Counter(placement for placement in products if len(placement[0] + placement[1]) > 1)
    assert placed == adjoint_products(data) and sum(placed.values()) == 20


def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    path, _ = write_variant(tmp_path, "diagonal-1")
    assert main(["construct", "dual", str(path), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["check", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def one_map_definition(tmp_path, alpha, parameters):
    """A definition with zero bracket and cobracket and the given alpha,
    so that every power of alpha is a bialgebra endomorphism."""
    data = {"format_version": 1, "parameters": parameters,
            "basis": [{"label": "e%d" % i, "parity": 0} for i in range(len(alpha))],
            "alpha": alpha, "bracket": [], "cobracket": []}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    return path


def test_twist_power_of_a_non_monomial_alpha_is_bounded(tmp_path, capsys):
    path = one_map_definition(tmp_path, [["1+a"]], [{"name": "a"}])
    out = tmp_path / "out.json"
    for n in (1024, 16384):
        start = time.perf_counter()
        assert main(["construct", "twist", str(path), "--power", str(n),
                     "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert "MAX_POWER_SIZE" in capsys.readouterr().err
    assert not out.exists()
    # below the bound the power is computed: (1 + a)^3 = 1 + 3a + 3a^2 + a^3
    assert main(["construct", "twist", str(path), "--power", "2", "--out", str(out)]) == 0
    assert load_definition(out).bialgebra.alpha.matrix[0][0] == loads_definition(
        json.dumps({"format_version": 1, "parameters": [{"name": "a"}],
                    "basis": [{"label": "e0", "parity": 0}],
                    "alpha": [["(1+a)^3"]]})).bialgebra.alpha.matrix[0][0]


def test_twist_power_of_a_signed_monomial_alpha_is_not_bounded(tmp_path):
    path = one_map_definition(tmp_path, [["a", "0"], ["0", "-a"]],
                              [{"name": "a", "invertible": True}])
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["construct", "twist", str(path), "--power", "1000000000",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(out.read_text())["alpha"] == [["a^1000000001", "0"],
                                                    ["0", "-a^1000000001"]]


def _fuzz_seed():
    """A valid definition of dim2 with a 2-tensor, a map and the adjoint
    representation, as decoded JSON."""
    v = expand_variants(get_row("dim2"))[1]
    B = v.bialgebra
    r = Tensor2.from_dict(v.ring, B.basis, {(0, 1): 1, (1, 0): -1})
    defn = definition_from_bialgebra(B, tensors={
        "r": r, "id": EvenMap.identity(v.ring, B.basis),
        "ad": adjoint_representation(B.algebra)})
    return json.loads(definition_text(defn))


FUZZ_SEED = _fuzz_seed()
DEEP = "__deep__"
JUNK = [None, True, False, 0, 1, -1, 2, 10 ** 9, 2 ** 70, 1.5, "", "x", "e1", "1/0",
        "a^", "((1)", "(" * 150 + "1" + ")" * 150, "-" * 5000 + "1", "2^1234567890",
        "(1+b)^100000", [], [0], [0, 1, 1], [True, 0, 1, "1"], [0, 0, 9, "1"],
        [[]], {}, {"kind": "map"}, {"label": "e1", "parity": 1}, DEEP]


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(mutations):
    """FUZZ_SEED as JSON text after each (where, what) mutation: the node
    at path number *where* (modulo the path count) is replaced by
    JUNK[what], or deleted if *what* is len(JUNK); DEEP becomes 100 000
    nested brackets."""
    data = json.loads(json.dumps(FUZZ_SEED))
    for where, what in mutations:
        paths = list(_paths(data))[1:]
        *parents, last = paths[where % len(paths)]
        owner = data
        for key in parents:
            owner = owner[key]
        if what == len(JUNK):
            del owner[last]
        else:
            owner[last] = json.loads(json.dumps(JUNK[what]))
    text = json.dumps(data)
    return text.replace(json.dumps(DEEP), "[" * 100000 + "]" * 100000)


@settings(max_examples=400, deadline=1000, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, len(JUNK))),
                min_size=1, max_size=3))
def test_check_on_a_mutated_definition_exits_0_1_or_2(tmp_path_factory, mutations):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    path.write_text(_mutated(mutations))
    assert main(["check", str(path)]) in (0, 1, 2)
