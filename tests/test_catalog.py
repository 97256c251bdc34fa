import random
from fractions import Fraction

import pytest

import hlsb.structures
from hlsb.catalog import (
    CatalogRow,
    Stratum,
    catalog_list,
    catalog_payload,
    concrete_variant,
    expand_variants,
    get_row,
    verify_all,
    verify_row,
)
from hlsb.errors import ScalarError
from hlsb.fileformat import dump_definition, parse_definition
from hlsb.scalar import ParamRing, Scalar
from hlsb.structures import _bracket_cells, _cobracket_cells
from hlsb.superlinear import _map_cells, koszul_sign

from test_structures import substituted_per_cell


def test_row_inventory():
    rows = catalog_list()
    idents = [r.ident for r in rows]
    assert len(idents) == len(set(idents)) == 42
    assert idents[0] == "dim2"
    assert sum(1 for i in idents if i.startswith("diagonal-")) == 24
    assert sum(1 for i in idents if i.startswith("jordan-")) == 17
    assert sum(len(expand_variants(r)) for r in rows) == 77


def test_listed_shapes_match_fixed_rows():
    row = get_row("diagonal-1")
    assert row.cobracket == {(0, 2, 2): "c5"}
    assert row.alpha[(2, 2)] == "-1"
    jordan = get_row("jordan-1")
    assert jordan.alpha == {(1, 0): "1"}  # e1 -> e2, everything else dies
    dim2 = get_row("dim2")
    assert dim2.parities == (0, 1)
    assert not dim2.multiplicative


def test_every_row_verifies_symbolically():
    summary = verify_all()
    assert summary.passed, summary.summary()


def test_empty_catalog_is_vacuously_fine():
    assert verify_all([]).passed


def test_sign_variant_counts():
    assert get_row("diagonal-10").sign_variants == 2
    assert get_row("jordan-13").sign_variants == 4
    assert get_row("diagonal-8").sign_variants == 2
    assert get_row("diagonal-1").sign_variants == 0
    assert get_row("dim2").sign_variants == 6


def test_substitution_listing_mentions_signs():
    subs = get_row("diagonal-10").substitutions
    assert "a4 := s^2" in subs
    assert "a5 := +/-s" in subs


def test_variant_substitutions_resolve_dependencies():
    variants = {v.label: v for v in expand_variants(get_row("jordan-13"))}
    assert set(variants) == {"signed-plus-plus", "signed-plus-minus",
                             "signed-minus-plus", "signed-minus-minus"}
    # a5 = 1 and c4 = c1/2 make the odd cobracket coefficient collapse
    assert variants["signed-plus-plus"].substitutions["c5"] == "0"
    assert variants["signed-plus-minus"].substitutions["c5"] != "0"


def test_concrete_instances_pass(rng):
    for ident in ("diagonal-10", "jordan-13", "jordan-6", "dim2"):
        row = get_row(ident)
        for variant in expand_variants(row):
            B = concrete_variant(variant, rng=rng)
            assert B.check(multiplicative=row.multiplicative).passed


def test_concrete_assignment_override():
    variant = expand_variants(get_row("diagonal-1"))[0]
    B = concrete_variant(variant, assignment={"a4": -1, "b4": 2, "b5": 3,
                                              "c5": 5})
    assert B.bracket[0][1][1] == 2
    assert B.check(multiplicative=True).passed


def test_concrete_assignment_is_exact():
    variant = expand_variants(get_row("diagonal-1"))[0]
    with pytest.raises(ScalarError, match="float"):
        concrete_variant(variant, assignment={"a4": 0.1})
    B = concrete_variant(variant, assignment={"a4": "1/10"})
    assert B.alpha.matrix[1][1] == Fraction(1, 10)


def test_concrete_assignment_refuses_a_name_outside_the_variant_ring():
    variant = expand_variants(get_row("diagonal-1"))[0]
    with pytest.raises(ScalarError, match="a5_typo"):
        concrete_variant(variant, assignment={"a4": -1, "b4": 2, "b5": 3, "c5": 5,
                                              "a5_typo": 7})


def test_concrete_variant_is_the_per_cell_map_on_every_variant():
    """With random.Random(k), concrete_variant gives the ring and sparse
    constants of the per-cell oracle at the values that rng draws: for
    each parameter in ring order, a numerator in 1..9, a denominator in
    1..4 and a sign."""
    variants = [v for row in catalog_list() for v in expand_variants(row)]
    assert len(variants) == 77
    for k, variant in enumerate(variants):
        got = concrete_variant(variant, rng=random.Random(k))
        rng, values = random.Random(k), {}
        for name in variant.ring.names:
            value = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            values[name] = -value if rng.random() < 0.5 else value
        want = substituted_per_cell(variant.bialgebra, values, ParamRing())
        assert got.ring == want.ring == ParamRing(), variant.ident
        assert got.algebra._rows == want.algebra._rows, variant.ident
        assert got.coalgebra._planes == want.coalgebra._planes, variant.ident
        assert got.alpha._cols == want.alpha._cols, variant.ident


def test_every_variant_ring_keeps_the_unsubstituted_parameters():
    for row in catalog_list():
        base = [name for name, _ in row.params]
        invertible = {name for name, inv in row.params if inv}
        strata = []
        for stratum in row.strata:
            groups = {g for _, _, g in stratum.substitutions if g is not None}
            strata += [stratum] * 2 ** len(groups)
        variants = expand_variants(row)
        assert len(variants) == len(strata)
        for stratum, variant in zip(strata, variants):
            assert variant.label.startswith(stratum.label)
            targets = {target for target, _, _ in stratum.substitutions}
            extra = [name for name, _ in stratum.extra_params]
            kept = tuple(extra + [name for name in base if name not in targets])
            ring = variant.ring
            assert ring.names == kept, variant.ident
            assert ring.invertible == (invertible | {
                name for name, inv in stratum.extra_params if inv}) & set(kept)
            B = variant.bialgebra
            n = B.basis.dim
            constants = [B.alpha.matrix[i][j] for i in range(n) for j in range(n)]
            constants += [grid[i][j][k] for grid in (B.bracket, B.cobracket)
                          for i in range(n) for j in range(n) for k in range(n)]
            assert all(c.ring == ring for c in constants), variant.ident
            for text in variant.substitutions.values():
                ring.parse(text)


def test_building_the_variants_maps_no_scalar_between_rings(monkeypatch):
    calls = []
    substitute = Scalar.substitute
    monkeypatch.setattr(Scalar, "substitute",
                        lambda self, *args, **kw: calls.append(1) or substitute(self, *args, **kw))
    variants = [v for row in catalog_list() for v in expand_variants(row)]
    assert len(variants) == 77
    assert calls == []
    for v in variants:  # every constant lives over the variant's ring object
        B = v.bialgebra
        assert all(value.ring is v.ring for value in [
            *_bracket_cells(B.algebra).values(), *_cobracket_cells(B.coalgebra).values(),
            *_map_cells(B.alpha).values()]), v.ident


def _flip_one_entry(variant, i, j, k, cobracket=False):
    B = variant.bialgebra
    grid = B.cobracket if cobracket else B.bracket
    import copy
    new = [[[grid[a][b][c] for c in range(B.basis.dim)]
            for b in range(B.basis.dim)] for a in range(B.basis.dim)]
    new[i][j][k] = -new[i][j][k]
    from hlsb.structures import HomSuperBialgebra
    if cobracket:
        return HomSuperBialgebra(B.ring, B.basis, B.bracket, new, B.alpha)
    return HomSuperBialgebra(B.ring, B.basis, new, B.cobracket, B.alpha)


def test_mutation_sensitivity_on_paired_entries():
    # negating one member of any skew pair must trip at least one axiom
    flipped = 0
    for row in catalog_list():
        for variant in expand_variants(row):
            B = variant.bialgebra
            n = B.basis.dim
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        if B.bracket[i][j][k].is_zero():
                            continue
                        bad = _flip_one_entry(variant, i, j, k)
                        assert not bad.check(
                            multiplicative=row.multiplicative).passed
                        flipped += 1
            for i in range(n):
                for j in range(n):
                    for k in range(j + 1, n):
                        if B.cobracket[i][j][k].is_zero():
                            continue
                        bad = _flip_one_entry(variant, i, j, k,
                                              cobracket=True)
                        assert not bad.check(
                            multiplicative=row.multiplicative).passed
                        flipped += 1
    assert flipped > 100


def _without_substitution(row, dropped):
    strata = []
    for st in row.strata:
        subs = tuple(s for s in st.substitutions if s[0] != dropped)
        strata.append(Stratum(st.label, st.extra_params, subs))
    return CatalogRow(row.ident, row.description, row.parities, row.params,
                      row.alpha, row.bracket, row.cobracket, tuple(strata),
                      row.multiplicative, row.expected)


@pytest.mark.parametrize("ident,dropped", [
    ("diagonal-10", "c6"),
    ("diagonal-10", "b5"),
    ("diagonal-11", "c4"),
    ("jordan-6", "c4"),
    ("jordan-13", "b5"),
    ("jordan-8", "c4"),
])
def test_dropping_a_side_condition_breaks_the_row(ident, dropped):
    row = get_row(ident)
    assert verify_row(row).passed
    broken = _without_substitution(row, dropped)
    report = verify_row(broken)
    assert not report.passed
    # the freed parameter must show up in some residual
    text = "\n".join(repr(v) for v in report.violations)
    assert dropped in text


def test_injected_swap_sign_error_hits_exactly_odd_square_rows(monkeypatch):
    """A graded-swap that forgets the sign on odd-odd pairs must break
    exactly the rows whose cobracket touches the odd square."""
    from hlsb.superlinear import Tensor2

    def flat_tau(t):
        out = Tensor2(t.ring, t.basis)
        for i, j, value in t.items():
            out.entries[j][i] = out.entries[j][i] + value
        return out

    monkeypatch.setattr(hlsb.structures, "tau", flat_tau)
    affected, clean = set(), set()
    for row in catalog_list():
        has_odd_square = any(
            row.parities[j] == 1 and row.parities[k] == 1
            for (_, j, k) in row.cobracket)
        (affected if has_odd_square else clean).add(row.ident)
        report = verify_row(row)
        assert report.passed == (row.ident not in affected), row.ident
    assert "diagonal-1" in affected and "diagonal-2" in clean


def test_schema_round_trip_is_structurally_identical():
    payload = catalog_payload()
    for row in payload["rows"][:8]:
        for var in row["variants"]:
            defn = parse_definition(var["definition"])
            assert dump_definition(defn) == var["definition"]


def test_get_row_unknown():
    with pytest.raises(KeyError):
        get_row("diagonal-99")
