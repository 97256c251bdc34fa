"""End-to-end acceptance checks for the package's top-level guarantees.

Each test covers one headline property — catalog soundness, closure of the
constructions, the cohomological identities, and agreement with the
independent dense evaluator — and prints a single ``verdict`` line so a
full run reads as a scorecard.  Everything here is exact: symbolic over
the parameter rings where possible, seeded rational instances elsewhere.
"""

import dataclasses
import itertools
import os
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from dense_oracle import DenseOracle, t2_dict, t3_dict, vec_dict
from hlsb.catalog import (
    Stratum,
    catalog_list,
    concrete_variant,
    expand_variants,
    get_row,
    verify_all,
)
from hlsb.constructions import (
    check_admissible,
    check_dual_pair,
    dual_matched_pair,
    dualize,
    manin_supertriple,
    twist_power,
)
from hlsb.errors import HypothesisError
from hlsb.scalar import ParamRing
from hlsb.structures import (
    HomSuperAlgebra,
    HomSuperBialgebra,
    ad_basis,
    bialgebra_from_deltas,
    delta0,
    delta1,
    zero_bracket,
)
from hlsb.superlinear import EvenMap, SuperBasis, Tensor2
from hlsb.yangbaxter import (
    alpha_fixed_tensors,
    coboundary_from_r,
    coboundary_hypothesis_violations,
    perturb_cobracket,
    check_perturbation_hypotheses,
    quasi_triangular_equivalences,
    random_fixed_tensor,
    yang_baxter_residual,
)

QQ = ParamRing()

SEED = int(os.environ.get("HLSB_SEED", "1729"))


def verdict(num, label, ok, detail=""):
    line = "verdict %02d %-34s %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    return line


def same_tensors(x, y):
    return (x.bracket == y.bracket and x.cobracket == y.cobracket
            and x.alpha.matrix == y.alpha.matrix)


def multiplicative_variants():
    return [v for row in catalog_list() if row.multiplicative
            for v in expand_variants(row)]


# ---------------------------------------------------------------------------
# 1. the two-dimensional family: closure conditions are exactly sharp


def test_two_dimensional_conditions_are_sharp():
    t0 = time.monotonic()
    row = get_row("dim2")

    def family(*subs):
        patched = dataclasses.replace(row, strata=(Stratum("x", (), subs),))
        return expand_variants(patched)[0]

    free = family()
    ring = free.ring
    a2, b, c = ring.param("a2"), ring.param("b"), ring.param("c")
    alg = free.bialgebra.algebra
    # with everything free the residuals are honest polynomials
    assert alg.jacobi_residual(1, 1, 1) == [ring.zero(), 3 * a2 * b * c]
    assert not free.bialgebra.compat_residual(0, 1).is_zero()

    # the six catalog variants kill every residual identically
    for v in expand_variants(row):
        assert v.bialgebra.check().passed, v.ident

    # dropping either closure condition leaves a nonzero polynomial
    only_algebra = family(("a2", "0", None))        # a1 left free
    rep = only_algebra.bialgebra.check()
    assert not rep.passed and "compatibility" in rep.axioms_violated()
    assert any(not only_algebra.bialgebra.compat_residual(i, j).is_zero()
               for i in range(2) for j in range(2))

    only_unit = family(("a1", "1", None))           # a2*b*c, a2*b*d left free
    rep = only_unit.bialgebra.check()
    assert not rep.passed
    assert {"jacobi", "compatibility"} <= set(rep.axioms_violated())

    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    verdict(1, "two-dim conditions sharp", ok, "%.2fs" % elapsed)
    assert ok


# ---------------------------------------------------------------------------
# 2. the whole catalog verifies symbolically


def test_catalog_verifies_symbolically():
    t0 = time.monotonic()
    summary = verify_all()
    elapsed = time.monotonic() - t0
    variants = sum(len(r.details["variants"]) for r in summary.reports)
    ok = summary.passed and len(summary.reports) == 42 and variants == 77 \
        and elapsed < 10.0
    verdict(2, "catalog symbolically zero", ok,
            "42 rows / %d variants / %.2fs" % (variants, elapsed))
    assert summary.passed, summary.summary()
    assert ok


# ---------------------------------------------------------------------------
# 3. twisting by powers of the structure map stays inside the class


def test_twist_powers_stay_valid():
    count = 0
    for v in multiplicative_variants():
        B = v.bialgebra
        zero = twist_power(B, 0)
        assert same_tensors(zero, B), v.ident
        for n in (1, 2, 3):
            rep = twist_power(B, n).check(multiplicative=True)
            assert rep.passed, (v.ident, n, rep.summary())
            count += 1
    verdict(3, "twist powers 0..3 closed", True,
            "%d twisted structures" % count)


# ---------------------------------------------------------------------------
# 4. duality: every row dualizes, double dual is the identity, and the
#    invariant-pairing double closes under "koszul" on a strict superset
#    of the variants where it closes under "plain"
#
#    Validity alone cannot pin the convention: the two differ only in the
#    sign of the odd-odd constants, which preserves every axiom residual.
#    The double carries the supersymmetric pairing and Koszul-signed
#    coadjoint actions, so it can tell them apart.


def test_dual_suite_and_unique_pairing_convention():
    passing = {}
    closes = {}
    involution_ok = True
    for conv in ("koszul", "plain"):
        all_pass = True
        closes[conv] = set()
        for row in catalog_list():
            for v in expand_variants(row):
                D = dualize(v.bialgebra, convention=conv)
                if not D.check(multiplicative=v.multiplicative).passed:
                    all_pass = False
                DD = dualize(D, convention=conv)
                if not (same_tensors(DD, v.bialgebra)
                        and DD.basis.labels == v.bialgebra.basis.labels):
                    involution_ok = False
                # multiplicative=False: g is not admissible on jordan-13,
                # so both conventions fail double:multiplicative there;
                # the pin concerns the double's bracket and its pairing
                if manin_supertriple(v.bialgebra.algebra, D.algebra).passed:
                    closes[conv].add(v.ident)
        passing[conv] = all_pass
    suite_ok = passing["koszul"] and involution_ok
    pinned = closes["plain"] < closes["koszul"]
    ok = suite_ok and pinned
    verdict(4, "dual suite + convention pin", ok,
            "doubles close: koszul %d, plain %d; only koszul: %s" %
            (len(closes["koszul"]), len(closes["plain"]),
             ", ".join(sorted(closes["koszul"] - closes["plain"]))))
    assert suite_ok
    assert pinned, (
        "the invariant-pairing double does not single out koszul: "
        "only koszul closes %s, only plain closes %s"
        % (sorted(closes["koszul"] - closes["plain"]),
           sorted(closes["plain"] - closes["koszul"])))


# ---------------------------------------------------------------------------
# 5. the coboundary differential composes to zero


def test_cohomology_composition_vanishes():
    rng = random.Random(SEED)
    checked = 0
    for v in multiplicative_variants():
        B = concrete_variant(v, rng=rng)
        span = alpha_fixed_tensors(B.algebra, even_only=True)
        for _ in range(100):
            r = random_fixed_tensor(B.algebra, rng, even_only=True, span=span)
            grid = delta1(B.algebra, delta0(B.algebra, r))
            assert all(t.is_zero() for line in grid for t in line), v.ident
            checked += 1
    ok = checked >= 100 * len(multiplicative_variants())
    verdict(5, "d1 after d0 is zero", ok, "%d sampled tensors" % checked)
    assert ok


# ---------------------------------------------------------------------------
# 6. admissible skew tensors produce valid coboundary structures, and the
#    co-Jacobi defect tracks the adjoint Yang-Baxter image exactly


@lru_cache(maxsize=1)
def coboundary_instances():
    """(ident, algebra, r, coboundary bialgebra) for every hypothesis-
    passing candidate from the skew fixed spans of the concrete catalog."""
    rng = random.Random(SEED + 1)
    out = []
    for v in multiplicative_variants():
        B = concrete_variant(v, rng=rng)
        A = B.algebra
        span = alpha_fixed_tensors(A, skew=True, even_only=True)
        candidates = list(span)
        for _ in range(2):
            if span:
                candidates.append(random_fixed_tensor(
                    A, rng, skew=True, even_only=True, span=span))
        for r in candidates:
            if coboundary_hypothesis_violations(A, r):
                continue
            out.append((v.ident, A, r, coboundary_from_r(A, r)))
    return out


def odd_square_algebra():
    """[e2,e2] = e1 with identity structure map; its odd square r = e2(x)e2
    solves none of the quasi-triangular conditions."""
    basis = SuperBasis([0, 1])
    bracket = zero_bracket(QQ, basis)
    bracket[1][1][0] = QQ.one()
    return HomSuperAlgebra(QQ, basis, bracket, EvenMap.identity(QQ, basis))


def test_coboundary_closure_and_cojacobi_identity():
    instances = coboundary_instances()
    nonabelian = 0
    for ident, A, r, C in instances:
        rep = C.check(multiplicative=True)
        assert rep.passed, (ident, rep.summary())
        if any(v for plane in A.bracket for row in plane for v in row):
            nonabelian += 1

    # defect identity, with no Yang-Baxter assumption on r
    rng = random.Random(SEED + 2)
    pool = itertools.cycle(multiplicative_variants())
    checked = 0
    while checked < 50:
        B = concrete_variant(next(pool), rng=rng)
        A = B.algebra
        span = alpha_fixed_tensors(A, skew=True, even_only=True)
        if not span:
            continue
        r = random_fixed_tensor(A, rng, skew=True, even_only=True, span=span)
        Br = bialgebra_from_deltas(A, delta0(A, r))
        yb = yang_baxter_residual(A, r)
        for i in range(A.dim):
            assert (Br.coalgebra.cojacobi_residual(i)
                    == ad_basis(A, i, yb).apply_all(A.alpha))
        checked += 1

    ok = len(instances) >= 50 and nonabelian > 0
    verdict(6, "coboundary closure + defect law", ok,
            "%d instances, %d defect samples" % (len(instances), checked))
    assert ok


# ---------------------------------------------------------------------------
# 7. the three quasi-triangular statements always agree


def test_quasi_triangular_statements_agree():
    classes = {True: 0, False: 0}
    for ident, A, r, C in coboundary_instances():
        eq = quasi_triangular_equivalences(C, r)
        assert eq.all_agree(), (ident, eq.as_tuple())
        classes[eq.as_tuple()[0]] += 1

    # an instance where all three are false, so agreement is not vacuous
    A = odd_square_algebra()
    r = Tensor2.from_dict(QQ, A.basis, {(1, 1): 1})
    C = coboundary_from_r(A, r)
    eq = quasi_triangular_equivalences(C, r)
    assert eq.all_agree() and eq.as_tuple() == (False, False, False)
    classes[False] += 1

    ok = classes[True] > 0 and classes[False] > 0
    verdict(7, "quasi-triangular 3-way agreement", ok,
            "%d hold / %d fail, all agreeing" % (classes[True], classes[False]))
    assert ok


# ---------------------------------------------------------------------------
# 8. pair cocycles, the assembled double, and the invariant pairing agree


def clone_algebra(a, edits=()):
    """A copy of a with (i, j, k, value) edits applied to its bracket grid
    before construction (the ``bracket`` view of a structure is read-only)."""
    grid = [[list(row) for row in plane] for plane in a.bracket]
    for i, j, k, value in edits:
        grid[i][j][k] = value
    return HomSuperAlgebra(a.ring, a.basis, grid,
                           [list(row) for row in a.alpha.matrix])


def pair_of(B):
    return B.algebra, dualize(B).algebra


def concrete(ident, variant, assignment):
    v = expand_variants(get_row(ident))[variant]
    return concrete_variant(v, assignment=assignment)


def dual_pair_fixtures():
    positives, negatives = [], []

    positives.append(("scaling a4=1", pair_of(
        concrete("diagonal-1", 0, {"a4": 1, "b4": 2, "b5": 3, "c5": 5}))))
    positives.append(("scaling a4=-1", pair_of(
        concrete("diagonal-1", 0, {"a4": -1, "b4": 1, "b5": -2, "c5": 3}))))
    positives.append(("diagonal-3 unit", pair_of(
        concrete("diagonal-3", 0, {"b1": 1, "a4": 1, "c2": 1, "c3": 1}))))
    positives.append(("diagonal-10 unit", pair_of(
        concrete("diagonal-10", 0, {"s": 1, "b2": 1, "b4": 1, "c2": 1}))))
    positives.append(("two-dim reflection", pair_of(
        concrete("dim2", 2, {"a2": -1, "c": 2, "d": 3}))))
    basis = SuperBasis([0, 1])
    abelian = HomSuperBialgebra(QQ, basis, zero_bracket(QQ, basis),
                                zero_bracket(QQ, basis),
                                EvenMap.identity(QQ, basis))
    positives.append(("abelian", pair_of(abelian)))

    # a cobracket that is valid on its own but not a cocycle for the bracket
    br = zero_bracket(QQ, basis)
    br[0][1][1] = QQ.one()
    br[1][0][1] = -QQ.one()
    co = zero_bracket(QQ, basis)
    co[1][0][1] = QQ.one()
    co[1][1][0] = -QQ.one()
    mismatched = HomSuperBialgebra(QQ, basis, br, co,
                                   EvenMap.identity(QQ, basis))
    negatives.append(("non-cocycle cobracket", pair_of(mismatched)))

    g, gs = positives[0][1]
    gs_extra = clone_algebra(gs, [(0, 1, 1, QQ.lift(5)), (1, 0, 1, QQ.lift(-5))])
    negatives.append(("extra dual constant", (g, gs_extra)))

    gs_moved = clone_algebra(gs, [(2, 2, 0, QQ.zero()), (2, 2, 1, QQ.lift(5))])
    negatives.append(("moved dual target", (g, gs_moved)))

    row = get_row("diagonal-10")
    stratum = row.strata[0]
    freed = dataclasses.replace(
        row, strata=(dataclasses.replace(
            stratum,
            substitutions=tuple(s for s in stratum.substitutions
                                if s[0] != "c6")),))
    broken10 = concrete_variant(
        expand_variants(freed)[0],
        assignment={"s": 1, "b2": 1, "b4": 2, "c2": 3, "c6": 7})
    negatives.append(("freed side condition", pair_of(broken10)))

    br2 = zero_bracket(QQ, basis)
    br2[0][1][1] = QQ.one()
    br2[1][0][1] = -QQ.one()
    br2[1][1][0] = QQ.lift(2)
    co2 = zero_bracket(QQ, basis)
    co2[1][0][1] = QQ.lift(3)
    co2[1][1][0] = QQ.lift(-3)
    unconstrained = HomSuperBialgebra(QQ, basis, br2, co2,
                                      EvenMap.identity(QQ, basis))
    negatives.append(("conditions dropped", pair_of(unconstrained)))

    return positives, negatives


def triple_verdict(g, gstar):
    cocycle = check_dual_pair(g, gstar).passed
    try:
        double = dual_matched_pair(g, gstar).check().passed
    except HypothesisError:
        double = False
    pairing = manin_supertriple(g, gstar).passed
    return cocycle, double, pairing


def test_pair_double_and_pairing_agree():
    positives, negatives = dual_pair_fixtures()
    assert len(positives) >= 5 and len(negatives) >= 5
    for name, (g, gs) in positives:
        assert check_admissible(g).passed, name
        votes = triple_verdict(g, gs)
        assert votes == (True, True, True), (name, votes)
    for name, (g, gs) in negatives:
        votes = triple_verdict(g, gs)
        assert len(set(votes)) == 1, (name, votes)
        assert votes[0] is False, (name, votes)
    verdict(8, "pair/double/pairing equivalence", True,
            "%d positive, %d fault-injected" % (len(positives), len(negatives)))


# ---------------------------------------------------------------------------
# 9. perturbing the cobracket under the checked hypotheses stays valid


def test_perturbation_closure():
    rng = random.Random(SEED + 3)
    accepted = 0
    for v in multiplicative_variants():
        B = concrete_variant(v, rng=rng)
        span = alpha_fixed_tensors(B.algebra, skew=True, even_only=True)
        candidates = list(span)
        if span:
            candidates.append(random_fixed_tensor(
                B.algebra, rng, skew=True, even_only=True, span=span))
        for t in candidates:
            if not check_perturbation_hypotheses(B, t).passed:
                continue
            rep = perturb_cobracket(B, t).check(multiplicative=True)
            assert rep.passed, (v.ident, rep.summary())
            accepted += 1

    # the zero perturbation is the identity, symbolically
    for v in multiplicative_variants()[:5]:
        B = v.bialgebra
        zero = Tensor2(B.ring, B.basis)
        assert same_tensors(perturb_cobracket(B, zero), B)

    ok = accepted >= 40
    verdict(9, "perturbation closure", ok, "%d perturbed structures" % accepted)
    assert ok


# ---------------------------------------------------------------------------
# 10. every residual the library computes equals the dense evaluator's


def oracle_agrees_bialgebra(B):
    oracle = DenseOracle(B.ring, B.basis.parities, bracket=B.bracket,
                         cobracket=B.cobracket, alpha=B.alpha.matrix)
    alg, coa = B.algebra, B.coalgebra
    n = B.dim
    for i in range(n):
        assert t2_dict(coa.coskew_residual(i)) == oracle.coskew(i)
        assert t3_dict(coa.cojacobi_residual(i)) == oracle.cojacobi(i)
        assert t2_dict(coa.comult_residual(i)) == oracle.comult(i)
        for j in range(n):
            assert vec_dict(alg.skew_residual(i, j)) == oracle.skew(i, j)
            assert vec_dict(alg.mult_residual(i, j)) == oracle.mult(i, j)
            assert t2_dict(B.compat_residual(i, j)) == oracle.compat(i, j)
            for k in range(n):
                assert (vec_dict(alg.jacobi_residual(i, j, k))
                        == oracle.jacobi(i, j, k))


def oracle_agrees_algebra(A):
    oracle = DenseOracle(A.ring, A.basis.parities, bracket=A.bracket,
                         alpha=A.alpha.matrix)
    n = A.dim
    for i in range(n):
        for j in range(n):
            assert vec_dict(A.skew_residual(i, j)) == oracle.skew(i, j)
            assert vec_dict(A.mult_residual(i, j)) == oracle.mult(i, j)
            for k in range(n):
                assert (vec_dict(A.jacobi_residual(i, j, k))
                        == oracle.jacobi(i, j, k))


def test_residuals_match_dense_evaluator():
    count = 0

    # every catalog variant, symbolically — valid structures
    for row in catalog_list():
        for v in expand_variants(row):
            oracle_agrees_bialgebra(v.bialgebra)
            count += 1

    # the unconstrained two-dim family — residuals are nonzero polynomials
    free = expand_variants(dataclasses.replace(
        get_row("dim2"), strata=(Stratum("free"),)))[0]
    oracle_agrees_bialgebra(free.bialgebra)
    count += 1

    # derived and fault-injected instances of dimension <= 4
    positives, negatives = dual_pair_fixtures()
    for name, (g, gs) in positives + negatives:
        if 2 * g.dim <= 4:
            oracle_agrees_algebra(dual_matched_pair(g, gs).double())
            count += 1

    for ident, A, r, C in coboundary_instances()[:3]:
        oracle_agrees_bialgebra(C)
        count += 1

    rng = random.Random(SEED + 4)
    B = concrete_variant(multiplicative_variants()[0], rng=rng)
    t = random_fixed_tensor(B.algebra, rng, skew=True, even_only=True)
    if check_perturbation_hypotheses(B, t).passed:
        oracle_agrees_bialgebra(perturb_cobracket(B, t))
        count += 1

    ok = count >= 80
    verdict(10, "dense evaluator agreement", ok, "%d instances" % count)
    assert ok
