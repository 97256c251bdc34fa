"""Print every residual and derived tensor the library computes on a fixed
set of inputs, one line each, so that two versions of the code can be
compared byte for byte.

Run from the repository root on each version and compare:

    PYTHONPATH=src python3 tests/residual_dump.py > new.txt
    (cd ../other-checkout && PYTHONPATH=src python3 tests/residual_dump.py) > old.txt
    cmp old.txt new.txt

Each line is ``label | axiom | indices | residual`` for a violation, or
``label | name | repr`` for a tensor, map or structure.  Structure
constants are printed as their nonzero cells, so the output does not
depend on how a structure stores them.  Inputs are fixed or drawn from
seeded generators; nothing here depends on ``HLSB_SEED``.  The script is
not a collected test (its name does not start with ``test_``).

Coverage: ``check`` with and without multiplicativity on every catalog
variant; ``dualize`` under both conventions and its check;
``manin_supertriple`` with its form determinant; ``check_dual_pair`` on
every (variant, dual) pair under both dual and both check conventions;
``twist_power(B, 2)``; powers, transpose, image and identity test of every
structure map; the semidirect product with the adjoint module;
``transport_structure`` along the structure map; random integer maps
(inverse, inverse after map, cube); per basis element the graded flip and
rotation, both alpha-beside-delta maps, the cyclic sum, the partial
brackets, the Yang-Baxter residual, the perturbation defect, ad on a
2-tensor and a 3-tensor, delta of a vector, the quasi-triangular
statements and the co-Jacobi, comultiplicativity and compatibility
residuals; the alpha-fixed spans; delta0 and delta1(delta0(r)) on seeded
concrete multiplicative variants and the coboundary checks of their skew
fixed spans; gl(1|1), gl(2|1), gl(2|2) and the shifted gl(2|1)
control built by coboundary and checked; and seeded random scalars with
integral and non-integral coefficients, with their sums, differences,
products, quotients, powers, inverses, substitutions, evaluations and
constant values; and sums, products, quotients, powers, inverses,
substitutions, parse round trips and evaluations of scalars with
exponents near +-2^40 on the two neighbouring invertible parameters.

Per catalog variant and dual convention it also checks the actions: the
adjoint action, its dual, both coadjoint actions and a broken action (one
cell off, one parity-breaking cell), the dual matched pair and the
admissibility of both halves; the bialgebra-morphism check of the
structure map and of a map that does not intertwine it; and every
bilinear-form violation list, with values and determinant, on the manin
form and on a perturbed form that is odd, not supersymmetric, not
invariant and (where alpha allows) not self-adjoint.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for extra in (ROOT / "src", ROOT / "bench"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

from hlsb import (  # noqa: E402
    EvenMap,
    HomSuperBialgebra,
    HypothesisError,
    MorphismError,
    ParamRing,
    SuperBasis,
    Tensor2,
    Tensor3,
    ad_basis,
    BilinearForm,
    Representation,
    adjoint_representation,
    alpha_fixed_tensors,
    catalog_list,
    check_admissible,
    check_dual_pair,
    coadjoint_action,
    coboundary_from_r,
    coboundary_hypothesis_violations,
    concrete_variant,
    cyclic_sum,
    delta0,
    delta1,
    dual_coadjoint_action,
    dual_matched_pair,
    dual_representation,
    dualize,
    expand_variants,
    invert_even_map,
    manin_supertriple,
    perturbation_defect,
    quasi_triangular_equivalences,
    random_fixed_tensor,
    semidirect_product,
    tau,
    transport_structure,
    twist_power,
    xi,
    yang_baxter_residual,
)
from hlsb.constructions import check_bialgebra_morphism  # noqa: E402
from hlsb.structures import alpha_otimes_delta, delta_otimes_alpha  # noqa: E402
from hlsb.yangbaxter import bracket_12_13, bracket_12_23, bracket_13_23  # noqa: E402

import glmn  # noqa: E402

OUT = sys.stdout


def emit(*parts):
    OUT.write(" | ".join(str(p) for p in parts) + "\n")


def report(label, rep):
    emit(label, "passed" if rep.passed else "failed", len(rep.violations))
    for v in rep.violations:
        emit(label, v.axiom, v.indices, v._residual_str())


def cells(label, name, grid, depth):
    """The nonzero cells of a nested grid, read by plain indexing."""
    n = len(grid)
    idx = [()]
    for _ in range(depth):
        idx = [i + (k,) for i in idx for k in range(n)]
    for i in idx:
        v = grid
        for k in i:
            v = v[k]
        if v:
            emit(label, name, i, v)


def structure(label, B):
    """Basis, structure map and nonzero constants of a (bi)algebra."""
    emit(label, "basis", B.basis)
    cells(label, "alpha", B.alpha.matrix, 2)
    cells(label, "bracket", B.bracket, 3)
    if hasattr(B, "cobracket"):
        cells(label, "cobracket", B.cobracket, 3)


def each_map(label, f):
    emit(label, "map", f)
    for k in range(6):
        emit(label, "power", k, f.power(k))
    emit(label, "transpose", f.transpose())
    emit(label, "is_identity", f.is_identity())
    ring, n = f.ring, f.src.dim
    vec = [ring.from_fraction(k + 1) for k in range(n)]
    emit(label, "apply", [str(v) for v in f.apply(vec)])


def per_basis(label, B):
    """Tensor-level maps at every basis element of a bialgebra."""
    A, C = B.algebra, B.coalgebra
    n = B.dim
    ring = B.ring
    deltas = [B.delta(i) for i in range(n)]
    for i in range(n):
        d = deltas[i]
        emit(label, "delta", i, d)
        emit(label, "tau", i, tau(d))
        ad3 = alpha_otimes_delta(C, d)
        emit(label, "alpha_otimes_delta", i, ad3)
        emit(label, "delta_otimes_alpha", i, delta_otimes_alpha(C, d))
        emit(label, "xi", i, xi(ad3))
        emit(label, "cyclic_sum", i, cyclic_sum(ad3))
        emit(label, "12_13", i, bracket_12_13(A, d, d))
        emit(label, "12_23", i, bracket_12_23(A, d, d))
        emit(label, "13_23", i, bracket_13_23(A, d, deltas[(i + 1) % n]))
        emit(label, "yang_baxter", i, yang_baxter_residual(A, d))
        emit(label, "perturbation_defect", i, perturbation_defect(B, d))
        emit(label, "ad2", i, ad_basis(A, i, d))
        emit(label, "ad3", i, ad_basis(A, (i + 1) % n, ad3))
        col = [ring.from_fraction(k - i) for k in range(n)]
        emit(label, "delta_vector", i, C.delta_vector(col))
        emit(label, "quasi_triangular", i, quasi_triangular_equivalences(B, d))
        emit(label, "cojacobi", i, C.cojacobi_residual(i))
        emit(label, "comult", i, C.comult_residual(i))
        for j in range(n):
            emit(label, "compat", (i, j), B.compat_residual(i, j))


def violations(label, name, found):
    emit(label, name, len(found))
    for v in found:
        emit(label, v.axiom, v.indices, v._residual_str())


def broken_action(A):
    """The adjoint action with one cell shifted by one and, where the
    parities allow, one parity-breaking cell set."""
    mats = [[list(row) for row in mat] for mat in adjoint_representation(A).matrices]
    p, n = A.basis.parities, A.dim
    mats[0][n - 1][0] = mats[0][n - 1][0] + 1
    for i in range(n):
        if (p[0] + p[0]) % 2 != p[i]:
            mats[0][i][0] = mats[0][i][0] + 2
            break
    return Representation(A, A.basis, A.alpha, mats)


def non_intertwining_map(B):
    """diag(1, 2, ...) plus one off-diagonal cell in the first column."""
    p, n = B.basis.parities, B.dim
    cells = {(i, i): i + 1 for i in range(n)}
    for k in range(1, n):
        if p[k] == p[0]:
            cells[k, 0] = 1
            break
    return EvenMap(B.ring, B.basis, B.basis, cells)


def form_section(label, form, algebra):
    ring, n = form.ring, form.basis.dim
    x = [ring.from_fraction(k + 1) for k in range(n)]
    y = [ring.from_fraction(2 - k) for k in range(n)]
    emit(label, "value", form.value(x, y), form.value(y, x))
    violations(label, "even", form.evenness_violations())
    violations(label, "supersymmetric", form.supersymmetry_violations())
    violations(label, "self-adjoint", form.self_adjoint_violations(algebra.alpha))
    violations(label, "invariant", form.invariance_violations(algebra))
    emit(label, "det", form.determinant())


def perturbed_form(form):
    """The form plus an odd cell, a cell without its supersymmetric
    partner and a diagonal cell."""
    p, n = form.basis.parities, form.basis.dim
    mat = [list(row) for row in form.matrix]
    mat[0][0] = mat[0][0] + 1
    mat[0][n // 2] = mat[0][n // 2] + 3
    for j in range(n):
        if p[j] != p[0]:
            mat[0][j] = mat[0][j] + 2
            break
    return BilinearForm(form.ring, form.basis, mat)


def actions_section(label, B, D):
    g, gstar = B.algebra, D.algebra
    adjoint = adjoint_representation(g)
    report(label + " adjoint", adjoint.check())
    report(label + " dual-adjoint", dual_representation(adjoint).check())
    report(label + " coadjoint", coadjoint_action(g, gstar).check())
    report(label + " dual-coadjoint", dual_coadjoint_action(g, gstar).check())
    report(label + " broken-action", broken_action(g).check())
    report(label + " matched-pair", dual_matched_pair(g, gstar).check())
    report(label + " admissible", check_admissible(g))
    report(label + " dual-admissible", check_admissible(gstar))


def catalog_section(variants):
    for v in variants:
        B = v.bialgebra
        label = v.ident
        report(label + " check", B.check())
        report(label + " check-mult", B.check(multiplicative=True))
        each_map(label + " alpha", B.alpha)
        per_basis(label, B)
        for convention in ("koszul", "plain"):
            D = dualize(B, convention)
            structure(label + " dual-" + convention, D)
            report(label + " dual-" + convention + " check", D.check())
            triple = manin_supertriple(B.algebra, D.algebra)
            report(label + " manin-" + convention, triple.report)
            emit(label, "manin-det-" + convention, triple.form.determinant())
            actions_section(label + " " + convention, B, D)
            form_section(label + " manin-form-" + convention, triple.form, triple.double)
            form_section(label + " perturbed-form-" + convention,
                         perturbed_form(triple.form), triple.double)
            for check_conv in ("koszul", "plain"):
                report("%s pair-%s-%s" % (label, convention, check_conv),
                       check_dual_pair(B.algebra, D.algebra, check_conv))
        report(label + " alpha-morphism", check_bialgebra_morphism(B.alpha, B, B))
        report(label + " bad-morphism",
               check_bialgebra_morphism(non_intertwining_map(B), B, B))
        try:
            T = twist_power(B, 2)
        except HypothesisError as exc:
            emit(label, "twist_power", "HypothesisError", exc)
        else:
            structure(label + " twist2", T)
            report(label + " twist2 check", T.check())
        S = semidirect_product(B.algebra, adjoint_representation(B.algebra))
        structure(label + " semidirect", S)
        report(label + " semidirect check", S.check())
        try:
            M = transport_structure(B, B.alpha)
        except (HypothesisError, MorphismError) as exc:
            emit(label, "transport", type(exc).__name__, exc)
        else:
            structure(label + " transport", M)
            report(label + " transport check", M.check(multiplicative=True))


def random_maps_section():
    rng = random.Random(5)
    QQ = ParamRing()
    for trial in range(18):
        n = 1 + trial % 6
        basis = SuperBasis([rng.randint(0, 1) for _ in range(n)])
        p = basis.parities
        matrix = [[rng.randint(-3, 3) if p[i] == p[j] else 0 for j in range(n)]
                  for i in range(n)]
        f = EvenMap(QQ, basis, basis, matrix)
        label = "random-map %d" % trial
        emit(label, "map", f)
        try:
            g = invert_even_map(f)
        except HypothesisError as exc:
            emit(label, "inverse", "HypothesisError", exc)
        else:
            emit(label, "inverse", g)
            emit(label, "inverse-after", g.compose(f).is_identity())
        emit(label, "cube", f.power(3))


def cohomology_section(variants):
    rng = random.Random(11)
    for v in variants:
        if not v.multiplicative:
            continue
        B = concrete_variant(v, rng=rng)
        A = B.algebra
        label = v.ident + " concrete"
        for skew in (False, True):
            for even in (False, True):
                span = alpha_fixed_tensors(A, skew=skew, even_only=even)
                for k, t in enumerate(span):
                    emit(label, "span", (skew, even, k), t)
        span = alpha_fixed_tensors(A, even_only=True)
        r = random_fixed_tensor(A, rng, even_only=True, span=span)
        emit(label, "r", r)
        deltas = delta0(A, r)
        for i, d in enumerate(deltas):
            emit(label, "delta0", i, d)
        for i, line in enumerate(delta1(A, deltas)):
            for j, t in enumerate(line):
                emit(label, "delta1", (i, j), t)
        for k, s in enumerate(alpha_fixed_tensors(A, skew=True, even_only=True)):
            if coboundary_hypothesis_violations(A, s):
                emit(label, "coboundary", k, "hypotheses fail")
                continue
            report("%s coboundary %d" % (label, k),
                   coboundary_from_r(A, s).check(multiplicative=True))


def glmn_section():
    for label, A, (m, n) in (
            ("gl(1|1)", glmn.gl_algebra(1, 1), (1, 1)),
            ("gl(2|1)", glmn.gl_algebra(2, 1), (2, 1)),
            ("gl(2|2)", glmn.gl_algebra(2, 2), (2, 2)),
            ("gl(2|1) shifted", glmn.control_algebra(), (2, 1))):
        r = glmn.cartan_wedge(A, m, n)
        B = coboundary_from_r(A, r)
        for i in range(B.dim):
            emit(label, "delta", i, B.delta(i))
        report(label + " check-mult", B.check(multiplicative=True))
        if B.dim <= 9:
            emit(label, "yang_baxter", yang_baxter_residual(A, r))
            for i in range(B.dim):
                emit(label, "cojacobi", i, B.coalgebra.cojacobi_residual(i))


def scalar_section():
    """Seeded random scalars over a ring with two invertible parameters and
    one plain one, and every scalar operation on them.  Values are printed
    with ``str`` (and evaluations with ``repr``, which names their type)."""
    rng = random.Random(17)
    ring = ParamRing(["a", "s", "t"], invertible=["s", "t"])
    target = ParamRing(["u"], invertible=["u"])

    def coeff(rng=rng):
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 1, 2, 3)))

    def monomial(names):
        term = ring.from_fraction(coeff())
        for name in names:
            lo = -2 if name in ring.invertible else 0
            term = term * ring.param(name) ** rng.randint(lo, 2)
        return term

    def scalar():
        value = ring.zero()
        for _ in range(rng.randint(0, 4)):
            value = value + monomial(ring.names)
        return value

    point = {"a": Fraction(2, 3), "s": Fraction(-5, 2), "t": 3}
    for trial in range(60):
        x, y, m = scalar(), scalar(), monomial(("s", "t"))
        label = "scalar %d" % trial
        emit(label, "x", x)
        emit(label, "y", y)
        emit(label, "m", m)
        emit(label, "x+y", x + y)
        emit(label, "x-y", x - y)
        emit(label, "-x", -x)
        emit(label, "x*y", x * y)
        emit(label, "x/m", x / m)
        emit(label, "inverse", m.inverse())
        emit(label, "m^-3", m ** -3)
        for k in range(4):
            emit(label, "x^%d" % k, x ** k)
        emit(label, "parse", ring.parse(str(x)) == x)
        emit(label, "predicates", x.is_zero(), x.is_one(), x.is_constant())
        emit(label, "substitute", x.substitute({"a": "u + 1/2", "s": "2*u^-1", "t": "u"},
                                               ring=target))
        emit(label, "substitute-consts", x.substitute({"a": Fraction(1, 3), "s": -2}))
        emit(label, "evaluate", repr(x.evaluate(point)))
        c = ring.from_fraction(coeff())
        emit(label, "constant", c, repr(c.constant_value()), c == c.constant_value(),
             repr((c * c.inverse()).constant_value()))
        emit(label, "coerce", x + 2, Fraction(1, 2) * x, 3 - x)

    # exponents near +-2^40 on the neighbouring invertible parameters s and
    # t, with mixed signs, and small ones on a
    big = random.Random(43)

    def big_unit():
        term = ring.from_fraction(coeff(big))
        for name in ("s", "t"):
            e = big.choice((-1, 1)) * (2 ** 40 + big.randint(-3, 3))
            term = term * ring.param(name) ** e
        return term

    def big_scalar():
        value = ring.zero()
        for _ in range(big.randint(1, 3)):
            value = value + big_unit() * ring.param("a") ** big.randint(0, 2)
        return value

    unit_point = {"a": Fraction(2, 3), "s": -1, "t": 1}
    for trial in range(20):
        x, y, m = big_scalar(), big_scalar(), big_unit()
        label = "packed %d" % trial
        emit(label, "x", x)
        emit(label, "y", y)
        emit(label, "m", m)
        emit(label, "terms", sorted(x.terms.items()))
        emit(label, "x+y", x + y)
        emit(label, "x*y", x * y)
        emit(label, "x/m", x / m)
        emit(label, "inverse", m.inverse())
        emit(label, "m^3", m ** 3)
        emit(label, "m^-2", m ** -2)
        emit(label, "x^2", x ** 2)
        emit(label, "parse", ring.parse(str(x)) == x, ring.parse(str(x * y)) == x * y)
        emit(label, "substitute", x.substitute({"a": "u + 1/2", "s": "u^-1", "t": "-u"},
                                               ring=target))
        emit(label, "swap", x.substitute({"s": "t", "t": "s^-1"}))
        emit(label, "evaluate", repr(x.evaluate(unit_point)))


def main():
    variants = [v for row in catalog_list() for v in expand_variants(row)]
    catalog_section(variants)
    random_maps_section()
    cohomology_section(variants)
    glmn_section()
    scalar_section()
    # tensors built from cell dicts, and a zero bialgebra built from grids
    QQ = ParamRing()
    basis = SuperBasis([0, 1])
    t3 = Tensor3(QQ, basis, {(0, 1, 1): Fraction(1, 2), (1, 1, 0): -3})
    emit("tensor3", "repr", t3, xi(t3), cyclic_sum(t3))
    emit("tensor2", "repr", Tensor2(QQ, basis, {(1, 1): 2}))
    zero = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    H = HomSuperBialgebra(QQ, basis, zero, zero, EvenMap.identity(QQ, basis))
    report("abelian check-mult", H.check(multiplicative=True))


if __name__ == "__main__":
    main()
