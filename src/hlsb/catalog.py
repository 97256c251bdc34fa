"""A builtin catalog of small graded structures and a verification harness.

Every row records one family from the builtin classification data: a basis
with parities, a structure map given by its matrix entries, sparse bracket
and cobracket data, and the side conditions under which the family closes
(encoded as parameter substitutions).  Conditions of the shape
``a5 = +/- sqrt(a1)`` are reparameterized through an invertible square
root ``s`` and expanded into explicit sign branches; alternatives of the
shape ``... or (b5 = 0)`` become separate strata.

``expand_variants`` builds every variant of a row over its own parameter
ring: the row's parameters minus the substituted ones, plus the
stratum's extra ones.  Each constant is parsed straight into that ring,
with every substituted parameter bound to its value
(``ParamRing.parse(text, values=...)``), so no scalar is mapped between
rings.  ``verify_row`` runs the full axiom check on every variant
symbolically; a row passes only when every residual is the
identically-zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ScalarError
from .scalar import ParamRing, _add_at
from .structures import CheckReport, HomSuperBialgebra, _prefixed
from .superlinear import SuperBasis, koszul_sign


@dataclass(frozen=True)
class Stratum:
    """One parameter stratum of a row: extra ring generators plus ordered
    substitutions.  A substitution expression may reference base parameters
    and any parameter substituted before it; an expression starting with
    ``+-`` carries the sign of its ``sign_group`` and is expanded into both
    branches."""

    label: str
    extra_params: tuple = ()
    substitutions: tuple = ()  # (target, expression, sign_group-or-None)


@dataclass(frozen=True)
class CatalogRow:
    ident: str
    description: str
    parities: tuple
    params: tuple                  # ((name, invertible), ...)
    alpha: dict                    # (i, j) -> expression
    bracket: dict                  # (i, j, k) -> expression, i <= j
    cobracket: dict                # (i, j, k) -> expression, complete
    strata: tuple = (Stratum("generic"),)
    multiplicative: bool = True
    expected: str = "bialgebra"    # bialgebra | algebra-only | coalgebra-only

    @property
    def sign_variants(self):
        """Number of variants produced by sign-branch expansion alone."""
        n = 0
        for st in self.strata:
            groups = _sign_groups(st)
            if groups:
                n += 2 ** len(groups)
        return n

    @property
    def substitutions(self):
        """All side conditions baked into the row, as strings."""
        out = []
        for st in self.strata:
            for target, expr, group in st.substitutions:
                shown = expr.replace("+-", "+/-") if group else expr
                out.append("%s := %s" % (target, shown))
        return tuple(out)


@dataclass(frozen=True)
class CatalogVariant:
    """A single concrete instantiation of a row: one stratum, one choice of
    signs, with every structure constant living in ``ring``."""

    row_id: str
    label: str
    ring: ParamRing
    bialgebra: HomSuperBialgebra
    multiplicative: bool
    substitutions: dict = field(default_factory=dict)

    @property
    def ident(self):
        return "%s:%s" % (self.row_id, self.label)


def _sign_groups(stratum):
    groups = []
    for _, _, group in stratum.substitutions:
        if group is not None and group not in groups:
            groups.append(group)
    return groups


def _signed_expression(expr, sign):
    if expr.startswith("+-"):
        body = expr[2:]
        return body if sign > 0 else "-(%s)" % body
    return expr


def expand_variants(row):
    """All concrete variants of ``row``: strata times sign branches."""
    out = []
    for stratum in row.strata:
        groups = _sign_groups(stratum)
        for mask in range(2 ** len(groups)):
            signs = {g: (1 if not (mask >> k) & 1 else -1)
                     for k, g in enumerate(groups)}
            label = stratum.label
            for g in groups:
                label += "-plus" if signs[g] > 0 else "-minus"
            out.append(_build_variant(row, stratum, signs, label))
    return out


def _build_variant(row, stratum, signs, label):
    base_names = [name for name, _ in row.params]
    extra_names = [name for name, _ in stratum.extra_params]
    inv = set(name for name, invertible in row.params if invertible)
    inv |= set(name for name, invertible in stratum.extra_params if invertible)
    targets = {target for target, _, _ in stratum.substitutions}
    kept = extra_names + [n for n in base_names if n not in targets]
    ring = ParamRing(kept, invertible=inv & set(kept))

    def conv(text):
        return ring.parse(text, values=resolved)

    resolved = {}
    for target, expr, group in stratum.substitutions:
        if group is not None:
            expr = _signed_expression(expr, signs[group])
        resolved[target] = conv(expr)

    basis = SuperBasis(row.parities)
    alpha = {ij: conv(expr) for ij, expr in row.alpha.items()}

    bracket = {}
    for (i, j, k), expr in row.bracket.items():
        value = conv(expr)
        _add_at(bracket, (i, j, k), value)
        if i != j:
            sign = koszul_sign(row.parities[i], row.parities[j])
            _add_at(bracket, (j, i, k), value, sign == 1)

    cobracket = {}
    for ijk, expr in row.cobracket.items():
        _add_at(cobracket, ijk, conv(expr))

    B = HomSuperBialgebra(ring, basis, bracket, cobracket, alpha)
    shown = {t: str(v) for t, v in resolved.items()}
    return CatalogVariant(row.ident, label, ring, B, row.multiplicative, shown)


def concrete_variant(variant, assignment=None, rng=None):
    """Numerically instantiate ``variant`` over the rational constants.

    Free parameters receive values from ``assignment`` when given there
    (exact values, as ``ParamRing.lift`` takes them), from ``rng`` when
    provided, and a deterministic nonzero default otherwise; the structure
    is then ``variant.bialgebra.substitute(values, ParamRing())``.  An
    assignment name that is not a parameter of ``variant.ring``, like a
    value ``lift`` refuses (a float), raises :class:`ScalarError`; zero
    for an invertible parameter raises ``ValueError``."""

    ring = variant.ring
    unknown = set(assignment or ()) - set(ring.names)
    if unknown:
        raise ScalarError("assignment names %r are not parameters of %r"
                          % (sorted(unknown), ring))
    target = ParamRing()
    values = {}
    for k, name in enumerate(ring.names):
        if assignment and name in assignment:
            value = assignment[name]
        elif rng is not None:
            value = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            if rng.random() < 0.5:
                value = -value
        else:
            value = k + 2
        values[name] = value = target.lift(value)
        if not value and name in ring.invertible:
            raise ValueError("parameter %r must be nonzero" % name)
    return variant.bialgebra.substitute(values, target)


def verify_variant(variant):
    return variant.bialgebra.check(multiplicative=variant.multiplicative)


def verify_row(row):
    """Check every variant of ``row`` symbolically; the merged report
    prefixes each violation with the variant label."""
    merged = CheckReport(row.ident)
    labels = []
    for variant in expand_variants(row):
        labels.append(variant.label)
        merged.violations += _prefixed(variant.label + ":", verify_variant(variant).violations)
    merged.details["variants"] = tuple(labels)
    merged.details["multiplicative"] = row.multiplicative
    return merged


@dataclass
class CatalogSummary:
    reports: list

    @property
    def passed(self):
        return all(r.passed for r in self.reports)

    @property
    def failures(self):
        return [r for r in self.reports if not r.passed]

    def summary(self):
        lines = []
        for r in self.reports:
            lines.append("%-14s %s" % (r.subject,
                                       "pass" if r.passed else "FAIL"))
        lines.append("%d/%d rows pass" % (
            sum(1 for r in self.reports if r.passed), len(self.reports)))
        return "\n".join(lines)


def verify_all(rows=None):
    rows = catalog_list() if rows is None else rows
    return CatalogSummary([verify_row(r) for r in rows])


# ---------------------------------------------------------------------------
# Row data.  3-dim rows use basis (e1, e2 | e3) with parities (0, 0, 1);
# bracket entries are given for i <= j and skew-completed on instantiation,
# cobracket entries are written out in full.

def _skewpair(i, j, k, expr):
    """Cobracket summand ``expr * (e_j (x) e_k - e_k (x) e_j)`` on e_i."""
    return {(i, j, k): expr, (i, k, j): "-(%s)" % expr}


def _co(*parts):
    out = {}
    for part in parts:
        out.update(part)
    return out


_P3 = (0, 0, 1)

_SQRT = ("s", True)


def _diag(a1, a4, a5):
    return {(0, 0): a1, (1, 1): a4, (2, 2): a5}


DIAGONAL_ROWS = (
    CatalogRow(
        "diagonal-1",
        "scaling map fixing e1 and negating the odd line; bracket by e1 on "
        "e2 and e3, cobracket sends e1 to the odd square; the degenerate "
        "alternative (b5 = 0) is a separate stratum",
        _P3,
        (("a4", True), ("b4", False), ("b5", False), ("c5", False)),
        _diag("1", "a4", "-1"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        {(0, 2, 2): "c5"},
        strata=(Stratum("generic"),
                Stratum("b5-zero", (), (("b5", "0", None),))),
    ),
    CatalogRow(
        "diagonal-2",
        "abelian bracket; cobracket is the even wedge on e2 and the mixed "
        "wedge on e3",
        _P3,
        (("a4", True), ("a5", True), ("c2", False), ("c3", False)),
        _diag("1", "a4", "a5"),
        {},
        _co(_skewpair(1, 0, 1, "c2"), _skewpair(2, 0, 2, "c3")),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-3",
        "odd square lands on e1; cobracket as in diagonal-2",
        _P3,
        (("b1", False), ("a4", True), ("c2", False), ("c3", False)),
        _diag("1", "a4", "-1"),
        {(2, 2, 0): "b1"},
        _co(_skewpair(1, 0, 1, "c2"), _skewpair(2, 0, 2, "c3")),
    ),
    CatalogRow(
        "diagonal-4",
        "bracket by e2 acts on e1 and e3; cobracket sends e2 to the odd "
        "square; the degenerate alternative (b6 = 0 and b3 = 0) is a "
        "separate stratum",
        _P3,
        (("a1", True), ("b3", False), ("b6", False), ("c6", False)),
        _diag("a1", "1", "-1"),
        {(0, 1, 0): "b3", (1, 2, 2): "b6"},
        {(1, 2, 2): "c6"},
        strata=(Stratum("generic"),
                Stratum("b6-b3-zero", (),
                        (("b6", "0", None), ("b3", "0", None)))),
    ),
    CatalogRow(
        "diagonal-5",
        "odd square lands on e2; cobracket on e1 (even wedge) and e3; the "
        "degenerate alternative (b2 = 0) is a separate stratum",
        _P3,
        (("a1", True), ("b2", False), ("c1", False), ("c4", False)),
        _diag("a1", "1", "-1"),
        {(2, 2, 1): "b2"},
        _co(_skewpair(0, 0, 1, "c1"), _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("generic"),
                Stratum("b2-zero", (), (("b2", "0", None),))),
    ),
    CatalogRow(
        "diagonal-6",
        "single bracket [e1,e2]; cobracket is the even wedge on e2",
        _P3,
        (("a4", True), ("a5", True), ("b4", False), ("c2", False)),
        _diag("1", "a4", "a5"),
        {(0, 1, 1): "b4"},
        _co(_skewpair(1, 0, 1, "c2")),
    ),
    CatalogRow(
        "diagonal-7",
        "bracket by e1 on e2 and e3; zero cobracket",
        _P3,
        (("a4", True), ("a5", True), ("b4", False), ("b5", False)),
        _diag("1", "a4", "a5"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        {},
        expected="algebra-only",
    ),
    CatalogRow(
        "diagonal-8",
        "abelian bracket; cobracket sends e1 to the odd square; valid when "
        "the odd eigenvalue squares to the e1 eigenvalue, or in the "
        "special stratum a1 = 1, a5 = -1",
        _P3,
        (("a1", True), ("a4", True), ("a5", True), ("c5", False)),
        _diag("a1", "a4", "a5"),
        {},
        {(0, 2, 2): "c5"},
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a5", "+-s", "s"))),
                Stratum("unit", (),
                        (("a1", "1", None), ("a5", "-1", None)))),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-9",
        "bracket by e2 acts on e1 and e3; zero cobracket",
        _P3,
        (("a1", True), ("a5", True), ("b3", False), ("b6", False)),
        _diag("a1", "1", "a5"),
        {(0, 1, 0): "b3", (1, 2, 2): "b6"},
        {},
        expected="algebra-only",
    ),
    CatalogRow(
        "diagonal-10",
        "odd square on e2 with brackets by e1; the odd action and the odd "
        "part of the cobracket are determined by the even data",
        _P3,
        (("a4", True), ("a5", True), ("b2", True), ("b4", False),
         ("b5", False), ("c2", False), ("c3", False), ("c6", False)),
        _diag("1", "a4", "a5"),
        {(2, 2, 1): "b2", (0, 1, 1): "b4", (0, 2, 2): "b5"},
        _co(_skewpair(1, 0, 1, "c2"), {(1, 2, 2): "c6"},
            _skewpair(2, 0, 2, "c3")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a4", "s^2", None), ("a5", "+-s", "s"),
                         ("b5", "a5*b4/(2*a4)", None),
                         ("c3", "a5*c2/(2*a4)", None),
                         ("c6", "-b4*c2/b2", None))),),
    ),
    CatalogRow(
        "diagonal-11",
        "mirror of diagonal-10 with the roles of e1 and e2 exchanged",
        _P3,
        (("a1", True), ("a5", True), ("b1", True), ("b3", False),
         ("b6", False), ("c1", False), ("c4", False), ("c5", False)),
        _diag("a1", "1", "a5"),
        {(2, 2, 0): "b1", (0, 1, 0): "b3", (1, 2, 2): "b6"},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"},
            _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a5", "+-s", "s"),
                         ("b6", "-a5*b3/(2*a1)", None),
                         ("c4", "-a5*c1/(2*a1)", None),
                         ("c5", "-b3*c1/b1", None))),),
    ),
    CatalogRow(
        "diagonal-12",
        "brackets by e2 with determined odd action; cobracket sends e1 to "
        "the odd square",
        _P3,
        (("a1", True), ("a5", True), ("b3", False), ("b6", False),
         ("c5", False)),
        _diag("a1", "1", "a5"),
        {(0, 1, 0): "b3", (1, 2, 2): "b6"},
        {(0, 2, 2): "c5"},
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a5", "+-s", "s"),
                         ("b6", "-a5*b3/(2*a1)", None))),),
    ),
    CatalogRow(
        "diagonal-13",
        "abelian bracket; cobracket on e1 (even wedge plus odd square) and "
        "e3, with the odd coefficient determined",
        _P3,
        (("a1", True), ("a5", True), ("c1", False), ("c4", False),
         ("c5", False)),
        _diag("a1", "1", "a5"),
        {},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"},
            _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a5", "+-s", "s"),
                         ("c4", "-a5*c1/(2*a1)", None))),),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-14",
        "mirror of diagonal-13 on e2",
        _P3,
        (("a4", True), ("a5", True), ("c2", False), ("c3", False),
         ("c6", False)),
        _diag("1", "a4", "a5"),
        {},
        _co(_skewpair(1, 0, 1, "c2"), {(1, 2, 2): "c6"},
            _skewpair(2, 0, 2, "c3")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a4", "s^2", None), ("a5", "+-s", "s"),
                         ("c3", "a5*c2/(2*a4)", None))),),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-15",
        "as diagonal-2 but with the odd eigenvalue a square root of a4",
        _P3,
        (("a4", True), ("a5", True), ("c2", False), ("c3", False)),
        _diag("1", "a4", "a5"),
        {},
        _co(_skewpair(1, 0, 1, "c2"), _skewpair(2, 0, 2, "c3")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a4", "s^2", None), ("a5", "+-s", "s"))),),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-16",
        "as diagonal-6 but with the odd eigenvalue a square root of a4",
        _P3,
        (("a4", True), ("a5", True), ("b4", False), ("c2", False)),
        _diag("1", "a4", "a5"),
        {(0, 1, 1): "b4"},
        _co(_skewpair(1, 0, 1, "c2")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a4", "s^2", None), ("a5", "+-s", "s"))),),
    ),
    CatalogRow(
        "diagonal-17",
        "brackets by e1 with determined odd action; cobracket sends e2 to "
        "the odd square",
        _P3,
        (("a4", True), ("a5", True), ("b4", False), ("b5", False),
         ("c6", False)),
        _diag("1", "a4", "a5"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        {(1, 2, 2): "c6"},
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a4", "s^2", None), ("a5", "+-s", "s"),
                         ("b5", "a5*b4/(2*a4)", None))),),
    ),
    CatalogRow(
        "diagonal-18",
        "all structure zero: any diagonal map works",
        _P3,
        (("a1", True), ("a4", True), ("a5", True)),
        _diag("a1", "a4", "a5"),
        {},
        {},
    ),
    CatalogRow(
        "diagonal-19",
        "single bracket [e1,e2] = b3 e1; cobracket is the even wedge on e1",
        _P3,
        (("a1", True), ("a5", True), ("b3", False), ("c1", False)),
        _diag("a1", "1", "a5"),
        {(0, 1, 0): "b3"},
        _co(_skewpair(0, 0, 1, "c1")),
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a5", "+-s", "s"))),),
    ),
    CatalogRow(
        "diagonal-20",
        "odd square lands on e1; zero cobracket",
        _P3,
        (("a1", True), ("a4", True), ("a5", True), ("b1", False)),
        _diag("a1", "a4", "a5"),
        {(2, 2, 0): "b1"},
        {},
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a5", "+-s", "s"))),),
        expected="algebra-only",
    ),
    CatalogRow(
        "diagonal-21",
        "odd square lands on e2; zero cobracket",
        _P3,
        (("a1", True), ("a4", True), ("a5", True), ("b2", False)),
        _diag("a1", "a4", "a5"),
        {(2, 2, 1): "b2"},
        {},
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a4", "s^2", None), ("a5", "+-s", "s"))),),
        expected="algebra-only",
    ),
    CatalogRow(
        "diagonal-22",
        "abelian bracket; cobracket is the mixed wedge on e3 against e1",
        _P3,
        (("a4", True), ("c3", False)),
        _diag("1", "a4", "-1"),
        {},
        _co(_skewpair(2, 0, 2, "c3")),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-23",
        "abelian bracket; cobracket is the mixed wedge on e3 against e2",
        _P3,
        (("a1", True), ("c4", False)),
        _diag("a1", "1", "-1"),
        {},
        _co(_skewpair(2, 1, 2, "c4")),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "diagonal-24",
        "as diagonal-6 with the odd line negated",
        _P3,
        (("a4", True), ("b4", False), ("c2", False)),
        _diag("1", "a4", "-1"),
        {(0, 1, 1): "b4"},
        _co(_skewpair(1, 0, 1, "c2")),
    ),
)


def _jordan(a1, a4, a5):
    """Structure map sending e1 to a1*e1 + e2, e2 to a4*e2, e3 to a5*e3."""
    out = {(1, 0): "1"}
    if a1 != "0":
        out[(0, 0)] = a1
    if a4 != "0":
        out[(1, 1)] = a4
    if a5 != "0":
        out[(2, 2)] = a5
    return out


JORDAN_ROWS = (
    CatalogRow(
        "jordan-1",
        "nilpotent map e1 -> e2 -> 0 killing the odd line; odd square on "
        "e2, bracket [e1,e2], cobracket on e1 and e3",
        _P3,
        (("b2", False), ("b4", False), ("c1", False), ("c4", False),
         ("c5", False)),
        _jordan("0", "0", "0"),
        {(2, 2, 1): "b2", (0, 1, 1): "b4"},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"},
            _skewpair(2, 1, 2, "c4")),
    ),
    CatalogRow(
        "jordan-2",
        "as jordan-1 plus an action on the odd line; cobracket only on e1; "
        "the degenerate alternative (b5 = 0) is a separate stratum",
        _P3,
        (("b2", False), ("b4", False), ("b5", False), ("c1", False),
         ("c5", False)),
        _jordan("0", "0", "0"),
        {(2, 2, 1): "b2", (0, 1, 1): "b4", (0, 2, 2): "b5"},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"}),
        strata=(Stratum("generic"),
                Stratum("b5-zero", (), (("b5", "0", None),))),
    ),
    CatalogRow(
        "jordan-3",
        "unipotent block on the even part, odd line killed; the degenerate "
        "alternative (b5 = 0) is a separate stratum",
        _P3,
        (("b4", False), ("b5", False), ("c1", False), ("c4", False)),
        _jordan("1", "1", "0"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        _co(_skewpair(0, 0, 1, "c1"), _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("generic"),
                Stratum("b5-zero", (), (("b5", "0", None),))),
    ),
    CatalogRow(
        "jordan-4",
        "nilpotent even block with an invertible odd eigenvalue",
        _P3,
        (("a5", True), ("b4", False), ("c1", False)),
        _jordan("0", "0", "a5"),
        {(0, 1, 1): "b4"},
        _co(_skewpair(0, 0, 1, "c1")),
    ),
    CatalogRow(
        "jordan-5",
        "unipotent block, free odd eigenvalue, abelian bracket",
        _P3,
        (("a5", False), ("c1", False), ("c4", False)),
        _jordan("1", "1", "a5"),
        {},
        _co(_skewpair(0, 0, 1, "c1"), _skewpair(2, 1, 2, "c4")),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "jordan-6",
        "unipotent block with brackets by e1; the odd cobracket "
        "coefficient is determined by c4 = b5 c1 / b4",
        _P3,
        (("a5", False), ("b4", True), ("b5", False), ("c1", False),
         ("c4", False)),
        _jordan("1", "1", "a5"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        _co(_skewpair(0, 0, 1, "c1"), _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("generic", (), (("c4", "b5*c1/b4", None),)),),
    ),
    CatalogRow(
        "jordan-7",
        "unipotent block with unimodular odd eigenvalue; abelian bracket, "
        "cobracket on e1 and e3 with c4 = -a5 c1 / 2",
        _P3,
        (("a5", False), ("c1", False), ("c4", False), ("c5", False)),
        _jordan("1", "1", "a5"),
        {},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"},
            _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("signed", (),
                        (("a5", "+-1", "s"), ("c4", "-a5*c1/2", None))),),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "jordan-8",
        "as jordan-7 with brackets by e1; the odd action coefficient is "
        "determined by b5 = -a5 b4 / 2",
        _P3,
        (("a5", False), ("b4", False), ("b5", False), ("c1", False),
         ("c4", False), ("c5", False)),
        _jordan("1", "1", "a5"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"},
            _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("signed", (),
                        (("a5", "+-1", "s"), ("b5", "-a5*b4/2", None),
                         ("c4", "-a5*c1/2", None))),),
    ),
    CatalogRow(
        "jordan-9",
        "unipotent block, unimodular odd eigenvalue, odd square on e2; "
        "both cobracket coefficients stay free",
        _P3,
        (("a5", False), ("b2", False), ("c1", False), ("c4", False)),
        _jordan("1", "1", "a5"),
        {(2, 2, 1): "b2"},
        _co(_skewpair(0, 0, 1, "c1"), _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("signed", (), (("a5", "+-1", "s"),)),),
    ),
    CatalogRow(
        "jordan-10",
        "negated unipotent block killing the odd line; the degenerate "
        "alternative (b5 = 0) is a separate stratum",
        _P3,
        (("b5", False), ("c4", False)),
        _jordan("-1", "-1", "0"),
        {(0, 2, 2): "b5"},
        _co(_skewpair(2, 1, 2, "c4")),
        strata=(Stratum("generic"),
                Stratum("b5-zero", (), (("b5", "0", None),))),
    ),
    CatalogRow(
        "jordan-11",
        "all structure zero under a generic Jordan block",
        _P3,
        (("a1", True), ("a4", False), ("a5", True)),
        _jordan("a1", "a4", "a5"),
        {},
        {},
    ),
    CatalogRow(
        "jordan-12",
        "unipotent block, unimodular odd eigenvalue, cobracket sends e1 to "
        "the odd square; the degenerate alternative (b4 = 0) is a separate "
        "stratum",
        _P3,
        (("a5", False), ("b4", False), ("b5", False), ("c5", False)),
        _jordan("1", "1", "a5"),
        {(0, 1, 1): "b4", (0, 2, 2): "b5"},
        {(0, 2, 2): "c5"},
        strata=(Stratum("signed", (), (("a5", "+-1", "s"),)),
                Stratum("b4-zero", (),
                        (("a5", "+-1", "s"), ("b4", "0", None)))),
    ),
    CatalogRow(
        "jordan-13",
        "the richest block row: odd square on e2, brackets by e1, full "
        "cobracket on e1 and e3; two independent sign choices",
        _P3,
        (("a5", False), ("b2", True), ("b4", False), ("b5", False),
         ("c1", False), ("c4", False), ("c5", False)),
        _jordan("1", "1", "a5"),
        {(2, 2, 1): "b2", (0, 1, 1): "b4", (0, 2, 2): "b5"},
        _co(_skewpair(0, 0, 1, "c1"), {(0, 2, 2): "c5"},
            _skewpair(2, 1, 2, "c4")),
        strata=(Stratum("signed", (),
                        (("a5", "+-1", "a"), ("c4", "+-1/2*c1", "c"),
                         ("b5", "a5*b4/2", None),
                         ("c5", "(-b4*c1+2*a5*b4*c4)/(2*b2)", None))),),
    ),
    CatalogRow(
        "jordan-14",
        "equal-eigenvalue block killing the odd line; abelian bracket",
        _P3,
        (("a1", False), ("a4", False), ("c4", False)),
        _jordan("a1", "a4", "0"),
        {},
        _co(_skewpair(2, 1, 2, "c4")),
        strata=(Stratum("generic", (), (("a4", "a1", None),)),),
        expected="coalgebra-only",
    ),
    CatalogRow(
        "jordan-15",
        "unipotent block, unimodular odd eigenvalue, single odd bracket",
        _P3,
        (("a5", False), ("b5", False), ("c4", False)),
        _jordan("1", "1", "a5"),
        {(0, 2, 2): "b5"},
        _co(_skewpair(2, 1, 2, "c4")),
        strata=(Stratum("signed", (), (("a5", "+-1", "s"),)),),
    ),
    CatalogRow(
        "jordan-16",
        "equal-eigenvalue block with odd eigenvalue a square root; odd "
        "square on e2, zero cobracket",
        _P3,
        (("a1", False), ("a4", False), ("a5", False), ("b2", False)),
        _jordan("a1", "a4", "a5"),
        {(2, 2, 1): "b2"},
        {},
        strata=(Stratum("sqrt", (_SQRT,),
                        (("a1", "s^2", None), ("a4", "a1", None),
                         ("a5", "+-s", "s"))),),
        expected="algebra-only",
    ),
    CatalogRow(
        "jordan-17",
        "equal-eigenvalue block killing the odd line; single odd bracket, "
        "zero cobracket",
        _P3,
        (("a1", False), ("a4", False), ("b5", False)),
        _jordan("a1", "a4", "0"),
        {(0, 2, 2): "b5"},
        {},
        strata=(Stratum("generic", (), (("a4", "a1", None),)),),
        expected="algebra-only",
    ),
)


DIM2_ROW = CatalogRow(
    "dim2",
    "two-dimensional family with one even and one odd direction; the "
    "closure conditions split into the strata a2 = 0, b = 0 and "
    "c = d = 0, each with a1 = 1 or a1 = -1; not multiplicative",
    (0, 1),
    (("a1", False), ("a2", False), ("b", False), ("c", False),
     ("d", False)),
    {(0, 0): "a1", (1, 1): "a2"},
    {(0, 1, 1): "b", (1, 1, 0): "c"},
    _co(_skewpair(1, 0, 1, "d")),
    strata=(Stratum("a2-zero", (),
                    (("a1", "+-1", "s"), ("a2", "0", None))),
            Stratum("b-zero", (),
                    (("a1", "+-1", "s"), ("b", "0", None))),
            Stratum("c-d-zero", (),
                    (("a1", "+-1", "s"), ("c", "0", None),
                     ("d", "0", None)))),
    multiplicative=False,
)


def catalog_list():
    """Every builtin row: the 2-dim family, then the diagonal-map rows,
    then the Jordan-block rows, in fixed order."""
    return [DIM2_ROW] + list(DIAGONAL_ROWS) + list(JORDAN_ROWS)


def get_row(ident):
    for row in catalog_list():
        if row.ident == ident:
            return row
    raise KeyError(ident)


def catalog_payload():
    """The whole catalog as JSON-ready data.  Each variant is rendered in
    the same definition schema the command line reads, so the output
    (``json.dumps(hlsb.catalog_payload())``) doubles as format
    documentation."""
    from .fileformat import definition_from_bialgebra, dump_definition

    rows = []
    for row in catalog_list():
        variants = []
        for variant in expand_variants(row):
            defn = definition_from_bialgebra(variant.bialgebra,
                                             description=row.description)
            variants.append({
                "id": variant.label,
                "substitutions": dict(variant.substitutions),
                "definition": dump_definition(defn),
            })
        rows.append({
            "id": row.ident,
            "description": row.description,
            "multiplicative": row.multiplicative,
            "expected": row.expected,
            "sign_variants": row.sign_variants,
            "variants": variants,
        })
    return {"format_version": 1, "rows": rows}
