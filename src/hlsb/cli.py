"""Command line front end.

Three commands: ``check`` runs the axiom suite on a definition file,
``construct`` builds a derived structure and writes it in the same schema,
``catalog`` lists or verifies the builtin rows.  Exit codes: 0 all checks
pass, 1 an axiom or hypothesis fails, 2 usage or parse error.

Each subcommand imports what it runs: ``check`` loads no catalog and no
constructions, so a child process that only checks a file starts fast,
and ``construct`` loads :mod:`hlsb.yangbaxter` only for the verbs that use it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HlsbError, HypothesisError, MorphismError, ParseError
from .fileformat import definition_from_bialgebra, definition_text, load_definition
from .scalar import MAX_POWER_SIZE, _absolute_sum, _power_size
from .structures import bialgebra_from_deltas
from .superlinear import EvenMap, Tensor2

CHECK_AXIOMS = ("bracket-grading", "skew", "jacobi",
                "cobracket-grading", "coskew", "cojacobi", "compatibility")
MULT_AXIOMS = ("multiplicative", "comultiplicative")

_HINTS = {
    "r-skew": "r21 = -r fails",
    "t-skew": "t21 = -t fails",
    "r-even": "r has an odd component",
    "t-even": "t has an odd component",
    "r-alpha-fixed": "(alpha x alpha)(r) != r",
    "t-alpha-fixed": "(alpha x alpha)(t) != t",
}


def _render_text(report, multiplicative):
    axioms = CHECK_AXIOMS + (MULT_AXIOMS if multiplicative else ())
    bad = report.axioms_violated()
    lines = []
    for axiom in axioms:
        if axiom in bad:
            hits = report.by_axiom(axiom)
            lines.append("FAIL  %-18s %d violation(s); first at %r: %s"
                         % (axiom, len(hits), hits[0].indices,
                            hits[0]._residual_str()))
        else:
            lines.append("pass  %s" % axiom)
    extra = [a for a in bad if a not in axioms]
    for axiom in extra:
        hits = report.by_axiom(axiom)
        lines.append("FAIL  %-18s %d violation(s)" % (axiom, len(hits)))
    lines.append("result: %s" % ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def cmd_check(args):
    defn = load_definition(args.file)
    report = defn.bialgebra.check(multiplicative=args.multiplicative)
    if args.format == "json":
        data = report.to_dict()
        data["multiplicative"] = args.multiplicative
        print(json.dumps(data, indent=2))
    else:
        if defn.description:
            print("# %s" % defn.description)
        print(_render_text(report, args.multiplicative))
    return 0 if report.passed else 1


def _named(defn, name, verb, flag, cls, what):
    """The payload that ``construct verb`` names by *flag*; it must be a
    *cls*, described as *what*."""
    if name is None:
        raise ParseError("construct %s requires %s NAME" % (verb, flag))
    value = defn.tensors.get(name)
    if value is None:
        raise ParseError("no tensor named %r in file" % name)
    if not isinstance(value, cls):
        raise ParseError("tensor %r is not %s" % (name, what))
    return value


def _bound_power(alpha, n):
    """Refuse alpha^n past the parser's bound on ``^``: every entry of
    alpha^n is dominated by S^n, for S the sum of alpha's entries with
    absolute coefficients.  A map whose every column is at most one term
    with coefficient +-1 is not bounded, as its powers only move exponents."""
    cols = alpha._cols
    if all(len(col) <= 1 and all(_power_size(v, n) == 0 for _, v in col) for col in cols):
        return
    S = _absolute_sum(alpha.ring, (v for col in cols for _, v in col))
    if _power_size(S, n) > MAX_POWER_SIZE:
        raise ParseError("--power %d: alpha^%d may be larger than MAX_POWER_SIZE = %d"
                         % (n, n, MAX_POWER_SIZE))


def _construct(args, defn):
    from .constructions import (
        Representation, dual_matched_pair, dualize, semidirect_product, twist, twist_power)

    B = defn.bialgebra
    verb = args.verb
    if verb == "twist":
        if (args.morphism is None) == (args.power is None):
            raise ParseError(
                "construct twist needs exactly one of --morphism, --power")
        if args.power is not None:
            _bound_power(B.alpha, args.power)
            out = twist_power(B, args.power)
            note = "twist by the structure map to the power %d" % args.power
        else:
            beta = _named(defn, args.morphism, "twist", "--morphism", EvenMap, "a map")
            out = twist(B, beta)
            note = "twist along %r" % args.morphism
        return out, note
    if verb == "dual":
        return dualize(B), "graded dual"
    if verb == "double":
        gstar = dualize(B).algebra
        pair = dual_matched_pair(B.algebra, gstar)
        return bialgebra_from_deltas(pair.double(), ()), "double of the dual pair"
    if verb == "semidirect":
        rep = _named(defn, args.rep, "semidirect", "--rep", Representation,
                     "a representation")
        report = rep.check()
        if not report.passed:
            raise HypothesisError("action %r is not a representation; first failure: %r"
                                  % (args.rep, report.violations[0]))
        return (bialgebra_from_deltas(semidirect_product(B.algebra, rep), ()),
                "semidirect sum along %r" % args.rep)
    if verb == "coboundary":
        from .yangbaxter import coboundary_from_r

        r = _named(defn, args.r, "coboundary", "--r", Tensor2, "a 2-tensor")
        return (coboundary_from_r(B.algebra, r),
                "coboundary cobracket of %r" % args.r)
    if verb == "perturb":
        from .yangbaxter import perturb_cobracket

        t = _named(defn, args.t, "perturb", "--t", Tensor2, "a 2-tensor")
        return perturb_cobracket(B, t), "cobracket perturbed by %r" % args.t
    raise ParseError("unknown construct verb %r" % verb)


def cmd_construct(args):
    defn = load_definition(args.file)
    out, note = _construct(args, defn)
    result = definition_from_bialgebra(out, description=note)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(definition_text(result))
    print("wrote %s (%s, dimension %d)" % (args.out, note, out.basis.dim))
    return 0


def cmd_catalog(args):
    from . import catalog

    rows = catalog.catalog_list()
    if args.row is not None:
        try:
            rows = [catalog.get_row(args.row)]
        except KeyError:
            print("unknown catalog row %r" % args.row, file=sys.stderr)
            return 2
    if args.subcommand == "list":
        for row in rows:
            variants = catalog.expand_variants(row)
            print("%-12s %2d variant(s)  %s"
                  % (row.ident, len(variants), row.description))
        return 0
    summary = catalog.verify_all(rows)
    print(summary.summary())
    for report in summary.failures:
        print(report.summary())
    return 0 if summary.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hlsb",
        description="check and construct graded bracket/cobracket "
                    "structures given by exact structure constants")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom suite on a file")
    p.add_argument("file")
    p.add_argument("--multiplicative", action="store_true",
                   help="also require compatibility with the structure map")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="derive a new structure")
    p.add_argument("verb", choices=("twist", "dual", "double", "semidirect",
                                    "coboundary", "perturb"))
    p.add_argument("file")
    p.add_argument("--morphism", metavar="NAME")
    p.add_argument("--r", metavar="NAME")
    p.add_argument("--t", metavar="NAME")
    p.add_argument("--rep", metavar="NAME")
    p.add_argument("--power", type=int, metavar="N")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("catalog", help="list or verify the builtin rows")
    p.add_argument("subcommand", choices=("list", "verify"))
    p.add_argument("--row", metavar="ID")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (HypothesisError, MorphismError) as exc:
        message = str(exc)
        for key, hint in _HINTS.items():
            if key in message:
                message += " [%s]" % hint
        print("failed: %s" % message, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except HlsbError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
