"""The four workloads.  Each builds its inputs from a seed at set-up and
then runs identical passes over them; every operation carries its expected
outcome.  Library functions are looked up through their modules at call
time, so the wrappers of a traced run see every call.
"""

import contextlib
import dataclasses
import io
import json
import os
import random
import sys

from hlsb import catalog, cli, constructions, fileformat, structures, yangbaxter
from hlsb.superlinear import Tensor2

import glmn
from harness import report_outcome, run_child

# The dim-2 family with closure conditions dropped (the sharpness check of
# the acceptance suite): substitutions kept -> axioms that then fail.
# Dropping a1 = +-1 on the b = 0 or c = d = 0 strata leaves a valid
# structure, so those two are not controls.
DIM2_CONTROLS = (
    ("dim2-free", (), "fail:compatibility,jacobi"),
    ("dim2-a2-zero", (("a2", "0", None),), "fail:compatibility"),
    ("dim2-a1-one", (("a1", "1", None),), "fail:compatibility,jacobi"),
    ("dim2-a1-minus-one", (("a1", "-1", None),), "fail:compatibility,jacobi"),
)

# Variants whose invariant-pairing double with the koszul dual fails the
# double's Jacobi identity (recorded at the commit that added this
# benchmark); every other variant's double closes.
MANIN_JACOBI_FAILS = frozenset(
    ["dim2:a2-zero-plus", "dim2:a2-zero-minus",
     "jordan-3:generic", "jordan-3:b5-zero"]
    + ["diagonal-%d:sqrt-%s" % (k, s)
       for k in (10, 11, 12, 13, 14, 17) for s in ("plus", "minus")])

CATALOG_VARIANTS = 77


def _dim2_control(label, subs):
    row = catalog.get_row("dim2")
    return dataclasses.replace(row, strata=(catalog.Stratum(label, (), subs),))


class Catalog:
    """`hlsb catalog verify` in process, plus the dual, the square twist
    and the invariant-pairing double of every variant."""

    name = "catalog"
    children = False

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        self.rows = catalog.catalog_list()
        rng.shuffle(self.rows)
        self.controls = [(label, _dim2_control(label, subs), expected)
                         for label, subs, expected in DIM2_CONTROLS]

    def run_pass(self, p):
        count = 0
        for row in self.rows:
            variants = p.step("build:" + row.ident,
                              lambda: catalog.expand_variants(row))
            for v in variants or ():
                count += 1
                self._variant(p, v)
        for label, row, expected in self.controls:
            p.verdict("control:" + label, expected,
                      lambda: report_outcome(
                          catalog.expand_variants(row)[0].bialgebra.check()),
                      dim=2)
        p.expect("catalog:variants", str(CATALOG_VARIANTS), str(count))

    @staticmethod
    def _variant(p, v):
        B, mult, ident = v.bialgebra, v.multiplicative, v.ident
        p.verdict("check:" + ident, "pass",
                  lambda: report_outcome(B.check(multiplicative=mult)),
                  dim=B.dim)
        p.verdict("dual:" + ident, "pass",
                  lambda: report_outcome(
                      constructions.dualize(B).check(multiplicative=mult)),
                  dim=B.dim)
        if mult:
            p.verdict("twist2:" + ident, "pass",
                      lambda: report_outcome(constructions.twist_power(B, 2)
                                             .check(multiplicative=True)),
                      dim=B.dim)
        expected = ("fail:double:jacobi" if ident in MANIN_JACOBI_FAILS
                    else "pass")
        p.verdict("manin:" + ident, expected,
                  lambda: report_outcome(constructions.manin_supertriple(
                      B.algebra, constructions.dualize(B).algebra).report),
                  dim=2 * B.dim)


class Glmn:
    """Construct (coboundary of r = h_1 ^ h_{m+n}) and check gl(m|n) of
    growing dimension, plus a gl(2|1) with one bracket constant shifted."""

    name = "glmn"
    children = False

    def __init__(self, seed, scratch):
        # The structures are symbolic and have no random part, so the seed
        # changes nothing here.
        self.items = []
        for m, n in glmn.SIZES:
            A = glmn.gl_algebra(m, n)
            self.items.append(("gl(%d|%d)" % (m, n), A,
                               glmn.cartan_wedge(A, m, n), "pass"))
        A = glmn.control_algebra()
        self.items.append(("control:gl(2|1)-shifted", A,
                           glmn.cartan_wedge(A, 2, 1),
                           "fail:" + ",".join(sorted(glmn.CONTROL_VIOLATIONS))))

    def run_pass(self, p):
        for label, A, r, expected in self.items:
            p.verdict("glmn:" + label, expected,
                      lambda: report_outcome(yangbaxter.coboundary_from_r(A, r)
                                             .check(multiplicative=True)),
                      dim=A.dim)


def _d1d0_outcome(A, span, rng):
    r = yangbaxter.random_fixed_tensor(A, rng, even_only=True, span=span)
    grid = structures.delta1(A, structures.delta0(A, r))
    return "pass" if all(t.is_zero() for line in grid for t in line) \
        else "fail:d1d0"


def _unfixed_outcome(A):
    # alpha sends e_0 to a combination with a nonzero constant off-diagonal
    # part, so e_0 (x) e_0 is not fixed by alpha (x) alpha.
    r = Tensor2(A.ring, A.basis)
    r.entries[0][0] = A.ring.one()
    structures.delta0(A, r)
    return "returned"


class Cohomology:
    """d1(d0(r)) = 0 on seeded rational instances of every multiplicative
    variant, for seeded r in the even alpha-fixed span."""

    name = "cohomology"
    children = False
    SAMPLES = 8
    CONTROLS = 8

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        self.variants = [v for row in catalog.catalog_list()
                         if row.multiplicative
                         for v in catalog.expand_variants(row)]
        self.seeds = [rng.getrandbits(32) for _ in self.variants]
        movable = [i for i, v in enumerate(self.variants)
                   if _moves_first_basis_vector(v.bialgebra.alpha)]
        self.control_at = set(rng.sample(movable, self.CONTROLS))

    def run_pass(self, p):
        for i, v in enumerate(self.variants):
            seed = self.seeds[i]
            B = p.step("concrete:" + v.ident, lambda: catalog.concrete_variant(
                v, rng=random.Random(seed)))
            if B is None:
                continue
            A = B.algebra
            span = p.step("span:" + v.ident,
                          lambda: yangbaxter.alpha_fixed_tensors(
                              A, even_only=True))
            if span is None:
                continue
            rng = random.Random(seed + 1)
            for s in range(self.SAMPLES):
                p.verdict("d1d0:%s#%d" % (v.ident, s), "pass",
                          lambda: _d1d0_outcome(A, span, rng), dim=A.dim)
            if i in self.control_at:
                p.verdict("control:unfixed-r:" + v.ident,
                          "raises:HypothesisError",
                          lambda: _unfixed_outcome(A), dim=A.dim)


def _moves_first_basis_vector(alpha):
    column = alpha.column(0)
    return any(v and v.is_constant() for v in column[1:])


class _CliOp:
    """One invocation: argv after ``hlsb``, the expected outcome, the
    dimension of the structure it reads, and the file it writes, whose
    structure must pass the multiplicative check."""

    def __init__(self, name, argv, expected, dim, out=None):
        self.name = name
        self.argv = argv
        self.expected = expected
        self.dim = dim
        self.out = out


def _json_outcome(code, text):
    try:
        data = json.loads(text)
    except ValueError:
        return "%s json=unparseable" % code
    if data.get("passed"):
        return "%s pass" % code
    axioms = sorted({v["axiom"] for v in data.get("violations", [])})
    return "%s fail:%s" % (code, ",".join(axioms))


def _text_outcome(code, text):
    lines = text.strip().splitlines()
    return "%s %s" % (code, lines[-1] if lines else "<no output>")


class Cli:
    """`hlsb` child processes, one at a time: checks, constructs and a
    catalog row, with negative controls and malformed files."""

    name = "cli"
    children = True

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        self.scratch = scratch
        os.makedirs(scratch, exist_ok=True)
        mult = [v for row in catalog.catalog_list() if row.multiplicative
                for v in catalog.expand_variants(row)]
        variant = rng.choice(mult)
        row_id = rng.choice(catalog.catalog_list()).ident
        label, subs, dim2_expected = rng.choice(DIM2_CONTROLS)
        dim2 = catalog.expand_variants(_dim2_control(label, subs))[0]
        A = glmn.gl_algebra(2, 1)
        gl21 = yangbaxter.coboundary_from_r(A, glmn.cartan_wedge(A, 2, 1))
        A = glmn.control_algebra()
        shifted = yangbaxter.coboundary_from_r(A, glmn.cartan_wedge(A, 2, 1))

        texts = {
            "variant": self._text(variant.bialgebra, variant.ident),
            "gl21": self._text(gl21, "gl(2|1)"),
            "control-dim2": self._text(dim2.bialgebra, label),
            "control-gl21": self._text(shifted, "gl(2|1) shifted"),
        }
        bad = json.loads(texts["variant"])
        bad["alpha"][0][0] = "zz"
        texts["bad-param"] = json.dumps(bad)
        bad = json.loads(texts["variant"])
        bad["bracket"].append([len(bad["basis"]), 0, 0, "1"])
        texts["bad-index"] = json.dumps(bad)
        bad = json.loads(texts["variant"])
        bad["alpha"][0][0] = "(" * 5000 + "1" + ")" * 5000
        texts["deep-nesting"] = json.dumps(bad)
        self.files = {}
        for key, text in texts.items():
            path = os.path.join(scratch, key + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[key] = path

        f = self.files
        out_dual = os.path.join(scratch, "out-dual.json")
        out_twist = os.path.join(scratch, "out-twist.json")
        vdim = variant.bialgebra.dim
        self.ops = [
            _CliOp("cli:check-json", ["check", f["variant"], "--multiplicative",
                                      "--format", "json"], "0 pass", vdim),
            _CliOp("cli:check-text-gl21", ["check", f["gl21"],
                                           "--multiplicative"],
                   "0 result: PASS", gl21.dim),
            _CliOp("cli:construct-dual", ["construct", "dual", f["variant"],
                                          "--out", out_dual], "0", vdim,
                   out=out_dual),
            _CliOp("cli:construct-twist2", ["construct", "twist", "--power",
                                            "2", f["variant"], "--out",
                                            out_twist], "0", vdim,
                   out=out_twist),
            _CliOp("cli:catalog-verify-row", ["catalog", "verify", "--row",
                                              row_id], "0 1/1 rows pass", 3),
            _CliOp("cli:check-control-dim2", ["check", f["control-dim2"],
                                              "--format", "json"],
                   "1 " + dim2_expected, 2),
            _CliOp("cli:check-control-gl21", ["check", f["control-gl21"],
                                              "--multiplicative", "--format",
                                              "json"],
                   "1 fail:" + ",".join(sorted(glmn.CONTROL_VIOLATIONS)),
                   shifted.dim),
            _CliOp("cli:check-unknown-parameter", ["check", f["bad-param"]],
                   "2", 0),
            _CliOp("cli:check-index-out-of-range", ["check", f["bad-index"]],
                   "2", 0),
            _CliOp("cli:check-deep-nesting", ["check", f["deep-nesting"]],
                   "2", 0),
        ]
        inputs = set(f.values())
        self.bytes_in = sum(os.path.getsize(arg) for op in self.ops
                            for arg in op.argv if arg in inputs)
        self.in_process = False
        src = os.path.dirname(os.path.dirname(catalog.__file__))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [x for x in [os.environ.get("PYTHONPATH")] if x])

    @staticmethod
    def _text(B, description):
        return fileformat.definition_text(
            fileformat.definition_from_bialgebra(B, description=description))

    def _outcome(self, op, code, stdout, stderr):
        if code != 0 and "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1]
            return ("%s" % code, "traceback: " + last[:120])
        if "--format" in op.argv:
            return _json_outcome(code, stdout)
        if (op.argv[0] == "check" and code == 0) or op.argv[0] == "catalog":
            return _text_outcome(code, stdout)
        return "%s" % code

    def _run_child(self, p, op):
        argv = [sys.executable, "-m", "hlsb.cli"] + op.argv
        res = run_child(argv, self.scratch, env=self.env)
        p.child_cpu += res.cpu
        p.child_rss_mb = max(p.child_rss_mb, res.maxrss_mb)
        p.child_walls.append(res.wall)
        if op.out is not None and res.code == 0:
            p.bytes_out += os.path.getsize(op.out)
        return self._outcome(op, res.code, res.stdout, res.stderr)

    def _run_main(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        return self._outcome(op, code, out.getvalue(), err.getvalue())

    def run_pass(self, p):
        for op in self.ops:
            if op.out is not None and os.path.exists(op.out):
                os.remove(op.out)
            if self.in_process:
                p.verdict(op.name, op.expected, lambda: self._run_main(op),
                          dim=op.dim)
            else:
                p.verdict(op.name, op.expected,
                          lambda: self._run_child(p, op), dim=op.dim)
            # checking the written file in process would add fileformat
            # spans that are not the command's own, so only child passes
            # do it; it runs untimed, after the pass
            if op.out is not None and not self.in_process:
                p.check_after("validate:" + op.name,
                              lambda op=op: self._validate(op))
        p.bytes_in += self.bytes_in

    @staticmethod
    def _validate(op):
        B = fileformat.load_definition(op.out).bialgebra
        if not B.check(multiplicative=True).passed:
            raise ValueError("constructed structure fails its check")


WORKLOADS = {w.name: w for w in (Catalog, Glmn, Cohomology, Cli)}
