"""The hlsb benchmark.

    python3 bench/run.py --workload catalog|glmn|cohomology|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics (see NOTES.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
metric by name with its unit, the mismatches, and the provenance.  A full
record of the run goes to ``bench/out/``.
"""

import argparse
import json
import math
import operator
import os
import shutil
import sys
import time

import harness
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 7
IMPORT_PROBES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "glmn", "cohomology", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args, scratch):
    """Import the package and build the workload's inputs."""
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, scratch)


def _child_json(argv, scratch, env=None):
    res = harness.run_child(argv, scratch, env=env)
    if res.code != 0:
        raise RuntimeError("%s exited with %s: %s"
                           % (" ".join(argv[1:4]), res.code, res.stderr[-500:]))
    return json.loads(res.stdout.strip().splitlines()[-1])


def _setup_samples(args, scratch):
    """Set-up time measured in fresh processes, so that the import counts;
    each sample is normalized by the reference loop run in that process."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(scratch, "setup-probe-%d" % k)
        os.makedirs(probe_dir, exist_ok=True)
        argv = [sys.executable, os.path.join(BENCH, "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--setup-probe", probe_dir]
        samples.append(_child_json(argv, scratch))
        shutil.rmtree(probe_dir)
    return samples


def _import_samples(workload, scratch):
    """Import time of ``hlsb.cli`` in a fresh child, normalized by the
    reference loop run here just before and after the child."""
    code = ("import time; t = time.perf_counter(); import hlsb.cli; "
            "import json; print(json.dumps({'s': time.perf_counter() - t}))")
    out = []
    for _ in range(IMPORT_PROBES):
        before = harness.reference_time()
        seconds = _child_json([sys.executable, "-c", code], scratch,
                              env=workload.env)["s"]
        out.append(harness.normalized(seconds, before,
                                      harness.reference_time()))
    return out


# -- end-to-end ----------------------------------------------------------

E2E_UNITS = (
    ("setup_s", "s"), ("run_s", "s"), ("run_cpu_s", "s"),
    ("verdicts_per_s", "1/s"), ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"), ("peak_rss_mb", "MB"),
    ("max_dim_verdict_s", "s"),
)


def dim_exponent(passes):
    """Log-log slope of verdict time between the two largest dimensions
    of the valid structures."""
    by_dim = {}
    for p, _, _ in passes:
        for name, seconds, dim in p.verdicts:
            if "control" not in name:
                by_dim.setdefault(dim, []).append(seconds)
    if len(by_dim) < 2:
        return None
    small, large = sorted(by_dim)[-2:]
    return (math.log(harness.median(by_dim[large])
                     / harness.median(by_dim[small]))
            / math.log(large / small))


def end_to_end(args, workload, gate, scratch):
    setup_samples = _setup_samples(args, scratch)
    passes = harness.run_passes(workload, gate, args.seconds)
    median, percentile = harness.median, harness.percentile
    verdict_ms = [s * 1e3 for p, _, _ in passes for _, s, _ in p.verdicts]
    if workload.children:
        rss = max(p.child_rss_mb for p, _, _ in passes)
    else:
        rss = harness.self_peak_rss_mb()
    values = {
        "setup_s": median([x["setup_s"] for x in setup_samples]),
        "run_s": median([wall for _, wall, _ in passes]),
        "run_cpu_s": median([cpu for _, _, cpu in passes]),
        "verdicts_per_s": median([len(p.verdicts) / wall
                                  for p, wall, _ in passes]),
        "verdict_p50_ms": percentile(verdict_ms, 50),
        "verdict_p90_ms": percentile(verdict_ms, 90),
        "peak_rss_mb": rss,
        "max_dim_verdict_s": median([p.largest_dim_seconds()
                                     for p, _, _ in passes]),
    }
    n = len(verdict_ms)
    tail = harness.tail_percentile(n)
    exponent = dim_exponent(passes) if args.workload == "glmn" else None
    notes = ["%-34s %14s  %s" % ("dim_exponent", _fmt(exponent), "1")]
    if tail is None:
        notes.append("verdict samples: %d; no percentile has ten samples "
                     "beyond it" % n)
    else:
        notes.append("verdict samples: %d; p%s = %s ms is the highest "
                     "percentile with ten samples beyond it"
                     % (n, _fmt(tail), _fmt(percentile(verdict_ms, tail))))
    raw_walls = [wall / p.scale for p, wall, _ in passes]
    notes.append("%-34s %14s  s  (raw wall time, not normalized)"
                 % ("run_s_raw", _fmt(median(raw_walls))))
    record = {"dim_exponent": exponent, "verdict_samples": n,
              "setup_samples": setup_samples,
              "pass_walls": [wall for _, wall, _ in passes],
              "pass_walls_raw": raw_walls}
    return values, E2E_UNITS, len(passes), notes, record


# -- per layer -----------------------------------------------------------

AXIOMS = {
    "grading": ["structures.HomSuperAlgebra.grading_violations",
                "structures.HomSuperCoalgebra.grading_violations"],
    "skew": ["structures.HomSuperAlgebra.skew_residual"],
    "jacobi": ["structures.HomSuperAlgebra.jacobi_residual"],
    "mult": ["structures.HomSuperAlgebra.mult_residual"],
    "coskew": ["structures.HomSuperCoalgebra.coskew_residual"],
    "cojacobi": ["structures.HomSuperCoalgebra.cojacobi_residual"],
    "comult": ["structures.HomSuperCoalgebra.comult_residual"],
    "compat": ["structures._compat_residual"],
}

# Inclusive times: each instant inside any of the names counts once.
INCLUSIVE = {
    "scalar.parse_s": ["scalar.ParamRing.parse"],
    "scalar.substitute_s": ["scalar.Scalar.substitute"],
    "structures.delta0_s": ["structures.delta0"],
    "structures.delta1_s": ["structures.delta1"],
    "structures.check_s": ["structures.HomSuperAlgebra.check",
                           "structures.HomSuperCoalgebra.check",
                           "structures.HomSuperBialgebra.check"],
    "yangbaxter.yb_residual_s": ["yangbaxter.yang_baxter_residual"],
    "yangbaxter.coboundary_s": ["yangbaxter.coboundary_from_r"],
    "yangbaxter.fixed_span_s": ["yangbaxter.alpha_fixed_tensors"],
    "yangbaxter.random_r_s": ["yangbaxter.random_fixed_tensor"],
    "constructions.dualize_s": ["constructions.dualize"],
    "constructions.twist_s": ["constructions.twist_power",
                              "constructions.twist"],
    "constructions.manin_s": ["constructions.manin_supertriple"],
    "catalog.build_s": ["catalog.expand_variants"],
    "catalog.concrete_s": ["catalog.concrete_variant"],
    "fileformat.load_s": ["fileformat.load_definition",
                          "fileformat.parse_definition"],
    "fileformat.dump_s": ["fileformat.definition_text",
                          "fileformat.dump_definition"],
}

PER_LAYER_UNITS = (
    [("scalar.add_calls", "count"), ("scalar.mul_calls", "count"),
     ("scalar.ring_eq_calls", "count"),
     ("scalar.add_ns", "ns"), ("scalar.mul_ns", "ns"),
     ("scalar.parse_s", "s"), ("scalar.substitute_s", "s"),
     ("superlinear.tensor_allocs", "count"),
     ("superlinear.grid_cells", "count"),
     ("superlinear.grid_fill", "frac"), ("superlinear.self_s", "s")]
    + [(name, unit) for axiom in list(AXIOMS) + ["ad_action"]
       for name, unit in (("structures.%s_calls" % axiom, "count"),
                          ("structures.%s_self_s" % axiom, "s"))]
    + [(name, "s") for name in INCLUSIVE if not name.startswith("scalar.")]
    + [("fileformat.bytes_in", "B"), ("fileformat.bytes_out", "B"),
       ("cli.process_s", "s"), ("cli.import_s", "s"), ("cli.main_s", "s"),
       ("trace.overhead_frac", "frac")])


def scalar_probe(pairs, op, rounds=9):
    """Median normalized nanoseconds of one ``op(a, b)`` over the sampled
    *pairs*."""
    if not pairs:
        return 0
    samples = []
    for _ in range(rounds):
        before = harness.reference_time()
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        ns = (time.perf_counter_ns() - t0) / len(pairs)
        samples.append(harness.normalized(ns, before,
                                          harness.reference_time()))
    return harness.median(samples)


def _mean_terms(pairs):
    if not pairs:
        return 0
    return sum(len(a.terms) + len(b.terms) for a, b in pairs) / (2 * len(pairs))


def per_layer(args, workload, gate, scratch):
    """Untraced passes for the first half of the time, one counting pass,
    traced passes for the second half.  For ``cli`` a third of the time
    first goes to child passes, and the other passes call ``hlsb.cli.main``
    in process."""
    median, run_passes = harness.median, harness.run_passes
    values = dict.fromkeys((name for name, _ in PER_LAYER_UNITS), 0)
    seconds = args.seconds
    if workload.children:
        child = run_passes(workload, gate, seconds / 3)
        values["cli.process_s"] = median(
            [w * p.scale for p, _, _ in child for w in p.child_walls])
        values["fileformat.bytes_in"] = median([p.bytes_in for p, _, _ in child])
        values["fileformat.bytes_out"] = median(
            [p.bytes_out for p, _, _ in child])
        values["cli.import_s"] = median(_import_samples(workload, scratch))
        workload.in_process = True
        seconds = seconds * 2 / 3
    plain = run_passes(workload, gate, seconds / 2)
    if workload.children:
        values["cli.main_s"] = median(
            [s for p, _, _ in plain for _, s, _ in p.verdicts])

    counter = tracing.Counter(args.seed)
    counter.install()
    try:
        run_passes(workload, gate, 0)
    finally:
        counter.remove()
    counts = counter.counts
    for key in tracing.Counter.KEYS:
        if key in values:
            values[key] = counts[key]
    if counts["fill.cells"]:
        values["superlinear.grid_fill"] = (counts["fill.nonzero"]
                                           / counts["fill.cells"])
    adds = counter.operands["scalar.add_calls"]
    muls = counter.operands["scalar.mul_calls"]
    values["scalar.add_ns"] = scalar_probe(adds, operator.add)
    values["scalar.mul_ns"] = scalar_probe(muls, operator.mul)
    # printed, not metrics: Scalar.__eq__ is reached on no workload (the
    # ring check is ParamRing.__eq__), and the operands' mean term count
    # describes the input of scalar.add_ns/mul_ns, not a cost
    notes = ["%-34s %14s  count  (Scalar.__eq__; see scalar.ring_eq_calls)"
             % ("scalar.eq_calls", counts["scalar.eq_calls"]),
             "%-34s %14s  terms  (mean, of the sampled add/mul operands)"
             % ("scalar.operand_terms", _fmt(_mean_terms(adds + muls)))]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, gate, seconds / 2, tracer=tracer)
    finally:
        tracer.remove()
    n = len(traced)
    # span times are raw; scale them like the passes they ran in
    per_pass = sum(p.scale for p, _, _ in traced) / n / n
    summary = tracer.summary()
    superlinear = ["superlinear." + path
                   for _, path in tracing.SPANNED["superlinear"]]
    values["superlinear.self_s"] = summary.self_s(superlinear) * per_pass
    for axiom, names in list(AXIOMS.items()) + [
            ("ad_action", ["structures.ad_action"])]:
        values["structures.%s_calls" % axiom] = summary.calls(names) / n
        values["structures.%s_self_s" % axiom] = (summary.self_s(names)
                                                  * per_pass)
    for metric, names in INCLUSIVE.items():
        values[metric] = summary.inclusive_s(names) * per_pass
    values["trace.overhead_frac"] = (
        median([w for _, w, _ in traced]) / median([w for _, w, _ in plain])
        - 1)

    spans_path = os.path.join(OUT, "spans-%s-seed%d.jsonl.gz"
                              % (args.workload, args.seed))
    tracer.write(spans_path)
    passes = {"untraced": len(plain), "traced": n}
    record = {"spans_file": os.path.relpath(spans_path, ROOT),
              "scalar.eq_calls": counts["scalar.eq_calls"],
              "scalar.operand_terms": _mean_terms(adds + muls)}
    return values, PER_LAYER_UNITS, passes, notes, record


# -- output --------------------------------------------------------------


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hlsb", "__init__.py")):
        print("bench: no package sources at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        before = harness.reference_time()
        t0 = time.perf_counter()
        _setup(args, args.setup_probe)
        raw = time.perf_counter() - t0
        after = harness.reference_time()
        print(json.dumps({"raw_s": raw, "setup_s": harness.normalized(
            raw, before, after)}))
        return 0

    scratch = os.path.join(OUT, "tmp-%s-%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = _setup(args, os.path.join(scratch, "inputs"))
        gate = harness.Gate()
        measure = per_layer if args.trace else end_to_end
        values, units, passes, notes, record = measure(args, workload, gate,
                                                       scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    prov = harness.provenance(ROOT, args.seed, passes,
                              values.get("trace.overhead_frac"))
    failed_frac = gate.failed / gate.attempted
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, metrics=metrics,
                  provenance=prov, attempted=gate.attempted,
                  failed=gate.failed, failed_frac=failed_frac,
                  correct=gate.correct, mismatches=gate.lines())
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("workload %s  seed %d  trace %d  passes %s"
          % (args.workload, args.seed, args.trace, passes))
    for name, unit in units:
        print("%-34s %14s  %s" % (name, _fmt(values[name]), unit))
    print("%-34s %14s  1  (%d of %d operations)"
          % ("failed_frac", _fmt(failed_frac), gate.failed, gate.attempted))
    for line in notes:
        print(line)
    print("mismatches: %s" % ("none" if not gate.mismatches else ""))
    for line in gate.lines():
        print("  " + line)
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
