"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --runs 10 [--trace 1]
        [--baseline bench/BENCH_baseline.json]

It runs every workload in BENCHMARK.json with seeds 1 to ``--runs``.  For
each workload and metric it prints the median, minimum, quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the bound in BENCHMARK.json.  With ``--baseline``
the summary is also stored in that JSON file, under ``end_to_end`` or
``per_layer`` by the trace setting, keeping the other section.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="PATH")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"runs": args.runs, "run_seconds": spec["run_seconds"],
              "seeds": [1, args.runs], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace",
                                     str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit("%s seed %d failed" % (workload, seed))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            results.append(result)
            print("%s seed %d: %.1f s, correct %s, failed %d/%d"
                  % (workload, seed, wall, result["correct"],
                     result["failed"], result["attempted"]), flush=True)
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            entry = summarise(values)
            entry["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = entry
            bound = bounds.get(name) if not args.trace else None
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s%s"
                  % (name, entry["median"], entry["q1"], entry["q3"],
                     "n/a" if entry["spread"] is None
                     else "%.4f" % entry["spread"],
                     "  (bound %s)" % bound if bound is not None else ""))
        with open(os.path.join(BENCH, "out", "result-%s-seed%d-trace%d.json"
                               % (workload, 1, args.trace)),
                  encoding="utf-8") as fh:
            report.setdefault("provenance", json.load(fh)["provenance"])
        report["workloads"][workload] = {
            "metrics": metrics,
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "run_wall_s": [r["wall_s"] for r in results],
        }
    if args.baseline:
        stored = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored["per_layer" if args.trace else "end_to_end"] = report
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
