"""Record a baseline: every workload on ten seeds, plus one traced run each.

    python3 bench/baseline.py [--seeds 1-10] [--out bench/baseline.json]

Runs bench/run.py one run at a time with BENCHMARK.json's run_seconds and
writes, per workload and end-to-end metric, every run's value, the median,
the quartiles and the spread (interquartile range / median) that the
benchmark's bounds are judged against; per-layer figures come from the
traced run.  That is eleven runs of about run_seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=os.path.join(BENCH, "baseline.json"))
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = {"run_seconds": spec["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values, ok = {}, True
        for seed in range(lo, hi + 1):
            record, result = run(name, seed, spec["run_seconds"], 0)
            out["machine"] = record["machine"]
            ok = ok and result["correct"]
            for metric, v in record["end_to_end"].items():
                values.setdefault(metric, {"unit": v["unit"], "values": []})["values"].append(
                    v["value"])
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                file=sys.stderr, flush=True)
        for v in values.values():
            q1, _, q3 = statistics.quantiles(v["values"], n=4)
            med = statistics.median(v["values"])
            v.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        _, traced = run(name, lo, spec["run_seconds"], 1)
        out["workloads"][name] = {
            "correct": ok and traced["correct"],
            "end_to_end": values,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
