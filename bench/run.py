"""confspace benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {modp-p7,ce-surface,zz-smith} --seed N
                         --seconds S --trace {0,1}

Every round runs the workload's whole op list in a fresh single-threaded
worker process (bench/worker.py), so the module-level caches start empty in
each round, and at most one worker runs at a time.  Round r of a run with
seed N uses seed 1000 N + r, which fixes its op order.  Rounds repeat while
the next one is predicted to end within --seconds (the first always runs).
Before them, SETUP_SAMPLES workers only do the set-up.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, medians over
the rounds.  Raw seconds on a shared host drift by up to 2x within minutes,
so the gated times are corrected for the host's speed, measured by a fixed
loop timed next to them (worker.calibrate).  The *_norm figures are in
"calib" units: seconds divided by the loop's duration sampled during the
ops (worker.HostSampler).  setup_s is the median over the set-up workers of
set-up seconds scaled to a host of reference speed by the loop timed right
after the set-up (worker.REFERENCE_UNIT_S).  --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics: medians over
the traced rounds, plus trace.overhead_ratio (traced wall_norm / untraced
wall_norm - 1) and host.calib_s, the fixed loop timed at the start and the
end of the run.  Every round's answers must be the same.

The last stdout line is the result {"correct", "attempted", "failed",
"metrics"}.  The line before it is the run record: the machine, every
round's numbers and every end-to-end figure, including raw wall_s, cpu_s
and op_max_s and ops_failed_ratio.  Both also go to .bench_out/, with the
spans of the last traced round.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CALIB_ITERATIONS = 500_000
# end-to-end figures of the run record; BENCHMARK.json gates a subset
END_TO_END_UNITS = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "cpu_s": "s",
                    "op_max_s": "s", "wall_norm": "calib", "cpu_norm": "calib",
                    "op_max_norm": "calib", "peak_rss_mb": "MB", "ops_failed_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "src_lines": src_lines}


def run_worker(args, deadline, step, extra=()):
    """One worker process; step numbers the rounds of the run, and the
    round's seed, which fixes its op order, is derived from the run's."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CONFSPACE_WORKERS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    # bytecode is compiled once per checkout and kept out of src/, so that
    # set-up time measures imports whether or not the environment caches it
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
    seed = args.seed * 1000 + step
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(seed),
           "--t0", repr(time.time()), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result:\n%s" % proc.stderr.strip())
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def collect(args):
    """Run the set-up samples and the rounds; returns (setups, plain, traced)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_worker(args, deadline, 0, ["--setup-only"]) for _ in range(SETUP_SAMPLES)]
    spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    plain, traced = [], []
    start = time.monotonic()
    while True:
        if args.trace:
            # alternate which side of a pair goes first, against drift
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
        else:
            order = (False,)
        step = len(plain)
        for traced_round in order:
            if traced_round:
                traced.append(run_worker(args, deadline, step, ["--spans", spans]))
            else:
                plain.append(run_worker(args, deadline, step))
        took = time.monotonic() - start
        per_step = took / len(plain)
        if took + per_step > args.seconds or took + 2 * per_step > RUN_LIMIT_S - 10:
            break
    return setups, plain, traced


def summarize(args, spec, setups, plain, traced, calib):
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    answers = plain[0]["answers"]
    same = all(r["answers"] == answers for r in rounds)
    end_to_end = {name: statistics.median(r[name] for r in plain)
                  for name in END_TO_END_UNITS if name in plain[0]}
    end_to_end["setup_raw_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    end_to_end["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    end_to_end["ops_failed_ratio"] = failed / attempted
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = (
            statistics.median(r["wall_norm"] for r in traced) / end_to_end["wall_norm"] - 1.0)
        values["host.calib_s"] = statistics.median(calib)
        wanted = spec["per_layer"]
    else:
        values = end_to_end
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError("metric %r was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "calib_s": calib,
        "answers_identical": same,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end.items()},
        "setup_samples": setups,
        "rounds": [{k: v for k, v in r.items() if k != "answers"} for r in rounds],
    }
    result = {"correct": failed == 0 and same, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "confspace", "__init__.py")):
        print("bench: no confspace sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    calib = [calibrate(CALIB_ITERATIONS)]
    try:
        setups, plain, traced = collect(args)
        calib.append(calibrate(CALIB_ITERATIONS))
        record, result = summarize(args, spec, setups, plain, traced, calib)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    path = os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for r in record["rounds"]:
        for f in r["failures"]:
            print("bench: op %r failed: %s" % (f["op"], f["error"]), file=sys.stderr)
    if not record["answers_identical"]:
        print("bench: the rounds' answers differ", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
