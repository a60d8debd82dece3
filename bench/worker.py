"""One round of a benchmark workload in a fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --t0 EPOCH [--setup-only]
                            [--smoke] [--spans FILE]

Imports confspace from the checkout's src/, builds the seeded op list, runs
and checks every op (a raise or a wrong answer counts as a failed op and
the round continues), and prints one JSON object as its last stdout line.
Set-up time runs from --t0 (the parent's clock just before it started this
process) to the first timed op.  With --setup-only the worker then times
the calibration loop and exits, reporting set-up time both raw and
corrected for the host's speed (setup_s).  With --spans the round is traced: the
layer totals join the result and the spans go to FILE as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SAMPLE_ITERATIONS = 6_000
SAMPLE_EVERY_S = 0.1
# set-up time is corrected to a host that runs calibrate(SETUP_ITERATIONS)
# in REFERENCE_UNIT_S, about its duration on a quiet 2-core Xeon
SETUP_ITERATIONS = 15_000
SETUP_HOST_SAMPLES = 5
REFERENCE_UNIT_S = 0.005


def import_confspace():
    """Import confspace from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "confspace", "__init__.py")):
        raise SystemExit("bench: no confspace package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import confspace
    if not os.path.abspath(confspace.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: confspace imported from %s, not %s" % (confspace.__file__, SRC))
    return confspace


def calibrate(iterations):
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The loop mixes integer arithmetic with dict reads and writes, like the
    library's sparse eliminations; it tracks their drift more closely than
    arithmetic alone."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(iterations):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + len(table)) % 1000003
    return time.perf_counter() - start


class HostSampler:
    """Samples the host's speed while ops run.

    On a shared machine the interpreter's speed drifts by up to 2x within
    minutes, while a loop timed close in time tracks the drift.  Every
    SAMPLE_EVERY_S of wall time a SIGALRM handler, on the same thread as
    the ops, times calibrate(SAMPLE_ITERATIONS).  `spent` is the wall time
    the handler took, which is taken out of the op times (not out of the
    span times of a traced round, where it adds about 3%)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_ops(ops, tracer=None):
    """Time and check each op; returns the round's result without set-up.

    Op times exclude the host sampler and the answer checks.  The *_norm
    figures divide times by the mean host sample taken during them: time
    in calibration loops, from which the host's drift cancels."""
    answers, failures, op_s, op_cpu, op_norm = {}, [], {}, {}, {}
    with HostSampler() as host:
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = idx
            n0, spent0 = len(host.samples), host.spent
            t, c = time.perf_counter(), time.process_time()
            try:
                answer = op.run()
                error = None
            except Exception as exc:  # a failed op is counted and the round goes on
                error = "%s: %s" % (type(exc).__name__, exc)
            spent = host.spent - spent0
            op_s[op.name] = time.perf_counter() - t - spent
            op_cpu[op.name] = time.process_time() - c - spent
            during = host.samples[n0:]
            if during:
                op_norm[op.name] = op_s[op.name] * len(during) / sum(during)
            if error is None:
                answers[op.name] = answer
                problems = op.check(answer)
                if problems:
                    error = "; ".join(problems)
            if error is not None:
                failures.append({"op": op.name, "error": error})
    if not host.samples:
        host.samples.append(calibrate(SAMPLE_ITERATIONS))
    unit = sum(host.samples) / len(host.samples)
    wall, cpu = sum(op_s.values()), sum(op_cpu.values())
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "op_max_s": max(op_s.values()),
        "wall_norm": wall / unit,
        "cpu_norm": cpu / unit,
        "op_max_norm": max([op_s[name] / unit for name in op_s if name not in op_norm]
                           + list(op_norm.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "answers": answers,
        "op_s": op_s,
        "host_samples": len(host.samples),
        "host_unit_s": unit,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import_confspace()
    import workloads
    ops = workloads.build_ops(args.workload, args.seed, smoke=args.smoke)
    setup_s = time.time() - args.t0
    if args.setup_only:
        unit = statistics.median(calibrate(SETUP_ITERATIONS) for _ in range(SETUP_HOST_SAMPLES))
        print(json.dumps({"setup_s": setup_s * REFERENCE_UNIT_S / unit,
                          "setup_raw_s": setup_s, "host_unit_s": unit}))
        return 0

    tracer = None
    if args.spans:
        from confspace import linalg
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.default_counters(linalg))
    result = run_ops(ops, tracer)
    result["setup_raw_s"] = setup_s
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
