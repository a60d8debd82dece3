"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import tracer
import worker

worker.import_confspace()
import workloads  # noqa: E402  (needs confspace from the checkout's src/)

BENCH = os.path.dirname(os.path.abspath(__file__))


def smoke_round(workload, seed, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--t0", repr(time.time()), "--smoke", *extra],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONHASHSEED": "0"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round_passes(workload):
    r = smoke_round(workload, 1)
    assert r["failures"] == []
    assert r["attempted"] == len(workloads.SMOKE[workload]) == len(r["answers"])
    assert r["wall_s"] > 0 and r["setup_raw_s"] > 0 and r["op_max_s"] <= r["wall_s"]
    assert r["wall_norm"] > 0 and r["op_max_norm"] > 0 and r["host_samples"] > 0


@pytest.mark.parametrize("workload", ["modp-p7", "ce-surface"])
def test_two_seeds_give_identical_answers(workload):
    a, b = smoke_round(workload, 1), smoke_round(workload, 2)
    assert list(a["op_s"]) != list(b["op_s"])  # the seed changed the op order
    assert a["answers"] == b["answers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_answers_equal_untraced(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    plain = smoke_round(workload, 3)
    traced = smoke_round(workload, 3, "--spans", str(spans))
    assert traced["answers"] == plain["answers"]
    layers = traced["layers"]
    lines = spans.read_text().splitlines()
    assert lines and all(json.loads(line)["end"] is not None for line in lines)
    if workload == "modp-p7":
        assert layers["linalg.rank.gf_s"] > 0 and layers["linalg.rank.qq_s"] == 0
        assert layers["forests.rewrite_to_tall.calls"] > 0
        assert 0 < layers["modp.conf_module.hit_ratio"] < 1
    elif workload == "ce-surface":
        assert layers["linalg.rank.qq_s"] > 0 and layers["linalg.rank.gf_s"] == 0
        assert layers["ce.ce_block.chains"] > 0 and layers["ce.euler.s"] > 0
        # betti ranks every differential twice
        assert layers["linalg.rank.distinct_ratio"] < 1
    else:
        assert layers["linalg.smith.calls"] > 0 and layers["linalg.rank.calls"] == 0
        assert layers["braid.relators"] > 0 and layers["arnold.normal_form.calls"] > 0


def test_planted_wrong_expectation_counts_as_failure():
    expected = workloads.load_expected()
    expected["pairing j=2"] = dict(expected["pairing j=2"], rank=174)
    ops = workloads.build_ops("zz-smith", 1, expected=expected, smoke=True)
    r = worker.run_ops(ops)
    assert r["attempted"] == len(ops) == len(r["answers"])
    assert r["failed"] == 1 and r["failures"][0]["op"] == "pairing j=2"


def test_missing_trace_target_stops_the_run(monkeypatch):
    from confspace import linalg
    monkeypatch.setitem(tracer.FUNCTIONS, "linalg.gone", ("linalg", "no_such_function"))
    t = tracer.Tracer()
    with pytest.raises(tracer.TargetMissing):
        t.install(tracer.default_counters(linalg))
    assert t.installed == [] and not hasattr(linalg.rank, "__wrapped__")


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zz-smith",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
