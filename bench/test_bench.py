"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    SPEC = json.load(_fp)
with open(os.path.join(BENCH_DIR, "design.json"), encoding="utf-8") as _fp:
    DESIGN = json.load(_fp)


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                         capture_output=True, text=True, cwd=cwd, timeout=600)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


def result_of(lines):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def test_declared_metrics_and_workloads_agree():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == workloads.WORKLOADS == tuple(DESIGN["workloads"])
    assert DESIGN["default_seed"] == run.DEFAULT_SEED
    declared = set(run.END_TO_END_UNITS) | set(tracing.LAYER_UNITS) | {"fail_frac"}
    for row in DESIGN["predictions"]:
        assert set(row["metrics"]) <= declared
        assert set(row["should_move"]) <= declared
        assert set(row["on"]) | set(row["flat_on"]) <= set(names)


def test_same_seed_same_configs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7, str(tmp_path))
        again = workloads.generate(workload, 7, str(tmp_path))
        other = workloads.generate(workload, 8, str(tmp_path))
        assert [(i.config, i.seed) for i in first] == [(i.config, i.seed) for i in again]
        assert [(i.config, i.seed) for i in first] != [(i.config, i.seed) for i in other]


def test_end_to_end_run_prints_every_metric_with_its_unit():
    code, lines, err = bench("--workload", "verify-replay", "--seed", "3", "--seconds", "0")
    assert code == 0, err
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in {**run.END_TO_END_UNITS, "fail_frac": "fraction"}.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit"):
        assert f'"{key}"' in text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    counts = []
    for _ in range(2):
        code, lines, err = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                                 "--trace", "1")
        assert code == 0, err
        result = result_of(lines)
        assert result["correct"]
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == tracing.LAYER_UNITS
        for name, unit in tracing.LAYER_UNITS.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines[:-1]), name
        counts.append({name: metrics[name]["value"] for name in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["library.build_calls"] == 1.0


def test_corrupted_expectation_counts_as_failure(tmp_path):
    chain = next(i for i in workloads.generate("oracle-solve", 2, str(tmp_path / "o"))
                 if "chain" in i.expect)
    replay = workloads.generate("verify-replay", 2, str(tmp_path / "v"))[0]
    for item in (chain, replay):
        measured = run.Measurement()
        run.measure([item], 0.0, measured)
        assert measured.attempted == 1 and measured.failures == []
    length, a, b = chain.expect["chain"]
    chain.expect["chain"] = [length, a, b + 1]
    replay.expect["slack"] = -1.0
    measured = run.Measurement()
    run.measure([chain, replay], 0.0, measured)
    assert measured.attempted == 2 and len(measured.failures) == 2
    assert "closed form" in measured.failures[0]
    assert "exceeds slack" in measured.failures[1]


def test_changed_artifacts_count_as_failure(tmp_path):
    item = workloads.generate("oracle-solve", 2, str(tmp_path))[1]
    measured = run.Measurement()
    run.measure([item], 0.0, measured)
    measured.digests[item.index] = "0" * 64
    run.measure([item], 0.0, measured)
    assert len(measured.failures) == 1 and "first run" in measured.failures[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines, _ = bench("--workload", "oracle-solve", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_thread_variable_is_cleared(monkeypatch):
    monkeypatch.setenv("STAGECRAFT_THREADS", "4")
    code, lines, err = bench("--workload", "oracle-solve", "--seed", "1", "--seconds", "0")
    assert code == 0 and "STAGECRAFT_THREADS" in err
    assert result_of(lines)["correct"]
