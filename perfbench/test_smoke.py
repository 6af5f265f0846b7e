"""Smoke test of the benchmark harness at reduced input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that the output checks pass on the package as it is and fail when an
expected value or an output is corrupted, and that the harness refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import perfcol  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = workloads.EXPECTED


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines(), done.stderr


def assert_result(doc, declared):
    assert set(doc) - {"workload"} == {"correct", "attempted", "failed",
                                       "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_every_end_to_end_metric_on_every_workload():
    code, lines, err = run_bench("--workload", "all", "--seed", "3",
                                 "--seconds", "0", "--trace", "0", "--smoke")
    assert code == 0, err
    results = [json.loads(line) for line in lines if '"metrics"' in line]
    assert [r["workload"] for r in results] == [w["name"]
                                                 for w in SPEC["workloads"]]
    for doc in results:
        assert_result(doc, SPEC["end_to_end"])
    env = json.loads(lines[-2])["env"]
    assert {"nproc", "python", "git_sha", "source_sha256"} <= set(env)


def test_every_per_layer_metric_in_a_traced_run():
    code, lines, err = run_bench("--workload", "search", "--seed", "3",
                                 "--seconds", "0", "--trace", "1", "--smoke")
    assert code == 0, err
    assert_result(json.loads(lines[-1]), SPEC["per_layer"])
    assert (ROOT / ".perfbench" / "trace-search-seed3.json").is_file()


def run_in_process(name, seed, smoke):
    setup, run, check, _ = workloads.WORKLOADS[name]
    tracer = NullTracer()
    inputs = setup(perfcol, seed, smoke, tracer)
    return inputs, run(perfcol, inputs, tracer), check


def failures(check, inputs, out, seed, smoke, expected):
    return [label for label, ok in check(perfcol, inputs, out, seed, smoke,
                                         expected) if not ok]


@pytest.mark.parametrize("name,seed,smoke,key,bad", [
    ("paper", 3, True, "paper.artifacts", 35),
    ("enum-5x3", 3, True, "enum", {(4, 3): (72, "0" * 64)}),
    ("predicates", workloads.DEFAULT_SEED, False, "predicates.tallies",
     [1248, 59748, 6521, 33]),
    ("search", 3, True, "search.labeled",
     {**EXPECTED["search.labeled"], "cube": 133}),
])
def test_checks_fail_on_a_corrupted_expected_value(name, seed, smoke, key, bad):
    inputs, out, check = run_in_process(name, seed, smoke)
    assert failures(check, inputs, out, seed, smoke, EXPECTED) == []
    assert failures(check, inputs, out, seed, smoke, {**EXPECTED, key: bad})


def test_predicate_checks_catch_a_wrong_verdict():
    inputs, out, check = run_in_process("predicates", 3, True)
    verdicts = out["cam.is_consistent"]
    i = inputs["subsample"][0]
    verdicts[i] = not verdicts[i]
    assert failures(check, inputs, out, 3, True, EXPECTED)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, err = run_bench("--workload", "paper", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any('"metrics"' in line for line in lines)
