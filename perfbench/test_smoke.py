"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs one untraced and one traced iteration at its tiny size
(suite-quick has no smaller variant and takes about half a minute).  No
check may fail, the emitted metric names and units must be exactly those of
BENCHMARK.json, and the span tree of the traced run must be consistent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_declared_lists_match_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_tiny(workload):
    res = run.run_workload(workload, seed=0, seconds=0, trace=True, tiny=True)
    assert res["attempted"] > 0
    assert res["failed"] == []
    assert res["tree_problems"] == []
    e2e = run.metrics_of(res, trace=False)
    layers = run.metrics_of(res, trace=True)
    assert {n: m["unit"] for n, m in e2e.items()} == _declared("end_to_end")
    assert {n: m["unit"] for n, m in layers.items()} == _declared("per_layer")
    assert all(m["value"] > 0 for m in e2e.values())
    assert all(m["value"] >= 0 for n, m in layers.items()
               if n != "trace.overhead_ratio")
    assert len(res["end_to_end"]["setup_s"]) >= run.MIN_SETUPS


def test_result_line_format(capsys):
    assert run.main(["--workload", "expander-sweep", "--seed", "3",
                     "--seconds", "0", "--trace", "0", "--tiny"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(_declared("end_to_end"))


def test_refuses_to_run_without_sources():
    os.makedirs(run.TMP, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.TMP)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "polar-relax",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
