"""Tests of the benchmark itself (a few minutes; each case runs workloads):

    python3 -m pytest perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Counts that depend only on the workload's inputs, never on timing.
DETERMINISTIC = re.compile(
    r"autodiff\.\w+\.calls|autodiff\.op_calls_per_step|autodiff\.tape_nodes_per_step"
    r"|cues\.score_cue_set_calls|cues\.synthesize_cues_calls|cues\.regen_rounds_per_option"
    r"|numerics\.cosine_calls|model\.expert_forward_calls")
# A seed that was not used while the benchmark was written.
FRESH_SEED = 90017


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_every_name_is_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.fullmatch(n)] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat(workload):
    first, second = (result_of(run_bench(workload, 3, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [name for name in first["metrics"] if DETERMINISTIC.fullmatch(name)]
    assert {"autodiff.tape_nodes_per_step", "cues.score_cue_set_calls",
            "cues.regen_rounds_per_option"} <= set(counts)
    assert len([c for c in counts if c.endswith(".calls")]) == 15
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["autodiff.tape_nodes_per_step"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_seed_runs_clean(workload):
    result = result_of(run_bench(workload, FRESH_SEED, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
