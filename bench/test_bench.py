"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], size=wl.TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["facts"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, facts, result = tiny_run(capsys, workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert facts["failed_frac"] == 0.0 and facts["failures"] == []
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] != 0.0 for m in result["metrics"].values())


def test_facts_are_recorded(capsys):
    _, facts, _ = tiny_run(capsys, "joint_b16", 0)
    assert facts["seed"] == 3 and facts["nproc"] >= 1
    assert facts["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert facts["threads"]["XLALIGN_THREADS"] is None
    assert facts["src_xlalign_loc"] > 0
    assert {"python", "numpy", "blas", "commit"} <= set(facts)


def test_tracing_restores_the_patched_entry_points(capsys):
    import tracing

    before = [getattr(owner, attr) for owner, attr, _ in tracing.SPANS]
    tiny_run(capsys, "joint_b16", 1)
    assert [getattr(owner, attr) for owner, attr, _ in tracing.SPANS] == before


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tracing_leaves_the_quality_figures_unchanged(capsys, workload):
    _, plain, _ = tiny_run(capsys, workload, 0)
    _, traced, result = tiny_run(capsys, workload, 1)
    assert traced["quality"] == plain["quality"]
    assert result["metrics"]["trace.overhead_s"]["value"] > 0.0


def test_an_exception_counts_as_an_attempted_and_failed_operation(capsys, monkeypatch):
    def broken(self, seed, size):
        raise RuntimeError("no corpus")

    monkeypatch.setattr(wl.JointB16, "setup", broken)
    code, facts, result = tiny_run(capsys, "joint_b16", 0)
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert facts["failed_frac"] == 1.0


def test_a_wrong_planted_rotation_is_counted_as_a_failure(capsys, monkeypatch):
    planted = wl.planted_rotation
    monkeypatch.setattr(wl, "planted_rotation", lambda seed, dim: 2.0 * planted(seed, dim))
    code, facts, result = tiny_run(capsys, "eval_10k", 0)
    assert code == 1
    # once in the warm-up round and once in the timed round
    assert result["correct"] is False and result["failed"] == 2
    assert facts["failures"] == ["the fitted map recovers the planted rotation"] * 2


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "joint_b16",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
