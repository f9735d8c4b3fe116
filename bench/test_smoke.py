"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# end-to-end metrics that are printed, by the workloads that produce them
PRINTED = {
    "flagship_train": {"wall_s", "setup_s", "peak_rss_mb", "failed_frac", "train_s"},
    "oracle_flow": {"wall_s", "setup_s", "peak_rss_mb", "failed_frac", "dynamics_s", "oracle_s"},
    "theory_sample": {"wall_s", "setup_s", "peak_rss_mb", "failed_frac", "theory_s", "sample_s"},
}
# layers each workload bypasses; their traced time must be zero there
BYPASSED = {
    "flagship_train": ["lindyn.run_gradient_flow.s", "lindyn.monte_carlo_loss.s", "sampler.integrate.s",
                       "analytic.compute_moments.s"],
    "oracle_flow": ["kdiff.training_step.s", "sampler.integrate.s"],
    "theory_sample": ["kdiff.training_step.s", "lindyn.run_gradient_flow.s", "lindyn.monte_carlo_loss.s"],
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr

    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert PRINTED[workload] <= printed
    assert sum(line.startswith("hash ") for line in lines) >= 1
    if trace:
        assert set(listed) <= printed
        for name in BYPASSED[workload]:
            assert result["metrics"][name]["value"] == 0.0, name
    else:
        for name in listed:
            assert result["metrics"][name]["value"] > 0.0, name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
