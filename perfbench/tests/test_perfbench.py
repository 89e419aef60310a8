"""Tests of the benchmark itself: smoke runs at tiny sizes, the output
schema against BENCHMARK.json, the tracer, and refusal outside a checkout.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from workloads import WORKLOADS  # noqa: E402  (declared ones and many-paths)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request):
    """(record, result) of an untraced and a traced tiny run of one workload."""
    out = {}
    for trace in (0, 1):
        proc = _run(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return out


def test_smoke_run_is_correct(runs):
    for record, result in runs.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 12 and result["failed"] == 0
        assert record["end_to_end"]["error_rate"]["value"] == 0.0
        assert record["tail_samples"] >= 11


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_appears_with_its_unit(runs, trace, section):
    metrics = runs[trace][1]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC[section]}
    for m in metrics.values():
        assert isinstance(m["value"], (int, float))


def test_traced_and_untraced_runs_emit_the_same_end_to_end_names(runs):
    untraced, traced = runs[0][0]["end_to_end"], runs[1][0]["end_to_end"]
    assert list(untraced) == list(traced)
    assert {m["name"] for m in SPEC["end_to_end"]} | {"error_rate"} == set(untraced)
    assert runs[0][1]["metrics"].keys() <= untraced.keys()


def test_end_to_end_metrics_are_never_zero(runs):
    for name, m in runs[0][1]["metrics"].items():
        assert m["value"] > 0, name


def test_tracer_self_times_add_up_and_uninstall_restores():
    import numpy as np
    import vfbm
    import vfbm.verify
    from tracer import Tracer

    original = (vfbm.cov_matrix, vfbm.covariance.cov_pair, vfbm.simulate.cholesky_psd, vfbm.verify.SUITES["mc"])
    tracer = Tracer(vfbm)
    tracer.install()
    try:
        assert vfbm.covariance.cov_pair is not original[1]
        with tracer.job(0):
            model = vfbm.coeffs_from_mixing(vfbm.MixingMatrices(
                a_plus=np.array([[1.0, 0.5], [0.0, 1.0]]), a_minus=np.zeros((2, 2)),
                hurst=vfbm.validate_hurst([0.3, 0.7])))
            vfbm.sample_paths(model, vfbm.TimeGrid((0.0, 0.5, 1.0)), 10, 0)
            vfbm.cov_pair(model, 2, 1, 0.5, 1.0)  # re-enters cov_pair for i > j
    finally:
        tracer.uninstall()
    assert (vfbm.cov_matrix, vfbm.covariance.cov_pair, vfbm.simulate.cholesky_psd, vfbm.verify.SUITES["mc"]) == original

    summary = tracer.summary()
    m = summary["metrics"]
    assert m["covariance.cov_matrix.dim"] == 6.0
    assert m["simulate.cholesky_psd.zero_pivots"] == 2  # the two t = 0 rows
    assert m["simulate.normals"] == 60
    assert m["covariance.cov_pair.calls"] == 3 + 1  # 3 blocks of cov_matrix, 1 direct
    assert m["covariance.cov_pair.points"] == 3 * 9 + 1
    assert m["representation.coeffs_from_mixing.calls"] == 1
    (job,) = summary["jobs"]
    assert 0 < job["package_self_s"] <= job["job_s"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
