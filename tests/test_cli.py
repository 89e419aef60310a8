"""End-to-end CLI behaviour: exit codes, artifacts, idempotence."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vfbm


# The directory holding the imported vfbm package, made absolute so that the
# CLI subprocess (run with cwd=tmp_path) imports this same copy even when it was
# found through a relative PYTHONPATH such as ``src``.
_PACKAGE_ROOT = str(Path(vfbm.__file__).resolve().parent.parent)


def _run(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vfbm.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,  # guards against a hung CLI; each call takes well under a second
    )


@pytest.fixture()
def mixing_file(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(
        json.dumps(
            {"hurst": [0.3, 0.6], "a_plus": [[1.0, 0.5], [0.0, 1.0]], "a_minus": [[0.0, 0.0], [0.0, 0.0]]}
        )
    )
    return path


def test_coeffs_then_validate(tmp_path, mixing_file):
    out = tmp_path / "model.json"
    res = _run("coeffs", "--mixing", str(mixing_file), "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    model = json.loads(out.read_text())
    assert model["hurst"] == [0.3, 0.6]

    res = _run("validate", "--model", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["passed"] is True


def test_validate_fails_on_bad_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "hurst": [0.3, 0.6],
                "coefficients": {"sigma": [1.0, 1.0], "pairs": [{"i": 1, "j": 2, "c_ij": 1.5, "c_ji": 1.0}]},
            }
        )
    )
    res = _run("validate", "--model", str(bad), cwd=tmp_path)
    assert res.returncode == 1, res.stderr
    assert res.stdout, res.stderr  # exit 1 is also what a failed import gives
    assert json.loads(res.stdout)["positive_definite"] is False


def test_cov_subcommand(tmp_path, mixing_file):
    model = tmp_path / "model.json"
    res = _run("coeffs", "--mixing", str(mixing_file), "--out", str(model), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "cov.csv"
    res = _run("cov", "--model", str(model), "--grid", "0,1,2", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t_k,i,t_l,j,value"
    assert len(lines) == 1 + 36  # (3 times x 2 components)^2
    out2 = tmp_path / "cov2.csv"
    res = _run("cov", "--model", str(model), "--grid", "0,1,2", "--out", str(out2), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == out2.read_bytes()  # byte-identical rerun


def test_simulate_idempotent_and_inputs_untouched(tmp_path, mixing_file):
    model = tmp_path / "model.json"
    res = _run("coeffs", "--mixing", str(mixing_file), "--out", str(model), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    before = hashlib.sha256(model.read_bytes()).hexdigest()
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    a = _run("simulate", "--model", str(model), "--grid", "0.5,1", "--n", "16", "--seed", "9", "--out", str(out1), cwd=tmp_path)
    b = _run("simulate", "--model", str(model), "--grid", "0.5,1", "--n", "16", "--seed", "9", "--out", str(out2), cwd=tmp_path)
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical rerun
    assert hashlib.sha256(model.read_bytes()).hexdigest() == before
    header, first = out1.read_text().splitlines()[:2]
    assert header == "rep,time,component,value"
    assert first.startswith("0,0.5,1,")


def test_factorize_infeasible_exit_code(tmp_path):
    ct = tmp_path / "ct.json"
    ct.write_text(json.dumps({"hurst": [0.3, 0.6], "c_tilde": [[1.0, 0.9], [0.2, 1.0]]}))
    res = _run("factorize", "--c-tilde", str(ct), cwd=tmp_path)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith('{"error"'), res.stderr  # exit 1 is also what a failed import gives
    err = json.loads(res.stderr.strip())
    assert err["error"] == "Infeasible"


def test_factorize_roundtrip_via_cli(tmp_path):
    hv = vfbm.validate_hurst([0.3, 0.6])
    m0 = vfbm.MixingMatrices(
        a_plus=np.array([[1.2, 0.0], [0.4, 0.9]]), a_minus=np.zeros((2, 2)), hurst=hv
    )
    ct = tmp_path / "ct.json"
    ct.write_text(json.dumps({"hurst": [0.3, 0.6], "c_tilde": vfbm.tilde_c(m0).c_tilde.tolist()}))
    out = tmp_path / "mix.json"
    res = _run("factorize", "--c-tilde", str(ct), "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rec = json.loads(out.read_text())
    assert np.allclose(rec["a_plus"], m0.a_plus, atol=1e-10)


_NAN, _INF = float("nan"), float("inf")


def _coeff_model(hurst=(0.3, 0.6), sigma=(1.0, 1.0), pairs=()):
    return {"hurst": list(hurst), "coefficients": {"sigma": list(sigma), "pairs": list(pairs)}}


def _mixing_model(a_plus=((1.0, 0.5), (0.0, 1.0)), a_minus=((0.0, 0.0), (0.0, 0.0))):
    return {"hurst": [0.3, 0.6], "a_plus": [list(r) for r in a_plus], "a_minus": [list(r) for r in a_minus]}


# Each usage-error case runs the CLI in a directory where ``in.json`` holds the
# case's content (no file when the content is None).
_VALIDATE = ("validate", "--model", "in.json")
_FACTORIZE = ("factorize", "--c-tilde", "in.json")
_SIMULATE_SEED = ("simulate", "--model", "in.json", "--grid", "0.5,1", "--n", "2", "--out", "paths.csv", "--seed")
# 10**12 paths cannot be allocated, so the request fails at once
_SIMULATE_HUGE = ("simulate", "--model", "in.json", "--grid", "0.5,1", "--n", str(10**12), "--out", "paths.csv")
_COV_OVERFLOW = ("cov", "--model", "in.json", "--grid", "0.5,1,1e308", "--out", "cov.csv")


def _case(content, id, error="ValueError", argv=_VALIDATE, match=""):
    return pytest.param(argv, content, error, match, id=id)


_C12 = {"i": 1, "j": 2, "c_ij": 0.1, "c_ji": 0.1}


@pytest.mark.parametrize(
    "argv,content,error,match",
    [
        _case(None, "missing-file", error="FileNotFoundError"),
        _case(_coeff_model(sigma=(_NAN, 1.0)), "nan-sigma"),
        _case(_coeff_model(sigma=(1.0, _INF)), "inf-sigma"),
        _case(_coeff_model(pairs=[{"i": 1, "j": 2, "c_ij": _NAN, "c_ji": 0.1}]), "nan-c"),
        _case(_coeff_model(hurst=(0.3, 0.7), pairs=[{"i": 1, "j": 2, "d_ij": 0.1, "f_ij": -_INF}]), "inf-f"),
        _case(_mixing_model(a_plus=((_NAN, 0.5), (0.0, 1.0))), "nan-a-plus"),
        _case(_mixing_model(a_minus=((0.0, 0.0), (_INF, 0.0))), "inf-a-minus"),
        _case(_coeff_model(pairs=[{"i": 1, "j": 3, "c_ij": 0.1, "c_ji": 0.1}]), "index-above-p"),
        _case(_coeff_model(pairs=[{"i": 0, "j": 2, "c_ij": 0.1, "c_ji": 0.1}]), "index-zero"),
        _case(_coeff_model(pairs=[{"i": 2, "j": 2, "c_ij": 1.0, "c_ji": 1.0}]), "diagonal-pair"),
        _case(_coeff_model(pairs=[_C12, {"i": 1, "j": 2, "c_ij": 0.2, "c_ji": 0.2}]), "duplicate-pair"),
        _case(_coeff_model(pairs=[_C12, {"i": 2, "j": 1, "c_ij": 0.2, "c_ji": 0.2}]), "duplicate-reversed-pair"),
        _case(_coeff_model(pairs=[{"i": 1, "j": 2, "c_ij": 0.1}]), "missing-c-ji"),
        _case(_coeff_model(hurst=(0.3, 0.7), pairs=[{"i": 1, "j": 2, "d_ij": 0.1}]), "missing-f-ij"),
        _case({"hurst": 0.3}, "scalar-hurst"),
        _case({"hurst": None}, "null-hurst"),
        _case({"hurst": [0.3, 0.6], "coefficients": [1.0, 1.0]}, "coefficients-not-object"),
        _case({"hurst": [0.3, 0.6], "coefficients": {"pairs": {"i": 1, "j": 2}}}, "pairs-not-list"),
        _case({"hurst": [0.3, 0.6], "c_tilde": [[_NAN, 0.0], [0.0, 1.0]]}, "nan-c-tilde", argv=_FACTORIZE, match="amplitude"),
        _case({"hurst": [0.3, 0.6], "c_tilde": [[1.0, 0.2]]}, "c-tilde-wrong-shape", argv=_FACTORIZE, match="amplitude"),
        _case([[1.0, 0.2], [0.2, 1.0]], "c-tilde-bare-list-no-hurst", argv=_FACTORIZE, match="hurst"),
        _case({"hurst": 0.3, "c_tilde": [[1.0]]}, "c-tilde-scalar-hurst", argv=_FACTORIZE, match="hurst"),
        _case({"hurst": "0.3", "c_tilde": [[1.0]]}, "c-tilde-string-hurst", argv=_FACTORIZE, match="hurst"),
        _case(_mixing_model(), "simulate-seed-negative", argv=(*_SIMULATE_SEED, "-1"), match="seed"),
        _case(_mixing_model(), "simulate-seed-2-64", argv=(*_SIMULATE_SEED, str(2**64)), match="seed"),
        _case(None, "verify-seed-negative", argv=("verify", "--seed", "-3"), match="seed"),
        _case({"hurst": [0.3, 0.7], "coefficents": {"pairs": []}}, "unknown-top-level-key", match="coefficents"),
        _case({"hurst": [0.3, 0.6], "coefficients": {"sigmas": [2.0, 1.0]}}, "unknown-coefficients-key", match="sigmas"),
        _case(_coeff_model(pairs=[{**_C12, "weight": 2.0}]), "unknown-pair-key", match="weight"),
        _case(_coeff_model(hurst=(0.3, 0.7)), "cov-grid-overflow", argv=_COV_OVERFLOW, match="grid"),
        _case(_mixing_model(), "simulate-out-of-memory", error="MemoryError", argv=_SIMULATE_HUGE),
    ],
)
def test_usage_error_exit_code(tmp_path, argv, content, error, match):
    if content is not None:
        (tmp_path / "in.json").write_text(json.dumps(content))  # NaN and Infinity are written as JSON extensions
    res = _run(*argv, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    err = json.loads(res.stderr)
    assert err["error"] == error
    assert match in err["message"], err["message"]


def test_verify_subcommand(tmp_path):
    out = tmp_path / "report.json"
    res = _run("verify", "--suite", "quadrature", "--seed", "1", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all({"check", "statistic", "tolerance", "pass"} <= set(r) for r in report["results"])
