"""End-to-end CLI behaviour: exit codes, artifacts, idempotence."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vfbm
import vfbm.cli


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
    report = json.loads(res.stdout)
    entries = vfbm.cov_matrix(vfbm.load_model(model), vfbm.TimeGrid((0.0, 1.0, 2.0))).entries
    assert report["lambda_min"] == float(np.linalg.eigvalsh(entries)[0])
    assert report["dim"] == 6


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
    report_a, report_b = json.loads(a.stdout), json.loads(b.stdout)
    assert report_a["model_hash"] == report_b["model_hash"] and report_a["seed"] == 9
    # model_hash is the SHA-256 of the model's canonical JSON form
    canonical = json.dumps(vfbm.model.model_to_dict(vfbm.load_model(model)), sort_keys=True)
    assert report_a["model_hash"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    header, first = out1.read_text().splitlines()[:2]
    assert header == "rep,time,component,value"
    assert first.startswith("0,0.5,1,")


def test_simulate_csv_rows_match_sample_paths(tmp_path, mixing_file):
    grid, n, seed = (0.0, 0.5, 1.0, 2.5), 7, 11
    out = tmp_path / "paths.csv"
    res = _run("simulate", "--model", str(mixing_file), "--grid", "0,0.5,1,2.5", "--n", str(n),
               "--seed", str(seed), "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    paths = vfbm.sample_paths(vfbm.load_model(mixing_file), vfbm.TimeGrid(grid), n, seed).paths
    header, *rows = out.read_text().splitlines()
    assert header == "rep,time,component,value"
    assert len(rows) == paths.size
    for line, (r, k, c) in zip(rows, np.ndindex(paths.shape)):
        rep, time, component, value = line.split(",")
        assert (int(rep), float(time), int(component)) == (r, grid[k], c + 1)
        assert float(value) == paths[r, k, c]  # 17 digits round-trips


def test_write_csv_lines_equal_the_line_by_line_format(tmp_path):
    values = [-0.0, 5e-324, 1e308, 1 / 3, 2.0, -math.inf, math.nan]
    labels = ["0,1", "0.5,2", "1e-05,1", "-2.5,3", "10,1", "3,2", "7,1"]
    rows = [(0, np.array(values)), (12, np.array(values[::-1])), ("0.5,2", np.array(values))]
    out = tmp_path / "t.csv"
    vfbm.cli._write_csv(out, "key,time,component,value", labels, rows)
    expected = ["key,time,component,value"]
    expected += [f"{key},{label},{x:.17g}" for key, block in rows for label, x in zip(labels, block.tolist())]
    assert out.read_text().splitlines() == expected
    assert expected[1:3] == ["0,0,1,-0", "0,0.5,2,4.9406564584124654e-324"]


def _kernel_text(values) -> list[str]:
    """The text the CSV kernel gives each value, its 0 padding bytes removed."""
    text = vfbm.cli._value_text(np.array(values, dtype=float))
    assert text.shape == (vfbm.cli._VALUE_WIDTH, len(values))
    return [column.tobytes().replace(b"\0", b"").decode("ascii") for column in text.T]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_csv_kernel_text_is_the_17g_format(values):
    assert _kernel_text(values) == [f"{x:.17g}" for x in values]


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _tie_values() -> list[float]:
    """Odd multiples of 2**-m whose exact decimal expansion has 18 significant
    digits, the last a 5, so that %.17g rounds a tie: x in [10**(d-1), 10**d)
    has d integer digits and m = 18 - d fraction digits (d = 0 below 1)."""
    rng = np.random.default_rng(7)
    values = []
    for d in range(17):
        m = 18 - d
        lo, hi = (10**d * 2**m + 9) // 10, min(10**d * 2**m, 2**53)
        values += [(2 * j + 1) / 2**m for j in rng.integers(lo // 2, hi // 2, size=6).tolist()]
    return values


def test_csv_kernel_text_on_adversarial_values():
    # 10**k and its neighbours, among them the edges 1e-4 and 1e16 of fixed notation
    powers = [_ulps(10.0**k, s) for k in range(-5, 17) for s in range(-2, 3)]
    integers = [float(v) for v in (1, 7, 10, 123000, 2**31, 10**15 + 1, 2**53 - 1, 2**53, 9999999999999998)]
    fractions = [0.1, 0.5, 1 / 3, 2 / 3]
    ties = _tie_values()
    assert all(Decimal(x).as_tuple().digits[-1] == 5 and len(Decimal(x).as_tuple().digits) == 18 for x in ties)
    values = powers + integers + fractions + ties
    values += [-x for x in values]
    assert _kernel_text(values) == [f"{x:.17g}" for x in values]


@pytest.mark.parametrize(
    "chunk, m, blocks",
    [
        (8, 4, 4),  # blocks end on every chunk edge
        (8, 3, 3),  # 9 values: the last block straddles the edge by one value
        (8, 9, 2),  # a block longer than a chunk, straddling it by one value
        (8, 1, 17),  # one value per block
        # the same at the module's own chunk size
        (vfbm.cli._CSV_CHUNK, vfbm.cli._CSV_CHUNK // 2, 4),
        (vfbm.cli._CSV_CHUNK, vfbm.cli._CSV_CHUNK + 1, 2),
        (vfbm.cli._CSV_CHUNK, vfbm.cli._CSV_CHUNK - 1, 3),
    ],
)
def test_write_csv_lines_equal_the_line_by_line_format_across_chunks(tmp_path, monkeypatch, chunk, m, blocks):
    monkeypatch.setattr(vfbm.cli, "_CSV_CHUNK", chunk)
    rng = np.random.default_rng(m)
    labels = [f"{t:.17g},1" for t in rng.standard_normal(m)]
    special = np.array([0.0, -0.0, math.nan, math.inf, 5e-324, 1e-5, 3e16])
    rows = []
    for b in range(blocks):
        block = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 18, m)
        block[rng.integers(0, m, 2)] = rng.choice(special, 2)
        rows.append((b if b % 2 else f"{b / 7:.17g},{b}", block))  # int keys and keys with commas
    out = tmp_path / "t.csv"
    vfbm.cli._write_csv(out, "key,time,component,value", labels, iter(rows))
    expected = ["key,time,component,value"]
    expected += [f"{key},{label},{x:.17g}" for key, block in rows for label, x in zip(labels, block.tolist())]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")


def test_cov_csv_lines_equal_the_line_by_line_format(tmp_path, mixing_file):
    times = (0.0, 1e-5, 0.25, 1.0, 3.5)
    out = tmp_path / "cov.csv"
    argv = ["cov", "--model", str(mixing_file), "--grid", ",".join(map(repr, times)), "--out", str(out)]
    assert vfbm.cli.main(argv) == 0
    entries = vfbm.cov_matrix(vfbm.load_model(mixing_file), vfbm.TimeGrid(times)).entries
    labels = [f"{t:.17g},{c}" for t in times for c in (1, 2)]  # keys of the cov CSV carry a comma too
    expected = ["t_k,i,t_l,j,value"]
    expected += [f"{key},{label},{x:.17g}" for key, row in zip(labels, entries) for label, x in zip(labels, row.tolist())]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")
    assert "1.0000000000000001e-05,2,0,1,0" in expected  # a fallback value on a row with an exponent key


def test_simulate_zero_rows_mid_grid_beyond_one_block(tmp_path, mixing_file):
    # t = 0 at grid index 70 of 141 (rows 140, 141 of a dimension-282 covariance),
    # so the zero pivots fall in the second diagonal block of the factorization
    times = [k / 20 for k in range(-70, 71)]
    assert 2 * len(times) > vfbm.simulate._BLOCK
    out = tmp_path / "paths.csv"
    argv = ["simulate", "--model", str(mixing_file), "--grid=" + ",".join(map(repr, times)),
            "--n", "30", "--seed", "5", "--out", str(out)]
    assert vfbm.cli.main(argv) == 0
    paths = vfbm.sample_paths(vfbm.load_model(mixing_file), vfbm.TimeGrid(tuple(times)), 30, 5).paths
    assert np.all(paths[:, 70, :] == 0.0)
    at_zero = [line for line in out.read_text().splitlines()[1:] if line.split(",")[1] == "0"]
    assert len(at_zero) == 30 * 2
    assert all(line.endswith(",0") for line in at_zero)


@pytest.mark.parametrize(
    "grid, method",
    [("0,0.5,1", "cholesky"), (",".join(f"{k / 10:g}" for k in range(101)), "circulant")],  # 0,0.1,...,10
    ids=["3-points", "101-points-equispaced"],
)
def test_simulate_reports_its_method(tmp_path, mixing_file, capsys, grid, method):
    out = tmp_path / "paths.csv"
    argv = ["simulate", "--model", str(mixing_file), "--grid", grid, "--n", "3", "--seed", "1", "--out", str(out)]
    assert vfbm.cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"n": 3, "seed": 1, "model_hash": report["model_hash"], "method": method, "out": str(out)}


def test_not_psd_covariance_exits_1_with_one_json_line(tmp_path, mixing_file, monkeypatch, capsys):
    indefinite = vfbm.covariance.CovMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
    monkeypatch.setattr("vfbm.simulate.cov_matrix", lambda model, grid: indefinite)
    argv = ["simulate", "--model", str(mixing_file), "--grid", "1", "--n", "3", "--out", str(tmp_path / "p.csv")]
    assert vfbm.cli.main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "NotPSD"
    assert "at row 0" in error["message"] and "1.000000e+00 at row 1" in error["message"]
    assert not (tmp_path / "p.csv").exists()


def test_only_the_cli_opens_files_for_writing():
    # a call that opens a file for writing: open() with a mode other than "r"/"rb",
    # Path.write_text/write_bytes, os.open, or a tempfile call
    def writes(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        owner = getattr(func.value, "id", "") if isinstance(func, ast.Attribute) else ""
        if name == "open" and owner != "os":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            return any(not (isinstance(m, ast.Constant) and m.value in ("r", "rb")) for m in modes)
        return name in ("write_text", "write_bytes") or (owner, name) == ("os", "open") or owner == "tempfile"

    package = Path(vfbm.__file__).resolve().parent
    writers = {
        path.name
        for path in package.glob("*.py")
        if any(writes(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert writers == {"cli.py"}


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
    ct.write_text(json.dumps({"hurst": [0.3, 0.6], "c_tilde": vfbm.tilde_c(m0).tolist()}))
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
_FACTORIZE_FLAG = (*_FACTORIZE, "--hurst", "0.3,0.6")
_SIMULATE_SEED = ("simulate", "--model", "in.json", "--grid", "0.5,1", "--n", "2", "--out", "paths.csv", "--seed")
# 10**12 paths cannot be allocated, so the request fails at once
_SIMULATE_HUGE = ("simulate", "--model", "in.json", "--grid", "0.5,1", "--n", str(10**12), "--out", "paths.csv")
_COV_OVERFLOW = ("cov", "--model", "in.json", "--grid", "0.5,1,1e308", "--out", "cov.csv")
_COV_EMPTY_FIELD = ("cov", "--model", "in.json", "--grid", "0.5,,1, ", "--out", "cov.csv")
_COEFFS = ("coeffs", "--mixing", "in.json")
_SIMULATE_N = ("simulate", "--model", "in.json", "--grid", "0.5,1", "--n")


def _case(content, id, error="ValueError", argv=_VALIDATE, match=""):
    return pytest.param(argv, content, error, match, id=id)


_C12 = {"i": 1, "j": 2, "c_ij": 0.1, "c_ji": 0.1}
# C~ = cos(H pi) for H = (0.3, 0.6), which factors with A+ = I
_CT = [[math.cos(0.3 * math.pi), 0.0], [0.0, math.cos(0.6 * math.pi)]]
_CT_STRINGS = [[str(v) for v in row] for row in _CT]

# A key repeated within one object, which json.dumps cannot write: in each
# case the last value alone would pass.
_DUPLICATE_PAIR_KEY = (
    '{"hurst": [0.3, 0.6], "coefficients": {"pairs": [{"i": 1, "j": 2, "c_ij": 0.9, "c_ji": 0.1, "c_ij": 0.1}]}}'
)
_DUPLICATE_TOP_LEVEL_KEY = '{"hurst": [0.3, 0.6], "a_plus": [[1.0, 0.5], [0.5, 0.25]], "a_plus": [[1.0, 0.5], [0.0, 1.0]]}'
_DUPLICATE_C_TILDE_KEY = f'{{"hurst": [0.3, 0.6], "c_tilde": [[1.0, 0.0], [0.0, 1.0]], "c_tilde": {json.dumps(_CT)}}}'


# 1000 nested arrays exceed the JSON decoder's recursion limit
_DEEP_HURST = '{"hurst": ' + "[" * 1000 + "]" * 1000 + "}"


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
        _case({"hurst": [0.3, 0.6], "c_tilde": _CT_STRINGS}, "c-tilde-string-entries", argv=_FACTORIZE, match="amplitude"),
        _case({"hurst": [0.3, 0.6], "c_tilde": [[True, False], [False, True]]}, "c-tilde-bool-entries", argv=_FACTORIZE, match="amplitude"),
        _case({"hurst": [0.3, 0.6], "c_tilde": [[_CT[0][0], False], [0.0, _CT[1][1]]]}, "c-tilde-mixed-bool-entries", argv=_FACTORIZE, match="amplitude"),
        _case(_coeff_model(sigma=(1.0, True)), "mixed-bool-sigma", match="sigma"),
        _case({"hurst": [0.3, 0.6], "c_tilde": _CT, "note": "x"}, "c-tilde-unknown-key", argv=_FACTORIZE, match="note"),
        _case({"hurst": [0.3, 0.6]}, "c-tilde-missing", argv=_FACTORIZE, match="c_tilde"),
        _case(_DUPLICATE_PAIR_KEY, "duplicate-pair-key", match="c_ij"),
        _case(_DUPLICATE_TOP_LEVEL_KEY, "duplicate-top-level-key", argv=_COEFFS, match="a_plus"),
        _case(_DUPLICATE_C_TILDE_KEY, "c-tilde-duplicate-key", argv=_FACTORIZE, match="c_tilde"),
        _case(_mixing_model(), "simulate-seed-negative", argv=(*_SIMULATE_SEED, "-1"), match="seed"),
        _case(_mixing_model(), "simulate-seed-2-64", argv=(*_SIMULATE_SEED, str(2**64)), match="seed"),
        _case(None, "verify-seed-negative", argv=("verify", "--seed", "-3"), match="seed"),
        _case({"hurst": [0.3, 0.7], "coefficents": {"pairs": []}}, "unknown-top-level-key", match="coefficents"),
        _case({"hurst": [0.3, 0.6], "coefficients": {"sigmas": [2.0, 1.0]}}, "unknown-coefficients-key", match="sigmas"),
        _case(_coeff_model(pairs=[{**_C12, "weight": 2.0}]), "unknown-pair-key", match="weight"),
        _case(_coeff_model(hurst=(0.3, 0.7)), "cov-grid-overflow", argv=_COV_OVERFLOW, match="grid"),
        _case(_mixing_model(), "simulate-out-of-memory", error="MemoryError", argv=_SIMULATE_HUGE),
        _case(_coeff_model(), "cov-grid-empty-field", argv=_COV_EMPTY_FIELD, match="float"),
        _case(_DEEP_HURST, "nested-1000-deep", match="nested too deeply"),
        _case(_mixing_model(a_plus=((1e200, 0.0), (0.0, 1.0))), "mixing-gram-overflow", argv=_COEFFS, match="must not overflow"),
        # B(H+1/2, H+1/2) / sin(pi H) is about 1e300 at H = 1e-300
        _case({**_mixing_model(a_plus=((1e9, 0.0), (0.0, 1.0))), "hurst": [1e-300, 0.6]}, "mixing-variance-overflow",
              argv=_COEFFS, match="variance of component 1 overflows"),
        _case({"hurst": "junk", "c_tilde": _CT}, "c-tilde-junk-hurst-with-flag", argv=_FACTORIZE_FLAG, match="hurst"),
        _case({"hurst": [0.3, 0.7], "c_tilde": _CT}, "c-tilde-hurst-disagrees-with-flag", argv=_FACTORIZE_FLAG,
              match="differs from the file's hurst [0.3, 0.7]"),
        _case({"hurst": [0.3, 0.6], "c_tilde": _CT}, "c-tilde-empty-hurst-flag", argv=(*_FACTORIZE, "--hurst", ""),
              match="float"),
        # command lines that argparse rejects
        _case(None, "simulate-n-not-int", error="Usage", argv=(*_SIMULATE_N, "abc", "--out", "paths.csv"),
              match="invalid int value: 'abc'"),
        _case(None, "simulate-missing-out", error="Usage", argv=(*_SIMULATE_N, "2"), match="--out"),
        _case(None, "no-subcommand", error="Usage", argv=(), match="required: command"),
        _case(None, "unknown-subcommand", error="Usage", argv=("frobnicate",), match="invalid choice: 'frobnicate'"),
    ],
)
def test_usage_error_exit_code(tmp_path, argv, content, error, match):
    if content is not None:  # NaN and Infinity are written as JSON extensions; a str is written as is
        (tmp_path / "in.json").write_text(content if isinstance(content, str) else json.dumps(content))
    res = _run(*argv, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    err = json.loads(res.stderr)
    assert err["error"] == error
    assert match in err["message"], err["message"]


@pytest.mark.parametrize(
    "argv, content",
    [(("validate", "--model"), _DEEP_HURST),
     (("coeffs", "--mixing"), json.dumps(_mixing_model(a_plus=((1e200, 0.0), (0.0, 1.0)))))],
    ids=["nested-1000-deep", "mixing-gram-overflow"],
)
def test_hostile_model_file_is_one_json_line_in_process(tmp_path, capsys, argv, content):
    # in process, where a RecursionError or a RuntimeWarning (an error under the
    # test suite's filterwarnings) would escape main instead of its JSON line
    path = tmp_path / "in.json"
    path.write_text(content)
    assert vfbm.cli.main([*argv, str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ValueError"


def test_help_still_prints_and_exits_0(tmp_path):
    for argv in (("-h",), ("simulate", "-h")):
        res = _run(*argv, cwd=tmp_path)
        assert res.returncode == 0 and res.stderr == "", res.stderr
        assert res.stdout.startswith("usage: vfbm"), res.stdout


def test_verify_subcommand(tmp_path):
    out = tmp_path / "report.json"
    res = _run("verify", "--suite", "quadrature", "--seed", "1", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all({"check", "statistic", "tolerance", "pass"} <= set(r) for r in report["results"])
