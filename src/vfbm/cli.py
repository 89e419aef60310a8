"""Command-line entry point: validate, coeffs, cov, factorize, simulate, verify.

Conventions: JSON for models and reports, CSV for bulk numbers, 1-based
component indices in all user-facing I/O.  Outputs are written atomically
(temp file + rename).  Exit status: 0 success, 1 validation failure,
2 usage or I/O error.  Every failure prints one machine-parseable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .covariance import cov_matrix
from .errors import VfbmError
from .model import (
    MixingMatrices,
    TimeGrid,
    _floats,
    _known_keys,
    ensure_valid,
    mixing_to_dict,
    model_to_dict,
    parse_hurst,
    parse_model,
    read_json,
    validate_hurst,
    validate_model,
)
from .representation import causal_factorize, coeffs_from_mixing, load_model
from .simulate import sample_paths
from .verify import run_suite

# The keys a c_tilde file in object form may carry.
_C_TILDE_FILE_KEYS = frozenset({"c_tilde", "hurst"})


def _atomic_write(path: str | Path, write) -> None:
    """Run write(tmp) on a temporary file beside path, then rename it to path."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))
    else:
        sys.stdout.write(text)


def _grid_labels(grid: TimeGrid, p: int) -> list[str]:
    """The `time,component` CSV text of each grid point, in (time, component) order."""
    return [f"{t:.17g},{c}" for t in grid.times for c in range(1, p + 1)]


def _write_csv(path: str | Path, header: str, labels: list[str], rows) -> None:
    """Write the header, then a `key,label,value` line per value of each (key, block) of
    rows, one write per block; values have 17 significant digits, so they read back exactly.

    Each block is written through one %-format template, the `key,` prefix joined with
    the `label,%.17g` line tails built once per table; the bytes are those of
    f"{key},{label},{x:.17g}" line by line.  Keys and labels are number text, free of `%`."""
    tails = [f"{label},%.17g\n" for label in labels]

    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for key, block in rows:
                prefix = f"{key},"
                fh.write((prefix + prefix.join(tails)) % tuple(block.tolist()))

    _atomic_write(path, write)


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return status


def _parse_grid(text: str) -> TimeGrid:
    return TimeGrid(tuple(float(v) for v in text.split(",")))


def _cmd_validate(args) -> int:
    report = validate_model(load_model(args.model))
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cmd_coeffs(args) -> int:
    parsed = parse_model(read_json(args.mixing))
    if not isinstance(parsed, MixingMatrices):
        return _fail("Usage", "coeffs expects a mixing-matrix model file (a_plus/a_minus)", 2)
    _emit(model_to_dict(coeffs_from_mixing(parsed)), args.out)
    return 0


def _cmd_cov(args) -> int:
    model = ensure_valid(load_model(args.model))
    grid = _parse_grid(args.grid)
    cov = cov_matrix(model, grid)
    labels = _grid_labels(grid, model.p)
    _write_csv(args.out, "t_k,i,t_l,j,value", labels, zip(labels, cov.entries))
    lambda_min = float(np.linalg.eigvalsh(cov.entries)[0])
    sys.stdout.write(json.dumps({"lambda_min": lambda_min, "dim": cov.dim, "out": args.out}) + "\n")
    return 0


def _cmd_factorize(args) -> int:
    obj = read_json(args.c_tilde)
    if isinstance(obj, dict):
        _known_keys(obj, _C_TILDE_FILE_KEYS, "the top level of the c_tilde file")
        raw, fields = obj.get("c_tilde"), obj
    else:  # a bare p x p list
        raw, fields = obj, {}
    # the file's hurst is checked whenever it is given, and required without --hurst
    flag = args.hurst is not None
    file_hurst = parse_hurst(fields.get("hurst")) if "hurst" in fields or not flag else None
    hurst = validate_hurst([float(v) for v in args.hurst.split(",")]) if flag else file_hurst
    if file_hurst is not None and file_hurst != hurst:
        raise ValueError(f"--hurst {list(hurst.h)} differs from the file's hurst {list(file_hurst.h)}")
    mixing = causal_factorize(_floats(raw, "amplitude matrix c_tilde", (hurst.p, hurst.p)), hurst)
    _emit(mixing_to_dict(mixing), args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = ensure_valid(load_model(args.model))
    grid = _parse_grid(args.grid)
    ens = sample_paths(model, grid, args.n, args.seed)
    rows = enumerate(ens.paths.reshape(ens.n_paths, -1))  # one block per path
    _write_csv(args.out, "rep,time,component,value", _grid_labels(grid, model.p), rows)
    model_hash = hashlib.sha256(json.dumps(model_to_dict(model), sort_keys=True).encode("utf-8")).hexdigest()
    sys.stdout.write(
        json.dumps({"n": ens.n_paths, "seed": args.seed, "model_hash": model_hash, "method": ens.method,
                    "out": args.out}) + "\n"
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise, for main to report as one JSON line; subparsers share the class
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vfbm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a model file (positive definiteness of R)")
    v.add_argument("--model", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_validate)

    c = sub.add_parser("coeffs", help="convert mixing matrices to covariance coefficients")
    c.add_argument("--mixing", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_coeffs)

    m = sub.add_parser("cov", help="write the grid covariance matrix as CSV")
    m.add_argument("--model", required=True)
    m.add_argument("--grid", required=True, help="comma-separated times, e.g. 0.5,1,2")
    m.add_argument("--out", required=True)
    m.set_defaults(fn=_cmd_cov)

    f = sub.add_parser("factorize", help="recover a causal representation from an amplitude matrix")
    f.add_argument("--c-tilde", dest="c_tilde", required=True)
    f.add_argument("--hurst", default=None, help="comma-separated exponents (else the file's; both must agree)")
    f.add_argument("--out", default=None)
    f.set_defaults(fn=_cmd_factorize)

    s = sub.add_parser("simulate", help="sample exact paths on a grid")
    s.add_argument("--model", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_simulate)

    w = sub.add_parser("verify", help="run the oracle self-check suites")
    w.add_argument("--suite", default="all")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", default=None)
    w.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except argparse.ArgumentError as exc:
        return _fail("Usage", str(exc), 2)
    except VfbmError as exc:
        return _fail(exc.code, str(exc), 1)
    # MemoryError: a request too large to allocate, e.g. simulate --n 10**12; a
    # json.JSONDecodeError is a ValueError
    except (OSError, KeyError, ValueError, MemoryError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
