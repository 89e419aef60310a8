"""Command-line entry point: validate, coeffs, cov, factorize, simulate, verify.

Conventions: JSON for models and reports, CSV for bulk numbers, 1-based
component indices in all user-facing I/O.  Outputs are written atomically
(temp file + rename).  Exit status: 0 success, 1 validation failure,
2 usage or I/O error.  Every failure prints one machine-parseable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path


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


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return status


def _parse_grid(text: str):
    from .model import TimeGrid

    return TimeGrid(tuple(float(v) for v in text.split(",") if v.strip()))


def _cmd_validate(args) -> int:
    from .model import load_model, validate_model

    report = validate_model(load_model(args.model))
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cmd_coeffs(args) -> int:
    from .model import MixingMatrices, model_to_dict, parse_model
    from .representation import coeffs_from_mixing

    with open(args.mixing, "r", encoding="utf-8") as fh:
        parsed = parse_model(json.load(fh))
    if not isinstance(parsed, MixingMatrices):
        return _fail("Usage", "coeffs expects a mixing-matrix model file (a_plus/a_minus)", 2)
    _emit(model_to_dict(coeffs_from_mixing(parsed)), args.out)
    return 0


def _cmd_cov(args) -> int:
    from .covariance import cov_matrix, write_cov_csv
    from .model import ensure_valid, load_model

    model = ensure_valid(load_model(args.model))
    cov = cov_matrix(model, _parse_grid(args.grid))
    _atomic_write(args.out, lambda tmp: write_cov_csv(cov, tmp))
    sys.stdout.write(json.dumps({"lambda_min": cov.lambda_min, "dim": cov.dim, "out": args.out}) + "\n")
    return 0


def _cmd_factorize(args) -> int:
    import numpy as np

    from .model import mixing_to_dict, parse_hurst, validate_hurst
    from .representation import TildeC, causal_factorize

    with open(args.c_tilde, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    matrix = np.asarray(obj["c_tilde"] if isinstance(obj, dict) else obj, dtype=float)
    if args.hurst:
        hurst = validate_hurst([float(v) for v in args.hurst.split(",")])
    else:
        hurst = parse_hurst(obj.get("hurst") if isinstance(obj, dict) else None)
    mixing = causal_factorize(TildeC(c_tilde=matrix), hurst)
    _emit(mixing_to_dict(mixing), args.out)
    return 0


def _cmd_simulate(args) -> int:
    from .model import ensure_valid, load_model
    from .simulate import sample_paths

    model = ensure_valid(load_model(args.model))
    grid = _parse_grid(args.grid)
    ens = sample_paths(model, grid, args.n, args.seed)

    def write_csv(tmp):  # one write per path, so the whole table is never held as text
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("rep,time,component,value\n")
            for r, path in enumerate(ens.paths):
                values = zip(grid.times, path.tolist())
                fh.write("".join(f"{r},{t:.17g},{c},{x:.17g}\n" for t, row in values for c, x in enumerate(row, 1)))

    _atomic_write(args.out, write_csv)
    sys.stdout.write(
        json.dumps({"n": ens.n_paths, "seed": ens.seed, "model_hash": ens.model_hash, "out": args.out}) + "\n"
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, seed=args.seed)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vfbm", description=__doc__.splitlines()[0])
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
    f.add_argument("--hurst", default=None, help="comma-separated exponents (else taken from the file)")
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
    args = _build_parser().parse_args(argv)
    from .errors import VfbmError

    try:
        return args.fn(args)
    except VfbmError as exc:
        return _fail(exc.code, str(exc), 1)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except MemoryError as exc:  # a request too large to allocate, e.g. simulate --n 10**12
        return _fail("MemoryError", str(exc), 2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
