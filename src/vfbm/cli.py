"""Command-line entry point: validate, coeffs, cov, factorize, simulate, verify.

Conventions: JSON for models and reports, CSV for bulk numbers, 1-based
component indices in all user-facing I/O.  Outputs are written atomically
(temp file + rename).  Exit status: 0 success, 1 validation failure,
2 usage or I/O error.  Every failure prints one machine-parseable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import itertools
import json
import os
import shutil
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
from .simulate import plan_paths
from .verify import run_suite

# The keys a c_tilde file in object form may carry.
_C_TILDE_FILE_KEYS = frozenset({"c_tilde", "hurst"})


def _atomic_write(path: str | Path, write) -> None:
    """Run write(tmp) on a temporary file beside path, then rename it to path.

    The file gets the mode open() gives a new file, 0o666 less the umask;
    mkstemp creates it 0o600, and the rename keeps that mode.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        umask = os.umask(0o022)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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
    times = [f"{t:.17g}" for t in grid.times]
    return [f"{t},{c}" for t in times for c in range(1, p + 1)]


# Bytes of the shortest line of a simulate CSV, "0,0,1,0\n".
_MIN_LINE_BYTES = 8
# Values the CSV kernel formats per call: long enough that numpy's loops, not
# the interpreter, take the time, and short enough that the arrays of one call
# stay under 1 MB.
_CSV_CHUNK = 4096
# Bytes of the longest %.17g text of a float64, "-2.2250738585072014e-308".
_VALUE_WIDTH = 24
# Veltkamp's factor 2**27 + 1 splits a double into halves of at most 26 bits,
# whose pairwise products are exact.
_SPLITTER = 134217729.0
# The 18 character positions of the digits and the point.
_DIGIT_POS = np.arange(18, dtype=np.int8)[:, None]
# Row i of the three leading fraction zeros of 0.000ddd is set when e <= -2 - i.
_LEADING_ZERO_AT = np.array([[-2], [-3], [-4]], dtype=np.int8)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


# 10**k for k = 0..21, each an exact double, and its halves.
_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e = floor(log10 a) as int8 and the int64 D = round-half-even(a 10**(16 - e)),
    for finite a in [1e-4, 1e16); where log10 is off by one, D falls outside
    [1e16, 1e17).

    Dekker's two-product gives a 10**k = hi + lo exactly (10**k is an exact double
    for k <= 21).  hi >= 2**53 is an even integer, so hi + rint(lo) rounds a tie to
    even, as %g does; a smaller hi means D < 1e16."""
    e = np.floor(np.log10(a)).astype(np.int8)
    k = (16 - e).astype(np.intp)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digits(d: np.ndarray) -> np.ndarray:
    """A (19, d.size) uint8 array: rows 1..17 the digits of each D in [1e16, 1e17),
    rows 0 and 18 zero.

    D is cut into three 6-digit parts, each below 2**32, and repeated uint32
    division by 10 gives their digits; the first part is below 10**5, so row 0 is 0."""
    mid = d // 10**6
    top = mid // 10**6
    parts = np.empty((3, d.size), np.uint32)
    parts[0] = top
    parts[1] = mid - top * 10**6
    parts[2] = d - mid * 10**6
    grid = np.empty((19, d.size), np.uint8)
    grid[18] = 0
    by_part = grid[:18].reshape(3, 6, d.size)
    ten = np.uint32(10)
    for i in range(5, -1, -1):
        q = parts // ten
        parts -= q * ten
        by_part[:, i] = parts
        parts = q
    return grid


def _value_text(x: np.ndarray) -> np.ndarray:
    """The bytes of f"{v:.17g}" for each value v of x, as a (24, x.size) uint8 array:
    column j holds the text of x[j] in order, with 0 for each byte it does not use.

    A value with 1e-4 <= |v| < 1e16 prints in fixed notation, built here from its
    17 significant digits (_significand) and e = floor(log10|v|): an optional "-",
    then "0." and -e - 1 zeros when e < 0, then the digits, the first max(n, e + 1)
    of them for n significant ones, with "." after digit e when e >= 0 and a digit
    follows.  0 and -0.0 print as "0" and "-0": the text of 1.0 with its digit made 0.
    Every other value takes the %.17g text of Python, one at a time: non-finite,
    subnormal, |v| < 1e-4 or >= 1e16, and a D that log10 put out of range.
    """
    u8 = np.uint8
    a = np.abs(x)
    zero = a == 0
    fixed = (a >= 1e-4) & (a < 1e16)  # False for nan
    e, d = _significand(np.where(fixed, a, 1.0))  # 1.0 keeps log10 and the casts finite
    fixed &= (d >= 10**16) & (d < 10**17)
    fixed |= zero
    grid = _digits(d)
    digits, shifted = grid[1:], grid[:-1]  # positions 0..17, and the same one position on
    n = np.max((digits[:17] != 0) * np.arange(1, 18, dtype=u8)[:, None], axis=0).view(np.int8)
    digits[:17] += u8(ord("0"))
    digits[0] -= zero.view(u8)  # a zero's "1" of 1.0 becomes "0"
    digits *= (_DIGIT_POS < np.maximum(n, e + np.int8(1))).view(u8)
    # the point's position, e + 1, or 18 (none)
    point = np.int8(18) - ((n > e + np.int8(1)) & (e >= 0)).view(np.int8) * (np.int8(17) - e)
    text = np.empty((_VALUE_WIDTH, x.size), u8)
    text[0] = np.signbit(x).view(u8) * u8(ord("-"))
    below_one = (e < 0).view(u8)
    text[1] = below_one * u8(ord("0"))
    text[2] = below_one * u8(ord("."))
    text[3:6] = (e <= _LEADING_ZERO_AT).view(u8) * u8(ord("0"))
    body = text[6:]
    np.multiply(digits, (_DIGIT_POS < point).view(u8), out=body)
    body += shifted * (_DIGIT_POS > point).view(u8)
    body += (_DIGIT_POS == point).view(u8) * u8(ord("."))
    other = np.flatnonzero(~fixed)
    if other.size:
        table = _text_table([f"{v:.17g}" for v in x[other].tolist()])
        text[:, other] = 0
        text[: table.shape[1], other] = table.T
    return text


def _text_table(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of each text as a row of a uint8 array, padded with 0 to the longest."""
    return np.array([t.encode("utf-8") for t in texts]).view(np.uint8).reshape(len(texts), -1)


def _write_csv(path: str | Path, header: str, labels: list[str], rows) -> None:
    """Write the header, then a `key,label,value` line per value of each (key, block) of
    rows, labels[i] going with block[i]; values have 17 significant digits, so they read
    back exactly.  The bytes are those of f"{key},{label},{x:.17g}\n" line by line.

    Lines are built a run at a time in one reused uint8 array, one row per line:
    the key and label text, each padded with 0 bytes to its field, then the value
    text of _value_text, a numpy kernel for values in fixed notation and for 0,
    with a fallback to Python's own formatting for every other value, and "\n".
    A run holds max(1, round(_CSV_CHUNK / m)) whole blocks of m values, or, when
    m > _CSV_CHUNK, a _CSV_CHUNK slice of one block.  The "\n" and label columns
    are filled when the array is laid out, except that each slice of a block
    longer than a run writes its own labels; a run writes one key row per block
    and its values.  The key field is as wide as the widest key so far, and a
    wider key lays the array out anew.  Deleting every 0 byte leaves the lines,
    which go to the file in one write per run."""
    tails = _text_table([f"{label}," for label in labels])
    m = len(labels)
    per_run = max(1, round(_CSV_CHUNK / m))
    run_lines = per_run * m if m <= _CSV_CHUNK else _CSV_CHUNK

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(f"{header}\n".encode("utf-8"))
            key_width, blocks = 0, iter(rows)
            while run := list(itertools.islice(blocks, per_run)):
                keys = np.array([f"{key},".encode("utf-8") for key, _ in run])
                if keys.itemsize > key_width:  # lay the lines out for the wider key
                    key_width = keys.itemsize
                    value_at = key_width + tails.shape[1]
                    # a bytearray under the array, so that translate reads it without a copy
                    buf = bytearray(run_lines * (value_at + _VALUE_WIDTH + 1))
                    lines = np.frombuffer(buf, np.uint8).reshape(run_lines, -1)
                    if m <= run_lines:
                        lines.reshape(per_run, m, -1)[:, :, key_width:value_at] = tails
                    lines[:, -1] = ord("\n")
                keys = keys.astype(f"S{key_width}").view(np.uint8).reshape(len(run), 1, key_width)
                values = np.concatenate([block for _, block in run])
                for start in range(0, values.size, run_lines):
                    part = values[start : start + run_lines]
                    if m > run_lines:
                        lines[: part.size, key_width:value_at] = tails[start : start + part.size]
                    lines[: part.size].reshape(len(run), -1, lines.shape[1])[:, :, :key_width] = keys
                    lines[: part.size, value_at:-1] = _value_text(part).T
                    size = part.size * lines.shape[1]  # a partial run writes its own lines only
                    fh.write((buf if size == len(buf) else buf[:size]).translate(None, b"\0"))

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
    plan = plan_paths(model, grid)
    chunks = plan.draw(args.n, args.seed)
    # the paths are drawn as they are written, so an output too large for the
    # disk would otherwise fill it before failing
    need = args.n * grid.n * model.p * _MIN_LINE_BYTES
    free = shutil.disk_usage(Path(args.out).parent).free
    if need > free:
        raise OSError(errno.ENOSPC, f"{os.strerror(errno.ENOSPC)}: {args.n} paths need at least {need} bytes "
                                    f"of CSV, and the directory of {args.out} has {free} free")
    rows = enumerate(path for chunk in chunks for path in chunk.reshape(len(chunk), -1))  # one block per path
    _write_csv(args.out, "rep,time,component,value", _grid_labels(grid, model.p), rows)
    model_hash = hashlib.sha256(json.dumps(model_to_dict(model), sort_keys=True).encode("utf-8")).hexdigest()
    sys.stdout.write(
        json.dumps({"n": args.n, "seed": args.seed, "model_hash": model_hash, "method": plan.method,
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


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
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
    # MemoryError: a request too large to allocate, e.g. cov on 10**6 grid points;
    # OSError includes simulate's output too large for the disk; a
    # json.JSONDecodeError is a ValueError
    except (OSError, KeyError, ValueError, MemoryError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
