"""Domain types and validation for vector-fBm parameterizations.

A model is fully specified by the Hurst exponents H_1..H_p (a
``HurstVector``, which validates them and whose ``critical`` mask sorts
the pairs into the two regimes below), the per-component scales
sigma_i = std X_i(1), and two p x p coefficient arrays (0-based indices):

* ``c``: for a general pair (H_i + H_j != 1), c[i, j] = c_ij and
  c[j, i] = c_ji; for a critical pair (H_i + H_j = 1), d_ij in both
  places; the diagonal is 1;
* ``f``: antisymmetric, f[i, j] = f_ij = -f[j, i] on critical pairs, where
  it weights the logarithmic part of the cross-covariance; 0 elsewhere.

Both follow the exchange rule r_ji(s, t) = r_ij(t, s).  The symmetric part
R = (c + c^T)/2 is the correlation matrix of (X_1(1)/sigma_1, ...,
X_p(1)/sigma_p), with off-diagonal entries (c_ij + c_ji)/2 or d_ij; its
positive definiteness is a necessary condition for such a process to exist,
and ``validate_model`` checks it with a floating-point-safe tolerance.

Model files are JSON with 1-based component indices; either explicit
coefficients or mixing matrices are accepted (``representation.load_model``
converts the latter).  ``MixingMatrices`` computes the scales sigma once, so
a mixing with a zero-variance component is rejected when built or parsed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (DegenerateComponentError, IndexOutOfRangeError, NearSingularPairError,
                     NotPositiveDefiniteError, OutOfRangeError)
from .special import CRITICAL_TOL, beta

__all__ = [
    "CovarianceModel",
    "MixingMatrices",
    "TimeGrid",
    "validate_hurst",
    "validate_model",
    "ensure_valid",
]

# Sums with |H_i+H_j-1| in this open band are rejected: not exactly critical,
# but close enough that the general-regime coefficients are pure noise.
NEAR_SINGULAR_BAND = 1e-8

# lambda_min > -PD_TOL * max(1, lambda_max) counts as positive (semi)definite.
PD_TOL = 1e-10

# sigma_i^2 at or below this is treated as a degenerate (zero) component.
_DEGENERATE_TOL = 1e-14

# Coefficient keys of a model-file pair entry, by regime.
_GENERAL_KEYS = ("c_ij", "c_ji")
_CRITICAL_KEYS = ("d_ij", "f_ij")

# The keys each level of a model file may carry; any other key is an error.
_MIXING_FILE_KEYS = frozenset({"hurst", "a_plus", "a_minus"})
_COEFFICIENT_FILE_KEYS = frozenset({"hurst", "coefficients"})
_COEFFICIENTS_KEYS = frozenset({"sigma", "pairs"})
_PAIR_KEYS = frozenset({"i", "j", *_GENERAL_KEYS, *_CRITICAL_KEYS})


@dataclass(frozen=True)
class HurstVector:
    """Component self-similarity exponents, each a finite number in (0, 1).

    Raises OutOfRangeError (1-based index; 0 when there is none) or, for a
    pair sum within NEAR_SINGULAR_BAND of 1 but not critical,
    NearSingularPairError.  ``critical`` is the read-only p x p mask of the
    critical pairs: i != j with |H_i+H_j-1| <= CRITICAL_TOL.
    """

    h: tuple[float, ...]
    critical: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(float(x) for x in self.h)
        if not vals:
            raise OutOfRangeError(0, float("nan"))
        for idx, value in enumerate(vals, start=1):
            if not (math.isfinite(value) and 0.0 < value < 1.0):
                raise OutOfRangeError(idx, value)
        p = len(vals)
        critical = np.zeros((p, p), dtype=bool)
        for i in range(p):
            for j in range(i + 1, p):
                gap = abs(vals[i] + vals[j] - 1.0)
                if gap <= CRITICAL_TOL:
                    critical[i, j] = critical[j, i] = True
                elif gap < NEAR_SINGULAR_BAND:
                    raise NearSingularPairError(i + 1, j + 1, vals[i] + vals[j])
        object.__setattr__(self, "h", vals)
        object.__setattr__(self, "critical", _frozen(critical))

    @property
    def p(self) -> int:
        return len(self.h)

    def __getitem__(self, i: int) -> float:
        return self.h[i]


def validate_hurst(h: Sequence[float]) -> HurstVector:
    """The validated exponents of h; see ``HurstVector`` for the errors raised."""
    return HurstVector(tuple(h))


def _check_components(p: int, *indices: int) -> None:
    """IndexOutOfRangeError unless every 1-based component index is in 1..p."""
    for k in indices:
        if not 1 <= k <= p:
            listed = ",".join(map(str, indices))
            raise IndexOutOfRangeError(f"component indices ({listed}) out of range for p = {p}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """A fully specified vfBm law: exponents, scales and the (c, f) arrays.

    ``sigma`` defaults to ones, ``c`` to the identity and ``f`` to zeros,
    i.e. independent unit-scale components.  The constructor rejects wrong
    shapes, non-finite values (also an R that overflows), sigma <= 0, a
    diagonal of ``c`` other than 1, an asymmetric ``c`` on a critical pair,
    and an ``f`` that is not antisymmetric or is nonzero on a general pair
    (ValueError).  ``critical`` is ``hurst.critical`` itself, and ``r`` is
    R = (c + c^T)/2.
    """

    hurst: HurstVector
    sigma: np.ndarray | None = None
    c: np.ndarray | None = None
    f: np.ndarray | None = None
    critical: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.hurst.p
        sigma = np.ones(p) if self.sigma is None else np.array(self.sigma, dtype=float)
        c = np.eye(p) if self.c is None else np.array(self.c, dtype=float)
        f = np.zeros((p, p)) if self.f is None else np.array(self.f, dtype=float)
        if sigma.shape != (p,) or c.shape != (p, p) or f.shape != (p, p):
            raise ValueError(
                f"p = {p} needs sigma ({p},) and c, f ({p}, {p}); got {sigma.shape}, {c.shape}, {f.shape}"
            )
        for name, a in (("sigma", sigma), ("c", c), ("f", f)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite, got {a.tolist()}")
        if not (sigma > 0.0).all():
            raise ValueError(f"sigma must be positive, got {sigma.tolist()}")
        if not (c.diagonal() == 1.0).all():
            raise ValueError(f"the diagonal of c must be 1, got {c.diagonal().tolist()}")
        critical = self.hurst.critical  # the exponents' mask, shared, not copied
        if ((c != c.T) & critical).any():
            raise ValueError("c must be symmetric on critical pairs (c_ij = c_ji = d_ij)")
        if not (f == -f.T).all():
            raise ValueError("f must be antisymmetric (f_ji = -f_ij)")
        if ((f != 0.0) & ~critical).any():
            raise ValueError("f must be 0 on general pairs (H_i + H_j != 1)")
        with np.errstate(over="ignore"):
            r = (c + c.T) / 2.0
        if not np.isfinite(r).all():
            raise ValueError("R = (c + c^T)/2 overflows")
        object.__setattr__(self, "sigma", _frozen(sigma))
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "f", _frozen(f))
        object.__setattr__(self, "critical", critical)
        object.__setattr__(self, "r", _frozen(r))

    @property
    def p(self) -> int:
        return self.hurst.p


@dataclass(frozen=True, eq=False)
class MixingMatrices:
    """Real p x p weights (A_plus, A_minus) of the two-sided integral representation.

    The constructor stores read-only copies of both matrices (ValueError for
    a wrong shape, a non-finite entry, or entries so large that a Gram product
    or a variance overflows), their Gram products ``app`` =
    A+ A+^T, ``amm`` = A- A-^T and ``apm`` = A+ A-^T, through which alone
    they enter the second-order law (A- A+^T is ``apm.T``), and the scales
    ``sigma``, sigma_i = std X_i(1), from

        sigma_i^2 = B(H_i+1/2, H_i+1/2) / sin(pi H_i) * (app + amm - 2 sin(pi H_i) apm)_ii.

    A component with sigma_i^2 <= 1e-14 has no coefficient model and raises
    DegenerateComponentError (1-based index).
    """

    a_plus: np.ndarray
    a_minus: np.ndarray
    hurst: HurstVector
    app: np.ndarray = field(init=False, repr=False)
    amm: np.ndarray = field(init=False, repr=False)
    apm: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.hurst.p
        ap = np.array(self.a_plus, dtype=float)
        am = np.array(self.a_minus, dtype=float)
        if ap.shape != (p, p) or am.shape != (p, p):
            raise ValueError(f"mixing matrices must be {p}x{p}, got {ap.shape} and {am.shape}")
        # a non-finite entry of a row makes the diagonal of its Gram product
        # non-finite, and entries near 1e154 and beyond overflow the products
        gram = np.empty((3, p, p))
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(ap, ap.T, out=gram[0])
            np.matmul(am, am.T, out=gram[1])
            np.matmul(ap, am.T, out=gram[2])
        if not np.isfinite(gram).all():
            raise ValueError(
                "mixing matrices must be finite, and their Gram products A+ A+^T, A- A-^T, A+ A-^T must not overflow"
            )
        app, amm, apm = gram
        sigma = np.empty(p)
        diagonals = zip(app.diagonal().tolist(), amm.diagonal().tolist(), apm.diagonal().tolist())
        for k, (pp, mm, pm) in enumerate(diagonals):
            h = self.hurst[k]
            sin_h = math.sin(math.pi * h)
            # in Python floats an overflow gives inf, with no warning
            var = beta(h + 0.5, h + 0.5) / sin_h * (pp + mm - 2.0 * sin_h * pm)
            if not math.isfinite(var):
                raise ValueError(f"mixing matrices too large: the variance of component {k + 1} overflows")
            if var <= _DEGENERATE_TOL:
                raise DegenerateComponentError(k + 1, var)
            sigma[k] = math.sqrt(var)
        object.__setattr__(self, "a_plus", _frozen(ap))
        object.__setattr__(self, "a_minus", _frozen(am))
        object.__setattr__(self, "app", _frozen(app))
        object.__setattr__(self, "amm", _frozen(amm))
        object.__setattr__(self, "apm", _frozen(apm))
        object.__setattr__(self, "sigma", _frozen(sigma))

    @property
    def p(self) -> int:
        return self.hurst.p


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite evaluation times (0 and negatives allowed)."""

    times: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(t) for t in self.times)
        if len(vals) == 0:
            raise ValueError("time grid must contain at least one time")
        if any(not math.isfinite(t) for t in vals):
            raise ValueError("time grid must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", vals)

    @property
    def n(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ValidationReport:
    lambda_min: float
    lambda_max: float
    positive_definite: bool
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def validate_model(m: CovarianceModel) -> ValidationReport:
    """Check the necessary existence condition: R positive definite.

    A pass means "no contradiction found", not "model realizable": the
    converse direction (admissible coefficients always come from some
    process) is not available, so this is a necessary-condition gate only.
    """
    eigs = np.linalg.eigvalsh(m.r)
    lambda_min = float(eigs[0])
    lambda_max = float(eigs[-1])
    pd_ok = lambda_min > -PD_TOL * max(1.0, lambda_max)
    return ValidationReport(lambda_min=lambda_min, lambda_max=lambda_max, positive_definite=pd_ok, passed=pd_ok)


def ensure_valid(m: CovarianceModel) -> CovarianceModel:
    """Raise NotPositiveDefiniteError unless validate_model passes."""
    report = validate_model(m)
    if not report.passed:
        raise NotPositiveDefiniteError(report.lambda_min)
    return m


# ---------------------------------------------------------------------------
# JSON model files (1-based indices, matching user-facing notation)
# ---------------------------------------------------------------------------

def _has_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(_has_bool(v) for v in value))


def _floats(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A JSON value as a float array of exactly ``shape``; ValueError otherwise,
    also for a true/false among numbers (numpy would read it as 1/0)."""
    arr = np.array(value)
    if arr.dtype.kind not in "iuf" or arr.shape != shape or _has_bool(value):
        raise ValueError(f"{name} must be numbers of shape {shape}, got {value!r}")
    return arr.astype(float)


def parse_hurst(raw) -> HurstVector:
    """The ``hurst`` field of a JSON file, validated; ValueError unless it is a
    list of numbers (a missing field arrives as None)."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"hurst must be a list of numbers, got {raw!r}")
    return validate_hurst(_floats(raw, "hurst", (len(raw),)).tolist())


def _known_keys(obj: Mapping, allowed: frozenset, where: str) -> None:
    """ValueError naming the first key of obj (in sorted order) outside allowed."""
    unknown = sorted(str(k) for k in obj if k not in allowed)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}; allowed keys are {sorted(allowed)}")


def _index(entry: Mapping, key: str, p: int) -> int:
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= p:
        raise ValueError(f"pair index {key} must be an integer in 1..{p}, got {value!r}")
    return value


def parse_model(obj: Mapping) -> CovarianceModel | MixingMatrices:
    """Parse a model dict into whichever form the file carries.

    A pair entry may come in either orientation: {"i": 2, "j": 1, ...} gives
    (c_21, c_12) or (d_21, f_21) = (d_12, -f_12).  A mixing file without
    ``a_minus`` is causal (A_minus = 0); one with a zero-variance component
    raises DegenerateComponentError.  Malformed input, an unknown key at any
    level included, raises ValueError (or KeyError for a missing field).
    """
    if not isinstance(obj, Mapping):
        raise ValueError(f"a model must be a JSON object, got {obj!r}")
    mixing = "a_plus" in obj or "a_minus" in obj
    _known_keys(obj, _MIXING_FILE_KEYS if mixing else _COEFFICIENT_FILE_KEYS, "the top level of the model")
    hurst = parse_hurst(obj.get("hurst"))
    p = hurst.p
    if mixing:
        return MixingMatrices(
            a_plus=_floats(obj["a_plus"], "a_plus", (p, p)),
            a_minus=_floats(obj["a_minus"], "a_minus", (p, p)) if "a_minus" in obj else np.zeros((p, p)),
            hurst=hurst,
        )
    coeffs = obj.get("coefficients", {})
    if not isinstance(coeffs, Mapping):
        raise ValueError(f"coefficients must be a JSON object, got {coeffs!r}")
    _known_keys(coeffs, _COEFFICIENTS_KEYS, "coefficients")
    sigma = _floats(coeffs["sigma"], "sigma", (p,)) if "sigma" in coeffs else None
    entries = coeffs.get("pairs", [])
    if not isinstance(entries, list):
        raise ValueError(f"pairs must be a list, got {entries!r}")
    critical = hurst.critical
    c = np.eye(p)
    f = np.zeros((p, p))
    seen = set()
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ValueError(f"a pair entry must be a JSON object, got {entry!r}")
        _known_keys(entry, _PAIR_KEYS, "a pair entry")
        i, j = _index(entry, "i", p) - 1, _index(entry, "j", p) - 1
        if i == j:
            raise ValueError(f"pair ({i + 1},{j + 1}) is on the diagonal")
        if frozenset((i, j)) in seen:
            raise ValueError(f"pair ({i + 1},{j + 1}) is given twice (in either orientation)")
        seen.add(frozenset((i, j)))
        keys, other = (_CRITICAL_KEYS, _GENERAL_KEYS) if critical[i, j] else (_GENERAL_KEYS, _CRITICAL_KEYS)
        if any(k in entry for k in other) or any(k not in entry for k in keys):
            raise ValueError(
                f"pair ({i + 1},{j + 1}) has H_i+H_j {'=' if critical[i, j] else '!='} 1, "
                f"so it needs exactly {keys}; got {sorted(entry)}"
            )
        x, y = (_floats(entry[k], f"pair ({i + 1},{j + 1}) {k}", ()) for k in keys)
        if critical[i, j]:
            c[i, j] = c[j, i] = x
            f[i, j], f[j, i] = y, -y
        else:
            c[i, j], c[j, i] = x, y
    return CovarianceModel(hurst=hurst, sigma=sigma, c=c, f=f)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice in one JSON object")
        obj[key] = value
    return obj


def read_json(path: str | Path):
    """The content of a JSON file; ValueError naming a key repeated within
    one object, which plain ``json.load`` would resolve silently to its last
    value, and ValueError for arrays or objects nested too deeply for the
    decoder's recursion."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON arrays or objects are nested too deeply to read") from None


def model_to_dict(m: CovarianceModel) -> dict:
    """Canonical JSON-ready form of a CovarianceModel (deterministic key order)."""
    pairs = []
    for i in range(m.p):
        for j in range(i + 1, m.p):
            if m.critical[i, j]:
                pairs.append({"i": i + 1, "j": j + 1, "d_ij": float(m.c[i, j]), "f_ij": float(m.f[i, j])})
            else:
                pairs.append({"i": i + 1, "j": j + 1, "c_ij": float(m.c[i, j]), "c_ji": float(m.c[j, i])})
    return {
        "hurst": list(m.hurst.h),
        "coefficients": {"sigma": m.sigma.tolist(), "pairs": pairs},
    }


def mixing_to_dict(m: MixingMatrices) -> dict:
    return {
        "hurst": list(m.hurst.h),
        "a_plus": m.a_plus.tolist(),
        "a_minus": m.a_minus.tolist(),
    }

