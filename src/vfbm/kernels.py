"""Elementary covariances of the two-sided moving-average representation.

The process components are built from causal / anti-causal integrals

    I+(s) = int ((s-x)_+^(h-1/2) - (-x)_+^(h-1/2)) W(dx),
    I-(s) = int ((s-x)_-^(h-1/2) - (-x)_-^(h-1/2)) W(dx),

and every model covariance is an alpha-weighted sum of the four products
E I+-(s) I+-(t).  ``kernel_cov`` evaluates the closed forms for those four
products in both regimes (general H_i+H_j != 1, critical H_i+H_j = 1).  Each
regime's formula (``_kernel_critical``, ``_kernel_general``) also takes its
coefficients as columns, so that one array call evaluates many pairs, as
the kernel assembly of ``representation`` does.
``quadrature_kernel_oracle`` evaluates the same quantities by deterministic
adaptive quadrature of the kernel product and is the independent check used
throughout the test suite; it refines all its pieces level by level, one
integrand call per level.

Conventions: 0^a = 0 for a > 0 and 0*log 0 = 0, so every formula vanishes
exactly at s = 0 or t = 0.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import NoConvergenceError
from .model import check_count
from .special import _beta_half, _cos_pi, _each, _sin_pi, is_critical, phi

__all__ = [
    "KernelKind",
    "sign_coeff",
    "kernel_cov",
    "kernel_factor",
    "quadrature_kernel_oracle",
]


class KernelKind(Enum):
    """Which pair of one-sided integrals the covariance refers to."""

    PP = "pp"  # E I+(s) I+(t)
    MM = "mm"  # E I-(s) I-(t)
    PM = "pm"  # E I+(s) I-(t)
    MP = "mp"  # E I-(s) I+(t)


_KIND_SIDES = {
    KernelKind.PP: ("+", "+"),
    KernelKind.MM: ("-", "-"),
    KernelKind.PM: ("+", "-"),
    KernelKind.MP: ("-", "+"),
}


def _maybe_scalar(x):
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


def _pow_plus(u, a):
    """(u)_+^a with the 0^a = 0 convention (a > 0 assumed)."""
    u = np.asarray(u, dtype=float)
    safe = np.where(u > 0.0, u, 1.0)
    return np.where(u > 0.0, safe**a, 0.0)


def _xlogx(u):
    """u * log|u| extended continuously by 0 at u = 0."""
    u = np.asarray(u, dtype=float)
    safe = np.where(u == 0.0, 1.0, np.abs(u))
    return u * np.log(safe)


def sign_coeff(c_ij: float, c_ji: float, t):
    """c_ij for t >= 0 and c_ji for t < 0; the t = 0 value never multiplies
    anything nonzero.  The covariance formulas switch their coefficients
    with it, and the kernel covariances their weights cos(H_i pi), cos(H_j pi)."""
    return _maybe_scalar(np.where(np.asarray(t, dtype=float) >= 0.0, c_ij, c_ji))


def kernel_cov(kind: KernelKind, h_i: float, h_j: float, s, t):
    """Closed-form E I(s) I(t) for the requested side pair.

    Accepts scalar or broadcastable array time arguments.  Regime dispatch
    uses the exact-critical tolerance on H_i + H_j.
    """
    critical = is_critical(h_i + h_j)
    formula = _kernel_critical if critical else _kernel_general
    return _maybe_scalar(formula(kind, *_kernel_coeffs(h_i, h_j, critical), s, t))


def _kernel_coeffs(h_i, h_j, critical: bool) -> tuple:
    """The coefficients that the regime's formula takes before (kind, s, t):
    (B, sin(pi H_i), cos(pi H_i)) if critical, else (H_i + H_j, B, psi,
    cos(pi H_i), cos(pi H_j)), with B = B(H_i+1/2, H_j+1/2) and psi =
    phi(H_i, H_j).  h_i and h_j are floats, or columns of pairs all in one
    regime."""
    bval = _each(_beta_half, h_i, h_j)
    cos_i = _each(_cos_pi, h_i)
    if critical:
        return bval, _each(_sin_pi, h_i), cos_i
    return h_i + h_j, bval, _each(phi, h_i, h_j), cos_i, _each(_cos_pi, h_j)


def _reflected(kind: KernelKind, s, t):
    """(kind, s, t) as arrays, with x -> -x, which maps I-(s) onto I+(-s),
    turning MM into PP and MP into PM at (-s, -t)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if kind is KernelKind.MM:
        return KernelKind.PP, -s, -t
    if kind is KernelKind.MP:
        return KernelKind.PM, -s, -t
    return kind, s, t


def _kernel_critical(kind: KernelKind, bval, sin_i, cos_i, s, t):
    """E I(s) I(t) of a critical pair (H_i + H_j = 1); the coefficients are
    floats, or columns that broadcast against s and t."""
    kind, s, t = _reflected(kind, s, t)
    spread = np.abs(s) + np.abs(t) - np.abs(s - t)
    if kind is KernelKind.PM:
        return -0.5 * bval * spread
    logpart = _xlogx(s) - _xlogx(t) - _xlogx(s - t)
    return (bval / math.pi) * (0.5 * math.pi * sin_i * spread - cos_i * logpart)


def _kernel_general(kind: KernelKind, alpha, bval, psi, cos_i, cos_j, s, t):
    """E I(s) I(t) of a general pair (H_i + H_j != 1); the coefficients are
    floats, or columns that broadcast against s and t."""
    kind, s, t = _reflected(kind, s, t)
    if kind is KernelKind.PP:
        return psi * (
            sign_coeff(cos_i, cos_j, s) * np.abs(s) ** alpha
            + sign_coeff(cos_j, cos_i, t) * np.abs(t) ** alpha
            - sign_coeff(cos_i, cos_j, s - t) * np.abs(s - t) ** alpha
        )
    return bval * (_pow_plus(s - t, alpha) - _pow_plus(s, alpha) - _pow_plus(-t, alpha))


# ---------------------------------------------------------------------------
# Kernel factors and the quadrature oracle
# ---------------------------------------------------------------------------

def kernel_factor(side: str, h: float, time_point: float, x):
    """The moving-average kernel f(x) of I+ ("+") or I- ("-") at the given time.

    Vectorized over x.  In the far field, where the two power terms nearly
    cancel, the difference is computed via expm1/log1p to avoid catastrophic
    cancellation; non-finite inputs map to 0 (the kernel decays there).
    """
    x = np.asarray(x, dtype=float)
    tp = float(time_point)
    if side == "-":  # x -> -x maps I-(t) onto I+(-t)
        x, tp = -x, -tp
    elif side != "+":
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    a = h - 0.5
    out = np.zeros_like(x)
    if tp == 0.0:
        return out
    fill = max(1.0, 2.0 * abs(tp))  # masked-lane placeholder clear of log1p(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        both = x < min(tp, 0.0)
        y = np.where(both, -x, fill)
        vals = y**a * np.expm1(a * np.log1p(tp / y))
        out = np.where(both, vals, out)
        if tp > 0.0:
            single = (x >= 0.0) & (x < tp)
            out = np.where(single, np.where(single, tp - x, 1.0) ** a, out)
        else:
            single = (x >= tp) & (x < 0.0)
            out = np.where(single, -(np.where(single, -x, 1.0) ** a), out)
    return np.where(np.isfinite(out), out, 0.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 60


def _endpoint_exponent(e: float, factors) -> int:
    """Substitution power for an endpoint: 1 if smooth, else enough to absorb
    the combined algebraic singularity of the factors singular at e."""
    gamma = 0.0
    singular = False
    for _, h, tp in factors:
        if e == 0.0 or e == tp:
            singular = True
            gamma += min(h - 0.5, 0.0)
    if not singular:
        return 1
    return min(40, max(4, math.ceil(3.0 / (1.0 + gamma))))


def _oracle_pieces(kind: KernelKind, h_i: float, h_j: float, s: float, t: float):
    """The kernel product g and the pieces (anchor, length, q, edge) whose
    integrals over [0, 1] sum to the integral of g over the real line.

    Piece v -> x = anchor + length * v^q runs from the anchor, where an
    algebraic singularity of g is absorbed by q (q = 1 means none).  A tail
    piece (edge finite; nan otherwise) first maps u in (0, 1] to x = edge/u.
    """
    side1, side2 = _KIND_SIDES[kind]
    factors = [(side1, h_i, s), (side2, h_j, t)]

    def g(x):
        return kernel_factor(side1, h_i, s, x) * kernel_factor(side2, h_j, t, x)

    lo1, hi1 = (-math.inf, max(s, 0.0)) if side1 == "+" else (min(s, 0.0), math.inf)
    lo2, hi2 = (-math.inf, max(t, 0.0)) if side2 == "+" else (min(t, 0.0), math.inf)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if hi <= lo:
        return g, []

    inner = sorted({v for v in (0.0, s, t) if lo < v < hi})
    edges = ([] if lo == -math.inf else [lo]) + inner + ([] if hi == math.inf else [hi])
    span = max(1.0, abs(s), abs(t))
    left_tail = lo == -math.inf
    right_tail = hi == math.inf
    if left_tail:
        cut = (edges[0] if edges else min(0.0, s, t)) - 4.0 * span
        edges.insert(0, cut)
    if right_tail:
        cut = (edges[-1] if edges else max(0.0, s, t)) + 4.0 * span
        edges.append(cut)

    pieces = []
    for a, b in zip(edges, edges[1:]):
        m = 0.5 * (a + b)
        pieces.append((a, m - a, _endpoint_exponent(a, factors), math.nan))
        pieces.append((b, -(b - m), _endpoint_exponent(b, factors), math.nan))
    # u in (0, 1]: u -> 0 is the far field, u = 1 is the cut point, where the
    # product decays like |x|^(H_i+H_j-3) after increment cancellation
    q_tail = min(40, max(4, math.ceil(3.0 / (2.0 - (h_i + h_j)))))
    for is_present, edge in ((left_tail, edges[0]), (right_tail, edges[-1])):
        if is_present:
            pieces += [(0.0, 0.5, q_tail, edge), (1.0, -0.5, 1, edge)]
    return g, pieces


def _gl_adaptive(g, pieces, tol: float, max_evals: int) -> list[float]:
    """The integral of each piece of ``_oracle_pieces`` by adaptive 15-point
    Gauss-Legendre on [0, 1], with local tolerance proportional to width.

    A panel is split until its halves agree with it within tol times its
    width.  The refinement runs level by level: every open panel of every
    piece is evaluated in one integrand call, and each piece's accepted
    panels are summed from right to left, the order in which a depth-first
    refinement that splits the right half first accepts them.  A piece of
    length 0 is 0 and costs nothing.  Raises NoConvergenceError once more than
    max_evals integrand values would be needed, or at depth _MAX_DEPTH.
    """
    anchor, length, q, edge = (np.array([pc[c] for pc in pieces], dtype=float) for c in range(4))
    weight = np.abs(length) * q
    tail = ~np.isnan(edge)
    spent = 0

    def panels(k, a, b):
        nonlocal spent
        spent += _GL_NODES.size * k.size
        if spent > max_evals:
            raise NoConvergenceError("quadrature evaluation budget exhausted before reaching tolerance")
        half = 0.5 * (b - a)
        v = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        # u = anchor + length v^q with weight |length| q v^(q-1); a tail piece
        # then maps u to x = edge/u with weight |edge|/u^2, and drops u <= 0
        qk, tk, ek = q[k, None], tail[k, None], edge[k, None]
        vq = np.where(qk > 1.0, v ** (qk - 1.0), 1.0)
        u = anchor[k, None] + length[k, None] * v**qk
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            safe = np.where(u > 0.0, u, 1.0)
            vals = g(np.where(tk, ek / safe, u)) * np.where(tk, np.abs(ek) / safe**2, 1.0)
            vals = np.where(np.isfinite(vals) & ((u > 0.0) | ~tk), vals, 0.0) * (weight[k, None] * vq)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        # (1, 15) @ (15, 1) per panel is the dot product np.dot(_GL_WEIGHTS, row) takes
        return half * np.matmul(vals[:, None, :], _GL_WEIGHTS[:, None])[:, 0, 0]

    k = np.flatnonzero(length != 0.0)
    a, b = np.zeros(k.size), np.ones(k.size)
    whole = None  # the first level evaluates each piece whole, with its halves
    done_k, done_a, done_v = [k[:0]], [a[:0]], [a[:0]]  # accepted panels: piece, start, value
    depth = 0
    while k.size:
        mid = 0.5 * (a + b)
        n = k.size
        if whole is None:
            values = panels(np.tile(k, 3), np.concatenate([a, mid, a]), np.concatenate([mid, b, b]))
            whole = values[2 * n :]
        else:
            values = panels(np.tile(k, 2), np.concatenate([a, mid]), np.concatenate([mid, b]))
        left, right = values[:n], values[n : 2 * n]
        err = np.abs(left + right - whole)
        done = err <= tol * (b - a)
        if depth >= _MAX_DEPTH:
            if (err > tol * (b - a)).any():
                raise NoConvergenceError("quadrature failed to converge within depth limit")
            done[:] = True
        done_k.append(k[done])
        done_a.append(a[done])
        done_v.append((left + right)[done])
        open_ = ~done
        k, a, b, whole = (np.concatenate([x[open_], y[open_]]) for x, y in ((k, k), (a, mid), (mid, b), (left, right)))
        depth += 1

    ks, starts, values = (np.concatenate(x).tolist() for x in (done_k, done_a, done_v))
    totals = [0.0] * len(pieces)
    for piece, _, value in sorted(zip(ks, [-a for a in starts], values)):
        totals[piece] += value
    return totals


def quadrature_kernel_oracle(
    kind: KernelKind,
    h_i: float,
    h_j: float,
    s: float,
    t: float,
    tol: float = 1e-8,
    max_evals: int = 10**6,
) -> float:
    """E I(s) I(t) by deterministic quadrature of the kernel product.

    The real line is split at the kernel breakpoints {0, s, t}; each bounded
    piece is integrated by adaptive Gauss-Legendre after a power substitution
    absorbing the endpoint singularities.  Unbounded tails, where the product
    decays like |x|^(H_i+H_j-3) after increment cancellation, are mapped to
    (0, 1] by x -> edge/u, so no truncation error is incurred.  Each piece
    gets tol divided by the number of pieces.

    Raises ValueError unless tol > 0 and max_evals is a positive integer, and
    NoConvergenceError if the evaluation budget (default 1e6) runs out.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    max_evals = check_count("max_evals", max_evals, 1)
    s = float(s)
    t = float(t)
    if s == 0.0 or t == 0.0:
        return 0.0
    g, pieces = _oracle_pieces(kind, h_i, h_j, s, t)
    total = 0.0
    for value in _gl_adaptive(g, pieces, tol / max(1, len(pieces)), max_evals):
        total += value
    return total
