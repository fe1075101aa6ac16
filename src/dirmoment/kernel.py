"""The smoothing kernel

    W_a(x) = (1/2 pi i) int_(c) [Gamma((s + 1/2 + a)/2) / Gamma((1/2 + a)/2)]^2
             x^(-s) ds / s,    a in {0, 1},  x > 0,

evaluated three ways, each on its own range.  w_eval_batch evaluates
both parities in one call: it takes its arguments in ascending order,
validates and splits them once, and hands each method one slice, which
the method writes into both rows of the result, from one ln x per block
read by both parities:

  * w_eval_batch on 0 < x <= 2: the residue expansion obtained
    by shifting the line to -infinity.  Every pole s = -(1/2 + a + 2k) is
    double, giving

        W_a(x) = 1 - sum_{k>=0} (4 / (k!^2 G0^2 sigma_k)) x^sigma_k
                     (psi(k+1) + 1/sigma_k - ln x),

    with sigma_k = 1/2 + a + 2k, G0 = Gamma((1/2 + a)/2), and
    psi(k+1) = -gamma + H_k.  It is summed to double rounding with as
    many terms as x = 2 needs (16 for a = 0, 17 for a = 1), so a value
    does not depend on its batch; on the B head at q = 100003 it sits at
    most 1.7e-15 from an 80-digit sum.  The terms cancel: their sizes sum
    to 7 at x = 2 but 310 at x = 4 (a = 1), where the sum is off by up to
    5.7e-13 against 1e-17 for the quadrature.  So the series is the path
    on 0 < x <= 2 only.
  * w_eval_batch on 2 < x < x_zero: Chebyshev interpolants in t = ln x
    on _CHEB_PIECES = 4 equal pieces of [ln 2, ln x_zero].  The integral
    converges for |arg x| < pi/2, so W_a(e^t) is analytic in the strip
    |Im t| < pi/2 and an interpolant converges geometrically, the faster
    the shorter its interval (Trefethen, Approximation Theory and
    Approximation Practice, ch. 8): degree 17 on each piece of the
    default [2, 24], against 38 on the whole.  Its nodes come from the
    quadrature below, and it sits within 2.7e-17 of the exact W_1 at the
    tested points, the pieces' ends included, the quadrature itself
    within 5.2e-17.  Each piece's coefficients are built once per parity
    and cached, as are the series' coefficients, so a value does not
    depend on its batch.
  * _quad_points, the interpolant's nodes and the runtime reference:
    trapezoid quadrature on the vertical line Re s = c.  The integrand is
    analytic in a strip of half-width c around the line, so the trapezoid
    rule converges geometrically in 1/h.  Conjugate symmetry folds the line
    onto t >= 0, and the few points of a call sum their nodes directly,
    block by block of node phases, computed once for every parity the
    call sums.
    w_eval_batch makes one runtime check for both parities: it
    re-evaluates one quantile sample of its arguments, at both parities,
    by the quadrature at step h/4 on the line Re s = c/2, a cross-method
    check of the series and of the interpolant alike.  Each parity's
    truncation height comes from _auto_T's cached search grid.

    The step error is governed by the pole of 1/s at distance c from the
    line: about 2 exp(-2 pi c / h) (Trefethen & Weideman, SIAM Review
    2014).  The default h = 0.1 with c = 1 puts it near 1e-27, far below
    double rounding; the measured error is 1.2e-11 at h = 0.25, where the
    bound predicts it.

The quadrature's Gamma ratio comes from _loggamma: the recurrence shifts
z to z + 10, then 8 terms of the Stirling series (DLMF 5.11.1) leave an
error below 1e-17.  Its Im may be off the principal branch by a multiple
of 2 pi; only Re log Gamma and exp(2 log Gamma) are used, and neither
sees it.  Only arithmetic and np.log: a complex or an array alike.

W_a(x) tends to 1 as x -> 0+ and decays like exp(-2x) (saddle point at
s = 2x); from x_zero = 24 on the kernel is treated as exactly zero, the
neglected value below 1e-19 (measured envelope |W| <= 12 e^{-2x} on
6 <= x <= 16, extrapolated with margin).

The kernel runs at one configuration, _CONFIG = KernelConfig(): line
c = 1, step h = 0.1, runtime tolerance eps = 1e-10 and hard zero
x_zero = 24.  No function takes another from its caller.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import EULER_GAMMA

__all__ = [
    "KernelConfig",
    "KernelAccuracyError",
    "w_eval_batch",
]


class KernelAccuracyError(RuntimeError):
    """Raised when an interpolant or the runtime check misses its
    tolerance."""


@dataclass(frozen=True)
class KernelConfig:
    """The kernel's configuration; the module runs one, _CONFIG.

    c:      abscissa of the integration line
    h:      base trapezoid step in t
    eps:    absolute tolerance of the interpolant and the runtime check
    x_zero: arguments >= x_zero evaluate to exactly 0.0

    The truncation height T is always picked from the decay of the
    integrand at the smallest x the quadrature serves (_auto_T).
    """

    c: float = 1.0
    h: float = 0.1
    eps: float = 1e-10
    x_zero: float = 24.0


_CONFIG = KernelConfig()

_T_HARD = 400.0  # absolute ceiling on the truncation height
_TAIL = 1e-17  # stops the residue series, sets the interpolant degree
_SERIES_PATH = 2.0  # largest x w_eval_batch takes from the series
_STEP_SAMPLES = 16  # arguments per batch re-evaluated by the reference
# Points per pass of the series' Horner rule and of the Clenshaw
# recurrence (_clenshaw: the interpolant's pieces here, the Hurwitz table
# in lfunc).  Each coefficient step rereads the accumulators, so
# blocks that stay in cache run Clenshaw 3.3x faster at q = 100003 (700k
# points), 4.3x at q = 1000003 and 1.1x at q = 10007 than one pass over
# all points (2-vCPU VM).
_HORNER_BLOCK = 32_768
# Equal pieces in t = ln x of the interpolant's interval [ln 2, ln x_zero].
# The interpolant's share of a warm full table, per parity, median ms on
# one interval (degree 38), two, four (17) and six: 1.9, 1.4, 0.85, 0.97
# at q = 2999 (21k points); 50, 36, 28, 31 at q = 100003 (700k points);
# 0.24, 0.25, 0.34, 0.39 at q = 170 (1.2k points), where each piece adds
# its per-call cost (2-vCPU VM).
_CHEB_PIECES = 4
_PHASE_BLOCK = 32  # node phases per complex exp in _quad_points
_T_PIECE = 16  # heights per cached piece of _auto_T's search grid


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)


def _loggamma(z):
    """log Gamma(z) for Re z > 0, up to 2 pi i k (see the module doc)."""
    w, shift = z + 10.0, z
    for k in range(1, 10):
        shift = shift * (z + k)
    r = 1.0 / (w * w)
    tail = 0.0
    for ck in _STIRLING[::-1]:
        tail = tail * r + ck
    return ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi)
            + tail / w - np.log(shift))


@lru_cache(maxsize=64)
def _height_grid(a: int, c: float, k: int) -> tuple[tuple[float, ...], ...]:
    """Piece k of _auto_T's search grid on the line c: for each height
    t = 8 + 2 j below _T_HARD, j = _T_PIECE k .. _T_PIECE (k + 1) - 1, the
    triple (t, log of the folded Gamma ratio, log(2 pi |s|)), by the
    search's own scalar arithmetic.  Empty past _T_HARD."""
    beta = 0.5 + a
    grid = []
    for j in range(_T_PIECE * k, _T_PIECE * (k + 1)):
        t = 8.0 + 2.0 * j
        if t >= _T_HARD:
            break
        log_g = 2.0 * (_loggamma(complex(c + beta, t) / 2).real
                       - math.lgamma(beta / 2))
        grid.append((t, float(log_g),
                     math.log(2 * math.pi * math.hypot(c, t))))
    return tuple(grid)


def _auto_T(a: int, c: float, min_log_x: float, eps: float) -> float:
    """Truncation height: the folded integrand magnitude at T, times the
    largest x^(-c) in the batch, must drop below eps/1000.  The first
    height of the cached grid (_height_grid) that meets it, plus 4."""
    amp = max(0.0, -c * min_log_x)  # log of max x^(-c)
    target = math.log(eps) - math.log(1000.0)
    k = 0
    while piece := _height_grid(a, c, k):
        for t, log_g, log_den in piece:
            if log_g + amp - log_den < target:
                return t + 4.0
        k += 1
    return _T_HARD


@lru_cache(maxsize=64)
def _nodes(a: int, c: float, h: float, T: float) -> np.ndarray:
    """Complex coefficients of the quadrature nodes t_k = k h on [0, T],
    so that

        W(x) = x^(-c) * Re( sum_k coef_k * exp(-i t_k ln x) ),

    zero-padded to whole blocks of _PHASE_BLOCK nodes and shaped
    (blocks, _PHASE_BLOCK).  The cached array is shared and read-only.
    """
    beta = 0.5 + a
    n = int(math.floor(T / h)) + 1
    t = np.arange(n, dtype=np.float64) * h
    s = c + 1j * t
    g = np.exp(2.0 * (_loggamma((s + beta) / 2) - math.lgamma(beta / 2)))
    coef = np.zeros(-(-n // _PHASE_BLOCK) * _PHASE_BLOCK, dtype=np.complex128)
    coef[:n] = (h / (2 * math.pi)) * g / s
    coef[1:n] *= 2.0  # conjugate fold: t and -t
    coef = coef.reshape(-1, _PHASE_BLOCK)
    coef.flags.writeable = False
    return coef


def _quad_points(nodes: list[np.ndarray], log_x: np.ndarray, c: float,
                 h: float) -> np.ndarray:
    """Trapezoid sums at fixed step for a few log-arguments, node by node:
    row r the sum over the node table nodes[r] (from _nodes, at step h on
    the line c) at every log_x.

    The phase of node k = i B + j, B = _PHASE_BLOCK, is the product of
    exp(-i (i B h) ln x) and exp(-i (j h) ln x), each rounded once: one
    complex exp per block and per offset, not one per node, as accurate
    as the direct phases (B h is exact, B being a power of two).  The
    phases are computed once, for the longest table, and read by every
    row.  Each block's coefficients are summed against the offset phases
    first and the block sums against the block phases second, by
    np.einsum, which calls no BLAS: the order of every sum is fixed,
    whatever the threads.
    """
    n_blocks = max(coef.shape[0] for coef in nodes)
    outer = np.exp(-1j * np.multiply.outer(
        np.arange(n_blocks) * (_PHASE_BLOCK * h), log_x))
    inner = np.exp(-1j * np.multiply.outer(np.arange(_PHASE_BLOCK) * h, log_x))
    scale = np.exp(-c * log_x)
    rows = np.empty((len(nodes), log_x.size))
    for row, coef in zip(rows, nodes):
        part = np.einsum("ij,jp->ip", coef, inner)
        row[:] = np.einsum("ip,ip->p", outer[:coef.shape[0]], part).real
        row *= scale
    return rows


def w_eval_batch(out: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """W_0 and W_1 at every argument of a 1-D array in ascending order,
    written into the rows of out, a float64 array of shape (2, xs.size),
    which is returned: the residue series on x <= 2, the piecewise
    Chebyshev interpolant on 2 < x < x_zero, whose nodes are the
    quadrature at step h on the line c, and 0.0 from x_zero on, with one
    sampled runtime check for both rows (c, h, eps and x_zero those of
    _CONFIG).  The arguments are validated once, and two binary searches
    split them into these three slices, each written in place into both
    rows.  Any other xs (unsorted, not 1-D, NaN, inf or x <= 0) or out
    raises ValueError.

    _STEP_SAMPLES quantiles of the arguments below x_zero, the extremes
    included, are re-evaluated for both parities by the quadrature at
    step h / 4 on the line Re s = c / 2 (a cross-method check on series
    and interpolant samples, and a step and line check of the
    interpolant's nodes); a gap above eps in either row raises
    KernelAccuracyError.  The pole of 1/s sits c/2 from that line, so the
    reference's step error is 2 exp(-4 pi c / h), the square of the
    checked values' bound, and a coarse h shows in the gap at every x.
    At h = 0.1 both are far below rounding, and the gap is largest at the
    smallest x, where x^(-c/2) amplifies the reference's rounding: at
    x = pi/9999991 it is below 1e-13, and on the line c it would be
    1.65e-10, above eps.
    """
    cfg = _CONFIG
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size and not (
            xs[0] > 0 and xs[-1] < math.inf and np.all(xs[1:] >= xs[:-1])):
        raise ValueError("kernel arguments must be a 1-D array of positive"
                         " reals in ascending order")
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (2, xs.size)):
        raise ValueError("out must be a float64 array of shape"
                         f" (2, {xs.size}), one row per parity")
    i_ser = int(np.searchsorted(xs, _SERIES_PATH, side="right"))
    i_zero = int(np.searchsorted(xs, cfg.x_zero))
    out[:, i_zero:] = 0.0
    if i_zero == 0:
        return out
    if i_ser:
        _series_batch(xs[:i_ser], out[:, :i_ser])
    if i_zero > i_ser:
        _cheb_batch(xs[i_ser:i_zero], cfg, out[:, i_ser:i_zero])
    ranks = np.linspace(0, i_zero - 1, _STEP_SAMPLES).round().astype(np.int64)
    ranks = ranks[np.diff(ranks, prepend=-1) > 0]  # sorted, so deduplicated
    lx = np.log(xs[ranks])
    c_ref, h_ref = 0.5 * cfg.c, 0.25 * cfg.h
    T_ref = [_auto_T(a, c_ref, float(lx[0]), cfg.eps) for a in (0, 1)]
    nodes = [_nodes(a, c_ref, h_ref, T) for a, T in enumerate(T_ref)]
    ref = _quad_points(nodes, lx, c_ref, h_ref)
    for a, row in enumerate(np.abs(ref - out[:, ranks])):
        gap = float(np.max(row))
        if not gap <= cfg.eps:
            raise KernelAccuracyError(
                f"kernel W_{a} differs from the quadrature at step h/4 on"
                f" the line c/2 by {gap:.3g} > eps = {cfg.eps} (c = {cfg.c},"
                f" h = {cfg.h}, T = {T_ref[a]})")
    return out


def _cheb_degree(log_width: float) -> int:
    """Degree of the Chebyshev interpolant of W_a(e^t) on an interval of
    length log_width in t.  W_a(e^t) is analytic in the strip
    |Im t| < pi/2, which on the unit interval is the strip of half-width
    d = pi / log_width; the largest Bernstein ellipse inside it has
    rho = d + sqrt(d^2 + 1), and the coefficients decay like rho^(-k)
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8).
    The degree takes them below _TAIL: 38 on the whole default [2, 24],
    17 on each of its _CHEB_PIECES pieces."""
    d = math.pi / log_width
    return math.ceil(-math.log(_TAIL) / math.log(d + math.hypot(d, 1.0)))


def _cheb_piece(cfg: KernelConfig, k: int) -> tuple[float, float]:
    """The interval in t = ln x of piece k of [ln 2, ln cfg.x_zero]."""
    t0 = math.log(_SERIES_PATH)
    width = (math.log(cfg.x_zero) - t0) / _CHEB_PIECES
    return t0 + k * width, t0 + (k + 1) * width


def _cheb_interp(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 n: int, tol: float) -> np.ndarray:
    """Chebyshev coefficients c_0..c_n of the degree-n interpolant of f on
    [lo, hi], f mapping an array of points to their values.  Trailing
    coefficients (c_(n-1), c_n) above tol mean the degree does not resolve
    f there, and raise KernelAccuracyError.

    The n + 1 nodes are the Chebyshev points of the first kind, at the
    angles theta_m = pi (2m + 1) / (2n + 2).  One cosine sum over them
    gives the coefficients, with every angle j theta_m reduced in integers
    first: at degree 38 on one interval over the kernel's [2, 24],
    rounding j theta_m itself (up to 38 pi) put up to 3.0e-16 into W_1
    near x = 2, against 7.8e-17 reduced.
    """
    N = n + 1
    theta = (2 * np.arange(N) + 1) * (0.5 * math.pi / N)
    f_nodes = f(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta))
    r = np.multiply.outer(np.arange(N), 2 * np.arange(N) + 1) % (4 * N)
    coef = (np.cos(r * (0.5 * math.pi / N)) * f_nodes).sum(axis=1)
    coef *= 2.0 / N
    coef[0] *= 0.5
    tail = float(np.abs(coef[-2:]).max())
    if not tail <= tol:
        raise KernelAccuracyError(
            f"Chebyshev interpolant on [{lo:.6g}, {hi:.6g}] has trailing"
            f" coefficients of {tail:.3g} > {tol:.3g} at degree {n}")
    return coef


def _clenshaw(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k coef_k T_k(s) at every point of one block, by Clenshaw's
    recurrence from y = 2 s; y is overwritten by the values and returned.
    Callers pass blocks of at most _HORNER_BLOCK points."""
    b1, b2 = np.zeros(y.shape), np.zeros(y.shape)
    tmp = np.empty(y.shape)
    for ck in coef[:0:-1]:  # b_k = c_k + 2 s b_(k+1) - b_(k+2)
        np.multiply(y, b1, out=tmp)
        tmp -= b2
        tmp += ck
        b1, b2, tmp = tmp, b1, b2
    y *= 0.5  # c_0 + s b_1 - b_2
    y *= b1
    y -= b2
    y += coef[0]
    return y


@lru_cache(maxsize=64)
def _cheb_coef(a: int, cfg: KernelConfig, k: int, n: int) -> np.ndarray:
    """Chebyshev coefficients c_0..c_n of the degree-n interpolant of
    W_a(e^t) on piece k (_cheb_piece), by _cheb_interp at nodes evaluated
    by the quadrature at step cfg.h on the line cfg.c, truncated at the
    height of x = 2 on every piece.  Trailing coefficients above cfg.eps
    raise KernelAccuracyError; a raise is not cached, so the guard runs
    for every new key.  cfg is always _CONFIG, and a key, so that no
    entry outlives a swap of _CONFIG.  The cached array is shared and
    read-only.
    """
    t0, t1 = _cheb_piece(cfg, k)
    nodes = [_nodes(a, cfg.c, cfg.h,
                    _auto_T(a, cfg.c, math.log(_SERIES_PATH), cfg.eps))]
    coef = _cheb_interp(lambda t: _quad_points(nodes, t, cfg.c, cfg.h)[0],
                        t0, t1, n, cfg.eps)
    coef.flags.writeable = False
    return coef


def _cheb_batch(x: np.ndarray, cfg: KernelConfig, out: np.ndarray) -> None:
    """W_0 and W_1 at every x in (2, cfg.x_zero), written into the rows
    of out, from Chebyshev interpolants in t = ln x on _CHEB_PIECES equal
    pieces of [ln 2, ln cfg.x_zero], each of the degree _cheb_degree
    gives for its width (17 on the default pieces, against 38 on one
    interval).

    Binary searches at the pieces' ends in x split the ascending
    arguments into one slice per piece.  Each piece's coefficients
    (_cheb_coef) are built once per parity and cached.  _clenshaw
    evaluates them in blocks of _HORNER_BLOCK points, from one ln x per
    block read by both parities, so a value depends on (a, x) alone.
    """
    t0, t1 = _cheb_piece(cfg, 0)
    n = _cheb_degree(t1 - t0)
    ends = [math.exp(_cheb_piece(cfg, k)[0]) for k in range(1, _CHEB_PIECES)]
    cuts = [0, *np.searchsorted(x, ends).tolist(), x.size]
    for k in range(_CHEB_PIECES):
        t0, t1 = _cheb_piece(cfg, k)
        coefs = [_cheb_coef(a, cfg, k, n) for a in (0, 1)]
        for lo in range(cuts[k], cuts[k + 1], _HORNER_BLOCK):
            hi = min(lo + _HORNER_BLOCK, cuts[k + 1])
            y = np.log(x[lo:hi])
            y -= 0.5 * (t0 + t1)
            y *= 4.0 / (t1 - t0)  # 2 s, s the point on [-1, 1]
            for row, coef in zip(out[:, lo:hi], coefs):
                row[:] = y
                _clenshaw(coef, row)


@lru_cache(maxsize=2)
def _series_coef(a: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients (p_k) and (c_k) of P and Q in _series_batch for
    parity a, k = 0, 1, ...: terms are added until a geometric tail bound
    at x_top = _SERIES_PATH drops below _TAIL; it bounds the tail at
    every x <= 2.  The count is that of x = 2 (16 terms for a = 0, 17 for
    a = 1), whatever the batch."""
    beta = 0.5 + a
    x_top = _SERIES_PATH
    inv_kfac_sq = 1.0 / math.gamma(beta / 2) ** 2  # 1 / (k!^2 G0^2)
    harmonic = 0.0                 # H_k, so psi(k+1) = H_k - gamma
    xp = x_top**beta               # x_top^sigma_k
    pc, qc = [], []
    k = 0
    while True:
        sigma = beta + 2 * k
        psi = harmonic - EULER_GAMMA
        qc.append(4.0 * inv_kfac_sq / sigma)
        pc.append(qc[-1] * (psi + 1.0 / sigma))
        ratio = x_top * x_top / ((k + 1.0) * (k + 1.0))
        # magnitude envelope, immune to an accidental zero of the term
        bound = qc[-1] * xp * (abs(psi) + 1.0 / sigma + abs(math.log(x_top)))
        if ratio < 0.8 and bound * 4.0 * ratio / (1.0 - ratio) < _TAIL:
            return tuple(pc), tuple(qc)
        k += 1
        inv_kfac_sq /= k * k
        harmonic += 1.0 / k
        xp *= x_top * x_top


def _series_batch(x: np.ndarray, out: np.ndarray) -> None:
    """The residue series at every x in (0, 2], written into row a of out
    for a = 0, 1, as

        W_a(x) = 1 - x^beta [P(x^2) - ln x Q(x^2)],
        Q(y) = sum_k c_k y^k,  P(y) = sum_k c_k (psi(k+1) + 1/sigma_k) y^k,

    c_k = 4 / (k!^2 G0^2 sigma_k) (_series_coef), by Horner's rule in
    blocks of _HORNER_BLOCK points, from one y = x^2 and one ln x per
    block read by both parities, so each value depends on (a, x) alone.
    Each parity runs its own rule on 1-D arrays: stacking both parities'
    accumulators into one 2-D array halves the numpy calls but ran 1.3x
    slower at 1,499 points and 1.5x at 3,000 (their broadcast loops and
    a working set past L1; 2-vCPU VM), faster only below about 500.
    """
    coefs = [_series_coef(a) for a in (0, 1)]
    for lo in range(0, x.size, _HORNER_BLOCK):
        xb = x[lo:lo + _HORNER_BLOCK]
        y, ln_x = xb * xb, np.log(xb)
        for a, (pc, qc) in enumerate(coefs):
            p, qy = np.full(xb.shape, pc[-1]), np.full(xb.shape, qc[-1])
            for pk, qk in zip(pc[-2::-1], qc[-2::-1]):
                p *= y
                p += pk
                qy *= y
                qy += qk
            out[a, lo:lo + _HORNER_BLOCK] = 1.0 - xb**(0.5 + a) * (
                p - ln_x * qy)
