"""The smoothing kernel

    W_a(x) = (1/2 pi i) int_(c) [Gamma((s + 1/2 + a)/2) / Gamma((1/2 + a)/2)]^2
             x^(-s) ds / s,    a in {0, 1},  x > 0,

evaluated three ways, each on its own range (w_eval_batch takes its
arguments in ascending order and hands each method one slice):

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
    and cached, so a value does not depend on its batch.
  * _quad_points, the interpolant's nodes and the runtime reference:
    trapezoid quadrature on the vertical line Re s = c.  The integrand is
    analytic in a strip of half-width c around the line, so the trapezoid
    rule converges geometrically in 1/h.  Conjugate symmetry folds the line
    onto t >= 0, and the few points of a call sum their nodes directly,
    block by block of node phases.
    w_eval_batch checks a quantile sample of its arguments against the
    quadrature at step h/4 on the line Re s = c/2, a cross-method check of
    the series and of the interpolant alike.

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


def _check_parity(a: int) -> int:
    if a not in (0, 1):
        raise ValueError(f"parity a must be 0 or 1, got {a}")
    return int(a)


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


def _auto_T(a: int, c: float, min_log_x: float, eps: float) -> float:
    """Truncation height: the folded integrand magnitude at T, times the
    largest x^(-c) in the batch, must drop below eps/1000."""
    beta = 0.5 + a
    amp = max(0.0, -c * min_log_x)  # log of max x^(-c)
    target = math.log(eps) - math.log(1000.0)
    t = 8.0
    while t < _T_HARD:
        log_g = 2.0 * (_loggamma(complex(c + beta, t) / 2).real
                       - math.lgamma(beta / 2))
        if log_g + amp - math.log(2 * math.pi * math.hypot(c, t)) < target:
            return t + 4.0
        t += 2.0
    return _T_HARD


@lru_cache(maxsize=64)
def _nodes(a: int, c: float, h: float, T: float) -> np.ndarray:
    """Complex coefficients of the quadrature nodes t_k = k h on [0, T],
    so that

        W(x) = x^(-c) * Re( sum_k coef_k * exp(-i t_k ln x) ).

    The cached array is shared and read-only.
    """
    beta = 0.5 + a
    n = int(math.floor(T / h)) + 1
    t = np.arange(n, dtype=np.float64) * h
    s = c + 1j * t
    g = np.exp(2.0 * (_loggamma((s + beta) / 2) - math.lgamma(beta / 2)))
    coef = (h / (2 * math.pi)) * g / s
    coef[1:] *= 2.0  # conjugate fold: t and -t
    coef.flags.writeable = False
    return coef


def _quad_points(a: int, log_x: np.ndarray, c: float, h: float,
                 T: float) -> np.ndarray:
    """Trapezoid sum at fixed step for a few log-arguments, node by node.

    The phase of node k = i B + j, B = _PHASE_BLOCK, is the product of
    exp(-i (i B h) ln x) and exp(-i (j h) ln x), each rounded once: one
    complex exp per block and per offset, not one per node, as accurate
    as the direct phases (B h is exact, B being a power of two).  Each
    block's coefficients are summed against the offset phases first and
    the block sums against the block phases second, by np.einsum, which
    calls no BLAS: the order of every sum is fixed, whatever the threads.
    """
    coef = _nodes(a, c, h, T)
    n_blocks = -(-coef.size // _PHASE_BLOCK)
    outer = np.exp(-1j * np.multiply.outer(
        np.arange(n_blocks) * (_PHASE_BLOCK * h), log_x))
    inner = np.exp(-1j * np.multiply.outer(np.arange(_PHASE_BLOCK) * h, log_x))
    blocks = np.zeros(n_blocks * _PHASE_BLOCK, dtype=np.complex128)
    blocks[:coef.size] = coef
    part = np.einsum("ij,jp->ip", blocks.reshape(n_blocks, _PHASE_BLOCK),
                     inner)
    return np.einsum("ip,ip->p", outer, part).real * np.exp(-c * log_x)


def w_eval_batch(a: int, xs: np.ndarray) -> np.ndarray:
    """W_a at every argument of a 1-D array in ascending order: the
    residue series on x <= 2, the piecewise Chebyshev interpolant on
    2 < x < x_zero, whose nodes are the quadrature at step h on the line
    c, and 0.0 from x_zero on, with a sampled runtime check (c, h, eps
    and x_zero those of _CONFIG).  Two binary searches split the
    arguments into these three slices, each written in place into the
    result.  Any other input (unsorted, not 1-D, NaN, inf or x <= 0)
    raises ValueError.

    _STEP_SAMPLES quantiles of the arguments below x_zero, the extremes
    included, are re-evaluated by the quadrature at step h / 4 on the
    line Re s = c / 2 (a cross-method check on series and interpolant
    samples, and a step and line check of the interpolant's nodes); a gap
    above eps raises KernelAccuracyError.  The pole of 1/s sits c/2 from
    that line, so the reference's step error is 2 exp(-4 pi c / h), the
    square of the checked values' bound, and a coarse h shows in the gap
    at every x.  At h = 0.1 both are far below rounding, and the gap is
    largest at the smallest x, where x^(-c/2) amplifies the reference's
    rounding: at x = pi/9999991 it is below 1e-13, and on the line c it
    would be 1.65e-10, above eps.
    """
    a, cfg = _check_parity(a), _CONFIG
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size and not (
            xs[0] > 0 and xs[-1] < math.inf and np.all(xs[1:] >= xs[:-1])):
        raise ValueError("kernel arguments must be a 1-D array of positive"
                         " reals in ascending order")
    out = np.zeros(xs.size)
    i_ser = int(np.searchsorted(xs, _SERIES_PATH, side="right"))
    i_zero = int(np.searchsorted(xs, cfg.x_zero))
    if i_zero == 0:
        return out
    if i_ser:
        _series_batch(a, xs[:i_ser], out[:i_ser])
    if i_zero > i_ser:
        _cheb_batch(a, xs[i_ser:i_zero], cfg, out[i_ser:i_zero])
    ranks = np.linspace(0, i_zero - 1, _STEP_SAMPLES).round().astype(np.int64)
    ranks = ranks[np.diff(ranks, prepend=-1) > 0]  # sorted, so deduplicated
    lx = np.log(xs[ranks])
    c_ref, h_ref = 0.5 * cfg.c, 0.25 * cfg.h
    T_ref = _auto_T(a, c_ref, float(lx[0]), cfg.eps)
    ref = _quad_points(a, lx, c_ref, h_ref, T_ref)
    gap = float(np.max(np.abs(ref - out[ranks])))
    if not gap <= cfg.eps:
        raise KernelAccuracyError(
            f"kernel W_{a} differs from the quadrature at step h/4 on the"
            f" line c/2 by {gap:.3g} > eps = {cfg.eps} (c = {cfg.c},"
            f" h = {cfg.h}, T = {T_ref})")
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
    T = _auto_T(a, cfg.c, math.log(_SERIES_PATH), cfg.eps)
    coef = _cheb_interp(lambda t: _quad_points(a, t, cfg.c, cfg.h, T),
                        t0, t1, n, cfg.eps)
    coef.flags.writeable = False
    return coef


def _cheb_batch(a: int, x: np.ndarray, cfg: KernelConfig,
                out: np.ndarray) -> None:
    """W_a at every x in (2, cfg.x_zero), written into out, from
    Chebyshev interpolants in t = ln x on _CHEB_PIECES equal pieces of
    [ln 2, ln cfg.x_zero], each of the degree _cheb_degree gives for its
    width (17 on the default pieces, against 38 on one interval).

    Binary searches at the pieces' ends in x split the ascending
    arguments into one slice per piece.  Each piece's coefficients
    (_cheb_coef) are built once per parity and cached, and
    _clenshaw evaluates them in blocks of _HORNER_BLOCK points, so a
    value depends on (a, x) alone.
    """
    t0, t1 = _cheb_piece(cfg, 0)
    n = _cheb_degree(t1 - t0)
    ends = [math.exp(_cheb_piece(cfg, k)[0]) for k in range(1, _CHEB_PIECES)]
    cuts = [0, *np.searchsorted(x, ends).tolist(), x.size]
    for k in range(_CHEB_PIECES):
        t0, t1 = _cheb_piece(cfg, k)
        coef = _cheb_coef(a, cfg, k, n)
        for lo in range(cuts[k], cuts[k + 1], _HORNER_BLOCK):
            hi = min(lo + _HORNER_BLOCK, cuts[k + 1])
            y = np.log(x[lo:hi])
            y -= 0.5 * (t0 + t1)
            y *= 4.0 / (t1 - t0)  # 2 s, s the point on [-1, 1]
            out[lo:hi] = _clenshaw(coef, y)


def _series_batch(a: int, x: np.ndarray, out: np.ndarray) -> None:
    """The residue series at every x in (0, 2], written into out, as

        W_a(x) = 1 - x^beta [P(x^2) - ln x Q(x^2)],
        Q(y) = sum_k c_k y^k,  P(y) = sum_k c_k (psi(k+1) + 1/sigma_k) y^k,

    c_k = 4 / (k!^2 G0^2 sigma_k), by Horner's rule in blocks of
    _HORNER_BLOCK points.  Terms are added until a geometric tail bound at
    x_top = _SERIES_PATH drops below _TAIL; it bounds the tail at every
    x <= 2.  The count is that of x = 2 (16 terms for a = 0, 17 for
    a = 1) in every batch, so each value depends on (a, x) alone.
    """
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
            break
        k += 1
        inv_kfac_sq /= k * k
        harmonic += 1.0 / k
        xp *= x_top * x_top
    for lo in range(0, x.size, _HORNER_BLOCK):
        xb = x[lo:lo + _HORNER_BLOCK]
        y = xb * xb
        p, qy = np.full(xb.shape, pc[-1]), np.full(xb.shape, qc[-1])
        for pk, qk in zip(pc[-2::-1], qc[-2::-1]):
            p *= y
            p += pk
            qy *= y
            qy += qk
        out[lo:lo + _HORNER_BLOCK] = 1.0 - xb**beta * (p - np.log(xb) * qy)
