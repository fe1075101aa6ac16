"""The smoothing kernel

    W_a(x) = (1/2 pi i) int_(c) [Gamma((s + 1/2 + a)/2) / Gamma((1/2 + a)/2)]^2
             x^(-s) ds / s,    a in {0, 1},  x > 0,

evaluated two independent ways:

  * w_eval / w_eval_batch: trapezoid quadrature on the vertical line
    Re s = c.  The integrand is analytic in a strip of half-width c around
    the line, so the trapezoid rule converges geometrically in 1/h.  The
    nodes t_k = k h are equally spaced, so for a batch the sum is a
    polynomial in z = x^(-ih) and is evaluated by Horner's rule; a single
    point sums its nodes directly.  Conjugate symmetry folds the line onto
    t >= 0.  w_eval halves the step until two levels agree; w_eval_batch
    evaluates at step h and checks a quantile sample of its arguments
    against step h/2.
  * w_series: the residue expansion obtained by shifting the line to
    -infinity.  Every pole s = -(1/2 + a + 2k) is double, giving

        W_a(x) = 1 - sum_{k>=0} (4 / (k!^2 G0^2 sigma_k)) x^sigma_k
                     (psi(k+1) + 1/sigma_k - ln x),

    with sigma_k = 1/2 + a + 2k, G0 = Gamma((1/2 + a)/2), and
    psi(k+1) = -gamma + H_k.  The series converges for all x but is
    exposed only on 0 < x <= 4 where the terms stay tame; it exists as an
    independent cross-check of the quadrature, not as a fast path.

W_a(x) tends to 1 as x -> 0+ and decays like exp(-2x) (saddle point at
s = 2x); beyond cfg.x_zero the kernel is treated as exactly zero.  With
the default x_zero = 24 the neglected value is below 1e-19 (measured
envelope |W| <= 12 e^{-2x} on 6 <= x <= 16, extrapolated with margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import loggamma

from .numerics import EULER_GAMMA

__all__ = [
    "KernelConfig",
    "KernelAccuracyError",
    "w_eval",
    "w_eval_batch",
    "w_series",
    "clear_kernel_cache",
]


class KernelAccuracyError(RuntimeError):
    """Raised when refinement, the step check or series truncation cannot
    meet eps."""


@dataclass(frozen=True)
class KernelConfig:
    """Quadrature and series controls.

    c:          abscissa of the integration line, must be > 0
    h:          base trapezoid step in t
    eps:        target absolute accuracy, must be in (0, 1e-6]
    t_height:   truncation height T, or None to pick it from the decay of
                the integrand at the smallest x in play
    max_refine: step halvings allowed before giving up
    series_cap: maximum number of residue-series terms
    x_zero:     arguments >= x_zero evaluate to exactly 0.0
    """

    c: float = 1.0
    h: float = 0.05
    eps: float = 1e-10
    t_height: float | None = None
    max_refine: int = 3
    series_cap: int = 80
    x_zero: float = 24.0

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"line abscissa c must be positive, got {self.c}")
        if not self.h > 0:
            raise ValueError(f"step h must be positive, got {self.h}")
        if not 0 < self.eps <= 1e-6:
            raise ValueError(
                f"eps must lie in (0, 1e-6], got {self.eps}")
        if self.t_height is not None and not self.t_height > 0:
            raise ValueError("t_height must be positive when given")
        if self.x_zero <= 4:
            raise ValueError("x_zero must exceed the series domain bound 4")


_T_HARD = 400.0  # absolute ceiling on the truncation height
_STEP_SAMPLES = 16  # arguments per batch re-evaluated at step h/2
# Points per Horner pass.  Each node step rereads the whole accumulator,
# so blocks that stay in cache run 3.6x faster at q = 100003 (764k points)
# and 1.3x at q = 10007 than one pass over all points (2-vCPU VM).
_HORNER_BLOCK = 32_768


def clear_kernel_cache() -> None:
    _nodes.cache_clear()


def _check_parity(a: int) -> int:
    if a not in (0, 1):
        raise ValueError(f"parity a must be 0 or 1, got {a}")
    return int(a)


def _gamma0(a: int) -> float:
    return math.gamma((0.5 + a) / 2)


def _log_abs_g(a: int, c: float, t: float) -> float:
    """log |Gamma((c+it+beta)/2) / Gamma(beta/2)|^2, beta = 1/2 + a."""
    beta = 0.5 + a
    return 2.0 * (loggamma(complex(c + beta, t) / 2).real
                  - math.lgamma(beta / 2))


def _auto_T(a: int, c: float, min_log_x: float, eps: float) -> float:
    """Truncation height: the folded integrand magnitude at T, times the
    largest x^(-c) in the batch, must drop below eps/1000."""
    amp = max(0.0, -c * min_log_x)  # log of max x^(-c)
    target = math.log(eps) - math.log(1000.0)
    t = 8.0
    while t < _T_HARD:
        if _log_abs_g(a, c, t) + amp - math.log(2 * math.pi * math.hypot(c, t)) < target:
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
    g = np.exp(2.0 * (loggamma((s + beta) / 2) - math.lgamma(beta / 2)))
    coef = (h / (2 * math.pi)) * g / s
    coef[1:] *= 2.0  # conjugate fold: t and -t
    coef.flags.writeable = False
    return coef


def _quad_batch(a: int, log_x: np.ndarray, c: float, h: float, T: float) -> np.ndarray:
    """Trapezoid sum at fixed step for a vector of log-arguments.

    exp(-i t_k ln x) = z^k with z = exp(-i h ln x), so the node sum is a
    polynomial in z, evaluated by Horner's rule from the top node down.
    """
    coef = _nodes(a, c, h, T)
    out = np.empty(log_x.shape, dtype=np.float64)
    for lo in range(0, log_x.size, _HORNER_BLOCK):
        z = np.exp(-1j * h * log_x[lo:lo + _HORNER_BLOCK])
        acc = np.full(z.shape, coef[-1])
        for ck in coef[-2::-1]:
            acc *= z
            acc += ck
        out[lo:lo + _HORNER_BLOCK] = acc.real
    return out * np.exp(-c * log_x)


def _quad_point(a: int, log_x: float, c: float, h: float, T: float) -> float:
    """Trapezoid sum at fixed step for one log-argument, node by node."""
    coef = _nodes(a, c, h, T)
    t = np.arange(coef.size, dtype=np.float64) * h
    terms = (coef * np.exp(-1j * t * log_x)).real
    return float(terms.sum()) * math.exp(-c * log_x)


def w_eval(a: int, x: float, cfg: KernelConfig = KernelConfig()) -> float:
    """W_a(x) by line quadrature, refined until two step levels agree.

    Raises KernelAccuracyError when max_refine halvings cannot reach
    cfg.eps.
    """
    a = _check_parity(a)
    if not (isinstance(x, (int, float, np.floating)) and math.isfinite(x)) or x <= 0:
        raise ValueError(f"kernel argument must be a positive real, got {x}")
    x = float(x)
    if x >= cfg.x_zero:
        return 0.0
    lx = math.log(x)
    T = cfg.t_height if cfg.t_height is not None else _auto_T(a, cfg.c, lx, cfg.eps)
    h = cfg.h
    prev = _quad_point(a, lx, cfg.c, h, T)
    for _ in range(cfg.max_refine):
        h *= 0.5
        cur = _quad_point(a, lx, cfg.c, h, T)
        if abs(cur - prev) <= cfg.eps:
            return cur
        prev = cur
    raise KernelAccuracyError(
        f"quadrature for W_{a}({x}) did not stabilize to {cfg.eps} "
        f"after {cfg.max_refine} refinements (c={cfg.c}, h={cfg.h}, T={T})")


def w_eval_batch(a: int, xs: np.ndarray,
                 cfg: KernelConfig = KernelConfig()) -> np.ndarray:
    """Vectorized quadrature at step cfg.h, with a sampled step check.

    The values are computed at step cfg.h only.  Then _STEP_SAMPLES
    quantiles of ln x, always including the smallest and largest, are
    re-evaluated at step cfg.h / 2; a gap above cfg.eps raises
    KernelAccuracyError.  The default step sits far inside the
    geometric-convergence regime (strip half-width c = 1 gives a gap
    around 1e-14).
    """
    a = _check_parity(a)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros_like(xs)
    if not np.all(np.isfinite(xs)) or np.any(xs <= 0):
        raise ValueError("kernel arguments must be positive reals")
    out = np.zeros(xs.shape, dtype=np.float64)
    live = xs < cfg.x_zero
    if not np.any(live):
        return out
    lx = np.log(xs[live])
    T = cfg.t_height if cfg.t_height is not None else _auto_T(
        a, cfg.c, float(lx.min()), cfg.eps)
    vals = _quad_batch(a, lx, cfg.c, cfg.h, T)
    out[live] = vals
    ranks = np.unique(np.linspace(0, lx.size - 1, _STEP_SAMPLES).round()
                      .astype(np.int64))
    pick = np.argpartition(lx, ranks)[ranks]
    half = _quad_batch(a, lx[pick], cfg.c, 0.5 * cfg.h, T)
    gap = float(np.max(np.abs(half - vals[pick])))
    if not gap <= cfg.eps:
        raise KernelAccuracyError(
            f"kernel W_{a} at step h = {cfg.h} differs from step h/2 by "
            f"{gap:.3g} > eps = {cfg.eps} (c = {cfg.c}, T = {T})")
    return out


def w_series(a: int, x: float, cfg: KernelConfig = KernelConfig()) -> float:
    """W_a(x) by the residue expansion; domain 0 < x <= 4.

    Terms are summed until a geometric tail bound falls below cfg.eps/100;
    exceeding cfg.series_cap raises KernelAccuracyError.
    """
    a = _check_parity(a)
    if not (isinstance(x, (int, float, np.floating)) and math.isfinite(x)) or x <= 0:
        raise ValueError(f"kernel argument must be a positive real, got {x}")
    x = float(x)
    if x > 4.0:
        raise ValueError(
            f"series form is restricted to 0 < x <= 4, got {x}")
    beta = 0.5 + a
    g0 = _gamma0(a)
    ln_x = math.log(x)
    inv_kfac_sq = 1.0 / (g0 * g0)  # 4 / (k!^2 G0^2) built up incrementally
    harmonic = 0.0                 # H_k, so psi(k+1) = H_k - gamma
    xp = x**beta                   # x^sigma_k
    x_sq = x * x
    total = 1.0
    comp = 0.0
    for k in range(cfg.series_cap):
        sigma = beta + 2 * k
        psi = harmonic - EULER_GAMMA
        term = -(4.0 * inv_kfac_sq / sigma) * xp * (psi + 1.0 / sigma - ln_x)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        ratio = x_sq / ((k + 1.0) * (k + 1.0))
        if ratio < 0.8:
            # magnitude envelope, immune to an accidental zero of the term
            bound = (4.0 * inv_kfac_sq / sigma) * xp * (
                abs(psi) + 1.0 / sigma + abs(ln_x))
            tail = bound * 4.0 * ratio / (1.0 - ratio)
            if tail < cfg.eps * 1e-2:
                return total
        inv_kfac_sq /= (k + 1.0) * (k + 1.0)
        harmonic += 1.0 / (k + 1.0)
        xp *= x_sq
    raise KernelAccuracyError(
        f"residue series for W_{a}({x}) needs more than {cfg.series_cap} terms")
