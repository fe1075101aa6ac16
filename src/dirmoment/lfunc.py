"""Central values of Dirichlet L-functions, two independent ways.

The oracle route evaluates L(1/2, chi) for primitive chi through the
Hurwitz zeta function,

    L(1/2, chi) = q^(-1/2) sum_{a=1}^{q} chi(a) zeta(1/2, a/q),

with zeta(s, a) computed by Euler-Maclaurin summation.  The smoothed
route evaluates the rapidly truncating double sum

    A(chi) = sum_{a,b >= 1} chi(a) chibar(b) / sqrt(ab) * W_a(pi a b / q),

which satisfies |L(1/2, chi)|^2 = 2 A(chi) for primitive chi.  A is split
as B + C at the product threshold Z = q / 2^omega(q); the B/C membership
test is the exact integer predicate a*b * 2^omega(q) <= q.

The double sum visits the coprime pairs sorted by (ab, a), gathers its
terms with numpy and adds them with math.fsum: A, B and C are each the
correctly rounded sum of their terms, so they do not depend on term order
and reruns are bit-identical.  The oracle fsums chi(a) zeta(1/2, a/q) the
same way, from one table of Hurwitz values per modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .arith import two_pow_omega
from .chargroup import CharacterGroup, CharacterLabel
from .kernel import KernelConfig, w_eval_batch

__all__ = [
    "CentralValue",
    "KernelWeights",
    "hurwitz_zeta",
    "kernel_weights",
    "l_half_oracle",
    "abc_values",
]

# B_{2j} for 2j = 2..28; enough for ~1e-30 headroom at N ~ 24 shifted terms
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730),
    Fraction(8553103, 6), Fraction(-23749461029, 870),
)
_B_OVER_FACT = tuple(
    float(b / math.factorial(2 * (j + 1))) for j, b in enumerate(_BERNOULLI))

_MAX_PAIRS = 60_000_000  # guard on the naive pair enumeration


def hurwitz_zeta(s: float, a: float, *, n_terms: int = 24,
                 j_terms: int = 12) -> float:
    """zeta(s, a) = sum_{k>=0} (k + a)^(-s) by Euler-Maclaurin.

    Supported region: real 0 < s < 1 (continuation through the shifted
    tail integral) and a > 0.  With the default depths the truncation
    error is far below double rounding for a >= 1e-3.
    """
    if not (isinstance(s, (int, float)) and 0.0 < s < 1.0):
        raise ValueError(f"s must be a real number in (0, 1), got {s}")
    if not (isinstance(a, (int, float)) and a > 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be a positive real, got {a}")
    if j_terms > len(_B_OVER_FACT):
        raise ValueError(f"j_terms capped at {len(_B_OVER_FACT)}")
    s = float(s)
    a = float(a)
    direct = math.fsum((a + k) ** (-s) for k in range(n_terms))
    na = a + n_terms
    corr = [na ** (1.0 - s) / (s - 1.0), 0.5 * na ** (-s)]
    poch = s                      # (s)(s+1)...(s+2j-2), one factor so far
    napow = na ** (-s - 1.0)      # na^(-s-2j+1) at j = 1
    inv_na_sq = 1.0 / (na * na)
    for j in range(j_terms):
        corr.append(_B_OVER_FACT[j] * poch * napow)
        poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
        napow *= inv_na_sq
    return direct + math.fsum(corr)


@lru_cache(maxsize=8)
def _hurwitz_half(q: int) -> np.ndarray:
    """zeta(1/2, a/q) for a = 1..q-1; the cached array is shared and
    read-only."""
    hz = np.array([hurwitz_zeta(0.5, a / q) for a in range(1, q)])
    hz.flags.writeable = False
    return hz


def l_half_oracle(G: CharacterGroup, chi: CharacterLabel) -> complex:
    """L(1/2, chi) for primitive chi mod q >= 3 via Hurwitz zeta values."""
    q = G.q
    if q < 3 or not chi.primitive:
        raise ValueError(
            "the Hurwitz-zeta route needs a primitive character of modulus"
            f" >= 3; got q = {q}, primitive = {chi.primitive}")
    z = G.char_values(chi)[1:]
    hz = _hurwitz_half(q)
    return complex(math.fsum((z.real * hz).tolist()),
                   math.fsum((z.imag * hz).tolist())) / math.sqrt(q)


@dataclass
class KernelWeights:
    """Kernel values shared verbatim by every pipeline at one modulus.

    w[a][m] = W_a(pi m / q) and kprod[a][m] = W_a(pi m / q) / sqrt(m) for
    1 <= m <= m_eff; index 0 is zero padding.  m_eff is the effective
    truncation: products beyond it sit past the kernel's hard zero cutoff
    (or past the configured analytic truncation bound, whichever is
    smaller), so every sum over ab can stop there.
    """

    q: int
    cfg: KernelConfig
    z_floor: int   # largest m with m * 2^omega(q) <= q
    m_eff: int
    w: tuple[np.ndarray, np.ndarray]
    kprod: tuple[np.ndarray, np.ndarray]


def truncation_bound(q: int, cfg: KernelConfig) -> int:
    """Effective upper bound for products ab in the smoothed sums."""
    analytic = q * max(40.0, math.log(1.0 / cfg.eps) ** 2)
    hard_zero = math.floor(cfg.x_zero * q / math.pi)
    return max(1, min(int(analytic), int(hard_zero)))


def kernel_weights(q: int, cfg: KernelConfig = KernelConfig()) -> KernelWeights:
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    m_eff = truncation_bound(q, cfg)
    z_floor = q // two_pow_omega(q)
    m = np.arange(m_eff + 1, dtype=np.float64)
    x = math.pi * m[1:] / q
    w0 = np.zeros(m_eff + 1)
    w1 = np.zeros(m_eff + 1)
    w0[1:] = w_eval_batch(0, x, cfg)
    w1[1:] = w_eval_batch(1, x, cfg)
    inv_sqrt = np.zeros(m_eff + 1)
    inv_sqrt[1:] = 1.0 / np.sqrt(m[1:])
    return KernelWeights(q, cfg, z_floor, m_eff,
                         (w0, w1), (w0 * inv_sqrt, w1 * inv_sqrt))


@dataclass(frozen=True)
class CentralValue:
    """Smoothed-sum output for one character, with the oracle alongside."""

    label: CharacterLabel
    q: int
    a_value: float    # A = B + C, rounded once over all terms
    b_value: float    # head: products ab <= Z
    c_value: float    # tail: Z < ab <= m_eff
    imag_residue: float
    m_eff: int
    l_oracle: Optional[complex] = None


def _coprime_pair_chunks(q: int,
                         m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair (a, b) of integers coprime to q with ab <= m, exactly
    once, as chunks of equal a or equal b (Dirichlet hyperbola split).

    With s = isqrt(m): first a = 1..s with every b <= m // a, then
    b = 1..s with s < a <= m // b.  That is about 2 sqrt(m) chunks, visited
    in this fixed order.
    """
    n = np.arange(1, m + 1, dtype=np.int64)
    cop = n[np.gcd(n, q) == 1]  # sorted coprime integers in [1, m]
    s = math.isqrt(m)
    small = cop[:np.searchsorted(cop, s, side="right")]
    ends = np.searchsorted(cop, m // small, side="right")
    for a, end in zip(small.tolist(), ends.tolist()):
        b = cop[:end]
        yield np.full(b.size, a, dtype=np.int64), b
    for b, end in zip(small.tolist(), ends.tolist()):
        if end > small.size:
            a = cop[small.size:end]
            yield a, np.full(a.size, b, dtype=np.int64)


@lru_cache(maxsize=8)
def _pairs(q: int, m_eff: int,
           z_floor: int) -> tuple[tuple[np.ndarray, ...], int]:
    """Coprime pairs (a, b) with ab <= m_eff as int64 arrays
    (ab, a mod q, b mod q), sorted by (ab, a), and the count of pairs with
    ab <= z_floor (a prefix).  The cached arrays are shared and read-only."""
    est = m_eff * (math.log(m_eff) + 1.0)
    if est > _MAX_PAIRS:
        raise ValueError(
            f"naive pair enumeration would need ~{est:.2e} entries; "
            "use the weight-table pipeline at this modulus")
    a, b = (np.concatenate(c) for c in zip(*_coprime_pair_chunks(q, m_eff)))
    ab = a * b
    order = np.lexsort((a, ab))
    cols = (ab[order], a[order] % q, b[order] % q)
    for col in cols:
        col.flags.writeable = False
    return cols, int(np.searchsorted(cols[0], z_floor, side="right"))


def _pair_terms(vals: np.ndarray, kp: np.ndarray,
                pairs: tuple[np.ndarray, ...]) -> tuple[list[float], list[float]]:
    """Real and imaginary parts of chi(a) chibar(b) kp[ab] over the pairs,
    from vals = chi(u) for every residue u.

    Real arithmetic, one rounding per operation: each term is the same
    float wherever the pair sits in the arrays.  Callers add the terms
    with math.fsum, which is correctly rounded and so independent of
    their order.
    """
    ab, ua, ub = pairs
    xa, xb, w = vals[ua], vals[ub], kp[ab]
    re = (xa.real * xb.real + xa.imag * xb.imag) * w
    im = (xa.imag * xb.real - xa.real * xb.imag) * w
    return re.tolist(), im.tolist()


def abc_values(G: CharacterGroup, chi: CharacterLabel,
               cfg: KernelConfig = KernelConfig(), *,
               weights: Optional[KernelWeights] = None,
               with_oracle: bool = False) -> CentralValue:
    """A(chi), B(chi), C(chi) by direct, correctly rounded summation.

    This is the reference pipeline: one character at a time, no residue
    grouping.  Shares kernel values through `weights` so that comparisons
    against the table pipeline test only the reorganization of the sum.
    """
    q = G.q
    if weights is None:
        weights = kernel_weights(q, cfg)
    elif weights.q != q or weights.cfg != cfg:
        raise ValueError("weights were built for a different modulus or config")
    pairs, n_b = _pairs(q, weights.m_eff, weights.z_floor)
    re, im = _pair_terms(G.char_values(chi), weights.kprod[chi.parity], pairs)
    oracle = l_half_oracle(G, chi) if with_oracle else None
    return CentralValue(
        label=chi, q=q, a_value=math.fsum(re), b_value=math.fsum(re[:n_b]),
        c_value=math.fsum(re[n_b:]),
        imag_residue=max(abs(math.fsum(im[:n_b])), abs(math.fsum(im[n_b:]))),
        m_eff=weights.m_eff,
        l_oracle=oracle)
