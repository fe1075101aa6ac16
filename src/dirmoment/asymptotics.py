"""Main-term machinery and measurable bound checks.

The head moment sum over primitive characters splits as

    sum* |B(chi)|^2 = M + E,

where M collects the diagonal quadruples ac = bd,

    M = (phi*(q)/2) sum_{ab<=Z, cd<=Z, ac=bd, (abcd,q)=1}
        [K_0(ab) K_0(cd) + K_1(ab) K_1(cd)],

with K_a(m) = W_a(pi m / q) / sqrt(m), the kernel in the form every
smoothed sum reads (lfunc.KernelWeights.kprod), and E is the bounded (not
computable in closed form) off-diagonal rest.  Writing a = gr, b = gs,
c = hs, d = hr with r, s coprime and n = rs turns M into

    M = (phi*(q)/2) sum_{a=0,1} sum_{n<=Z, (n,q)=1} 2^omega(n)
        ( sum_{g^2 n <= Z, (g,q)=1} K_a(g^2 n) )^2,

since K_a(g^2 n) = W_a(pi g^2 n / q) / (g sqrt(n)): an exact
combinatorial identity checked here numerically by computing both sides
from the same kernel values.  The closed-form leading term is

    theorem_main_term(q) = (phi*(q) / 2 pi^2)
        prod_{p|q} (1-1/p)^3 / (1+1/p) * (log q)^4,

which is 4x the head main term, matching the fourth-moment normalization.

The module also evaluates the three counting/summation lemmas that drive
the error analysis (quadruple counts in dyadic boxes, the coprime
harmonic sum, the 2^omega(n)/n sums) together with their stated
envelopes, so the asymptotic inequalities can be monitored numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import (coprime_mask, euler_phi, factorize, omega_sieve,
                    phi_star, two_pow_omega)
from .chargroup import _check_modulus, build_group
from .lfunc import (KernelWeights, _class_sums, _coprime_pairs, _exact_sum,
                    _resolve_weights, _use_weights, head_bound,
                    kernel_weights)
from .numerics import EULER_GAMMA, ZETA2

__all__ = [
    "theorem_main_term",
    "m_direct",
    "m_reparametrized",
    "Lemma3Result",
    "lemma3_count",
    "Lemma4Result",
    "lemma4_check",
    "Lemma5Result",
    "lemma5_sums",
    "ErrorSumResult",
    "error_sum_E",
]

_MAX_DIRECT_OPS = 5e7   # |pairs|^2 cap for the quadruple enumeration
_MAX_LEMMA3_OPS = 2e8
_MAX_LEMMA45_N = 5e7
# entries per block of the outer-product comparisons of m_direct and
# lemma3_count: a block's int64 matrices take 32 MB each
_OUTER_BLOCK = 4_000_000


def theorem_main_term(q: int) -> float:
    """Leading fourth-moment asymptotic at modulus q."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    prod = 1.0
    for p, _ in factorize(q):
        prod *= (1.0 - 1.0 / p) ** 3 / (1.0 + 1.0 / p)
    return phi_star(q) / (2 * math.pi**2) * prod * math.log(q) ** 4


def m_direct(q: int) -> float:
    """Diagonal main term by literal quadruple enumeration over ac = bd.

    The modulus is checked, then the pairs are counted, before any kernel
    value or pair is built: with cnt[k] the number of coprime b <= k,
    there are sum over coprime a <= Z of cnt[Z // a] of them.
    """
    z = head_bound(_check_modulus(q))
    cop = coprime_mask(q, z)
    cop[0] = False
    n = int(np.cumsum(cop)[z // np.flatnonzero(cop)].sum())
    if n**2 > _MAX_DIRECT_OPS:
        raise ValueError(
            f"direct quadruple enumeration at q = {q} needs "
            f"{n**2:.2e} checks; use the reparametrized form")
    kp0, kp1 = kernel_weights(q, head_only=True).kprod
    a, b = _coprime_pairs(q, 0, z)
    terms: list[float] = []
    chunk = max(1, _OUTER_BLOCK // n)
    for lo in range(0, n, chunk):
        # (a, b) along rows, (c, d) along columns
        i, j = np.nonzero(np.multiply.outer(a[lo:lo + chunk], a)
                          == np.multiply.outer(b[lo:lo + chunk], b))
        ab, cd = a[lo + i] * b[lo + i], a[j] * b[j]
        terms += (kp0[ab] * kp0[cd] + kp1[ab] * kp1[cd]).tolist()
    return phi_star(q) / 2.0 * math.fsum(terms)


def m_reparametrized(q: int, *,
                     weights: Optional[KernelWeights] = None) -> float:
    """Diagonal main term via the a=gr, b=gs, c=hs, d=hr grouping, its
    terms added exactly and rounded once (the total of lfunc._exact_sum);
    kernel_weights refuses a modulus out of range before any table."""
    kw = _resolve_weights(q, weights, head_only=True)
    z = kw.z_floor
    cop = coprime_mask(q, z)
    # s[a, n] = sum over coprime g with g^2 n <= z of kprod[a, g^2 n],
    # each added from g = 1 upwards, both parities in one strided slice
    s = np.zeros((2, z + 1))
    for g in np.flatnonzero(cop[1:math.isqrt(z) + 1]) + 1:
        gg = g * g
        top = z // gg
        s[:, 1:top + 1] += kw.kprod[:, gg:top * gg + 1:gg]
    # S and omega at the coprime n >= 1, by mask; 2^omega(n) scales exactly
    sn = s[:, 1:][:, cop[1:]]
    sn *= sn
    term = np.ldexp(sn[0] + sn[1], omega_sieve(z)[1:][cop[1:]])
    return phi_star(q) / 2.0 * _exact_sum(term, ())[1]


@dataclass(frozen=True)
class Lemma3Result:
    k: int
    z1: float
    z2: float
    count: int
    envelope: float  # (Z1 Z2 / k) (log Z1 Z2)^3


def lemma3_count(k: int, z1: float, z2: float) -> Lemma3Result:
    """Exact count of quadruples in the dyadic box with ac = +-bd (mod k)
    but ac != bd, next to the stated envelope: (a, b) and (c, d) run over
    the ordered pairs with (ab, k) = 1 and z <= ab < 2z, z = z1 and z2,
    the integer products ceil(z) <= ab <= ceil(2z) - 1, in any order."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if z1 < 2 or z2 < 2:
        raise ValueError("dyadic box bounds must be >= 2")
    (a1, b1), (a2, b2) = (_coprime_pairs(k, math.ceil(z) - 1,
                                         math.ceil(2 * z) - 1)
                          for z in (z1, z2))
    n1, n2 = len(a1), len(a2)
    if n1 * n2 > _MAX_LEMMA3_OPS:
        raise ValueError(
            f"lemma-3 box ({z1}, {z2}) needs {n1 * n2:.2e} comparisons")
    count = 0
    chunk = max(1, _OUTER_BLOCK // max(n1, 1))
    for lo in range(0, n2, chunk):
        ac = np.multiply.outer(a1, a2[lo:lo + chunk])
        bd = np.multiply.outer(b1, b2[lo:lo + chunk])
        hit = ((ac - bd) % k == 0) | ((ac + bd) % k == 0)
        hit &= ac != bd
        count += int(np.count_nonzero(hit))
    env = (z1 * z2 / k) * math.log(z1 * z2) ** 3
    return Lemma3Result(k=k, z1=z1, z2=z2, count=count, envelope=env)


@dataclass(frozen=True)
class Lemma4Result:
    q: int
    x: float
    lhs: float            # sum_{n<=x, (n,q)=1} 1/n
    rhs: float            # (phi/q)(log x + gamma + sum_p log p/(p-1))
    error: float
    envelope: float       # 4 * 2^omega(q) * log(x) / x
    prime_log_sum: float  # sum_{p|q} log p / (p-1)


def lemma4_check(q: int, x: float) -> Lemma4Result:
    """Coprime harmonic sum against its closed-form approximation."""
    if q < 1 or x < 2:
        raise ValueError("need q >= 1 and x >= 2")
    if x > _MAX_LEMMA45_N:
        raise ValueError(f"x = {x} exceeds the summation cap")
    mask = coprime_mask(q, q - 1).tolist()
    lhs = math.fsum(1.0 / n for n in range(1, int(x) + 1) if mask[n % q])
    pls = math.fsum(math.log(p) / (p - 1) for p, _ in factorize(q))
    rhs = euler_phi(q) / q * (math.log(x) + EULER_GAMMA + pls)
    env = 4.0 * two_pow_omega(q) * math.log(x) / x
    return Lemma4Result(q=q, x=float(x), lhs=lhs, rhs=rhs,
                        error=abs(lhs - rhs), envelope=env,
                        prime_log_sum=pls)


@dataclass(frozen=True)
class Lemma5Result:
    q: int
    x: float
    sum1: float           # sum_{n<=q, (n,q)=1} 2^omega(n)/n
    sum1_envelope: float  # (phi/q)^2 (log q)^2
    sum2: float           # sum_{n<=x, (n,q)=1} (2^omega(n)/n) log(x/n)^2
    main2: float          # (log x)^4 / (12 zeta(2)) * prod (1-1/p)/(1+1/p)
    ratio2: float         # sum2 / main2


def lemma5_sums(q: int, x: float) -> Lemma5Result:
    """The two 2^omega(n)/n sums with their envelope / main term."""
    if q < 1 or x < math.sqrt(q) or x < 4:
        raise ValueError("need q >= 1 and x >= max(4, sqrt(q))")
    if x > _MAX_LEMMA45_N:
        raise ValueError(f"x = {x} exceeds the summation cap")
    xi = int(x)
    om = omega_sieve(xi + 1)
    cop = coprime_mask(q, xi)

    def masked_sum(hi: int, weight_log: bool) -> float:
        parts = []
        step = 5_000_000
        for n0 in range(1, hi + 1, step):
            n1 = min(n0 + step, hi + 1)
            n = np.arange(n0, n1, dtype=np.int64)
            vals = np.float64(2.0) ** om[n0:n1].astype(np.float64) / n
            if weight_log:
                vals = vals * np.log(x / n) ** 2
            parts.append(float(np.sum(vals[cop[n0:n1]])))
        return math.fsum(parts)

    sum1 = masked_sum(min(q, xi), False)
    sum2 = masked_sum(xi, True)
    prod = 1.0
    for p, _ in factorize(q):
        prod *= (1.0 - 1.0 / p) / (1.0 + 1.0 / p)
    main2 = math.log(x) ** 4 / (12.0 * ZETA2) * prod
    env1 = (euler_phi(q) / q) ** 2 * math.log(max(q, 2)) ** 2
    return Lemma5Result(q=q, x=float(x), sum1=sum1, sum1_envelope=env1,
                        sum2=sum2, main2=main2, ratio2=sum2 / main2)


@dataclass(frozen=True)
class ErrorSumResult:
    q: int
    b_sq_sum: float    # sum over primitive chi of B(chi)^2, naive route
    m_value: float     # reparametrized diagonal
    e_measured: float  # difference
    envelope: float    # q (log q)^3


def error_sum_E(q: int) -> ErrorSumResult:
    """Off-diagonal remainder E = sum*|B|^2 - M, measured directly.

    Each B is its b_value from abc_values, the naive per-character route
    independent of the table pipeline: lfunc._class_sums over a head-only
    table (the full one's prefix), which reads back what abc_values
    stored for q.  One character per conjugate class: B(chibar) is B(chi)
    bit for bit, so sum* B^2 is the exact total of B^2 with each non-real
    class's doubled.
    """
    if q < 3:
        raise ValueError("error sum needs q >= 3 so log q > 0")
    G = build_group(q)
    kw = _use_weights(q, None, head_only=True)["weights"]
    sq: list[float] = []
    for chi in G.labels():
        bar = G.conjugate_exponents(chi)
        if chi.primitive and chi.exponents <= bar:
            b = _class_sums(G, chi)[0]
            sq.append(b ** 2 * (1 + (chi.exponents != bar)))
    b_sq = _exact_sum(np.array(sq), ())[1]
    m_val = m_reparametrized(q, weights=kw)
    return ErrorSumResult(q=q, b_sq_sum=b_sq, m_value=m_val,
                          e_measured=b_sq - m_val,
                          envelope=q * math.log(q) ** 3)
