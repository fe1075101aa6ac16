"""Main-term machinery and measurable bound checks.

The head moment sum over primitive characters splits as

    sum* |B(chi)|^2 = M + E,

where M collects the diagonal quadruples ac = bd,

    M = (phi*(q)/2) sum_{ab<=Z, cd<=Z, ac=bd, (abcd,q)=1}
        [W_0(pi ab/q) W_0(pi cd/q) + W_1(pi ab/q) W_1(pi cd/q)] / sqrt(abcd),

and E is the bounded (not computable in closed form) off-diagonal rest.
Writing a = gr, b = gs, c = hs, d = hr with r, s coprime and n = rs turns
M into

    M = (phi*(q)/2) sum_{a=0,1} sum_{n<=Z, (n,q)=1} (2^omega(n)/n)
        ( sum_{g^2 n <= Z, (g,q)=1} W_a(pi g^2 n / q) / g )^2,

an exact combinatorial identity checked here numerically by computing
both sides from the same kernel values.  The closed-form leading term is

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

from .arith import euler_phi, factorize, omega, omega_sieve, phi_star, two_pow_omega
from .chargroup import CharacterGroup, build_group
from .kernel import KernelConfig
from .lfunc import KernelWeights, _pair_terms, _pairs, kernel_weights
from .numerics import EULER_GAMMA, ZETA2, KahanSum

__all__ = [
    "theorem_main_term",
    "m_direct",
    "m_reparametrized",
    "MainTermBreakdown",
    "main_term_breakdown",
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


def theorem_main_term(q: int) -> float:
    """Leading fourth-moment asymptotic at modulus q."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        return 0.0  # log(1)^4
    prod = 1.0
    for p, _ in factorize(q).factors:
        prod *= (1.0 - 1.0 / p) ** 3 / (1.0 + 1.0 / p)
    return phi_star(q) / (2 * math.pi**2) * prod * math.log(q) ** 4


def _resolve_weights(q: int, cfg: KernelConfig,
                     weights: Optional[KernelWeights]) -> KernelWeights:
    if weights is None:
        return kernel_weights(q, cfg)
    if weights.q != q or weights.cfg != cfg:
        raise ValueError("weights were built for a different modulus or config")
    return weights


def m_direct(q: int, cfg: KernelConfig = KernelConfig(), *,
             weights: Optional[KernelWeights] = None) -> float:
    """Diagonal main term by literal quadruple enumeration over ac = bd."""
    kw = _resolve_weights(q, cfg, weights)
    z = kw.z_floor
    pairs = []
    for a in range(1, z + 1):
        if math.gcd(a, q) != 1:
            continue
        for b in range(1, z // a + 1):
            if math.gcd(b, q) == 1:
                pairs.append((a, b))
    if len(pairs) ** 2 > _MAX_DIRECT_OPS:
        raise ValueError(
            f"direct quadruple enumeration at q = {q} needs "
            f"{len(pairs)**2:.2e} checks; use the reparametrized form")
    w0, w1 = kw.w
    acc = KahanSum()
    for a, b in pairs:
        ab = a * b
        wa0 = w0[ab]
        wa1 = w1[ab]
        for c, d in pairs:
            if a * c == b * d:
                cd = c * d
                acc.add(float(wa0 * w0[cd] + wa1 * w1[cd])
                        / math.sqrt(a * b * c * d))
    return phi_star(q) / 2.0 * float(acc.value)


def _repar_parts(q: int, kw: KernelWeights) -> tuple[float, float, int]:
    """(head, tail, z0_floor): reparametrized sum split at n <= Z_0 with
    Z_0 = Z / 9^omega(q), head/tail exclusive of the phi*/2 prefactor."""
    z = kw.z_floor
    w0, w1 = kw.w
    om = omega_sieve(z + 1) if z >= 1 else np.zeros(2, dtype=np.uint8)
    pow18 = 18 ** omega(q)
    z0_floor = q // pow18
    head = KahanSum()
    tail = KahanSum()
    for n in range(1, z + 1):
        if math.gcd(n, q) != 1:
            continue
        s0 = 0.0
        s1 = 0.0
        g = 1
        while g * g * n <= z:
            if math.gcd(g, q) == 1:
                m = g * g * n
                s0 += w0[m] / g
                s1 += w1[m] / g
            g += 1
        term = (float(2 ** int(om[n])) / n) * (s0 * s0 + s1 * s1)
        (head if n <= z0_floor else tail).add(float(term))
    return float(head.value), float(tail.value), z0_floor


def m_reparametrized(q: int, cfg: KernelConfig = KernelConfig(), *,
                     weights: Optional[KernelWeights] = None) -> float:
    """Diagonal main term via the a=gr, b=gs, c=hs, d=hr grouping."""
    kw = _resolve_weights(q, cfg, weights)
    head, tail, _ = _repar_parts(q, kw)
    return phi_star(q) / 2.0 * (head + tail)


@dataclass(frozen=True)
class MainTermBreakdown:
    """Where the head moment mass sits, against the closed form."""

    q: int
    theorem_value: float        # (phi*/2 pi^2) prod (log q)^4
    head_main_term: float       # theorem_value / 4: the sum* |B|^2 share
    m_value: float              # reparametrized diagonal sum
    m_head: float               # n <= Z_0 part (carries the asymptotic)
    m_tail: float               # Z_0 < n <= Z part (error-sized)
    z0_floor: int
    relative_error_budget: float  # (omega(q)/log q) sqrt(q/phi(q))


def main_term_breakdown(q: int, cfg: KernelConfig = KernelConfig(), *,
                        weights: Optional[KernelWeights] = None) -> MainTermBreakdown:
    if q < 3:
        raise ValueError("breakdown needs q >= 3 so log q > 0")
    kw = _resolve_weights(q, cfg, weights)
    head, tail, z0 = _repar_parts(q, kw)
    pref = phi_star(q) / 2.0
    thm = theorem_main_term(q)
    budget = omega(q) / math.log(q) * math.sqrt(q / euler_phi(q))
    return MainTermBreakdown(
        q=q, theorem_value=thm, head_main_term=thm / 4.0,
        m_value=pref * (head + tail), m_head=pref * head,
        m_tail=pref * tail, z0_floor=z0, relative_error_budget=budget)


@dataclass(frozen=True)
class Lemma3Result:
    k: int
    z1: float
    z2: float
    count: int
    envelope: float  # (Z1 Z2 / k) (log Z1 Z2)^3


def _dyadic_pairs(z: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (a, b) with z <= ab < 2z and (ab, k) = 1."""
    a_list = []
    b_list = []
    a_max = int(math.ceil(2 * z)) - 1
    for a in range(1, a_max + 1):
        if math.gcd(a, k) != 1:
            continue
        b_lo = int(math.ceil(z / a))
        if b_lo * a < z:  # guard against float ceil slips
            b_lo += 1
        b_hi = int(math.ceil(2 * z / a)) - 1
        while (b_hi + 1) * a < 2 * z:  # same, other direction
            b_hi += 1
        for b in range(max(1, b_lo), b_hi + 1):
            if a * b >= 2 * z:
                break
            if math.gcd(b, k) == 1:
                a_list.append(a)
                b_list.append(b)
    return (np.array(a_list, dtype=np.int64), np.array(b_list, dtype=np.int64))


def lemma3_count(k: int, z1: float, z2: float) -> Lemma3Result:
    """Exact count of quadruples in the dyadic box with ac = +-bd (mod k)
    but ac != bd, next to the stated envelope."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if z1 < 2 or z2 < 2:
        raise ValueError("dyadic box bounds must be >= 2")
    a1, b1 = _dyadic_pairs(z1, k)
    a2, b2 = _dyadic_pairs(z2, k)
    n1, n2 = len(a1), len(a2)
    if n1 * n2 > _MAX_LEMMA3_OPS:
        raise ValueError(
            f"lemma-3 box ({z1}, {z2}) needs {n1 * n2:.2e} comparisons")
    count = 0
    if n1 and n2:
        chunk = max(1, int(4_000_000 // max(n1, 1)))
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
    mask = [math.gcd(r, q) == 1 for r in range(q)] if q > 1 else [True]
    lhs = math.fsum(1.0 / n for n in range(1, int(x) + 1) if mask[n % q])
    pls = math.fsum(math.log(p) / (p - 1) for p, _ in factorize(q).factors)
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


def _coprime_mask_chunk(n0: int, n1: int, q: int) -> np.ndarray:
    n = np.arange(n0, n1, dtype=np.int64)
    mask = np.ones(n.shape, dtype=bool)
    for p, _ in factorize(q).factors:
        mask &= n % p != 0
    return mask


def lemma5_sums(q: int, x: float) -> Lemma5Result:
    """The two 2^omega(n)/n sums with their envelope / main term."""
    if q < 1 or x < math.sqrt(q) or x < 4:
        raise ValueError("need q >= 1 and x >= max(4, sqrt(q))")
    if x > _MAX_LEMMA45_N:
        raise ValueError(f"x = {x} exceeds the summation cap")
    xi = int(x)
    om = omega_sieve(xi + 1)
    two_om = np.float64(2.0) ** om.astype(np.float64)

    def masked_sum(hi: int, weight_log: bool) -> float:
        parts = []
        step = 5_000_000
        for n0 in range(1, hi + 1, step):
            n1 = min(n0 + step, hi + 1)
            n = np.arange(n0, n1, dtype=np.int64)
            mask = _coprime_mask_chunk(n0, n1, q)
            vals = two_om[n0:n1] / n
            if weight_log:
                vals = vals * np.log(x / n) ** 2
            parts.append(float(np.sum(vals[mask])))
        return math.fsum(parts)

    sum1 = masked_sum(min(q, xi), False) if q > 1 else 1.0
    if q == 1:
        sum1 = 1.0  # single term n = 1
    sum2 = masked_sum(xi, True)
    prod = 1.0
    for p, _ in factorize(q).factors:
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


def error_sum_E(q: int, cfg: KernelConfig = KernelConfig(), *,
                weights: Optional[KernelWeights] = None,
                group: Optional[CharacterGroup] = None) -> ErrorSumResult:
    """Off-diagonal remainder E = sum*|B|^2 - M, measured directly.

    The B values are recomputed here by the naive per-character route
    (head pairs only), independent of the table pipeline.
    """
    if q < 3:
        raise ValueError("error sum needs q >= 3 so log q > 0")
    kw = _resolve_weights(q, cfg, weights)
    G = group if group is not None else build_group(q)
    pairs, n_b = _pairs(q, kw.m_eff, kw.z_floor)
    head = tuple(col[:n_b] for col in pairs)
    acc = KahanSum()
    for chi in G.labels():
        if not chi.primitive:
            continue
        re, _ = _pair_terms(G.char_values(chi), kw.kprod[chi.parity], head)
        b_re = math.fsum(re)
        acc.add(b_re * b_re)
    m_val = m_reparametrized(q, cfg, weights=kw)
    b_sq = acc.value
    return ErrorSumResult(q=q, b_sq_sum=b_sq, m_value=m_val,
                          e_measured=b_sq - m_val,
                          envelope=q * math.log(q) ** 3)
