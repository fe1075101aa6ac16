"""Exact integer arithmetic and the multiplicative functions used everywhere else.

Single-value functions (mobius, euler_phi, ...) are computed from the
(p, e) pairs factorize returns, never by sieving, so there is one source
of truth.  The sieves (prime_sieve, coprime_mask, omega_sieve) serve range
scans, and omega_sieve is cross-checked against the single-value path in
the tests.  Each sieve makes its Python-level steps over the primes up to
sqrt(limit) or over the primes of q only; the work per step is one numpy
strided slice.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

__all__ = [
    "factorize",
    "mobius",
    "euler_phi",
    "omega",
    "two_pow_omega",
    "phi_star",
    "divisors",
    "prime_sieve",
    "coprime_mask",
    "omega_sieve",
]

_MAX_N = 10**13  # trial division of a prime near this bound takes 0.25 s


def _trial_divisors() -> Iterator[int]:
    """2, 3, then every 6k +- 1 from 5 on."""
    yield 2
    yield 3
    for k in itertools.count(6, 6):
        yield k - 1
        yield k + 1


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers of n as (p, e) pairs in increasing p, () for
    n = 1, by trial division over 2, 3 and the 6k +- 1 wheel up to sqrt
    of the unfactored rest; n <= _MAX_N."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"expected an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_N:
        raise ValueError(f"n = {n} exceeds the trial-division bound {_MAX_N}")

    factors: dict[int, int] = {}
    m = n
    for p in _trial_divisors():
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:  # a prime above every divisor tried
        factors[m] = 1
    return tuple(factors.items())


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def omega(n: int) -> int:
    return len(factorize(n))


def two_pow_omega(n: int) -> int:
    return 2 ** omega(n)


def phi_star(q: int) -> int:
    """Number of primitive Dirichlet characters mod q.

    Multiplicative with p -> p - 2 and p^k -> p^(k-2) (p-1)^2 for k >= 2;
    vanishes exactly when q = 2 mod 4.
    """
    out = 1
    for p, e in factorize(q):
        if e == 1:
            out *= p - 2
        else:
            out *= p ** (e - 2) * (p - 1) ** 2
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasing."""
    divs = [1]
    for p, e in factorize(n):
        pk = 1
        block = []
        for _ in range(e):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    return sorted(divs)


# ---------------------------------------------------------------------------
# sieve-backed bulk variants for range scans (n up to ~10^7)


def prime_sieve(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array (Eratosthenes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def coprime_mask(q: int, n: int) -> np.ndarray:
    """gcd(k, q) == 1 for 0 <= k <= n as a bool array: one strided clear
    per prime p | q.  Index 0 is True only for q = 1."""
    mask = np.ones(n + 1, dtype=bool)
    for p, _ in factorize(q):
        mask[::p] = False
    return mask


def omega_sieve(limit: int) -> np.ndarray:
    """omega(n) for 0 <= n <= limit; omega(0) = omega(1) = 0.

    Python steps over the primes p <= sqrt(limit) only: each counts p at
    its multiples and divides p out of the residual rest[n] = n, one
    strided division per p^k <= limit.  A residual left above 1 is a
    single prime above sqrt(limit), one count more.
    rest is the smallest unsigned type that holds limit (uint32 below
    2^32), which halves the divisions' memory traffic against int64."""
    out = np.zeros(limit + 1, dtype=np.uint8)
    rest = np.arange(limit + 1, dtype=np.min_scalar_type(limit))
    for p in prime_sieve(math.isqrt(max(limit, 0))).tolist():
        out[p::p] += 1
        pk = p
        while pk <= limit:
            rest[pk::pk] //= p
            pk *= p
    out[2:] += rest[2:] > 1
    return out
