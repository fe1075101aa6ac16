"""Exact integer arithmetic and the multiplicative functions used everywhere else.

Single-value functions (mobius, euler_phi, ...) are computed from a prime
factorization, never by sieving, so there is one source of truth.  Sieve-backed
bulk variants exist for range scans (omega_sieve and friends) and are
cross-checked against the single-value path in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Factorization",
    "factorize",
    "mobius",
    "euler_phi",
    "omega",
    "divisor_count",
    "two_pow_omega",
    "phi_star",
    "divisors",
    "prime_sieve",
    "coprime_mask",
    "omega_sieve",
    "mobius_sieve",
    "euler_phi_sieve",
]

_MAX_N = 2**63 - 1

# Deterministic Miller-Rabin witnesses, sufficient for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition of a positive integer.

    ``factors`` is a list of (prime, exponent) pairs with strictly increasing
    primes whose product of prime powers equals ``n``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"exponent {e} < 1 for prime {p}")
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (n odd, not a prime power of 2)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed for {n}")  # pragma: no cover


def factorize(n: int) -> Factorization:
    """Factor n into prime powers.

    Trial division handles everything at desk scale; Pollard rho with a
    Miller-Rabin primality test takes over for large 64-bit inputs.
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"expected an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_N:
        raise ValueError(f"n = {n} exceeds the 63-bit support bound")

    factors: dict[int, int] = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    # wheel over 6k +- 1 up to a fixed trial bound, then rho on the remainder
    p = 7
    step = 4
    trial_bound = 1_000_000
    while p * p <= m and p <= trial_bound:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += step
        step = 6 - step

    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)

    return Factorization(n=n, factors=tuple(sorted(factors.items())))


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(n: int) -> int:
    f = factorize(n)
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def omega(n: int) -> int:
    return len(factorize(n).factors)


def divisor_count(n: int) -> int:
    out = 1
    for _, e in factorize(n).factors:
        out *= e + 1
    return out


def two_pow_omega(n: int) -> int:
    return 2 ** omega(n)


def phi_star(q: int) -> int:
    """Number of primitive Dirichlet characters mod q.

    Multiplicative with p -> p - 2 and p^k -> p^(k-2) (p-1)^2 for k >= 2;
    vanishes exactly when q = 2 mod 4.
    """
    out = 1
    for p, e in factorize(q).factors:
        if e == 1:
            out *= p - 2
        else:
            out *= p ** (e - 2) * (p - 1) ** 2
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasing."""
    divs = [1]
    for p, e in factorize(n).factors:
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
    for p in factorize(q).primes:
        mask[::p] = False
    return mask


def omega_sieve(limit: int) -> np.ndarray:
    """omega(n) for 0 <= n <= limit; omega(0) = omega(1) = 0."""
    out = np.zeros(limit + 1, dtype=np.uint8)
    for p in prime_sieve(limit):
        out[p::p] += 1
    return out


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit (mu(0) set to 0)."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in prime_sieve(limit):
        mu[p::p] *= -1
        p2 = p * p
        if p2 <= limit:
            mu[p2::p2] = 0
    return mu


def euler_phi_sieve(limit: int) -> np.ndarray:
    """phi(n) for 0 <= n <= limit (phi(0) set to 0)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    phi[0] = 0
    for p in prime_sieve(limit):
        phi[p::p] -= phi[p::p] // p
    return phi
