import math

import numpy as np
import pytest

from dirmoment.arith import (divisors, euler_phi, factorize, mobius, omega,
                             omega_sieve, phi_star, prime_sieve, two_pow_omega)


def test_factorize_small():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1) == ()
    assert factorize(97) == ((97, 1),)


def test_factorize_reconstructs():
    for n in range(1, 2000):
        f = factorize(n)
        assert math.prod(p ** e for p, e in f) == n
        assert all(e >= 1 for _, e in f)
        assert [p for p, _ in f] == sorted({p for p, _ in f})


def test_factorize_large_semiprime():
    p, r = 1000003, 1000033
    assert factorize(p * r) == ((p, 1), (r, 1))


def test_factorize_rejects():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_up_to_trial_division_bound():
    # trial division serves every n <= 10^13 and refuses the rest
    assert factorize(10**13) == ((2, 13), (5, 13))
    assert factorize(999983 * 9999991) == ((999983, 1), (9999991, 1))
    with pytest.raises(ValueError, match="trial-division bound"):
        factorize(10**13 + 1)


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_euler_phi_brute():
    for n in range(1, 400):
        assert euler_phi(n) == brute_phi(n)


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1,
                210: 1, 49: 0}
    for n, m in expected.items():
        assert mobius(n) == m


def test_mobius_sum_identity():
    # sum of mu(d) over divisors of n is the unit indicator
    for n in range(1, 300):
        s = sum(mobius(d) for d in divisors(n))
        assert s == (1 if n == 1 else 0)


def test_omega_and_divisor_count():
    assert omega(1) == 0
    assert omega(12) == 2
    assert omega(30030) == 6
    assert len(divisors(1)) == 1
    assert len(divisors(360)) == 24
    assert two_pow_omega(1) == 1
    assert two_pow_omega(12) == 4


def test_phi_star_multiplicative():
    # value on prime powers: p -> p-2, p^k -> p^(k-2) (p-1)^2
    assert phi_star(1) == 1
    assert phi_star(2) == 0
    assert phi_star(3) == 1
    assert phi_star(4) == 1
    assert phi_star(8) == 2
    assert phi_star(9) == 4
    assert phi_star(15) == 3
    for a, b in ((3, 8), (5, 9), (7, 16), (11, 25)):
        assert phi_star(a * b) == phi_star(a) * phi_star(b)


def test_phi_star_divisor_recursion():
    # phi(q) = sum over divisors d of phi_star(d): every character is
    # induced by exactly one primitive character
    for q in range(1, 300):
        assert sum(phi_star(d) for d in divisors(q)) == euler_phi(q)


def test_divisors_sorted_complete():
    for n in (1, 2, 12, 97, 360, 1024):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_sieves_match_pointwise():
    n = 3000
    om = omega_sieve(n)
    for k in range(1, n + 1):
        assert om[k] == omega(k)


def test_omega_sieve_at_its_edges():
    # the sieve steps over primes p <= sqrt(limit) and counts a cofactor
    # above 1 as one prime: check the smallest limits, and the limits
    # around p^k where a prime enters or leaves the stepped range
    limits = [0, 1, 2, 3, 4] + [p**k + d for p in (2, 3, 5, 7, 11, 31)
                                for k in (2, 3) for d in (-1, 0, 1)]
    want = [0] + [omega(k) for k in range(1, max(limits) + 1)]
    for limit in limits:
        om = omega_sieve(limit)
        assert om.dtype == np.uint8 and om.size == limit + 1, limit
        assert om.tolist() == want[:limit + 1], limit
    # a negative limit gives the empty array, before any isqrt
    assert omega_sieve(-1).size == 0


def test_omega_sieve_to_a_million():
    # every prime power p^k <= 10^6 (for p > 1000 the cofactor path, for
    # p <= 1000 the divided-out residual) and 2,000 random k
    limit = 10**6
    om = omega_sieve(limit)
    ks = []
    for p in prime_sieve(limit).tolist():
        pk = p
        while pk <= limit:
            ks.append(pk)
            pk *= p
    ks += np.random.default_rng(37).integers(1, limit + 1, 2000).tolist()
    assert [int(om[k]) for k in ks] == [omega(k) for k in ks]


def test_prime_sieve():
    ps = prime_sieve(100)
    assert list(ps[:10]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(ps) == 25
