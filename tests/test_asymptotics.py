import math
import tracemalloc

import numpy as np
import pytest

from dirmoment import asymptotics, lfunc
from dirmoment.arith import euler_phi, phi_star, two_pow_omega
from dirmoment.asymptotics import (error_sum_E, lemma3_count, lemma4_check,
                                   lemma5_sums, m_direct, m_reparametrized,
                                   theorem_main_term)
from dirmoment.chargroup import build_group
from dirmoment.kernel import w_eval_batch
from dirmoment.lfunc import _coprime_pairs, abc_values, kernel_weights



# ---------------------------------------------------------------------------
# closed-form main term


def test_theorem_main_term_values():
    assert theorem_main_term(1) == 0.0
    # frozen regression value, q = 5:
    # (3 / 2 pi^2) (4/5)^3 / (6/5) * log(5)^4
    assert theorem_main_term(5) == pytest.approx(0.4350880332771649,
                                                 rel=1e-14)
    direct = (3 / (2 * math.pi**2)) * (0.8**3 / 1.2) * math.log(5) ** 4
    assert theorem_main_term(5) == pytest.approx(direct, rel=1e-14)


def test_theorem_main_term_grows():
    vals = [theorem_main_term(q) for q in (11, 101, 1009, 10007)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        theorem_main_term(0)


# ---------------------------------------------------------------------------
# diagonal sum: literal quadruples vs. divisor reparametrization


@pytest.mark.parametrize("q", [5, 8, 9, 12])
def test_diagonal_reorganization_identity(q):
    lhs = m_direct(q)
    rhs = m_reparametrized(q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# Frozen regression values: m_reparametrized(q) as computed before its S
# sums read both parities in one slice and its sieve stepped only over
# the primes up to sqrt(z), printed with %.17g.  m_direct reaches small q
# only; these catch a sum that is wrong the same way on every run.
FROZEN_M = {
    1009: 24781.198291364581,
    100003: 19648470.22057157,
    999983: 413847042.30023348,
}


@pytest.mark.parametrize("q", sorted(FROZEN_M))
def test_m_reparametrized_matches_frozen_values(q):
    got, want = m_reparametrized(q), FROZEN_M[q]
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_diagonal_brute_force_tiny():
    # q = 5: z_floor = 2, so the quadruple set is tiny; check against a
    # four-deep literal loop written independently of either routine
    q = 5
    kw = kernel_weights(q)
    z = kw.z_floor
    xs = math.pi * np.arange(1, z + 1) / q
    w0, w1 = w = np.zeros((2, z + 1))  # index 0 zero, as in kprod
    w_eval_batch(w[:, 1:], xs)
    total = 0.0
    for a in range(1, z + 1):
        for b in range(1, z + 1):
            if a * b > z or math.gcd(a * b, q) != 1:
                continue
            for c in range(1, z + 1):
                for d in range(1, z + 1):
                    if c * d > z or math.gcd(c * d, q) != 1:
                        continue
                    if a * c != b * d:
                        continue
                    total += ((w0[a * b] * w0[c * d]
                               + w1[a * b] * w1[c * d])
                              / math.sqrt(a * b * c * d))
    want = 3 / 2 * total
    assert m_direct(q) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("q", [1, 5, 12, 97])
def test_coprime_pairs_are_the_ordered_pairs(q):
    # the unordered pairs plus their swaps: every ordered coprime pair of
    # the range exactly once, at ranges holding squares on either end
    for m, lo in ((1, 0), (100, 0), (100, 49), (144, 0), (144, 12),
                  (600, 299), (600, 600)):
        a, b = _coprime_pairs(q, lo, m)
        got = list(zip(a.tolist(), b.tolist()))
        want = {(x, y) for x in range(1, m + 1) for y in range(1, m // x + 1)
                if x * y > lo and math.gcd(x * y, q) == 1}
        assert len(got) == len(want) and set(got) == want, (m, lo)


@pytest.mark.parametrize("q", [5, 12, 97, 163])
def test_m_direct_is_the_fsum_over_ordered_quadruples(q):
    # the quadruple sum over ordered head pairs from a gcd loop, rounded
    # once: m_direct gives the same float, whatever its pair order
    kw = kernel_weights(q, head_only=True)
    z = kw.z_floor
    kp0, kp1 = kw.kprod
    pairs = [(a, b) for a in range(1, z + 1) for b in range(1, z // a + 1)
             if math.gcd(a * b, q) == 1]
    terms = [kp0[a * b] * kp0[c * d] + kp1[a * b] * kp1[c * d]
             for a, b in pairs for c, d in pairs if a * c == b * d]
    assert m_direct(q) == phi_star(q) / 2.0 * math.fsum(terms)


def test_m_direct_refuses_before_any_work(monkeypatch):
    # the pair count behind the cap comes before the kernel table and the
    # pair enumeration, so neither runs when the cap refuses
    def fail(*args, **kwargs):
        raise AssertionError("m_direct built a table before its cap check")

    monkeypatch.setattr(asymptotics, "_coprime_pairs", fail)
    monkeypatch.setattr(asymptotics, "kernel_weights", fail)
    with pytest.raises(ValueError) as err:
        m_direct(1000003)
    assert str(err.value) == (
        "direct quadruple enumeration at q = 1000003 needs 4.41e+13 checks;"
        " use the reparametrized form")


def test_lemma3_count_refuses_before_any_enumeration(monkeypatch):
    # the box z1 = 1e8 holds about 10^9 pairs: the pair cap refuses it
    # before the enumerator starts, not after the lists are built
    def fail(*args, **kwargs):
        raise AssertionError("lemma3_count enumerated pairs past the cap")

    monkeypatch.setattr(lfunc, "_coprime_pair_chunks", fail)
    with pytest.raises(ValueError) as err:
        lemma3_count(5, 1e8, 2)
    assert str(err.value) == (
        "naive pair enumeration would need ~4.02e+09 entries; use "
        "spectra.compute_spectrum or fourth_moment at this modulus")


# ---------------------------------------------------------------------------
# dyadic quadruple counts


def brute_lemma3(k, z1, z2):
    def pairs(z):
        out = []
        for a in range(1, int(2 * z) + 1):
            for b in range(1, int(2 * z) + 1):
                if z <= a * b < 2 * z and math.gcd(a * b, k) == 1:
                    out.append((a, b))
        return out

    p1 = pairs(z1)
    p2 = pairs(z2)
    n = 0
    for a, b in p1:
        for c, d in p2:
            ac, bd = a * c, b * d
            if ac != bd and ((ac - bd) % k == 0 or (ac + bd) % k == 0):
                n += 1
    return n


@pytest.mark.parametrize("k,z1,z2", [(1, 4, 4), (2, 4, 4), (3, 4, 6),
                                     (5, 4, 4), (7, 8, 4), (12, 6, 6),
                                     (6, 2.5, 3.7), (5, 3.5, 2.25),
                                     (1, 7.1, 4.9)])
def test_lemma3_matches_brute_force(k, z1, z2):
    assert lemma3_count(k, z1, z2).count == brute_lemma3(k, z1, z2)


def test_lemma3_frozen_values():
    # regression values measured once from the exact counter
    assert lemma3_count(5, 4, 4).count == 44
    assert lemma3_count(1, 8, 8).count == 812


def test_lemma3_large_k_empty():
    # k > 16 z1 z2 forces ac = bd whenever ac = +-bd (mod k), so the
    # off-diagonal count is exactly zero
    r = lemma3_count(97, 2, 2)
    assert 97 > 16 * 2 * 2
    assert r.count == 0
    r = lemma3_count(1000003, 7, 8)
    assert r.count == 0


def test_lemma3_envelope_positive():
    r = lemma3_count(5, 4, 4)
    assert r.envelope == pytest.approx((16 / 5) * math.log(16) ** 3)
    with pytest.raises(ValueError):
        lemma3_count(0, 4, 4)
    with pytest.raises(ValueError):
        lemma3_count(5, 1, 4)


# ---------------------------------------------------------------------------
# coprime harmonic sums


def test_lemma4_error_within_envelope():
    for q in (1, 2, 6, 12, 30, 60):
        for x in (1e2, 1e3, 1e4):
            r = lemma4_check(q, x)
            assert r.error <= r.envelope, (q, x, r)


def test_lemma4_q1_is_plain_harmonic():
    r = lemma4_check(1, 1e3)
    assert r.lhs == pytest.approx(
        math.fsum(1.0 / n for n in range(1, 1001)), rel=1e-15)
    assert r.prime_log_sum == 0.0
    assert r.rhs == pytest.approx(math.log(1e3) + 0.5772156649015329,
                                  rel=1e-12)


def test_lemma4_rejects():
    with pytest.raises(ValueError):
        lemma4_check(0, 100)
    with pytest.raises(ValueError):
        lemma4_check(5, 1.0)


# ---------------------------------------------------------------------------
# 2^omega sums


def test_lemma5_small_brute_force():
    r = lemma5_sums(12, 50.0)
    want1 = math.fsum(two_pow_omega(n) / n for n in range(1, 13)
                      if math.gcd(n, 12) == 1)
    want2 = math.fsum(two_pow_omega(n) / n * math.log(50.0 / n) ** 2
                      for n in range(1, 51) if math.gcd(n, 12) == 1)
    assert r.sum1 == pytest.approx(want1, rel=1e-13)
    assert r.sum2 == pytest.approx(want2, rel=1e-13)


def test_lemma5_q1():
    r = lemma5_sums(1, 100.0)
    assert r.sum1 == 1.0
    assert r.ratio2 == r.sum2 / r.main2


def test_lemma5_rejects():
    with pytest.raises(ValueError):
        lemma5_sums(100, 5.0)  # x below sqrt(q)
    with pytest.raises(ValueError):
        lemma5_sums(1, 2.0)


# ---------------------------------------------------------------------------
# measured off-diagonal remainder


def test_error_sum_small_q():
    for q in (5, 12, 45):
        r = error_sum_E(q)
        assert r.envelope == pytest.approx(q * math.log(q) ** 3)
        # remainder is error-sized: far below the envelope at desk scale
        assert abs(r.e_measured) < 0.05 * r.envelope
        assert r.e_measured == pytest.approx(r.b_sq_sum - r.m_value,
                                             rel=1e-12, abs=1e-15)


def test_error_sum_head_matches_per_character_b():
    # error_sum_E shares the per-character head sum with abc_values, so
    # its B^2 total is the same float, bit for bit; at 179 and 1009 the
    # rows of each parity span several blocks
    for q in (5, 12, 45, 179, 1009):
        G = build_group(q)
        kw = kernel_weights(q)
        b_sq = math.fsum(abc_values(G, chi, weights=kw).b_value ** 2
                         for chi in G.labels() if chi.primitive)
        assert error_sum_E(q).b_sq_sum == b_sq


@pytest.mark.parametrize("q", [13, 163, 512, 1009])
def test_error_sum_equals_the_sum_over_every_character(q):
    # error_sum_E sums one character per conjugate class and counts a
    # non-real class twice: the same float as the exact sum of B^2 over
    # every primitive chi, each B computed afresh
    G = build_group(q)
    kw = kernel_weights(q)
    b_sq = []
    for chi in G.labels():
        if chi.primitive:
            lfunc._class_values.cache_clear()
            b_sq.append(abc_values(G, chi, weights=kw).b_value ** 2)
    r = error_sum_E(q)
    assert r.b_sq_sum == math.fsum(b_sq)
    assert r.e_measured == math.fsum(b_sq) - m_reparametrized(q)


def test_error_sum_scratch_does_not_grow_with_the_characters():
    # error_sum_E forms one class's head terms at a time (lfunc._class_sums):
    # the two complex gathers (16 bytes an entry), their real products and
    # terms and the arrays of one _exact_sum pass (8 bytes or less an
    # entry), about 80 bytes a head pair.  Besides those, it holds about
    # 350 bytes per character: its label on the group error_sum_E builds
    # (about 220), B in the class store (about 110: a key, a 1-tuple, a
    # float and a dict slot per class) and B^2 as a float in a list and
    # in an array.  And it holds the head kernel table and the sums of
    # m_reparametrized (a few z_floor-length arrays on top of the
    # kernel's fixed scratch).  Nothing grows with phi* times the head
    # pairs n: the terms held whole would take 8 phi* n bytes, 0.3 MiB at
    # q = 179 and 13 MiB at 1009 (n = 211 and 1623), before their gathers.
    # The group and the pair set in the class store, whose head rows the
    # class sums read, are built before: a first call fills the store,
    # and only its sums are cleared
    for q in (179, 1009):
        G = build_group(q)
        G.char_values(G.labels()[1])
        error_sum_E(q)
        store = lfunc._class_values(q)
        store["abc"].clear()
        z, n = store["weights"].z_floor, store["pairs"][1]
        bound = 96 * n + 400 * G.group_order + 128 * z + (128 << 10)
        tracemalloc.start()
        try:
            error_sum_E(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (q, peak, bound)


@pytest.mark.parametrize("fn", [error_sum_E, m_direct, m_reparametrized],
                         ids=lambda fn: fn.__name__)
def test_modulus_out_of_range_is_refused_at_once(fn):
    # a modulus build_group refuses is refused before the first q-length
    # array (a mask, a kernel table or a head table; 160 MB as float64)
    q = 20_000_003
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the residue table"):
            fn(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_error_sum_consistent_with_reparametrized():
    q = 15
    kw = kernel_weights(q)
    r = error_sum_E(q)
    assert r.m_value == pytest.approx(
        m_reparametrized(q, weights=kw), rel=1e-14)
    with pytest.raises(ValueError):
        error_sum_E(2)
