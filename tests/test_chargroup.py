import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirmoment.arith import divisors, euler_phi, factorize, phi_star
from dirmoment.chargroup import (build_group, char_eval, classify,
                                 exact_primitive_char_sum,
                                 exact_root_of_unity_sum, gauss_sum,
                                 primitive_count, primitive_sum_lemma1,
                                 root_of_unity, signed_sum_eq21)


# ---------------------------------------------------------------------------
# group structure


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 36, 40, 72,
                               97, 120, 243, 256, 360])
def test_group_order_is_phi(q):
    G = build_group(q)
    assert G.group_order == euler_phi(q)
    assert len(G.labels()) == euler_phi(q)


def test_orders_multiply_to_group_order():
    for q in range(1, 120):
        G = build_group(q)
        prod = 1
        for d in G.orders:
            prod *= d
        assert prod == G.group_order


def test_dlog_roundtrip():
    # the exponent vector determines the unit: rebuild u from its dlogs
    for q in (3, 8, 15, 16, 45, 96, 105):
        G = build_group(q)
        seen = set()
        for u in range(1, q + 1):
            if math.gcd(u, q) != 1:
                assert G.dlog_vector(u) is None
                continue
            v = G.dlog_vector(u % q if q > 1 else 0)
            assert v is not None
            assert v not in seen
            seen.add(v)
        assert len(seen) == euler_phi(q)


def test_character_is_homomorphism():
    for q in (5, 8, 12, 16, 21, 32, 45):
        G = build_group(q)
        units = [u for u in range(1, q) if math.gcd(u, q) == 1] or [1]
        for chi in G.labels():
            for m in units[:6]:
                for n in units[:6]:
                    lhs = char_eval(G, chi, m * n)
                    rhs = char_eval(G, chi, m) * char_eval(G, chi, n)
                    assert abs(lhs - rhs) < 1e-12


def test_char_eval_vanishes_off_units():
    G = build_group(12)
    chi = G.labels()[1]
    for n in (0, 2, 3, 4, 6, 8, 9, 10):
        assert char_eval(G, chi, n) == 0


def test_label_index_roundtrip():
    for q in (1, 2, 7, 16, 40, 105):
        G = build_group(q)
        for i, chi in enumerate(G.labels()):
            assert G.label_index(chi) == i
            assert G.label_at(i) == chi


def test_orthogonality_rows():
    # sum over units of chi(u) is 0 unless chi is principal
    for q in (5, 8, 9, 12, 16, 21):
        G = build_group(q)
        for chi in G.labels():
            s = sum(char_eval(G, chi, u) for u in range(q)
                    if math.gcd(u, q) == 1)
            want = euler_phi(q) if chi == G.principal() else 0.0
            assert abs(s - want) < 1e-10


def test_orthogonality_columns():
    # sum over characters of chi(u) is 0 unless u = 1 (mod q)
    for q in (5, 8, 12, 15, 16):
        G = build_group(q)
        for u in range(1, q):
            if math.gcd(u, q) != 1:
                continue
            s = sum(char_eval(G, chi, u) for chi in G.labels())
            want = euler_phi(q) if u % q == 1 % q else 0.0
            assert abs(s - want) < 1e-10


# ---------------------------------------------------------------------------
# parity / conductor classification


def brute_parity(G, chi):
    v = char_eval(G, chi, G.q - 1) if G.q > 2 else 1.0
    return 0 if abs(v - 1.0) < 1e-9 else 1


def brute_conductor(G, chi):
    # smallest induced modulus: chi trivial on units congruent to 1 mod f
    for f in divisors(G.q):
        ok = True
        for u in range(1, G.q + 1):
            if math.gcd(u, G.q) != 1 or u % f != 1 % f:
                continue
            if abs(char_eval(G, chi, u) - 1.0) > 1e-9:
                ok = False
                break
        if ok:
            return f
    return G.q


def test_classification_against_brute_force():
    for q in range(1, 73):
        G = build_group(q)
        for chi in G.labels():
            par, cond, prim = classify(G, chi)
            assert par == brute_parity(G, chi)
            assert cond == brute_conductor(G, chi)
            assert prim == (cond == q)


def test_conductor_is_induced_modulus():
    for q in (8, 12, 16, 45, 48, 105):
        G = build_group(q)
        for chi in G.labels():
            f = chi.conductor
            assert G.is_induced_modulus(chi, f)
            for p, _ in factorize(f).factors:
                assert not G.is_induced_modulus(chi, f // p)


def test_primitive_count_matches_phi_star():
    for q in range(1, 200):
        G = build_group(q)
        assert primitive_count(G) == phi_star(q)
        assert sum(1 for chi in G.labels() if chi.primitive) == phi_star(q)


def test_parity_balanced_for_odd_q():
    # for q > 2 exactly half the characters are odd
    for q in (5, 7, 9, 12, 15, 16, 21):
        G = build_group(q)
        n_odd = sum(chi.parity for chi in G.labels())
        assert n_odd == euler_phi(q) // 2


# ---------------------------------------------------------------------------
# exact root-of-unity machinery


def test_root_of_unity_quarter_points():
    assert root_of_unity(0, 4) == 1
    assert root_of_unity(1, 4) == 1j
    assert root_of_unity(2, 4) == -1
    assert root_of_unity(3, 4) == -1j
    z = root_of_unity(1, 12)
    assert abs(z - cmath.exp(2j * cmath.pi / 12)) < 1e-15


def test_exact_root_of_unity_sum_detects_integers():
    # 1 + zeta_3 + zeta_3^2 = 0
    assert exact_root_of_unity_sum([1, 1, 1]) == 0
    # 2 + zeta_3 + zeta_3^2 = 1
    assert exact_root_of_unity_sum([2, 1, 1]) == 1
    # 1 + zeta_4 is not an integer
    assert exact_root_of_unity_sum([1, 1, 0, 0]) is None
    # 3 - zeta_6 counts: 3 + zeta_6^3 = 2
    assert exact_root_of_unity_sum([3, 0, 0, 1, 0, 0]) == 2
    assert exact_root_of_unity_sum([5]) == 5


@given(st.integers(2, 30), st.lists(st.integers(0, 5), min_size=1,
                                    max_size=30))
@settings(max_examples=200, deadline=None)
def test_exact_sum_agrees_with_float(den, counts):
    counts = (counts + [0] * den)[:den]
    got = exact_root_of_unity_sum(counts)
    approx = sum(c * cmath.exp(2j * cmath.pi * k / den)
                 for k, c in enumerate(counts))
    if got is None:
        # not an integer: float value must be visibly non-integral
        assert (abs(approx.imag) > 1e-9
                or abs(approx.real - round(approx.real)) > 1e-9)
    else:
        assert abs(approx - got) < 1e-9


# ---------------------------------------------------------------------------
# closed-form identities for primitive-character sums


def test_primitive_sum_closed_form_exact():
    for q in range(1, 61):
        G = build_group(q)
        for r in range(1, q + 1):
            if math.gcd(r, q) != 1:
                continue
            got = exact_primitive_char_sum(G, r % q if q > 1 else 0)
            assert got is not None
            assert got == primitive_sum_lemma1(q, r)


def test_primitive_sum_at_one_counts_characters():
    for q in (1, 3, 8, 12, 45):
        G = build_group(q)
        u = 1 % q if q > 1 else 0
        assert exact_primitive_char_sum(G, u) == phi_star(q)


def test_signed_pair_sum_exact():
    for q in (3, 4, 5, 8, 9, 12, 15, 16, 21, 24):
        G = build_group(q)
        cache = {}
        for m in range(1, 2 * q + 1):
            if math.gcd(m, q) != 1:
                continue
            for n in range(1, 2 * q + 1):
                if math.gcd(n, q) != 1:
                    continue
                u = m * pow(n, -1, q) % q
                for parity in (0, 1):
                    if (u, parity) not in cache:
                        cache[u, parity] = exact_primitive_char_sum(
                            G, u, parity=parity)
                    want = signed_sum_eq21(q, m, n, parity)
                    assert cache[u, parity] == want


def test_signed_pair_sum_pieces_are_integers():
    # each parity piece is Galois-stable, so despite the half-integer
    # formula shape both pieces are genuine integers and the two pieces
    # add up to the unrestricted closed form
    for q in (5, 8, 12, 13, 16, 21):
        for m in range(1, 2 * q + 1):
            if math.gcd(m, q) != 1:
                continue
            even = signed_sum_eq21(q, m, 1, 0)
            odd = signed_sum_eq21(q, m, 1, 1)
            assert even.denominator == 1
            assert odd.denominator == 1
            assert even + odd == primitive_sum_lemma1(q, m)


# ---------------------------------------------------------------------------
# Gauss sums


def test_gauss_sum_modulus_primitive():
    for q in range(1, 101):
        G = build_group(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            tau = gauss_sum(G, chi)
            assert abs(abs(tau) - math.sqrt(q)) < 1e-10


def test_gauss_sum_quadratic_values():
    # for the quadratic character mod an odd prime p the sum is sqrt(p)
    # (p = 1 mod 4) or i sqrt(p) (p = 3 mod 4)
    for p in (5, 13, 17, 29):
        G = build_group(p)
        quad = [chi for chi in G.labels()
                if chi.primitive and 2 * chi.exponents[0] % (p - 1) == 0
                and chi.exponents[0] != 0]
        assert len(quad) == 1
        tau = gauss_sum(G, quad[0])
        assert abs(tau - math.sqrt(p)) < 1e-10
    for p in (3, 7, 11, 19, 23):
        G = build_group(p)
        quad = [chi for chi in G.labels()
                if chi.primitive and 2 * chi.exponents[0] % (p - 1) == 0
                and chi.exponents[0] != 0]
        tau = gauss_sum(G, quad[0])
        assert abs(tau - 1j * math.sqrt(p)) < 1e-10


def test_gauss_sum_imprimitive_can_vanish():
    G = build_group(9)
    impr = [chi for chi in G.labels()
            if not chi.primitive and chi != G.principal()]
    assert impr
    for chi in impr:
        assert abs(gauss_sum(G, chi)) < 1e-12


# ---------------------------------------------------------------------------
# input validation


def test_build_group_rejects_bad_q():
    with pytest.raises(ValueError):
        build_group(0)
    with pytest.raises(ValueError):
        build_group(-5)


def test_label_rejects_bad_exponents():
    G = build_group(12)
    with pytest.raises(ValueError):
        G.label([0])
    with pytest.raises(ValueError):
        G.label([0, 0, 0])


@given(st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_angle_num_defines_character(q):
    G = build_group(q)
    chi = G.labels()[len(G.labels()) // 2]
    N = G.exponent
    for u in (1, q - 1 if q > 1 else 1, 2, 3):
        if math.gcd(u, q) != 1:
            continue
        num = G.angle_num(chi, u)
        assert num is not None
        assert 0 <= num < N
        want = char_eval(G, chi, u)
        assert abs(root_of_unity(num, N) - want) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 24, 45, 97, 384])
def test_residue_vectors_match_scalar(q):
    # angle_nums / char_values against angle_num / char_eval, exactly, for
    # every character and residue; q = 4 has the two4 component, 8, 16,
    # 24 and 384 the two_sign and two_five pair, 24, 45, 97 and 384 odd ones
    G = build_group(q)
    for chi in G.labels():
        nums = G.angle_nums(chi)
        vals = G.char_values(chi)
        assert nums.dtype == np.int64 and nums.shape == (q,)
        for u in range(q):
            num = G.angle_num(chi, u)
            assert nums[u] == (-1 if num is None else num)
            want = char_eval(G, chi, u)
            assert vals[u].real == want.real and vals[u].imag == want.imag
