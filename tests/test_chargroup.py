import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirmoment import chargroup, checks
from dirmoment.arith import (coprime_mask, divisors, euler_phi, factorize,
                             mobius, phi_star)
from dirmoment.chargroup import (_component, _powers,
                                 _primitive_root_mod_pe, _sub_axes,
                                 build_group,
                                 exact_primitive_char_sum,
                                 exact_root_of_unity_sum, gauss_sum,
                                 primitive_sum_lemma1,
                                 root_of_unity, signed_sum_eq21)
from dirmoment.spectra import _negated
from scalar_ref import angle_ref, char_ref, unit_exponents


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
    # the exponent vector determines the unit: each unit is rebuilt from
    # one vector, as the product of the generators' powers, and the
    # group's label of the unit unravels to that vector
    for q in (3, 8, 15, 16, 45, 96, 105):
        G = build_group(q)
        exps = unit_exponents(q)
        assert sorted(exps) == [u for u in range(q) if math.gcd(u, q) == 1]
        lab = G.residue_labels()
        for u, t in exps.items():
            assert np.unravel_index(lab[u], G.orders) == t


def _power_loop(gen, order, pe):
    # the plain loop over the group order: gen^j mod pe for j = 0..order-1
    out, x = [], 1
    for _ in range(order):
        out.append(x)
        x = x * gen % pe
    return out


def test_powers_match_power_loop():
    # the doubling numpy powers against the loop, for every prime power up
    # to 2000 and for one prime above 10^6, on the generators of the axes:
    # 3 mod 4, 5 mod 2^e for e >= 3, and the primitive roots of odd p^e
    pes = [(p, e) for p in range(2, 2001)
           if all(p % d for d in range(2, math.isqrt(p) + 1))
           for e in range(1, 12) if p ** e <= 2000]
    for p, e in pes + [(1_000_003, 1)]:
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            gen, order = (3, 2) if e == 2 else (5, pe // 4)
        else:
            gen, order = _primitive_root_mod_pe(p, e), pe // p * (p - 1)
        got = _powers(gen, order, pe)
        assert got.dtype == np.int64
        assert got.tolist() == _power_loop(gen, order, pe), pe


def test_component_rejects_wrong_order():
    # 3 generates (Z/7)* with order 6; claiming order 3 must fail
    with pytest.raises(ArithmeticError):
        _component(7, 7, 1, 7, 3, 3)


def test_character_is_homomorphism():
    for q in (5, 8, 12, 16, 21, 32, 45):
        G = build_group(q)
        units = [u for u in range(1, q) if math.gcd(u, q) == 1] or [1]
        for chi in G.labels():
            for m in units[:6]:
                for n in units[:6]:
                    lhs = char_ref(G, chi, m * n)
                    rhs = char_ref(G, chi, m) * char_ref(G, chi, n)
                    assert abs(lhs - rhs) < 1e-12


def test_orthogonality_rows():
    # sum over units of chi(u) is 0 unless chi is principal
    for q in (5, 8, 9, 12, 16, 21):
        G = build_group(q)
        for chi in G.labels():
            s = sum(char_ref(G, chi, u) for u in range(q)
                    if math.gcd(u, q) == 1)
            want = euler_phi(q) if chi == G.label_at(0) else 0.0
            assert abs(s - want) < 1e-10


def test_orthogonality_columns():
    # sum over characters of chi(u) is 0 unless u = 1 (mod q)
    for q in (5, 8, 12, 15, 16):
        G = build_group(q)
        for u in range(1, q):
            if math.gcd(u, q) != 1:
                continue
            s = sum(char_ref(G, chi, u) for chi in G.labels())
            want = euler_phi(q) if u % q == 1 % q else 0.0
            assert abs(s - want) < 1e-10


# ---------------------------------------------------------------------------
# parity / conductor classification


def brute_parity(G, chi):
    v = char_ref(G, chi, G.q - 1) if G.q > 2 else 1.0
    return 0 if abs(v - 1.0) < 1e-9 else 1


def brute_conductor(G, chi):
    # smallest induced modulus: chi trivial on units congruent to 1 mod f
    for f in divisors(G.q):
        ok = True
        for u in range(1, G.q + 1):
            if math.gcd(u, G.q) != 1 or u % f != 1 % f:
                continue
            if abs(char_ref(G, chi, u) - 1.0) > 1e-9:
                ok = False
                break
        if ok:
            return f
    return G.q


def test_classification_against_brute_force():
    # label() reads the per-axis tables one character at a time; the
    # broadcast grids behind labels() are checked below.  Label k sits at
    # position k of the lexicographic exponent grid
    for q in range(1, 73):
        G = build_group(q)
        for k, exps in enumerate(product(*(range(d) for d in G.orders))):
            chi = G.label(exps)
            assert G.label_at(k) == chi
            assert chi.parity == brute_parity(G, chi)
            assert chi.conductor == brute_conductor(G, chi)
            assert chi.primitive == (chi.conductor == q)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 12, 15, 16, 32, 45, 64, 96,
                               105, 120, 160])
def test_label_grids_match_brute_force(q):
    # the broadcast per-axis tables against char_ref, label by label;
    # 32, 64 and 160 couple the <-1> and <5> axes of 2^e
    G = build_group(q)
    par = G.parity_grid()
    cond = G.conductor_grid()
    assert par.shape == cond.shape == (G.group_order,)
    for i, chi in enumerate(G.labels()):
        assert par[i] == brute_parity(G, chi)
        assert cond[i] == brute_conductor(G, chi)


def _is_induced_modulus(G, chi, f):
    # chi is trivial on the units u = 1 (mod f): it factors through f
    ones = G.unit_residues() % f == 1 % f
    return not np.any(G.angle_nums(chi)[ones])


def test_conductor_is_induced_modulus():
    for q in (8, 12, 16, 45, 48, 105):
        G = build_group(q)
        for chi in G.labels():
            f = chi.conductor
            assert _is_induced_modulus(G, chi, f)
            for p, _ in factorize(f):
                assert not _is_induced_modulus(G, chi, f // p)


def test_primitive_count_matches_phi_star():
    for q in range(1, 200):
        G = build_group(q)
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


@given(st.integers(1, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_exact_sum_agrees_with_float(den, data):
    # counts drawn as one value per class of exponents a with one
    # gcd(a, den): the sum is sum over d | den of c_d mu(den/d), and the
    # float sum agrees; one entry changed in a class of two or more
    # members gives None
    per_class = {d: data.draw(st.integers(0, 5)) for d in divisors(den)}
    counts = [per_class[math.gcd(a, den)] for a in range(den)]
    got = exact_root_of_unity_sum(counts)
    assert got == sum(c * mobius(den // d) for d, c in per_class.items())
    approx = sum(c * cmath.exp(2j * cmath.pi * k / den)
                 for k, c in enumerate(counts))
    assert abs(approx - got) < 1e-9
    shared = [a for a in range(den) if euler_phi(den // math.gcd(a, den)) > 1]
    if shared:
        a = data.draw(st.sampled_from(shared))
        counts[a] += data.draw(st.sampled_from([-1, 1]))
        assert exact_root_of_unity_sum(counts) is None


def test_exact_sum_rejects_cancellation_across_classes():
    # e(1/3) + e(5/6) = 0, but exponent 2 counts once in the class
    # {2, 4} and exponent 5 once in the class {1, 5}
    assert exact_root_of_unity_sum([0, 0, 1, 0, 0, 1]) is None


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


def test_primitive_char_sum_counts_match_angle_num_loop(monkeypatch):
    # the counts of angles that exact_primitive_char_sum reduces, against
    # the literal loop over the characters with angle_ref, at every unit
    # mod q <= 40 and every parity filter
    monkeypatch.setattr(chargroup, "exact_root_of_unity_sum", list)
    for q in range(1, 41):
        G = build_group(q)
        for u in range(q):
            if math.gcd(u, q) != 1:
                continue
            for parity in (None, 0, 1):
                want = [0] * G.exponent
                for chi in G.labels():
                    if chi.primitive and parity in (None, chi.parity):
                        want[angle_ref(G, chi, u)] += 1
                assert exact_primitive_char_sum(G, u, parity) == want, (
                    q, u, parity)


@pytest.mark.parametrize("q, conductor, uneven", [(12, 1, False),
                                                  (15, 5, True)])
def test_primitive_sum_flags_a_misread_conductor(monkeypatch, q, conductor,
                                                 uneven):
    # one imprimitive character read as primitive: a real one (the
    # trivial character mod 12) moves each enumerated sum by an integer;
    # one with non-real values (order 4, conductor 5, mod 15) leaves the
    # angle counts uneven on a gcd class, so the enumerated side is None
    G = build_group(q)
    k = next(k for k, chi in enumerate(G.labels())
             if chi.conductor == conductor
             and G.char_values(chi).imag.any() == uneven)
    misread = G.conductor_grid().copy()
    misread[k] = q
    real = chargroup.CharacterGroup.conductor_grid
    monkeypatch.setattr(chargroup.CharacterGroup, "conductor_grid",
                        lambda G: misread if G.q == q else real(G))
    r = checks.primitive_sum(q)
    assert r.failures and {f["q"] for f in r.failures} == {q}
    assert any(f["enumerated"] is None for f in r.failures) == uneven


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
            if not chi.primitive and chi != G.label_at(0)]
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
    # the array numerators at a unit's label against the scalar value
    G = build_group(q)
    chi = G.labels()[len(G.labels()) // 2]
    N = G.exponent
    nums, lab = G.angle_nums(chi), G.residue_labels()
    for u in (1, q - 1 if q > 1 else 1, 2, 3):
        if math.gcd(u, q) != 1:
            continue
        num = int(nums[lab[u % q]])
        assert 0 <= num < N
        want = char_ref(G, chi, u)
        assert abs(root_of_unity(num, N) - want) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 24, 45, 97, 384])
def test_residue_vectors_match_scalar(q):
    # angle_nums / char_values against angle_ref / char_ref, exactly, for
    # every character and unit, in label order; q = 4 has the mod-4
    # axis, 8, 16, 24 and 384 the sign and <5> pair, 24, 45, 97 and 384
    # odd ones
    G = build_group(q)
    res = G.unit_residues().tolist()
    for chi in G.labels():
        nums = G.angle_nums(chi)
        vals = G.char_values(chi)
        assert nums.dtype == np.int64 and nums.shape == (G.group_order,)
        assert vals.shape == (G.group_order,)
        for k, u in enumerate(res):
            assert nums[k] == angle_ref(G, chi, u)
            want = char_ref(G, chi, u)
            assert vals[k].real == want.real and vals[k].imag == want.imag


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 12, 16, 24, 45, 97, 384, 1009])
def test_inverse_table_exact(q):
    # the inverse on the label grid (component exponents negated, the
    # helper that serves the pair tables and chibar in the transform) maps
    # label k to the label of the inverse unit, checked by multiplying the
    # two residues mod q
    G = build_group(q)
    units = G.unit_residues()
    neg = _negated(G, np.arange(G.group_order))
    assert neg.shape == (G.group_order,)
    assert np.all(units * units[neg] % q == 1 % q)


def _axis_residues(q):
    # per label axis, in the order of the group's axes: (p^e, f) with
    # f(t) the residue mod p^e of the axis generator to the power t, from
    # Python pow alone; the 2^e pair as (-1)^s and 5^j, and an odd p^e as
    # one axis per order n in _sub_axes(d), generated by g^(d/n), with g
    # the primitive root and d = p^(e-1)(p-1)
    axes = []
    for p, e in factorize(q):
        pe = p ** e
        if p == 2 and e == 2:
            axes.append((pe, lambda t: pow(3, t, 4)))
        elif p == 2 and e >= 3:
            axes.append((pe, lambda s, pe=pe: (-1) ** s % pe))
            axes.append((pe, lambda j, pe=pe: pow(5, j, pe)))
        elif p > 2:
            g, d = _primitive_root_mod_pe(p, e), pe // p * (p - 1)
            for n in _sub_axes(d):
                axes.append((pe, lambda t, h=pow(g, d // n, pe), pe=pe:
                             pow(h, t, pe)))
    return axes


@pytest.mark.parametrize(
    "q", [1, 2, 4, 8, 12, 15, 16, 24, 45, 97, 384, 1009, 2999, 8997, 10201])
def test_unit_residues_in_label_order(q):
    # each unit once, and entry k has the exponents of label k: its residue
    # mod each p^e is the axis generator's power, read off with Python
    # pow, not through the group's own maps; q = 4 has the mod-4 axis, 8,
    # 16, 24 and 384 the sign and <5> pair, whose product (-1)^s 5^j is
    # checked mod 2^e; 2999 and 8997 = 3 * 2999 split 2998 into 2 * 1499,
    # and 10201 = 101^2 splits 10100 into 100 and the p-power axis 101
    G = build_group(q)
    res = G.unit_residues()
    assert res.dtype == np.int64 and not res.flags.writeable
    assert sorted(res.tolist()) == [u for u in range(q)
                                    if math.gcd(u, q) == 1]
    axes = _axis_residues(q)
    assert len(axes) == len(G.orders)
    for k, chi in enumerate(G.labels()):
        u = int(res[k])
        want = {}
        for (pe, f), t in zip(axes, chi.exponents):
            want[pe] = want.get(pe, 1) * f(t) % pe
        assert all(u % pe == w for pe, w in want.items()), (q, k)


@pytest.mark.parametrize("q", [2999, 10201])
def test_split_labels_are_the_cyclic_exponent_mod_each_order(q):
    # mod a prime power with primitive root g and group order d, the
    # character chi_t(g^k) = e(t k / d) of the one cyclic axis has the
    # label (t mod n_j)_j on the Good-Thomas components: its angles and
    # values at every unit g^k are those of e(t k / d), exactly
    G = build_group(q)
    ((p, e),) = factorize(q)
    g, d = _primitive_root_mod_pe(p, e), G.group_order
    assert len(G.orders) == 2 and math.prod(G.orders) == d
    k = np.arange(d)
    at = G.residue_labels()[[pow(g, int(j), q) for j in k]]
    rng = np.random.default_rng(q)
    for t in [0, 1, d // 2, d - 1, *rng.integers(0, d, 12).tolist()]:
        chi = G.label([t % n for n in G.orders])
        want = t * k % d
        assert G.angle_nums(chi)[at].tolist() == want.tolist(), t
        assert G.char_values(chi)[at].tolist() == [
            root_of_unity(int(a), d) for a in want], t


def test_split_prime_power_classification():
    # 10201 = 101^2: the order-100 component carries the parity and the
    # conductor part 101, the order-101 one the part 101^2; the primitive
    # count is phi*(q), and conductor_grid agrees with brute force on
    # labels of each conductor and on a random sample
    q = 10201
    G = build_group(q)
    assert G.orders == (100, 101)
    cond = G.conductor_grid()
    assert int(np.sum(cond == q)) == phi_star(q)
    rng = np.random.default_rng(0)
    sample = [0, 1, 50, 101, 2 * 101 + 7, *rng.integers(0, G.group_order,
                                                         6).tolist()]
    assert {int(cond[i]) for i in sample} == {1, 101, q}
    for i in sample:
        chi = G.label_at(i)
        assert cond[i] == chi.conductor == brute_conductor(G, chi), i
        assert G.parity_grid()[i] == chi.parity == brute_parity(G, chi), i


def test_grid_flat_index_is_gone():
    # unit_residues is the one map from the label grid to the residues,
    # residue_labels its inverse
    G = build_group(12)
    assert not hasattr(G, "grid_flat_index")
    assert not hasattr(G, "coprime_mask")
    assert not hasattr(G.components[0], "dlog")


@pytest.mark.parametrize("q", [1, 2, 12, 30030, 9699690 // 17])
def test_residue_labels_mark_non_units(q):
    # -1 exactly where gcd(u, q) > 1 (index 0 is a unit only for q = 1),
    # and the inverse of unit_residues on the units
    G = build_group(q)
    lab = G.residue_labels()
    assert lab.dtype == np.int64 and not lab.flags.writeable
    assert ((lab < 0) == (np.gcd(np.arange(q), q) > 1)).all()
    assert lab[G.unit_residues()].tolist() == list(range(G.group_order))


@pytest.mark.parametrize("q", [1, 2, 12, 30030, 9699690 // 17])
def test_coprime_mask_matches_gcd(q):
    # one strided clear per prime factor against gcd(k, q) == 1 over 0..n
    for n in (0, q - 1, 3 * q + 2):
        mask = coprime_mask(q, n)
        assert mask.dtype == bool
        assert mask.tolist() == [math.gcd(k, q) == 1 for k in range(n + 1)]
