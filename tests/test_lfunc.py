import math

import mpmath as mp
import numpy as np
import pytest

from dirmoment.chargroup import build_group, char_eval
from dirmoment.kernel import KernelConfig
from dirmoment.lfunc import (abc_values, hurwitz_zeta, kernel_weights,
                             l_half_oracle, truncation_bound)

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# Hurwitz zeta on the critical strip segment


def test_hurwitz_against_mpmath():
    worst = 0.0
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for a in (0.04, 0.2, 0.5, 1.0, 1.75, 3.2, 9.5, 40.0):
            got = hurwitz_zeta(s, a)
            ref = float(mp.zeta(s, a))
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst < 1e-12


def test_hurwitz_riemann_special_case():
    # zeta(1/2, 1) is the Riemann zeta value at the central point
    assert abs(hurwitz_zeta(0.5, 1.0) - (-1.4603545088095868)) < 1e-13


def test_hurwitz_shift_recursion():
    # zeta(s, a) = zeta(s, a+1) + a^(-s)
    for s in (0.3, 0.5, 0.8):
        for a in (0.1, 0.7, 2.5):
            lhs = hurwitz_zeta(s, a)
            rhs = hurwitz_zeta(s, a + 1.0) + a ** (-s)
            assert abs(lhs - rhs) < 1e-13


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, -2.0)


# ---------------------------------------------------------------------------
# central-value oracle


def test_oracle_beta_constant():
    # the odd primitive character mod 4 gives the alternating sum
    # 1 - 1/sqrt(3) + 1/sqrt(5) - ...
    G = build_group(4)
    chi = [c for c in G.labels() if c.primitive][0]
    val = l_half_oracle(G, chi)
    assert abs(val.imag) < 1e-13
    assert abs(val.real - 0.66769145718960918) < 1e-12


def test_oracle_conjugate_symmetry():
    # L(1/2, conj(chi)) is the conjugate of L(1/2, chi)
    G = build_group(7)
    prim = [c for c in G.labels() if c.primitive]
    by_exp = {c.exponents: c for c in prim}
    for chi in prim:
        conj = by_exp[tuple((-e) % d for e, d in zip(chi.exponents,
                                                     G.orders))]
        a = l_half_oracle(G, chi)
        b = l_half_oracle(G, conj)
        assert abs(a - b.conjugate()) < 1e-12


def test_oracle_quadratic_real():
    for q in (5, 8, 13, 17):
        G = build_group(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            order = 1
            z = chi.exponents
            while any(order * e % d for e, d in zip(z, G.orders)):
                order += 1
            if order != 2:
                continue
            val = l_half_oracle(G, chi)
            assert abs(val.imag) < 1e-12


def test_oracle_matches_scalar_loop():
    # one Hurwitz table per modulus and vectorised character values give
    # the same products as the scalar loop, and fsum does not depend on
    # their order, so the value is the same float
    for q in (5, 12, 45, 97):
        G = build_group(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            re, im = [], []
            for a in range(1, q):
                z = char_eval(G, chi, a)
                hz = hurwitz_zeta(0.5, a / q)
                re.append(z.real * hz)
                im.append(z.imag * hz)
            want = complex(math.fsum(re), math.fsum(im)) / math.sqrt(q)
            assert l_half_oracle(G, chi) == want


def test_oracle_requires_primitive():
    G = build_group(9)
    impr = [c for c in G.labels() if not c.primitive][0]
    with pytest.raises(ValueError):
        l_half_oracle(G, impr)
    with pytest.raises(ValueError):
        l_half_oracle(build_group(1), build_group(1).principal())


# ---------------------------------------------------------------------------
# truncation and kernel weights


def test_truncation_bound_scales_linearly():
    cfg = KernelConfig()
    for q in (3, 10, 100, 1000):
        m = truncation_bound(q, cfg)
        assert m >= 1
        assert m <= cfg.x_zero * q / math.pi
    assert truncation_bound(200, cfg) >= 2 * truncation_bound(100, cfg) - 2


def test_kernel_weights_structure():
    cfg = KernelConfig()
    kw = kernel_weights(12, cfg)
    assert kw.q == 12
    assert kw.m_eff == truncation_bound(12, cfg)
    for par in (0, 1):
        w = kw.w[par]
        kp = kw.kprod[par]
        assert len(w) == kw.m_eff + 1
        assert w[0] == 0.0 and kp[0] == 0.0
        for m in (1, 2, 5, kw.m_eff):
            assert kp[m] == pytest.approx(w[m] / math.sqrt(m), rel=1e-14,
                                          abs=0.0)


def test_kernel_weights_positive_decreasing():
    # checked above the quadrature noise floor only: the last few entries
    # before the hard cutoff are ~1e-19 and dominated by roundoff
    kw = kernel_weights(30, KernelConfig())
    for par in (0, 1):
        w = kw.w[par][1:]
        head = w[w > 1e-12]
        assert len(head) > 100
        assert np.all(head > 0)
        assert np.all(np.diff(head) < 0)


# ---------------------------------------------------------------------------
# smoothed functional equation vs. the oracle


def test_central_value_matches_oracle():
    # |L(1/2, chi)|^2 = 2 A(chi) for primitive characters: the smoothing
    # kernel is built exactly so that this holds up to the truncation tail
    cfg = KernelConfig()
    worst = 0.0
    for q in (3, 4, 5, 7, 8, 9, 11, 12, 13, 16):
        G = build_group(q)
        kw = kernel_weights(q, cfg)
        for chi in G.labels():
            if not chi.primitive:
                continue
            cv = abc_values(G, chi, cfg, weights=kw, with_oracle=True)
            lhs = abs(cv.l_oracle) ** 2
            rhs = 2.0 * cv.a_value
            rel = abs(lhs - rhs) / abs(lhs)
            worst = max(worst, rel)
    assert worst < 1e-6, worst


def test_abc_matches_scalar_loop():
    # A, B, C against a double loop over coprime (a, b) with scalar
    # character values; both sides are fsums of the same terms up to the
    # rounding of each term
    cfg = KernelConfig()
    for q in (5, 12, 45):
        G = build_group(q)
        kw = kernel_weights(q, cfg)
        for chi in G.labels():
            tab = [char_eval(G, chi, u) for u in range(q)]
            kp = kw.kprod[chi.parity]
            head, tail = [], []
            for a in range(1, kw.m_eff + 1):
                if math.gcd(a, q) != 1:
                    continue
                for b in range(1, kw.m_eff // a + 1):
                    if math.gcd(b, q) == 1:
                        term = (tab[a % q] * tab[b % q].conjugate()).real
                        part = head if a * b <= kw.z_floor else tail
                        part.append(term * kp[a * b])
            cv = abc_values(G, chi, cfg, weights=kw)
            assert abs(cv.b_value - math.fsum(head)) <= 1e-14
            assert abs(cv.c_value - math.fsum(tail)) <= 1e-14
            assert abs(cv.a_value - math.fsum(head + tail)) <= 1e-14


def test_abc_split_is_consistent():
    cfg = KernelConfig()
    for q in (5, 8, 15):
        G = build_group(q)
        kw = kernel_weights(q, cfg)
        for chi in G.labels():
            cv = abc_values(G, chi, cfg, weights=kw)
            assert abs(cv.a_value - (cv.b_value + cv.c_value)) < 1e-14
            assert cv.imag_residue < 1e-12
            assert cv.m_eff == kw.m_eff


def test_conjugate_characters_share_a_value():
    cfg = KernelConfig()
    G = build_group(13)
    kw = kernel_weights(13, cfg)
    vals = {}
    for chi in G.labels():
        vals[chi.exponents] = abc_values(G, chi, cfg, weights=kw).a_value
    for exps, v in vals.items():
        conj = tuple((-e) % d for e, d in zip(exps, G.orders))
        assert abs(v - vals[conj]) < 1e-13


def test_weights_modulus_mismatch_rejected():
    cfg = KernelConfig()
    G = build_group(7)
    kw = kernel_weights(5, cfg)
    with pytest.raises(ValueError):
        abc_values(G, G.principal(), cfg, weights=kw)
