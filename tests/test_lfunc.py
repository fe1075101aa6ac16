import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirmoment import asymptotics, lfunc
from dirmoment.arith import two_pow_omega
from dirmoment.asymptotics import error_sum_E
from dirmoment.chargroup import build_group
from dirmoment.kernel import KernelConfig, w_eval_batch
from dirmoment.lfunc import (_exact_sum, _hurwitz_at, _hurwitz_em,
                             abc_values, kernel_weights, l_half_oracle,
                             truncation_bound)
from dirmoment.spectra import fourth_moment
from scalar_ref import char_ref

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# Hurwitz zeta on the critical strip segment


def _em(s, a):
    # the Euler-Maclaurin sum at one point
    return float(_hurwitz_em(s, np.array([a]))[0])


def test_hurwitz_against_mpmath():
    worst = 0.0
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for a in (0.04, 0.2, 0.5, 1.0, 1.75, 3.2, 9.5, 40.0):
            got = _em(s, a)
            ref = float(mp.zeta(s, a))
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst < 1e-12


@pytest.mark.parametrize("q", [1, 2, 7, 1009, 10**6])
def test_hurwitz_table_against_mpmath(q):
    # the residue table zeta(1/2, u/q), u = 0 read as u = q, at its ends and
    # a few interior points: u = 1 at q = 10^6 is a = 1e-6, and the one
    # residue at q = 1 is zeta(1/2, 1)
    hz = _hurwitz_at(q, np.arange(q))
    assert hz.shape == (q,)
    us = sorted({u % q for u in (0, 1, 2, q // 3, q // 2, q - 1)})
    worst = 0.0
    for u in us:
        ref = float(mp.zeta(0.5, mp.mpf(u if u else q) / q))
        worst = max(worst, abs(hz[u] - ref) / max(1.0, abs(ref)))
    assert worst < 1e-14


def test_hurwitz_table_matches_scalar():
    # the table (x^-1/2 plus a Chebyshev interpolant of zeta(1/2, 1 + x))
    # against the Euler-Maclaurin sum at every residue, u = 0 read as
    # u = q, where both give zeta(1/2, 1)
    for q in (7, 1009):
        hz = _hurwitz_at(q, np.arange(q))
        u = np.arange(q)
        want = _hurwitz_em(0.5, np.where(u, u, q) / q)
        gap = np.abs(hz - want) / np.maximum(1.0, np.abs(want))
        assert float(gap.max()) <= 2e-14, q


@pytest.mark.parametrize("q", [1, 2, 12, 1009, 255255])
def test_hurwitz_at_units_is_the_table_gathered(q):
    # elementwise in blocks, so the values at the units alone are the
    # residue table's, bit for bit, across block boundaries and at u = 0
    units = build_group(q).unit_residues()
    got = _hurwitz_at(q, units)
    want = _hurwitz_at(q, np.arange(q))[units]
    assert got.tobytes() == want.tobytes()


def test_fourth_moment_leaves_hurwitz_cache_empty():
    # fourth_moment evaluates the Hurwitz values at the units itself: it
    # neither fills nor reads the store where l_half_oracle keeps them
    lfunc._class_values.cache_clear()
    fourth_moment(1009)
    assert lfunc._class_values.cache_info().currsize == 0


def test_hurwitz_interpolant_rejects_low_degree(monkeypatch):
    # trailing coefficients above the guard raise, and the raise is not
    # cached
    lfunc._hurwitz_cheb.cache_clear()
    monkeypatch.setattr(lfunc, "_HURWITZ_DEGREE", 12)
    with pytest.raises(RuntimeError, match="trailing coefficients"):
        lfunc._hurwitz_cheb()
    monkeypatch.undo()
    assert lfunc._hurwitz_cheb().size == lfunc._HURWITZ_DEGREE + 1


def test_hurwitz_riemann_special_case():
    # zeta(1/2, 1) is the Riemann zeta value at the central point
    assert abs(_em(0.5, 1.0) - (-1.4603545088095868)) < 1e-13


def test_hurwitz_shift_recursion():
    # zeta(s, a) = zeta(s, a+1) + a^(-s)
    for s in (0.3, 0.5, 0.8):
        for a in (0.1, 0.7, 2.5):
            lhs = _em(s, a)
            rhs = _em(s, a + 1.0) + a ** (-s)
            assert abs(lhs - rhs) < 1e-13


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
    # L(1/2, conj(chi)) is the conjugate of L(1/2, chi), each computed
    # afresh
    G = build_group(7)
    prim = [c for c in G.labels() if c.primitive]
    by_exp = {c.exponents: c for c in prim}
    for chi in prim:
        conj = by_exp[tuple((-e) % d for e, d in zip(chi.exponents,
                                                     G.orders))]
        a = _fresh(l_half_oracle, G, chi)
        b = _fresh(l_half_oracle, G, conj)
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
    # vectorised character values give the same products with the Hurwitz
    # table as a scalar loop over char_ref and the table's entries, and
    # fsum does not depend on their order, so the value is the same float
    for q in (5, 12, 45, 97):
        G = build_group(q)
        table = _hurwitz_at(q, np.arange(q))
        for chi in G.labels():
            if not chi.primitive:
                continue
            re, im = [], []
            for a in range(1, q):
                z = char_ref(G, chi, a)
                hz = table[a]
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
        l_half_oracle(build_group(1), build_group(1).label_at(0))


# ---------------------------------------------------------------------------
# truncation and kernel weights


def test_truncation_bound_scales_linearly():
    x_zero = KernelConfig().x_zero
    for q in (1, 3, 10, 100, 1000):
        m = truncation_bound(q)
        assert m >= 1
        assert m == math.floor(x_zero * q / math.pi)
    assert truncation_bound(200) >= 2 * truncation_bound(100) - 2


def test_kernel_weights_structure():
    kw = kernel_weights(12)
    assert kw.q == 12
    assert kw.m_eff == truncation_bound(12)
    xs = math.pi * np.arange(kw.m_eff + 1) / 12
    rows = np.zeros((2, xs.size))
    w_eval_batch(rows[:, 1:], xs[1:])
    for par, w in enumerate(rows):
        kp = kw.kprod[par]
        assert len(kp) == kw.m_eff + 1
        assert kp[0] == 0.0
        for m in (1, 2, 5, kw.m_eff):
            assert kp[m] == pytest.approx(w[m] / math.sqrt(m), rel=1e-14,
                                          abs=0.0)


def test_kernel_weights_positive_decreasing():
    # checked above the quadrature noise floor only: the last few entries
    # before the hard cutoff are ~1e-19 and dominated by roundoff
    kw = kernel_weights(30)
    sqrt_m = np.sqrt(np.arange(1, kw.m_eff + 1))
    for par in (0, 1):
        w = kw.kprod[par][1:] * sqrt_m
        head = w[w > 1e-12]
        assert len(head) > 100
        assert np.all(head > 0)
        assert np.all(np.diff(head) < 0)


# ---------------------------------------------------------------------------
# smoothed functional equation vs. the oracle


def test_central_value_matches_oracle():
    # |L(1/2, chi)|^2 = 2 A(chi) for primitive characters: the smoothing
    # kernel is built exactly so that this holds up to the truncation tail
    worst = 0.0
    for q in (3, 4, 5, 7, 8, 9, 11, 12, 13, 16):
        G = build_group(q)
        kw = kernel_weights(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            cv = abc_values(G, chi, weights=kw)
            lhs = abs(l_half_oracle(G, chi)) ** 2
            rhs = 2.0 * cv.a_value
            rel = abs(lhs - rhs) / abs(lhs)
            worst = max(worst, rel)
    assert worst < 1e-6, worst


def test_abc_matches_scalar_loop():
    # A, B, C against a double loop over coprime (a, b) with scalar
    # character values; both sides are fsums of the same terms up to the
    # rounding of each term
    for q in (5, 12, 45):
        G = build_group(q)
        kw = kernel_weights(q)
        for chi in G.labels():
            tab = [char_ref(G, chi, u) for u in range(q)]
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
            cv = abc_values(G, chi, weights=kw)
            assert abs(cv.b_value - math.fsum(head)) <= 1e-14
            assert abs(cv.c_value - math.fsum(tail)) <= 1e-14
            assert abs(cv.a_value - math.fsum(head + tail)) <= 1e-14


def _ordered_pairs(q, lo, hi):
    """Every ordered coprime pair (a, b) with lo < ab <= hi, from a gcd
    double loop, as int64 arrays."""
    pairs = [(a, b) for a in range(1, hi + 1) if math.gcd(a, q) == 1
             for b in range(lo // a + 1, hi // a + 1) if math.gcd(b, q) == 1]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


@pytest.mark.parametrize("q", [1, 12, 97, 1009])
def test_held_pairs_do_not_depend_on_the_batch(q, monkeypatch):
    # _unordered_pairs concatenates the enumerator's slices, of one range
    # or of consecutive ones, and _pairs builds its columns from them: the
    # same arrays whether a slice holds one pair (batch 1), seven, ending
    # inside the runs of one a, or the default number
    hi = truncation_bound(q)

    def held():
        cols, n_head = lfunc._pairs.__wrapped__(q)
        return (*lfunc._unordered_pairs(q, (0, hi)),
                *lfunc._unordered_pairs(q, (math.isqrt(hi), hi)),
                *cols, np.array(n_head))

    want = held()
    for batch in (1, 7):
        monkeypatch.setattr(lfunc, "_PAIR_BATCH", batch)
        got = held()
        assert all(x.dtype == y.dtype and np.array_equal(x, y)
                   for x, y in zip(got, want, strict=True)), batch


@pytest.mark.parametrize("q", [1, 2, 12, 179, 1009, 15015])
def test_pairs_hold_the_head_then_the_tail(q):
    # one cache entry per modulus: the columns of the head range
    # (0, z_floor] followed by those of the tail range (z_floor, m_eff],
    # as if each were built on its own, read-only, and the head's length
    z, m = q // two_pow_omega(q), truncation_bound(q)
    lab = build_group(q).residue_labels()

    def columns(lo, hi):
        a, b = lfunc._unordered_pairs(q, (lo, hi))
        return a * b, lab[a % q], lab[b % q], np.where(a == b, 1.0, 2.0)

    want = [np.concatenate(c) for c in zip(columns(0, z), columns(z, m))]
    cols, n_head = lfunc._pairs(q)
    assert all(x.dtype == y.dtype and np.array_equal(x, y)
               and not x.flags.writeable
               for x, y in zip(cols, want, strict=True))
    assert n_head == sum(1 for a in range(1, z + 1)
                         for b in range(a, z // a + 1)
                         if math.gcd(a * b, q) == 1)


@pytest.mark.parametrize("q", [5, 12, 163, 168, 179])
def test_unordered_sums_equal_ordered_fsums_bitwise(q):
    # each unordered pair stands for its two orders by one exact doubling
    # (the diagonal once), so A, B, C and the B^2 total of error_sum_E
    # are the correctly rounded sums over the ordered pairs, bit for bit;
    # the terms are formed with the arithmetic of lfunc._pair_terms
    G = build_group(q)
    kw = kernel_weights(q)
    z = kw.z_floor
    ranges = [_ordered_pairs(q, lo, hi) for lo, hi in ((0, z), (z, kw.m_eff))]
    lab = G.residue_labels()
    ranges = [(lab[a % q], lab[b % q], a * b) for a, b in ranges]
    b_sq = []
    for chi in G.labels():
        vals, kp = G.char_values(chi), kw.kprod[chi.parity]
        head, tail = (((vals[ka].real * vals[kb].real
                        + vals[ka].imag * vals[kb].imag)
                       * kp[ab]).tolist() for ka, kb, ab in ranges)
        cv = abc_values(G, chi, weights=kw)
        assert cv.b_value == math.fsum(head)
        assert cv.c_value == math.fsum(tail)
        assert cv.a_value == math.fsum(head + tail)
        if chi.primitive:
            b_sq.append(math.fsum(head) ** 2)
    assert error_sum_E(q).b_sq_sum == math.fsum(b_sq)


@st.composite
def _finite_arrays(draw):
    """Finite float64 arrays of length 0..6000: hypothesis's own floats
    (zeros of both signs, subnormals, the bounds) next to terms spread
    evenly over every exponent, with -x appended to x (in another order)
    half the time, so that the exact sum is zero.  |x| <= 2^1000 / len,
    since math.fsum raises on an intermediate overflow where the exact
    sum can still be finite."""
    n = draw(st.integers(0, 3000))
    cap = 2.0 ** 1000 / max(2 * n, 1)
    k = draw(st.integers(0, n))
    edge = draw(hnp.arrays(np.float64, k, elements=st.floats(-cap, cap)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = math.frexp(cap)[1] - 1                      # 2^top <= cap
    spread = np.ldexp(rng.uniform(-1.0, 1.0, n - k),
                      rng.integers(-1080, top + 1, n - k))
    x = np.concatenate((edge, spread))
    if draw(st.booleans()):
        x = np.concatenate((x, -rng.permutation(x)))
    return x


@given(_finite_arrays())
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum_bitwise(x):
    # the exact sum rounded once is the correctly rounded sum, ties to
    # even, and a zero sum is +0.0: the float math.fsum gives, bit for
    # bit, as the one segment and as the total
    want = math.fsum(x.tolist()).hex()
    (seg,), total = _exact_sum(x, ())
    assert seg.hex() == total.hex() == want


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_exact_sum_over_several_chunks(chunk, monkeypatch):
    # passes of _SUM_CHUNK terms add up to the one-pass sum: the
    # correctly rounded sum of the whole array
    rng = np.random.default_rng(chunk)
    x = np.ldexp(rng.uniform(-1.0, 1.0, 2000), rng.integers(-1080, 980, 2000))
    x = np.concatenate((x, [0.0, -0.0, 5e-324], -x[:700], x[:50]))
    whole = _exact_sum(x, ())
    monkeypatch.setattr(lfunc, "_SUM_CHUNK", chunk)
    assert x.size > 2 * chunk
    assert _exact_sum(x, ()) == whole
    assert whole[1].hex() == math.fsum(x.tolist()).hex()


@st.composite
def _cut_arrays(draw):
    """A finite array of _finite_arrays, non-decreasing cuts into it
    (repeated cuts and cuts at 0 and at the end included), and the
    _SUM_CHUNK to sum it with (None: the default)."""
    x = draw(_finite_arrays())
    cuts = sorted(draw(st.lists(st.sampled_from([0, x.size]) | st.integers(
        0, x.size), max_size=12)))
    return x, cuts, draw(st.sampled_from([None, 1, 7, 256]))


@given(_cut_arrays())
@settings(max_examples=100, deadline=None)
def test_exact_sum_segments_are_fsums_bitwise(case):
    # each segment's sum and the total are the correctly rounded sums of
    # the segment and of the whole array, bit for bit, whether a pass of
    # _SUM_CHUNK terms ends inside a segment, at a cut or on an empty
    # segment
    x, cuts, chunk = case
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(lfunc, "_SUM_CHUNK", chunk)
        segs, total = _exact_sum(x, cuts)
    bounds = [0, *cuts, x.size]
    assert len(segs) == len(bounds) - 1
    for seg, lo, hi in zip(segs, bounds, bounds[1:]):
        assert seg.hex() == math.fsum(x[lo:hi].tolist()).hex()
    assert total.hex() == math.fsum(x.tolist()).hex()


@pytest.mark.parametrize("x, want", [
    ([1.0, 2.0 ** -53], 1.0),                            # tie, down to even
    ([1.0 + 2.0 ** -52, 2.0 ** -53], 1.0 + 2.0 ** -51),  # tie, up to even
    ([1.0, 2.0 ** -53, 2.0 ** -105], 1.0 + 2.0 ** -52),  # just past a tie
    ([2.0 ** 1023, -(2.0 ** 1023), 5e-324], 5e-324),
    ([-0.0, -0.0], 0.0),
])
def test_exact_sum_rounds_half_to_even(x, want):
    x = np.array(x)
    _, total = _exact_sum(x, ())
    assert total.hex() == want.hex() == math.fsum(x).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        _exact_sum(np.array([1.0, bad, -1.0]), ())


def test_abc_split_is_consistent():
    for q in (5, 8, 15):
        G = build_group(q)
        kw = kernel_weights(q)
        for chi in G.labels():
            cv = abc_values(G, chi, weights=kw)
            assert abs(cv.a_value - (cv.b_value + cv.c_value)) < 1e-14
            assert cv.m_eff == kw.m_eff


def _fresh(f, *args, **kwargs):
    # f with the per-modulus store of conjugate classes emptied first, so
    # the value is computed, not read back
    lfunc._class_values.cache_clear()
    return f(*args, **kwargs)


def test_conjugate_characters_share_a_value():
    # the root table is conjugate-symmetric, so chibar takes exactly the
    # conjugate values, its smoothed sums are chi's floats and its oracle
    # value is the exact conjugate of chi's; each side is computed afresh
    # from its own kernel table
    for q in (13, 163, 512, 1009):
        G = build_group(q)
        kw_chi, kw_bar = kernel_weights(q), kernel_weights(q)
        for chi in G.labels():
            bar = G.label(G.conjugate_exponents(chi))
            if bar.exponents < chi.exponents:
                continue  # the pair was checked from bar
            assert (G.char_values(bar) == G.char_values(chi).conj()).all()
            cv, cv_bar = (_fresh(abc_values, G, c, weights=kw)
                          for c, kw in ((chi, kw_chi), (bar, kw_bar)))
            assert ((cv.a_value, cv.b_value, cv.c_value)
                    == (cv_bar.a_value, cv_bar.b_value, cv_bar.c_value))
            if chi.primitive:
                assert (_fresh(l_half_oracle, G, bar)
                        == _fresh(l_half_oracle, G, chi).conjugate())


@pytest.mark.parametrize("q", [13, 512])
def test_conjugate_reuse_is_invisible(q, monkeypatch):
    # each conjugate class is computed once per modulus and kernel values;
    # the values do not depend on the order of the calls, each carries
    # the label asked for, and the store holds one modulus only
    G = build_group(q)
    kw = kernel_weights(q)
    prim = [chi for chi in G.labels() if chi.primitive]

    def run(order):
        lfunc._class_values.cache_clear()
        return {chi: (abc_values(G, chi, weights=kw), l_half_oracle(G, chi))
                for chi in order}

    fwd, rev = run(prim), run(prim[::-1])
    for chi in prim:
        assert fwd[chi][0].label == rev[chi][0].label == chi
        assert repr(fwd[chi]) == repr(rev[chi])

    # a class's term pass reads its values once (terms), and so does its
    # oracle pass (values - terms); the Hurwitz values at the units are
    # evaluated once per modulus (hz)
    passes = {"terms": 0, "values": 0, "hz": 0}

    def counting(name, f):
        def inner(*args):
            passes[name] += 1
            return f(*args)
        return inner

    monkeypatch.setattr(lfunc, "_pair_terms",
                        counting("terms", lfunc._pair_terms))
    monkeypatch.setattr(G, "char_values", counting("values", G.char_values))
    monkeypatch.setattr(lfunc, "_hurwitz_at",
                        counting("hz", lfunc._hurwitz_at))
    chi = next(c for c in prim if c.exponents < G.conjugate_exponents(c))
    bar = G.label(G.conjugate_exponents(chi))

    def both(weights):
        for c in (chi, bar):
            abc_values(G, c, weights=weights)
            l_half_oracle(G, c)
        return dict(passes)

    lfunc._class_values.cache_clear()
    assert both(kw) == {"terms": 1, "values": 2, "hz": 1}
    assert both(kw) == {"terms": 1, "values": 2, "hz": 1}
    kw_new = kernel_weights(q)  # a new table with the same values
    assert both(kw_new) == {"terms": 1, "values": 2, "hz": 1}
    G7 = build_group(7)  # a new modulus (one term pass) drops everything
    abc_values(G7, G7.labels()[1], weights=kernel_weights(7))
    assert lfunc._class_values.cache_info().currsize == 1
    assert both(kw_new) == {"terms": 3, "values": 4, "hz": 2}
    store = lfunc._class_values(q)
    assert lfunc._class_values.cache_info().currsize == 1
    assert store["weights"] is kw_new
    assert set(store["abc"]) == set(store["oracle"]) == {chi.exponents}


@pytest.mark.parametrize("q", [163, 179, 512, 1009])
def test_error_sum_reads_the_sums_of_abc_values(q, monkeypatch):
    # after a sweep of abc_values, error_sum_E reads every B from the
    # class store through its own head-only table (the full table's
    # prefix, bit for bit) and forms no term; its fields are a cold
    # call's, bit for bit
    cold = _fresh(error_sum_E, q)
    G = build_group(q)
    lfunc._class_values.cache_clear()
    kw = kernel_weights(q)
    for chi in G.labels():
        abc_values(G, chi, weights=kw)
    calls = []
    for mod in (lfunc, asymptotics):  # wherever a term pass could run
        monkeypatch.setattr(mod, "_pair_terms",
                            lambda *args: calls.append(1), raising=False)
    warm = error_sum_E(q)
    assert calls == []
    assert ([v.hex() for v in (warm.b_sq_sum, warm.m_value, warm.e_measured)]
            == [v.hex() for v in (cold.b_sq_sum, cold.m_value,
                                  cold.e_measured)])


def test_class_sums_follow_the_kernel_values(monkeypatch):
    # a fresh table with the same values keeps the stored sums; a copy
    # with one head value moved by an ulp-sized step drops them, moves B
    # of the even characters and leaves the odd ones' as they were
    q = 163
    G = build_group(q)
    kw = kernel_weights(q)
    lfunc._class_values.cache_clear()
    before = {chi: abc_values(G, chi, weights=kw) for chi in G.labels()}
    store = lfunc._class_values(q)
    held = dict(store["abc"])
    calls = []
    terms = lfunc._pair_terms
    monkeypatch.setattr(lfunc, "_pair_terms",
                        lambda *args: calls.append(1) or terms(*args))
    fresh = kernel_weights(q)
    assert fresh is not kw
    for chi in G.labels():
        assert abc_values(G, chi, weights=fresh) == before[chi]
    assert calls == [] and store["abc"] == held

    moved = lfunc.KernelWeights(kw.q, kw.z_floor, kw.m_eff, kw.kprod.copy())
    moved.kprod[0, 3] *= 1 + 2**-40
    after = {chi: abc_values(G, chi, weights=moved) for chi in G.labels()}
    assert len(calls) == len(held)
    even = [chi for chi in G.labels() if chi.parity == 0]
    odd = [chi for chi in G.labels() if chi.parity == 1]
    assert any(after[c].b_value != before[c].b_value for c in even)
    assert all(after[c].b_value == before[c].b_value for c in odd)

    # a caller's table edited in place after its sums were stored does
    # not pass them on to a new table with the edited values: the store
    # compares against its own copy
    own = lfunc.KernelWeights(kw.q, kw.z_floor, kw.m_eff, kw.kprod.copy())
    lfunc._class_values.cache_clear()
    for chi in G.labels():
        abc_values(G, chi, weights=own)
    own.kprod[0, 3] *= 1 + 2**-40
    again = lfunc.KernelWeights(kw.q, kw.z_floor, kw.m_eff, own.kprod.copy())
    assert {chi: abc_values(G, chi, weights=again)
            for chi in G.labels()} == after


def test_weights_modulus_mismatch_rejected():
    G = build_group(7)
    kw = kernel_weights(5)
    with pytest.raises(ValueError):
        abc_values(G, G.label_at(0), weights=kw)
