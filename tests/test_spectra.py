import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from dirmoment import chargroup, lfunc, spectra
from dirmoment.arith import euler_phi, factorize, phi_star
from dirmoment.chargroup import build_group
from dirmoment.kernel import KernelConfig
from dirmoment.lfunc import (_coprime_pair_chunks, _hurwitz_at, abc_values,
                             kernel_weights)
from dirmoment.spectra import (_fft_eps, _table, compute_spectrum,
                               fourth_moment, group_transform)
from scalar_ref import exact_transform

CFG = KernelConfig()


def _fold(s0, s1):
    """T(u) = (S_0(u) + S_0(-u) + S_1(u) - S_1(-u)) / 2 from the two
    parity tables S_0, S_1."""
    neg = -np.arange(s0.size) % s0.size
    return 0.5 * ((s0 + s0[neg]) + (s1 - s1[neg]))


def _parity_tables(q, kw, lo, hi):
    """(S_0, S_1) over lo < ab <= hi by brute force: every ordered pair
    of integers coprime to q, each a with every b in lo / a < b <= hi / a,
    scattered with np.add.at at a b^-1 mod q (inverses from pow)."""
    n = np.arange(1, hi + 1)
    cop = n[np.gcd(n, q) == 1]
    first = np.searchsorted(cop, lo // cop, side="right")
    end = np.searchsorted(cop, hi // cop, side="right")
    a = np.repeat(cop, np.maximum(end - first, 0))
    b = np.concatenate([cop[:0], *(cop[i:j] for i, j in zip(first, end))])
    inv = {x: pow(x, -1, q) for x in set(b.tolist())}
    u = a * np.array([inv[x] for x in b.tolist()], dtype=np.int64) % q
    tables = (np.zeros(q), np.zeros(q))
    for s, kp in zip(tables, kw.kprod):
        np.add.at(s, u, kp[a * b])
    return tables


# ---------------------------------------------------------------------------
# residue tables


def test_weight_table_segments_add_up():
    # the B and C tables of one build add up, entry by entry in label
    # order, to the table over the whole product range
    G = build_group(15)
    kw = kernel_weights(15)
    z, m = kw.z_floor, kw.m_eff
    np.testing.assert_allclose(_table(G, kw, 0, z) + _table(G, kw, z, m),
                               _table(G, kw, 0, m), rtol=0, atol=1e-12)


def test_weight_table_mass_is_coprime_pair_sum():
    # summing the table over the units must reproduce the plain double sum
    # over coprime pairs of the even kernel, independently of the residue
    # bucketing and of the order of the entries: the odd part of the fold
    # sums to zero
    q = 12
    G = build_group(q)
    kw = kernel_weights(q)
    table = _table(G, kw, 0, kw.m_eff)
    direct = 0.0
    kp = kw.kprod[0]
    for a in range(1, kw.m_eff + 1):
        if math.gcd(a, q) != 1:
            continue
        for b in range(1, kw.m_eff // a + 1):
            if math.gcd(b, q) != 1:
                continue
            direct += kp[a * b] / 1.0
    assert np.sum(table) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("q, batch", [
    *(pytest.param(q, None, id=str(q))
      for q in (1, 2, 12, 45, 97, 1009, 2992, 2997, 15015)),
    pytest.param(97, 1, id="97-batch1"),
    pytest.param(1009, 7, id="1009-batch7"),
    pytest.param(1009, 5000, id="1009-batched"),
])
def test_build_tables_match_brute_force(q, batch, monkeypatch):
    # the unordered slices, scattered and symmetrized, against a plain
    # gcd double loop over the ordered pairs scattered with np.add.at
    # into one table per parity, folded and gathered at the units in
    # label order; the second range is a perfect
    # square, where the diagonal pair a = b = isqrt(m_eff) closes the
    # enumeration and must count once.  With a small batch the slices
    # end inside the run of one a, and at batch 1 and 7 some slice ends
    # on a diagonal pair (a, a) whose run goes on in the next slice.
    if batch is not None:
        monkeypatch.setattr(lfunc, "_PAIR_BATCH", batch)
    G = build_group(q)
    kw = kernel_weights(q)
    units = G.unit_residues()
    for m_eff in (kw.m_eff, math.isqrt(kw.m_eff) ** 2):
        if batch is not None:
            slices = list(_coprime_pair_chunks(q, 0, m_eff))
            assert len(slices) > 2
            # per slice that ends inside a run: does it end on (a, a)?
            cut = [b[-1] == a[-1] for (a, b), (n, _)
                   in zip(slices, slices[1:]) if a[-1] == n[0]]
            assert cut and (batch > 7 or any(cut))
        pairs = [(a, b) for a in range(1, m_eff + 1) if math.gcd(a, q) == 1
                 for b in range(1, m_eff // a + 1) if math.gcd(b, q) == 1]
        assert (sum(b.size for _, b in _coprime_pair_chunks(q, 0, m_eff))
                == sum(a <= b for a, b in pairs))
        a, b = np.array(pairs, dtype=np.int64).T
        m = a * b
        u = a * np.array([pow(int(x), -1, q) for x in b], dtype=np.int64) % q
        z = min(kw.z_floor, m_eff)
        segments = ((0, z), (z, m_eff))
        kw_m = dataclasses.replace(kw, m_eff=m_eff)
        for lo, hi in segments:
            sel = (m > lo) & (m <= hi)
            want = (np.zeros(q), np.zeros(q))
            for s, kp in zip(want, kw.kprod):
                np.add.at(s, u[sel], kp[m[sel]])
            # relative to the four terms of the fold in absolute value,
            # since T(u) can cancel to far below them
            neg = -np.arange(q) % q
            scale = 0.5 * sum(np.abs(s) + np.abs(s[neg]) for s in want)
            gap = np.abs(_table(G, kw_m, lo, hi) - _fold(*want)[units])
            assert np.all(gap <= 1e-13 * scale[units])


@pytest.mark.parametrize("q", [1, 2, 3, 12, 16, 45, 97, 2992, 15015])
def test_table_is_label_order(q):
    # _table returns phi(q) entries, entry k the brute-force fold at
    # unit_residues()[k], on the head and the tail, at one axis, the
    # <-1>/<5> pair (16, 2992) and many axes (15015)
    G = build_group(q)
    kw = kernel_weights(q)
    units = G.unit_residues()
    neg = -np.arange(q) % q
    for lo, hi in _ranges(kw):
        s0, s1 = _parity_tables(q, kw, lo, hi)
        scale = 0.5 * (np.abs(s0) + np.abs(s0[neg]) + np.abs(s1)
                       + np.abs(s1[neg]))
        t = _table(G, kw, lo, hi)
        assert t.shape == (G.group_order,)
        assert np.all(np.abs(t - _fold(s0, s1)[units]) <= 1e-13 * scale[units])


def test_table_index_products_fit_int64():
    # _table scatters at b a^-1 mod q from the int64 product of b <= hi
    # and a^-1 < q, with hi at most truncation_bound(q) and q at most
    # _MAX_Q, so b a^-1 < q hi stays inside int64 at every admitted q
    assert (chargroup._MAX_Q * lfunc.truncation_bound(chargroup._MAX_Q)
            < 2 ** 63)


@pytest.mark.parametrize("q", [1, 2, 12, 97, 1009, 15015])
def test_tables_are_inverse_symmetric_and_count_each_pair_once(q):
    # the build scatters each unordered pair once and symmetrizes, so
    # T(u^-1) == T(u) bit for bit on the head and the tail, read on the
    # label grid (the label of u^-1 from pow and residue_labels); and the
    # mass of each table is sum over coprime n in its range of
    # d(n) K_0(n), every ordered pair once, each diagonal pair a = b once
    G = build_group(q)
    kw = kernel_weights(q)
    inv = G.residue_labels()[[pow(int(u), -1, q)
                              for u in G.unit_residues()]]
    m = kw.m_eff
    d = np.zeros(m + 1, dtype=np.int64)  # d(n) on n coprime to q, else 0
    for x in range(1, m + 1):
        d[x::x] += 1
    d[np.gcd(np.arange(m + 1), q) != 1] = 0
    for lo, hi in ((0, kw.z_floor), (kw.z_floor, m)):
        t = _table(G, kw, lo, hi)
        assert t.shape == (G.group_order,)
        assert np.array_equal(t[inv], t)
        kp = kw.kprod[0][lo + 1:hi + 1]
        mass = math.fsum((d[lo + 1:hi + 1] * kp).tolist())
        assert math.fsum(t.tolist()) == pytest.approx(mass, rel=1e-13)


@pytest.mark.parametrize("q", [1, 2, 12, 45, 97])
def test_pair_chunks_past_lo_are_the_full_order_filtered(q, monkeypatch):
    # starting each run of one a past lo yields the pairs of the full
    # enumeration with ab > lo, in the same order, at every lower bound
    # (0, 1, the square root, past it, the top and beyond), in slices of
    # 50 pairs that end wherever the 50th pair falls, inside a run too
    m = 600
    full = np.concatenate(
        [np.stack(p) for p in _coprime_pair_chunks(q, 0, m)], axis=1)
    monkeypatch.setattr(lfunc, "_PAIR_BATCH", 50)
    for lo in (0, 1, 24, 25, 26, 599, 600, 700):
        got = [np.stack(p) for p in _coprime_pair_chunks(q, lo, m)]
        got = np.concatenate(got, axis=1) if got else np.empty((2, 0), int)
        want = full[:, full[0] * full[1] > lo]
        assert np.array_equal(got, want), lo


@pytest.mark.parametrize("q", [12, 1009, 2992, 15015])
def test_tables_do_not_depend_on_the_slice_size(q, monkeypatch):
    # every entry is the in-order sum of its own pairs, whatever slice
    # they arrive in, so the head and the tail are the same bits at a
    # slice of one pair, of seven and of the default size
    G = build_group(q)
    kw = kernel_weights(q)
    want = [_table(G, kw, lo, hi) for lo, hi in _ranges(kw)]
    for batch in (1, 7):
        monkeypatch.setattr(lfunc, "_PAIR_BATCH", batch)
        for t, (lo, hi) in zip(want, _ranges(kw)):
            assert np.array_equal(_table(G, kw, lo, hi), t), (batch, lo)


def test_table_scratch_does_not_grow_with_the_pairs():
    # the tail at q = 10007 (414k pairs, 26 slices) holds the two q-length
    # accumulators and the fold's output, a fixed number of slice-length
    # arrays and the residues coprime to q with their mask; then the fold
    # gathered at the units and _negated's block copies of it, phi
    # entries each, within three such arrays.  Nothing grows with hi or
    # with the pair count beyond the runs of a and their inverses
    # (isqrt(hi) of each), so halving hi leaves the traced peak where it
    # was.  The units in label order are the group's, built before
    q = 10007
    G = build_group(q)
    G.unit_residues()
    kw = kernel_weights(q)
    phi = G.group_order
    slice_bytes = 8 * lfunc._PAIR_BATCH
    bound = (3 * 8 * q + (q + 1) + 8 * phi + 16 * slice_bytes
             + 3 * 8 * phi + (64 << 10))
    peaks = []
    for hi in (kw.m_eff // 2, kw.m_eff):
        tracemalloc.start()
        try:
            _table(G, kw, kw.z_floor, hi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= bound, (peaks, bound)
    assert peaks[1] <= peaks[0] + (16 << 10), peaks


def _traced_peak(f, q):
    """The traced peak of f(q), called once before the trace so that the
    lazy kernel and Hurwitz set-up is built outside it."""
    f(q)
    tracemalloc.start()
    try:
        f(q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_peak_is_the_kernel_table():
    # compute_spectrum drops its kernel table before the transform, which
    # holds the two tables and two complex grids, so no stage after the
    # kernel table holds more than it (kernel_weights' own bound,
    # 3.5 x 8 m_eff): at q = 100003 the traced peak was 3.30 x 8 m_eff
    # (19.3 MiB), and 5.30 x (30.9 MiB) with the kernel table's m, pi m
    # and 1/sqrt(m) arrays
    q = 100003
    peak = _traced_peak(compute_spectrum, q)
    m_eff = lfunc.truncation_bound(q)
    assert peak <= 3.5 * 8 * m_eff, peak / (8 * m_eff)


def test_spectrum_values_own_their_data():
    # b_values and c_values are copies of the transforms' real parts, the
    # same bits, so a spectrum keeps no complex grid alive
    q = 1009
    spec = compute_spectrum(q)
    G, kw = spec.group, kernel_weights(q)
    outs = group_transform(G, *(_table(G, kw, lo, hi)
                                for lo, hi in _ranges(kw)))
    for got, out in zip((spec.b_values, spec.c_values), outs, strict=True):
        assert got.flags.owndata and got.flags.c_contiguous
        assert got.tobytes() == out.real.tobytes()


def test_moment_peak_memory():
    # fourth_moment packs hz and the head table into one complex grid and
    # releases both before the in-place FFT, unpacks over that grid and
    # its negated copy, and squares |L| in place.  At q = 100003 the
    # traced peak was 7.55 x 8 phi, set by the table stage (the transform
    # 6.33 x, the assembly 6.65 x); with the transform's four complex
    # grids next to its inputs it was 9.02 x, set by the transform
    q = 100003
    peak = _traced_peak(fourth_moment, q)
    phi = euler_phi(q)
    assert peak <= 8.0 * 8 * phi, peak / (8 * phi)


def _ranges(kw):
    return (0, kw.z_floor), (kw.z_floor, kw.m_eff)


def _tables(q):
    """The group and its B and C tables in label order, as
    group_transform takes them."""
    G = build_group(q)
    kw = kernel_weights(q)
    return G, [_table(G, kw, lo, hi) for lo, hi in _ranges(kw)]


def test_transform_principal_row_is_total_mass():
    # the principal character, label 0, sums the table with unit
    # coefficients
    G, tables = _tables(21)
    assert G.label_at(0).exponents == (0,) * len(G.orders)
    for s in tables:
        vals = exact_transform(G, s)
        assert vals[0].real == pytest.approx(float(np.sum(s)), rel=1e-12)
        assert abs(vals[0].imag) < 1e-12


@pytest.mark.parametrize("q", [12, 21, 2999])
def test_transform_refuses_residue_order_tables(q):
    # both transforms take phi-length label-order tables; a q-length
    # residue table is refused at the reshape, not read in the wrong order
    G = build_group(q)
    t = np.ones(q)
    with pytest.raises(ValueError):
        group_transform(G, t, t)
    with pytest.raises(ValueError):
        exact_transform(G, t)


@pytest.mark.parametrize("q", [1009, 2999])
def test_transform_matches_exact_angle_at_mid_q(q):
    # the FFT against the exact-angle oracle on the B and the C table, over
    # every character of the grid (an oracle that forms the angle e t / d
    # in floats before reducing it drifts by ~1e-11 at these q), and the
    # moment and imaginary residue of the spectrum built on the FFT
    G, tables = _tables(q)
    exact = [exact_transform(G, s) for s in tables]
    for got, want in zip(group_transform(G, *tables), exact):
        assert float(np.max(np.abs(got - want))) <= 1e-12
    spec = compute_spectrum(q)
    a = exact[0].real + exact[1].real
    a_fft = spec.b_values + spec.c_values
    mf = 4.0 * float(np.sum(a_fft[spec.primitive] ** 2))
    mn = 4.0 * float(np.sum(a[spec.primitive] ** 2))
    assert abs(mf - mn) <= 1e-12 * abs(mn)
    assert spec.imag_residue <= 1e-12


def _out_of_place_transform(G, f, g):
    """The out-of-place reference for group_transform: the FFT into a new
    array and the unpack into two more, next to the negated copy."""
    shape = G.orders or (1,)
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = f.reshape(shape), g.reshape(shape)
    z = np.fft.fftn(z)
    z, zn = z.ravel(), spectra._negated(G, z)
    np.conj(z, out=z)
    x_f = z + zn
    x_f *= 0.5
    z -= zn
    z *= 0.5j
    return x_f, z


@pytest.mark.parametrize("q", [1, 2, 12, 10201, 15015, 100003])
def test_transform_in_place_keeps_the_bits(q):
    # the in-place FFT and the blockwise unpack give the out-of-place
    # transform's bits: the grid of no axis (q = 1, 2), a Good-Thomas
    # split (10201 = 101^2) and, at 100003, four unpack blocks, the last
    # partial; the inputs are left as they were
    G = build_group(q)
    rng = np.random.default_rng(q)
    f, g = rng.standard_normal((2, G.group_order))
    f0, g0 = f.copy(), g.copy()
    for got, want in zip(group_transform(G, f, g),
                         _out_of_place_transform(G, f, g)):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(f, f0) and np.array_equal(g, g0)


@pytest.mark.parametrize("q", [1, 2, 4, 8, 12, 64, 2992, 2999, 30030])
def test_parity_fold_matches_per_parity_oracle(q):
    # one transform of the folded table against the exact-angle transform
    # of each brute-force parity table, read on the characters of that
    # parity, on every character; compute_spectrum's B and C come from
    # the same folded tables
    G, tables = _tables(q)
    kw = kernel_weights(q)
    units = G.unit_residues()
    spec = compute_spectrum(q)
    even = spec.parity == 0
    folds = group_transform(G, *tables)
    for (lo, hi), got, fold in zip(_ranges(kw), (spec.b_values,
                                                 spec.c_values), folds):
        s0, s1 = _parity_tables(q, kw, lo, hi)
        want = np.where(even, exact_transform(G, s0[units]),
                        exact_transform(G, s1[units]))
        assert float(np.max(np.abs(fold - want))) <= 1e-12
        assert float(np.max(np.abs(got - want.real))) <= 1e-12


def _hurwitz_and_head(q):
    """The group and the two tables fourth_moment packs, in label order:
    the Hurwitz table and the B table."""
    G = build_group(q)
    kw = kernel_weights(q, head_only=True)
    units = G.unit_residues()
    return G, (_hurwitz_at(q, units), _table(G, kw, 0, kw.z_floor))


@pytest.mark.parametrize("split_prime", [chargroup._SPLIT_PRIME, 1])
@pytest.mark.parametrize("q", [1009, 2992, 2999, 1024, 8997, 15015, 255255])
def test_packed_transform_matches_exact_angle(q, split_prime, monkeypatch):
    # each output of the one packed FFT against the exact-angle transform
    # of its own table, on a split axis (2999 and 8997 = 3 * 2999), the
    # <-1>/<5> axes (2992, 1024) and many axes (15015, 255255).  With
    # _SPLIT_PRIME = 1 every prime power of the order mod an odd p^e is a
    # component of its own (up to three per prime power here), which tests
    # the Good-Thomas split at sizes the exact oracle can hold.  The
    # Hurwitz table's sum of |hz|
    # is 10^2 to 10^4 times the B table's, so cross-talk between the two
    # would show in B; the bound is the FFT's rounding over the packed
    # input, eps_fft * sum_u (|hz(u)| + |T(u)|)
    monkeypatch.setattr(chargroup, "_SPLIT_PRIME", split_prime)
    G, tables = _hurwitz_and_head(q)
    scale = _fft_eps(G.group_order) * sum(
        float(np.abs(t).sum()) for t in tables)
    for got, t in zip(group_transform(G, *tables), tables):
        gap = float(np.max(np.abs(got - exact_transform(G, t))))
        assert gap <= scale, f"gap {gap:.2e} over {scale:.2e}"


@pytest.mark.parametrize("q", [100003, 255255])
def test_packed_transform_identities(q):
    # Parseval on each output, sum_chi |X(chi)|^2 = phi sum_u f(u)^2, and
    # the principal character of the Hurwitz transform,
    # X(chi_0) / sqrt(q) = L(1/2, chi_0) = zeta(1/2) prod_{p | q}
    # (1 - p^-1/2).  Bounds from the FFT's normwise rounding eps_fft over
    # the packed input: Parseval within 3 eps_fft phi |f| |(f, g)| (2-norms
    # over the units), and X(chi_0) within eps_fft phi^1/2 |(f, g)| plus
    # the table's accuracy, 1e-14 max(1, |hz(u)|) per unit
    G, tables = _hurwitz_and_head(q)
    phi = G.group_order
    eps = _fft_eps(phi)
    sq = [float(np.sum(t ** 2)) for t in tables]
    outs = group_transform(G, *tables)
    for x, s in zip(outs, sq):
        gap = abs(float(np.sum(x.real ** 2 + x.imag ** 2)) - phi * s)
        assert gap <= 3.0 * eps * phi * math.sqrt(s * sum(sq)), gap
    hz = tables[0]
    with mpmath.workdps(30):
        want = mpmath.zeta(0.5)
        for p, _ in factorize(q):
            want *= 1 - mpmath.mpf(p) ** -0.5
        want = float(want)
    x0 = outs[0][0]  # the principal character, label 0
    tol = (eps * math.sqrt(phi * sum(sq))
           + 1e-14 * float(np.maximum(1.0, np.abs(hz)).sum())) / math.sqrt(q)
    assert abs(x0 / math.sqrt(q) - want) <= tol
    assert abs(x0.imag) <= eps * math.sqrt(phi * sum(sq))


# ---------------------------------------------------------------------------
# spectrum pipeline vs. per-character pipeline


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 21, 24, 45])
def test_spectrum_matches_per_character(q):
    G = build_group(q)
    kw = kernel_weights(q)
    spec = compute_spectrum(q)
    for i, chi in enumerate(G.labels()):
        cv = abc_values(G, chi, weights=kw)
        assert spec.b_values[i] == pytest.approx(cv.b_value, rel=1e-10,
                                                 abs=1e-13)
        assert spec.c_values[i] == pytest.approx(cv.c_value, rel=1e-10,
                                                 abs=1e-13)


def test_thread_determinism_bitwise():
    # two independent runs of the single-threaded pipeline agree bit for bit
    for q in (7, 45, 105):
        s1 = compute_spectrum(q)
        s2 = compute_spectrum(q)
        assert np.array_equal(s1.b_values, s2.b_values)
        assert np.array_equal(s1.c_values, s2.c_values)


@pytest.mark.parametrize("q", [1009, 10007, 100003, 15015])
def test_hurwitz_route_matches_afe_tables(q):
    # |L(1/2, chi)|^2 from one group transform of the Hurwitz table against
    # 2A from the B and C tables, on every primitive character, within the
    # kernel-eps bound of criterion 2 at scale: each kernel value is within
    # eps and the weights 1 / sqrt(ab), ab <= m, add up to at most
    # 2 sqrt(m)(1 + ln m); doubled for 2A.  The Hurwitz table is packed
    # with the B table, as in fourth_moment
    spec = compute_spectrum(q)
    G, tables = _hurwitz_and_head(q)
    lt, _ = group_transform(G, *tables)
    l_sq = (lt.real ** 2 + lt.imag ** 2) / q
    prim = spec.primitive
    m = 24.0 * q / math.pi
    tol = 2.0 * CFG.eps * 2.0 * math.sqrt(m) * (1.0 + math.log(m))
    a = spec.b_values + spec.c_values
    gap = float(np.max(np.abs(l_sq[prim] - 2.0 * a[prim])))
    assert gap <= tol, f"worst gap {gap:.2e} = {gap / tol:.2e} of the bound"


@pytest.mark.parametrize("q", [*range(1, 121), *range(2990, 3000)])
def test_tail_moment_all_matches_transform(q):
    # the tail moment over all characters, the sum of C^2 from the
    # transform, against Parseval over the C table, phi(q) sum_u T(u)^2
    spec = compute_spectrum(q)
    want = float(np.sum(spec.c_values ** 2))
    G = build_group(q)
    t = _table(G, kernel_weights(q), spec.z_floor, spec.m_eff)
    got = G.group_order * float(np.sum(t * t))
    assert abs(got - want) <= 1e-13 * abs(want)


# ---------------------------------------------------------------------------
# moment report


def test_moment_report_consistency():
    q = 15
    rep = fourth_moment(q)
    spec = compute_spectrum(q)
    prim = spec.primitive
    a = spec.b_values + spec.c_values
    assert rep.phi_star == phi_star(q)
    assert rep.fourth_moment == pytest.approx(
        4.0 * float(np.sum(a[prim] ** 2)), rel=1e-14)
    c_all = float(np.sum(spec.c_values ** 2))
    assert math.sqrt(rep.b_moment * c_all) >= abs(rep.cross_term) - 1e-15
    assert c_all >= rep.c_moment_primitive
    decomposition = 4.0 * (rep.b_moment + 2.0 * rep.cross_term
                           + rep.c_moment_primitive)
    assert rep.fourth_moment == pytest.approx(decomposition, rel=1e-12)


@pytest.mark.parametrize("q", [1009, 10007, 15015])
def test_spectrum_b_moment_is_fourth_moment_b_moment(q):
    # both build the B table on the one range (0, z_floor], from a full
    # and a head-only kernel table whose head values are the same floats,
    # so the tables agree bit for bit; the transform packs B with the C
    # table in one and with the Hurwitz table in the other, so sum* B^2
    # agrees to rounding
    G = build_group(q)
    full, head = kernel_weights(q), kernel_weights(q, head_only=True)
    assert np.array_equal(_table(G, full, 0, full.z_floor),
                          _table(G, head, 0, head.z_floor))
    spec = compute_spectrum(q)
    b = spec.b_values[spec.primitive]
    want = fourth_moment(q).b_moment
    assert abs(float(np.sum(b ** 2)) - want) <= 1e-13 * want


# Frozen regression values: fourth_moment's fields as computed before the
# group's odd prime powers were split into Good-Thomas components, printed
# with %.17g.  10201 = 101^2 splits into axes 100 and 101, and 1000003
# into 2 and 500001; 1000003 also has pair-table index products b a^-1
# past 2^31.  Only the order of the sums over characters may move them.
FROZEN_MOMENTS = {
    10201: {"fourth_moment": 3094949.4767455533,
            "b_moment": 770443.78105917084,
            "c_moment_primitive": 19.062787185397646,
            "cross_term": 1637.2626700161352,
            "ratio": 0.87573771915918674},
    1000003: {"fourth_moment": 1639668294.691251,
              "b_moment": 408870709.92227352,
              "c_moment_primitive": 3428.2132389402695,
              "cross_term": 521467.76865015697,
              "ratio": 0.8884211919197782},
}


@pytest.mark.parametrize("q", sorted(FROZEN_MOMENTS))
def test_moment_matches_frozen_values(q):
    # byte comparisons of reruns cannot see a result that is wrong the
    # same way every run (an index product wrapped in int32 moves b_moment
    # by 5% at 1000003); these values can
    rep = fourth_moment(q)
    for field, want in FROZEN_MOMENTS[q].items():
        got = getattr(rep, field)
        assert abs(got - want) <= 1e-12 * abs(want), (field, got, want)


def test_moment_at_q1_is_zeta_fourth_power():
    # mod 1 the one character is principal and |L|^2 = |zeta(1/2)|^2
    # comes from the Hurwitz transform, as at every q; C = |L|^2 / 2 - B
    # takes up the pole terms the smoothed sum leaves out
    rep = fourth_moment(1)
    with mpmath.workdps(30):
        want = float(mpmath.zeta(0.5) ** 4)
    assert abs(rep.fourth_moment - want) <= 1e-14 * want
    assert rep.b_moment == compute_spectrum(1).b_values[0] ** 2
    decomposition = 4.0 * (rep.b_moment + 2.0 * rep.cross_term
                           + rep.c_moment_primitive)
    assert rep.fourth_moment == pytest.approx(decomposition, rel=1e-12)


def test_moment_positive_and_ratio():
    for q in (3, 4, 5, 8):
        rep = fourth_moment(q)
        assert rep.fourth_moment > 0
        assert rep.main_term > 0
        assert rep.ratio == rep.fourth_moment / rep.main_term
        assert rep.imag_residue < 1e-12


def test_imag_residue_over_its_bound_warns(monkeypatch):
    # the runtime bound is the FFT rounding model of the packed-transform
    # tests, eps_fft sum_u (|hz| + |T_B|): a residue within it is silent;
    # with eps_fft = 0 the same (nonzero) residue is a breach, which warns
    # and leaves the report as it was
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fourth_moment(1009)
    assert rep.imag_residue > 0.0
    monkeypatch.setattr(spectra, "_fft_eps", lambda phi: 0.0)
    with pytest.warns(RuntimeWarning, match="imag_residue .* at q = 1009"):
        breach = fourth_moment(1009)
    assert dataclasses.replace(breach, wall=rep.wall) == rep


@pytest.mark.parametrize("q", [1009, 2992])
def test_spectrum_imag_residue_over_its_bound_warns(q, monkeypatch):
    # compute_spectrum checks its imag_residue against the same bound,
    # eps_fft sum_u (|T_B| + |T_C|): silent within it; with eps_fft = 0
    # the breach warns and the spectrum is the same bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = compute_spectrum(q)
    assert spec.imag_residue > 0.0
    monkeypatch.setattr(spectra, "_fft_eps", lambda phi: 0.0)
    with pytest.warns(RuntimeWarning, match=f"imag_residue .* at q = {q}"):
        breach = compute_spectrum(q)
    for name in ("b_values", "c_values", "parity", "primitive"):
        assert np.array_equal(getattr(breach, name), getattr(spec, name))
    assert ((breach.q, breach.imag_residue, breach.m_eff, breach.z_floor)
            == (spec.q, spec.imag_residue, spec.m_eff, spec.z_floor))


@pytest.mark.parametrize("q", [2990, 9699690])
def test_moment_without_primitive_characters_builds_nothing(q, monkeypatch):
    # phi* = 0 (q = 2 mod 4): the zero report comes after the group build,
    # which checks the modulus's range, and before the group's unit table,
    # the Hurwitz table, the kernel table or a pair table is built
    def refuse(*args, **kwargs):
        raise AssertionError("built a table at phi* = 0")

    for mod, name in ((spectra, "_hurwitz_at"),
                      (lfunc, "kernel_weights"), (spectra, "_table"),
                      (chargroup.CharacterGroup, "unit_residues")):
        monkeypatch.setattr(mod, name, refuse)
    rep = fourth_moment(q)
    assert rep.phi_star == 0 and rep.wall == {}
    assert (rep.fourth_moment, rep.main_term, rep.b_moment,
            rep.c_moment_primitive, rep.cross_term, rep.imag_residue) == (
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert math.isnan(rep.ratio)
    assert (rep.m_eff, rep.z_floor) == (
        lfunc.truncation_bound(q), q // lfunc.two_pow_omega(q))


def test_weights_mismatch_rejected():
    with pytest.raises(ValueError):
        fourth_moment(7, weights=kernel_weights(5))


def test_spectrum_q1_and_q2_edge_cases():
    # q = 1: one (principal, primitive) character; q = 2: one character,
    # primitive count zero
    s1 = compute_spectrum(1)
    assert s1.b_values.shape == (1,)
    assert bool(s1.primitive[0]) is True
    assert phi_star(2) == 0
    rep2 = fourth_moment(2)
    assert rep2.fourth_moment == 0.0
    assert euler_phi(2) == 1
