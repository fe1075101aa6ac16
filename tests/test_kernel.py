import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from dirmoment import kernel
from dirmoment.kernel import KernelAccuracyError, KernelConfig, w_eval_batch
from dirmoment.lfunc import kernel_weights
from scalar_ref import w_quad


def setup_module(module):
    kernel._nodes.cache_clear()


def test_loggamma_matches_mpmath():
    # Re log Gamma on the quadrature node grids t = k h (sampled, t <= 400)
    # and on the scalar height-search grid t = 8, 10, ...  The shift by 10
    # sums terms up to about 15 + |log Gamma| in size, each rounded a
    # few times, hence the bound 32 eps (1 + |log Gamma|)
    eps = np.finfo(np.float64).eps
    for a in (0, 1):
        for c in (0.5, 0.7, 1.0, 1.3):
            zs = [complex(c + 0.5 + a, t) / 2 for t in np.arange(
                0.0, 400.0, 0.1 * 37)]
            got = list(kernel._loggamma(np.array(zs)).real)
            for t in np.arange(8.0, 400.0, 2.0):
                zs.append(complex(c + 0.5 + a, t) / 2)
                got.append(kernel._loggamma(zs[-1]).real)
            with mpmath.workdps(30):
                ref = [float(mpmath.loggamma(mpmath.mpc(z.real, z.imag)).real)
                       for z in zs]
            for z, g, r in zip(zs, got, ref):
                assert abs(g - r) <= 32 * eps * (1 + abs(r)), (z, g, r)


def _w(xs):
    # both parities' rows at the ascending arguments xs, shape (2, n)
    xs = np.asarray(xs, dtype=np.float64)
    return w_eval_batch(np.empty((2, xs.size)), xs)


def _series(a, x):
    # the residue series at one argument, with no runtime check
    out = np.empty((2, 1))
    kernel._series_batch(np.array([float(x)]), out)
    return float(out[a, 0])


def test_quadrature_matches_series():
    # two completely different evaluation routes for the same contour
    # integral: vertical-line quadrature vs. the residue expansion
    xs = np.geomspace(1e-4, 2.0, 25)
    for a in (0, 1):
        for x in xs:
            quad = w_quad(a, float(x))
            ser = _series(a, x)
            assert abs(quad - ser) < 1e-10, (a, x, quad, ser)


def test_line_independence():
    # the integrand is holomorphic to the right of 0, so the answer cannot
    # depend on the abscissa of the integration line
    cfg_l = KernelConfig(c=0.7)
    cfg_r = KernelConfig(c=1.3)
    for a in (0, 1):
        for x in np.geomspace(1e-3, 8.0, 12):
            wl = w_quad(a, float(x), cfg_l)
            wr = w_quad(a, float(x), cfg_r)
            assert abs(wl - wr) < 1e-10


def test_batch_matches_scalar():
    # from the smallest table argument at q = 100003 up to the x_zero edge
    xs = np.geomspace(math.pi / 100003, 23.9, 40)
    batch = _w(xs)
    for a in (0, 1):
        scal = np.array([w_quad(a, float(x)) for x in xs])
        assert np.max(np.abs(batch[a] - scal)) < 1e-9


def test_step_check_rejects_coarse_step(kernel_config):
    # at h = 2 the trapezoid sum is far from converged; the sampled
    # comparison against the reference quadrature must refuse the table
    xs = np.geomspace(1e-3, 10.0, 40)
    with kernel_config(h=2.0), pytest.raises(KernelAccuracyError):
        _w(xs)
    _w(xs)


def test_swapped_configuration_leaves_no_cached_value(kernel_config):
    # the interpolant's coefficients built at h = 2 (their cache emptied
    # first, so that they are built there) are not read at the one
    # configuration: its values are the same bits before and after
    xs = np.geomspace(1e-3, 20.0, 200)
    before = _w(xs).tobytes()
    kernel._cheb_coef.cache_clear()
    with kernel_config(h=2.0):
        with pytest.raises(KernelAccuracyError):
            _w(xs)
    assert _w(xs).tobytes() == before


def test_step_check_passes_at_smallest_argument_of_max_q():
    # x = pi/q at q = 9,999,991: a step-h/2 reference on the line c = 1
    # is off from the series by 5.6e-11 (a = 0) and 1.65e-10 (a = 1),
    # rounding amplified by x^(-c), which would refuse the table at the
    # default eps; on the line c/2 it is off by under 1e-13
    xs = np.array([math.pi / 9_999_991, 1.0])
    got = _w(xs)
    for a in (0, 1):
        assert got[a].tolist() == [_series(a, x) for x in xs]


def test_step_check_rejects_coarse_step_on_quadrature_only_batch(
        kernel_config):
    # every argument is a quadrature argument (as in the kernel table at
    # q = 1, where x = pi m > 2), so only the reference's smaller step
    # error can show a coarse step: at h = 0.35 the values are off by
    # about 1.6e-8, the pole term 1/(e^(2 pi c/h) - 1), which a reference
    # with the same step-error term would cancel
    xs = np.geomspace(2.5, 20.0, 40)
    with kernel_config(h=0.35), pytest.raises(KernelAccuracyError):
        _w(xs)
    _w(xs)


def _w_series_mp(a, x, dps=80):
    # the residue expansion of the module docstring in 80-digit arithmetic
    with mpmath.workdps(dps):
        beta = mpmath.mpf(1) / 2 + a
        g0_sq = mpmath.gamma(beta / 2) ** 2
        x = mpmath.mpf(x)
        ln_x = mpmath.log(x)
        total = mpmath.mpf(1)
        k = 0
        while True:
            sigma = beta + 2 * k
            term = (4 / (mpmath.factorial(k) ** 2 * g0_sq * sigma) * x ** sigma
                    * (mpmath.digamma(k + 1) + 1 / sigma - ln_x))
            total -= term
            if k > 4 and abs(term) < mpmath.mpf(10) ** (-dps // 2):
                return float(total)
            k += 1


def test_default_step_matches_residue_series():
    # the batch against the exact kernel, series on x <= 2 and the
    # interpolant beyond; the quadrature alone was off by 2.0e-12 at the
    # smallest argument, rounding amplified by x^(-c)
    xs = np.geomspace(math.pi / 100003, 4.0, 16)
    got = _w(xs)
    for a in (0, 1):
        want = np.array([_w_series_mp(a, float(x)) for x in xs])
        assert np.max(np.abs(got[a] - want)) <= 1e-11, a


def test_interpolant_matches_residue_series():
    # on 2 < x < x_zero, where the double-precision series cancels, the
    # Chebyshev interpolants against the series at 100 digits: measured
    # 1.7e-17 (a = 0) and 2.5e-17 (a = 1) on four pieces of degree 17,
    # 1.4e-17 and 2.8e-17 on one interval of degree 38; with the cosine
    # angles j theta_m rounded unreduced the a = 1 gap was 2.3e-16 there
    xs = np.geomspace(2.001, 23.9, 30)
    got = _w(xs)
    for a in (0, 1):
        want = np.array([_w_series_mp(a, float(x), dps=100) for x in xs])
        assert np.max(np.abs(got[a] - want)) <= 1.5e-16, a


def test_interpolated_value_does_not_depend_on_batch():
    # the interpolant depends on a and the config only, so a value
    # evaluated alone is the same float as inside a full table
    q = 10007
    kw = kernel_weights(q)
    m = np.unique(np.geomspace(q, kw.m_eff, 25).round().astype(np.int64))
    for k in m:
        x = math.pi * float(k) / q
        assert x > 2.0
        w = _w([x])[:, 0]
        for a in (0, 1):
            assert w[a] * (1.0 / math.sqrt(k)) == kw.kprod[a][k], (a, k)


def test_interpolant_rejects_low_degree(monkeypatch):
    # a degree too low for the strip leaves trailing coefficients far
    # above eps, and the guard refuses the interpolant
    xs = np.geomspace(2.5, 20.0, 40)
    monkeypatch.setattr(kernel, "_cheb_degree", lambda log_width: 8)
    with pytest.raises(KernelAccuracyError, match="trailing"):
        _w(xs)


def _piece_ends():
    # every end in x between two of the interpolant's pieces, with the
    # floats just below and just above it
    ends = [math.exp(kernel._cheb_piece(kernel._CONFIG, k)[0])
            for k in range(1, kernel._CHEB_PIECES)]
    return [y for e in ends
            for y in (np.nextafter(e, 0.0), e, np.nextafter(e, math.inf))]


def test_interpolant_pieces_match_residue_series_at_their_ends():
    # each piece is good up to its ends, from both sides: the bound of
    # test_interpolant_matches_residue_series on the floats around every
    # inner end
    xs = np.array(_piece_ends())
    assert xs.size == 3 * (kernel._CHEB_PIECES - 1)
    got = _w(xs)
    for a in (0, 1):
        want = np.array([_w_series_mp(a, float(x), dps=100) for x in xs])
        assert np.max(np.abs(got[a] - want)) <= 1.5e-16, a


def test_batch_across_piece_ends_matches_single_points():
    # one ascending batch that straddles every piece end gives each
    # argument the float it gets alone: the split between pieces depends
    # on x, not on the batch
    xs = np.sort(np.concatenate((np.geomspace(2.0, 23.9, 41),
                                 _piece_ends())))
    alone = np.stack([_w([x])[:, 0] for x in xs], axis=1)
    assert np.array_equal(_w(xs), alone)


def test_head_table_matches_residue_series():
    # the B head (x <= pi/2) comes from the series in double precision:
    # measured 8.5e-16 from the 80-digit sum at these points of the head
    # at q = 100003, 1.7e-15 over the whole head
    q = 100003
    kw = kernel_weights(q, head_only=True)
    m = np.unique(np.geomspace(1, kw.z_floor, 16).round().astype(np.int64))
    for a in (0, 1):
        want = np.array([_w_series_mp(a, math.pi * int(k) / q) for k in m])
        assert np.max(np.abs(kw.kprod[a][m] * np.sqrt(m) - want)) <= 1e-14, a


def test_step_check_covers_series_only_batch(kernel_config):
    # every argument is a series argument, and the runtime check still
    # compares samples against the reference quadrature, here unconverged
    xs = np.geomspace(1e-3, 1.5, 40)
    with kernel_config(h=2.0), pytest.raises(KernelAccuracyError):
        _w(xs)
    _w(xs)


def test_scalar_series_is_one_element_batch():
    # the series on one argument is the batch's value, bit for bit, and
    # the same float as inside a batch: the series takes its term count
    # from the end of its path, x = 2, not from the batch's largest argument
    xs = np.linspace(0.01, 2.0, 200)
    batch = _w(xs)
    for a in (0, 1):
        for x in np.geomspace(1e-5, 2.0, 23):
            assert _series(a, x) == _w([x])[a, 0]
        alone = [_series(a, x) for x in xs]
        assert alone == batch[a].tolist(), a


@pytest.mark.parametrize("q", [129, 277, 2999, 10007, 100003])
def test_head_only_table_is_prefix_of_full_table(q):
    # every kernel value depends on (a, x) alone, so the head-only table
    # holds the full table's first z_floor + 1 entries bit for bit
    head, full = kernel_weights(q, head_only=True), kernel_weights(q)
    for a in (0, 1):
        assert np.array_equal(head.kprod[a],
                              full.kprod[a][:head.z_floor + 1]), a


def test_horner_blocks_do_not_change_values(monkeypatch):
    # the series (x <= 2, Horner's rule) and the interpolant (x > 2,
    # Clenshaw's recurrence) both run in blocks of _HORNER_BLOCK points; a
    # ragged last block included, each value is the same float whatever
    # the block size
    xs = np.geomspace(1e-3, 20.0, 1001)
    default = _w(xs)
    monkeypatch.setattr(kernel, "_HORNER_BLOCK", 7)
    assert np.array_equal(_w(xs), default)


def test_default_step_converged_over_table(kernel_config):
    # every kernel value of the table at q = 10007 against the kernel at
    # half the default step; the series values (x <= 2) do not depend on h
    q = 10007
    kw = kernel_weights(q)
    m = np.arange(1, kw.m_eff + 1, dtype=np.float64)
    with kernel_config(h=kernel._CONFIG.h / 2):
        fine = _w(math.pi * m / q)
    for a in (0, 1):
        gap = np.abs(kw.kprod[a][1:] * np.sqrt(m) - fine[a])
        assert np.max(gap) <= 1e-12, a


@pytest.mark.parametrize("xs", [
    [2.0, 1.0], [0.5, 3.0, 1.0], [0.5, math.nan, 3.0], [math.nan],
    [0.5, math.inf], [0.0, 1.0], [-1.0, 1.0], [[0.5, 1.0], [1.5, 2.0]],
], ids=["descending", "unsorted", "nan", "nan-only", "inf", "zero",
        "negative", "2-d"])
def test_batch_rejects_other_than_ascending_positive_1d(xs):
    xs = np.array(xs)
    with pytest.raises(ValueError, match="ascending"):
        w_eval_batch(np.empty((2, xs.size)), xs)


@pytest.mark.parametrize("out", [
    np.empty((2, 2)), np.empty((1, 3)), np.empty((3, 3)), np.empty(6),
    np.empty((2, 3), dtype=np.float32), [[0.0] * 3] * 2, 0,
], ids=["short", "one-row", "three-rows", "1-d", "float32", "list",
        "parity"])
def test_batch_rejects_other_than_two_float64_rows(out):
    # out must hold one float64 row per parity, as long as xs; the old
    # call shape w_eval_batch(a, xs) is refused too
    xs = np.array([0.5, 1.0, 3.0])
    with pytest.raises(ValueError, match="out must be"):
        w_eval_batch(out, xs)


def test_batch_writes_rows_in_place_and_zeros_past_x_zero():
    # every entry of out is written, the values at x >= x_zero with 0.0,
    # and out itself is returned; a strided out gets the same bits
    xs = np.array([0.5, 3.0, kernel._CONFIG.x_zero, 40.0])
    out = np.full((2, xs.size), np.nan)
    assert w_eval_batch(out, xs) is out
    assert np.all(out[:, 2:] == 0.0) and np.all(out[:, :2] > 0.0)
    wide = np.full((2, 2 * xs.size), np.nan)
    w_eval_batch(wide[:, ::2], xs)
    assert np.array_equal(wide[:, ::2], out)
    assert np.all(np.isnan(wide[:, 1::2]))


def test_batch_on_empty_input_is_empty():
    assert _w(np.array([])).shape == (2, 0)


@pytest.mark.parametrize("head_only", [True, False])
def test_table_is_batch_times_inverse_sqrt(head_only):
    # kprod[a][m] is W_a(pi m / q) rounded once by 1/sqrt(m), whatever the
    # table's extent
    q = 10007
    kw = kernel_weights(q, head_only=head_only)
    m = np.arange(1, kw.m_eff + 1, dtype=np.float64)
    want = _w(math.pi * m / q) * (1.0 / np.sqrt(m))
    for a in (0, 1):
        assert kw.kprod[a][0] == 0.0
        assert np.array_equal(kw.kprod[a][1:], want[a]), a


def test_limits():
    # W(x) -> 1 as x -> 0+ and the hard cutoff returns exactly zero
    for w in _w([1e-6, kernel._CONFIG.x_zero, 1e9]):
        assert abs(w[0] - 1.0) < 1e-2
        assert w[1] == 0.0
        assert w[2] == 0.0


def test_monotone_decreasing_samples():
    xs = np.geomspace(1e-3, 12.0, 30)
    for a in (0, 1):
        vals = [w_quad(a, float(x)) for x in xs]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo < hi + 1e-12
        assert all(v > 0 for v in vals)


def test_odd_kernel_dominates():
    # the odd-case gamma factors decay slower, so W_1 >= W_0 pointwise
    for x in np.geomspace(1e-3, 10.0, 15):
        assert w_quad(1, float(x)) > w_quad(0, float(x))


def test_exponential_decay_rate():
    # measured on the steep-descent line c = 2x the tail keeps full
    # relative accuracy; the decay constant is 2, with an extra algebraic
    # factor for the even kernel (regression bands measured once and
    # frozen: slopes -2.105 and -1.999)
    slope_bands = {0: (-2.20, -2.00), 1: (-2.05, -1.95)}
    for a in (0, 1):
        xs = np.linspace(4.0, 16.0, 7)
        vals = []
        for x in xs:
            cfg = KernelConfig(c=2.0 * float(x), x_zero=64.0)
            w = w_quad(a, float(x), cfg)
            assert 0.0 < w <= 1.3 * math.exp(-2.0 * float(x))
            vals.append(w)
        slope = np.polyfit(xs, np.log(vals), 1)[0]
        lo, hi = slope_bands[a]
        assert lo < slope < hi


def test_small_x_envelope():
    # |W - 1| = O(x^(1/2) log(1/x)) near zero; the frozen check uses the
    # slightly weaker exponent 0.4 with a measured constant
    for a in (0, 1):
        for x in np.geomspace(1e-4, 0.5, 9):
            w = w_quad(a, float(x))
            assert abs(w - 1.0) <= 5.0 * float(x) ** 0.4


def test_eval_domain():
    with pytest.raises(ValueError):
        _w([-1.0])


def test_cache_keyed_by_config():
    # same x under different configs agrees, and clearing the node cache
    # does not change a value
    x = 0.37
    v1 = w_quad(0, x, KernelConfig(c=0.9))
    v2 = w_quad(0, x, KernelConfig(c=1.1))
    assert abs(v1 - v2) < 1e-10
    kernel._nodes.cache_clear()
    assert abs(w_quad(0, x) - v1) < 1e-10


@pytest.mark.parametrize("a", [0, 1])
def test_shared_check_covers_each_parity_series(monkeypatch, a):
    # one runtime check serves both rows: a series coefficient of parity
    # a off by one part in 10^6 (the other parity untouched) moves W_a by
    # far more than eps, and the head-only table at 10007 (all series
    # arguments) is refused, naming W_a
    real = kernel._series_coef

    def perturbed(par):
        pc, qc = real(par)
        if par == a:
            pc = (pc[0] * (1 + 1e-6),) + pc[1:]
        return pc, qc

    monkeypatch.setattr(kernel, "_series_coef", perturbed)
    with pytest.raises(KernelAccuracyError, match=f"W_{a} "):
        kernel_weights(10007, head_only=True)


@pytest.mark.parametrize("k", range(kernel._CHEB_PIECES))
@pytest.mark.parametrize("a", [0, 1])
def test_shared_check_covers_each_parity_interpolant(monkeypatch, a, k):
    # the check's quantile sample of the full table at 10007 lands in
    # every interpolant piece: piece k of parity a shifted by 10 eps (the
    # other parity untouched) is refused, naming W_a
    real = kernel._cheb_coef

    def perturbed(par, cfg, piece, n):
        coef = real(par, cfg, piece, n)
        if (par, piece) == (a, k):
            coef = coef.copy()
            coef[0] += 10 * cfg.eps
        return coef

    monkeypatch.setattr(kernel, "_cheb_coef", perturbed)
    with pytest.raises(KernelAccuracyError, match=f"W_{a} "):
        kernel_weights(10007)


def test_table_peak_memory():
    # kernel_weights fills kprod in place, with no per-parity temporary:
    # at q = 100003 the traced peak is m, x, 1/sqrt(m) and both rows of
    # kprod plus the kernel's per-block scratch, measured 5.30 x 8 m_eff
    # bytes (6.26 x with a copied row per parity)
    q = 100003
    kernel_weights(q)  # caches built outside the trace
    tracemalloc.start()
    try:
        kw = kernel_weights(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 8 * kw.m_eff, peak / (8 * kw.m_eff)
