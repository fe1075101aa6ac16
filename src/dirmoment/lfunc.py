"""Central values of Dirichlet L-functions, two independent ways.

The oracle route evaluates L(1/2, chi) for primitive chi through the
Hurwitz zeta function,

    L(1/2, chi) = q^(-1/2) sum_{a=1}^{q} chi(a) zeta(1/2, a/q),

with zeta(s, a) computed by Euler-Maclaurin summation (_hurwitz_em).
The Hurwitz values zeta(1/2, u/q) that the oracle here and the
all-character transform in spectra read (_hurwitz_at, at every residue
or at the units) are x^(-1/2) + zeta(1/2, 1 + x) at x = u/q, the second
term from one Chebyshev interpolant on [0, 1] (_hurwitz_cheb, built once
from Euler-Maclaurin nodes) evaluated by the kernel's blocked Clenshaw
recurrence.  The table agrees with the Euler-Maclaurin sum to rounding,
not bit for bit.
The smoothed route evaluates the rapidly truncating double sum

    A(chi) = sum_{a,b >= 1} chi(a) chibar(b) / sqrt(ab) * W_a(pi a b / q),

which satisfies |L(1/2, chi)|^2 = 2 A(chi) for primitive chi mod q >= 3.
A is split as B + C at the product threshold Z = q / 2^omega(q); the B/C
membership test is the exact integer predicate a*b * 2^omega(q) <= q.  A
sum over the head B needs kernel values up to Z only
(kernel_weights(..., head_only=True)).

The double sum visits each unordered coprime pair a <= b with
0 < ab <= m_eff once, in the fixed order of _coprime_pair_chunks, the
one pair enumerator (slices of _PAIR_BATCH pairs that may end anywhere);
_unordered_pairs concatenates the slices once, capped at _MAX_PAIRS, and
_pairs holds them in one cache entry per modulus, the head (ab <= Z)
then the tail, with the head's length.  The term of (b, a) is the same
float as that of (a, b), so a pair off the diagonal enters as its term
doubled (exact) and a diagonal pair a = b once.  A character's terms,
formed in one numpy pass, are added exactly by one _exact_sum pass cut
at the head (one bin per eight exponents): B and C are the exact head
and tail sums rounded once, and A their exact total rounded once, each
the correctly rounded sum over the ordered pairs that math.fsum gives,
so it does not depend on term order and reruns are bit-identical.  The
oracle adds chi(a) zeta(1/2, a/q) over the units with math.fsum.

Both routes compute each conjugate class {chi, chibar} once per modulus,
into one store (_class_values), and that is exact: char_values(chibar)
is exactly the conjugate of char_values(chi), so chibar's terms
Re x_a Re x_b + Im x_a Im x_b are chi's floats and its oracle fsums
chi's, the imaginary one negated.  The smoothed sums (_class_sums) follow
the kernel values they read, not a table object, so error_sum_E's
head-only table reads the B values of abc_values.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import coprime_mask, two_pow_omega
from .chargroup import CharacterGroup, CharacterLabel, build_group
from .kernel import (_CONFIG, _HORNER_BLOCK, _cheb_interp, _clenshaw,
                     w_eval_batch)

__all__ = [
    "CentralValue",
    "KernelWeights",
    "kernel_weights",
    "l_half_oracle",
    "abc_values",
]

# B_{2j} for 2j = 2..24, one per Bernoulli correction of _hurwitz_em
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730),
)
_B_OVER_FACT = tuple(
    float(b / math.factorial(2 * (j + 1))) for j, b in enumerate(_BERNOULLI))

_MAX_PAIRS = 60_000_000   # cap on a materialized pair enumeration
_MAX_TABLE_PAIRS = 3e8    # cap on a streamed residue-table build
_PAIR_BATCH = 1 << 14      # pairs per enumerated slice, ~70 bytes each
_SUM_CHUNK = 1 << 16      # terms per pass of _exact_sum, at most 2^23
_EXACT_SCALE = 1 << 1126  # _exact_sum counts units of 2^-1126


# Euler-Maclaurin depth: direct terms, then Bernoulli corrections
_EM_TERMS, _EM_BERNOULLI = 24, 12
# Degree of the Chebyshev interpolant of zeta(1/2, a) on [1, 2].  The
# function is analytic off a <= 0, so its coefficients decay like
# (3 + sqrt 8)^-k (Trefethen, Approximation Theory and Approximation
# Practice, ch. 8): measured 4.8e-12, 8.0e-13, 1.3e-13, 2.2e-14 and
# 3.8e-15 at k = 14..18, then a rounding floor of a few 1e-16 from k = 19.
# At degree 22 the first omitted one is about 5e-19.
_HURWITZ_DEGREE = 22
# Trailing coefficients above this mean the degree no longer resolves the
# function; the truncation error is then about a sixth of them.
_HURWITZ_TAIL = 1e-14


def _hurwitz_em(s: float, a: np.ndarray) -> np.ndarray:
    """zeta(s, a) for every element of a float array, by Euler-Maclaurin,
    in the array's precision (float64, or np.longdouble for the nodes of
    _hurwitz_cheb), with elementwise numpy operations only.

    Supported region: real 0 < s < 1 (continuation through the shifted
    tail integral) and a > 0.  At the depth (_EM_TERMS, _EM_BERNOULLI)
    the truncation error is far below double rounding for a >= 1e-3.

    Terms are added from the smallest to the largest: the direct terms
    (a + k)^-s from k = _EM_TERMS - 1 down to 0, the _EM_BERNOULLI
    Bernoulli corrections as a polynomial in (a + _EM_TERMS)^-2 by
    Horner's rule.
    """
    coef = []
    poch = s                      # (s)(s+1)...(s+2j-2), one factor so far
    for j in range(_EM_BERNOULLI):
        coef.append(_B_OVER_FACT[j] * poch)
        poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
    direct = (a + (_EM_TERMS - 1)) ** -s
    for k in range(_EM_TERMS - 2, -1, -1):
        direct += (a + k) ** -s
    na = a + _EM_TERMS
    p = na ** -s
    inv_sq = 1.0 / (na * na)
    poly = np.zeros(a.shape, dtype=a.dtype)
    for c in reversed(coef):
        poly *= inv_sq
        poly += c
    return direct + (poly * (p / na) + 0.5 * p + p * na / (s - 1.0))


@lru_cache(maxsize=1)
def _hurwitz_cheb() -> np.ndarray:
    """Chebyshev coefficients of zeta(1/2, a) on 1 <= a <= 2, degree
    _HURWITZ_DEGREE, from _hurwitz_em at the nodes, in np.longdouble up to
    the final rounding to float64.  A coefficient's error moves every
    table entry the same way, so it adds up over the units: in float64
    (where the Euler-Maclaurin sum loses a digit to cancellation, direct
    terms near 8 against a tail near -10) the principal character's
    L(1/2, chi_0) at q = 255255 came out 4.8e-13 off in relative terms,
    from extended-precision coefficients 1.7e-14 off (x86-64).  Trailing
    coefficients above _HURWITZ_TAIL raise KernelAccuracyError.  The
    cached array is shared and read-only."""
    coef = _cheb_interp(lambda a: _hurwitz_em(0.5, a.astype(np.longdouble)),
                        1.0, 2.0, _HURWITZ_DEGREE,
                        _HURWITZ_TAIL).astype(np.float64)
    coef.flags.writeable = False
    return coef


def _hurwitz_at(q: int, u: np.ndarray) -> np.ndarray:
    """zeta(1/2, u/q) for every residue of the int array u, with u = 0
    read as u = q (the value zeta(1/2, 1), the one unit residue when
    q = 1), as x^(-1/2) + zeta(1/2, 1 + x) at x = u/q: the first term is
    sqrt(q/u), the second the interpolant of _hurwitz_cheb at s = 2x - 1,
    whose 2 s = (4u - 2q)/q is rounded once.  Elementwise, in blocks of
    _HORNER_BLOCK residues, so a residue's value does not depend on the
    array it sits in and no other array of u's length is held."""
    coef = _hurwitz_cheb()
    hz = np.empty(u.size)
    for lo in range(0, u.size, _HORNER_BLOCK):
        x = u[lo:lo + _HORNER_BLOCK].astype(np.float64)
        x[x == 0.0] = q
        y = 4.0 * x
        y -= 2.0 * q
        y /= q
        block = _clenshaw(coef, y)
        np.divide(q, x, out=x)
        block += np.sqrt(x, out=x)
        hz[lo:lo + block.size] = block
    return hz


@lru_cache(maxsize=1)
def _class_values(q: int) -> dict:
    """The per-character results at modulus q, one per conjugate class
    {chi, chibar}, keyed by the smaller of the two exponent tuples,
    chi's: 'oracle' holds its L(1/2, chi), 'abc' its sums (_class_sums,
    which reads and sets 'kprod' and 'weights'); 'hz' is _hurwitz_at the
    units in label order.  Only the last modulus is kept."""
    return {"oracle": {}, "abc": {}, "hz": None,
            "kprod": np.zeros((2, 0)), "weights": None}


def _class_key(G: CharacterGroup, chi: CharacterLabel
               ) -> tuple[tuple[int, ...], bool]:
    """The key of chi's conjugate class in _class_values, and whether chi
    is the conjugate of the character it names."""
    bar = G.conjugate_exponents(chi)
    return min(chi.exponents, bar), bar < chi.exponents


def l_half_oracle(G: CharacterGroup, chi: CharacterLabel) -> complex:
    """L(1/2, chi) for primitive chi mod q >= 3 via Hurwitz zeta values
    at the units (once per modulus); for chibar, the exact conjugate of
    chi's (once per class and modulus)."""
    q = G.q
    if q < 3 or not chi.primitive:
        raise ValueError(
            "the Hurwitz-zeta route needs a primitive character of modulus"
            f" >= 3; got q = {q}, primitive = {chi.primitive}")
    key, flip = _class_key(G, chi)
    store = _class_values(q)
    known = store["oracle"]
    if key in known:
        return known[key].conjugate() if flip else known[key]
    if store["hz"] is None:
        store["hz"] = _hurwitz_at(q, G.unit_residues())
    z, hz = G.char_values(chi), store["hz"]
    val = complex(math.fsum((z.real * hz).tolist()),
                  math.fsum((z.imag * hz).tolist())) / math.sqrt(q)
    known[key] = val.conjugate() if flip else val
    return val


@dataclass
class KernelWeights:
    """Kernel values shared verbatim by every pipeline at one modulus.

    kprod[a][m] = W_a(pi m / q) / sqrt(m) for 1 <= m <= m_eff, index 0
    zero padding: every smoothed sum reads the kernel at a product m = ab
    in this form.  kprod is one (2, m_eff + 1) float64 array, row a the
    parity a, so a sum over both parities can read both rows in one
    slice.  m_eff is the effective truncation: products beyond it
    sit past the kernel's hard zero cutoff, so every sum over ab can stop
    there.
    """

    q: int
    z_floor: int   # largest m with m * 2^omega(q) <= q
    m_eff: int
    kprod: np.ndarray  # (2, m_eff + 1) float64, row a = parity a


def truncation_bound(q: int) -> int:
    """Effective upper bound m_eff = floor(x_zero q / pi) for products ab
    in the smoothed sums: W_a(pi ab / q) is exactly zero past it, at the
    kernel's hard zero x_zero."""
    return math.floor(_CONFIG.x_zero * q / math.pi)


def kernel_weights(q: int, *, head_only: bool = False) -> KernelWeights:
    """Kernel values for 1 <= m <= m_eff.  With head_only the table stops
    at z_floor, where the B head ends, and m_eff is set to z_floor: such a
    table serves the B tables but no sum over the tail.  One w_eval_batch
    call writes both parities into kprod[:, 1:] in place, which is then
    scaled by 1/sqrt(m): the peak holds m, x, 1/sqrt(m) and kprod, with
    no temporary row."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    z_floor = q // two_pow_omega(q)
    m_eff = truncation_bound(q)
    if head_only:
        m_eff = min(m_eff, z_floor)
    m = np.arange(1, m_eff + 1, dtype=np.float64)
    x = math.pi * m / q
    inv_sqrt = 1.0 / np.sqrt(m)
    kprod = np.zeros((2, m_eff + 1))
    w_eval_batch(kprod[:, 1:], x)
    kprod[:, 1:] *= inv_sqrt
    return KernelWeights(q, z_floor, m_eff, kprod)


def _resolve_weights(q: int, weights: Optional[KernelWeights], *,
                     head_only: bool) -> KernelWeights:
    """`weights` checked against q, or a fresh table when None.  A sum
    over the B head accepts a head-only table (head_only=True); every
    other sum needs the full one."""
    if weights is None:
        return kernel_weights(q, head_only=head_only)
    if weights.q != q:
        raise ValueError("weights were built for a different modulus")
    if not head_only and weights.m_eff != truncation_bound(q):
        raise ValueError("weights stop at the B head; this sum needs the "
                         "full table")
    return weights


@dataclass(frozen=True)
class CentralValue:
    """Smoothed-sum output for one character."""

    label: CharacterLabel
    q: int
    a_value: float    # A = B + C, rounded once over all terms
    b_value: float    # head: products ab <= Z
    c_value: float    # tail: Z < ab <= m_eff
    m_eff: int


def _coprime_pair_chunks(q: int, lo: int, hi: int
                         ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every unordered pair a <= b of integers coprime to q with
    lo < ab <= hi, exactly once, in a fixed order.

    With s = isqrt(hi): one run per a = 1..s, each with every
    max(a, lo // a + 1) <= b <= hi // a in increasing order.  A range
    that starts past 0 skips the products up to lo instead of
    enumerating them.  The order is yielded as int64 arrays (a, b) in
    consecutive slices of _PAIR_BATCH pairs, which may end anywhere,
    inside the run of one a too.  The coprime integers come from the
    residues coprime to q in [1, q], so nothing here grows with hi but
    the runs.  The pair (b, a) is left to the caller: its term equals
    that of (a, b) in every smoothed sum.
    """
    res = np.flatnonzero(coprime_mask(q, q)[1:])
    res += 1
    phi = res.size

    def count(x):  # coprime integers in [1, x], elementwise
        return x // q * phi + np.searchsorted(res, x % q, side="right")

    def nth(n):  # the coprime integers at 0-based positions n
        k = n // phi  # numpy divides by a scalar several times faster
        n -= k * phi  # than it takes a remainder (%, divmod)
        k *= q
        k += res[n]
        return k

    a = nth(np.arange(count(math.isqrt(hi))))
    start = np.maximum(np.arange(a.size), count(lo // a))  # b >= a, ab > lo
    runs = np.maximum(count(hi // a) - start, 0)
    end = np.cumsum(runs)  # run i holds the pairs first[i] .. end[i] - 1
    first = end - runs     # of the order, at b = nth(pair + shift[i])
    shift = start - first
    ends = end.tolist()
    top = ends[-1] if ends else 0
    for p in range(0, top, _PAIR_BATCH):
        e = min(p + _PAIR_BATCH, top)
        i, j = bisect_right(ends, p), bisect_left(ends, e) + 1
        n = np.minimum(end[i:j], e) - np.maximum(first[i:j], p)
        yield a[i:j].repeat(n), nth(np.arange(p, e) + shift[i:j].repeat(n))


def _unordered_pairs(q: int, bounds: Sequence[int]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of _coprime_pair_chunks(q, lo, hi), range after range
    over bounds = (lo, ..., hi), as two int64 arrays (a, b), a <= b: the
    one place pairs are held, capped at _MAX_PAIRS before any is built."""
    _check_pair_count(bounds[-1], _MAX_PAIRS)
    empty = np.empty(0, dtype=np.int64)
    return tuple(np.concatenate(c) for c in zip(
        (empty, empty), *(chunk for lo, hi in zip(bounds, bounds[1:])
                          for chunk in _coprime_pair_chunks(q, lo, hi))))


def _coprime_pairs(q: int, lo: int, hi: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (a, b) of integers coprime to q with
    lo < ab <= hi, as two int64 arrays: the unordered pairs a <= b, then
    the swaps (b, a) of those with a < b."""
    a, b = _unordered_pairs(q, (lo, hi))
    off = a != b
    return np.concatenate((a, b[off])), np.concatenate((b, a[off]))


def _check_pair_count(hi: int, cap: float) -> None:
    """Refuse a pass over the products up to hi, estimated in ordered
    pairs, over cap: _MAX_PAIRS from _unordered_pairs (pairs held),
    _MAX_TABLE_PAIRS from compute_spectrum (tables streamed)."""
    est = hi * (math.log(max(hi, 1)) + 1.0)
    if est > cap:
        raise ValueError(
            f"naive pair enumeration would need ~{est:.2e} entries; use "
            "spectra.compute_spectrum or fourth_moment at this modulus"
            if cap == _MAX_PAIRS else f"table build up to ab = {hi} needs "
            f"~{est:.2e} pairs, over the cost cap")


@lru_cache(maxsize=1)
def _pairs(q: int) -> tuple[tuple[np.ndarray, ...], int]:
    """Unordered coprime pairs a <= b with ab <= m_eff, the head
    (ab <= z_floor) then the tail, as columns (ab, label of a, label of
    b, mult), and the head's length: int64, the labels those of the group
    mod q (CharacterGroup.residue_labels), and mult the float64 count of
    ordered pairs each one stands for, 2 off the diagonal and 1 on it.
    Shared and read-only, one modulus at a time (160 MiB at 100003)."""
    z = q // two_pow_omega(q)
    a, b = _unordered_pairs(q, (0, z, truncation_bound(q)))
    ab = a * b
    lab = build_group(q).residue_labels()
    cols = (ab, lab[a % q], lab[b % q], np.where(a == b, 1.0, 2.0))
    for col in cols:
        col.flags.writeable = False
    return cols, int(np.count_nonzero(ab <= z))


def _pair_terms(vals: np.ndarray, kp: np.ndarray,
                pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Re chi(a) chibar(b) kp[ab] times mult over the unordered pairs of
    _pairs, from vals = CharacterGroup.char_values(chi) in label order, as
    a float64 array; from a stack of such rows, one per character, the
    terms of each character along its row.
    The ordered pairs (a, b) and (b, a) give the same real part, bit for
    bit (products commute), and imaginary parts that are exact negatives,
    so the imaginary sum is 0.0 and is not formed, and one term doubled
    (an exact operation) stands for both.

    Real arithmetic, (Re x_a Re x_b + Im x_a Im x_b) kp[ab] mult in that
    order, formed in place, one rounding per operation: each term is the
    same float wherever the pair sits in the arrays.  The sum of the terms,
    exact (_exact_sum) or correctly rounded (math.fsum), is the same as
    over the ordered pairs, in any order.
    """
    ab, ua, ub, mult = pairs
    xa, xb = vals.take(ua, axis=-1), vals.take(ub, axis=-1)
    terms = xa.real * xb.real
    terms += xa.imag * xb.imag
    terms *= kp[ab]
    terms *= mult
    return terms


def _exact_sum(x: np.ndarray, cuts: Sequence[int]
               ) -> tuple[list[float], float]:
    """The sums of the consecutive segments x[:c_1], x[c_1:c_2], ...,
    x[c_k:] of a finite float64 array, cut at the non-decreasing
    cuts = (c_1, ..., c_k) in [0, x.size] (an empty segment sums to 0),
    and of the whole array, each the correctly rounded sum, ties to even,
    that math.fsum gives, +0.0 for a zero sum: an exact Python int in
    units of 2^-1126, of which every float64 is an integer multiple,
    divided by _EXACT_SCALE (CPython's int true division rounds once).

    One bin per eight exponents (R. Neal, arXiv:1505.05571): with
    x = f 2^e, 1/2 <= |f| < 1 (np.frexp), and e_min the least e of a
    pass, each f is scaled by 2^(23 + (e - e_min) mod 8) and binned by
    (e - e_min) div 8, offset by its segment's position times the number
    of bins, so one np.bincount per part bins every segment.  The scaled
    f is below 2^30 in magnitude and a multiple of 2^-30: its floor and
    the fraction left, multiples of 1 and of 2^-30 below 2^30 and 1 in
    magnitude, have sums per bin that stay exact for up to 2^23 terms a
    pass.  Each segment's bins are then combined as Python ints.  Arrays
    longer than _SUM_CHUNK are summed in passes of that many terms, each
    binning the segments it meets.
    """
    if not np.isfinite(x).all():
        raise ValueError("exact sum needs finite terms")
    bounds = [0, *cuts, x.size]
    sums = [0] * (len(bounds) - 1)
    for start in range(0, x.size, _SUM_CHUNK):
        stop = min(start + _SUM_CHUNK, x.size)
        first = bisect_right(bounds, start) - 1  # segments first..last-1
        last = bisect_left(bounds, stop)         # meet this pass
        edges = bounds[first:last + 1]
        edges[0], edges[-1] = start, stop
        k = last - first
        frac, e = np.frexp(x[start:stop])
        e0 = int(e.min())
        e -= e0
        np.ldexp(frac, (e & 7) + 23, out=frac)
        whole = np.floor(frac)
        frac -= whole
        e >>= 3
        nb = int(e.max()) + 1
        idx = np.repeat(np.arange(0, k * nb, nb),
                        [b - a for a, b in zip(edges, edges[1:])])
        idx += e
        whole, frac = (np.bincount(idx, weights=w, minlength=k * nb)
                       for w in (whole, frac))
        frac *= 2.0 ** 30
        his, los = (w.astype(np.int64).reshape(k, nb)[:, ::-1].tolist()
                    for w in (whole, frac))
        for s, hs, ls in zip(range(first, last), his, los):
            acc = 0
            for h, lo in zip(hs, ls):
                acc = (acc << 8) + (h << 30) + lo
            sums[s] += acc << (e0 + 1073)  # units of 2^(e0 - 53)
    return [n / _EXACT_SCALE for n in sums], sum(sums) / _EXACT_SCALE


def _class_sums(G: CharacterGroup, chi: CharacterLabel,
                weights: KernelWeights) -> tuple[float, ...]:
    """chi's sums (B,) from a head-only table, or (B, C, A) from a full
    one (m_eff past z_floor, as x_zero > pi makes it), once per conjugate
    class in the store of _class_values.  A new table keeps the stored
    sums if its kernel values equal, bit for bit, those in 'kprod' (a
    copy of the widest table they agree with) over the range both cover,
    and drops them if not.
    On a miss, chi's terms over the pairs of _pairs (the head rows only
    for a head-only table) are added exactly in one _exact_sum pass cut at
    the head: B and C are the exact head and tail sums and A their exact
    total, each rounded once."""
    pairs, n_head = _pairs(G.q)
    store = _class_values(G.q)
    if weights is not store["weights"]:
        kp, ref = weights.kprod, store["kprod"]
        n = min(kp.shape[1], ref.shape[1])
        if not np.array_equal(kp[:, :n], ref[:, :n]):
            store.update(abc={}, kprod=kp.copy())
        elif kp.shape[1] > n:
            store["kprod"] = kp.copy()
        store["weights"] = weights
    full = weights.m_eff > weights.z_floor
    known = store["abc"]
    key = _class_key(G, chi)[0]
    if len(known.get(key, ())) < 1 + 2 * full:
        rows = pairs if full else tuple(col[:n_head] for col in pairs)
        terms = _pair_terms(G.char_values(chi), weights.kprod[chi.parity],
                            rows)
        (b, c), a = _exact_sum(terms, (n_head,))
        known[key] = (b, c, a) if full else (b,)
    return known[key]


def abc_values(G: CharacterGroup, chi: CharacterLabel, *,
               weights: Optional[KernelWeights] = None) -> CentralValue:
    """A(chi), B(chi), C(chi) by direct, correctly rounded summation.

    This is the reference pipeline: one character at a time, no residue
    grouping.  Shares kernel values through `weights` so that comparisons
    against the table pipeline test only the reorganization of the sum.
    The sums are _class_sums': chibar has chi's terms bit for bit, so
    each conjugate class is summed once per modulus and kernel values.
    A table is checked against q unless it is the store's current one
    (checked here, or error_sum_E's own).
    """
    _pairs(G.q)  # refused over the cap before any table
    if weights is None or weights is not _class_values(G.q)["weights"]:
        weights = _resolve_weights(G.q, weights, head_only=False)
    b, c, a = _class_sums(G, chi, weights)
    return CentralValue(label=chi, q=G.q, a_value=a, b_value=b, c_value=c,
                        m_eff=weights.m_eff)
