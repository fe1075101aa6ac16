"""Fourth-moment pipeline: residue-class tables + group transform.

Because chi(a) chibar(b) = chi(a b^{-1} mod q) on coprime pairs, the
double sum A(chi) collapses to a single pass over residue classes:

    S_a(u) = sum over coprime pairs with a b^{-1} = u (mod q) and
             lo < ab <= hi of W_a(pi a b / q) / sqrt(ab)
    A(chi) = sum_u chi(u) S_a(u)        (a = parity of chi).

Every character reads one table per product range, the fold

    T(u) = (S_0(u) + S_0(-u) + S_1(u) - S_1(-u)) / 2,

the even part of S_0 plus the odd part of S_1: an even chi sums an odd
table to zero and an odd chi an even one, so sum_u chi(u) T(u) =
sum_u chi(u) S_a(u) on every chi of parity a, and T(u^-1) = T(u) keeps
the values real up to rounding.  _table builds T for one product range
directly, without S_0 or S_1, and returns it over the units in label
order, the order every reader of a table takes.

group_transform evaluates two real tables f, g over the units in label
order (entry k at G.unit_residues()[k], as _table returns them)
against every character at once by one complex FFT of f + i g, unpacked
through Z(chibar).  The FFT runs over the label grid as it stands: the
group's components are short coprime axes already (chargroup._sub_axes).
The tests hold it against an exact-angle DFT on the label axes
(tests/scalar_ref.py).

fourth_moment takes every central value from the Hurwitz route,

    L(1/2, chi) = q^(-1/2) sum_u chi(u) zeta(1/2, u/q),

and uses the tables only for the head B (the range 0 < ab <= Z =
q / 2^omega(q)): one group transform of the Hurwitz table and the B
table; on primitive chi the tail is C = |L|^2 / 2 - B.  compute_spectrum
builds the B table on (0, Z] and the C table on (Z, m_eff], transforms
the two together, and stays the independent route to every A = B + C;
it consumes the same kernel values as the per-character pipeline in
lfunc, so cross-pipeline comparisons isolate the summation
reorganization.  checks.tail (verify-bounds) sums its C^2 over every
character.  compute_spectrum refuses a modulus whose C table is over the
cost cap (lfunc._MAX_TABLE_PAIRS) before any table is built; the pairs
stream in slices of lfunc._PAIR_BATCH, each scattered in place into two
q-length accumulators, so a build holds O(q + slice) scratch.

Parity (which S_a a character's sum stands for) and primitivity (which characters
a moment sums over) come from CharacterGroup.parity_grid() and
conductor_grid(), in the label order the transform returns; this module
does not classify characters itself.

Determinism: the build is single-threaded and visits the unordered
pairs of its range L < ab <= M in a fixed order
(lfunc._coprime_pair_chunks(q, L, M)): with s = isqrt(M), a = 1..s, each
with every max(a, L/a) < b <= M/a.  Each accumulator entry is the
in-order sum of its own pairs, so a table is the same bits at any slice
size.  The symmetrization adds the two halves in either order to the
same float, so T(u^-1) == T(u) bit for bit.  Reruns are bit-identical.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import phi_star, two_pow_omega
from .asymptotics import theorem_main_term
from .chargroup import CharacterGroup, build_group
from .lfunc import (_MAX_TABLE_PAIRS, KernelWeights, _check_pair_count,
                    _coprime_pair_chunks, _hurwitz_at, _resolve_weights,
                    kernel_weights, truncation_bound)

def _fft_eps(phi: int) -> float:
    """Normwise relative error bound of a float64 FFT over phi points,
    c eps log2(phi) with c = 10 (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 24.2, with margin for the pairwise sums)."""
    return 10.0 * 2.0 ** -52 * max(1.0, math.log2(phi))


def _imag_residue(q: int, tables: tuple[np.ndarray, ...],
                  outs: tuple[np.ndarray, ...]) -> float:
    """max |Im| over outs, transforms of the real tables one FFT packed:
    rounding, which warns (RuntimeWarning) over the FFT's normwise error
    on the packed input, _fft_eps(phi) sum_u (|f| + |g|)."""
    imag = max(float(np.abs(x.imag).max()) for x in outs)
    bound = _fft_eps(tables[0].size) * sum(float(np.abs(t).sum())
                                           for t in tables)
    if not imag <= bound:
        warnings.warn(f"imag_residue {imag:.3g} at q = {q} is over its FFT "
                      f"rounding bound {bound:.3g}", RuntimeWarning,
                      stacklevel=3)
    return imag


__all__ = [
    "CharacterSpectrum",
    "MomentReport",
    "group_transform",
    "compute_spectrum",
    "fourth_moment",
]


def _table(G: CharacterGroup, kw: KernelWeights, lo: int,
           hi: int) -> np.ndarray:
    """T over the coprime pairs with lo < ab <= hi, in label order: phi(q)
    entries, entry k at G.unit_residues()[k].  Each slice of unordered
    pairs a <= b is scattered in place into one accumulator per parity,
    s_a(r) += K_a at r = b a^-1 (K_a = kw.kprod[a][ab]), diagonal pairs at
    half weight: each entry is the in-order sum of its own pairs at any
    slice size.  Then t(u) = (s_0 + s_1)(u) + (s_0 - s_1)(-u), on a
    reversed view, is gathered at the units.  (b, a) has the weights of
    (a, b) at the inverse residue, so T(u) = (t(u) + t(u^-1)) / 2, u^-1 at
    the negated label (_negated): symmetric bit for bit, each diagonal
    pair (on the residues +-1) counted once, since doubling is exact."""
    q = G.q
    # a^-1 mod q for the a <= isqrt(hi) the pairs start from
    inv_a = np.array([pow(a, -1, q) if math.gcd(a, q) == 1 else 0
                      for a in range(math.isqrt(hi) + 1)], dtype=np.int64)
    k0, k1 = kw.kprod
    s0, s1 = np.zeros(q), np.zeros(q)
    for a, b in _coprime_pair_chunks(q, lo, hi):
        m = a * b
        # x - x // q * q = x % q, which numpy runs slower; b a^-1 < q hi,
        # inside int64 up to _MAX_Q
        r = inv_a[a]
        r *= b
        r -= r // q * q
        half = a == b
        w = k0[m]
        w[half] *= 0.5
        np.add.at(s0, r, w)
        w = k1[m]
        w[half] *= 0.5
        np.add.at(s1, r, w)
    t = s0 + s1
    s0 -= s1
    t[1:] += s0[:0:-1]  # (s_0 - s_1)(q - u)
    t[0] += s0[0]
    del s0, s1
    t = t[G.unit_residues()]
    t += _negated(G, t)
    t *= 0.5
    return t


def _negated(G: CharacterGroup, x: np.ndarray) -> np.ndarray:
    """A new flat copy of x over the label grid read at the exponents -t:
    entry k is x at the label of unit k's inverse, or chi_k's conjugate.
    -t mod d on each axis is a reversal rolled by one (index 0 kept,
    1..d-1 reversed): 2^k block copies on k axes, no index array."""
    shape = G.orders or (1,)
    x = np.flip(x.reshape(shape))
    return np.roll(x, 1, axis=tuple(range(x.ndim))).ravel()


def group_transform(G: CharacterGroup, f: np.ndarray, g: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """sum_u chi(u) f(u) and sum_u chi(u) g(u) for every character chi mod
    q at once, from two real tables f and g of length phi(q) over the
    units in label order (entry k is the value at G.unit_residues()[k]),
    by one complex FFT of f + i g.

    The FFT runs over the label axes, G.orders.  With Z the FFT, the
    transforms are (conj Z(chi) + Z(chibar)) / 2 and
    i (conj Z(chi) - Z(chibar)) / 2, f and g being real; chibar has the
    exponents -t, read by block copies of the grid (_negated).

    Returns two complex arrays over the full label grid in lexicographic
    exponent order (label k, G.label_at(k), at position k).  The
    transform is parity-blind: a table of one parity gives meaningful
    values on the characters of that parity.
    """
    shape = G.orders or (1,)
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = f.reshape(shape), g.reshape(shape)
    z = np.fft.fftn(z)
    z, zn = z.ravel(), _negated(G, z)  # chibar: exponents -t
    np.conj(z, out=z)
    x_f = z + zn
    x_f *= 0.5
    z -= zn
    z *= 0.5j
    return x_f, z


@dataclass
class CharacterSpectrum:
    """Per-character B and C values over the full label grid."""

    q: int
    group: CharacterGroup
    b_values: np.ndarray      # real, length phi(q), lexicographic labels
    c_values: np.ndarray
    parity: np.ndarray        # int8
    primitive: np.ndarray     # bool
    imag_residue: float
    m_eff: int
    z_floor: int


def compute_spectrum(q: int) -> CharacterSpectrum:
    """Tables + transform for every character mod q; an imag_residue over
    the FFT's rounding bound warns (_imag_residue), with the same result."""
    _check_pair_count(truncation_bound(q), _MAX_TABLE_PAIRS)
    G = build_group(q)
    kw = kernel_weights(q)
    tables = (_table(G, kw, 0, kw.z_floor),
              _table(G, kw, kw.z_floor, kw.m_eff))
    vb, vc = outs = group_transform(G, *tables)
    return CharacterSpectrum(
        q=q, group=G, b_values=vb.real, c_values=vc.real,
        parity=G.parity_grid(), primitive=G.conductor_grid() == q,
        imag_residue=_imag_residue(q, tables, outs),
        m_eff=kw.m_eff, z_floor=kw.z_floor)


@dataclass(frozen=True)
class MomentReport:
    """One modulus worth of moment data and its bookkeeping."""

    q: int
    phi_star: int
    fourth_moment: float   # sum over primitive chi of |L(1/2, chi)|^4
    main_term: float
    ratio: float
    b_moment: float        # sum over primitive chi of B^2
    c_moment_primitive: float
    cross_term: float      # sum over primitive chi of B*C
    imag_residue: float    # max |Im| of the B transform, over every chi;
                           # B is packed with the Hurwitz table in one
                           # FFT, so this carries that table's rounding
                           # too; 0.0 at phi* = 0, where no transform runs;
                           # over the FFT's rounding bound, a RuntimeWarning
    m_eff: int
    z_floor: int
    wall: dict


def fourth_moment(q: int, *,
                  weights: Optional[KernelWeights] = None) -> MomentReport:
    """sum over primitive chi of |L(1/2, chi)|^4, with its B/C split.

    Every |L|^2 and every B come from one group transform of the Hurwitz
    table and the head table, which needs kernel values for m <= z_floor
    only (`weights` may be a full or a head-only table); C = |L|^2 / 2 - B.
    At q = 1 too: the moment is |zeta(1/2)|^4, and C takes up the pole
    terms of zeta that the smoothed sum 2A leaves out.  With no primitive
    character (phi* = 0, q = 2 mod 4) every sum is empty: the report of
    zeros, with no stage times, comes after the group build, which
    refuses a modulus over its range, and before any table is built.
    An imag_residue over the packed FFT's rounding bound (_imag_residue)
    warns with a RuntimeWarning; the report is the same either way.
    """
    t0 = time.perf_counter()
    G = build_group(q)
    if phi_star(q) == 0:
        return MomentReport(
            q=q, phi_star=0, fourth_moment=0.0, main_term=0.0,
            ratio=float("nan"), b_moment=0.0, c_moment_primitive=0.0,
            cross_term=0.0, imag_residue=0.0, m_eff=truncation_bound(q),
            z_floor=q // two_pow_omega(q), wall={})
    wall: dict[str, float] = {}
    units = G.unit_residues()  # read by hz and the head table
    wall["group"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hz = _hurwitz_at(q, units)
    wall["hurwitz"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kw = _resolve_weights(q, weights, head_only=True)
    wall["kernel"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tb = _table(G, kw, 0, kw.z_floor)
    del kw  # not read again; the transform's peak has room for hz gathered
    wall["tables"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lt, vb = group_transform(G, hz, tb)
    wall["transform"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # B is real, so Im B is rounding of the packed FFT; |L| is complex
    imag = _imag_residue(q, (hz, tb), (vb,))
    del hz, tb  # each array goes once it has been read for the last time
    prim = G.conductor_grid() == q
    # A = |L|^2 / 2 on primitive chi, q^-1/2 |sum_u chi(u) zeta(1/2, u/q)|
    a = (lt.real ** 2 + lt.imag ** 2) / (2.0 * q)
    del lt
    a, b = a[prim], vb.real[prim]
    del vb, prim
    moment = 4.0 * float(np.sum(a ** 2))
    b_moment = float(np.sum(b ** 2))
    a -= b  # C = A - B, in a's place
    c_moment = float(np.sum(a ** 2))
    cross = float(np.sum(b * a))
    main = theorem_main_term(q)
    wall["assemble"] = time.perf_counter() - t0
    return MomentReport(
        q=q, phi_star=phi_star(q), fourth_moment=moment, main_term=main,
        ratio=moment / main if main > 0 else float("nan"),
        b_moment=b_moment, c_moment_primitive=c_moment, cross_term=cross,
        imag_residue=imag, m_eff=truncation_bound(q),
        z_floor=q // two_pow_omega(q), wall=wall)
