"""Dirichlet characters mod q: group construction, evaluation, classification.

The unit group (Z/qZ)* is decomposed into cyclic components via CRT: the
group mod each odd prime power, split by Good-Thomas into coprime factors
(build_group), one component for modulus 4, and the pair <-1>, <5> with
orders (2, 2^(e-2)) for modulus 2^e with e >= 3; these are the group
transform's FFT axes.  Each component keeps its generator, lifted by CRT
to 1 mod q / p^e, and the units in label order are the products of the
generators' powers (unit_residues); residue_labels() inverts that map on
request.  A character is evaluated on that label grid, so its value is
an exact exponent of a root of unity: an integer numerator over the
group exponent.  Floating complex appears only at the numeric boundary.

Classification lives here alone.  Each component of order d carries two
length-d tables over the exponent t = 0..d-1: the parity bit of chi(-1)
and the conductor part gcd(o base, p^e) of the order o = d / gcd(d, t)
(1 when o = 1; base = 4 on the <5> axis, p elsewhere).  A character's
parity is the sum of its bits mod 2 and its conductor is the lcm of its
parts (the two 2-adic parts are powers of 2, odd primes multiply); it is
primitive when the conductor is q.  label() reads the tables per
character; parity_grid() and conductor_grid() broadcast them over the
whole label grid, and labels() is built from those grids.

Exactness matters here because the character-sum identities (the primitive
sum formula and the parity-restricted pair sum) are verified as identities
in Z, not to a floating tolerance: the enumerated side counts the
characters' angles a mod N, N the group exponent, those counts are
constant on each class of a with one gcd(a, N), and the a with
gcd(a, N) = d are the primitive (N/d)-th roots of unity, which sum to
mu(N/d).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np

from .arith import divisors, euler_phi, factorize, mobius

__all__ = [
    "CharacterGroup",
    "CharacterLabel",
    "Component",
    "build_group",
    "gauss_sum",
    "primitive_sum_lemma1",
    "signed_sum_eq21",
    "exact_primitive_char_sum",
    "exact_root_of_unity_sum",
    "root_of_unity",
]

_MAX_Q = 10**7  # residue tables hold O(q) ints; a larger q is refused

# Primes of a cyclic group's order above this get components of their own
# (Good-Thomas), short axes for the group transform's FFT; the small
# primes stay on one.  pocketfft is slow on a length with a large prime
# factor, and an extra axis costs about 15 us of fftn overhead.  Over the
# orders d = 300..6000 whose largest prime power p^e < d has p > 20
# (random data, 2 vCPUs), splitting p^e off beat the 1-D FFT in 0 of 317
# cases with p <= 50, 5 of 261 with 50 < p <= 100, 220 of 283 with
# 100 < p <= 200 and 577 of 579 with p > 200.  1-D against split: 2.4
# against 1.3 ms at 2 * 5003, 0.70 against 0.43 ms at 2^3 3^2 139, and
# 12.4 against 0.87 s at 2 * 3^2 * 157 * 2477.
_SPLIT_PRIME = 100


@dataclass(frozen=True)
class Component:
    """One cyclic factor of (Z/qZ)*: a coprime factor of the cyclic group
    mod an odd prime power (_sub_axes), modulus 4, or the <-1> or <5>
    factor of 2^e, e >= 3.

    parity[t] and conductor[t] are the parity bit and the conductor part
    of a character with exponent t on this factor.
    """

    order: int
    gen: int         # generator of the factor mod p^e, 1 mod q / p^e
    parity: np.ndarray     # int8, length order
    conductor: np.ndarray  # int32 (parts are <= p^e <= _MAX_Q), length order


@dataclass(frozen=True)
class CharacterLabel:
    """One character: exponent vector over the group components.

    parity is 0 or 1 with chi(-1) = (-1)^parity; conductor is the least
    modulus inducing chi; primitive means conductor == q.
    """

    exponents: tuple[int, ...]
    parity: int
    conductor: int
    primitive: bool


def _primitive_root_mod_p(p: int) -> int:
    if p == 2:
        return 1
    fact = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell, _ in fact):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # pragma: no cover


def _primitive_root_mod_pe(p: int, e: int) -> int:
    """Generator of the cyclic group (Z/p^e)*, p odd."""
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    # g generates mod p^e iff g^(p-1) != 1 mod p^2; otherwise g+p does
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _powers(gen: int, n: int, mod: int) -> np.ndarray:
    """gen^j mod `mod` for j = 0..n-1 as int64, by doubling in place: each
    step multiplies the powers so far by gen^k, k of them written.
    Products stay below mod^2 <= _MAX_Q^2, inside int64."""
    out = np.ones(n, dtype=np.int64)
    k = 1
    while k < n:
        m = min(k, n - k)
        np.multiply(out[:m], pow(gen, k, mod), out=out[k:k + m])
        out[k:k + m] %= mod
        k += m
    return out


class CharacterGroup:
    """The group of Dirichlet characters mod q, immutable after build."""

    def __init__(self, q: int, components: tuple[Component, ...]):
        self.q = q
        self.components = components
        self.orders = tuple(c.order for c in components)
        self.group_order = euler_phi(q)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        if math.prod(self.orders) != self.group_order:
            raise ArithmeticError("component orders do not multiply to phi(q)")
        self._labels_cache: Optional[list[CharacterLabel]] = None
        self._unit_residues: Optional[np.ndarray] = None
        self._residue_labels: Optional[np.ndarray] = None
        self._roots: Optional[np.ndarray] = None
        self._parity_grid: Optional[np.ndarray] = None
        self._conductor_grid: Optional[np.ndarray] = None

    # -- residue side ------------------------------------------------------

    def unit_residues(self) -> np.ndarray:
        """The phi(q) unit residues in label order: entry k is the residue
        whose component exponents are those of label k, the product mod q
        of each generator to its exponent (the generators are 1 mod the
        other factors).  The cached array is shared and read-only."""
        if self._unit_residues is None:
            q = self.q
            axes = [_powers(c.gen, c.order, q) for c in self.components]
            res = (reduce(lambda x, y: np.multiply.outer(x, y).ravel() % q,
                          axes) if axes else np.array([1 % q], dtype=np.int64))
            res.flags.writeable = False
            self._unit_residues = res
        return self._unit_residues

    def residue_labels(self) -> np.ndarray:
        """The flat label of every residue u = 0..q-1, -1 off units: the
        inverse of unit_residues.  The cached array is shared and
        read-only."""
        if self._residue_labels is None:
            lab = np.full(self.q, -1, dtype=np.int64)
            lab[self.unit_residues()] = np.arange(self.group_order)
            lab.flags.writeable = False
            self._residue_labels = lab
        return self._residue_labels

    # -- character side ----------------------------------------------------

    def label(self, exponents: Sequence[int]) -> CharacterLabel:
        if len(exponents) != len(self.orders):
            raise ValueError(
                f"expected {len(self.orders)} exponents, got {len(exponents)}")
        exps = tuple(int(e) % d for e, d in zip(exponents, self.orders))
        parts = list(zip(self.components, exps))
        parity = sum(int(c.parity[t]) for c, t in parts) % 2
        conductor = math.lcm(*(int(c.conductor[t]) for c, t in parts))
        return CharacterLabel(exps, parity, conductor, conductor == self.q)

    def labels(self) -> list[CharacterLabel]:
        """All phi(q) characters, lexicographic in the exponent grid."""
        if self._labels_cache is None:
            self._labels_cache = [
                CharacterLabel(exps, par, cond, cond == self.q)
                for exps, par, cond in zip(
                    product(*(range(d) for d in self.orders)),
                    self.parity_grid().tolist(),
                    self.conductor_grid().tolist())
            ]
        return self._labels_cache

    def label_at(self, index: int) -> CharacterLabel:
        if not 0 <= index < self.group_order:
            raise ValueError(
                f"character index {index} out of range [0, {self.group_order})")
        return self.label(np.unravel_index(index, self.orders))

    def conjugate_exponents(self, chi: CharacterLabel) -> tuple[int, ...]:
        """The exponents of chibar, the conjugate of chi: -e mod each
        order.  chibar has chi's parity and conductor."""
        return tuple(-e % d for e, d in zip(chi.exponents, self.orders))

    def parity_grid(self) -> np.ndarray:
        """Parity of every label as int8, flat in label order.  The cached
        array is shared and read-only."""
        if self._parity_grid is None:
            self._parity_grid = _fold_outer(
                np.bitwise_xor, (c.parity for c in self.components),
                np.zeros((), dtype=np.int8))
        return self._parity_grid

    def conductor_grid(self) -> np.ndarray:
        """Conductor of every label as int32, flat in label order.  The
        cached array is shared and read-only."""
        if self._conductor_grid is None:
            self._conductor_grid = _fold_outer(
                np.lcm, (c.conductor for c in self.components),
                np.ones((), dtype=np.int32))
        return self._conductor_grid

    def angle_nums(self, chi: CharacterLabel) -> np.ndarray:
        """The numerators a with chi(u) = e(a / exponent) at every unit u,
        as an int64 array in label order: entry k is the numerator at
        unit_residues()[k].

        The numerator is sum over the axes of t e (N / d) mod N, with t the
        unit's exponent and e chi's on an axis of order d, so it is an
        outer sum over the label grid of one length-d table per axis,
        folded in axis by axis.
        """
        N = self.exponent
        nums = np.zeros(1, dtype=np.int64)  # the one unit of an empty grid
        for k, (e, c) in enumerate(zip(chi.exponents, self.components)):
            axis = np.arange(c.order, dtype=np.int64)
            axis *= e * (N // c.order) % N
            nums = np.add.outer(nums, axis) if k else axis
        return nums.ravel() % N

    def char_values(self, chi: CharacterLabel) -> np.ndarray:
        """chi(u) for every unit u, in label order like angle_nums: each
        value is root_of_unity at its numerator, read from one table of
        root_of_unity(k, exponent).  The table is conjugate-symmetric, so
        chibar's array equals (==) the conjugate of chi's: lfunc's sums
        for chibar are chi's, bit for bit, the imaginary ones negated."""
        if self._roots is None:
            N = self.exponent
            self._roots = np.array([root_of_unity(k, N) for k in range(N)])
        return self._roots[self.angle_nums(chi)]


def _fold_outer(op: np.ufunc, tables: Iterable[np.ndarray],
                unit: np.ndarray) -> np.ndarray:
    """op folded over per-axis tables by outer products, flat in label
    order and read-only; the 0-d unit alone when there are no axes."""
    grid = reduce(op.outer, tables, unit).ravel()
    grid.flags.writeable = False
    return grid


def _sub_axes(d: int) -> tuple[int, ...]:
    """The pairwise coprime orders of the components a cyclic group of
    order d >= 1 splits into: each prime power p^e of d with
    p > _SPLIT_PRIME, after the product of the other prime powers; (d,)
    when there is no such prime."""
    split = [p**e for p, e in factorize(d) if p > _SPLIT_PRIME]
    rest = d // math.prod(split)
    return (rest, *split) if rest > 1 or not split else tuple(split)


def _component(q: int, p: int, e: int, base: int, order: int,
               gen: int) -> Component:
    """The cyclic factor of order `order` generated by gen mod p^e, with
    gen lifted by CRT to 1 mod q / p^e, and its classification tables over
    t = 0..order-1; base is the conductor base of the factor (4 on the <5>
    axis, else p).  A gen whose order does not divide `order` raises
    ArithmeticError.

    -1 has exponent 0 or order/2 on the factor, so chi(-1) picks up
    (-1)^t exactly when gen^(order/2) = -1.  A character of order
    o = order / gcd(order, t) > 1 on the factor has conductor part
    gcd(o base, p^e): p^(v+1) for o = p^v m, m | p - 1 (base p); 4 on the
    sign and mod-4 axes (o = 2, base 2); 4 o on the <5> axis (base 4).
    base is a power of p, so only the p-part of o counts, and that is
    d_p / gcd(d_p, t) with d_p the p-part of order: the parts are written
    per power k of p dividing d_p, ascending, so the last k to divide t
    is gcd(d_p, t).  On an order prime to p, d_p = 1: every part is p.
    """
    pe = p**e
    if pow(gen, order, pe) != 1:
        raise ArithmeticError(f"generator {gen} mod {pe} has order > {order}")
    parity = np.zeros(order, dtype=np.int8)
    if pow(gen, order // 2, pe) == pe - 1:
        parity[1::2] = 1
    d_p = math.gcd(order, pe)
    conductor = np.empty(order, dtype=np.int32)
    k = 1
    while k <= d_p:
        conductor[::k] = math.gcd(d_p // k * base, pe)
        k *= p
    conductor[0] = 1  # t = 0: the character is trivial on this factor
    m = q // pe
    lift = gen + pe * ((1 - gen) * pow(pe, -1, m) % m)
    return Component(order, lift, parity, conductor)


def _check_modulus(q: int) -> int:
    """q as an int if build_group takes it (1 <= q <= _MAX_Q)."""
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q}")
    if q > _MAX_Q:
        raise ValueError(f"modulus {q} exceeds the residue table memory "
                         f"budget (q <= {_MAX_Q})")
    return int(q)


def build_group(q: int) -> CharacterGroup:
    """Construct the character group mod q from its CRT generators.

    The group mod an odd p^e, cyclic of order d with primitive root g, is
    the product of its subgroups of the coprime orders n in _sub_axes(d),
    generated by g^(d/n) (Good-Thomas): the character e(t s / d) at g^s
    has the exponents t mod n, and g^s the exponents s (d/n)^-1 mod n.
    """
    q = _check_modulus(q)
    comps: list[Component] = []
    for p, e in factorize(q):
        pe = p**e
        if p == 2:
            # (Z/2)* is trivial; -1 generates mod 4, and -1, 5 mod 2^e
            if e >= 2:
                comps.append(_component(q, 2, e, 2, 2, pe - 1))
            if e >= 3:
                comps.append(_component(q, 2, e, 4, 1 << (e - 2), 5))
        else:
            d, g = pe // p * (p - 1), _primitive_root_mod_pe(p, e)
            comps.extend(_component(q, p, e, p, n, pow(g, d // n, pe))
                         for n in _sub_axes(d))
    return CharacterGroup(q, tuple(comps))


def root_of_unity(num: int, den: int) -> complex:
    """e(num / den); past the half turn, the conjugate of
    root_of_unity(den - num, den), so e(-x) is exactly conj(e(x))."""
    num %= den
    if 2 * num > den:
        return root_of_unity(den - num, den).conjugate()
    # exact values at the quarter points keep small cases clean
    if num == 0:
        return complex(1, 0)
    if 2 * num == den:
        return complex(-1, 0)
    if 4 * num == den:
        return complex(0, 1)
    return cmath.exp(2j * math.pi * (num / den))


def gauss_sum(G: CharacterGroup, chi: CharacterLabel) -> complex:
    """tau(chi) = sum over a mod q of chi(a) e(a/q)."""
    q = G.q
    N = G.exponent
    # combine both phases exactly before the single complex exponential;
    # the products stay below q^2 <= _MAX_Q^2, inside int64
    nums = (G.angle_nums(chi) * q + G.unit_residues() * N) % (N * q)
    z = np.exp(2j * math.pi * (nums / (N * q)))
    return complex(math.fsum(z.real), math.fsum(z.imag))


@lru_cache(maxsize=64)
def _phi_mu_sums(q: int) -> MappingProxyType:
    """g -> sum over k | g of phi(k) mu(q/k), for every divisor g of q,
    as a read-only map shared by every caller."""
    terms = [(k, euler_phi(k) * mobius(q // k)) for k in divisors(q)]
    return MappingProxyType({g: sum(c for k, c in terms if g % k == 0)
                             for g in divisors(q)})


def _phi_mu_divisor_sum(q: int, t: int) -> int:
    """sum over k | gcd(q, t) of phi(k) mu(q/k), with gcd(q, 0) = q."""
    return _phi_mu_sums(q)[math.gcd(q, t)]


def primitive_sum_lemma1(q: int, r: int) -> int:
    """Closed form for the sum of chi(r) over primitive chi mod q:
    sum over k | (q, r-1) of phi(k) mu(q/k)."""
    if math.gcd(r, q) != 1:
        raise ValueError(f"r = {r} is not coprime to q = {q}")
    return _phi_mu_divisor_sum(q, r - 1)


def signed_sum_eq21(q: int, m: int, n: int, parity: int) -> Fraction:
    """Closed form for the parity-restricted primitive sum of chi(m)chibar(n):

        (1/2) sum_{k | (q, |m-n|)} phi(k) mu(q/k)
      + ((-1)^parity / 2) sum_{k | (q, m+n)} phi(k) mu(q/k)

    with the k | (q, 0) convention read as k | q.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    if math.gcd(m * n, q) != 1:
        raise ValueError(f"mn = {m * n} is not coprime to q = {q}")
    s1 = _phi_mu_divisor_sum(q, abs(m - n))
    s2 = _phi_mu_divisor_sum(q, m + n)
    sign = -1 if parity else 1
    return Fraction(s1 + sign * s2, 2)


def exact_root_of_unity_sum(counts: Sequence[int]) -> Optional[int]:
    """Exact value of sum_a counts[a] * e(a/N), N = len(counts), when the
    counts are constant on each class of exponents a with one gcd(a, N)
    (gcd(0, N) = N); None when they vary inside a class.

    The a with gcd(a, N) = d are the primitive (N/d)-th roots of unity,
    which sum to mu(N/d) (Ramanujan's sum c_{N/d}(1)), so a class-constant
    sum is sum over d | N of c_d mu(N/d), an integer found with no floating
    point.  A sum that is integral by cancellation across classes, such
    as e(1/3) + e(5/6) = 0, gives None.

    exact_primitive_char_sum meets the contract: for k prime to N,
    chi -> chi^k permutes the primitive characters of each parity and
    sends the numerator n of chi(u) to k n mod N, so its counts are
    constant on each class.
    """
    N = len(counts)
    by_gcd: dict[int, int] = {}
    for a, c in enumerate(counts):
        if by_gcd.setdefault(math.gcd(a, N), c) != c:
            return None
    return sum(c * mobius(N // d) for d, c in by_gcd.items())


def exact_primitive_char_sum(G: CharacterGroup, u: int,
                             parity: Optional[int] = None) -> Optional[int]:
    """Brute-force sum of chi(u) over primitive chi mod q (optionally of one
    parity), evaluated exactly; None when the sum is not a rational integer.

    The angle sum_j e_j t_j N / d_j of character k at u is symmetric in the
    exponents e of k and t of u: the angles of all characters at u are the
    angle_nums of the label with u's exponents.
    """
    if math.gcd(u, G.q) != 1:
        raise ValueError(f"u = {u} is not coprime to q = {G.q}")
    pick = G.conductor_grid() == G.q
    if parity is not None:
        pick &= G.parity_grid() == parity
    nums = G.angle_nums(G.label_at(int(G.residue_labels()[u % G.q])))
    return exact_root_of_unity_sum(
        np.bincount(nums[pick], minlength=G.exponent).tolist())
