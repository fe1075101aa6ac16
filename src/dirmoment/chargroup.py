"""Dirichlet characters mod q: group construction, evaluation, classification.

The unit group (Z/qZ)* is decomposed into cyclic components via CRT: one
component per odd prime power, one component for modulus 4, and the pair
<-1>, <5> with orders (2, 2^(e-2)) for modulus 2^e with e >= 3.  Discrete
logs are tabulated per component at build time, so a character value is an
exact exponent of a root of unity: an integer numerator over the group
exponent.  Floating complex appears only at the numeric boundary.

Exactness matters here because the character-sum identities (the primitive
sum formula and the parity-restricted pair sum) are verified as identities
in Z, via remainder arithmetic modulo cyclotomic polynomials, not to a
floating tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .arith import Factorization, divisors, euler_phi, factorize, mobius

__all__ = [
    "CharacterGroup",
    "CharacterLabel",
    "Component",
    "build_group",
    "char_eval",
    "classify",
    "gauss_sum",
    "primitive_sum_lemma1",
    "signed_sum_eq21",
    "exact_primitive_char_sum",
    "exact_root_of_unity_sum",
    "root_of_unity",
]

_MAX_Q = 10**7  # dlog tables are O(q) ints; beyond this the build is refused


@dataclass(frozen=True)
class Component:
    """One cyclic factor of (Z/qZ)*.

    kind is 'odd' for odd prime powers, 'two4' for modulus 4, and
    'two_sign' / 'two_five' for the <-1> and <5> factors of 2^e, e >= 3.
    """

    prime: int
    exp: int
    pe: int          # p^exp
    kind: str
    gen_local: int   # generator as a residue mod pe
    gen_crt: int     # same generator lifted to a residue mod q
    order: int
    dlog: np.ndarray  # residue mod pe -> exponent of gen_local, -1 off units


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
        if all(pow(g, (p - 1) // ell, p) != 1 for ell, _ in fact.factors):
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


def _dlog_table(pe: int, gen: int, order: int) -> np.ndarray:
    table = np.full(pe, -1, dtype=np.int64)
    x = 1
    for j in range(order):
        table[x] = j
        x = x * gen % pe
    if x != 1:
        raise ArithmeticError(f"generator {gen} mod {pe} has order > {order}")
    return table


def _dlog_tables_2e(e: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign and five-part dlogs for modulus 2^e, e >= 3: u = (-1)^s 5^j."""
    pe = 1 << e
    half = 1 << (e - 2)
    sign = np.full(pe, -1, dtype=np.int64)
    five = np.full(pe, -1, dtype=np.int64)
    x = 1
    for j in range(half):
        sign[x] = 0
        five[x] = j
        sign[pe - x] = 1
        five[pe - x] = j
        x = x * 5 % pe
    return sign, five


def _crt_lift(residue: int, pe: int, q: int) -> int:
    """The residue mod q that is `residue` mod pe and 1 mod q/pe."""
    rest = q // pe
    if rest == 1:
        return residue % q
    # x = residue + pe*t with x = 1 mod rest
    t = (1 - residue) * pow(pe, -1, rest) % rest
    return (residue + pe * t) % q


class CharacterGroup:
    """The group of Dirichlet characters mod q, immutable after build."""

    def __init__(self, q: int, fact: Factorization,
                 components: tuple[Component, ...]):
        self.q = q
        self.fact = fact
        self.components = components
        self.orders = tuple(c.order for c in components)
        self.group_order = euler_phi(q)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        if math.prod(self.orders) != self.group_order:
            raise ArithmeticError("component orders do not multiply to phi(q)")
        # parity keys: k_i = 1 if chi restricted to component i can be odd
        neg = (q - 1) % q
        tneg = self.dlog_vector(neg)
        assert tneg is not None
        self._neg_dlog = tneg
        self._parity_key = tuple(
            0 if t == 0 else 1 for t in tneg)  # t is 0 or order/2
        self._labels_cache: Optional[list[CharacterLabel]] = None
        self._coprime_mask: Optional[np.ndarray] = None
        self._inverse_table: Optional[np.ndarray] = None
        self._grid_index: Optional[np.ndarray] = None
        self._roots: Optional[np.ndarray] = None

    # -- residue side ------------------------------------------------------

    def dlog_vector(self, n: int) -> Optional[tuple[int, ...]]:
        """Component exponents of n, or None when gcd(n, q) > 1."""
        u = n % self.q
        if math.gcd(u, self.q) != 1:
            return None
        out = []
        for comp in self.components:
            t = int(comp.dlog[u % comp.pe])
            if t < 0:  # pragma: no cover - coprime u always has a dlog
                return None
            out.append(t)
        return tuple(out)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.orders

    def coprime_mask(self) -> np.ndarray:
        if self._coprime_mask is None:
            u = np.arange(self.q if self.q > 1 else 1, dtype=np.int64)
            mask = np.ones_like(u, dtype=bool)
            for p, _ in self.fact.factors:
                mask &= u % p != 0
            if self.q == 1:
                mask[:] = True
            self._coprime_mask = mask
        return self._coprime_mask

    def inverse_table(self) -> np.ndarray:
        """u -> u^-1 mod q on units, 0 elsewhere."""
        if self._inverse_table is None:
            q = self.q
            inv = np.zeros(max(q, 1), dtype=np.int64)
            mask = self.coprime_mask()
            for u in range(1, q):
                if mask[u]:
                    inv[u] = pow(u, -1, q)
            if q == 1:
                inv[0] = 0
            self._inverse_table = inv
        return self._inverse_table

    def grid_flat_index(self) -> np.ndarray:
        """Residue u -> flat C-order index into the component-exponent grid.

        Off-unit residues map to -1.  Used to scatter residue-indexed data
        onto the grid the group transform runs over.
        """
        if self._grid_index is None:
            q = self.q
            if q == 1:
                self._grid_index = np.zeros(1, dtype=np.int64)
                return self._grid_index
            u = np.arange(q, dtype=np.int64)
            idx = np.zeros(q, dtype=np.int64)
            stride = 1
            for comp in reversed(self.components):
                t = comp.dlog[u % comp.pe]
                idx += np.where(t >= 0, t, 0) * stride
                stride *= comp.order
            idx[~self.coprime_mask()] = -1
            self._grid_index = idx
        return self._grid_index

    # -- character side ----------------------------------------------------

    def label(self, exponents: Sequence[int]) -> CharacterLabel:
        if len(exponents) != len(self.orders):
            raise ValueError(
                f"expected {len(self.orders)} exponents, got {len(exponents)}")
        exps = tuple(int(e) % d for e, d in zip(exponents, self.orders))
        parity, conductor, primitive = self._classify(exps)
        return CharacterLabel(exps, parity, conductor, primitive)

    def principal(self) -> CharacterLabel:
        return self.label((0,) * len(self.orders))

    def labels(self) -> list[CharacterLabel]:
        """All phi(q) characters, lexicographic in the exponent grid."""
        if self._labels_cache is None:
            self._labels_cache = [
                self.label(exps)
                for exps in product(*(range(d) for d in self.orders))
            ]
        return self._labels_cache

    def label_at(self, index: int) -> CharacterLabel:
        if not 0 <= index < self.group_order:
            raise ValueError(
                f"character index {index} out of range [0, {self.group_order})")
        exps = []
        for d in reversed(self.orders):
            exps.append(index % d)
            index //= d
        return self.label(tuple(reversed(exps)))

    def label_index(self, chi: CharacterLabel) -> int:
        idx = 0
        for e, d in zip(chi.exponents, self.orders):
            idx = idx * d + e
        return idx

    def angle_num(self, chi: CharacterLabel, n: int) -> Optional[int]:
        """Numerator a with chi(n) = e(a / exponent); None off units."""
        t = self.dlog_vector(n)
        if t is None:
            return None
        N = self.exponent
        num = 0
        for e, ti, d in zip(chi.exponents, t, self.orders):
            num += e * ti * (N // d)
        return num % N

    def angle_nums(self, chi: CharacterLabel) -> np.ndarray:
        """angle_num(chi, u) for every residue u = 0..q-1 as an int64
        array, -1 off units.

        Gathers each component's dlog table at u mod p^e, so no residue
        by component table is kept.
        """
        N = self.exponent
        u = np.arange(max(self.q, 1), dtype=np.int64)
        num = np.zeros(u.size, dtype=np.int64)
        for e, comp in zip(chi.exponents, self.components):
            if e:
                num += comp.dlog[u % comp.pe] * (e * (N // comp.order) % N)
        num %= N
        num[~self.coprime_mask()] = -1
        return num

    def char_values(self, chi: CharacterLabel) -> np.ndarray:
        """char_eval(chi, u) for every residue u = 0..q-1, 0 off units.

        Values come from one table of root_of_unity(k, exponent), so they
        are bit-identical to char_eval.
        """
        if self._roots is None:
            N = self.exponent
            self._roots = np.array([root_of_unity(k, N) for k in range(N)])
        num = self.angle_nums(chi)
        return np.where(num >= 0, self._roots[num], 0j)

    def _classify(self, exps: tuple[int, ...]) -> tuple[int, int, bool]:
        parity = sum(e * k for e, k in zip(exps, self._parity_key)) % 2
        conductor = 1
        i = 0
        comps = self.components
        for p, e in self.fact.factors:
            if p != 2:
                comp = comps[i]
                a = exps[i]
                i += 1
                conductor *= _odd_conductor(p, e, comp.order, a)
            elif e == 1:
                conductor *= 1  # trivial unit group mod 2, no component
            elif e == 2:
                s = exps[i]
                i += 1
                conductor *= 4 if s == 1 else 1
            else:
                s, a = exps[i], exps[i + 1]
                i += 2
                half = 1 << (e - 2)
                o5 = half // math.gcd(half, a)
                if o5 > 1:
                    conductor *= 4 * o5
                else:
                    conductor *= 4 if s == 1 else 1
        return parity, conductor, conductor == self.q

    def is_induced_modulus(self, chi: CharacterLabel, f: int) -> bool:
        """True when chi is trivial on units u = 1 (mod f), i.e. chi factors
        through modulus f."""
        if self.q % f != 0:
            raise ValueError(f"{f} does not divide the modulus {self.q}")
        # the units u = 1 (mod f) below q; u = q itself (f = 1) is a unit
        # only for q = 1, where every character is trivial
        return not np.any(self.angle_nums(chi)[1::f] > 0)


def _odd_conductor(p: int, e: int, order: int, a: int) -> int:
    """Conductor p-part for a character exponent a on the cyclic component
    of (Z/p^e)*, p odd."""
    o = order // math.gcd(order, a)
    if o == 1:
        return 1
    # o = p^v * m with m | p-1; the least j with o | phi(p^j) is v+1
    v = 0
    while o % p == 0:
        o //= p
        v += 1
    return p ** (v + 1)


def build_group(q: int) -> CharacterGroup:
    """Construct the character group mod q with per-component dlog tables."""
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q}")
    q = int(q)
    if q > _MAX_Q:
        raise ValueError(
            f"modulus {q} exceeds the dlog table memory budget (q <= {_MAX_Q})")
    fact = factorize(q)
    comps: list[Component] = []
    for p, e in fact.factors:
        pe = p**e
        if p == 2:
            if e == 1:
                continue  # (Z/2)* is trivial
            if e == 2:
                gen = 3  # -1 mod 4
                comps.append(Component(
                    2, 2, 4, "two4", gen, _crt_lift(gen, 4, q), 2,
                    _dlog_table(4, gen, 2)))
            else:
                sign, five = _dlog_tables_2e(e)
                comps.append(Component(
                    2, e, pe, "two_sign", pe - 1, _crt_lift(pe - 1, pe, q), 2,
                    sign))
                comps.append(Component(
                    2, e, pe, "two_five", 5, _crt_lift(5, pe, q),
                    1 << (e - 2), five))
        else:
            gen = _primitive_root_mod_pe(p, e)
            order = pe // p * (p - 1)
            comps.append(Component(
                p, e, pe, "odd", gen, _crt_lift(gen, pe, q), order,
                _dlog_table(pe, gen, order)))
    return CharacterGroup(q, fact, tuple(comps))


def char_eval(G: CharacterGroup, chi: CharacterLabel, n: int) -> complex:
    """chi(n) as a complex number: 0 off units, else a root of unity."""
    num = G.angle_num(chi, n)
    if num is None:
        return 0j
    return root_of_unity(num, G.exponent)


def root_of_unity(num: int, den: int) -> complex:
    num %= den
    # exact values at the quarter points keep small cases clean
    if num == 0:
        return complex(1, 0)
    if 2 * num == den:
        return complex(-1, 0)
    if 4 * num == den:
        return complex(0, 1)
    if 4 * num == 3 * den:
        return complex(0, -1)
    return cmath.exp(2j * math.pi * (num / den))


def classify(G: CharacterGroup, chi: CharacterLabel) -> tuple[int, int, bool]:
    """(parity, conductor, primitive) recomputed from the exponent vector."""
    return G._classify(chi.exponents)


def gauss_sum(G: CharacterGroup, chi: CharacterLabel) -> complex:
    """tau(chi) = sum over a mod q of chi(a) e(a/q)."""
    q = G.q
    N = G.exponent
    nums = G.angle_nums(chi).tolist()
    re: list[float] = []
    im: list[float] = []
    for a in range(1, q + 1):
        num = nums[a % q]
        if num < 0:
            continue
        # combine both phases exactly before the single complex exponential
        z = root_of_unity((num * q + (a % q) * N) % (N * q), N * q)
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


def _phi_mu_divisor_sum(q: int, t: int) -> int:
    """sum over k | gcd(q, t) of phi(k) mu(q/k), with gcd(q, 0) = q."""
    g = q if t == 0 else math.gcd(q, abs(t))
    total = 0
    for k in divisors(g):
        m = mobius(q // k)
        if m:
            total += euler_phi(k) * m
    return total


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
    return Fraction(s1, 2) + Fraction(sign * s2, 2)


# ---------------------------------------------------------------------------
# exact sums of roots of unity (for identity checks in Z)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    poly = [1]
    # Phi_n(x) = prod over d | n of (x^(n/d) - 1)^mu(d)
    denoms = []
    for d in divisors(n):
        mu = mobius(d)
        if mu == 1:
            poly = _poly_mul_xk_minus_1(poly, n // d)
        elif mu == -1:
            denoms.append(n // d)
    for k in denoms:
        poly = _poly_div_xk_minus_1(poly, k)
    return tuple(poly)


def _poly_mul_xk_minus_1(poly: list[int], k: int) -> list[int]:
    out = [0] * (len(poly) + k)
    for i, c in enumerate(poly):
        out[i + k] += c
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_div_xk_minus_1(poly: list[int], k: int) -> list[int]:
    # exact division by x^k - 1
    rem = list(poly)
    out = [0] * max(len(rem) - k, 1)
    for i in range(len(rem) - 1, k - 1, -1):
        c = rem[i]
        if c:
            out[i - k] = c
            rem[i] = 0
            rem[i - k] += c
    if any(rem[k:]) or any(rem[:k]):
        raise ArithmeticError("inexact cyclotomic division")  # pragma: no cover
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def exact_root_of_unity_sum(counts: Sequence[int]) -> Optional[int]:
    """Exact value of sum_a counts[a] * e(a/N), N = len(counts), when that
    value is a rational integer; None when it is not.

    Reduces the count polynomial modulo the N-th cyclotomic polynomial over
    Z, so the verdict involves no floating point at all.
    """
    N = len(counts)
    if N == 0:
        return 0
    if N == 1:
        return int(counts[0])
    phi = _cyclotomic(N)
    dphi = len(phi) - 1
    rem = [int(c) for c in counts]
    for deg in range(len(rem) - 1, dphi - 1, -1):
        c = rem[deg]
        if c:
            off = deg - dphi
            for j, pc in enumerate(phi):
                rem[off + j] -= c * pc
    if any(rem[1:]):
        return None
    return rem[0]


def exact_primitive_char_sum(G: CharacterGroup, u: int,
                             parity: Optional[int] = None) -> Optional[int]:
    """Brute-force sum of chi(u) over primitive chi mod q (optionally of one
    parity), evaluated exactly; None when the sum is not a rational integer.
    """
    if math.gcd(u, G.q) != 1:
        raise ValueError(f"u = {u} is not coprime to q = {G.q}")
    counts = [0] * G.exponent
    for chi in G.labels():
        if not chi.primitive:
            continue
        if parity is not None and chi.parity != parity:
            continue
        num = G.angle_num(chi, u)
        counts[num] += 1
    return exact_root_of_unity_sum(counts)


def primitive_count(G: CharacterGroup) -> int:
    """Number of primitive labels; equals phi_star(q) by construction checks."""
    return sum(1 for chi in G.labels() if chi.primitive)

