"""Verification sweeps shared by `verify-identities`, `verify-bounds` and
the acceptance tests.

Each family is one function returning a SweepResult: the number of
checks, one dict per failed check (the JSON the CLI emits), and the
worst measured value in the family's own unit, stated in each
docstring.  The exact families compare integers: the enumerated side
is a sum of roots of unity found exactly from the Moebius function
(chargroup.exact_root_of_unity_sum), or None when its angle counts
vary inside a gcd class, which only a wrong group table produces;
there `worst` is the largest |enumerated - formula|, inf for None, 0
when every case is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi, omega
from .chargroup import (build_group, exact_primitive_char_sum, gauss_sum,
                        primitive_sum_lemma1, signed_sum_eq21)
from .kernel import _CONFIG
from .lfunc import abc_values, kernel_weights, l_half_oracle
from .spectra import compute_spectrum
from .asymptotics import (error_sum_E, lemma3_count, lemma4_check,
                          lemma5_sums, m_direct, m_reparametrized)

__all__ = ["SweepResult", "primitive_sum", "pair_sum", "gauss_modulus",
           "oracle_equation", "diagonal_equality", "lemma3", "lemma4",
           "lemma5", "error_sum", "tail"]

# ratio2 bands of the 2^omega sums at x = 1e6, measured at first run and
# frozen: regression checks, not external truths
LEMMA5_BANDS = {1: (1.70, 1.72), 6: (2.50, 2.52), 30: (2.86, 2.88)}


@dataclass(frozen=True)
class SweepResult:
    checks: int
    failures: list
    worst: float


def _sweep(cases):
    """Turn a generator of (measured value, failure dict or falsy), one
    pair per check, into a function returning its SweepResult."""
    @functools.wraps(cases)
    def run(*args, **kwargs) -> SweepResult:
        failures, checks, worst = [], 0, 0.0
        for value, failure in cases(*args, **kwargs):
            checks += 1
            worst = max(worst, value)
            if failure:
                failures.append(failure)
        return SweepResult(checks, failures, worst)
    return run


def _gap(got, want) -> float:
    return math.inf if got is None else float(abs(got - want))


def _oracle_tol(q: int) -> float:
    """Absolute bound on |2A - |L(1/2, chi)|^2| mod q from the kernel's
    eps: A weighs kernel values, each within eps, by 1 / sqrt(ab) over
    ab <= m = x_zero q / pi, at most 2 sqrt(m) (1 + ln m); doubled for 2A."""
    m = _CONFIG.x_zero * q / math.pi
    return 2.0 * _CONFIG.eps * 2.0 * math.sqrt(m) * (1.0 + math.log(m))


@_sweep
def primitive_sum(qmax: int):
    """Enumerated primitive character sum against its closed form, every
    unit r mod q for q <= qmax."""
    for q in range(1, qmax + 1):
        G = build_group(q)
        for r in range(1, q + 1):
            if math.gcd(r, q) != 1:
                continue
            got = exact_primitive_char_sum(G, r)
            want = primitive_sum_lemma1(q, r)
            bad = got != want
            yield _gap(got, want) if bad else 0.0, bad and {
                "check": "primitive_sum", "q": q, "r": r, "enumerated": got,
                "formula": want}


@_sweep
def pair_sum(qmax: int):
    """Parity-restricted primitive sums at u = m n^-1 against the signed
    pair formula, m, n <= 2q coprime to q, both parities, q <= qmax."""
    for q in range(1, qmax + 1):
        G = build_group(q)
        cache: dict[tuple[int, int], object] = {}
        for m in range(1, 2 * q + 1):
            if math.gcd(m, q) != 1:
                continue
            for n in range(1, 2 * q + 1):
                if math.gcd(n, q) != 1:
                    continue
                u = m * pow(n, -1, q) % q
                for par in (0, 1):
                    key = (u, par)
                    if key not in cache:
                        cache[key] = exact_primitive_char_sum(G, u, parity=par)
                    got = cache[key]
                    want = signed_sum_eq21(q, m, n, par)
                    bad = got is None or got != want
                    yield _gap(got, want) if bad else 0.0, bad and {
                        "check": "signed_pair_sum", "q": q, "m": m, "n": n,
                        "parity": par,
                        "enumerated": None if got is None else int(got),
                        "formula": float(want)}


@_sweep
def gauss_modulus(qmax: int):
    """|tau(chi)| = sqrt(q) for every primitive chi mod q <= qmax, within
    1e-10; worst is the largest ||tau| - sqrt(q)|."""
    for q in range(1, qmax + 1):
        G = build_group(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            tau = gauss_sum(G, chi)
            dev = abs(abs(tau) - math.sqrt(q))
            yield dev, dev > 1e-10 and {"check": "gauss_modulus", "q": q,
                                        "exponents": list(chi.exponents),
                                        "abs_tau": abs(tau)}


@_sweep
def oracle_equation():
    """|L(1/2, chi)|^2 from the Hurwitz oracle against the smoothed 2A on
    every primitive chi, within the kernel-eps bound _oracle_tol(q);
    worst is the largest gap / bound."""
    for q in (3, 4, 5, 7, 8, 9, 11, 12, 13, 16):
        G = build_group(q)
        kw = kernel_weights(q)
        tol = _oracle_tol(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            cv = abc_values(G, chi, weights=kw)
            gap = abs(abs(l_half_oracle(G, chi)) ** 2 - 2.0 * cv.a_value)
            yield gap / tol, gap > tol and {
                "check": "oracle_equation", "q": q,
                "exponents": list(chi.exponents), "gap": gap, "bound": tol}


@_sweep
def diagonal_equality():
    """Diagonal main term by quadruple enumeration against the
    reparametrized sum, within 1e-10 relative; worst is the largest
    relative gap."""
    for q in (5, 7, 8, 9, 12):
        a = m_direct(q)
        b = m_reparametrized(q)
        rel = abs(a - b) / max(abs(a), abs(b))
        yield rel, rel > 1e-10 and {"check": "diagonal_equality", "q": q,
                                    "direct": a, "reparametrized": b,
                                    "rel": rel}


@_sweep
def lemma4(qmax: int):
    """Coprime harmonic sums at x = 1e2, 1e3, 1e4 within their envelope,
    and, for q > 1, sum_{p|q} log p / (p-1) <= 1.2 (1 + log omega(q)) as
    one more check per x; worst is the largest harmonic error / envelope."""
    for q in range(1, qmax + 1):
        for x in (1e2, 1e3, 1e4):
            r = lemma4_check(q, x)
            yield r.error / r.envelope, r.error > r.envelope and {
                "check": "harmonic_sum", "q": q, "x": x, "error": r.error,
                "envelope": r.envelope}
            if omega(q) >= 1:
                cap = 1.2 * (1.0 + math.log(omega(q)))
                yield 0.0, r.prime_log_sum > cap and {
                    "check": "prime_log_sum", "q": q,
                    "value": r.prime_log_sum, "cap": cap}


@_sweep
def lemma5():
    """2^omega(n)/n sums at x = 1e6: ratio2 inside its band for each q,
    and, as a second check per q, the head sum under 6x its envelope;
    worst is the largest |ratio2 - band centre| / band half-width (1 at a
    band edge)."""
    for q, (lo, hi) in LEMMA5_BANDS.items():
        r = lemma5_sums(q, 1e6)
        yield (abs(2.0 * r.ratio2 - lo - hi) / (hi - lo),
               not lo <= r.ratio2 <= hi and {
                   "check": "two_omega_sum", "q": q, "ratio2": r.ratio2,
                   "band": [lo, hi]})
        yield 0.0, r.sum1 > 6.0 * r.sum1_envelope and {
            "check": "two_omega_head", "q": q, "sum1": r.sum1,
            "envelope": r.sum1_envelope}


@_sweep
def lemma3():
    """Dyadic quadruple counts: zero when k > 16 Z1 Z2, else under twice
    the envelope; worst is the largest count / envelope."""
    for k, z1, z2 in ((5, 4, 4), (5, 32, 32), (7, 64, 16), (11, 128, 128),
                      (97, 2, 2)):
        r = lemma3_count(k, z1, z2)
        if k > 16 * z1 * z2:  # no quadruple fits the box
            yield r.count / r.envelope, r.count != 0 and {
                "check": "quadruple_zero", "k": k, "count": r.count}
        else:
            yield r.count / r.envelope, r.count > 2.0 * r.envelope and {
                "check": "quadruple_count", "k": k, "z1": z1, "z2": z2,
                "count": r.count, "envelope": r.envelope}


@_sweep
def error_sum():
    """Measured off-diagonal remainder |E| under 5% of q (log q)^3; worst
    is the largest |E| / envelope."""
    for q in (5, 12, 45, 60):
        r = error_sum_E(q)
        yield (abs(r.e_measured) / r.envelope,
               abs(r.e_measured) > 0.05 * r.envelope and {
                   "check": "error_sum", "q": q, "e_measured": r.e_measured,
                   "envelope": r.envelope})


@_sweep
def tail(qmax: int):
    """sum over all chi of C^2, from compute_spectrum's C values, under its
    stated envelope for 3 <= q <= qmax; worst is the largest value /
    envelope."""
    for q in range(3, qmax + 1):
        c = compute_spectrum(q).c_values
        c_all = float(np.sum(c * c))
        env = (q * (euler_phi(q) / q) ** 5
               * (max(omega(q), 1) * math.log(q)) ** 2 + q * math.log(q) ** 3)
        yield c_all / env, c_all > env and {"check": "tail_moment", "q": q,
                                            "c_moment_all": c_all,
                                            "envelope": env}
