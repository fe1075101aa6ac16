"""The benchmark's workloads: inputs from a seed, one operation, its check.

An operation handles one modulus.  It drives dirmoment only through the
CLI entry point ``dirmoment.cli.main`` or public library functions, with
default arguments (no thread, transform or kernel knobs), and it returns
the bytes whose rerun must be identical plus what its check needs.  A
check returns a list of failure reasons; an empty list means the output
is correct.  Checks run outside the timed region.

Per-modulus cost varies several-fold with the factorisation of q, so the
two workloads that mix moduli run whole passes over one fixed window from
a seeded start: every run then does the same multiset of work and the
spread between seeds measures the machine, not the input mix.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from dirmoment import arith, asymptotics, chargroup, cli, kernel, lfunc, spectra

import spans

# |2A - |L|^2| bound: each kernel value is within eps, and A sums
# W(pi ab / q) / sqrt(ab) over ab <= m_eff < 24 q / pi, whose weights add
# up to at most 2 sqrt(m)(1 + ln m); doubled for 2A.
def oracle_tol(q: int) -> float:
    m = 24.0 * q / math.pi
    return 2.0 * kernel.KernelConfig().eps * 2.0 * math.sqrt(m) * (1.0 + math.log(m))


MOMENT_REL_TOL = 1e-9      # table vs per-character moment (criterion 3)
CONSISTENCY_REL_TOL = 1e-12  # fields of one report derived from each other
IMAG_RESIDUE_MAX = 1e-9
RATIO_BAND = (0.3, 4.0)
ORACLE_SAMPLES = 4


@dataclass
class Output:
    """One operation's result: ``data`` must repeat byte for byte."""

    data: bytes
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    moduli: Callable[[random.Random], Iterator[list[int]]]  # passes of moduli
    op: Callable[[int, str], Output]
    check: Callable[[int, Output, random.Random], list[str]]


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _fmt(xs) -> bytes:
    return ",".join("%.17g" % x for x in xs).encode()


def _cli(*args: str) -> None:
    rc = cli.main(list(args))
    if rc:
        raise RuntimeError(f"dirmoment {' '.join(args)} returned {rc}")


# -- moment-prime ----------------------------------------------------------

def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1)
            if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]


def _prime_moduli(rng: random.Random) -> Iterator[list[int]]:
    primes = _primes(10000, 11000)
    while True:
        rng.shuffle(primes)
        for p in primes:
            yield [p]


def _moment_op(q: int, tmp: str) -> Output:
    path = os.path.join(tmp, f"moment-{q}.json")
    seen: list = []

    def keep(f):
        def inner(*args, **kwargs):
            seen.append(f(*args, **kwargs))
            return seen[-1]
        return inner

    # keep the spectrum the CLI computes, so the check needs no second run
    restore = spans.patch("dirmoment.spectra", "compute_spectrum", keep)
    try:
        _cli("moment", "--q", str(q), "--out", path)
    finally:
        if restore:
            restore()
    with open(path, "rb") as fh:
        data = fh.read()
    return Output(data, {"spectrum": seen[-1] if seen else None})


def check_moment(q: int, out: Output, rng: random.Random) -> list[str]:
    """JSON fields, the moment against the spectrum, and 2A against the
    Hurwitz oracle on a few sampled primitive characters."""
    bad = []
    rep = json.loads(out.data)
    if rep["q"] != q or rep["phi_star"] != arith.phi_star(q):
        bad.append(f"q/phi_star fields {rep['q']}/{rep['phi_star']}")
    if not RATIO_BAND[0] <= rep["ratio"] <= RATIO_BAND[1]:
        bad.append(f"ratio {rep['ratio']} outside {RATIO_BAND}")
    if not abs(rep["imag_residue"]) <= IMAG_RESIDUE_MAX:
        bad.append(f"imag_residue {rep['imag_residue']}")
    spec = out.extra.get("spectrum") or spectra.compute_spectrum(q)
    a = spec.b_values + spec.c_values
    prim = np.flatnonzero(spec.primitive).tolist()
    moment = 4.0 * float((a[prim] ** 2).sum())
    if _rel(moment, rep["fourth_moment"]) > CONSISTENCY_REL_TOL:
        bad.append(f"moment {rep['fourth_moment']} vs spectrum {moment}")
    gaps = []
    for i in rng.sample(prim, min(ORACLE_SAMPLES, len(prim))):
        L = lfunc.l_half_oracle(spec.group, spec.group.label_at(i))
        gaps.append(abs(2.0 * float(a[i]) - abs(L) ** 2))
    out.extra["oracle_gap"] = max(gaps, default=0.0)
    if not out.extra["oracle_gap"] <= oracle_tol(q):
        bad.append(f"oracle gap {out.extra['oracle_gap']:.3e}")
    out.extra.pop("spectrum", None)
    return bad


# -- scan-window -------------------------------------------------------------

# Top of the exact-angle transform range (q < 3000): a prime (2999), 3^4 * 37,
# 2^4 * 11 * 17, odd semiprimes and three q = 2 mod 4 with phi* = 0.
SCAN_WINDOW = range(2990, 3000)


def _window_passes(window) -> Callable[[random.Random], Iterator[list[int]]]:
    """Whole passes over the window, consecutive from a seeded start and
    wrapping around."""
    def passes(rng: random.Random) -> Iterator[list[int]]:
        qs = list(window)
        start = rng.randrange(len(qs))
        while True:
            yield qs[start:] + qs[:start]
    return passes


def _scan_op(q: int, tmp: str) -> Output:
    path = os.path.join(tmp, f"scan-{q}.csv")
    _cli("scan", "--qmin", str(q), "--qmax", str(q), "--out", path)
    with open(path, "rb") as fh:
        return Output(fh.read())


def check_scan(q: int, out: Output, rng: random.Random) -> list[str]:
    """Every row parses and is finite where phi* > 0; the ratio and main
    term columns agree with the moment and the closed form."""
    rows = list(csv.DictReader(io.StringIO(out.data.decode())))
    if len(rows) != 1 or int(rows[0]["q"]) != q:
        return [f"expected one row for q = {q}, got {len(rows)}"]
    row = rows[0]
    phi_star = int(row["phi_star"])
    vals = {k: float(v) for k, v in row.items() if k not in ("q", "phi_star")}
    if phi_star == 0:
        return []
    bad = [f"{k} = {v}" for k, v in vals.items() if not math.isfinite(v)]
    if bad:
        return bad
    if _rel(vals["ratio"], vals["moment"] / vals["main_term"]) > CONSISTENCY_REL_TOL:
        bad.append(f"ratio {vals['ratio']} vs moment/main_term")
    if _rel(vals["main_term"], asymptotics.theorem_main_term(q)) > CONSISTENCY_REL_TOL:
        bad.append(f"main_term {vals['main_term']}")
    return bad


# -- crosscheck --------------------------------------------------------------

# q = 2 mod 4 has no primitive characters.
CROSS_WINDOW = [q for q in range(160, 180) if q % 4 != 2]


def _cross_op(q: int, tmp: str) -> Output:
    rep = spectra.fourth_moment(q)
    G = chargroup.build_group(q)
    kw = lfunc.kernel_weights(q)
    prim = [chi for chi in G.labels() if chi.primitive]
    cvs = [lfunc.abc_values(G, chi, weights=kw) for chi in prim]
    ls = [lfunc.l_half_oracle(G, chi) for chi in prim]
    err = asymptotics.error_sum_E(q)
    a = [cv.a_value for cv in cvs]
    data = b"\n".join([
        _fmt([rep.fourth_moment, rep.b_moment, err.b_sq_sum, err.m_value,
              err.e_measured]),
        _fmt(a), _fmt(z for L in ls for z in (L.real, L.imag))])
    return Output(data, {"table": rep.fourth_moment, "b_moment": rep.b_moment,
                         "a": a, "l_sq": [abs(L) ** 2 for L in ls],
                         "m_value": err.m_value, "e_measured": err.e_measured})


def check_cross(q: int, out: Output, rng: random.Random) -> list[str]:
    """Table vs per-character moment, 2A vs the oracle, E vs B-moment - M."""
    x = out.extra
    bad = []
    direct = 4.0 * math.fsum(v * v for v in x["a"])
    x["pipeline_gap"] = _rel(direct, x["table"])
    if not x["pipeline_gap"] <= MOMENT_REL_TOL:
        bad.append(f"table moment {x['table']} vs per-character {direct}")
    x["oracle_gap"] = max((abs(2.0 * a - l) for a, l in zip(x["a"], x["l_sq"])),
                          default=0.0)
    if not x["oracle_gap"] <= oracle_tol(q):
        bad.append(f"oracle gap {x['oracle_gap']:.3e}")
    e_table = x["b_moment"] - x["m_value"]
    if not abs(e_table - x["e_measured"]) <= MOMENT_REL_TOL * abs(x["b_moment"]):
        bad.append(f"E {x['e_measured']} vs b_moment - M {e_table}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("moment-prime", _prime_moduli, _moment_op, check_moment),
    Workload("scan-window", _window_passes(SCAN_WINDOW), _scan_op, check_scan),
    Workload("crosscheck", _window_passes(CROSS_WINDOW), _cross_op, check_cross),
)}
