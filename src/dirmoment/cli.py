"""Command-line front end.

Subcommands:
  moment             fourth moment at one modulus, JSON report (stage
                     times under --timings: group, hurwitz, kernel,
                     tables, transform, assemble)
  scan               moment sweep over a modulus range, CSV; its c_moment
                     column sums C^2 over every character (tail_moment_all)
  value              one character's central value, both pipelines
  verify-identities  exact character-sum identity checks, exit 1 on failure
  verify-bounds      measured-bound checks (lemmas, tails), exit 1 on failure
  kernel-table       CSV table of W_0 and W_1 on an x grid

Exit codes: 0 success, 1 a verification check failed, 2 usage error
(the subcommand's usage and the offending argument go to stderr) or a
rejected input: a ValueError or KernelAccuracyError raised by the
subcommand becomes "dirmoment: error: <type>: <message>" on stderr.
All floats are rendered with %.17g so byte-identical reruns mean
bit-identical numbers; timing columns default to 0 and only carry real
measurements under --timings, keeping default output reproducible.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Iterable, Optional

import numpy as np

from .arith import euler_phi, omega
from .chargroup import (build_group, exact_primitive_char_sum, gauss_sum,
                        primitive_sum_lemma1, signed_sum_eq21)
from .kernel import KernelAccuracyError, KernelConfig, w_eval_batch
from .lfunc import abc_values, kernel_weights
from .spectra import fourth_moment, tail_moment_all
from .asymptotics import (error_sum_E, lemma3_count, lemma4_check,
                          lemma5_sums, m_direct, m_reparametrized)
from .numerics import fmt_float

__all__ = ["main"]

_SCAN_HEADER = "q,phi_star,moment,main_term,ratio,b_moment,c_moment,E_measured,wall_ms"


def _json(obj, indent: int = 0) -> str:
    """Minimal JSON writer routing every float through fmt_float."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json(v, indent + 2)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return f'"{fmt_float(x)}"'
        return fmt_float(x)
    if isinstance(obj, complex):
        return _json({"re": obj.real, "im": obj.imag}, indent)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _kernel_cfg(args: argparse.Namespace) -> KernelConfig:
    return KernelConfig(c=args.kernel_c, h=args.kernel_h, eps=args.kernel_eps,
                        x_zero=args.x_zero)


def _add_common(p: argparse.ArgumentParser) -> None:
    d = KernelConfig()
    p.add_argument("--kernel-c", type=float, default=d.c,
                   help=f"quadrature line abscissa (default {d.c})")
    p.add_argument("--kernel-h", type=float, default=d.h,
                   help=f"quadrature step (default {d.h}; step error about "
                        "2 exp(-2 pi c / h), checked against h/2 at runtime)")
    p.add_argument("--kernel-eps", type=float, default=d.eps,
                   help=f"kernel accuracy target (default {d.eps:g})")
    p.add_argument("--x-zero", type=float, default=d.x_zero,
                   help=f"hard zero cutoff for the kernel argument "
                        f"(default {d.x_zero})")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _cmd_moment(args: argparse.Namespace) -> int:
    cfg = _kernel_cfg(args)
    rep = fourth_moment(args.q, cfg)
    payload: dict = {
        "q": rep.q,
        "phi_star": rep.phi_star,
        "fourth_moment": rep.fourth_moment,
        "main_term": rep.main_term,
        "ratio": rep.ratio,
        "b_moment": rep.b_moment,
        "c_moment_primitive": rep.c_moment_primitive,
        "cross_term": rep.cross_term,
        "imag_residue": rep.imag_residue,
        "m_eff": rep.m_eff,
        "z_floor": rep.z_floor,
    }
    if rep.phi_star == 0:
        payload["warning"] = "no primitive characters"
        print(f"warning: no primitive characters mod {rep.q}",
              file=sys.stderr)
    if args.timings:
        payload["wall_ms"] = {k: v * 1000.0 for k, v in rep.wall.items()}
    _emit(_json(payload), args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.qmin < 1 or args.qmax < args.qmin:
        args.parser.error(f"need 1 <= --qmin <= --qmax, got --qmin "
                          f"{args.qmin} --qmax {args.qmax}")
    cfg = _kernel_cfg(args)
    lines = [_SCAN_HEADER]
    for q in range(args.qmin, args.qmax + 1):
        t0 = time.perf_counter()
        G = build_group(q)
        kw = kernel_weights(q, cfg)
        rep = fourth_moment(q, cfg, group=G, weights=kw)
        c_all = tail_moment_all(q, cfg, group=G, weights=kw)
        e_meas = rep.b_moment - m_reparametrized(q, cfg, weights=kw)
        wall_ms = (time.perf_counter() - t0) * 1000.0 if args.timings else 0.0
        lines.append(",".join((
            str(q), str(rep.phi_star),
            fmt_float(rep.fourth_moment), fmt_float(rep.main_term),
            fmt_float(rep.ratio), fmt_float(rep.b_moment),
            fmt_float(c_all), fmt_float(e_meas),
            fmt_float(wall_ms))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_value(args: argparse.Namespace) -> int:
    cfg = _kernel_cfg(args)
    G = build_group(args.q)
    if not 0 <= args.char < G.group_order:
        args.parser.error(f"--char must be in [0, {G.group_order}) for "
                          f"--q {args.q}, got {args.char}")
    chi = G.label_at(args.char)
    want_oracle = chi.primitive and G.q >= 3 and not args.no_oracle
    cv = abc_values(G, chi, cfg, with_oracle=want_oracle)
    payload = {
        "q": args.q,
        "char": args.char,
        "exponents": list(chi.exponents),
        "parity": chi.parity,
        "conductor": chi.conductor,
        "primitive": chi.primitive,
        "a_value": cv.a_value,
        "b_value": cv.b_value,
        "c_value": cv.c_value,
        "imag_residue": cv.imag_residue,
        "m_eff": cv.m_eff,
        "two_a": 2.0 * cv.a_value,
    }
    if cv.l_oracle is not None:
        payload["l_oracle"] = cv.l_oracle
        payload["l_abs_sq"] = abs(cv.l_oracle) ** 2
        payload["afe_discrepancy"] = abs(cv.l_oracle) ** 2 - 2.0 * cv.a_value
    _emit(_json(payload), args.out)
    return 0


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    failures: list[dict] = []
    checks = 0

    # closed form vs exact enumeration for the primitive character sum
    for q in range(1, args.qmax_lemma1 + 1):
        G = build_group(q)
        for r in range(1, q + 1):
            if math.gcd(r, q) != 1:
                continue
            checks += 1
            got = exact_primitive_char_sum(G, r)
            want = primitive_sum_lemma1(q, r)
            if got != want:
                failures.append({"check": "primitive_sum", "q": q, "r": r,
                                 "enumerated": got, "formula": want})
    print(f"primitive-sum identity: q <= {args.qmax_lemma1}, "
          f"{checks} cases, {len(failures)} failures")

    # parity-restricted pair sums
    n0 = len(failures)
    c0 = checks
    for q in range(1, args.qmax_pairs + 1):
        G = build_group(q)
        cache: dict[tuple[int, int], object] = {}
        for m in range(1, 2 * q + 1):
            if math.gcd(m, q) != 1:
                continue
            for n in range(1, 2 * q + 1):
                if math.gcd(n, q) != 1:
                    continue
                u = m * pow(n, -1, q) % q if q > 1 else 0
                for par in (0, 1):
                    checks += 1
                    key = (u, par)
                    if key not in cache:
                        cache[key] = exact_primitive_char_sum(G, u, parity=par)
                    got = cache[key]
                    want = signed_sum_eq21(q, m, n, par)
                    if got is None or got != want:
                        failures.append({
                            "check": "signed_pair_sum", "q": q, "m": m,
                            "n": n, "parity": par,
                            "enumerated": None if got is None else int(got),
                            "formula": float(want)})
    print(f"parity pair-sum identity: q <= {args.qmax_pairs}, "
          f"{checks - c0} cases, {len(failures) - n0} failures")

    # Gauss sum modulus for primitive characters
    n0 = len(failures)
    c0 = checks
    for q in range(1, args.qmax_gauss + 1):
        G = build_group(q)
        for chi in G.labels():
            if not chi.primitive:
                continue
            checks += 1
            tau = gauss_sum(G, chi)
            if abs(abs(tau) - math.sqrt(q)) > 1e-10:
                failures.append({"check": "gauss_modulus", "q": q,
                                 "exponents": list(chi.exponents),
                                 "abs_tau": abs(tau)})
    print(f"gauss-sum modulus: q <= {args.qmax_gauss}, "
          f"{checks - c0} cases, {len(failures) - n0} failures")

    # smoothed functional equation against the Hurwitz-zeta oracle
    n0 = len(failures)
    c0 = checks
    cfg = _kernel_cfg(args)
    for q in (3, 4, 5, 7, 8, 9, 11, 12, 13, 16):
        G = build_group(q)
        kw = kernel_weights(q, cfg)
        for chi in G.labels():
            if not chi.primitive:
                continue
            checks += 1
            cv = abc_values(G, chi, cfg, weights=kw, with_oracle=True)
            lhs = abs(cv.l_oracle) ** 2
            rel = abs(lhs - 2.0 * cv.a_value) / abs(lhs)
            if rel > 1e-6:
                failures.append({"check": "oracle_equation", "q": q,
                                 "exponents": list(chi.exponents),
                                 "rel": rel})
    print(f"central-value oracle equation: {checks - c0} characters, "
          f"{len(failures) - n0} failures")

    # diagonal-sum reorganization equality
    n0 = len(failures)
    for q in (5, 7, 8, 9, 12):
        checks += 1
        kw = kernel_weights(q, cfg)
        a = m_direct(q, cfg, weights=kw)
        b = m_reparametrized(q, cfg, weights=kw)
        rel = abs(a - b) / max(abs(a), abs(b))
        if rel > 1e-10:
            failures.append({"check": "diagonal_equality", "q": q,
                             "direct": a, "reparametrized": b, "rel": rel})
    print(f"diagonal reorganization equality: 5 moduli, "
          f"{len(failures) - n0} failures")

    payload = {"checks": checks, "failures": failures}
    _emit(_json(payload), args.out)
    return 1 if failures else 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    cfg = _kernel_cfg(args)
    failures: list[dict] = []
    checks = 0
    want = set(args.only) if args.only else {"lemma3", "lemma4", "lemma5",
                                             "error", "tail"}

    if "lemma4" in want:
        # coprime harmonic sums against the closed form
        for q in range(1, args.qmax + 1):
            for x in (1e2, 1e3, 1e4):
                checks += 1
                r = lemma4_check(q, x)
                if r.error > r.envelope:
                    failures.append({"check": "harmonic_sum", "q": q,
                                     "x": x, "error": r.error,
                                     "envelope": r.envelope})
                if omega(q) >= 1:
                    checks += 1
                    cap = 1.2 * (1.0 + math.log(omega(q)))
                    if r.prime_log_sum > cap:
                        failures.append({"check": "prime_log_sum", "q": q,
                                         "value": r.prime_log_sum,
                                         "cap": cap})
        print(f"harmonic-sum bound: q <= {args.qmax}, "
              f"ok so far: {not failures}")

    if "lemma5" in want:
        # 2^omega sums: regression bands measured at first run
        bands = {1: (1.70, 1.72), 6: (2.50, 2.52), 30: (2.86, 2.88)}
        for q, (lo, hi) in bands.items():
            checks += 1
            r = lemma5_sums(q, 1e6)
            if not lo <= r.ratio2 <= hi:
                failures.append({"check": "two_omega_sum", "q": q,
                                 "ratio2": r.ratio2, "band": [lo, hi]})
            checks += 1
            if r.sum1 > 6.0 * r.sum1_envelope:
                failures.append({"check": "two_omega_head", "q": q,
                                 "sum1": r.sum1,
                                 "envelope": r.sum1_envelope})
        print("two-omega sums: regression bands checked")

    if "lemma3" in want:
        # dyadic quadruple counts
        for k, z1, z2 in ((5, 4, 4), (5, 32, 32), (7, 64, 16),
                          (11, 128, 128), (97, 2, 2)):
            checks += 1
            r = lemma3_count(k, z1, z2)
            if k > 16 * z1 * z2:
                if r.count != 0:
                    failures.append({"check": "quadruple_zero", "k": k,
                                     "count": r.count})
            elif r.count > 2.0 * r.envelope:
                failures.append({"check": "quadruple_count", "k": k,
                                 "z1": z1, "z2": z2, "count": r.count,
                                 "envelope": r.envelope})
        print("quadruple-count boxes: checked")

    if "error" in want:
        # measured off-diagonal remainder
        for q in (5, 12, 45, 60):
            checks += 1
            r = error_sum_E(q, cfg)
            if abs(r.e_measured) > 0.05 * r.envelope:
                failures.append({"check": "error_sum", "q": q,
                                 "e_measured": r.e_measured,
                                 "envelope": r.envelope})
        print("off-diagonal remainder: checked")

    if "tail" in want:
        # tail second moment against its stated envelope
        for q in range(3, args.qmax + 1):
            checks += 1
            c_all = tail_moment_all(q, cfg)
            phi = euler_phi(q)
            env = (q * (phi / q) ** 5
                   * (max(omega(q), 1) * math.log(q)) ** 2
                   + q * math.log(q) ** 3)
            if c_all > env:
                failures.append({"check": "tail_moment", "q": q,
                                 "tail_moment_all": c_all,
                                 "envelope": env})
        print(f"tail second moment: q <= {args.qmax}, done")

    payload = {"checks": checks, "failures": failures}
    _emit(_json(payload), args.out)
    return 1 if failures else 0


def _cmd_kernel_table(args: argparse.Namespace) -> int:
    cfg = _kernel_cfg(args)
    if args.points < 2:
        args.parser.error(f"--points must be >= 2, got {args.points}")
    if args.xmin <= 0 or args.xmax <= args.xmin:
        args.parser.error(f"need 0 < --xmin < --xmax, got --xmin "
                          f"{args.xmin} --xmax {args.xmax}")
    if args.linear:
        xs = np.linspace(args.xmin, args.xmax, args.points)
    else:
        xs = np.geomspace(args.xmin, args.xmax, args.points)
    w0 = w_eval_batch(0, xs, cfg)
    w1 = w_eval_batch(1, xs, cfg)
    lines = ["x,W0,W1"]
    for x, a, b in zip(xs, w0, w1):
        lines.append(f"{fmt_float(float(x))},{fmt_float(float(a))},{fmt_float(float(b))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirmoment",
        description="Fourth-moment experiments for Dirichlet L-functions "
                    "at the central point")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="fourth moment at one modulus")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock stage times in the report")
    _add_common(p)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("scan", help="CSV sweep over a modulus range")
    p.add_argument("--qmin", type=int, default=3)
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--timings", action="store_true",
                   help="emit real wall_ms (breaks byte reproducibility)")
    _add_common(p)
    p.set_defaults(func=_cmd_scan, parser=p)

    p = sub.add_parser("value", help="central value for one character")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--char", type=int, required=True,
                   help="character index in [0, phi(q)), lexicographic over "
                        "component exponents")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the Hurwitz-zeta cross-check")
    _add_common(p)
    p.set_defaults(func=_cmd_value, parser=p)

    p = sub.add_parser("verify-identities",
                       help="exact character-sum identities")
    p.add_argument("--qmax-lemma1", type=int, default=100, dest="qmax_lemma1")
    p.add_argument("--qmax-pairs", type=int, default=60, dest="qmax_pairs")
    p.add_argument("--qmax-gauss", type=int, default=100, dest="qmax_gauss")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("verify-bounds", help="measured bound checks")
    p.add_argument("--qmax", type=int, default=60)
    p.add_argument("--only", nargs="+",
                   choices=("lemma3", "lemma4", "lemma5", "error", "tail"),
                   help="restrict to these check families")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("kernel-table", help="CSV table of the kernel")
    p.add_argument("--xmin", type=float, default=1e-3)
    p.add_argument("--xmax", type=float, default=16.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--linear", action="store_true",
                   help="linear instead of log spacing")
    _add_common(p)
    p.set_defaults(func=_cmd_kernel_table, parser=p)
    return ap


def main(argv: Optional[Iterable[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except (ValueError, KernelAccuracyError) as exc:
        ap.exit(2, f"{ap.prog}: error: {type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
