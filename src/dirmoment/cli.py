"""Command-line front end.

Subcommands:
  moment             fourth moment at one modulus, JSON report (stage
                     times under --timings: group, hurwitz, kernel,
                     tables, transform, assemble)
  scan               moment sweep over a modulus range, CSV: each row reads
                     the moment report, from a head-only kernel table; a
                     row with no primitive character (phi* = 0, q = 2
                     mod 4) builds no table and prints E_measured 0
  value              one character's central value, both pipelines
  verify-identities  exact character-sum identity checks, exit 1 on failure
  verify-bounds      measured-bound checks (lemmas, tails), exit 1 on failure
  kernel-table       CSV table of W_0 and W_1 on an x grid

The verify commands run the sweeps of dirmoment.checks, the same ones the
acceptance tests run, and print one line per sweep family.

The kernel runs at its one configuration, kernel._CONFIG; no
subcommand takes kernel settings.

Exit codes: 0 success, 1 a verification check failed, 2 usage error
(the subcommand's usage and the offending argument go to stderr; an
empty sweep range, any --qmax* below 1, is one) or a rejected input: a
ValueError (bad input, a cost cap) or KernelAccuracyError (the kernel's
runtime check or a Chebyshev fit failed) raised by the subcommand becomes
"dirmoment: error: <type>: <message>" on stderr.  A moment report or
scan row whose ratio is nan (main term 0: no primitive characters, or
q = 1) also prints a warning to stderr.
All floats are rendered with %.17g so byte-identical reruns mean
bit-identical numbers; timing columns default to 0 and only carry real
measurements under --timings, keeping default output reproducible.

The argument parser is built once, when the module is imported, and
main reuses it: main may be called any number of times in one process
(the tests and the benchmark harness do), and no call leaves state in
the parser for the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from typing import Iterable, Optional

import numpy as np

from . import checks
from .arith import phi_star
from .chargroup import _check_modulus, build_group
from .kernel import KernelAccuracyError, w_eval_batch
from .lfunc import abc_values, kernel_weights, l_half_oracle
from .spectra import MomentReport, fourth_moment
from .asymptotics import m_reparametrized
from .numerics import fmt_float

__all__ = ["main"]

_SCAN_HEADER = "q,phi_star,moment,main_term,ratio,b_moment,c_moment_primitive,E_measured,wall_ms"


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
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def positive_int(text: str) -> int:
    """Top of a sweep range; an empty range is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")


def _warn_nan_ratio(rep: MomentReport) -> None:
    if math.isnan(rep.ratio):
        print(f"warning: ratio is nan at q = {rep.q}: the main term is 0 "
              f"(phi_star = {rep.phi_star})", file=sys.stderr)


def _cmd_moment(args: argparse.Namespace) -> int:
    rep = fourth_moment(args.q)
    # the fields are flat, so no deep copy (dataclasses.asdict) is needed
    payload = {f.name: getattr(rep, f.name)
               for f in dataclasses.fields(rep) if f.name != "wall"}
    if rep.phi_star == 0:
        payload["warning"] = "no primitive characters"
        print(f"warning: no primitive characters mod {rep.q}",
              file=sys.stderr)
    else:
        _warn_nan_ratio(rep)
    if args.timings:
        payload["wall_ms"] = {k: v * 1000.0 for k, v in rep.wall.items()}
    _emit(_json(payload), args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.qmin < 1 or args.qmax < args.qmin:
        args.parser.error(f"need 1 <= --qmin <= --qmax, got --qmin "
                          f"{args.qmin} --qmax {args.qmax}")
    # the group's range at the largest modulus, before any row is computed
    _check_modulus(args.qmax)
    lines = [_SCAN_HEADER]
    for q in range(args.qmin, args.qmax + 1):
        t0 = time.perf_counter()
        if phi_star(q):
            kw = kernel_weights(q, head_only=True)
            rep = fourth_moment(q, weights=kw)
            e_meas = rep.b_moment - m_reparametrized(q, weights=kw)
        else:  # no primitive character: the report of zeros, E = 0 - 0
            rep, e_meas = fourth_moment(q), 0.0
        wall_ms = (time.perf_counter() - t0) * 1000.0 if args.timings else 0.0
        _warn_nan_ratio(rep)
        lines.append(",".join((
            str(q), str(rep.phi_star),
            fmt_float(rep.fourth_moment), fmt_float(rep.main_term),
            fmt_float(rep.ratio), fmt_float(rep.b_moment),
            fmt_float(rep.c_moment_primitive), fmt_float(e_meas),
            fmt_float(wall_ms))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_value(args: argparse.Namespace) -> int:
    G = build_group(args.q)
    if not 0 <= args.char < G.group_order:
        args.parser.error(f"--char must be in [0, {G.group_order}) for "
                          f"--q {args.q}, got {args.char}")
    chi = G.label_at(args.char)
    cv = abc_values(G, chi)
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
        "m_eff": cv.m_eff,
        "two_a": 2.0 * cv.a_value,
    }
    if chi.primitive and G.q >= 3:
        oracle = l_half_oracle(G, chi)
        payload["l_oracle"] = oracle
        payload["l_abs_sq"] = abs(oracle) ** 2
        payload["afe_discrepancy"] = abs(oracle) ** 2 - 2.0 * cv.a_value
    _emit(_json(payload), args.out)
    return 0


def _run_sweeps(args: argparse.Namespace, sweeps) -> int:
    """Run each (line, sweep) in turn and print the line, formatted with
    the arguments `a`, the SweepResult `r`, its failure count `bad` and
    whether all checks so far passed `ok`; emit the failures as JSON.
    Exit code 1 if any check failed."""
    total = 0
    failures: list[dict] = []
    for line, sweep in sweeps:
        r = sweep()
        print(line.format(a=args, r=r, bad=len(r.failures),
                          ok=not (failures or r.failures)))
        total += r.checks
        failures += r.failures
    _emit(_json({"checks": total, "failures": failures}), args.out)
    return 1 if failures else 0


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    cases = "{r.checks} cases, {bad} failures"
    return _run_sweeps(args, (
        ("primitive-sum identity: q <= {a.qmax_lemma1}, " + cases,
         lambda: checks.primitive_sum(args.qmax_lemma1)),
        ("parity pair-sum identity: q <= {a.qmax_pairs}, " + cases,
         lambda: checks.pair_sum(args.qmax_pairs)),
        ("gauss-sum modulus: q <= {a.qmax_gauss}, " + cases,
         lambda: checks.gauss_modulus(args.qmax_gauss)),
        ("central-value oracle equation: {r.checks} characters, "
         "{bad} failures", checks.oracle_equation),
        ("diagonal reorganization equality: {r.checks} moduli, "
         "{bad} failures", checks.diagonal_equality)))


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    sweeps = {
        "lemma4": ("harmonic-sum bound: q <= {a.qmax}, ok so far: {ok}",
                   lambda: checks.lemma4(args.qmax)),
        "lemma5": ("two-omega sums: regression bands checked", checks.lemma5),
        "lemma3": ("quadruple-count boxes: checked", checks.lemma3),
        "error": ("off-diagonal remainder: checked", checks.error_sum),
        "tail": ("tail second moment: q <= {a.qmax}, done",
                 lambda: checks.tail(args.qmax)),
    }
    want = args.only or sweeps
    return _run_sweeps(args, [v for k, v in sweeps.items() if k in want])


def _cmd_kernel_table(args: argparse.Namespace) -> int:
    if args.points < 2:
        args.parser.error(f"--points must be >= 2, got {args.points}")
    if args.xmin <= 0 or args.xmax <= args.xmin:
        args.parser.error(f"need 0 < --xmin < --xmax, got --xmin "
                          f"{args.xmin} --xmax {args.xmax}")
    if args.linear:
        xs = np.linspace(args.xmin, args.xmax, args.points)
    else:
        xs = np.geomspace(args.xmin, args.xmax, args.points)
    w0, w1 = w_eval_batch(np.empty((2, xs.size)), xs)
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
                        "component exponents (an odd p^e's cyclic group "
                        "split into coprime factors, Good-Thomas)")
    _add_common(p)
    p.set_defaults(func=_cmd_value, parser=p)

    p = sub.add_parser("verify-identities",
                       help="exact character-sum identities")
    p.add_argument("--qmax-lemma1", type=positive_int, default=100)
    p.add_argument("--qmax-pairs", type=positive_int, default=60)
    p.add_argument("--qmax-gauss", type=positive_int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("verify-bounds", help="measured bound checks")
    p.add_argument("--qmax", type=positive_int, default=60)
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


# built once per process: each add_argument costs a help formatter and
# gettext lookups, about 1 ms for the whole tree on every call otherwise
_PARSER = _build_parser()


def main(argv: Optional[Iterable[str]] = None) -> int:
    args = _PARSER.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except (ValueError, KernelAccuracyError) as exc:
        _PARSER.exit(2, f"{_PARSER.prog}: error: {type(exc).__name__}: "
                        f"{exc}\n")


if __name__ == "__main__":
    sys.exit(main())
