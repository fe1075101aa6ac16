"""Per-layer spans recorded from outside the program.

A traced function is replaced at every import site: each attribute of a
loaded ``dirmoment`` module (the defining module, the package namespace
and every module that imported the name) that refers to the function is
pointed at a wrapper, and restored afterwards.  Calls made through any of
those names, from the benchmark or from inside the package, then record a
span.  Nothing inside ``src/`` is changed.

A span is ``[name, op, start, end, parent, info]``; spans of one operation
share ``op``.  Self time is a span's duration minus the durations of its
direct children.  The client is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Iterator, Optional

import numpy as np

# span name -> (defining module, public function)
TARGETS = {
    "cli.main": ("dirmoment.cli", "main"),
    "chargroup.build_group": ("dirmoment.chargroup", "build_group"),
    "kernel.w_eval_batch": ("dirmoment.kernel", "w_eval_batch"),
    "lfunc.kernel_weights": ("dirmoment.lfunc", "kernel_weights"),
    "lfunc.abc_values": ("dirmoment.lfunc", "abc_values"),
    "lfunc.l_half_oracle": ("dirmoment.lfunc", "l_half_oracle"),
    "spectra.compute_spectrum": ("dirmoment.spectra", "compute_spectrum"),
    "spectra.all_char_sums": ("dirmoment.spectra", "all_char_sums"),
    "spectra.fourth_moment": ("dirmoment.spectra", "fourth_moment"),
    "asymptotics.theorem_main_term": ("dirmoment.asymptotics",
                                      "theorem_main_term"),
    "asymptotics.m_reparametrized": ("dirmoment.asymptotics",
                                     "m_reparametrized"),
    "asymptotics.error_sum_E": ("dirmoment.asymptotics", "error_sum_E"),
}


def patch(module: str, name: str,
          make_wrapper: Callable[[Callable], Callable]) -> Optional[Callable[[], None]]:
    """Point every import site of ``module.name`` at ``make_wrapper(f)``.

    Returns a function that restores the original bindings, or None when
    the name does not exist (the caller reports it as missing).
    """
    orig = getattr(sys.modules.get(module), name, None)
    if orig is None:
        return None
    wrapper = make_wrapper(orig)
    sites = [(mod, attr)
             for key, mod in list(sys.modules.items())
             if key == "dirmoment" or key.startswith("dirmoment.")
             for attr, val in list(vars(mod).items()) if val is orig]
    for mod, attr in sites:
        setattr(mod, attr, wrapper)

    def restore() -> None:
        for mod, attr in sites:
            setattr(mod, attr, orig)
    return restore


def _info(name: str, args: tuple, kwargs: dict, result) -> Optional[dict]:
    """Counts read at the span boundary from arguments and results."""
    if name == "kernel.w_eval_batch":
        xs = kwargs.get("xs", args[1] if len(args) > 1 else ())
        return {"points": int(np.size(xs))}
    if name == "chargroup.build_group":
        return {"phi": int(getattr(result, "group_order", 0))}
    if name == "spectra.fourth_moment":
        return {"q": getattr(result, "q", None),
                "m_eff": getattr(result, "m_eff", None),
                "imag_residue": getattr(result, "imag_residue", None)}
    return None


class Tracer:
    """Spans of the traced functions, recorded while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing = sorted(f"{mod}.{fn}" for mod, fn in TARGETS.values()
                              if getattr(sys.modules.get(mod), fn, None) is None)
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, orig: Callable) -> Callable:
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, self._op, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            span[5] = _info(name, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, op: int) -> Iterator[None]:
        """Record spans of operation ``op`` while the block runs."""
        self._op = op
        restores = [restore for name, (mod, fn) in TARGETS.items()
                    if (restore := patch(mod, fn,
                                         functools.partial(self._wrap, name)))]
        try:
            yield
        finally:
            for restore in reversed(restores):
                restore()


def coprime_pairs(q: int, m: int) -> int:
    """#{(a, b) : ab <= m, gcd(ab, q) = 1}, from the coprime-count prefix sum.

    This is the number of pairs the table build enumerates for a modulus
    whose kernel truncation is m; it is computed here, not counted inside
    the program.
    """
    n = np.arange(m + 1, dtype=np.int64)
    cop = np.gcd(n, q) == 1
    cop[0] = False
    prefix = np.cumsum(cop)
    a = n[cop]
    return int(prefix[m // a].sum())


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer figures as (value, unit): self seconds, counts
    and rates.  A layer the workload never reaches reads 0."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    for name, _op, start, end, parent, _info in spans:
        if parent is not None:
            child_s[parent] += end - start
    points = phi = pairs = 0
    imag = 0.0
    for i, (name, _op, start, end, _parent, info) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
        calls[name] = calls.get(name, 0) + 1
        info = info or {}
        points += info.get("points", 0)
        phi += info.get("phi", 0)
        if info.get("m_eff"):
            pairs += coprime_pairs(int(info["q"]), int(info["m_eff"]))
        if info.get("imag_residue") is not None:
            imag = max(imag, float(info["imag_residue"]))

    def secs(span: str) -> tuple[float, str]:
        return self_s.get(span, 0.0) / n_ops, "s"

    def count(x: float) -> tuple[float, str]:
        return x / n_ops, "count"

    def rate(num: float, span: str) -> tuple[float, str]:
        den = self_s.get(span, 0.0)
        return (num / den if den > 0 else 0.0), "1/s"

    return {
        "kernel.eval_s": secs("kernel.w_eval_batch"),
        "kernel.points": count(points),
        "kernel.points_per_s": rate(points, "kernel.w_eval_batch"),
        "lfunc.weights_s": secs("lfunc.kernel_weights"),
        "spectra.tables_s": secs("spectra.compute_spectrum"),
        "spectra.pairs": count(pairs),
        "spectra.pairs_per_s": rate(pairs, "spectra.compute_spectrum"),
        "spectra.transform_s": secs("spectra.all_char_sums"),
        "spectra.transform_calls": count(calls.get("spectra.all_char_sums", 0)),
        "spectra.assemble_s": secs("spectra.fourth_moment"),
        "spectra.imag_residue_max": (imag, "abs"),
        "chargroup.build_s": secs("chargroup.build_group"),
        "chargroup.phi": count(phi),
        "lfunc.abc_s": secs("lfunc.abc_values"),
        "lfunc.abc_calls": count(calls.get("lfunc.abc_values", 0)),
        "lfunc.oracle_s": secs("lfunc.l_half_oracle"),
        "lfunc.oracle_calls": count(calls.get("lfunc.l_half_oracle", 0)),
        "asymptotics.repar_s": secs("asymptotics.m_reparametrized"),
        "asymptotics.error_sum_s": secs("asymptotics.error_sum_E"),
        "asymptotics.main_term_s": secs("asymptotics.theorem_main_term"),
        "cli.self_s": secs("cli.main"),
    }
