"""Self-test of the benchmark's checkers at toy size.

    python3 perfbench/selftest.py

For each workload a tiny instance must pass its check, and each perturbed
output (a moment off by 1e-6 relative, a flipped output byte, a wrong
oracle value) must be counted as a failure.  Exits 1 if any case does
not behave.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile

import run  # sets up the environment and the import path
import spans
import workloads as W

TOY = {"moment-prime": 101, "scan-window": 31, "crosscheck": 15}


def moment_json(out: W.Output, factor: float) -> W.Output:
    rep = json.loads(out.data)
    rep["fourth_moment"] *= factor
    return W.Output(json.dumps(rep).encode(), out.extra)


def moment_csv(out: W.Output, factor: float) -> W.Output:
    header, row = out.data.decode().splitlines()
    cells = row.split(",")
    cells[2] = "%.17g" % (float(cells[2]) * factor)
    return W.Output(f"{header}\n{','.join(cells)}\n".encode(), out.extra)


def moment_cross(out: W.Output, factor: float) -> W.Output:
    return W.Output(out.data, dict(out.extra, table=out.extra["table"] * factor))


def oracle_cross(out: W.Output) -> W.Output:
    l_sq = list(out.extra["l_sq"])
    l_sq[0] += 1e-3
    return W.Output(out.data, dict(out.extra, l_sq=l_sq))


def flipped(out: W.Output) -> W.Output:
    data = bytearray(out.data)
    data[len(data) // 2] ^= 0x01
    return W.Output(bytes(data), out.extra)


def counts_failure(wl: W.Workload, q: int, first: W.Output,
                   second: W.Output) -> bool:
    """Does the benchmark's run bookkeeping fail an operation whose rerun
    gives ``second`` after ``first``?"""
    r = run.Run(wl, 0, False, "")
    r.moduli.append(q)
    r.compare(0, q, first)
    r.compare(0, q, second)
    return bool(r.failures)


def fails_with(reasons: list[str], word: str) -> bool:
    return any(word in r for r in reasons)


def wrong_oracle(f):
    def inner(*args, **kwargs):
        return f(*args, **kwargs) * 1.001
    return inner


def main() -> int:
    rng = random.Random(0)
    results = []
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=run.HERE) as tmp:
        for name, q in TOY.items():
            wl = W.WORKLOADS[name]
            out = wl.op(q, tmp)
            cases = [("toy instance passes", not wl.check(q, out, rng)),
                     ("flipped byte fails",
                      counts_failure(wl, q, out, flipped(out)))]
            if name == "moment-prime":
                out = wl.op(q, tmp)
                cases.append(("moment 1e-6 off fails", fails_with(
                    wl.check(q, moment_json(out, 1 + 1e-6), rng), "moment")))
                out = wl.op(q, tmp)
                restore = spans.patch("dirmoment.lfunc", "l_half_oracle", wrong_oracle)
                try:
                    cases.append(("wrong oracle fails",
                                  fails_with(wl.check(q, out, rng), "oracle")))
                finally:
                    restore()
            elif name == "scan-window":
                cases.append(("moment 1e-6 off fails", fails_with(
                    wl.check(q, moment_csv(out, 1 + 1e-6), rng), "ratio")))
            else:
                cases.append(("moment 1e-6 off fails", fails_with(
                    wl.check(q, moment_cross(out, 1 + 1e-6), rng), "moment")))
                cases.append(("wrong oracle fails", fails_with(
                    wl.check(q, oracle_cross(out), rng), "oracle")))
            for label, ok in cases:
                print(f"{name} q={q}: {label}: {'ok' if ok else 'FAILED'}")
                results.append(ok)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
