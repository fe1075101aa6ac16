"""Write BENCH_<n>.json: dirmoment's fixed benchmark list, each entry run
in fresh processes and summarized over RUNS runs.

    python tools/bench.py TREE=OUT.json [TREE=OUT.json ...]

TREE is a checkout of this repository (its src/ is put on PYTHONPATH and
Tier-1 runs in it); OUT is the JSON file written for it.  With two or
more trees the runs interleave: each entry runs once on every tree, the
first tree first on even rounds and last on odd ones, before the next
entry, so drift of the machine falls on both trees alike.  Trees that
name the same OUT share one file, {"runs": ..., "sides": [...]}, one
side per tree in argument order, each with its own environment and
entries, so

    python tools/bench.py ../parent=BENCH_5.json .=BENCH_5.json

writes one parent/change pair from one interleaved pass.  The
environment's git_revision is the tree's commit, with "-dirty" appended
when its tracked files differ from it.

The entries (each one fresh Python process a run):
  fourth_moment/<q>  fourth_moment(q): its MomentReport.wall stages,
                     total seconds, peak RSS, moment and ratio
  scan/3-50, scan/999983, scan/9999991
                     cli.main(["scan", ...]): wall seconds and peak RSS
  moment_primes      fourth_moment at each prime in [10000, 11000] after
                     one warm-up call: the median over the primes of each
                     stage and of the total
  import_cli         seconds to import dirmoment.cli, bytecode cache warm
  tier1              wall seconds of the Tier-1 suite (pytest -q)

Seconds (keys ending _s) and peak RSS (_mib) are kept as the median and
the range over the runs; every other value (moments, ratios, test
counts) must repeat exactly and is kept once, or the script fails.
Peak RSS is resource.getrusage(RUSAGE_SELF).ru_maxrss of the child,
which includes the interpreter and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

MOMENT_QS = (10007, 100003, 1000003, 4849845, 5000011, 7000003, 7000523,
             9699690, 9999047, 9999991)
RUNS = 3  # runs of each entry per tree

# child prologue: the peak RSS of this process in MiB, and a JSON printer
_PEAK = """
import json, resource, time
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
def done(d):
    d["peak_rss_mib"] = peak()
    print(json.dumps(d))
"""

_MOMENT = _PEAK + """
from dirmoment.spectra import fourth_moment
t0 = time.perf_counter()
rep = fourth_moment({q})
d = {{"total_s": time.perf_counter() - t0}}
d.update((k + "_s", v) for k, v in rep.wall.items())
d.update(moment=rep.fourth_moment, ratio=rep.ratio)
done(d)
"""

_SCAN = _PEAK + """
import os
from dirmoment import cli
t0 = time.perf_counter()
rc = cli.main(["scan", "--qmin", "{qmin}", "--qmax", "{qmax}",
               "--out", os.devnull])
done({{"wall_s": time.perf_counter() - t0, "exit_code": rc}})
"""

_PRIMES = _PEAK + """
import math, statistics
from dirmoment.spectra import fourth_moment
qs = [q for q in range(10000, 11000)
      if all(q % d for d in range(2, math.isqrt(q) + 1))]
fourth_moment(qs[0])  # warm-up: lazy kernel and Hurwitz set-up
rows = []
for q in qs:
    t0 = time.perf_counter()
    rep = fourth_moment(q)
    rows.append(dict(rep.wall, total=time.perf_counter() - t0))
d = {k + "_s": statistics.median(r[k] for r in rows) for k in rows[0]}
d["primes"] = len(qs)
done(d)
"""

_IMPORT = """
import time
t0 = time.perf_counter()
import dirmoment.cli
print('{"import_s": %r}' % (time.perf_counter() - t0))
"""


def _child(tree: str, code: str) -> dict:
    """Run code in a fresh interpreter on tree's src; its last stdout
    line is a JSON object."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tree,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _tier1(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        env=env, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = res.stdout.strip().splitlines()[-1]
    d = {"wall_s": wall, "exit_code": res.returncode}
    d.update((k, int(n)) for n, k in re.findall(r"(\d+) (\w+)", last))
    return d


def _entries() -> list[tuple[str, str | None]]:
    """(name, child code) for each entry, in the order they run; Tier-1
    has no child code of its own."""
    ents = [(f"fourth_moment/{q}", _MOMENT.format(q=q)) for q in MOMENT_QS]
    ents += [("scan/3-50", _SCAN.format(qmin=3, qmax=50)),
             ("scan/999983", _SCAN.format(qmin=999983, qmax=999983)),
             ("scan/9999991", _SCAN.format(qmin=9999991, qmax=9999991)),
             ("moment_primes", _PRIMES), ("import_cli", _IMPORT),
             ("tier1", None)]
    return ents


def _summary(samples: list[dict]) -> dict:
    """Median and range of the timings and peaks; every other value once,
    which all runs must agree on (a nan as the string "nan", as the CLI
    writes it)."""
    out: dict = {}
    for k in samples[0]:
        vals = [s[k] for s in samples]
        if k.endswith(("_s", "_mib")):
            out[k] = {"median": statistics.median(vals),
                      "min": min(vals), "max": max(vals)}
        elif len({repr(v) for v in vals}) > 1:
            raise SystemExit(f"{k} differs between runs: {vals}")
        else:
            out[k] = "nan" if vals[0] != vals[0] else vals[0]
    return out


def _environment(tree: str) -> dict:
    # the commit, with "-dirty" appended when tracked files differ from it
    rev = subprocess.run(["git", "-C", tree, "describe", "--always",
                          "--dirty", "--abbrev=40", "--exclude=*"],
                         capture_output=True, text=True)
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True)
    return {"git_revision": rev.stdout.strip() if rev.returncode == 0
            else None,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.stdout.strip()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", nargs="+", metavar="TREE=OUT")
    args = ap.parse_args(argv)
    targets = [p.split("=", 1) for p in args.pairs]
    if any(len(t) != 2 for t in targets):
        ap.error("need arguments of the form TREE=OUT")
    for tree, _ in targets:
        _child(tree, _IMPORT)  # fill the bytecode cache before timing
    entries = _entries()
    samples = {(tree, name): [] for tree, _ in targets
               for name, _ in entries}
    for r in range(RUNS):
        for i, (name, code) in enumerate(entries):
            order = targets if (r + i) % 2 == 0 else targets[::-1]
            for tree, _ in order:
                samples[tree, name].append(
                    _tier1(tree) if code is None else _child(tree, code))
                print(f"run {r + 1}/{RUNS} {name} {tree}",
                      file=sys.stderr)
    sides: dict[str, list[dict]] = {}
    for tree, out in targets:
        sides.setdefault(out, []).append(
            {"environment": _environment(tree),
             "entries": {name: _summary(samples[tree, name])
                         for name, _ in entries}})
    for out, docs in sides.items():
        doc = ({"environment": docs[0]["environment"], "runs": RUNS,
                "entries": docs[0]["entries"]} if len(docs) == 1
               else {"runs": RUNS, "sides": docs})
        with open(out, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
