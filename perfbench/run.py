"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload moment-prime --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports dirmoment from ``src/``.  One
single-threaded client runs operations back to back for ``--seconds`` of
wall time (finishing the current pass of a window workload), checks every
output outside the timed region, and re-executes the first operation at
the end to compare its bytes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation once untraced and once traced and reports the per-layer
metrics.  The last line of standard output is the result object; the
line before it records the environment, the moduli run and any failure.
"""

from __future__ import annotations

import os
import sys

# One single-threaded client: the BLAS and OpenMP pools are pinned before
# numpy loads, and the package's own thread setting is left at its default.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DIRMOMENT_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import dirmoment  # noqa: E402

if not Path(dirmoment.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"dirmoment was imported from {dirmoment.__file__}, "
                     f"not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import dirmoment.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dirmoment.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dirmoment").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v)
                       for v in THREAD_VARS + ("DIRMOMENT_THREADS",)},
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


class Run:
    """Closed-loop execution of one workload with per-operation checks."""

    def __init__(self, wl: workloads.Workload, seed: int, trace: bool,
                 tmp: str) -> None:
        self.wl = wl
        self.tmp = tmp
        self.passes = wl.moduli(random.Random(seed))
        self.check_rng = random.Random(f"check-{seed}")
        self.tracer = spans.Tracer() if trace else None
        self.moduli: list[int] = []
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.first: dict[int, bytes] = {}
        self.failures: dict[int, str] = {}
        self.gaps = {"oracle_gap": 0.0, "pipeline_gap": 0.0}
        self.raised = False

    def fail(self, i: int, reason: str) -> None:
        self.failures.setdefault(i, f"q={self.moduli[i]}: {reason}")

    def execute(self, i: int, q: int):
        """Run the operation once; returns (output or None, seconds)."""
        t0 = time.perf_counter()
        try:
            out = self.wl.op(q, self.tmp)
        except (Exception, SystemExit) as exc:  # the operation fails, not the run
            traceback.print_exc(file=sys.stderr)
            self.fail(i, f"raised {exc!r}")
            self.raised = True
            out = None
        return out, time.perf_counter() - t0

    def compare(self, i: int, q: int, out) -> None:
        """Every execution of a modulus must give the bytes of the first."""
        if out is None:
            return
        if self.first.setdefault(q, out.data) != out.data:
            self.fail(i, "output bytes differ from the first execution")

    def loop(self, seconds: float) -> None:
        """Whole passes until ``seconds`` of wall time have gone by; an
        operation that raises ends the run after its pass."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds and not self.raised:
            for q in next(self.passes):
                i = len(self.moduli)
                self.moduli.append(q)
                if self.tracer is None:
                    out, dt = self.execute(i, q)
                    self.times.append(dt)
                    self.compare(i, q, out)
                else:
                    out = self.paired(i, q)
                if out is not None:
                    self.check(i, q, out)

    def paired(self, i: int, q: int):
        """Run the operation untraced and traced, alternating which goes
        first so that warm state left by the first favours neither."""
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with self.tracer.installed(i):
                    results[traced] = self.execute(i, q)
            else:
                results[traced] = self.execute(i, q)
            self.compare(i, q, results[traced][0])
        self.times.append(results[False][1])
        self.traced_times.append(results[True][1])
        return results[False][0]

    def check(self, i: int, q: int, out) -> None:
        try:
            reasons = self.wl.check(q, out, self.check_rng)
        except Exception as exc:  # unreadable output fails the operation
            reasons = [f"check raised {exc!r}"]
        if reasons:
            self.fail(i, "; ".join(reasons))
        for key in self.gaps:
            self.gaps[key] = max(self.gaps[key], out.extra.get(key, 0.0))

    def rerun_first(self) -> None:
        out, _ = self.execute(0, self.moduli[0])
        self.compare(0, self.moduli[0], out)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        run = Run(wl, args.seed, bool(args.trace), tmp)
        run.loop(args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.rerun_first()

    n = len(run.times)
    if args.trace:
        metrics = {k: metric(v, unit) for k, (v, unit)
                   in spans.layer_metrics(run.tracer.spans, n).items()}
        metrics["lfunc.pipeline_rel_gap_max"] = metric(run.gaps["pipeline_gap"], "rel")
        metrics["lfunc.oracle_abs_gap_max"] = metric(run.gaps["oracle_gap"], "abs")
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(run.traced_times) / statistics.median(run.times), "ratio")
        out_dir = HERE / ".runs"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{wl.name}-seed{args.seed}-spans.json").write_text(
            json.dumps(run.tracer.spans))
    else:
        metrics = {
            "op_p50_s": metric(statistics.median(run.times), "s"),
            "ops_per_s": metric(n / sum(run.times), "1/s"),
            "peak_rss_mib": metric(peak_mib, "MiB"),
            "setup_s": metric(setup_s, "s"),
            "pass_ratio": metric((n - len(run.failures)) / n, "ratio"),
        }
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "moduli": run.moduli,
        "op_samples": n, "op_seconds": [round(t, 6) for t in run.times],
        "failures": [run.failures[i] for i in sorted(run.failures)],
        "trace_missing": run.tracer.missing if run.tracer else [],
        "env": environment()}))
    print(json.dumps({"correct": not run.failures, "attempted": n,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
