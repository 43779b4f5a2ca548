"""Benchmark for the ``cdwork`` command-line pipelines.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ho-figure1 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``ho-figure1`` and ``verify``, which
BENCHMARK.json lists, and ``ising-scaling``, which it leaves out to keep
the scheduled runs within their time budget.  A pass runs the
workload's CLI invocations through ``cdwork.cli.main`` in a fresh
worker interpreter, so every pass starts with cold model caches.
Passes repeat until ``--seconds`` have passed.  BLAS and OpenMP are
pinned to one thread in every child process.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over passes): ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of a
pass, and ``setup_s``, the median time of a fresh interpreter running
``import cdwork.cli``.  With ``--trace 1`` one untraced and one traced
pass run, and the per-layer metrics of ``tracer.py`` are reported with
``trace.overhead_s`` (traced minus untraced wall time) and
``fail_ratio``.  The line before the result holds the quartiles, the
sample counts and the numeric environment.

Every invocation's outputs are checked (``workloads.check``); one that
exits non-zero, raises or misses its check counts as failed.
``--record-golden`` rewrites ``golden/<workload>.json`` from a
default-seed pass instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 2  # before each pass and after the last
TIME_LIMIT_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Bench:
    def __init__(self, root: Path, deadline: float):
        self.src = root / "src"
        self.tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=root))
        self.deadline = deadline
        self.env = child_env()

    def remaining(self) -> float:
        return max(self.deadline - perf_counter(), 1.0)

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing ``cdwork.cli``."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import cdwork.cli"],
                       env=dict(self.env, PYTHONPATH=str(self.src)),
                       check=True, timeout=self.remaining())
        return perf_counter() - start

    def run_pass(self, argvs: list[list[str]], trace: bool) -> tuple[dict, list[Path]]:
        """One pass in a fresh worker; returns its report and the output
        directory of each invocation."""
        pass_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        outdirs = [pass_dir / str(i) for i in range(len(argvs))]
        spec = {"src": str(self.src), "trace": trace,
                "invocations": [argv + ["--out", str(d)]
                                for argv, d in zip(argvs, outdirs)]}
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")],
                              input=json.dumps(spec), capture_output=True,
                              text=True, env=self.env, timeout=self.remaining())
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), outdirs


def _files(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def measure(bench: Bench, argvs: list[list[str]], goldens: list,
            seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes of ``argvs`` and check each invocation, against its
    golden record where one is given (see ``workloads.check``); returns
    the result line and the detail line."""
    problems = []
    verdicts = []

    def one_pass(traced):
        report, outdirs = bench.run_pass(argvs, traced)
        for argv, code, outdir, golden in zip(
                argvs, report["exit_codes"], outdirs, goldens):
            found = workloads.check(argv, outdir, code, golden)
            verdicts.append(bool(found))
            problems.extend(f"{' '.join(argv)}: {p}" for p in found[:3])
        return report, outdirs

    # set-up samples are spread between the passes, so that a spell of
    # slow CPU early in the run does not decide their median; the first
    # import fills the bytecode cache and is not counted
    setup = []

    def sample_setup():
        if not trace:
            setup.extend(bench.setup_time() for _ in range(SETUP_SAMPLES))

    if not trace:
        bench.setup_time()
    reports = []
    start = perf_counter()
    while True:
        sample_setup()
        plain, plain_dirs = one_pass(False)
        reports.append(plain)
        if trace or perf_counter() - start >= seconds:
            break
    sample_setup()

    detail = {"env": plain["env"], "argvs": argvs}
    if trace:
        traced, traced_dirs = one_pass(True)
        for i, (argv, a, b) in enumerate(zip(argvs, plain_dirs, traced_dirs)):
            if _files(a) != _files(b):
                problems.append(f"{' '.join(argv)}: traced outputs differ")
                verdicts[-len(argvs) + i] = True
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        metrics["fail_ratio"] = {"value": sum(verdicts) / len(verdicts),
                                 "unit": "1"}
        detail["wall_s"] = {"untraced": plain["wall_s"], "traced": traced["wall_s"]}
    else:
        samples = {name: [r[name] for r in reports]
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setup
        detail.update({name: quartiles(v) for name, v in samples.items()})
        detail["samples"] = samples
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail["problems"] = problems
    failed = sum(verdicts)
    result = {"correct": failed == 0, "attempted": len(verdicts),
              "failed": failed, "metrics": metrics}
    return result, detail


def record_golden(bench: Bench, workload: str) -> Path:
    argvs = workloads.ARGVS[workload](workloads.DEFAULT_SEED)
    report, outdirs = bench.run_pass(argvs, False)
    if any(code != 0 for code in report["exit_codes"]):
        raise RuntimeError(f"default pass failed: {report['exit_codes']}")
    golden = [workloads.extract(argv, d) for argv, d in zip(argvs, outdirs)]
    for record in golden[1:]:
        # the default config carries the trajectory series; the other
        # ising configs are held to their integrals and fit
        record.get("series", {}).pop("ising_figure2_trajectories", None)
    path = workloads.GOLDEN_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(r, separators=(",", ":"))
                                       for r in golden) + "\n]\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ARGVS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    deadline = perf_counter() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "cdwork" / "cli.py").is_file():
        print(f"no cdwork sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, deadline)
    try:
        if args.record_golden:
            print(record_golden(bench, args.workload))
            return 0
        argvs = workloads.ARGVS[args.workload](args.seed)
        # an invocation identical to its default-seed counterpart (all of
        # verify, the config opening every ising batch) is held to the
        # golden values
        defaults = workloads.ARGVS[args.workload](workloads.DEFAULT_SEED)
        goldens = [gold if argv == default else None for argv, default, gold
                   in zip(argvs, defaults, workloads.load_golden(args.workload))]
        result, detail = measure(bench, argvs, goldens, args.seconds,
                                 bool(args.trace))
        detail.update(workload=args.workload, seed=args.seed)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
