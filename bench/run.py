"""Time-to-solution benchmark for ttkit on problems with analytic answers.

    python3 bench/run.py --workload long-chain --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1

One process runs one workload as a closed loop with one client: the jobs run
one at a time, in a fixed order, on every pass.  The first pass is untimed
and ends the set-up; passes then repeat until ``--seconds`` have elapsed.
An untraced run also sets up again in fresh processes (``SETUP_SAMPLES``)
and reports the median set-up time.  Each job's result is checked outside
its timed region, and its outputs must repeat from pass to pass and from
process to process.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a traced run, see
``tracer.py``) with ``--trace 1``.

``--workload all`` runs every workload, each in its own process, one after
the other, and prints a table of their metrics.

BLAS is pinned to one thread before numpy loads: on two cores a second
OpenBLAS thread made the local solves slower and changed their last digits.
ttkit is imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracer_mod

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wide-rank", "long-chain", "compress-io")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "batch_s": "s",
    "setup_s": "s",
    "pass_frac": "ratio",
    "digits": "digits",
    "peak_rss_mb": "MB",
}


# set-up samples in one untraced run, each taken in a fresh process; setup_s
# is their median.  wide-rank's set-up ends with one full pass of about 9 s,
# itself a long sample; more of them would not fit in the run's time.
SETUP_SAMPLES = {"wide-rank": 1, "long-chain": 5, "compress-io": 5}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit: each
    layer's self time, the counted calls and the counts observed at the
    layer boundaries (all named in ``tracer.py``), and the trace's totals."""
    units = {f"{layer}_s": "s" for layer in tracer_mod.TIMED}
    units.update({name: "count" for name in tracer_mod.CALLS.values()})
    for observed in tracer_mod.OBSERVE.values():
        units.update({name: "bytes" if name in tracer_mod.BYTES else "count" for name in observed})
    units["trace.job_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _read_text(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "?"


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    libs = sorted(
        {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    )
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "?"
    for line in _read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_text(index / "level")
        if level in ("2", "3"):
            caches[f"l{level}"] = _read_text(index / "size")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
    }


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Per-job wall times and checks of one pass over the jobs."""

    def __init__(self):
        self.times = []
        self.checks = []
        self.layers = None  # traced passes: self time / calls / counts
        self.self_sum_gap = 0.0  # largest |sum of self times - job wall|


def run_pass(jobs, tracer=None) -> Pass:
    out = Pass()
    if tracer is not None:
        tracer.reset()
    for job in jobs:
        if tracer is not None:
            before = sum(tracer.self_s.values())
            tracer.push(tracer_mod.ROOT)
        start = time.perf_counter()
        result = job.run()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.pop()
            spans = sum(tracer.self_s.values()) - before
            out.self_sum_gap = max(out.self_sum_gap, abs(spans - elapsed))
        out.times.append(elapsed)
        out.checks.append(job.check(result))
    if tracer is not None:
        out.layers = (dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts))
    return out


def run_for(jobs, seconds: float, tracer=None) -> list:
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(jobs, tracer))
    return passes


def batch_seconds(passes) -> float:
    """Sum over jobs of each job's median wall time across ``passes``."""
    per_job = zip(*(p.times for p in passes))
    return float(sum(statistics.median(times) for times in per_job))


def layer_metrics(passes, untraced_batch: float) -> dict:
    units = per_layer_units()
    values = {}
    for layer in tracer_mod.TIMED:
        values[f"{layer}_s"] = statistics.median(p.layers[0].get(layer, 0.0) for p in passes)
    calls, counts = passes[0].layers[1], passes[0].layers[2]
    for layer, name in tracer_mod.CALLS.items():
        values[name] = calls.get(layer, 0)
    for observed in tracer_mod.OBSERVE.values():
        values.update({name: counts.get(name, 0) for name in observed})
    traced_batch = batch_seconds(passes)
    values["trace.job_s"] = traced_batch
    values["trace.overhead_frac"] = traced_batch / untraced_batch - 1.0
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# one workload


def setup_samples(args, count: int) -> list:
    """Set up ``count`` times, each in a fresh process (``--setup-only``):
    each sample's set-up time and its first pass's output fingerprints."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(args) -> int:
    import numpy  # noqa: F401  (imported before the set-up clock starts)
    import scipy.linalg  # noqa: F401

    import jobs as jobs_mod  # imports numpy: only after BLAS is pinned

    others = []
    if not args.setup_only:
        print("env " + json.dumps(environment(), sort_keys=True))
        if not args.trace:
            others = setup_samples(args, SETUP_SAMPLES[args.workload] - 1)

    setup_start = time.perf_counter()
    import ttkit

    if Path(ttkit.__file__).resolve().parent != (SRC / "ttkit").resolve():
        raise SystemExit(f"error: imported ttkit from {ttkit.__file__}, not from {SRC}")
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        jobs = jobs_mod.WORKLOADS[args.workload](args.seed, workdir)
        first = run_pass(jobs)
        setup_s = time.perf_counter() - setup_start
        fingerprints = [check.fingerprint for check in first.checks]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "fingerprints": fingerprints}))
            return 0
        if args.trace:
            untraced = run_for(jobs, args.seconds / 2)
            tracer = tracer_mod.Tracer()
            with tracer_mod.installed(tracer, ttkit):
                traced = run_for(jobs, args.seconds / 2, tracer)
            timed = untraced + traced
        else:
            timed = run_for(jobs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    names = [job.name for job in jobs]
    tally = Tally(names, [first] + timed, jobs_mod.KNOWN_FAILURES)
    for name, *seen in zip(names, fingerprints, *(o["fingerprints"] for o in others)):
        if len(set(seen)) > 1:
            tally.problems.append(f"{name}: outputs differ between processes")
    setup_all = [setup_s] + [o["setup_s"] for o in others]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print_jobs(names, first, timed)
    if args.trace:
        metrics = traced_metrics(traced, batch_seconds(untraced), tally.problems)
    else:
        values = {
            "batch_s": (batch_seconds(timed), f"sum of {len(names)} per-job medians over {len(timed)} passes"),
            "setup_s": (
                statistics.median(setup_all),
                f"import, inputs and the untimed first pass; median of {len(setup_all)} processes",
            ),
            "pass_frac": (tally.pass_frac, f"{tally.attempted - tally.failed} of {tally.attempted} jobs passed"),
            "digits": (tally.digits, f"fewest over {len(tally.passed_digits)} passed jobs"),
            "peak_rss_mb": (peak_rss_mb, "ru_maxrss; 1 sample"),
        }
        metrics = {}
        for name, (value, note) in values.items():
            unit = END_TO_END_UNITS[name]
            print(f"{name:12s} {value:12.6g} {unit:7s} {note}")
            metrics[name] = {"value": value, "unit": unit}
    for name, check in tally.failed_jobs.items():
        converged = check.report.converged if check.report is not None else None
        print(
            f"failed job: {name} ({check.digits:.2f} digits, target {check.target:g},"
            f" converged={converged}) {check.note}"
        )
    for problem in tally.problems:
        print(f"error: {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


class Tally:
    """Pass/fail counts over all passes, and what makes a run incorrect: a
    job whose outputs change between passes, or a failed job that is not
    one of ``known_failures``."""

    def __init__(self, names, passes, known_failures):
        self.attempted = self.failed = 0
        self.passed_digits = []
        self.failed_jobs = {}
        problems = {}
        for p in passes:
            for name, check, ref in zip(names, p.checks, passes[0].checks):
                self.attempted += 1
                if check.fingerprint != ref.fingerprint:
                    problems[f"{name}: outputs differ between passes"] = None
                if check.passed:
                    self.passed_digits.append(check.digits)
                    continue
                self.failed += 1
                self.failed_jobs[name] = check
                if name not in known_failures:
                    problems[f"{name}: wrong answer"] = None
        self.problems = list(problems)

    @property
    def pass_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    @property
    def digits(self) -> float:
        return min(self.passed_digits, default=0.0)


def print_jobs(names, first, timed):
    print(f"{'job':32s} {'median_s':>9s} {'digits':>6s} {'target':>6s} {'sweeps':>6s}  result")
    for k, name in enumerate(names):
        check = first.checks[k]
        median = statistics.median(p.times[k] for p in timed)
        sweeps = check.report.sweeps if check.report is not None else "-"
        verdict = "pass" if check.passed else "FAIL"
        print(
            f"{name:32s} {median:9.4f} {check.digits:6.2f} {check.target:6.1f}"
            f" {sweeps!s:>6s}  {verdict} {check.note}"
        )


def traced_metrics(traced, untraced_batch: float, problems: list) -> dict:
    """Per-layer metrics of the traced passes; prints them with their share
    of the traced job time and adds to ``problems`` what breaks the
    accounting."""
    metrics = layer_metrics(traced, untraced_batch)
    if any(p.layers[1:] != traced[0].layers[1:] for p in traced):
        problems.append("per-layer counts differ between traced passes")
    gap = max(p.self_sum_gap for p in traced)
    job_s = metrics["trace.job_s"]["value"]
    if gap > 1e-3 * job_s + 1e-4:
        problems.append("span self times do not add up to the job wall times")
    print(f"{len(traced)} traced passes; largest |sum of span self times - job wall| {gap:.2e} s")
    print(f"{'layer metric':28s} {'value':>14s} {'unit':6s} {'share':>6s}")
    for name, m in metrics.items():
        share = m["value"] / job_s if m["unit"] == "s" and name != "trace.job_s" else None
        share = f"{share:6.1%}" if share is not None else ""
        print(f"{name:28s} {m['value']:14.6g} {m['unit']:6s} {share:>6s}")
    return metrics


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'metric':28s} {'unit':7s}" + "".join(f"{n:>14s}" for n in WORKLOAD_NAMES))
    for metric, m in results[WORKLOAD_NAMES[0]]["metrics"].items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:14.6g}" for n in WORKLOAD_NAMES)
        print(f"{metric:28s} {m['unit']:7s}{row}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "ttkit" / "__init__.py").is_file():
        print(f"error: no ttkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
