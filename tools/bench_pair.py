"""Alternating parent/change pairs of one bench workload, and their verdict.

Runs ``bench/run.py`` of two checkouts in turn, ``--pairs`` times per seed,
the parent first in even-numbered pairs (0, 2, ...) and the change first in
odd ones, so that a drift of the machine falls on both sides alike:

    python3 tools/bench_pair.py --parent ../parent --change . \\
        --workload compress-io --seeds 0,1 --pairs 10 --seconds 25 --pr 23

It writes ``BENCH_pr<N>_<workload>_parent.json`` and ``..._change.json``
into ``--out`` (default: the working directory).  Each holds the
workload, the side, the bench command, a description of the pairing, the
environment that ``bench/run.py`` reports, the median and quartiles of every
end-to-end metric over the first seed's runs, and every run: its pair, seed,
whether it ran first in its pair, the reference kernel's time before it
(``kernel_s``, below), its per-job medians and digits, and the bench's
result line.

It prints, per seed, which side won each pair on ``--metric`` (default
``batch_s``) and the verdict: the claim is met when the change's median
beats the parent's by more than the parent's interquartile distance.  The
direction of each metric ("lower" or "higher" is better) comes from the
change checkout's ``BENCHMARK.json``.  A run that exits non-zero, prints no
result, or reports ``"correct": false`` stops the driver with one ``error:``
line and exit code 1; no file is written then.

The machine's CPU speed drifts from run to run by more than most gains, so
before each bench run a fixed reference kernel is timed in a fresh process
with BLAS pinned to one thread: 60 times a subset ``eigh`` (the 8 lowest
pairs) of a seeded 96 × 96 SPD matrix, its QR and a 2000-step Python loop,
the small LAPACK calls and interpreter work of the sweep solvers.  Its
median over five timings is the run's ``kernel_s``.  After each verdict
it prints the same wins and rule on ``--metric`` / ``kernel_s``:
the run's time in units of the machine's speed at that moment.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

SIDES = ("parent", "change")
# a row of bench/run.py's job table: name, median_s, digits, target, sweeps, result
JOB_ROW = re.compile(r"^(\S+)\s+(\d+\.\d+)\s+(-?\d+\.\d+)\s+\S+\s+\S+\s+(?:pass|FAIL)\b")


class PairError(Exception):
    """A run that gives no usable result."""


def bench_command(workload: str, seed: int, seconds: float) -> list:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]


def parse_run(stdout: str) -> tuple:
    """``(env, jobs, result)`` from the standard output of one bench run:
    the ``env`` line, the job table as {name: {median_s, digits}} and the
    last line's JSON result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise PairError("no result line") from None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    jobs = {}
    for line in lines:
        row = JOB_ROW.match(line)
        if row:
            jobs[row.group(1)] = {"median_s": float(row.group(2)), "digits": float(row.group(3))}
    return env, jobs, result


def run_once(checkout: Path, command: list) -> tuple:
    """Run the bench in ``checkout``; ``(env, jobs, result)`` of a correct run."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip() or proc.stdout.strip()).splitlines()[-1:] or ["no output"]
        raise PairError(f"exit {proc.returncode}: {tail[0]}")
    env, jobs, result = parse_run(proc.stdout)
    if not result.get("correct"):
        problems = [line[7:] for line in proc.stdout.splitlines() if line.startswith("error: ")]
        raise PairError("correct=false" + (f" ({'; '.join(problems)})" if problems else ""))
    return env, jobs, result


def kernel_seconds() -> float:
    """The reference kernel's median time, from a fresh process with BLAS
    pinned to one thread."""
    kernel = textwrap.dedent(
        """\
        import statistics, time
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        a = rng.standard_normal((96, 96))
        spd = a @ a.T + 96.0 * np.eye(96)

        def unit():
            for _ in range(60):
                scipy.linalg.eigh(spd, subset_by_index=[0, 7])
                np.linalg.qr(spd)
                total = 0
                for i in range(2000):
                    total += i

        unit()  # warm-up
        times = []
        for _ in range(5):
            start = time.perf_counter()
            unit()
            times.append(time.perf_counter() - start)
        print(statistics.median(times))
        """
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(["python3", "-c", kernel], env=env, capture_output=True, text=True)
    try:
        return float(proc.stdout)
    except ValueError:
        tail = (proc.stderr.strip() or "no output").splitlines()[-1]
        raise PairError(f"reference kernel: exit {proc.returncode}: {tail}") from None


def _spread(values: list) -> tuple:
    """``(median, [first quartile, third quartile])`` of ``values``."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return statistics.median(values), [q[0], q[2]]


def summarize(runs: list) -> tuple:
    """``(median, quartiles)`` of every metric over ``runs``."""
    median, quartiles = {}, {}
    for name in runs[0]["metrics"]:
        median[name], quartiles[name] = _spread([run["metrics"][name]["value"] for run in runs])
    return median, quartiles


def verdict(parent: list, change: list, metric: str, lower: bool, per_kernel: bool = False) -> dict:
    """Wins per pair and the claim test on one seed's runs, each list in
    pair order: the change's median must beat the parent's by more than
    the parent's interquartile distance.  With ``per_kernel`` each run's
    value is first divided by its ``kernel_s``."""
    old, new = (
        [run["metrics"][metric]["value"] / (run["kernel_s"] if per_kernel else 1.0) for run in runs]
        for runs in (parent, change)
    )
    sign = 1.0 if lower else -1.0
    wins = [sign * (b - a) < 0 for a, b in zip(old, new)]
    (old_median, old_q), (new_median, _) = _spread(old), _spread(new)
    gain = sign * (old_median - new_median)
    return {
        "wins": wins,
        "parent_median": old_median,
        "change_median": new_median,
        "parent_iqr": old_q[1] - old_q[0],
        "met": gain > old_q[1] - old_q[0],
    }


def pairing_note(seeds: list, pairs: int) -> str:
    note = (
        f"{pairs} parent/change pairs at seed {seeds[0]}, parent first in even-numbered pairs (0, 2, ...); "
        f"median and quartiles over seed {seeds[0]}"
    )
    for seed in seeds[1:]:
        note += f"; runs also hold {pairs} pairs at seed {seed} (--seed {seed}), ordered the same way"
    return note


def document(side: str, workload: str, seeds: list, pairs: int, seconds: float, env: dict, runs: list) -> dict:
    median, quartiles = summarize([run for run in runs if run["seed"] == seeds[0]])
    return {
        "workload": workload,
        "side": side,
        "command": " ".join(bench_command(workload, seeds[0], seconds)),
        "pairs": pairing_note(seeds, pairs),
        "env": env,
        "median": median,
        "quartiles": quartiles,
        "runs": runs,
    }


def directions(checkout: Path) -> dict:
    """{metric: True if lower is better} from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0", help="comma-separated bench seeds (default 0)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed (default 10)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pr", required=True, help="number N in BENCH_pr<N>_...")
    parser.add_argument("--metric", default="batch_s", help="end-to-end metric of the verdict")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the two files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    lower = directions(args.change)
    if args.metric not in lower or args.pairs < 1:
        print(f"error: need an end-to-end metric of {sorted(lower)} and --pairs >= 1", file=sys.stderr)
        return 1
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    envs = {}
    for seed in seeds:
        command = bench_command(args.workload, seed, args.seconds)
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                try:
                    kernel_s = kernel_seconds()
                    env, jobs, result = run_once(checkouts[side], command)
                except PairError as exc:
                    print(f"error: {side} run, seed {seed}, pair {pair}: {exc}")
                    return 1
                envs.setdefault(side, env)
                first = side == order[0]
                runs[side].append(
                    {"pair": pair, "seed": seed, "first_in_pair": first, "kernel_s": kernel_s, "jobs": jobs, **result}
                )
            old, new = (runs[side][-1]["metrics"][args.metric]["value"] for side in SIDES)
            print(f"seed {seed} pair {pair}: parent {old:.6g}  change {new:.6g}", flush=True)
    for side in SIDES:
        doc = document(side, args.workload, seeds, args.pairs, args.seconds, envs[side], runs[side])
        path = args.out / f"BENCH_pr{args.pr}_{args.workload}_{side}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    for seed in seeds:
        parent, change = ([run for run in runs[side] if run["seed"] == seed] for side in SIDES)
        for per_kernel in (False, True):
            v = verdict(parent, change, args.metric, lower[args.metric], per_kernel)
            print(
                f"seed {seed}: change better in {sum(v['wins'])} of {len(v['wins'])} pairs "
                f"({''.join('+' if w else '-' for w in v['wins'])}); "
                f"{args.metric}{' / kernel_s' if per_kernel else ''} median "
                f"{v['parent_median']:.6g} -> {v['change_median']:.6g}, parent IQR {v['parent_iqr']:.3g}: "
                f"claim {'met' if v['met'] else 'not met'}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
