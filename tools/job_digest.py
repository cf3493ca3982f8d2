"""Digest of the benchmark's jobs: the byte-identity gate of ``bench/jobs.py``.

The twin of ``cli_digest.py`` for the benchmark.  Builds every workload of
``bench/jobs.py`` at seeds 0, 1 and 2 (``SEEDS``), runs each job once and
checks it as the bench does, and prints one line per job: the workload,
the seed, the job's name, its digits, the ``sweeps``, ``converged``,
``ranks`` and ``regularized`` of its solver report (``-`` for a job
without one) and its ``Check.fingerprint``, the hash of its outputs:

    python3 tools/job_digest.py
    python3 tools/job_digest.py --against OTHER.txt

Two source trees that print the same lines give the bench the same
outputs, digits and reports.  As in ``bench/run.py``, BLAS is pinned to one
thread before numpy loads, and ttkit and the jobs are imported from the
checkout this file lives in.  To compare with another checkout, save its
listing and pass that file to ``--against``: every job whose line differs
is listed with the saved line and the new one, every job that either
listing lacks is named, and the count comes last.  The exit code is then 1
if any job differs or is missing, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the environment variables that set the BLAS thread count, as bench/run.py pins them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 1, 2)  # the workload seeds each job runs at


def job_line(workload: str, seed: int, name: str, check) -> str:
    """One job's line: its key (workload, seed, name), then what it gave."""
    report = check.report
    if report is None:
        fields = dict.fromkeys(("sweeps", "converged", "ranks", "regularized"), "-")
    else:
        fields = {
            "sweeps": report.sweeps,
            "converged": str(report.converged).lower(),
            "ranks": ",".join(str(r) for r in report.ranks),
            "regularized": report.regularized,
        }
    described = " ".join(f"{key}={value}" for key, value in fields.items())
    return f"{workload} {seed} {name} digits={check.digits!r} {described} fingerprint={check.fingerprint}"


def listing(workloads: dict, seeds: list) -> list:
    """The lines of every job of ``workloads`` (name -> build(seed, workdir),
    as ``jobs.WORKLOADS``), each run once per seed, in build order."""
    lines = []
    for seed in seeds:
        for workload, build in workloads.items():
            with tempfile.TemporaryDirectory() as workdir:
                for job in build(seed, workdir):
                    lines.append(job_line(workload, seed, job.name, job.check(job.run())))
    return lines


NOTES = ("new: ", "differs: ", "  was ", "  now ", "missing: ")  # comparison lines


def _key(line: str) -> str:
    return " ".join(line.split(" ", 3)[:3])


def read_listing(path) -> list:
    """The job lines of a listing this script printed, comparison lines skipped."""
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if "fingerprint=" in line and not line.startswith(NOTES)]


def compare(lines: list, old: list) -> tuple:
    """``(notes, bad)``: ``lines`` against the saved ``old``, one note per
    job that differs or that either lacks, then their count; ``bad`` is
    that count."""
    new_by_key = {_key(line): line for line in lines}
    old_by_key = {_key(line): line for line in old}
    new = [f"new: {line}" for key, line in new_by_key.items() if key not in old_by_key]
    differs = [
        f"differs: {key}\n  was {old_by_key[key]}\n  now {line}"
        for key, line in new_by_key.items()
        if old_by_key.get(key, line) != line
    ]
    missing = [f"missing: {key}" for key in old_by_key if key not in new_by_key]
    notes = differs + new + missing
    bad = len(notes)
    return notes + [f"{bad} of {len(new_by_key.keys() | old_by_key.keys())} jobs differ or are missing"], bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="a listing this script printed, to compare with")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, as bench/run.py does
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import jobs

    lines = listing(jobs.WORKLOADS, SEEDS)
    print("\n".join(lines))
    if args.against is None:
        return 0
    notes, bad = compare(lines, read_listing(args.against))
    print("\n".join(notes))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
