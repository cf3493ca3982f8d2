import importlib.util
import pathlib
import re
import sys
import types

import numpy as np
import pytest

from oracles import qtt_laplacian
from ttkit import SweepConfig, eig_min

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load("job_digest", ROOT / "tools" / "job_digest.py")

LINE = re.compile(
    r"^(\S+) (\d+) (\S+) digits=\S+ sweeps=(\d+|-) converged=(true|false|-) ranks=(\S+) "
    r"regularized=(\d+|-) fingerprint=[0-9a-f]{16}$"
)


@pytest.fixture
def bench_jobs(monkeypatch):
    """``bench/jobs.py``, imported as ``tools/job_digest.py`` imports it."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_jobs", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _toy(jobs):
    """A one-workload table: a seeded eig_min on the 2^3 Laplacian and a
    job without a solver report."""

    def build(seed, workdir):
        op = qtt_laplacian(3)
        lam = 4 * np.sin(np.pi / 18) ** 2
        solve = lambda: eig_min(op, SweepConfig(rank=2, max_sweeps=2, seed=seed))  # noqa: E731
        double = jobs.Job("double", lambda: np.arange(3.0) * 2, lambda y: jobs.Check(0.0, 16, jobs.fingerprint(y)))
        return [jobs._solver_job("eig-d3", solve, lam, 4.0, 10), double]

    return {"toy": build}


def test_listing_prints_one_line_per_job_and_seed(bench_jobs):
    lines = tool.listing(_toy(bench_jobs), [0, 1])
    assert [LINE.match(line).group(1, 2, 3) for line in lines] == [
        ("toy", "0", "eig-d3"), ("toy", "0", "double"), ("toy", "1", "eig-d3"), ("toy", "1", "double"),
    ]
    assert LINE.match(lines[0]).group(4, 6, 7) == ("2", "1,2,2,1", "0")
    assert " digits=16.0 sweeps=- converged=- ranks=- regularized=- " in lines[1]
    assert lines == tool.listing(_toy(bench_jobs), [0, 1])  # seeded: the same lines again


OLD = [
    "wide-rank 0 a digits=16.0 sweeps=2 converged=true ranks=1,2,1 regularized=0 fingerprint=0000000000000000",
    "wide-rank 0 b digits=15.5 sweeps=2 converged=true ranks=1,2,1 regularized=0 fingerprint=1111111111111111",
    "long-chain 0 c digits=14.0 sweeps=2 converged=false ranks=1,2,1 regularized=1 fingerprint=2222222222222222",
]


def test_compare_lists_differing_new_and_missing_jobs():
    new = [OLD[0], OLD[1].replace("digits=15.5", "digits=15.4"), OLD[2].replace("long-chain 0 c", "long-chain 1 c")]
    notes, bad = tool.compare(new, OLD)
    assert bad == 3
    assert notes == [
        f"differs: wide-rank 0 b\n  was {OLD[1]}\n  now {new[1]}",
        f"new: {new[2]}",
        "missing: long-chain 0 c",
        "3 of 4 jobs differ or are missing",
    ]
    assert tool.compare(OLD, OLD) == (["0 of 3 jobs differ or are missing"], 0)


def test_main_compares_with_a_saved_listing(bench_jobs, tmp_path, capsys, monkeypatch):
    for var in tool.THREAD_VARS:
        monkeypatch.setenv(var, "4")  # main pins each to 1; restored on exit
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "jobs", types.SimpleNamespace(WORKLOADS=_toy(bench_jobs)))
    assert tool.main([]) == 0
    assert all(tool.os.environ[var] == "1" for var in tool.THREAD_VARS)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # two jobs at each of the three seeds
    # a saved listing that was itself a comparison: its notes are skipped
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(lines + [f"differs: toy 0 double\n  was {lines[1]}\n  now {lines[1]}", "1 of 6"]))
    assert tool.read_listing(saved) == lines
    assert tool.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 6 jobs differ or are missing"
    saved.write_text("\n".join([lines[0].replace("fingerprint=", "fingerprint=f")] + lines[1:5]))
    assert tool.main(["--against", str(saved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[6:] == [
        "differs: toy 0 eig-d3", f"  was {lines[0].replace('fingerprint=', 'fingerprint=f')}", f"  now {lines[0]}",
        f"new: {lines[5]}",
        "2 of 6 jobs differ or are missing",
    ]
