"""The byte-identity gate, ``tools/digest.py``: its rows, listings and comparisons.

``main`` runs here on a toy workload in place of ``bench/jobs.py``'s, so no
bench job runs in these tests.
"""

import hashlib
import importlib.util
import pathlib
import re
import sys
import types

import numpy as np
import pytest

from oracles import qtt_laplacian
from ttkit import SweepConfig, container, eig_min
from ttkit.train import TTMatrix

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load("digest", ROOT / "tools" / "digest.py")


@pytest.fixture
def bench_jobs(monkeypatch):
    """``bench/jobs.py``, for its ``Job``, ``Check`` and ``_solver_job``."""
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


@pytest.fixture
def toy_bench(bench_jobs, monkeypatch):
    """``main``'s bench jobs are the toy workload's."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "jobs", types.SimpleNamespace(WORKLOADS=_toy(bench_jobs)))


def test_against_names_value_deltas_and_changed_decisions(toy_bench, tmp_path, capsys):
    saved = tmp_path / "other.txt"
    saved.write_text(
        "a" * 64 + "  x.report.txt  converged=true sweeps=2 objective=2.0 ranks=1,2,1 regularized=0\n"
        + "b" * 64 + "  x.values.csv  1.0 -2.0\n"
        + "c" * 64 + "  x.tt\n"
        + "    differs: max rel delta 0\n"
        + "1 of 3 outputs differ from other.txt\n"
        + "d" * 64 + "  TOTAL (3 outputs)\n"
    )
    old = tool._read_listing(str(saved))
    assert old == {
        "x.report.txt": ("a" * 64, "converged=true sweeps=2 objective=2.0 ranks=1,2,1 regularized=0"),
        "x.values.csv": ("b" * 64, "1.0 -2.0"),
        "x.tt": ("c" * 64, ""),
    }
    report = "converged=false sweeps=3 objective=1.5 ranks=1,2,1 regularized=0"
    assert tool._changes(report, old["x.report.txt"][1]) == (
        "max rel delta 0.25; converged=true -> converged=false; sweeps=2 -> sweeps=3"
    )
    assert tool._changes("1.0 -2.5", old["x.values.csv"][1]) == "max rel delta 0.2"
    assert tool._changes("", old["x.tt"][1]) == "no listed numbers"
    # main gates on the comparison: 0 against its own listing, 1 once an
    # output's hash differs or a listed output is gone
    assert tool.main([]) == 0
    listing = tmp_path / "listing.txt"
    listing.write_text(capsys.readouterr().out)
    assert tool.main(["--against", str(listing)]) == 0
    lines = listing.read_text().splitlines(keepends=True)
    outputs = len(lines) - 1  # one line per output, then the TOTAL line
    assert f"0 of {outputs} outputs differ from {listing}\n" in capsys.readouterr().out
    lines[0] = "0" * 64 + lines[0][64:]
    listing.write_text("".join(lines) + "e" * 64 + "  no-such-output.txt\n")
    assert tool.main(["--against", str(listing)]) == 1
    out = capsys.readouterr().out
    assert "    gone: no-such-output.txt\n" in out
    assert f"2 of {outputs} outputs differ from {listing}\n" in out


def test_lists_raw_numbers_and_compares_them_by_norm():
    values = tool._values("x.raw", np.array([3.0, -4.0, 0.1], dtype="<f8").tobytes())
    assert values == "count=3 norm=5.0009999000199947 min=-4 max=3"
    # min moves by 1e-3 of itself, 8e-4 of the norm
    moved = tool._values("x.raw", np.array([3.0, -4.004, 0.1], dtype="<f8").tobytes())
    assert tool._changes(moved, values, "x.raw") == "max rel delta 0.0008"
    assert tool._changes(moved, values) == "max rel delta 0.001"


def test_lists_container_numbers_and_refuses_another_thread_setting(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    container.save(TTMatrix([np.full((1, 2, 2, 1), 3.0), np.array([[[[1.0]], [[-4.0 / 3.0]]]])]), "b.tt")
    values = tool._values("b.tt", b"")
    assert values == "kind=TTMatrix ranks=1,1,1 count=8 norm=10 min=-4 max=3"
    # the dense numbers move relative to the 2-norm; kind and ranks are decisions
    moved = "kind=TTMatrix ranks=1,2,1 count=8 norm=10 min=-4.01 max=3"
    assert tool._changes(moved, values, "b.tt") == "max rel delta 0.001; ranks=1,1,1 -> ranks=1,2,1"
    # a listing made under another BLAS thread setting is refused before any run
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    listing = tmp_path / "listing.txt"
    listing.write_text("a" * 64 + "  TOTAL (0 outputs)  OMP_NUM_THREADS=2 OPENBLAS_NUM_THREADS=unset\n")
    assert tool.main(["--against", str(listing)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: {listing} was listed with OMP_NUM_THREADS=2 OPENBLAS_NUM_THREADS=unset, "
        "this run has OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=unset\n"
    )


def test_job_rows_list_one_row_per_job_and_seed(bench_jobs):
    rows = tool._job_rows(_toy(bench_jobs), [0, 1])
    assert [label for label, _, _ in rows] == [
        "job/toy/0/eig-d3", "job/toy/0/double", "job/toy/1/eig-d3", "job/toy/1/double",
    ]
    assert re.fullmatch(r"digits=\S+ sweeps=2 converged=(true|false) ranks=1,2,2,1 regularized=0", rows[0][2])
    # a job without a solver report lists its digits alone
    assert rows[1][2] == "digits=16.0"
    assert rows[1][1] == hashlib.sha256(bench_jobs.fingerprint(np.arange(3.0) * 2).encode()).hexdigest()
    assert rows == tool._job_rows(_toy(bench_jobs), [0, 1])  # seeded: the same rows again


def test_job_changes_give_the_digits_delta_and_changed_decisions():
    old = "digits=15.5 sweeps=2 converged=true ranks=1,2,1 regularized=0"
    new = "digits=15.4 sweeps=3 converged=false ranks=1,2,1 regularized=1"
    assert tool._changes(new, old, "job/wide-rank/0/b") == (
        "max rel delta 0.0065; sweeps=2 -> sweeps=3; converged=true -> converged=false; "
        "regularized=0 -> regularized=1"
    )
    assert tool._changes("digits=16.0", "digits=16.0", "job/compress-io/0/c") == "max rel delta 0"


def test_main_compares_job_rows_with_a_saved_listing(toy_bench, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tool, "_cli_rows", lambda: [])  # the job rows alone
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines[:-1]] == [
        f"job/toy/{seed}/{name}" for seed in tool.SEEDS for name in ("eig-d3", "double")
    ]
    assert lines[-1].split("  ")[1] == "TOTAL (6 outputs)"
    # the saved listing: eig-d3 at seed 0 had another fingerprint and other
    # digits, double at seed 2 was not listed, and a job at seed 3 was
    was = lines[0].replace(" digits=", " digits=1", 1)
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(["0" * 64 + was[64:]] + lines[1:5] + ["e" * 64 + "  job/toy/3/eig-d3"]) + "\n")
    assert tool.main(["--against", str(saved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("    differs: max rel delta ")
    assert out[7:] == [
        "    differs: new output",
        "    gone: job/toy/3/eig-d3",
        f"3 of 6 outputs differ from {saved}",
        lines[-1],
    ]


def test_main_refuses_a_checkout_without_bench_jobs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tool, "BENCH", tmp_path / "bench")
    assert tool.main([]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: no bench/jobs.py beside ")
