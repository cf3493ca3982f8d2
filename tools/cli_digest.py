"""Digest of seeded CLI outputs: the byte-identity gate for refactors.

Builds small dense inputs in a temporary directory, runs ``ttkit.cli.main``
in-process on every subcommand that writes files (each solver both
single-site and ``--adaptive``), reads the block containers that
``eig --k 3`` writes and two containers whose TT-SVD takes the QR-first
route of ``train.svd_split`` (a 2^14 signal and a 64 × 64 kernel) back
through ``info`` and ``reconstruct``, and prints
one SHA-256 per output file, per captured stdout/stderr stream, and a total
over all of them.  Two source trees that print the same total produce
byte-identical outputs.  After each hash it also prints the numbers of every
``.values.csv`` and the ``objective=`` line of every report, so that two
checkouts whose bits differ can be compared number by number; the total
covers only the hash lines.

    PYTHONPATH=src python tools/cli_digest.py

To compare with another checkout, point ``PYTHONPATH`` at its ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from ttkit import cli

SOLVER_FLAGS = ["--rank", "4", "--max-sweeps", "3", "--seed", "0", "--allow-nonconverged"]


def _laplacian(n):
    return 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def _inputs() -> dict:
    """Raw float64 arrays by file stem, all deterministic."""
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, 2**10)
    t_long = np.linspace(0.0, 1.0, 2**14)
    k = np.arange(64) / 64
    grid = np.add.outer(np.add.outer(np.arange(4), np.arange(4)), np.arange(4))
    return {
        "smooth": np.sin(np.add.outer(grid, np.arange(4)) / 5.0),
        "signal": np.exp(-t) * np.sin(12.0 * t),
        "long_signal": 1.0 / (1.0 + 25.0 * (t_long - 0.4) ** 2),
        "kernel": np.exp(-(((k[:, None] - k[None, :]) / 0.25) ** 2)),
        "lap": _laplacian(32),
        "shifted": _laplacian(32) + np.eye(32),
        "ones": np.ones(32),
        "square": rng.standard_normal((16, 16)),
        "eye": np.eye(16),
        "diag": np.diag(np.arange(1.0, 17.0)),
        "spd": _laplacian(16) + 2.0 * np.eye(16),
        "semidef": np.diag(np.tile([1.0, 0.0], 8)),
        "data_x": rng.standard_normal((16, 16)),
        "data_y": rng.standard_normal((16, 16)),
        "rank_one": np.outer(rng.standard_normal(16), rng.standard_normal(16)),
        "ones16": np.ones(16),
    }


def _prepare_jobs() -> list:
    """(name, argv) pairs; inputs come first, solver jobs read their outputs."""
    jobs = [
        ("compress", ["compress", "smooth.raw", "--shape", "4,4,4,4", "-o", "smooth.tt"]),
        ("quantize", ["quantize", "signal.raw", "--tol", "1e-10", "-o", "signal.tt"]),
        ("quantize-long", ["quantize", "long_signal.raw", "--tol", "1e-10", "-o", "long.tt"]),
        ("quantize-kernel", ["quantize", "kernel.raw", "--row-shape", "64", "--col-shape", "64",
                             "--tol", "1e-12", "-o", "kernel-q.tt"]),
        ("quantize-ones", ["quantize", "ones.raw", "-o", "ones.tt"]),
        ("quantize-ones16", ["quantize", "ones16.raw", "-o", "ones16.tt"]),
    ]
    for stem, rows, cols in [
        ("lap", 32, 32), ("shifted", 32, 32), ("square", 16, 16), ("eye", 16, 16),
        ("diag", 16, 16), ("spd", 16, 16), ("semidef", 16, 16),
        ("data_x", 16, 16), ("data_y", 16, 16), ("rank_one", 16, 16),
    ]:
        argv = ["quantize", f"{stem}.raw", "--row-shape", str(rows), "--col-shape", str(cols),
                "--tol", "1e-12", "-o", f"{stem}.tt"]
        jobs.append((f"quantize-{stem}", argv))
    return jobs


SOLVER_JOBS = [
    ("eig-k1", ["eig", "lap.tt", "--k", "1"]),
    ("eig-k3", ["eig", "lap.tt", "--k", "3"]),
    ("eig-nonsymmetric", ["eig", "square.tt", "--k", "1"]),
    ("svd-dominant", ["svd", "square.tt"]),
    ("svd-smallest", ["svd", "square.tt", "--k", "2", "--smallest"]),
    ("gevd", ["gevd", "square.tt", "eye.tt", "spd.tt", "--k", "2"]),
    ("gevd-semidefinite", ["gevd", "eye.tt", "diag.tt", "semidef.tt", "--k", "1"]),
    ("cca", ["cca", "data_x.tt", "data_y.tt", "--k", "2"]),
    ("cca-identity-grams", ["cca", "data_x.tt", "data_y.tt", "--k", "2", "--identity-grams"]),
    ("cca-rank-one", ["cca", "rank_one.tt", "data_y.tt", "--k", "1"]),
    ("solve", ["solve", "shifted.tt", "--rhs", "ones.tt"]),
    ("solve-singular", ["solve", "semidef.tt", "--rhs", "ones16.tt"]),
    ("solve-nonsymmetric", ["solve", "square.tt", "--rhs", "ones16.tt"]),
]


def _run(name: str, argv: list) -> dict:
    """Run one CLI job; returns {label: bytes} for its streams and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        f"{name}.stdout": f"exit={code}\n{out.getvalue()}".encode(),
        f"{name}.stderr": err.getvalue().encode(),
    }


def _values(label: str, data: bytes) -> str:
    """The numbers a solver output carries: each value of a ``.values.csv``
    and the ``objective=`` line of a ``.report.txt``; empty for other files."""
    if label.endswith(".values.csv"):
        return " ".join(row.split(",")[1] for row in data.decode().splitlines()[1:])
    if label.endswith(".report.txt"):
        return " ".join(row for row in data.decode().splitlines() if row.startswith("objective="))
    return ""


def digests() -> list:
    """Sorted (label, sha256 hex, values) triples for every stream and
    output file; ``values`` as in :func:`_values`."""
    blobs = {}
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for stem, data in _inputs().items():
                np.ascontiguousarray(data, dtype="<f8").tofile(f"{stem}.raw")
            inputs = set(os.listdir("."))
            jobs = _prepare_jobs()
            for name, argv in SOLVER_JOBS:
                for mode in ("single", "adaptive"):
                    extra = ["--adaptive"] if mode == "adaptive" else []
                    jobs.append((f"{name}-{mode}", argv + SOLVER_FLAGS + extra + ["-o", f"{name}-{mode}"]))
            for stem in ("eig-k3-single", "eig-k3-adaptive", "long", "kernel-q"):
                jobs.append((f"info-{stem}", ["info", f"{stem}.tt"]))
                jobs.append((f"reconstruct-{stem}", ["reconstruct", f"{stem}.tt", "-o", f"{stem}.raw"]))
            for name, argv in jobs:
                blobs.update(_run(name, argv))
            for path in sorted(set(os.listdir(".")) - inputs):
                with open(path, "rb") as fh:
                    blobs[path] = fh.read()
        finally:
            os.chdir(start)
    return sorted(
        (label, hashlib.sha256(data).hexdigest(), _values(label, data)) for label, data in blobs.items()
    )


def main() -> int:
    rows = digests()
    lines = [f"{digest}  {label}" for label, digest, _ in rows]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    for line, (_, _, values) in zip(lines, rows):
        print(f"{line}  {values}" if values else line)
    print(f"{total}  TOTAL ({len(lines)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
