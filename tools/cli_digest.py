"""Digest of seeded CLI outputs: the byte-identity gate for refactors.

Builds small dense inputs in a temporary directory, runs ``ttkit.cli.main``
in-process on every subcommand that writes files (each solver both
single-site and ``--adaptive``; ``svd`` also on a rectangular 16 × 32
operator, whose left vector lives on other modes than its right one, and
``cca --identity-grams`` on an 81 × 16 Y quantized to modes of size 3 next
to a 16 × 16 X, so that wx and wy live on different modes),
reads the K = 3 eigenvector containers that ``eig --k 3`` writes (TT
matrices with three columns on site 0) and two containers
whose TT-SVD reads a block of bonds through one R factor (``train.tt_svd``:
a 2^14 signal, first block 32 × 512, and a 64 × 64 kernel, first block
16 × 256) back through ``info`` and ``reconstruct``, and prints one
SHA-256 per output file, per captured stdout/stderr stream, and a total
over all of them.  Two source trees that print the same
total produce byte-identical outputs.  After each hash it also prints the numbers of every
``.values.csv``, the ``converged=``, ``sweeps=``, ``objective=``,
``ranks=`` and ``regularized=`` lines of every report, the count,
2-norm, min and max of every reconstructed ``.raw``, and the kind, ranks
and the count, 2-norm, min and max of the dense form of every ``.tt``
container, so that two checkouts whose bits differ can be
compared number by number, and a changed decision shows without a rerun;
the total covers only the hash lines.  The ``cca-identity-mixed`` outputs
differ in their last bits between one and two BLAS threads (rounding its
Gram composition, of rank 1296 before rounding, runs threaded LAPACK), so
the TOTAL line also names the environment's ``OMP_NUM_THREADS`` and
``OPENBLAS_NUM_THREADS``.

    PYTHONPATH=src python tools/cli_digest.py
    PYTHONPATH=src python tools/cli_digest.py --against OTHER.txt

To compare with another checkout, save its listing (run this script with
``PYTHONPATH`` at its ``src``) and pass that file to ``--against``: under
each output whose hash differs from the saved one, a line gives the largest
relative delta of its numbers (a ``.raw``'s or a ``.tt``'s relative to its
2-norm) and every changed decision (``DECISION_KEYS``), and the count of
differing outputs comes just before the TOTAL line, which stays last.  The
exit code is then 1 if any output differs or is gone, so a script can gate
on it, and 0 otherwise.  A saved listing whose TOTAL line names another
BLAS thread setting is refused up front with one ``error:`` line and exit
code 1; one whose TOTAL line names none is compared all the same.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from ttkit import cli, container
from ttkit.train import _as_matrix, mpo_to_full

# the report lines printed next to a report's hash
REPORT_KEYS = ("converged=", "sweeps=", "objective=", "ranks=", "regularized=")
# the report lines and container fields that record a decision, not a number
# (``position=``, a block TT's block position, is read only from listings
# made while block results had a type of their own)
DECISION_KEYS = ("converged=", "sweeps=", "ranks=", "regularized=", "kind=", "position=")
# the environment variables that set the BLAS thread count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

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
        "wide": rng.standard_normal((16, 32)),
        "cca-identity-mixed-y": rng.standard_normal((81, 16)),
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
        ("data_x", 16, 16), ("data_y", 16, 16), ("rank_one", 16, 16), ("wide", 16, 32),
    ]:
        argv = ["quantize", f"{stem}.raw", "--row-shape", str(rows), "--col-shape", str(cols),
                "--tol", "1e-12", "-o", f"{stem}.tt"]
        jobs.append((f"quantize-{stem}", argv))
    # observations on data_x's column modes, rows on modes of size 3
    jobs.append(("cca-identity-mixed-y", ["quantize", "cca-identity-mixed-y.raw", "--row-shape", "3,3,3,3",
                                          "--col-shape", "16", "--tol", "1e-12", "-o", "cca-identity-mixed-y.tt"]))
    return jobs


SOLVER_JOBS = [
    ("eig-k1", ["eig", "lap.tt", "--k", "1"]),
    ("eig-k3", ["eig", "lap.tt", "--k", "3"]),
    ("eig-nonsymmetric", ["eig", "square.tt", "--k", "1"]),
    ("svd-dominant", ["svd", "square.tt"]),
    ("svd-smallest", ["svd", "square.tt", "--k", "2", "--smallest"]),
    ("svd-wide", ["svd", "wide.tt"]),
    ("gevd", ["gevd", "square.tt", "eye.tt", "spd.tt", "--k", "2"]),
    ("gevd-semidefinite", ["gevd", "eye.tt", "diag.tt", "semidef.tt", "--k", "1"]),
    ("cca", ["cca", "data_x.tt", "data_y.tt", "--k", "2"]),
    ("cca-identity-grams", ["cca", "data_x.tt", "data_y.tt", "--k", "2", "--identity-grams"]),
    ("cca-identity-mixed", ["cca", "data_x.tt", "cca-identity-mixed-y.tt", "--k", "2", "--identity-grams"]),
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


def _dense_numbers(a: np.ndarray) -> str:
    return f"count={a.size} norm={np.linalg.norm(a):.17g} min={a.min():.17g} max={a.max():.17g}"


def _values(label: str, data: bytes) -> str:
    """The numbers an output carries: each value of a ``.values.csv``, the
    ``REPORT_KEYS`` lines of a ``.report.txt``, the count, 2-norm, min and
    max of a reconstructed ``.raw``, and for a ``.tt`` container, read from
    the file ``label`` in the current directory, its kind, ranks and the
    count, 2-norm, min and max of its dense form; empty for other files."""
    if label.endswith(".raw"):
        return _dense_numbers(np.frombuffer(data, dtype="<f8"))
    if label.endswith(".tt"):
        obj = container.load(label)
        ranks = ",".join(str(r) for r in obj.ranks)
        return f"kind={type(obj).__name__} ranks={ranks} {_dense_numbers(mpo_to_full(_as_matrix(obj)))}"
    if label.endswith(".values.csv"):
        return " ".join(row.split(",")[1] for row in data.decode().splitlines()[1:])
    if label.endswith(".report.txt"):
        return " ".join(row for row in data.decode().splitlines() if row.startswith(REPORT_KEYS))
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
            # a .tt's numbers are read from its file, so list them here
            return sorted(
                (label, hashlib.sha256(data).hexdigest(), _values(label, data)) for label, data in blobs.items()
            )
        finally:
            os.chdir(start)


def _threads() -> str:
    """This environment's BLAS thread setting, as the TOTAL line names it."""
    return " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARS)


def _read_listing(path: str) -> dict:
    """{label: (sha256 hex, values)} from a listing this script printed;
    the TOTAL line and comparison lines are skipped."""
    listing = {}
    with open(path) as fh:
        for line in fh:
            fields = line.rstrip("\n").split("  ", 2)
            if len(fields) >= 2 and len(fields[0]) == 64 and not fields[1].startswith("TOTAL"):
                listing[fields[1]] = (fields[0], fields[2] if len(fields) == 3 else "")
    return listing


def _listed_threads(path: str):
    """The BLAS thread setting that a listing's TOTAL line names, or None
    for a listing printed before the TOTAL line named one."""
    with open(path) as fh:
        for line in fh:
            fields = line.rstrip("\n").split("  ", 2)
            if len(fields) == 3 and len(fields[0]) == 64 and fields[1].startswith("TOTAL"):
                return fields[2]
    return None


def _changes(values: str, old: str, label: str = "") -> str:
    """How the numbers of one output moved from ``old`` (both as in
    :func:`_values`): the largest relative delta, then every changed
    decision.  Each number is taken relative to its own size, except in a
    ``.raw`` or a ``.tt``, whose numbers are taken relative to its 2-norm: a
    dense form's small entries move by rounding of its large ones."""

    def numbers(text):
        return [float(tok.split("=")[-1]) for tok in text.split() if not tok.startswith(DECISION_KEYS)]

    def decisions(text):
        return {tok.split("=")[0]: tok for tok in text.split() if tok.startswith(DECISION_KEYS)}

    notes = []
    new_nums, old_nums = numbers(values), numbers(old)
    if len(new_nums) != len(old_nums):
        notes.append(f"{len(old_nums)} -> {len(new_nums)} numbers")
    elif new_nums:
        scales = [max(abs(a), abs(b)) for a, b in zip(new_nums, old_nums)]
        if label.endswith((".raw", ".tt")):  # count, norm, min, max
            scales = [scales[1] or 1.0] * len(scales)
        delta = max(abs(a - b) / s if a != b else 0.0 for a, b, s in zip(new_nums, old_nums, scales))
        notes.append(f"max rel delta {delta:.2g}")
    was = decisions(old)
    notes += [f"{was.get(key)} -> {tok}" for key, tok in decisions(values).items() if was.get(key) != tok]
    return "; ".join(notes) or "no listed numbers"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE", help="listing saved from another checkout")
    args = parser.parse_args(argv)
    old = None
    if args.against:
        threads = _listed_threads(args.against)
        if threads is not None and threads != _threads():
            print(f"error: {args.against} was listed with {threads}, this run has {_threads()}", file=sys.stderr)
            return 1
        old = _read_listing(args.against)
    rows = digests()
    lines = [f"{digest}  {label}" for label, digest, _ in rows]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    differ = 0
    for line, (label, digest, values) in zip(lines, rows):
        print(f"{line}  {values}" if values else line)
        if old is not None and (label not in old or old[label][0] != digest):
            differ += 1
            note = _changes(values, old[label][1], label) if label in old else "new output"
            print(f"    differs: {note}")
    if old is not None:
        gone = sorted(set(old) - {label for label, _, _ in rows})
        for label in gone:
            print(f"    gone: {label}")
        differ += len(gone)
        print(f"{differ} of {len(lines)} outputs differ from {args.against}")
    print(f"{total}  TOTAL ({len(lines)} outputs)  {_threads()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
