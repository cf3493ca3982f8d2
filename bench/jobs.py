"""The benchmark's workloads: seeded ttkit jobs whose answers are known.

A job is a timed call into ttkit plus an untimed check of its result against
an analytic (or exactly computed) answer.  The workload seed fixes every
input: each solver job's ``SweepConfig.seed`` and the sampled functions.

Sweep budgets.  A run cannot stop before its second sweep (convergence
compares two sweeps), and whether it stops at the second or third depends
only on the random start.  So every eigen- and singular-value job has a
fixed budget, ``max_sweeps=2``, which keeps the work per job independent of
the seed; the analytic check still judges the answer.  The one exception is
``svd_dominant`` at d = 16, with 3: after 2 sweeps 5 of 200 seeds had 6-9
digits, after 3 all had at least 14.7.  ``linsolve`` keeps the default
20-sweep budget: it never converges today (normal equations square the
condition number), and it stays in as a named failure, ``KNOWN_FAILURES``.
Any other job that misses its digits target makes the run incorrect,
whether or not the solver reported itself converged.

Digits.  An error is measured relative to the answer's scale: for eigen- and
singular values the largest value of the spectrum they belong to (the
operator's norm), for vectors the reference's norm.  A backward-stable
eigensolver is accurate to eps times the operator's norm, so that is the
scale its digits are counted against.  Counted against a tiny eigenvalue
itself, digits measure the problem's conditioning and move with the random
start: ``svd_small_k`` at d = 12 gave 2.6 to 5.1 digits over 40 seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np

import laplacian


# jobs that fail on the current code, with the reason: they count in
# ``failed`` and ``pass_frac``, but do not make a run incorrect
KNOWN_FAILURES = {
    "linsolve-d10": "normal equations square cond(L): 5-6 digits, target 8",
}


@dataclass
class Check:
    """Outcome of checking one job's result."""

    error: float  # error relative to the answer's scale
    target: float  # correct digits the job must reach
    fingerprint: str  # hash of the outputs; must repeat from pass to pass
    report: Any = None  # the solver's SolveReport, if any
    ok: bool = True  # further conditions, such as CLI exit codes
    note: str = ""

    @property
    def digits(self) -> float:
        return digits(self.error)

    @property
    def passed(self) -> bool:
        return self.ok and self.digits >= self.target


@dataclass
class Job:
    name: str
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], Check]  # untimed


def digits(error: float) -> float:
    """Correct decimal digits for a relative error, capped at 16."""
    if not error > 0.0:
        return 16.0 if error == 0.0 else 0.0  # nan counts as no digits
    return float(min(16.0, -math.log10(error)))


def fingerprint(*parts) -> str:
    """Hash of arrays, TT objects, reports, strings and bytes."""
    h = hashlib.sha256()

    def feed(p):
        if isinstance(p, bytes):
            h.update(p)
        elif isinstance(p, str):
            h.update(p.encode())
        elif hasattr(p, "cores"):
            for c in p.cores:
                feed(np.asarray(c))
        elif hasattr(p, "to_keyvalue"):
            feed(p.to_keyvalue())
        elif isinstance(p, (list, tuple)):
            for q in p:
                feed(q)
        else:
            a = np.ascontiguousarray(p, dtype=np.float64)
            h.update(str(a.shape).encode())
            h.update(a.tobytes())

    for part in parts:
        feed(part)
    return h.hexdigest()[:16]


def value_error(got, ref, scale: float) -> float:
    """Largest error over a list of scalar answers, relative to ``scale``."""
    got = np.atleast_1d(np.asarray(got, dtype=np.float64))
    ref = np.atleast_1d(np.asarray(ref, dtype=np.float64))
    if got.shape != ref.shape:
        return float("nan")
    return float(np.max(np.abs(got - ref)) / scale)


def vector_error(got, ref) -> float:
    """Relative 2-norm error of a vector (or matrix) answer."""
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    ref = np.asarray(ref, dtype=np.float64).reshape(-1)
    if got.shape != ref.shape:
        return float("nan")
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def _job_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _solver_job(name, call, answer, scale, target):
    """A solver job: ``call()`` returns the solver's tuple, whose first entry
    is compared with ``answer`` and whose last is the SolveReport."""

    def check(result):
        return Check(
            error=value_error(result[0], answer, scale),
            target=target,
            fingerprint=fingerprint(*result),
            report=result[-1],
        )

    return Job(name, call, check)


# ---------------------------------------------------------------------------
# wide-rank


def wide_rank(seed: int, workdir: str) -> List[Job]:
    """Single-site solves at large ranks on the d = 12 Laplacian.

    Dense local solves (eigh and svd of dimension 2R^2) dominate, with cost
    growing as R^6: this is where local-solve work shows.
    """
    import ttkit as tk

    d, n = 12, 2**12
    op = laplacian.laplacian(d)
    s = _job_seeds(seed, 3)
    lam1 = laplacian.eigenvalue(1, n)
    lam_n = laplacian.eigenvalue(n, n)
    cfg = lambda rank, sd: tk.SweepConfig(rank=rank, seed=sd, max_sweeps=2)
    return [
        _solver_job("eig_min-r16", lambda: tk.eig_min(op, cfg(16, s[0])), lam1, lam_n, 14),
        _solver_job("eig_min-r24", lambda: tk.eig_min(op, cfg(24, s[1])), lam1, lam_n, 14),
        _solver_job(
            "svd_dominant-r16", lambda: tk.svd_dominant(op, cfg(16, s[2])), lam_n, lam_n, 13
        ),
    ]


# ---------------------------------------------------------------------------
# long-chain


def long_chain(seed: int, workdir: str) -> List[Job]:
    """All seven solvers, both sweep modes, on chains of 10 to 20 sites at
    ranks <= 8 (local dimension <= 256).

    Per-site work (assembly, environments, QR moves and splits, the sweep
    loop) is a large share here, and local solves are small calls.
    """
    import ttkit as tk

    lap = {d: laplacian.laplacian(d) for d in (10, 12, 14, 16, 20)}
    ev = laplacian.eigenvalue
    top = {d: ev(2**d, 2**d) for d in lap}  # the spectral norm, each answer's scale
    s = _job_seeds(seed, 10)

    def cfg(sd, **kw):
        kw.setdefault("max_sweeps", 2)
        return tk.SweepConfig(seed=sd, max_rank=8, **kw)

    n10, n12, n14, n16, n20 = (2**d for d in (10, 12, 14, 16, 20))
    eye10 = tk.eye_mpo((2,) * 10)
    ones10 = tk.TTVector([np.ones((1, 2, 1))] * 10)
    j = np.arange(1, n10 + 1, dtype=np.float64)
    x_exact = j * (n10 + 1 - j) / 2.0

    def check_linsolve(result):
        x, report = result
        return Check(
            error=vector_error(x.full(), x_exact),
            target=8,
            fingerprint=fingerprint(x, report),
            report=report,
        )

    return [
        _solver_job(
            "eig_min-d20",
            lambda: tk.eig_min(lap[20], cfg(s[0], rank=6)),
            ev(1, n20),
            top[20],
            14,
        ),
        _solver_job(
            "eig_min-adaptive-d16",
            lambda: tk.eig_min(lap[16], cfg(s[1], rank=4, adaptive=True)),
            ev(1, n16),
            top[16],
            14,
        ),
        _solver_job(
            "eig_block-adaptive-d14",
            lambda: tk.eig_block(lap[14], 4, cfg(s[2], rank=4, adaptive=True)),
            [ev(k, n14) for k in range(1, 5)],
            top[14],
            14,
        ),
        _solver_job(
            "svd_dominant-d16",
            lambda: tk.svd_dominant(lap[16], cfg(s[3], rank=6, max_sweeps=3)),
            top[16],
            top[16],
            13,
        ),
        # The Gram route squares the condition number: its digits sit at the
        # rounding floor, where they move with the random start (9.4 to 11.5
        # over 200 seeds), and they are the workload's fewest.  Three starts
        # per run keep that minimum, ``digits``, steady from seed to seed.
        *(
            _solver_job(
                f"svd_small_k-d12-{k}",
                lambda sd=sd: tk.svd_small_k(lap[12], 2, cfg(sd, rank=6)),
                [ev(1, n12), ev(2, n12)],
                top[12],
                8,
            )
            for k, sd in enumerate((s[4], s[8], s[9]))
        ),
        # pencil (L I L^T, L) = (L^2, L) has the eigenvalues of L
        _solver_job(
            "gevd-d10",
            lambda: tk.gevd(lap[10], eye10, lap[10], 2, cfg(s[5], rank=6)),
            [ev(1, n10), ev(2, n10)],
            top[10],
            9,
        ),
        # cross operator L L^T = L^2: correlations are the squared top eigenvalues
        _solver_job(
            "cca-d12",
            lambda: tk.cca(lap[12], lap[12], 2, cfg(s[6], rank=6, identity_grams=True)),
            [top[12] ** 2, ev(n12 - 1, n12) ** 2],
            top[12] ** 2,
            13,
        ),
        # x_j = j (n + 1 - j) / 2; 8 digits is within reach of a stable method
        # (cond(L) * eps ~ 1e-10), not of the normal equations (~1e-5)
        Job(
            "linsolve-d10",
            lambda: tk.linsolve(lap[10], ones10, cfg(s[7], rank=8, max_sweeps=20)),
            check_linsolve,
        ),
    ]


# ---------------------------------------------------------------------------
# compress-io


_TOL = 1e-10  # requested accuracy of every compression in compress-io
_VEC_D = 18  # sampled vectors have 2^18 entries: 2 MiB, about one core's L2
_MAT_D = 10  # the sampled kernel matrix is 2^10 x 2^10


def sampled_functions(seed: int, n: int) -> dict:
    """Four smooth functions on [0, 1) with seed-drawn parameters."""
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=np.float64) / n
    a, b = rng.uniform(2.0, 6.0), rng.uniform(0.0, 2 * np.pi)
    c1, c2 = rng.uniform(0.4, 0.6, size=2)
    coef = rng.standard_normal(6)
    return {
        "sine": np.sin(2 * np.pi * a * x + b),
        "gauss": np.exp(-(((x - c1) / 0.15) ** 2)),
        "runge": 1.0 / (1.0 + 25.0 * (x - c2) ** 2),
        "poly": np.polynomial.polynomial.polyval(x, coef),
    }


def _stencil(v: np.ndarray) -> np.ndarray:
    out = 2.0 * v
    out[1:] -= v[:-1]
    out[:-1] -= v[1:]
    return out


def _cli(argv) -> int:
    import ttkit.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return ttkit.cli.main(argv)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def compress_io(seed: int, workdir: str) -> List[Job]:
    """Compression, arithmetic, containers and the CLI, with the solvers
    almost idle: TT-SVD, rounding, products, save/load and CLI overhead."""
    import ttkit as tk

    policy = tk.TruncationPolicy(_TOL)
    n = 2**_VEC_D
    plan = tk.plan_auto(n)
    funcs = sampled_functions(seed, n)
    rng = np.random.default_rng([seed, 1])
    s_cli = _job_seeds(seed, 1)[0]
    jobs = []

    def quantize_job(name, v):
        def run():
            q = tk.quantize_vector(v, plan, policy)
            return q, tk.dequantize(q, plan)

        def check(result):
            q, back = result
            return Check(vector_error(back, v), 10, fingerprint(q, back))

        return Job(f"quantize-{name}", run, check)

    jobs += [quantize_job(name, v) for name, v in funcs.items()]

    # arithmetic on compressed inputs made here, outside the timed region
    qa = tk.quantize_vector(funcs["gauss"], plan, policy)
    qb = tk.quantize_vector(funcs["runge"], plan, policy)
    sum_ref = tk.dequantize(qa) + tk.dequantize(qb)
    jobs.append(
        Job(
            "add-round",
            lambda: tk.tt_round(tk.tt_add(qa, qb), policy),
            lambda y: Check(vector_error(y.full(), sum_ref), 10, fingerprint(y)),
        )
    )

    lap = laplacian.laplacian(_VEC_D)
    r = tk.random_tt((2,) * _VEC_D, 8, rng)
    stencil_ref = _stencil(r.full().reshape(-1))
    jobs.append(
        Job(
            "apply-laplacian",
            lambda: tk.mpo_apply(lap, r, policy),
            lambda y: Check(vector_error(y.full(), stencil_ref), 10, fingerprint(y)),
        )
    )

    m = 2**_MAT_D
    t = np.arange(m, dtype=np.float64) / m
    width = rng.uniform(0.2, 0.3)
    kernel = np.exp(-(((t[:, None] - t[None, :]) / width) ** 2))
    mplan = tk.plan_auto(m)
    jobs.append(
        Job(
            "quantize-matrix",
            lambda: tk.quantize_matrix(kernel, mplan, mplan, policy),
            lambda k: Check(vector_error(k.full(), kernel), 10, fingerprint(k)),
        )
    )

    kq = tk.quantize_matrix(kernel, mplan, mplan, policy)
    kq_dense = kq.full()
    square_ref = kq_dense @ kq_dense
    jobs.append(
        Job(
            "mpo_mul-round",
            lambda: tk.mpo_mul(kq, kq, policy),
            lambda p: Check(vector_error(p.full(), square_ref), 10, fingerprint(p)),
        )
    )

    stored = {"gauss": qa, "runge": qb, "kernel": kq, "laplacian": lap}
    paths = {k: os.path.join(workdir, f"{k}.tt") for k in stored}

    def save_load():
        for k, obj in stored.items():
            tk.save(obj, paths[k])
        return {k: tk.load(paths[k]) for k in stored}

    def check_save_load(loaded):
        same = all(
            len(a.cores) == len(b.cores)
            and all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))
            for a, b in ((stored[k], loaded[k]) for k in stored)
        )
        files = [_read(paths[k]) for k in stored]
        return Check(0.0 if same else 1.0, 16, fingerprint(*files))

    jobs.append(Job("save-load", save_load, check_save_load))

    raw = os.path.join(workdir, "data.raw")
    funcs["gauss"].astype("<f8").tofile(raw)
    packed = os.path.join(workdir, "data.tt")
    unpacked = os.path.join(workdir, "roundtrip.raw")

    def cli_compress():
        return [
            _cli(["quantize", raw, "--tol", repr(_TOL), "-o", packed]),
            _cli(["info", packed]),
            _cli(["reconstruct", packed, "-o", unpacked]),
        ]

    def check_cli_compress(codes):
        back = np.fromfile(unpacked, dtype="<f8")
        files = [_read(packed), _read(packed + ".report.txt"), back.tobytes()]
        return Check(
            vector_error(back, funcs["gauss"]),
            10,
            fingerprint(*files),
            ok=codes == [0, 0, 0],
            note=f"exit codes {codes}",
        )

    jobs.append(Job("cli-quantize-info-reconstruct", cli_compress, check_cli_compress))

    lap_path = os.path.join(workdir, "lap10.tt")
    tk.save(laplacian.laplacian(10), lap_path)
    prefix = os.path.join(workdir, "eig")
    eig_args = ["eig", lap_path, "--rank", "4", "--max-sweeps", "2", "--allow-nonconverged"]
    eig_args += ["--seed", str(s_cli), "-o", prefix]

    def check_cli_eig(code):
        files = [
            _read(prefix + suffix)
            for suffix in (".report.txt", ".trajectory.csv", ".values.csv")
        ]
        value = float(files[2].decode().splitlines()[1].split(",")[1])
        return Check(
            value_error(value, laplacian.eigenvalue(1, 2**10), laplacian.eigenvalue(2**10, 2**10)),
            14,
            fingerprint(*files),
            ok=code == 0,
            note=f"exit code {code}",
        )

    jobs.append(Job("cli-eig-d10", lambda: _cli(eig_args), check_cli_eig))
    return jobs


WORKLOADS = {
    "wide-rank": wide_rank,
    "long-chain": long_chain,
    "compress-io": compress_io,
}
