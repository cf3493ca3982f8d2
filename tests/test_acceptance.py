"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they go)."""

import time

import numpy as np
import scipy.linalg

from oracles import frame_matrix, frame_matrix_two, laplacian, merged_core, random_mpo
from ttkit import container
from ttkit.algebra import (
    mpo_apply,
    mpo_mul,
    mpo_transpose,
    tt_add,
    tt_norm,
    tt_scale,
)
from ttkit.cli import main as cli_main
from ttkit.frames import effective_operator, env_build
from ttkit.quantize import plan_auto, quantize_vector
from ttkit.solvers import SweepConfig, cca, eig_block, eig_min, gevd, linsolve, svd_dominant, svd_small_k
from ttkit.train import (
    TruncationPolicy,
    feasible_ranks,
    mpo_svd,
    orthogonalize,
    random_tt,
    tt_svd,
)

OP_TOL = TruncationPolicy(1e-13)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_tt_svd_accuracy_law():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        order = int(rng.integers(3, 7))
        shape = tuple(int(rng.integers(2, 6)) for _ in range(order))
        t = rng.standard_normal(shape)
        norm = np.linalg.norm(t)
        for tol in (0.0, 1e-4, 1e-8):
            x = tt_svd(t, TruncationPolicy(tol))
            err = np.linalg.norm(x.full() - t)
            # zero tolerance means lossless up to floating-point resolution
            budget = max(tol, 1e-12) * norm
            worst = max(worst, err / budget)
            if err > budget:
                check(1, "TT-SVD accuracy law", False, f"{err} > {budget}")
    elapsed = time.perf_counter() - start
    check(
        1,
        "TT-SVD accuracy law",
        worst <= 1.0 and elapsed < 10.0,
        f"worst error ratio {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_02_exact_rank_recovery():
    rng = np.random.default_rng(101)
    hits = 0
    for _ in range(100):
        order = int(rng.integers(3, 7))
        modes = [int(rng.integers(2, 5)) for _ in range(order)]
        ranks = [int(rng.integers(1, 5)) for _ in range(order - 1)]
        profile = feasible_ranks(modes, ranks)
        x = random_tt(modes, ranks, rng)
        y = tt_svd(x.full(), TruncationPolicy(1e-12))
        hits += list(y.ranks) == profile
    check(2, "exact TT-rank recovery", hits == 100, f"{hits}/100 cases")


FRAME_SHAPES = [(2,) * 12, (4,) * 5, (2, 3, 4, 5), (8, 8, 8), (2, 3, 2, 3, 2)]


def test_criterion_03_frame_equation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for shape in FRAME_SHAPES:
        x = random_tt(shape, 4, rng)
        v = x.full().reshape(-1)
        scale = np.linalg.norm(v)
        for site in range(x.order):
            err = np.linalg.norm(v - frame_matrix(x, site) @ x.cores[site].reshape(-1))
            worst = max(worst, err / scale)
        for site in range(x.order - 1):
            g = merged_core(x, site).reshape(-1)
            err = np.linalg.norm(v - frame_matrix_two(x, site) @ g)
            worst = max(worst, err / scale)
    check(3, "frame equation (one- and two-core)", worst <= 1e-12, f"worst {worst:.3g}")


def test_criterion_04_frame_orthogonality():
    rng = np.random.default_rng(103)
    worst = 0.0
    for shape in [(2, 3, 2, 3), (2,) * 8, (4, 4, 4)]:
        x = random_tt(shape, 4, rng)
        for site in range(x.order):
            xc = orthogonalize(x, site)
            f = frame_matrix(xc, site)
            worst = max(worst, np.abs(f.T @ f - np.eye(f.shape[1])).max())
        for site in range(x.order - 1):
            xc = orthogonalize(x, site)
            f2 = frame_matrix_two(xc, site)
            worst = max(worst, np.abs(f2.T @ f2 - np.eye(f2.shape[1])).max())
    check(4, "mixed-canonical frame orthogonality", worst <= 1e-12, f"worst {worst:.3g}")


def test_criterion_05_mpo_algebra():
    rng = np.random.default_rng(104)
    worst = 0.0
    rank_law_ok = True
    cases = [
        ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
        ((2, 3), (3, 2), (2, 2)),
        ((2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2)),
        ((4, 4), (2, 4), (4, 2)),
        ((2,) * 6, (2,) * 6, (2,) * 6),
    ]
    for rows, mids, cols in cases:
        a = random_mpo(rows, mids, 3, rng)
        b = random_mpo(mids, cols, 2, rng)
        x = random_tt(mids, 2, rng)
        y = mpo_apply(a, x)
        rank_law_ok &= y.ranks == tuple(p * r for p, r in zip(a.ranks, x.ranks))
        dense = a.full() @ x.full().reshape(-1)
        worst = max(worst, np.linalg.norm(y.full().reshape(-1) - dense) / np.linalg.norm(dense))
        ab = mpo_mul(a, b)
        rank_law_ok &= ab.ranks == tuple(p * r for p, r in zip(a.ranks, b.ranks))
        dense_ab = a.full() @ b.full()
        worst = max(worst, np.linalg.norm(ab.full() - dense_ab) / np.linalg.norm(dense_ab))
    check(
        5,
        "operator products match dense with exact rank products",
        worst <= 1e-11 and rank_law_ok,
        f"worst {worst:.3g}",
    )


def test_criterion_06_effective_operator():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        shape = tuple(int(rng.integers(2, 4)) for _ in range(4))
        x = random_tt(shape, 3, rng)
        a = random_mpo(shape, shape, 2, rng)
        dense = a.full()
        for site in range(x.order):
            xc = orthogonalize(x, site)
            stack = env_build(xc.cores, a.cores, xc.cores)
            for k in range(site):
                stack.update_left(k)
            h = effective_operator(stack, site)
            f = frame_matrix(xc, site)
            want = f.T @ dense @ f
            worst = max(worst, np.abs(h - want).max() / max(np.abs(want).max(), 1.0))
    check(6, "environment-built local operator equals frame sandwich", worst <= 1e-11, f"worst {worst:.3g}")


def test_criterion_07_laplacian_eigensolvers():
    dense = laplacian(64)
    op = mpo_svd(dense, (2,) * 6, (2,) * 6, OP_TOL)
    w = np.linalg.eigvalsh(dense)
    start = time.perf_counter()
    cfg = SweepConfig(max_sweeps=20, rank=8, seed=0)
    lam, _, rep1 = eig_min(op, cfg)
    vals, blk, rep3 = eig_block(op, 3, cfg)
    elapsed = time.perf_counter() - start
    err1 = abs(lam - w[0])
    err3 = np.abs(vals - w[:3]).max()
    cols = blk.full()
    orth = np.abs(cols.T @ cols - np.eye(3)).max()
    ok = (
        err1 < 1e-7
        and err3 < 1e-7
        and rep1.sweeps <= 20
        and rep3.sweeps <= 20
        and elapsed < 5.0
        and rep1.is_monotone(1e-10)
        and rep3.is_monotone(1e-10)
        and orth < 1e-10
    )
    check(7, "QTT Laplacian eigenpairs", ok, f"errs {err1:.2g}/{err3:.2g}, {elapsed:.2f}s")


def test_criterion_08_svd_solvers():
    rng = np.random.default_rng(106)
    dense = rng.standard_normal((16, 16))
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, OP_TOL)
    s = np.linalg.svd(dense, compute_uv=False)
    sigma, _, _, rep = svd_dominant(op, SweepConfig(max_sweeps=30, rank=6, seed=0))
    err_dom = abs(sigma - s[0])
    sig_small, _, _ = svd_small_k(op, 2, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7))
    err_small = np.abs(sig_small - np.sort(s)[:2]).max()
    # Gram-route cross-check: squared singular values are the Ritz values of A^T A
    gram = mpo_mul(mpo_transpose(op), op, OP_TOL)
    mu, _, _ = eig_block(gram, 2, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7))
    err_cross = np.abs(sig_small - np.sqrt(np.clip(mu, 0, None))).max()
    ok = err_dom < 1e-6 and err_small < 1e-6 and err_cross < 1e-8 and rep.is_monotone(1e-10)
    check(8, "singular triplet solvers vs dense SVD", ok, f"errs {err_dom:.2g}/{err_small:.2g}/{err_cross:.2g}")


def test_criterion_09_linear_solver():
    dense = laplacian(64) + np.eye(64)
    op = mpo_svd(dense, (2,) * 6, (2,) * 6, OP_TOL)
    rng = np.random.default_rng(107)
    x_star = random_tt((2,) * 6, 3, rng)
    y = mpo_apply(op, x_star)
    x, rep = linsolve(op, y, SweepConfig(max_sweeps=20, rank=5, seed=0, tol=1e-9))
    rec_err = tt_norm(tt_add(x, tt_scale(x_star, -1.0))) / tt_norm(x_star)
    y2 = random_tt((2,) * 6, 2, rng)
    x2, rep2 = linsolve(
        op, y2, SweepConfig(max_sweeps=20, rank=2, seed=0, adaptive=True, trunc_tol=1e-11, tol=1e-8)
    )
    res2 = rep2.residuals[0]
    ok = (
        rec_err <= 1e-8
        and res2 <= 1e-7
        and rep2.sweeps <= 20
        and rep.is_monotone(1e-10)
        and rep2.is_monotone(1e-10)
    )
    check(9, "least-squares solver", ok, f"recovery {rec_err:.2g}, residual {res2:.2g}")


def test_criterion_10_gevd_and_cca():
    rng = np.random.default_rng(108)
    shapes = (2,) * 4
    x_dense = rng.standard_normal((16, 16))
    a_dense = rng.standard_normal((16, 16))
    a_dense = 0.5 * (a_dense + a_dense.T)
    q = rng.standard_normal((16, 16))
    b_dense = q @ q.T + 16 * np.eye(16)
    x_op = mpo_svd(x_dense, shapes, shapes, OP_TOL)
    a_op = mpo_svd(a_dense, shapes, shapes, OP_TOL)
    b_op = mpo_svd(b_dense, shapes, shapes, OP_TOL)
    w = scipy.linalg.eigh(x_dense @ a_dense @ x_dense.T, b_dense, eigvals_only=True)
    vals, _, rep_g = gevd(x_op, a_op, b_op, 3, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7))
    err_gevd = np.abs(vals - w[:3]).max()

    xd = rng.standard_normal((8, 64))
    yd = rng.standard_normal((8, 64))
    x2 = mpo_svd(xd, (2, 2, 2), (4, 4, 4), OP_TOL)
    y2 = mpo_svd(yd, (2, 2, 2), (4, 4, 4), OP_TOL)
    lx = np.linalg.cholesky(xd @ xd.T)
    ly = np.linalg.cholesky(yd @ yd.T)
    m = np.linalg.solve(lx, xd @ yd.T)
    m = np.linalg.solve(ly, m.T).T
    oracle = np.linalg.svd(m, compute_uv=False)[:2]
    corr, _, _, rep_c = cca(x2, y2, 2, SweepConfig(max_sweeps=30, rank=4, seed=0))
    err_cca = np.abs(corr - oracle).max()
    self_corr, _, _, _ = cca(x2, x2, 1, SweepConfig(max_sweeps=20, rank=4, seed=0))
    err_self = abs(self_corr[0] - 1.0)
    ok = (
        err_gevd < 1e-6
        and err_cca < 1e-6
        and err_self < 1e-8
        and rep_g.is_monotone(1e-10)
        and rep_c.is_monotone(1e-10)
    )
    check(10, "generalized eigenpairs and canonical correlations", ok,
          f"errs {err_gevd:.2g}/{err_cca:.2g}/{err_self:.2g}")


def test_criterion_11_qtt_compression():
    n = 2 ** 16
    plan = plan_auto(n, 2)
    const = quantize_vector(np.full(n, 4.5), plan, TruncationPolicy(1e-12))
    ranks_ok = set(const.ranks) == {1}
    params = sum(c.size for c in const.cores)
    ramp_data = np.arange(n, dtype=np.float64)
    ramp = quantize_vector(ramp_data, plan, TruncationPolicy(1e-12))
    ramp_ok = max(ramp.ranks) <= 2
    back = ramp.full().reshape(-1)
    rec = np.linalg.norm(back - ramp_data) / np.linalg.norm(ramp_data)
    ok = ranks_ok and params == 2 * 16 and ramp_ok and rec <= 1e-10
    check(11, "QTT compression of constant and ramp", ok,
          f"params {params}, ramp ranks<=2 {ramp_ok}, recon {rec:.2g}")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    dense = laplacian(16)
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, OP_TOL)
    op_path = tmp_path / "op.tt"
    container.save(op, op_path)
    raw = tmp_path / "v.raw"
    np.arange(256, dtype="<f8").tofile(raw)
    blobs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        code1 = cli_main(["quantize", str(raw), "--tol", "1e-10", "-o", str(d / "v.tt")])
        code2 = cli_main(["eig", str(op_path), "--k", "2", "--seed", "3", "-o", str(d / "e")])
        code3 = cli_main(["compress", str(raw), "--shape", "4,4,4,4", "-o", str(d / "c.tt")])
        assert code1 == code2 == code3 == 0
        blob = b""
        for name in ("v.tt", "v.tt.report.txt", "e.tt", "e.report.txt",
                     "e.trajectory.csv", "e.values.csv", "c.tt", "c.tt.report.txt"):
            blob += (d / name).read_bytes()
        blobs.append(blob)
    capsys.readouterr()
    check(12, "seeded CLI runs are byte-identical", blobs[0] == blobs[1])
