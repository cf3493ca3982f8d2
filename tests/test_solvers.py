from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from oracles import diagonal_mpo, tt_inner
from ttkit.algebra import (
    eye_mpo,
    mpo_apply,
    mpo_mul,
    mpo_transpose,
    tt_add,
    tt_norm,
    tt_scale,
)
from ttkit.quantize import plan_auto, quantize_matrix, quantize_vector
from ttkit.solvers import (
    SolveReport,
    SweepConfig,
    cca,
    eig_block,
    eig_min,
    gevd,
    linsolve,
    svd_dominant,
    svd_small_k,
)
from ttkit.train import (
    TruncationPolicy,
    TTMatrix,
    TTVector,
    block_extract,
    feasible_ranks,
    mpo_svd,
    random_tt,
    tt_svd,
)

OP_TOL = TruncationPolicy(1e-13)


def laplacian_mpo(k: int):
    n = 2 ** k
    dense = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return mpo_svd(dense, (2,) * k, (2,) * k, OP_TOL), dense


def random_sym_mpo(k: int, seed: int):
    rng = np.random.default_rng(seed)
    n = 2 ** k
    dense = rng.standard_normal((n, n))
    dense = 0.5 * (dense + dense.T)
    return mpo_svd(dense, (2,) * k, (2,) * k, OP_TOL), dense


# ---------------------------------------------------------------------------
# configuration validation


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        SweepConfig(tol=0.0)
    with pytest.raises(ValueError):
        SweepConfig(rank=0)


def test_report_monotone_check():
    rep = SolveReport(sense="min", objective=[3.0, 2.0, 2.0])
    assert rep.is_monotone()
    rep_bad = SolveReport(sense="min", objective=[1.0, 2.0])
    assert not rep_bad.is_monotone()
    rep_max = SolveReport(sense="max", objective=[1.0, 2.0])
    assert rep_max.is_monotone()


def test_report_serialization():
    rep = SolveReport(sense="min", objective=[1.5, 1.0], residuals=[1e-9], ranks=[1, 2, 1], sweeps=1, converged=True)
    text = rep.to_keyvalue()
    assert "converged=true" in text
    assert "ranks=1,2,1" in text
    csv = rep.trajectory_csv()
    assert csv.splitlines()[0] == "half_sweep,objective"
    assert len(csv.strip().splitlines()) == 3


# ---------------------------------------------------------------------------
# symmetric eigenproblems


def test_eig_identity_operator():
    ident = eye_mpo((2, 2, 2))
    lam, x, rep = eig_min(ident, SweepConfig(max_sweeps=5, rank=2, seed=0, tol=1e-10))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert tt_norm(x) == pytest.approx(1.0, rel=1e-12)
    assert all(abs(v - 1.0) < 1e-12 for v in rep.objective)
    assert rep.converged


def test_eig_diagonal_operator_finds_smallest_entry():
    n = 64
    diag = np.linspace(1.0, 2.0, n)
    dvec = quantize_vector(diag, plan_auto(n, 2), OP_TOL)
    op = diagonal_mpo(dvec)
    lam, x, rep = eig_min(op, SweepConfig(max_sweeps=30, rank=4, seed=1, tol=1e-9))
    assert lam == pytest.approx(diag.min(), abs=1e-9)
    e_min = tt_svd(np.eye(n)[0].reshape((2,) * 6))
    assert abs(tt_inner(x, e_min)) == pytest.approx(1.0, abs=1e-6)


def test_eig_laplacian_vs_dense():
    op, dense = laplacian_mpo(6)
    w = np.linalg.eigvalsh(dense)
    lam, x, rep = eig_min(op, SweepConfig(max_sweeps=20, rank=8, seed=0))
    assert abs(lam - w[0]) < 1e-8
    assert rep.is_monotone()
    assert rep.converged
    # unit norm and Rayleigh quotient agreement
    v = x.full().reshape(-1)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-10)
    assert v @ dense @ v == pytest.approx(lam, rel=1e-9)


def test_eig_block_k1_matches_eig_min():
    op, _ = laplacian_mpo(5)
    cfg = SweepConfig(max_sweeps=20, rank=6, seed=0)
    lam, _, _ = eig_min(op, cfg)
    vals, blk, _ = eig_block(op, 1, cfg)
    assert vals[0] == pytest.approx(lam, abs=1e-10)
    assert blk.shape[1] == 1


def test_eig_block_identity():
    vals, blk, rep = eig_block(eye_mpo((2, 2, 2)), 3, SweepConfig(max_sweeps=5, rank=3, seed=0, tol=1e-9))
    assert np.allclose(vals, 1.0, atol=1e-12)
    cols = blk.full()
    assert np.abs(cols.T @ cols - np.eye(3)).max() < 1e-10


def test_eig_block_laplacian_three_smallest():
    op, dense = laplacian_mpo(6)
    w = np.linalg.eigvalsh(dense)
    vals, blk, rep = eig_block(op, 3, SweepConfig(max_sweeps=20, rank=8, seed=0))
    assert np.abs(vals - w[:3]).max() < 1e-7
    assert np.all(np.diff(vals) >= -1e-12)  # ascending
    cols = blk.full()
    assert np.abs(cols.T @ cols - np.eye(3)).max() < 1e-10
    assert rep.is_monotone()


@pytest.mark.parametrize("modes, k", [(3, 1), (3, 3), (3, 8), (4, 16)])
def test_local_eigenpairs_match_eigvalsh(modes, k):
    # one site: the local matrix is the operator itself, K up to its dimension
    _, dense = random_sym_mpo(modes, 30 + k)
    n = dense.shape[0]
    op = mpo_svd(dense, (n,), (n,), OP_TOL)
    vals, blk, _ = eig_block(op, k, SweepConfig(max_sweeps=1, rank=1, seed=0))
    scale = np.linalg.norm(dense, 2)
    assert np.abs(vals - np.linalg.eigvalsh(dense)[:k]).max() <= 1e-13 * scale
    cols = blk.full()
    assert np.abs(cols.T @ cols - np.eye(k)).max() < 1e-12


def test_eig_local_objective_matches_global():
    op, dense = laplacian_mpo(4)
    lam, x, rep = eig_min(op, SweepConfig(max_sweeps=3, rank=4, seed=0, tol=1e-12))
    v = x.full().reshape(-1)
    assert rep.objective[-1] == pytest.approx(v @ dense @ v / (v @ v), abs=1e-10)


def test_eig_gauge_invariance():
    op, dense = laplacian_mpo(4)
    lam, x, _ = eig_min(op, SweepConfig(max_sweeps=10, rank=4, seed=0))
    # flip the sign gauge on an interior bond: the objective is unchanged
    cores = [c.copy() for c in x.cores]
    rng = np.random.default_rng(5)
    signs = np.sign(rng.standard_normal(cores[1].shape[2]))
    cores[1] *= signs[None, None, :]
    cores[2] *= signs[:, None, None]
    gauged = TTVector(cores)
    num = tt_inner(gauged, mpo_apply(op, gauged))
    den = tt_inner(gauged, gauged)
    assert num / den == pytest.approx(lam, rel=1e-10)


def test_eig_requires_square_operator():
    rng = np.random.default_rng(0)
    from oracles import random_mpo

    op = random_mpo((2, 2), (2, 3), 2, rng)
    with pytest.raises(ValueError, match="square"):
        eig_min(op, SweepConfig())


def test_eig_k_too_large_for_rank():
    op, _ = laplacian_mpo(3)
    with pytest.raises(ValueError, match="K="):
        eig_block(op, 5, SweepConfig(rank=1))


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("solver", ["eig_block", "svd_small_k", "gevd", "cca"])
def test_k_below_one_is_rejected(solver, k):
    op, _ = laplacian_mpo(4)
    eye = eye_mpo(op.row_sizes)
    call = {
        "eig_block": lambda: eig_block(op, k, SweepConfig()),
        "svd_small_k": lambda: svd_small_k(op, k, SweepConfig()),
        "gevd": lambda: gevd(eye, op, eye, k, SweepConfig()),
        "cca": lambda: cca(op, eye, k, SweepConfig()),
    }[solver]
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda op: eig_block(op, 2.0),
        lambda op: eig_block(op, True),
        lambda op: cca(op, op, 2.5),
        lambda op: svd_small_k(op, np.float64(2)),
    ],
    ids=["eig_block-float", "eig_block-bool", "cca-float", "svd_small_k-numpy-float"],
)
def test_non_integer_k_is_one_line_error(call):
    op, _ = laplacian_mpo(4)
    with pytest.raises(ValueError, match=r"^k must be an integer, got [^\n]+$"):
        call(op)


GEVD_REFUSALS = {
    "inner": "^inner operator must act on the sandwich's column space$",
    "metric": "^metric must act on the sandwich's row space$",
}


@pytest.mark.parametrize(
    "a_shape, b_shape, refusal",
    [
        (((2, 2), (2, 2)), ((2, 2), (2, 2)), "inner"),  # A on X's rows
        (((2, 3), (2, 2)), ((2, 2), (2, 2)), "inner"),  # A from X's rows to its columns
        (((2, 3), (2, 3)), ((2, 3), (2, 3)), "metric"),  # B on X's columns
        (((2, 3), (2, 3)), ((2, 2), (2, 3)), "metric"),  # B from X's columns to its rows
    ],
)
def test_gevd_refuses_operators_off_the_sandwich(a_shape, b_shape, refusal):
    from oracles import random_mpo

    # X maps modes (2, 3) to (2, 2): A must act on (2, 3), B on (2, 2)
    rng = np.random.default_rng(16)
    shapes = (((2, 2), (2, 3)), a_shape, b_shape)
    x_op, a_op, b_op = (random_mpo(rows, cols, 1, rng) for rows, cols in shapes)
    with pytest.raises(ValueError, match=GEVD_REFUSALS[refusal]):
        gevd(x_op, a_op, b_op, 1, SweepConfig())


def test_local_cap_enforced(monkeypatch):
    op, _ = laplacian_mpo(5)
    monkeypatch.setattr("ttkit.frames.LOCAL_DIM_CAP", 8)
    with pytest.raises(ValueError, match="cap"):
        eig_min(op, SweepConfig(rank=8))


def test_k_error_advises_rank_only_when_it_helps():
    # the shorter side is padded with a size-1 mode: site 4 holds one column
    # whatever the rank, so "increase the rank" would be wrong advice
    rng = np.random.default_rng(5)
    x_op, y_op = (
        quantize_matrix(rng.standard_normal((16, 32)), plan_auto(16), plan_auto(32))
        for _ in range(2)
    )
    assert x_op.row_sizes == (2, 2, 2, 2, 1)
    for rank in (4, 64):
        with pytest.raises(ValueError, match="site 4; the mode sizes allow at most 1 there"):
            cca(x_op, y_op, 2, SweepConfig(rank=rank))
    op, _ = laplacian_mpo(3)
    with pytest.raises(ValueError, match="site 0; increase the rank"):
        eig_block(op, 3, SweepConfig(rank=1))


# ---------------------------------------------------------------------------
# two-site (adaptive) sweeps


def test_mals_matches_single_site_on_exact_rank_problem():
    op, dense = laplacian_mpo(5)
    w = np.linalg.eigvalsh(dense)
    fixed = SweepConfig(max_sweeps=20, rank=4, seed=0)
    adaptive = SweepConfig(max_sweeps=20, rank=1, seed=0, adaptive=True, trunc_tol=1e-12)
    lam_fixed, _, _ = eig_min(op, fixed)
    lam_adapt, _, rep = eig_min(op, adaptive)
    assert lam_fixed == pytest.approx(lam_adapt, abs=1e-9)
    assert abs(lam_adapt - w[0]) < 1e-8
    assert rep.is_monotone()


def test_mals_grows_rank_only_when_needed():
    op, _ = laplacian_mpo(6)
    # tight tolerance: the smallest eigenvector needs bond rank 2
    _, x, rep = eig_min(op, SweepConfig(max_sweeps=10, rank=1, seed=0, adaptive=True, trunc_tol=1e-12))
    assert max(rep.ranks) == 2
    # loose tolerance: stays at rank 1
    _, _, rep_loose = eig_min(
        op,
        SweepConfig(max_sweeps=4, rank=1, seed=0, adaptive=True, trunc_tol=0.5, tol=10.0),
    )
    assert max(rep_loose.ranks[1:-1]) <= 2


def test_mals_two_site_chain_solves_exactly_in_one_sweep():
    op, dense = random_sym_mpo(2, seed=3)
    w = np.linalg.eigvalsh(dense)
    lam, _, _ = eig_min(op, SweepConfig(max_sweeps=1, rank=1, seed=0, adaptive=True, trunc_tol=1e-14))
    assert abs(lam - w[0]) < 1e-12


def test_turning_step_is_solved_once(monkeypatch):
    # a half-sweep starts where the previous one ended, on the same local
    # problem; it is assembled and solved once.  Single-site eig_min first
    # sweeps once at half the rank (0..3..0) to build its start; the rank-4
    # sweeps then begin at site 0 again, on a new (padded) local problem
    import ttkit.solvers

    op, _ = laplacian_mpo(4)
    sites = []
    build = ttkit.solvers.effective_operator

    def recording(stack, site, span=1):
        sites.append((site, span))
        return build(stack, site, span)

    monkeypatch.setattr(ttkit.solvers, "effective_operator", recording)
    for adaptive, want in [
        (False, [0, 1, 2, 3, 2, 1, 0] + [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 0]),
        (True, [0, 1, 2, 1, 0, 1, 2, 1, 0]),
    ]:
        sites.clear()
        _, _, rep = eig_min(op, SweepConfig(max_sweeps=2, rank=4, seed=0, adaptive=adaptive))
        assert sites == [(s, 2 if adaptive else 1) for s in want]
        assert len(rep.objective) == 4 and rep.is_monotone()


def test_residuals_are_computed_only_where_read(monkeypatch):
    # the residuals feed the convergence test, after a sweep whose objective
    # is stable, and the report, after the last sweep: a 2-sweep run checks
    # them once, and a 1-sweep run still reports them
    import ttkit.solvers

    op, dense = laplacian_mpo(4)
    calls = []
    norm = ttkit.solvers._residual_norm

    def counting(lhs, rhs):
        calls.append(1)
        return norm(lhs, rhs)

    monkeypatch.setattr(ttkit.solvers, "_residual_norm", counting)
    for max_sweeps in (1, 2):
        calls.clear()
        lam, x, rep = eig_min(op, SweepConfig(max_sweeps=max_sweeps, rank=2, seed=0))
        assert len(calls) == 1 and rep.sweeps == max_sweeps
        v = x.full().reshape(-1)
        want = np.linalg.norm(dense @ v - lam * v) / max(1.0, abs(lam))
        assert rep.residuals == [pytest.approx(want, rel=1e-6, abs=1e-14)]


def test_mals_respects_max_rank_cap():
    op, _ = laplacian_mpo(5)
    rng = np.random.default_rng(1)
    y = random_tt((2,) * 5, 4, rng)
    _, rep = linsolve(
        op,
        y,
        SweepConfig(max_sweeps=4, rank=1, seed=0, adaptive=True, trunc_tol=1e-12,
                    max_rank=3, tol=10.0),
    )
    assert max(rep.ranks) <= 3


def test_max_rank_caps_single_site_block_moves():
    # with K > 1 a single-site move splits by an SVD at the noise floor, so
    # the block index can raise bond ranks; max_rank caps them there too
    op, dense = laplacian_mpo(6)
    target = np.linalg.eigvalsh(dense)[:3].sum()
    for seed in range(3):
        _, capped, rep = eig_block(op, 3, SweepConfig(rank=4, max_sweeps=6, seed=seed, max_rank=4))
        assert max(capped.ranks) <= 4 and max(rep.ranks) <= 4
        _, free, rep = eig_block(op, 3, SweepConfig(rank=4, max_sweeps=6, seed=seed))
        assert max(free.ranks) > 4
        assert rep.converged and rep.is_monotone()
        assert rep.objective[-1] == pytest.approx(target, abs=1e-12)


# ---------------------------------------------------------------------------
# singular triplets


def test_svd_dominant_diagonal_single_core():
    op = mpo_svd(np.diag([3.0, 1.0]), (2,), (2,), OP_TOL)
    sigma, u, v, rep = svd_dominant(op, SweepConfig(max_sweeps=5, rank=1, seed=0))
    assert sigma == pytest.approx(3.0, abs=1e-12)
    assert abs(u.full().reshape(-1)[0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(v.full().reshape(-1)[0]) == pytest.approx(1.0, abs=1e-10)


def test_svd_dominant_random_vs_dense():
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((16, 16))
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, OP_TOL)
    s = np.linalg.svd(dense, compute_uv=False)
    sigma, u, v, rep = svd_dominant(op, SweepConfig(max_sweeps=30, rank=6, seed=0))
    assert abs(sigma - s[0]) < 1e-7
    assert rep.is_monotone()
    # triplet consistency: A v = sigma u and sigma = u^T A v
    u, v = u.full().reshape(-1), v.full().reshape(-1)
    assert np.linalg.norm(dense @ v - sigma * u) <= 1e-13 * sigma
    assert u @ dense @ v == pytest.approx(sigma, rel=1e-12)


@pytest.mark.parametrize("adaptive", [False, True])
def test_svd_dominant_rectangular_matches_dense(adaptive):
    # wide 8x16: local cross matrices are tall, square and wide
    dense = np.random.default_rng(0).standard_normal((8, 16))
    op = quantize_matrix(dense, plan_auto(8), plan_auto(16), OP_TOL)
    sigma, u, v, _ = svd_dominant(op, SweepConfig(max_sweeps=30, rank=4, seed=0, adaptive=adaptive))
    assert abs(sigma - np.linalg.svd(dense, compute_uv=False)[0]) <= 1e-12
    u, v = u.full().reshape(-1), v.full().reshape(-1)
    assert u.shape == (8,) and v.shape == (16,)
    assert np.linalg.norm(dense @ v - sigma * u) <= 1e-13 * sigma
    assert u @ dense @ v == pytest.approx(sigma, rel=1e-12)


def test_svd_dominant_zero_operator():
    sigma, u, v, _ = svd_dominant(TTMatrix([np.zeros((1, 2, 2, 1))] * 4), SweepConfig(max_sweeps=2, rank=2))
    assert sigma == 0.0
    for x in (u, v):
        f = x.full().reshape(-1)
        assert np.all(np.isfinite(f))
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-14)


SVD_SOLVERS = pytest.mark.parametrize(
    "solve", [svd_dominant, lambda op, cfg: svd_small_k(op, 1, cfg)], ids=["svd_dominant", "svd_small_k"]
)


@pytest.mark.parametrize("scale", [1e160, 1e100, 1e-100, 1e-160])
@SVD_SOLVERS
def test_svd_extreme_scale(solve, scale):
    # the Gram operators of these, or the squares of their entries, would
    # overflow / underflow unscaled
    dense = np.random.default_rng(4).standard_normal((8, 8))
    config = SweepConfig(max_sweeps=10, rank=4, seed=0)
    op = mpo_svd(dense, (2,) * 3, (2,) * 3, OP_TOL)
    sigma = np.ravel(solve(op, config)[0])[0]
    scaled, *vectors, _ = solve(TTMatrix([op.cores[0] * scale] + op.cores[1:]), config)
    # relative to 1 (pytest.approx's absolute 1e-12 would pass any 1e-160 value)
    assert np.ravel(scaled)[0] / scale == pytest.approx(sigma, rel=1e-12)
    for x in vectors:
        assert np.all(np.isfinite(x.full()))


@SVD_SOLVERS
def test_svd_convergence_is_relative_to_scale(solve):
    # at rank 3 the iterate for a full 64 x 64 matrix stays far from the
    # singular vectors; an absolute Gram residual below 1e-8 would accept it
    # once sigma_1 is near 1e-6
    dense = np.random.default_rng(0).standard_normal((64, 64))
    op = mpo_svd(dense, (2,) * 6, (2,) * 6, OP_TOL)
    small = TTMatrix([op.cores[0] * (1e-6 / np.linalg.norm(dense, 2))] + op.cores[1:])
    config = SweepConfig(max_sweeps=3, rank=3, seed=0)
    assert not solve(op, config)[-1].converged
    assert not solve(small, config)[-1].converged


def test_svd_dominant_sign_flip_invariance():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((8, 8))
    op = mpo_svd(dense, (2,) * 3, (2,) * 3, OP_TOL)
    sigma, u, v, _ = svd_dominant(op, SweepConfig(max_sweeps=20, rank=4, seed=0))
    u_flip = TTVector([-c if i == 0 else c for i, c in enumerate(u.cores)])
    v_flip = TTVector([-c if i == 0 else c for i, c in enumerate(v.cores)])
    value = u_flip.full().reshape(-1) @ dense @ v_flip.full().reshape(-1)
    assert value == pytest.approx(sigma, rel=1e-10)


def test_svd_small_k_orthogonal_operator():
    # orthogonal matrix: all singular values are 1
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    op = mpo_svd(q, (2,) * 3, (2,) * 3, OP_TOL)
    sigmas, _, _ = svd_small_k(op, 2, SweepConfig(max_sweeps=10, rank=4, seed=0, tol=1e-7))
    assert np.allclose(sigmas, 1.0, atol=1e-8)


def test_svd_small_k_vs_dense():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((16, 16))
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, OP_TOL)
    s = np.sort(np.linalg.svd(dense, compute_uv=False))
    sigmas, vblk, rep = svd_small_k(op, 2, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7))
    assert np.abs(sigmas - s[:2]).max() < 1e-6
    cols = vblk.full()
    assert np.abs(cols.T @ cols - np.eye(2)).max() < 1e-8


def test_svd_small_k_detects_rank_deficiency():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((8, 8))
    null = rng.standard_normal(8)
    null /= np.linalg.norm(null)
    dense -= np.outer(dense @ null, null)  # kill one direction
    op = mpo_svd(dense, (2,) * 3, (2,) * 3, OP_TOL)
    sigmas, _, _ = svd_small_k(op, 1, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-6))
    assert sigmas[0] < 1e-8


# ---------------------------------------------------------------------------
# generalized eigenproblems


def test_gevd_identity_metric_reduces_to_eig_block():
    rng = np.random.default_rng(7)
    k_modes = 3
    x_dense = rng.standard_normal((8, 8))
    a_dense = rng.standard_normal((8, 8))
    a_dense = 0.5 * (a_dense + a_dense.T)
    x_op = mpo_svd(x_dense, (2,) * k_modes, (2,) * k_modes, OP_TOL)
    a_op = mpo_svd(a_dense, (2,) * k_modes, (2,) * k_modes, OP_TOL)
    b_op = eye_mpo((2,) * k_modes)
    cfg = SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7)
    vals, _, rep = gevd(x_op, a_op, b_op, 2, cfg)
    m_op = mpo_mul(mpo_mul(x_op, a_op), mpo_transpose(x_op), TruncationPolicy(1e-13))
    vals_eig, _, _ = eig_block(m_op, 2, cfg)
    assert np.abs(vals - vals_eig).max() < 1e-8
    assert rep.is_monotone()


def test_gevd_desk_scale_vs_dense():
    rng = np.random.default_rng(8)
    x_dense = rng.standard_normal((16, 16))
    a_dense = rng.standard_normal((16, 16))
    a_dense = 0.5 * (a_dense + a_dense.T)
    q = rng.standard_normal((16, 16))
    b_dense = q @ q.T + 16 * np.eye(16)
    shapes = (2,) * 4
    x_op = mpo_svd(x_dense, shapes, shapes, OP_TOL)
    a_op = mpo_svd(a_dense, shapes, shapes, OP_TOL)
    b_op = mpo_svd(b_dense, shapes, shapes, OP_TOL)
    w = scipy.linalg.eigh(x_dense @ a_dense @ x_dense.T, b_dense, eigvals_only=True)
    vals, vblk, rep = gevd(x_op, a_op, b_op, 3, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7))
    assert np.abs(vals - w[:3]).max() < 1e-6
    vm = vblk.full()
    assert np.abs(vm.T @ b_dense @ vm - np.eye(3)).max() < 1e-8


@pytest.mark.parametrize("modes, k", [(3, 2), (3, 8), (4, 16)])
def test_local_generalized_eigenpairs_match_eigvalsh(modes, k):
    # one site with X = I: the local pencil is (A, B) with B SPD
    _, a_dense = random_sym_mpo(modes, 40 + k)
    n = a_dense.shape[0]
    q = np.random.default_rng(50 + k).standard_normal((n, n))
    b_dense = q @ q.T + n * np.eye(n)
    ops = [mpo_svd(m, (n,), (n,), OP_TOL) for m in (np.eye(n), a_dense, b_dense)]
    vals, vblk, _ = gevd(*ops, k, SweepConfig(max_sweeps=1, rank=1, seed=0))
    chol = np.linalg.cholesky(b_dense)
    whitened = np.linalg.solve(chol, np.linalg.solve(chol, a_dense).T)
    want = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))[:k]
    assert np.abs(vals - want).max() <= 1e-13 * np.linalg.norm(whitened, 2)
    vm = vblk.full()
    assert np.abs(vm.T @ b_dense @ vm - np.eye(k)).max() < 1e-12


def test_gevd_orthogonal_x_diagonal_a_analytic():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    d = np.arange(1.0, 9.0)
    shapes = (2, 2, 2)
    x_op = mpo_svd(q, shapes, shapes, OP_TOL)
    a_op = mpo_svd(np.diag(d), shapes, shapes, OP_TOL)
    b_op = eye_mpo(shapes)
    vals, _, _ = gevd(x_op, a_op, b_op, 2, SweepConfig(max_sweeps=30, rank=6, seed=0, tol=1e-7))
    # X D X^T has exactly the diagonal entries as eigenvalues
    assert np.abs(vals - d[:2]).max() < 1e-8


# ---------------------------------------------------------------------------
# canonical correlation analysis


def dense_cca_correlations(x, y, k):
    lx = np.linalg.cholesky(x @ x.T)
    ly = np.linalg.cholesky(y @ y.T)
    m = np.linalg.solve(lx, x @ y.T)
    m = np.linalg.solve(ly, m.T).T
    return np.linalg.svd(m, compute_uv=False)[:k]


def test_cca_self_correlation_is_one():
    rng = np.random.default_rng(10)
    x_dense = rng.standard_normal((8, 64))
    x_op = mpo_svd(x_dense, (2, 2, 2), (4, 4, 4), OP_TOL)
    corr, _, _, rep = cca(x_op, x_op, 1, SweepConfig(max_sweeps=20, rank=4, seed=0))
    assert corr[0] == pytest.approx(1.0, abs=1e-8)
    assert rep.converged


def test_cca_vs_dense_oracle():
    rng = np.random.default_rng(11)
    x_dense = rng.standard_normal((8, 64))
    y_dense = rng.standard_normal((8, 64))
    x_op = mpo_svd(x_dense, (2, 2, 2), (4, 4, 4), OP_TOL)
    y_op = mpo_svd(y_dense, (2, 2, 2), (4, 4, 4), OP_TOL)
    oracle = dense_cca_correlations(x_dense, y_dense, 2)
    corr, wx, wy, rep = cca(x_op, y_op, 2, SweepConfig(max_sweeps=30, rank=4, seed=0, tol=1e-8))
    assert np.abs(corr - oracle).max() < 1e-6
    assert np.all(corr <= 1 + 1e-10) and np.all(corr >= 0)
    assert np.all(np.diff(corr) <= 1e-12)  # non-increasing
    assert rep.is_monotone()
    # constraints hold globally
    wxm, wym = wx.full(), wy.full()
    assert np.abs(wxm.T @ (x_dense @ x_dense.T) @ wxm - np.eye(2)).max() < 1e-8
    assert np.abs(wym.T @ (y_dense @ y_dense.T) @ wym - np.eye(2)).max() < 1e-8


def test_cca_k1_matches_whitened_cross_top_singular_value():
    rng = np.random.default_rng(12)
    x_dense = rng.standard_normal((8, 64))
    y_dense = rng.standard_normal((8, 64))
    x_op = mpo_svd(x_dense, (2, 2, 2), (4, 4, 4), OP_TOL)
    y_op = mpo_svd(y_dense, (2, 2, 2), (4, 4, 4), OP_TOL)
    corr, _, _, _ = cca(x_op, y_op, 1, SweepConfig(max_sweeps=30, rank=4, seed=0))
    oracle = dense_cca_correlations(x_dense, y_dense, 1)
    assert corr[0] == pytest.approx(oracle[0], abs=1e-6)


def test_cca_identity_gram_option():
    rng = np.random.default_rng(13)
    x_dense = rng.standard_normal((8, 16))
    y_dense = rng.standard_normal((8, 16))
    x_op = mpo_svd(x_dense, (2, 2, 2), (4, 2, 2), OP_TOL)
    y_op = mpo_svd(y_dense, (2, 2, 2), (4, 2, 2), OP_TOL)
    corr, wx, wy, _ = cca(
        x_op, y_op, 1, SweepConfig(max_sweeps=30, rank=4, seed=0, identity_grams=True)
    )
    # with identity Grams the objective is the top singular value of X Y^T
    s = np.linalg.svd(x_dense @ y_dense.T, compute_uv=False)
    assert corr[0] == pytest.approx(s[0], abs=1e-7)
    assert tt_norm(_first_column(wx)) == pytest.approx(1.0, rel=1e-9)


def _identity_cca_mixed():
    # U lives on X's row modes (2,2,2,2), V on Y's (3,3,3,3)
    rng = np.random.default_rng(41)
    x_dense, y_dense = rng.standard_normal((16, 16)), rng.standard_normal((81, 16))
    x_op = quantize_matrix(x_dense, plan_auto(16), plan_auto(16), OP_TOL)
    y_op = quantize_matrix(y_dense, plan_auto(81, base=3), plan_auto(16), OP_TOL)
    config = SweepConfig(max_sweeps=10, rank=9, seed=0, identity_grams=True)
    return x_dense @ y_dense.T, cca(x_op, y_op, 2, config)


def test_cca_identity_grams_is_the_top_k_svd_of_the_cross_matrix():
    cross, (corr, wx, wy, rep) = _identity_cca_mixed()
    s = np.linalg.svd(cross, compute_uv=False)[:2]
    np.testing.assert_allclose(corr, s, rtol=1e-12, atol=0)
    u, v = wx.full(), wy.full()
    assert u.shape == (16, 2) and v.shape == (81, 2)
    assert np.abs(u.T @ cross @ v - np.diag(corr)).max() <= 1e-12 * corr[0]
    assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-12
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-12
    # the Gram route's report: objective sqrt(sum sigma^2), one residual per column
    assert rep.sense == "max" and rep.converged and len(rep.residuals) == 2
    assert rep.objective[-1] == pytest.approx(np.linalg.norm(s), rel=1e-12)


def test_cca_identity_grams_needs_no_local_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("identity-Gram cca ran a local SVD")

    monkeypatch.setattr(scipy.linalg, "svd", no_svd)
    cross, (corr, *_) = _identity_cca_mixed()
    np.testing.assert_allclose(corr, np.linalg.svd(cross, compute_uv=False)[:2], rtol=1e-12, atol=0)


def test_cca_identity_grams_rank_one_cross_keeps_u_orthonormal():
    # sigma_2 = 0: A·v_2 / sigma_2 would be rounding noise, not a unit vector
    rng = np.random.default_rng(42)
    a, b, y_dense = rng.standard_normal(16), rng.standard_normal(16), rng.standard_normal((16, 16))
    shapes = (2,) * 4
    x_op, y_op = (mpo_svd(m, shapes, shapes, OP_TOL) for m in (np.outer(a, b), y_dense))
    corr, wx, wy, _ = cca(x_op, y_op, 2, SweepConfig(max_sweeps=4, rank=4, seed=0, identity_grams=True))
    assert corr[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(y_dense @ b), rel=1e-12)
    assert corr[1] <= 1e-12 * corr[0]
    for w in (wx, wy):
        m = w.full()
        assert np.abs(m.T @ m - np.eye(2)).max() <= 1e-12


def test_cca_identity_grams_zero_cross_returns_orthonormal_vectors(tmp_path):
    from ttkit import container

    zero = TTMatrix([np.zeros((1, 2, 2, 1))] * 4)
    y_op = mpo_svd(np.random.default_rng(43).standard_normal((16, 16)), (2,) * 4, (2,) * 4, OP_TOL)
    corr, wx, wy, _ = cca(zero, y_op, 3, SweepConfig(max_sweeps=2, rank=4, seed=0, identity_grams=True))
    assert np.all(corr == 0.0)
    for w in (wx, wy):
        m = w.full()
        assert np.all(np.isfinite(m))
        assert np.abs(m.T @ m - np.eye(3)).max() <= 1e-12
    container.save(wx, tmp_path / "wx.tt")
    back = container.load(tmp_path / "wx.tt")
    assert back.col_sizes == wx.col_sizes
    np.testing.assert_array_equal(back.full(), wx.full())


def test_cca_identity_grams_refuses_k_beyond_the_left_vectors_ranks():
    # on X's row modes (1, 4), wx's block core at site 0 has the local
    # dimension of its bond, the product of the cross's rank (1) and wy's
    # (capped at 2), too small for K = 3: a one-line ValueError, not a
    # reshape error or a block of fewer than K columns
    rng = np.random.default_rng(44)
    x_op = TTMatrix([rng.standard_normal((1, 1, 3, 1)), rng.standard_normal((1, 4, 3, 1))])
    y_op = TTMatrix([rng.standard_normal((1, 3, 3, 1)), rng.standard_normal((1, 3, 3, 1))])
    config = SweepConfig(rank=2, max_rank=2, max_sweeps=4, seed=0, identity_grams=True)
    with pytest.raises(ValueError, match=r"^K=3 exceeds the local dimension \d+"):
        cca(x_op, y_op, 3, config)


def _first_column(blk):
    from ttkit.train import block_extract

    return block_extract(blk, 0)


def test_cca_shape_validation():
    rng = np.random.default_rng(14)
    from oracles import random_mpo

    x_op = random_mpo((2, 2), (2, 2), 2, rng)
    y_op = random_mpo((2, 2), (2, 3), 2, rng)
    with pytest.raises(ValueError, match="observation"):
        cca(x_op, y_op, 1, SweepConfig())


# ---------------------------------------------------------------------------
# linear systems


def test_linsolve_identity():
    rng = np.random.default_rng(15)
    y = random_tt((2, 2, 2), 2, rng)
    x, rep = linsolve(eye_mpo((2, 2, 2)), y, SweepConfig(max_sweeps=5, rank=2, seed=0))
    err = tt_norm_diff(x, y) / tt_norm(y)
    assert err < 1e-10
    assert rep.converged


def tt_norm_diff(a, b):
    from ttkit.algebra import tt_add, tt_scale

    return tt_norm(tt_add(a, tt_scale(b, -1.0)))


def test_linsolve_recovers_constructed_solution():
    op, _ = laplacian_mpo(6)
    spd = mpo_svd(
        2 * np.eye(64) + op.full(), (2,) * 6, (2,) * 6, OP_TOL
    )
    rng = np.random.default_rng(16)
    x_star = random_tt((2,) * 6, 3, rng)
    y = mpo_apply(spd, x_star)
    x, rep = linsolve(spd, y, SweepConfig(max_sweeps=20, rank=5, seed=0, tol=1e-9))
    assert tt_norm_diff(x, x_star) / tt_norm(x_star) < 1e-8
    assert rep.is_monotone()
    assert rep.converged


def test_linsolve_spd_system_vs_dense():
    op, dense = laplacian_mpo(6)
    spd_dense = dense + np.eye(64)
    spd = mpo_svd(spd_dense, (2,) * 6, (2,) * 6, OP_TOL)
    rng = np.random.default_rng(17)
    y = random_tt((2,) * 6, 2, rng)
    x, rep = linsolve(spd, y, SweepConfig(max_sweeps=20, rank=2, seed=0, adaptive=True, trunc_tol=1e-11, tol=1e-8))
    assert rep.residuals[0] < 1e-7
    x_dense = np.linalg.solve(spd_dense, y.full().reshape(-1))
    assert np.linalg.norm(x.full().reshape(-1) - x_dense) < 1e-7 * np.linalg.norm(x_dense)


def test_linsolve_rectangular_least_squares():
    rng = np.random.default_rng(18)
    dense = rng.standard_normal((16, 8))
    op = mpo_svd(dense, (4, 4), (2, 4), OP_TOL)
    x_star_dense = rng.standard_normal(8)
    y_dense = dense @ x_star_dense
    y = tt_svd(y_dense.reshape(4, 4), TruncationPolicy(0.0))
    x, rep = linsolve(op, y, SweepConfig(max_sweeps=20, rank=4, seed=0, tol=1e-8))
    assert np.linalg.norm(x.full().reshape(-1) - x_star_dense) < 1e-7 * np.linalg.norm(x_star_dense)


def test_linsolve_singular_system_regularizes():
    # projection operator: the normal matrix is singular
    proj = np.zeros((4, 4))
    proj[0, 0] = proj[1, 1] = 1.0
    op = mpo_svd(proj, (2, 2), (2, 2), OP_TOL)
    rng = np.random.default_rng(19)
    y = random_tt((2, 2), 2, rng)
    x, rep = linsolve(op, y, SweepConfig(max_sweeps=3, rank=2, seed=0, tol=10.0))
    assert rep.regularized > 0


def test_linsolve_shape_mismatch():
    rng = np.random.default_rng(20)
    from oracles import random_mpo

    op = random_mpo((2, 2), (2, 2), 2, rng)
    with pytest.raises(ValueError, match="rhs"):
        linsolve(op, random_tt((2, 3), 1, rng), SweepConfig())


def test_solver_iterates_stay_mixed_canonical():
    op, _ = laplacian_mpo(5)
    _, x, _ = eig_min(op, SweepConfig(max_sweeps=5, rank=4, seed=0))
    # the returned chain is canonical around the first site
    for core in x.cores[1:]:
        m = core.reshape(core.shape[0], -1)
        assert np.abs(m @ m.T - np.eye(m.shape[0])).max() < 1e-11
    assert tt_norm(x) == pytest.approx(1.0, rel=1e-11)


def test_adaptive_mode_block_eigensolver():
    op, dense = laplacian_mpo(6)
    w = np.linalg.eigvalsh(dense)
    vals, blk, rep = eig_block(
        op, 3, SweepConfig(max_sweeps=20, rank=3, seed=0, adaptive=True, trunc_tol=1e-12)
    )
    assert np.abs(vals - w[:3]).max() < 1e-7
    cols = blk.full()
    assert np.abs(cols.T @ cols - np.eye(3)).max() < 1e-9
    assert rep.is_monotone()


def test_adaptive_mode_svd_dominant():
    rng = np.random.default_rng(30)
    dense = rng.standard_normal((16, 16))
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, OP_TOL)
    s = np.linalg.svd(dense, compute_uv=False)
    sigma, _, _, rep = svd_dominant(
        op, SweepConfig(max_sweeps=30, rank=2, seed=0, adaptive=True, trunc_tol=1e-12)
    )
    assert abs(sigma - s[0]) < 1e-6
    assert rep.is_monotone()


def test_adaptive_mode_gevd():
    rng = np.random.default_rng(31)
    shapes = (2,) * 3
    x_dense = rng.standard_normal((8, 8))
    a_dense = rng.standard_normal((8, 8))
    a_dense = 0.5 * (a_dense + a_dense.T)
    q = rng.standard_normal((8, 8))
    b_dense = q @ q.T + 8 * np.eye(8)
    x_op = mpo_svd(x_dense, shapes, shapes, OP_TOL)
    a_op = mpo_svd(a_dense, shapes, shapes, OP_TOL)
    b_op = mpo_svd(b_dense, shapes, shapes, OP_TOL)
    w = scipy.linalg.eigh(x_dense @ a_dense @ x_dense.T, b_dense, eigvals_only=True)
    vals, _, rep = gevd(
        x_op, a_op, b_op, 2,
        SweepConfig(max_sweeps=30, rank=2, seed=0, adaptive=True, trunc_tol=1e-12, tol=1e-7),
    )
    assert np.abs(vals - w[:2]).max() < 1e-6
    assert rep.is_monotone()


def test_adaptive_mode_cca():
    rng = np.random.default_rng(32)
    xd = rng.standard_normal((8, 64))
    yd = rng.standard_normal((8, 64))
    x_op = mpo_svd(xd, (2, 2, 2), (4, 4, 4), OP_TOL)
    y_op = mpo_svd(yd, (2, 2, 2), (4, 4, 4), OP_TOL)
    oracle = dense_cca_correlations(xd, yd, 2)
    corr, _, _, rep = cca(
        x_op, y_op, 2,
        SweepConfig(max_sweeps=30, rank=2, seed=0, adaptive=True, trunc_tol=1e-12),
    )
    assert np.abs(corr - oracle).max() < 1e-6
    assert rep.is_monotone()


# ---------------------------------------------------------------------------
# regularization ladders and non-finite settings


def _diag_mpo(d):
    shapes = (2,) * 4
    return mpo_svd(np.diag(d), shapes, shapes, OP_TOL)


def test_cca_rank_deficient_data_regularizes_gram():
    rng = np.random.default_rng(0)
    shapes = (2,) * 4
    x_op = mpo_svd(np.outer(rng.standard_normal(16), rng.standard_normal(16)), shapes, shapes, OP_TOL)
    y_op = mpo_svd(rng.standard_normal((16, 16)), shapes, shapes, OP_TOL)
    _, _, _, rep = cca(x_op, y_op, 1, SweepConfig(max_sweeps=2, rank=4, seed=0))
    assert rep.regularized > 0


def test_gevd_semidefinite_metric_regularizes():
    shapes = (2,) * 4
    a_op = _diag_mpo(np.arange(1.0, 17.0))
    b_op = _diag_mpo(np.tile([1.0, 0.0], 8))
    vals, _, rep = gevd(eye_mpo(shapes), a_op, b_op, 1, SweepConfig(max_sweeps=4, rank=4, seed=0))
    assert rep.regularized > 0
    assert vals[0] == pytest.approx(1.0, abs=1e-8)


def test_gevd_indefinite_metric_reports_last_shift_tried():
    shapes = (2,) * 4
    a_op = _diag_mpo(np.arange(1.0, 17.0))
    b_op = _diag_mpo(np.r_[np.ones(15), -1.0])
    with pytest.raises(scipy.linalg.LinAlgError, match=r"stayed indefinite .*last shift 1\.000e-08"):
        gevd(eye_mpo(shapes), a_op, b_op, 1, SweepConfig(max_sweeps=4, rank=4, seed=0))


@pytest.mark.parametrize("name", ["tol", "trunc_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1e-8", None, True, -1.0])
def test_config_rejects_non_finite_tolerances(name, value):
    # a ValueError naming the field, not a TypeError from math.isfinite
    with pytest.raises(ValueError, match=f"^{name} must"):
        SweepConfig(**{name: value})
    if name == "tol":
        with pytest.raises(ValueError, match="^tol must"):
            TruncationPolicy(value)


@pytest.mark.parametrize("name", ["adaptive", "identity_grams"])
@pytest.mark.parametrize("value", ["no", 2, 1.0, None])
def test_config_rejects_non_bool_flags(name, value):
    # a non-empty string is true: adaptive="no" would run two-site sweeps
    with pytest.raises(ValueError, match=f"^{name} must be a bool, got "):
        SweepConfig(**{name: value})


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (SweepConfig, "max_sweeps", 2.5),
        (SweepConfig, "max_sweeps", 0),
        (SweepConfig, "rank", 2.5),
        (SweepConfig, "rank", np.int64(0)),
        (SweepConfig, "rank", True),
        (SweepConfig, "max_rank", 2.5),
        (SweepConfig, "max_rank", 0),
        (SweepConfig, "seed", -1),
        (SweepConfig, "seed", 1.0),
        (TruncationPolicy, "max_rank", 2.5),
        (TruncationPolicy, "max_rank", 0),
    ],
)
def test_config_rejects_bad_counts(cls, name, value):
    # refused when the config is built, not by a TypeError deep in a sweep
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= [01], got "):
        cls(**{name: value})


def test_config_accepts_numpy_integers():
    config = SweepConfig(max_sweeps=np.int64(2), rank=np.int32(3), max_rank=np.uint8(4), seed=np.int64(5))
    assert (config.max_sweeps, config.rank, config.max_rank, config.seed) == (2, 3, 4, 5)
    assert TruncationPolicy(0.0, np.int64(2)).max_rank == 2
    # and numpy bools for the flags, numpy and integer numbers for the tolerances
    config = SweepConfig(adaptive=np.True_, identity_grams=np.False_, tol=np.float32(1e-6), trunc_tol=1)
    assert (config.adaptive, config.identity_grams, config.trunc_tol) == (True, False, 1)
    assert TruncationPolicy(np.float64(1e-3)).tol == 1e-3 and TruncationPolicy(0).tol == 0


# ---------------------------------------------------------------------------
# linear systems: the energy route for symmetric operators


from oracles import qtt_laplacian  # noqa: E402
from ttkit import solvers  # noqa: E402


def _force_normal_route(monkeypatch):
    monkeypatch.setattr(solvers, "_is_symmetric", lambda op: False)


def test_qtt_laplacian_oracle_is_exact():
    assert np.array_equal(qtt_laplacian(5).full(), laplacian_mpo(5)[1])


def test_one_tol_bounds_the_objective_change_and_the_residual():
    # at rank 1 the objective of L_6 is stable from the second sweep on, but
    # the iterate's residual stays at 0.17: only the residual test holds it
    op = qtt_laplacian(6)
    _, _, rep = eig_min(op, SweepConfig(max_sweeps=6, rank=1, seed=0, tol=1e-8))
    assert abs(rep.objective[-1] - rep.objective[-3]) <= 1e-8 * max(1.0, abs(rep.objective[-1]))
    assert rep.residuals[0] > 1e-8
    assert not rep.converged and rep.sweeps == 6
    _, _, rep = eig_min(op, SweepConfig(max_sweeps=6, rank=1, seed=0, tol=0.5))
    assert rep.converged and rep.sweeps == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exp", [-1000, -664, -332, 0, 332, 512, 664, 996, 1000])
@pytest.mark.parametrize(
    "solve", [eig_min, lambda op, cfg: eig_block(op, 1, cfg)], ids=["eig_min", "eig_block"]
)
def test_k1_eigensolve_at_extreme_operator_scale(solve, exp):
    # from 2^512 on, ‖h‖_F of the warm steps' local matrices squares past
    # the float range; without rescaling the value was off by up to 5x
    op = qtt_laplacian(8)
    scaled = TTMatrix([np.ldexp(op.cores[0], exp)] + op.cores[1:])
    value = np.ravel(solve(scaled, SweepConfig(rank=4, seed=1))[0])[0]
    lam = 4.0 * np.sin(np.pi / (2 * (2**8 + 1))) ** 2
    assert abs(np.ldexp(value, -exp) - lam) <= 1e-12 * lam


@pytest.mark.parametrize("seed", [7, 11, 123])
@pytest.mark.parametrize("adaptive", [False, True])
def test_linsolve_laplacian_energy_route(seed, adaptive):
    # x_j = j (n + 1 - j) / 2 solves tridiag(-1, 2, -1) x = ones; cond ~ 4e5,
    # so the normal equations (cond ~ 2e11) stall at 5-6 digits
    d = 10
    n = 2**d
    ones = TTVector([np.ones((1, 2, 1))] * d)
    x, rep = linsolve(
        qtt_laplacian(d), ones, SweepConfig(seed=seed, rank=8, max_rank=8, adaptive=adaptive)
    )
    j = np.arange(1, n + 1, dtype=float)
    exact = j * (n + 1 - j) / 2
    err = np.linalg.norm(x.full().reshape(-1) - exact) / np.linalg.norm(exact)
    assert err < 1e-10
    assert rep.converged and rep.sweeps <= 3
    assert rep.is_monotone()
    assert rep.regularized == 0


def test_linsolve_2d_laplacian_energy_route():
    # L (x) I + I (x) L on a 32 x 32 grid; the normal equations reach ~9.7 digits
    lap = laplacian_mpo(5)[1]
    dense = np.kron(lap, np.eye(32)) + np.kron(np.eye(32), lap)
    op = mpo_svd(dense, (2,) * 10, (2,) * 10, OP_TOL)
    ones = TTVector([np.ones((1, 2, 1))] * 10)
    x, rep = linsolve(
        op, ones, SweepConfig(seed=0, rank=8, adaptive=True, max_rank=16, trunc_tol=1e-12)
    )
    ref = np.linalg.solve(dense, np.ones(1024))
    assert np.linalg.norm(x.full().reshape(-1) - ref) < 1e-11 * np.linalg.norm(ref)
    assert rep.converged and rep.is_monotone()


def test_symmetry_check_in_tt_form():
    from oracles import random_mpo

    lap = qtt_laplacian(10)
    assert solvers._is_symmetric(lap)
    assert solvers._is_symmetric(laplacian_mpo(6)[0])
    assert solvers._is_symmetric(mpo_mul(lap, mpo_transpose(lap)))
    rng = np.random.default_rng(21)
    assert not solvers._is_symmetric(random_mpo((2,) * 4, (2,) * 4, 3, rng))
    assert not solvers._is_symmetric(random_mpo((2, 2), (2, 4), 2, rng))


@pytest.mark.parametrize("adaptive", [False, True])
def test_linsolve_singular_symmetric_falls_back_to_normal_route(monkeypatch, adaptive):
    diag = np.zeros((16, 16))
    diag[0, 0] = 1.0
    op = mpo_svd(diag, (2,) * 4, (2,) * 4, OP_TOL)
    assert solvers._is_symmetric(op)
    y = random_tt((2,) * 4, 2, np.random.default_rng(22))
    config = SweepConfig(max_sweeps=3, rank=3, seed=0, adaptive=adaptive)
    x, rep = linsolve(op, y, config)
    _force_normal_route(monkeypatch)
    x_normal, rep_normal = linsolve(op, y, config)
    assert all(np.array_equal(a, b) for a, b in zip(x.cores, x_normal.cores))
    assert rep == rep_normal
    assert rep.regularized > 0


def test_linsolve_nonsymmetric_square_system():
    rng = np.random.default_rng(23)
    dense = 3.0 * np.eye(32) + rng.standard_normal((32, 32)) / np.sqrt(32)
    op = mpo_svd(dense, (2,) * 5, (2,) * 5, OP_TOL)
    assert not solvers._is_symmetric(op)
    x_star = random_tt((2,) * 5, 2, rng)
    y = mpo_apply(op, x_star)
    x, rep = linsolve(op, y, SweepConfig(max_sweeps=20, rank=6, seed=0, tol=1e-10))
    assert tt_norm_diff(x, x_star) / tt_norm(x_star) < 1e-8
    assert rep.converged


def test_svd_small_k_one_site_matches_numpy():
    # sigma_1 = 1 down to sigma_min = 1e-4: square roots of the Gram
    # eigenvalues lose about eps·sigma_1²/sigma_min ~ 1e-12 on the smallest
    rng = np.random.default_rng(24)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    dense = (u * np.logspace(0, -4, 16)) @ v.T
    op = TTMatrix([dense[None, :, :, None]])
    sigmas, vblk, _ = svd_small_k(op, 3, SweepConfig(max_sweeps=2, rank=1, seed=0))
    ref = np.sort(np.linalg.svd(dense, compute_uv=False))[:3]
    assert np.all(np.diff(sigmas) > 0)
    assert np.abs(sigmas - ref).max() < 1e-14
    cols = vblk.full()
    assert np.abs(np.linalg.norm(dense @ cols, axis=0) - sigmas).max() < 1e-14


# ---------------------------------------------------------------------------
# the warm-started lowest eigenpair and the symmetry boundary

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import random_mpo  # noqa: E402

EPS = np.finfo(float).eps


@st.composite
def warm_problems(draw):
    """``(h, start)``: a random symmetric, possibly indefinite matrix and a
    warm start that is random, its second eigenvector as ``eigh`` computes
    it, or one of a near-degenerate lowest pair."""
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.sort(rng.standard_normal(n)) * 10.0 ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["random", "second", "near-degenerate"]))
    if kind == "near-degenerate":
        w[1] = w[0] + np.abs(w).max() * 10.0 ** draw(st.integers(-16, -6))
        w.sort()
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = (q * w) @ q.T
    h = 0.5 * (h + h.T)
    start = rng.standard_normal(n) if kind == "random" else np.linalg.eigh(h)[1][:, 1].copy()
    return h, start


def _upper_junk(h):
    """h with its strict upper triangle replaced by random entries of the
    same norm, so ‖h‖_F, the only whole-matrix read, stays as it was."""
    n = h.shape[0]
    given_h = h.copy()
    rows, cols = np.triu_indices(n, 1)
    junk = np.random.default_rng(n).standard_normal(rows.size)
    given_h[rows, cols] = junk * (np.linalg.norm(h[rows, cols]) / np.linalg.norm(junk))
    return given_h


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(warm_problems(), st.booleans())
def test_lowest_pair_matches_dense_oracle(problem, junk_upper):
    # with junk_upper, h's strict upper triangle is random and the pair is
    # that of the symmetric matrix its lower triangle defines.  The junk
    # keeps ‖h‖_F, the only whole-matrix read, so the path through the
    # factorizations is that of h: a misread shows as an extra eigh fallback
    h, start = problem
    n = h.shape[0]
    bound = 4 * n * EPS * np.linalg.norm(h)
    given_h = _upper_junk(h) if junk_upper else h.copy()
    with mock.patch.object(solvers, "_lowest_eigh", wraps=solvers._lowest_eigh) as eigh:
        solvers._lowest_pair(h, start)
        clean_calls = eigh.call_count
        w, v = solvers._lowest_pair(given_h, start)
    assert eigh.call_count == 2 * clean_calls
    assert w.shape == (1,) and v.shape == (n, 1)
    assert abs(w[0] - np.linalg.eigvalsh(h)[0]) <= bound
    assert abs(np.linalg.norm(v) - 1.0) <= 4 * n * EPS
    assert np.linalg.norm(h @ v[:, 0] - w[0] * v[:, 0]) <= bound


@pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("n", [4, 32, 128, 192])
def test_lowest_eigh_is_scipy_eigh_bit_for_bit(n, k, metric):
    # the local dense solve: its pairs are those of scipy.linalg.eigh with
    # subset_by_index to the bit, for Fortran-ordered matrices (as
    # effective_operator assembles them) whose strict upper triangle is
    # junk, since both read the lower one alone
    rng = np.random.default_rng(n + k)
    h = np.asfortranarray(rng.standard_normal((n, n)))
    b = None
    if metric:
        g = rng.standard_normal((n, n))
        b = np.asfortranarray(g @ g.T / n + np.eye(n) + np.triu(rng.standard_normal((n, n)), 1))
    w, v = solvers._lowest_eigh(h, k, b)
    want_w, want_v = scipy.linalg.eigh(h, b, subset_by_index=[0, k - 1])
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()
    assert v.shape == (n, k) and v.flags.f_contiguous == want_v.flags.f_contiguous


@pytest.mark.parametrize("n", [4, 32, 128])
def test_cholesky_solve_is_scipy_cho_solve_bit_for_bit(n):
    # linsolve's local systems: h Fortran-ordered with a junk upper
    # triangle, factored by its lower one, as cho_factor(h.T) reads it
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    h = np.asfortranarray(np.tril(g @ g.T / n + np.eye(n)) + np.triu(rng.standard_normal((n, n)), 1))
    rhs = rng.standard_normal(n)
    want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h.T), rhs)
    assert solvers._cholesky_solve(h, rhs).tobytes() == want.tobytes()
    with pytest.raises(scipy.linalg.LinAlgError):
        solvers._cholesky_solve(-h, rhs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
def test_lowest_eigh_refuses_a_non_finite_matrix(value, metric):
    h = np.eye(4)
    b = np.eye(4) if metric else None
    (b if metric else h)[2, 1] = value
    with pytest.raises(ValueError, match="^local matrix holds inf or NaN$"):
        solvers._lowest_eigh(h, 1, b)


def _symmetric_8(rng, second=None):
    """(h, q): h = q·diag(w)·qᵀ, 8 × 8, with random w whose second value is
    set ``second`` above the lowest when given."""
    w = np.sort(rng.standard_normal(8))
    if second is not None:
        w[1] = w[0] + second
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    h = (q * w) @ q.T
    return 0.5 * (h + h.T), q


def _start_near_second():
    h, q = _symmetric_8(np.random.default_rng(63))
    return h, q[:, 1] + 1e-4 * q[:, 0]


def _start_with_close_second():
    rng = np.random.default_rng(0)
    h, q = _symmetric_8(rng, second=0.05)
    return h, q[:, 0] + 0.25 * q[:, 1] + 0.025 * rng.standard_normal(8)


@pytest.mark.parametrize("junk_upper", [False, True])
@pytest.mark.parametrize(
    "problem",
    [
        # the start lies near the second eigenvector, so the first two
        # shifts below its Rayleigh quotient do not factor and the third
        # does.  Inverse iteration on that factor reaches a residual at
        # rounding level, and the factor's shift already certifies the pair
        # it reached: the pair must come from there, with no eigh
        pytest.param(_start_near_second, id="certified-by-the-third-factor"),
        # a quarter of the second eigenvector, 0.05 above the lowest:
        # inverse iteration under a shift as far below rho as the residual
        # stalls.  Re-shifted by 10·res²/g, with g read off the contraction
        # rate, the third factor settles the pair; re-shifted by the
        # residual, it would not, and eigh would run
        pytest.param(_start_with_close_second, id="reshift-by-the-gap"),
    ],
)
def test_lowest_pair_settles_hard_starts_without_eigh(problem, junk_upper):
    h, start = problem()
    n = h.shape[0]
    bound = 4 * n * EPS * np.linalg.norm(h)
    with mock.patch.object(solvers, "_lowest_eigh", side_effect=AssertionError("eigh fallback")), \
            mock.patch.object(scipy.linalg.lapack, "dpotrf", wraps=scipy.linalg.lapack.dpotrf) as potrf:
        lam, v = solvers._lowest_pair(_upper_junk(h) if junk_upper else h, start)
    assert potrf.call_count == 3
    assert abs(lam[0] - np.linalg.eigvalsh(h)[0]) <= bound
    assert abs(np.linalg.norm(v) - 1.0) <= 4 * n * EPS
    assert np.linalg.norm(h @ v[:, 0] - lam[0] * v[:, 0]) <= bound


def test_eig_min_warm_steps_skip_eigh(monkeypatch):
    # eigh runs once on each site's first visit, in the warm-up sweep at
    # rank 8, which starts from the random core; the other 46 visits (9 in
    # the warm-up, 37 at rank 16) start from the site's own core and are
    # settled by Cholesky factorizations.  A hard step may fall back to eigh
    # instead: at seed 0 one 128-dimensional warm-up step does, whose warm
    # residual (1e-2) exceeds the local gap (2.8e-5) by far; no rank-16 step
    # does.  So fallbacks are counted apart from first visits and per phase:
    # a fast path that stops running shows as extra first-visit calls, one
    # that always falls back as extra fallbacks
    op = qtt_laplacian(10)
    phase = ["warm-up"]
    count = {(p, kind): 0 for p in ("warm-up", "rank 16") for kind in ("warm", "cold", "fallback")}
    inside = []
    eigh, lowest_pair, pad = solvers._lowest_eigh, solvers._lowest_pair, solvers._Chain.pad

    def counting_eigh(*args, **kwargs):
        count[phase[0], "fallback" if inside else "cold"] += 1
        return eigh(*args, **kwargs)

    def counting_pair(h, start):
        count[phase[0], "warm"] += 1
        inside.append(True)
        try:
            return lowest_pair(h, start)
        finally:
            inside.pop()

    def padding(chain, rank, rng):
        pad(chain, rank, rng)
        phase[0] = "rank 16"

    monkeypatch.setattr(solvers, "_lowest_eigh", counting_eigh)
    monkeypatch.setattr(solvers, "_lowest_pair", counting_pair)
    monkeypatch.setattr(solvers._Chain, "pad", padding)
    lam, _, rep = eig_min(op, SweepConfig(rank=16, max_sweeps=2, seed=0))
    assert count["warm-up", "cold"] == op.order
    assert count["warm-up", "warm"] == 9
    assert count["warm-up", "fallback"] <= 1
    assert count["rank 16", "cold"] == 0
    assert count["rank 16", "warm"] == 37
    assert count["rank 16", "fallback"] == 0
    assert rep.is_monotone()
    assert lam == pytest.approx(4 * np.sin(np.pi / (2 * (2**10 + 1))) ** 2, abs=1e-14)


def _right_orthogonal(core):
    m = core.reshape(core.shape[0], -1)
    return np.abs(m @ m.T - np.eye(m.shape[0])).max() <= 1e-13


@pytest.mark.parametrize("pos", [0, 3])
def test_chain_pad_keeps_the_vector(pos):
    modes = (2, 3, 2, 4, 2, 2)
    rng = np.random.default_rng(4)
    chain = solvers._Chain(modes, 2, 1, rng)
    policy = TruncationPolicy(1e-10)
    for _ in range(pos):  # move the active block right by random local solutions
        chain.install(rng.standard_normal(chain.x.size), 1, 1, policy)
    before = block_extract(chain.snapshot(), 0)
    chain.pad(5, rng)
    after = block_extract(chain.snapshot(), 0)
    assert chain.ranks() == feasible_ranks(modes, [5] * 5) == list(after.ranks)
    assert chain.pos == 0 and chain.x.shape == (1, 2, after.ranks[1], 1)
    diff = tt_add(after, tt_scale(before, -1.0))
    assert tt_norm(diff) <= 1e-14 * tt_norm(before)
    # right-orthogonal frame: the active block holds the whole vector
    assert all(_right_orthogonal(c) for c in chain.cores[1:])
    assert np.linalg.norm(chain.x) == pytest.approx(tt_norm(before), rel=1e-14)


@pytest.mark.parametrize(
    "solve",
    [
        eig_min,
        lambda op, cfg: eig_block(op, 1, cfg),
        lambda op, cfg: svd_small_k(op, 1, cfg),
        svd_dominant,
    ],
    ids=["eig_min", "eig_block", "svd_small_k", "svd_dominant"],
)
def test_warm_up_runs_every_cold_eigh_at_half_rank(monkeypatch, solve):
    # rank 5 -> warm-up at rank 3: every dense eigh outside _lowest_pair
    # (first visits) sees bond ranks <= 3, and every step at rank 5 starts warm
    op = qtt_laplacian(6)
    rank = [0]
    events = []
    build, eigh, lowest_pair = solvers.effective_operator, solvers._lowest_eigh, solvers._lowest_pair

    def recording(stack, site, span=1):
        rank[0] = max(c.shape[2] for c in stack.bra)
        return build(stack, site, span)

    def counting_eigh(*args, **kwargs):
        events.append(("cold", rank[0]))
        return eigh(*args, **kwargs)

    def counting_pair(h, start):
        events.append(("warm", rank[0]))
        monkeypatch.setattr(solvers, "_lowest_eigh", eigh)  # fallbacks are not first visits
        try:
            return lowest_pair(h, start)
        finally:
            monkeypatch.setattr(solvers, "_lowest_eigh", counting_eigh)

    monkeypatch.setattr(solvers, "effective_operator", recording)
    monkeypatch.setattr(solvers, "_lowest_eigh", counting_eigh)
    monkeypatch.setattr(solvers, "_lowest_pair", counting_pair)
    solve(op, SweepConfig(rank=5, max_sweeps=2, seed=3))
    assert events.count(("cold", 3)) == op.order
    assert [e for e in events if e[1] == 5] == [("warm", 5)] * 21  # 6 + 5, then 5 + 5 visits
    assert {e[1] for e in events} == {3, 5}


@pytest.mark.parametrize("max_sweeps", [1, 2, 6])
def test_warm_up_is_not_a_reported_sweep(max_sweeps):
    op = qtt_laplacian(8)
    lam, x, rep = eig_min(op, SweepConfig(rank=6, max_sweeps=max_sweeps, seed=1))
    assert len(rep.objective) == 2 * rep.sweeps <= 2 * max_sweeps
    assert rep.is_monotone()
    assert len(rep.residuals) == 1
    assert max(x.ranks) == 6
    lam1 = 4 * np.sin(np.pi / (2 * (2**8 + 1))) ** 2
    assert lam == pytest.approx(lam1, abs=1e-13)


def test_warm_up_is_seeded():
    op = qtt_laplacian(7)
    runs = [eig_min(op, SweepConfig(rank=7, max_sweeps=2, seed=5)) for _ in range(2)]
    (lam_a, x_a, rep_a), (lam_b, x_b, rep_b) = runs
    assert lam_a == lam_b
    assert all(np.array_equal(a, b) for a, b in zip(x_a.cores, x_b.cores))
    assert rep_a.to_keyvalue() == rep_b.to_keyvalue()
    assert rep_a.trajectory_csv() == rep_b.trajectory_csv()


def test_warm_up_only_where_lowest_pair_serves(monkeypatch):
    op = qtt_laplacian(5)
    ranks = []
    init, pads = solvers._Chain.__init__, []

    def recording(chain, modes, rank, k, rng):
        ranks.append(rank)
        init(chain, modes, rank, k, rng)

    monkeypatch.setattr(solvers._Chain, "__init__", recording)
    monkeypatch.setattr(solvers._Chain, "pad", lambda chain, rank, rng: pads.append(rank))
    eye = eye_mpo((2,) * 5)
    for call, want in [
        (lambda: eig_min(op, SweepConfig(rank=1, max_sweeps=2)), ([1], [])),
        (lambda: eig_min(op, SweepConfig(rank=4, max_sweeps=2, adaptive=True)), ([4], [])),
        (lambda: eig_block(op, 2, SweepConfig(rank=4, max_sweeps=2)), ([4], [])),
        (lambda: gevd(eye, op, eye, 1, SweepConfig(rank=4, max_sweeps=2)), ([4], [])),
        (lambda: eig_min(op, SweepConfig(rank=2, max_sweeps=1)), ([1], [2])),
        (lambda: svd_dominant(op, SweepConfig(rank=4, max_sweeps=2, adaptive=True)), ([4], [])),
        (lambda: svd_dominant(op, SweepConfig(rank=2, max_sweeps=1)), ([1], [2])),
    ]:
        ranks.clear()
        pads.clear()
        call()
        assert (ranks, pads) == want


def test_symmetric_solvers_reject_nonsymmetric_operators(monkeypatch):
    rng = np.random.default_rng(0)
    op = random_mpo((2,) * 4, (2,) * 4, 3, rng)
    dense = op.full()
    assert np.linalg.norm(dense - dense.T) > 0.1 * np.linalg.norm(dense)
    eye = eye_mpo((2,) * 4)
    cfg = SweepConfig(max_sweeps=2, rank=2, seed=0)
    for call, name in [
        (lambda: eig_min(op, cfg), "operator"),
        (lambda: eig_block(op, 2, cfg), "operator"),
        (lambda: gevd(eye, op, eye, 1, cfg), "inner operator"),
        (lambda: gevd(eye, eye, op, 1, cfg), "metric operator"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} is not symmetric") as info:
            call()
        assert "\n" not in str(info.value)
    # past the square range the check still measures ‖A − Aᵀ‖_F / ‖A‖_F
    big = TTMatrix([op.cores[0] * 1e160] + op.cores[1:])
    with pytest.raises(ValueError, match="^operator is not symmetric"):
        eig_min(big, cfg)
    # the Gram operator of svd_small_k is symmetric by construction and is
    # not checked again
    monkeypatch.setattr(solvers, "_is_symmetric", None)
    svd_small_k(op, 1, cfg)


def _with_entry(x, value):
    """``x`` with one entry of its middle core set to ``value``."""
    cores = [c.copy() for c in x.cores]
    cores[len(cores) // 2].flat[1] = value
    return type(x)(cores)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "position, name",
    [
        ("eig_min", "operator"),
        ("eig_block", "operator"),
        ("svd_small_k", "operator"),
        ("svd_dominant", "operator"),
        ("linsolve", "operator"),
        ("linsolve-rhs", "right-hand side"),
        ("gevd-sandwich", "sandwich operator"),
        ("gevd-inner", "inner operator"),
        ("gevd-metric", "metric operator"),
        ("cca-x", "data operator X"),
        ("cca-y", "data operator Y"),
    ],
)
def test_non_finite_inputs_are_refused_at_entry(monkeypatch, position, name, value):
    # one refusal naming the input, before any operator is composed or
    # checked for symmetry (where a NaN read as "not symmetric") and before
    # any sweep (where it ended in "SVD did not converge")
    lap, eye = qtt_laplacian(6), eye_mpo((2,) * 6)
    ones = TTVector([np.ones((1, 2, 1))] * 6)
    bad, bad_ones = _with_entry(lap, value), _with_entry(ones, value)
    cfg = SweepConfig(max_sweeps=2, rank=3, seed=0)
    calls = {
        "eig_min": lambda: eig_min(bad, cfg),
        "eig_block": lambda: eig_block(bad, 2, cfg),
        "svd_small_k": lambda: svd_small_k(bad, 2, cfg),
        "svd_dominant": lambda: svd_dominant(bad, cfg),
        "linsolve": lambda: linsolve(bad, ones, cfg),
        "linsolve-rhs": lambda: linsolve(lap, bad_ones, cfg),
        "gevd-sandwich": lambda: gevd(bad, eye, lap, 1, cfg),
        "gevd-inner": lambda: gevd(eye, bad, lap, 1, cfg),
        "gevd-metric": lambda: gevd(eye, lap, bad, 1, cfg),
        "cca-x": lambda: cca(bad, lap, 1, cfg),
        "cca-y": lambda: cca(lap, bad, 1, cfg),
    }
    for step in ("mpo_mul", "_is_symmetric", "_half_sweeps"):
        monkeypatch.setattr(solvers, step, mock.Mock(side_effect=AssertionError(step)))
    with pytest.raises(ValueError, match=f"^{name} holds inf or NaN$"):
        calls[position]()


# ---------------------------------------------------------------------------
# one triangle: symmetric local matrices are read by their lower triangle


def _one_triangle_problems():
    rng = np.random.default_rng(31)
    lap = qtt_laplacian(5)
    a = random_mpo((2,) * 4, (2,) * 4, 2, rng)
    sym = rng.standard_normal((16, 16))
    nonsym = 3.0 * np.eye(16) + rng.standard_normal((16, 16)) / 4.0
    dense = {"sym": sym + sym.T, "spd": laplacian_mpo(4)[1] + np.eye(16), "nonsym": nonsym,
             "x": rng.standard_normal((16, 16)), "y": rng.standard_normal((16, 16))}
    ops = {name: mpo_svd(m, (2,) * 4, (2,) * 4, OP_TOL) for name, m in dense.items()}
    rhs = random_tt((2,) * 4, 2, rng)
    return {
        "eig_min": lambda cfg: eig_min(lap, cfg),
        "eig_block": lambda cfg: eig_block(lap, 2, cfg),
        "svd_dominant": lambda cfg: svd_dominant(a, cfg),
        "svd_small_k": lambda cfg: svd_small_k(a, 2, cfg),
        "gevd": lambda cfg: gevd(ops["x"], ops["sym"], ops["spd"], 2, cfg),
        "cca": lambda cfg: cca(ops["x"], ops["y"], 2, cfg),
        "linsolve-energy": lambda cfg: linsolve(ops["spd"], rhs, cfg),
        "linsolve-normal": lambda cfg: linsolve(ops["nonsym"], rhs, cfg),
    }


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("solver", list(_one_triangle_problems()))
def test_local_solves_read_only_the_lower_triangle(monkeypatch, solver, adaptive):
    # seeded junk in the strict upper triangle of every local matrix whose
    # bra and ket chains coincide (operators, metrics, Grams; not cca's
    # cross matrix) changes no decision and no value beyond rounding.  The
    # junk keeps the triangle's norm, so ‖h‖_F, the scale of _lowest_pair's
    # tolerances, stays put; a warm step that misread h would still be
    # right through its eigh fallback, so the eigh calls are counted too
    config = SweepConfig(rank=4, max_sweeps=4, seed=0, adaptive=adaptive)
    run = _one_triangle_problems()[solver]
    eigh, calls = solvers._lowest_eigh, []

    def counting_eigh(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(solvers, "_lowest_eigh", counting_eigh)
    clean, clean_calls = run(config), len(calls)
    build, junk = solvers.effective_operator, np.random.default_rng(5)

    def junk_upper(stack, site, span=1):
        h = build(stack, site, span)
        if stack.bra is stack.ket:
            rows, cols = np.triu_indices(h.shape[0], 1)
            noise = junk.uniform(-1.0, 1.0, rows.size)
            h[rows, cols] = noise * (np.linalg.norm(h[rows, cols]) / np.linalg.norm(noise))
        return h

    monkeypatch.setattr(solvers, "effective_operator", junk_upper)
    dirty = run(config)
    assert len(calls) == 2 * clean_calls
    rep, rep_dirty = clean[-1], dirty[-1]
    assert (rep_dirty.sweeps, rep_dirty.converged, rep_dirty.ranks) == (rep.sweeps, rep.converged, rep.ranks)
    np.testing.assert_allclose(rep_dirty.objective, rep.objective, rtol=1e-12, atol=0)
    value, value_dirty = (np.atleast_1d(v.full() if isinstance(v, TTVector) else v) for v in (clean[0], dirty[0]))
    np.testing.assert_allclose(value_dirty, value, rtol=1e-12, atol=1e-12 * np.abs(value).max())


# ---------------------------------------------------------------------------
# one result type: a block TT with its K index where the last half-sweep ended


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("k", [1, 2])
def test_block_results_carry_their_index_on_site_0(k, adaptive):
    op = qtt_laplacian(4)
    eye = eye_mpo(op.row_sizes)
    data = mpo_svd(np.random.default_rng(0).standard_normal((16, 16)), (2,) * 4, (2,) * 4, OP_TOL)
    config = SweepConfig(max_sweeps=2, rank=3, seed=0, adaptive=adaptive)
    blocks = {
        "eig_block": eig_block(op, k, config)[1],
        "svd_small_k": svd_small_k(op, k, config)[1],
        "gevd": gevd(eye, op, eye, k, config)[1],
    }
    blocks["cca.wx"], blocks["cca.wy"] = cca(data, op, k, config)[1:3]
    _, blocks["_svd.u"], blocks["_svd.v"], _ = solvers._svd(data, k, config, largest=True)
    for name, block in blocks.items():
        assert isinstance(block, TTMatrix) and block.shape[1] == k, name
        assert block.col_sizes == (k,) + (1,) * (block.order - 1), name


@pytest.mark.parametrize("adaptive", [False, True])
def test_eig_block_k1_column_is_eig_min_vector_bit_for_bit(adaptive):
    op = qtt_laplacian(6)
    config = SweepConfig(max_sweeps=3, rank=4, seed=1, adaptive=adaptive)
    value, x, _ = eig_min(op, config)
    values, block, _ = eig_block(op, 1, config)
    assert values[0] == value
    column = block_extract(block, 0)
    assert all(np.array_equal(a, b) for a, b in zip(column.cores, x.cores))


def test_linsolve_normal_route_shifts_on_the_shared_ladder(monkeypatch):
    # lambda_min(h) is about -5e-12: the factorizations at the shifts 0 and
    # 1e-12 fail, the one at 1e-10 (s = max(|tr h| / 2, 1) = 1) succeeds
    h = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-11]], order="F")
    op = TTMatrix([np.array([[1.0, 2.0], [0.0, 1.0]]).reshape(1, 2, 2, 1)])
    assert not solvers._is_symmetric(op)
    rhs = TTVector([np.array([1.0, -1.0]).reshape(1, 2, 1)])
    build_rhs, local_rhs = solvers.effective_rhs, []

    def recording_rhs(stack, site, span):
        local_rhs.append(build_rhs(stack, site, span))
        return local_rhs[-1]

    monkeypatch.setattr(solvers, "effective_operator", lambda stack, site, span: h)
    monkeypatch.setattr(solvers, "effective_rhs", recording_rhs)
    x, rep = linsolve(op, rhs, SweepConfig(max_sweeps=1, rank=1, seed=0, tol=10.0))
    assert len(local_rhs) == 1 and rep.regularized == 2
    # h + 1e-10·I has condition number ~2e10: the tolerance covers rounding
    want = np.linalg.solve(h + 1e-10 * np.eye(2), local_rhs[0])
    np.testing.assert_allclose(x.full().reshape(-1), want, rtol=1e-4)


@pytest.mark.parametrize(
    "solve, message",
    [
        (lambda op, cfg: eig_block(op, 4, cfg), "local dimension 2 cannot hold K=4 vectors"),
        (lambda op, cfg: svd_small_k(op, 3, cfg), "local dimension 2 cannot hold K=3 vectors"),
        (lambda op, cfg: gevd(eye_mpo(op.row_sizes), op, eye_mpo(op.row_sizes), 3, cfg),
         "local dimension 2 cannot hold K=3 vectors"),
        (lambda op, cfg: cca(op, op, 3, cfg), "local dimension 2 cannot hold K=3 vectors"),
    ],
    ids=["eig_block", "svd_small_k", "gevd", "cca"],
)
def test_k_beyond_a_capped_local_dimension_is_refused_mid_sweep(solve, message):
    # the start holds K columns at rank 4; max_rank=1 then caps the bonds a
    # move leaves, until a site's local dimension is 1·2·1
    with pytest.raises(ValueError, match=f"^{message}"):
        solve(qtt_laplacian(6), SweepConfig(rank=4, max_rank=1))


@pytest.mark.parametrize(
    "solve, products",
    [
        # the residual's A·V
        (lambda op, k, cfg: eig_block(op, k, cfg), 1),
        # the sandwich X·A·Xᵀ, then the residual's A·V and B·V
        (lambda op, k, cfg: gevd(op, eye_mpo(op.row_sizes), op, k, cfg), 4),
        # the Gram BᵀB, the residual's A·V and σ_k's B·V
        (lambda op, k, cfg: svd_small_k(op, k, cfg), 3),
    ],
    ids=["eig_block", "gevd", "svd_small_k"],
)
def test_operator_products_are_one_mpo_mul_for_all_k_columns(solve, products, monkeypatch):
    # every product of an operator with the iterate takes its K columns at
    # once; with max_sweeps=2 the residual is computed once, after sweep 2
    from ttkit import algebra

    op = qtt_laplacian(4)
    counts = []
    for k in (1, 3):
        calls = []

        def counting(*args, _mul=algebra.mpo_mul, **kwargs):
            calls.append(args)
            return _mul(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(algebra, "mpo_mul", counting)
            patch.setattr(solvers, "mpo_mul", counting)
            solve(op, k, SweepConfig(rank=4, max_sweeps=2, seed=0))
        counts.append(len(calls))
    assert counts == [products, products]
