import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import ttkit
from oracles import BlockMatrix, block_from_tts, random_mpo, strong_kron, tt_svd_plain, tt_to_full_chain
from ttkit.quantize import plan_auto, quantize_matrix
from ttkit.train import (
    _QR_FIRST_SIZE,
    _column,
    _fused,
    _last_core,
    _r_factor,
    TruncationPolicy,
    TTMatrix,
    TTVector,
    block_extract,
    feasible_ranks,
    fix_svd_signs,
    mpo_round,
    mpo_svd,
    nonzero_rank,
    orthogonalize,
    policy_rank,
    qr_split,
    random_tt,
    select_rank,
    svd_split,
    tt_round,
    tt_svd,
    tt_to_full,
)

EXACT = TruncationPolicy(0.0)
TIGHT = TruncationPolicy(1e-12)


def rel_err(approx, exact):
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-300)


# ---------------------------------------------------------------------------
# tt_svd


def test_tt_svd_rank_one_tensor():
    a, b, c = np.array([1.0, 2.0]), np.array([1.0, -1.0, 0.5]), np.array([2.0, 3.0])
    t = np.einsum("i,j,k->ijk", a, b, c)
    x = tt_svd(t, TIGHT)
    assert x.ranks == (1, 1, 1, 1)
    assert np.allclose(x.full(), t)


def test_tt_svd_order_one():
    v = np.array([3.0, 1.0, -2.0])
    x = tt_svd(v)
    assert x.order == 1
    assert np.array_equal(x.cores[0][0, :, 0], v)


def test_tt_svd_order_zero():
    # a 0-d array is read as a vector of length one
    x = tt_svd(np.array(3.0))
    assert x.order == 1 and x.cores[0].shape == (1, 1, 1)
    assert x.cores[0][0, 0, 0] == 3.0


def test_tt_svd_exact_random():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    x = tt_svd(t, EXACT)
    assert x.ranks == (1, 3, 5, 1)
    assert rel_err(x.full(), t) < 1e-12


@pytest.mark.parametrize("tol", [0.0, 1e-4, 1e-8])
def test_tt_svd_accuracy_law(tol):
    rng = np.random.default_rng(1)
    for shape in [(2, 3, 4), (3, 3, 3, 3), (2, 2, 2, 2, 2)]:
        t = rng.standard_normal(shape)
        x = tt_svd(t, TruncationPolicy(tol))
        assert np.linalg.norm(x.full() - t) <= max(tol, 1e-13) * np.linalg.norm(t)


def test_tt_svd_left_orthogonal_by_construction():
    rng = np.random.default_rng(2)
    x = tt_svd(rng.standard_normal((3, 4, 2, 3)))
    for core in x.cores[:-1]:
        m = core.reshape(-1, core.shape[2])
        assert np.abs(m.T @ m - np.eye(core.shape[2])).max() < 1e-12


def test_tt_svd_zero_tensor():
    x = tt_svd(np.zeros((2, 3, 2)))
    assert x.ranks == (1, 1, 1, 1)
    assert np.allclose(x.full(), 0.0)


def test_tt_svd_max_rank_cap():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((4, 4, 4))
    x = tt_svd(t, TruncationPolicy(0.0, max_rank=2))
    assert max(x.ranks) == 2


def test_exact_rank_recovery_synthetic():
    rng = np.random.default_rng(4)
    for _ in range(20):
        order = rng.integers(3, 6)
        modes = [int(rng.integers(2, 5)) for _ in range(order)]
        ranks = [int(rng.integers(1, 5)) for _ in range(order - 1)]
        profile = feasible_ranks(modes, ranks)
        x = random_tt(modes, ranks, rng)
        y = tt_svd(x.full(), TIGHT)
        assert list(y.ranks) == profile


# ---------------------------------------------------------------------------
# svd_split: one SVD of the unfolding, also where tt_svd goes QR-first

# wide shapes just below and at/above the size from which tt_svd reads an
# unfolding through its R factor
BELOW = [(2, _QR_FIRST_SIZE // 2 - 1), (8, _QR_FIRST_SIZE // 8 - 1)]
ABOVE = [(2, _QR_FIRST_SIZE // 2), (8, _QR_FIRST_SIZE // 8 + 1), (16, 4 * _QR_FIRST_SIZE // 16)]


def _spectrum_matrix(shape, s, seed):
    """A matrix of the given shape with singular values ``s``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (u * s) @ v.T


def _counting_qr(monkeypatch):
    """Count the QR factorizations of the QR-first route."""
    calls = []
    qr = scipy.linalg.lapack.dgeqrt

    def counting(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", counting)
    return calls


def _plain_split(m, step, rank):
    """``svd_split`` as it reads with ``numpy.linalg.svd`` of ``m`` itself."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = rank(s)
    u, vt = fix_svd_signs(u[:, :keep], vt[:keep])
    return (u, s[:keep, None] * vt) if step > 0 else (u * s[:keep], vt)


RULES = {
    "nonzero": nonzero_rank,
    "select": lambda s: select_rank(s, 1e-3 * s[0], None),
    "policy": policy_rank(TruncationPolicy(1e-2)),
    "capped": lambda s: nonzero_rank(s, 3),
}


@pytest.mark.parametrize("shape", BELOW + ABOVE)
@pytest.mark.parametrize("step", [1, -1])
def test_svd_split_route_matches_plain_svd(shape, step):
    # singular values 2^-j: the gaps keep every kept singular vector well
    # defined, so the factors themselves can be compared
    s = 2.0 ** -np.arange(shape[0])
    m = _spectrum_matrix(shape, s, seed=shape[1])
    for name, rule in RULES.items():
        seen = []
        a, b = svd_split(m, step, lambda s, rule=rule: seen.append(s) or rule(s))
        ref_a, ref_b = _plain_split(m, step, rule)
        assert np.array_equal(seen[0], np.linalg.svd(m, full_matrices=False)[1]), name
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b), name
        ortho = a if step > 0 else b.T
        assert np.abs(ortho.T @ ortho - np.eye(ortho.shape[1])).max() <= 1e-13, name


@pytest.mark.parametrize("step", [1, -1])
def test_svd_split_is_one_svd_of_the_unfolding(monkeypatch, step):
    # a wide 16 x 1024 unfolding, past the size from which tt_svd goes
    # QR-first: svd_split factors m itself, with no QR, either way
    m = _spectrum_matrix((16, 1024), 2.0 ** -np.arange(16), seed=16)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    u, vt = fix_svd_signs(u, vt)
    want = (u, s[:, None] * vt) if step > 0 else (u * s, vt)
    svd, seen = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        seen.append(a)
        return svd(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("svd_split took a QR")

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", refused)
    a, b = svd_split(m, step, nonzero_rank)
    assert len(seen) == 1 and seen[0] is m
    assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])


def test_r_factor_returns_the_triangular_factor_alone():
    # m = small @ qᵀ with orthonormal q, so m·mᵀ = small·smallᵀ
    m = _spectrum_matrix((16, 1024), 2.0 ** -np.arange(16), seed=16)
    small = _r_factor(m)
    assert isinstance(small, np.ndarray) and small.shape == (16, 16)
    assert np.array_equal(small, np.tril(small))
    assert np.abs(small @ small.T - m @ m.T).max() <= 1e-14


@pytest.mark.parametrize("shape", [(128, 512), (256, 1024)])
def test_svd_split_route_left_past_one_block(shape):
    # a left split with many rows; evenly spaced singular values keep every
    # singular vector well defined
    s = 2.0 - np.arange(shape[0]) / shape[0]
    m = _spectrum_matrix(shape, s, seed=shape[0])
    for name, rule in RULES.items():
        a, b = svd_split(m, -1, rule)
        ref_a, ref_b = _plain_split(m, -1, rule)
        assert a.shape == ref_a.shape and b.shape == ref_b.shape, name
        assert np.abs(a - ref_a).max() <= 1e-10 and np.abs(b - ref_b).max() <= 1e-10, name
        assert np.abs(b @ b.T - np.eye(b.shape[0])).max() <= 1e-13, name


def _no_orthogonal_factor(monkeypatch):
    def formed(*args, **kwargs):
        raise AssertionError("an orthogonal factor was formed")

    monkeypatch.setattr(scipy.linalg, "qr", formed)
    for name in ("dorgqr", "dgemqrt"):
        monkeypatch.setattr(scipy.linalg.lapack, name, formed)


def test_svd_split_route_right_forms_no_q(monkeypatch):
    m = _spectrum_matrix((16, 1024), 2.0 ** -np.arange(16), seed=16)
    ref_a, ref_b = _plain_split(m, 1, nonzero_rank)
    _no_orthogonal_factor(monkeypatch)
    a, b = svd_split(m, 1, nonzero_rank)
    assert np.abs(a - ref_a).max() <= 1e-10 and np.abs(b - ref_b).max() <= 1e-10


@pytest.mark.parametrize("step", [1, -1])
def test_svd_split_route_exact_low_rank(step):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 1024))
    a, b = svd_split(m, step, nonzero_rank)
    assert a.shape == (8, 3) and b.shape == (3, 1024)
    assert np.abs(a @ b - m).max() <= 1e-12 * np.abs(m).max()
    assert nonzero_rank(np.linalg.svd(m, compute_uv=False)) == 3


@pytest.mark.parametrize("step", [1, -1])
def test_svd_split_route_zero_matrix(step):
    a, b = svd_split(np.zeros((4, 1024)), step, nonzero_rank)
    assert a.shape == (4, 1) and b.shape == (1, 1024)
    assert not np.any(a @ b)
    ortho = a if step > 0 else b.T
    assert np.allclose(ortho.T @ ortho, 1.0)


def _numpy_qr_split(m, step):
    """qr_split by ``numpy.linalg.qr``, its diagonal made nonnegative."""
    q, r = np.linalg.qr(m if step > 0 else m.T)
    d = np.sign(np.diagonal(r)).copy()
    d[d == 0] = 1.0
    q, r = q * d, r * d[:, None]
    return (q, r) if step > 0 else (r.T, np.ascontiguousarray(q.T))


@pytest.mark.parametrize("zero_column", [False, True], ids=["random", "zero-column"])
@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("shape", [(12, 6), (12, 3), (6, 3), (24, 6), (48, 24), (144, 72)])
def test_qr_split_is_numpy_qr_bit_for_bit(shape, step, zero_column):
    # the sweeps' QR shapes (the tall matrix that is factored): numpy's
    # factors to the bit and in its memory order, on which the products
    # downstream depend too.  A zero column gives a zero diagonal entry,
    # whose sign is taken as +1
    tall = np.random.default_rng(shape[0] * shape[1]).standard_normal(shape)
    if zero_column:
        tall[:, 1] = 0.0
    m = tall if step > 0 else np.ascontiguousarray(tall.T)
    got, want = qr_split(m, step), _numpy_qr_split(m, step)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)
    assert np.array_equal(got[0] @ got[1], want[0] @ want[1])


@pytest.mark.parametrize("zero_column", [False, True], ids=["random", "zero-column"])
@pytest.mark.parametrize("order", [1, 2, 5, 8])
def test_last_core_is_orthogonalize_bit_for_bit(order, zero_column):
    # tt_norm and _svd's scale read only the last core of the left-canonical
    # form, which _last_core builds from the triangular factors alone.  A
    # zero column gives a zero diagonal entry, whose sign is taken as +1
    x = random_tt((2, 3, 2, 4, 2, 2, 3, 2)[:order], 5, np.random.default_rng(order))
    if zero_column and order > 1:
        x.cores[1][:, :, 0] = 0.0
    want = orthogonalize(x, order - 1).cores[-1]
    got = _last_core(x)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_fix_svd_signs_follows_the_largest_entry():
    # the sign of each column's largest-magnitude entry, +1 for a zero column
    u = np.array([[0.5, -3.0, 0.0, 1.0], [-2.0, 1.0, 0.0, -1.0]])
    vt = np.arange(8.0).reshape(4, 2) + 1.0
    su, svt = fix_svd_signs(u, vt)
    signs = np.array([-1.0, -1.0, 1.0, 1.0])
    assert np.array_equal(su, u * signs) and np.array_equal(svt, vt * signs[:, None])


@pytest.mark.parametrize("shape", [BELOW[0], ABOVE[0]])
def test_svd_split_nan_raises(shape):
    m = np.ones(shape)
    m[1, 7] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        svd_split(m, 1, nonzero_rank)


def _long_sample():
    # a 2^16 sample: its first unfoldings are wide and take the QR-first route
    x = np.arange(2**16) / 2**16
    return (np.exp(-(((x - 0.4) / 0.15) ** 2)) + np.sin(7.0 * x) / (1.0 + x)).reshape((2,) * 16)


def test_tt_svd_long_smooth_sample_matches_plain_svds(monkeypatch):
    t = _long_sample()
    calls = _counting_qr(monkeypatch)
    for tol in (1e-6, 1e-10):
        y = tt_svd(t, TruncationPolicy(tol))
        assert y.ranks == tt_svd_plain(t, tol).ranks
        assert np.linalg.norm(y.full() - t) <= tol * np.linalg.norm(t)
    assert calls


def test_tt_svd_long_sample_forms_no_q(monkeypatch):
    t = _long_sample()
    want = tt_svd_plain(t, 1e-10).ranks
    calls = _counting_qr(monkeypatch)
    _no_orthogonal_factor(monkeypatch)
    assert tt_svd(t, TruncationPolicy(1e-10)).ranks == want
    assert calls


@pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(1e-10)])
def test_tt_svd_zero_long_tensor(policy):
    # the threshold comes from the first split's singular values, all zero
    x = tt_svd(np.zeros((2,) * 13), policy)
    assert set(x.ranks) == {1}
    assert not np.any(x.full())
    _check_against_plain(x, np.zeros((2,) * 13), policy.tol)


def test_tt_svd_nan_raises():
    t = np.ones(2**13)
    t[100] = np.nan
    with pytest.raises(ValueError, match=r"^cannot decompose a tensor holding inf or NaN$"):
        tt_svd(t.reshape((2,) * 13))


# ---------------------------------------------------------------------------
# tt_svd: one R factor per block of bonds


def _smooth(shape):
    """A smooth sample of ``prod(shape)`` points, folded to ``shape``."""
    x = np.arange(np.prod(shape)) / np.prod(shape)
    return (1.0 / (1.0 + 25.0 * (x - 0.4) ** 2) + np.cos(3.0 * x)).reshape(shape)


def _kernel(rows, cols):
    """A Gaussian kernel matrix, sampled on [0, 1) both ways."""
    i, j = np.arange(rows) / rows, np.arange(cols) / cols
    return np.exp(-(((i[:, None] - j[None, :]) / 0.25) ** 2))


def _interleaved(mat, rows, cols):
    """``mat`` as the (i_n, j_n)-fused tensor that ``mpo_svd`` decomposes."""
    n = len(rows)
    perm = [x for k in range(n) for x in (k, n + k)]
    return mat.reshape(tuple(rows) + tuple(cols)).transpose(perm).reshape([i * j for i, j in zip(rows, cols)])


def _check_against_plain(x, t, tol, max_rank=None):
    """``x`` has the ranks of the plain TT-SVD of ``t``, an error within the
    bound (within the plain error under a cap) and left-orthogonal cores."""
    plain = tt_svd_plain(t, tol, max_rank)
    assert x.ranks == plain.ranks
    err = np.linalg.norm(tt_to_full(x) - t)
    norm = np.linalg.norm(t)
    if max_rank is None:
        assert err <= max(tol, 1e-13) * norm
    else:
        assert abs(err - np.linalg.norm(plain.full() - t)) <= 1e-12 * norm
    for c in x.cores[:-1]:
        u = c.reshape(-1, c.shape[2])
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-13


BLOCK_CASES = {
    "binary-smooth": ((2,) * 16, 1e-10, None),
    "mixed-radix": ((3, 5, 2, 7, 3, 2, 5, 4), 1e-10, None),
    "trailing-ones": ((2,) * 13 + (1, 1), 1e-10, None),
    "capped": ((2,) * 16, 1e-10, 5),
    "under-4096": ((2,) * 11, 1e-10, None),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_tt_svd_blocks_match_plain_svds(case):
    shape, tol, max_rank = BLOCK_CASES[case]
    t = _smooth(shape)
    _check_against_plain(tt_svd(t, TruncationPolicy(tol, max_rank)), t, tol, max_rank)


def test_tt_svd_blocks_exact_random():
    t = np.random.default_rng(8).standard_normal((2,) * 13)
    x = tt_svd(t, EXACT)
    _check_against_plain(x, t, 0.0)
    assert x.ranks == tuple(feasible_ranks((2,) * 13, [2**13] * 12))


@pytest.mark.parametrize("cols", [256, 16])
def test_quantize_matrix_blocks_match_plain_svds(cols):
    # rows (2,)*8 against cols (2,)*8, fused modes (4,)*8, or (2,)*4 padded
    # with trailing size-1 modes to (4,)*4 + (2,)*4
    mat = _kernel(256, cols)
    row_plan, col_plan = plan_auto(256), plan_auto(cols)
    a = quantize_matrix(mat, row_plan, col_plan, TruncationPolicy(1e-12))
    rows, col_modes = row_plan.factors, col_plan.factors
    col_modes += (1,) * (len(rows) - len(col_modes))
    _check_against_plain(_fused(a), _interleaved(mat, rows, col_modes), 1e-12)


def test_tt_svd_one_qr_per_block(monkeypatch):
    # (2,)*16 is read in blocks of 2^5 rows: 1 x 2^5, then r·2·2 <= 32
    # (r = 8, a 32 x 512 unfolding); everything after is under 4096 entries
    calls = _counting_qr(monkeypatch)
    tt_svd(_long_sample(), TruncationPolicy(1e-10))
    assert len(calls) == 2


def test_tt_svd_one_mode_block_is_the_split(monkeypatch):
    # 3 · 40 rows exceed a block, so the first block holds one mode: its
    # 3 x 4000 unfolding is read through one R factor, and the result has
    # the ranks and error of the plain TT-SVD
    t = _smooth((3, 40, 100))
    calls = _counting_qr(monkeypatch)
    x = tt_svd(t, TruncationPolicy(1e-8))
    assert len(calls) == 1
    _check_against_plain(x, t, 1e-8)


# ---------------------------------------------------------------------------
# reconstruction and entries


def test_tt_to_full_all_rank_one_is_outer_product():
    rng = np.random.default_rng(5)
    fibers = [rng.standard_normal(s) for s in (2, 3, 2)]
    x = TTVector([f.reshape(1, -1, 1) for f in fibers])
    want = np.einsum("i,j,k->ijk", *fibers)
    assert np.allclose(x.full(), want)


def test_tt_to_full_single_core():
    v = np.array([1.0, 2.0, 3.0])
    x = TTVector([v.reshape(1, 3, 1)])
    assert np.array_equal(x.full(), v)


def test_tt_to_full_is_the_tensordot_chain_bitwise():
    # the vector read as a one-column TT matrix: each partial product is the
    # one BLAS product that tensordot forms
    rng = np.random.default_rng(30)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        modes = [int(m) for m in rng.integers(1, 6, size=n)]
        x = random_tt(modes, list(rng.integers(1, 5, size=n - 1)), rng)
        got = tt_to_full(x)
        assert got.shape == tuple(modes) and got.flags.c_contiguous
        assert np.array_equal(got, tt_to_full_chain(x))


def _strong_kron_chain(x: TTVector) -> np.ndarray:
    # independent evaluation path: chain the cores as block matrices
    acc = None
    for core in x.cores:
        bm = BlockMatrix(core.transpose(0, 2, 1)[:, :, :, None])
        acc = bm if acc is None else strong_kron(acc, bm)
    return acc.to_dense().reshape(-1)


def test_tt_to_full_matches_strong_kron_chain():
    rng = np.random.default_rng(6)
    x = random_tt((2, 3, 2, 2), 3, rng)
    assert np.linalg.norm(_strong_kron_chain(x) - x.full().reshape(-1)) < 1e-12


# ---------------------------------------------------------------------------
# TT matrices


def test_mpo_svd_identity_all_ranks_one():
    a = mpo_svd(np.eye(8), (2, 2, 2), (2, 2, 2), TIGHT)
    assert a.ranks == (1, 1, 1, 1)
    for core in a.cores:
        s = core[0, :, :, 0]
        assert np.allclose(s / s[0, 0], np.eye(2))
    assert np.allclose(a.full(), np.eye(8))


def test_mpo_svd_kron_structure():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 2))
    m = np.kron(a, b)
    op = mpo_svd(m, (2, 4), (3, 2), TIGHT)
    assert op.ranks == (1, 1, 1)
    assert np.allclose(op.full(), m)


def test_mpo_svd_exact_round_trip():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((8, 8))
    op = mpo_svd(m, (2, 2, 2), (2, 2, 2), EXACT)
    assert np.linalg.norm(op.full() - m) < 1e-12


def test_mpo_svd_shape_mismatch():
    with pytest.raises(ValueError):
        mpo_svd(np.zeros((8, 8)), (2, 2), (2, 2, 2), EXACT)
    with pytest.raises(ValueError):
        mpo_svd(np.zeros((8, 8)), (2, 2, 2), (3, 2, 2), EXACT)


def test_mpo_to_full_single_core():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 4))
    op = TTMatrix([m[None, :, :, None]])
    assert np.array_equal(op.full(), m)


def test_mpo_rectangular_round_trip():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((6, 8))
    op = mpo_svd(m, (2, 3), (4, 2), EXACT)
    assert np.linalg.norm(op.full() - m) < 1e-12


# ---------------------------------------------------------------------------
# orthogonalization


def test_orthogonalize_preserves_tensor_every_site():
    rng = np.random.default_rng(13)
    x = random_tt((2, 3, 2, 3), 4, rng)
    full = x.full()
    for site in range(x.order):
        y = orthogonalize(x, site)
        assert rel_err(y.full(), full) < 1e-13
        for k in range(site):
            m = y.cores[k].reshape(-1, y.cores[k].shape[2])
            assert np.abs(m.T @ m - np.eye(m.shape[1])).max() < 1e-12
        for k in range(site + 1, x.order):
            m = y.cores[k].reshape(y.cores[k].shape[0], -1)
            assert np.abs(m @ m.T - np.eye(m.shape[0])).max() < 1e-12


def test_orthogonalize_idempotent_on_canonical_input():
    rng = np.random.default_rng(14)
    x = orthogonalize(random_tt((2, 3, 2), 3, rng), 1)
    y = orthogonalize(x, 1)
    for a, b in zip(x.cores, y.cores):
        assert np.allclose(a, b, atol=1e-13)


def test_orthogonalize_rank_one_gives_unit_fibers():
    fibers = [np.array([3.0, 4.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0])]
    x = TTVector([f.reshape(1, -1, 1) for f in fibers])
    y = orthogonalize(x, 2)
    for core in y.cores[:2]:
        assert np.linalg.norm(core) == pytest.approx(1.0)


def test_orthogonalize_zero_tensor():
    x = TTVector([np.zeros((1, 2, 2)), np.zeros((2, 3, 1))])
    y = orthogonalize(x, 1)
    assert np.allclose(y.full(), 0.0)
    m = y.cores[0].reshape(-1, y.cores[0].shape[2])
    assert np.abs(m.T @ m - np.eye(m.shape[1])).max() < 1e-12


# ---------------------------------------------------------------------------
# rounding


def test_round_exact_keeps_tensor_and_bounds_ranks():
    rng = np.random.default_rng(15)
    x = random_tt((2, 3, 2, 2), 4, rng)
    y = tt_round(x, EXACT)
    assert rel_err(y.full(), x.full()) < 1e-13
    assert all(r2 <= r1 for r1, r2 in zip(x.ranks, y.ranks))


def test_round_of_doubled_sum_recovers_ranks():
    from ttkit.algebra import tt_add

    rng = np.random.default_rng(16)
    x = random_tt((2, 3, 2), 2, rng)
    doubled = tt_add(x, x)
    assert doubled.ranks == (1, 4, 4, 1)
    y = tt_round(doubled, TIGHT)
    assert y.ranks == x.ranks
    assert rel_err(y.full(), 2.0 * x.full()) < 1e-12


def test_round_past_the_square_range():
    # scaling by 2^531 is exact and squares past the float range
    from ttkit.algebra import tt_add

    x = random_tt((2,) * 6, 3, np.random.default_rng(0))
    doubled = tt_add(x, x)
    want = tt_round(doubled, TIGHT)
    big = TTVector([np.ldexp(doubled.cores[0], 531)] + doubled.cores[1:])
    got = tt_round(big, TIGHT)
    assert got.ranks == want.ranks == (1, 2, 3, 3, 3, 2, 1)
    assert rel_err(np.ldexp(got.full(), -531), want.full()) < 1e-14


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_tt_svd_past_the_square_range(scale):
    t = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
    x = tt_svd(t * scale)
    assert x.ranks == tt_svd(t).ranks == (1, 4, 16, 4, 1)
    assert rel_err(x.full() / scale, t) < 1e-13


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_rank_rules_past_the_square_range(scale):
    s = np.array([3.0, 2.0, 1.0])
    assert policy_rank(TruncationPolicy(1e-10))(s * scale) == 3
    assert select_rank(s * scale, 1.5 * scale, None) == 2
    assert select_rank(s * scale, 0.5 * scale, None) == 3


def _inflate(x: TTVector) -> TTVector:
    # pad every interior bond with zero slices (represents the same tensor)
    cores = []
    n = x.order
    for i, c in enumerate(x.cores):
        r0, m, r1 = c.shape
        p0 = r0 + (2 if i > 0 else 0)
        p1 = r1 + (2 if i < n - 1 else 0)
        pad = np.zeros((p0, m, p1))
        pad[:r0, :, :r1] = c
        cores.append(pad)
    return TTVector(cores)


def test_round_reproduces_tt_svd_ranks():
    rng = np.random.default_rng(17)
    x = random_tt((2, 3, 2, 2), 2, rng)
    inflated = _inflate(x)
    reference = tt_svd(x.full(), TIGHT)
    y = tt_round(inflated, TIGHT)
    assert y.ranks == reference.ranks
    assert rel_err(y.full(), x.full()) < 1e-12


def test_round_rank_monotonic_under_policy_cap():
    rng = np.random.default_rng(18)
    x = random_tt((2, 2, 2, 2, 2), 4, rng)
    y = tt_round(x, TruncationPolicy(0.0, max_rank=2))
    assert max(y.ranks) <= 2


def test_mpo_round():
    rng = np.random.default_rng(19)
    a = random_mpo((2, 2, 2), (2, 2, 2), 3, rng)
    b = mpo_round(a, TIGHT)
    assert np.linalg.norm(b.full() - a.full()) < 1e-10 * np.linalg.norm(a.full())
    assert all(r2 <= r1 for r1, r2 in zip(a.ranks, b.ranks))


# ---------------------------------------------------------------------------
# block TT


def test_block_k1_round_trip_with_vector():
    rng = np.random.default_rng(20)
    x = random_tt((2, 3, 2), 2, rng)
    blk = block_from_tts([x])
    assert blk.shape[1] == 1
    back = block_extract(blk, 0)
    assert rel_err(back.full(), x.full()) < 1e-13


def test_block_from_tts_extracts_originals():
    rng = np.random.default_rng(21)
    tts = [random_tt((2, 3, 2, 2), 2, rng) for _ in range(3)]
    blk = block_from_tts(tts)
    assert blk.shape[1] == 3
    for k, t in enumerate(tts):
        assert rel_err(block_extract(blk, k).full(), t.full()) < 1e-12


@pytest.mark.parametrize("position", range(4))
def test_full_matrix_columns_are_the_extracted_vectors(position):
    rng = np.random.default_rng(22)
    modes, k = (2, 3, 2, 4), 3
    r = feasible_ranks(modes, [3, 4, 3])
    cores = [
        rng.standard_normal((r[n], modes[n]) + ((k,) if n == position else (1,)) + (r[n + 1],))
        for n in range(len(modes))
    ]
    blk = TTMatrix(cores)
    dense = blk.full()
    assert dense.shape == (48, k)
    for j in range(k):
        assert np.array_equal(dense[:, j], block_extract(blk, j).full().reshape(-1))


def test_block_extract_out_of_range():
    blk = block_from_tts([random_tt((2, 2), 1, np.random.default_rng(24))])
    with pytest.raises(IndexError):
        block_extract(blk, 5)


@pytest.mark.parametrize("k", [True, 1.5, np.float64(1.0), "1"], ids=["bool", "float", "numpy-float", "str"])
def test_block_extract_refuses_a_non_integer_column(k):
    blk = block_from_tts([random_tt((2, 3), 2, np.random.default_rng(25)) for _ in range(3)])
    with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(str(k))}$"):
        block_extract(blk, k)
    # numpy's integers are columns; a negative one is out of range
    assert np.array_equal(block_extract(blk, np.int64(1)).full(), block_extract(blk, 1).full())
    with pytest.raises(IndexError, match=re.escape("block column -1 out of range [0, 3)")):
        block_extract(blk, -1)


def _column_of(column) -> tuple:
    return tuple(int(c[0, 0, 0]) for c in column.cores)


def _numbered_columns(col_sizes) -> TTMatrix:
    """A 1 × prod(col_sizes) TT matrix whose core n holds j in its column j."""
    return TTMatrix([np.arange(float(size)).reshape(1, 1, size, 1) for size in col_sizes])


def test_block_extract_unravels_k_last_fastest():
    sizes = (2, 3, 1, 4)
    x = _numbered_columns(sizes)
    for k in range(24):
        assert _column_of(block_extract(x, k)) == tuple(int(j) for j in np.unravel_index(k, sizes))


def test_block_extract_past_2_to_the_63_columns():
    # 2^64 columns, more than np.unravel_index takes
    x = _numbered_columns((2,) * 64)
    assert _column_of(block_extract(x, 3)) == _column_of(block_extract(x, np.int64(3))) == (0,) * 62 + (1, 1)
    assert _column_of(block_extract(x, 2**63 + 5)) == (1,) + (0,) * 60 + (1, 0, 1)
    ones = TTMatrix([np.ones((1, 1, 2, 1))] * 64)
    assert block_extract(ones, 2**63 + 5).full() == 1.0
    with pytest.raises(IndexError, match=re.escape(f"block column {2**64} out of range [0, {2**64})")):
        block_extract(x, 2**64)


def test_column_reads_in_place_and_block_extract_copies():
    # K = 3 columns on site 0, as the block solvers hold them
    rng = np.random.default_rng(26)
    blk = TTMatrix([rng.standard_normal(shape) for shape in [(1, 2, 3, 2), (2, 3, 1, 2), (2, 2, 1, 1)]])
    for k in range(3):
        view, copy = _column(blk, k), block_extract(blk, k)
        assert np.array_equal(view.full(), copy.full())
        for n in range(1, blk.order):
            assert np.shares_memory(view.cores[n], blk.cores[n])
            assert not np.shares_memory(copy.cores[n], blk.cores[n])


def test_random_tt_takes_a_numpy_integer_rank():
    x = random_tt((2, 2, 2), np.int64(2), np.random.default_rng(27))
    assert x.ranks == random_tt((2, 2, 2), 2, np.random.default_rng(27)).ranks == (1, 2, 2, 1)


# ---------------------------------------------------------------------------
# validation


def test_chain_validation():
    with pytest.raises(ValueError):
        TTVector([np.zeros((1, 2, 3)), np.zeros((2, 2, 1))])
    with pytest.raises(ValueError):
        TTVector([np.zeros((2, 2, 1))])
    with pytest.raises(ValueError):
        TTVector([])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tt_svd(np.zeros((2, 0, 3))), "cannot decompose an empty tensor"),
        (lambda: orthogonalize(random_tt((2, 2, 2), 2, np.random.default_rng(0)), 3), "site 3 out of range for order 3"),
        (lambda: orthogonalize(random_tt((2, 2, 2), 2, np.random.default_rng(0)), -1), "site -1 out of range for order 3"),
        (lambda: orthogonalize(random_tt((2, 2, 2), 2, np.random.default_rng(0)), True), "site must be an integer, got True"),
        (lambda: orthogonalize(random_tt((2, 2, 2), 2, np.random.default_rng(0)), 1.0), "site must be an integer, got 1.0"),
        (lambda: tt_svd([[np.inf, 1], [1, 1]]), "cannot decompose a tensor holding inf or NaN"),
        (lambda: mpo_svd(np.full((4, 4), np.nan), (2, 2), (2, 2)), "cannot decompose a tensor holding inf or NaN"),
        (lambda: feasible_ranks((2, 2, 2), [2]), "need 2 interior ranks, got 1"),
        (lambda: TTVector([np.ones((1, 2, 1)), np.ones((1, 2))]), "core 1 must be 3-way, got shape (1, 2)"),
        (lambda: TTMatrix([np.ones((1, 2, 1))]), "core 0 must be 4-way, got shape (1, 2, 1)"),
    ],
    ids=[
        "empty-tensor", "site-past-the-end", "site-below-zero", "site-bool", "site-float", "inf-entry", "mpo-nan-entry",
        "rank-count", "vector-core", "matrix-core",
    ],
)
def test_bad_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_feasible_ranks_clipping():
    # interior rank limited by the dimension bounds and the chain products
    assert feasible_ranks([2, 2, 2, 2], [9, 9, 9]) == [1, 2, 4, 2, 1]
    assert feasible_ranks([2, 2], [1]) == [1, 1, 1]
    assert feasible_ranks([2, 2, 2], [1, 4]) == [1, 1, 2, 1]


def test_feasible_ranks_past_64_bit_products():
    # the bond before the last site has 2^63 modes on its left
    assert feasible_ranks((2,) * 64, [4] * 63)[-4:] == [4, 4, 2, 1]


def test_mpo_to_full_matches_strong_kron_chain():
    # independent evaluation path for the matrix case: chain the cores as
    # block matrices with matrix-valued blocks
    rng = np.random.default_rng(25)
    a = random_mpo((2, 3, 2), (3, 2, 2), 2, rng)
    acc = None
    for core in a.cores:
        bm = BlockMatrix(core.transpose(0, 3, 1, 2))
        acc = bm if acc is None else strong_kron(acc, bm)
    assert acc.grid == (1, 1)
    assert np.linalg.norm(acc.block(0, 0) - a.full()) < 1e-12 * np.linalg.norm(a.full())


@pytest.mark.parametrize(
    "rows, cols",
    [((2, 3, 2), (3, 2, 2)), ((2, 2, 3), (1, 4, 1)), ((1, 2, 2), (2, 1, 3)), ((3, 2), (1, 1))],
)
def test_mpo_to_full_is_the_fused_contraction_reordered(rows, cols):
    # bitwise: each partial product is a BLAS product with no side of size 1
    # where the sites allow it, as tt_to_full forms it on the fused view
    a = random_mpo(rows, cols, 3, np.random.default_rng(26))
    n = len(rows)
    fused = tt_to_full(_fused(a)).reshape([s for ij in zip(rows, cols) for s in ij])
    want = fused.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(a.shape)
    got = a.full()
    assert got.flags.c_contiguous and np.array_equal(got, want)


def test_mpo_to_full_peak_is_the_result_plus_one_partial_product():
    # ru_maxrss is the peak of the whole process, so measure in a child; the
    # 4096 x 4096 identity is 128 MiB, and the partial product before it a
    # quarter of that
    code = (
        "import resource\n"
        "from ttkit import eye_mpo\n"
        "a = eye_mpo((2,) * 12)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "full = a.full()\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "assert full.trace() == full.sum() == 4096\n"
        "print(rise * 1024 / full.nbytes)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ttkit.__file__)), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1.3


def test_tt_to_full_peak_is_the_result_plus_one_partial_product():
    # a vector runs through the same loop, so the reconstruct command's
    # memory model holds for it too: 4^12 ones are 128 MiB, and the partial
    # product before them a quarter of that
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from ttkit import TTVector\n"
        "x = TTVector([np.ones((1, 4, 1))] * 12)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "full = x.full()\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "assert full.shape == (4,) * 12 and full.sum() == 4**12\n"
        "print(rise * 1024 / full.nbytes)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ttkit.__file__)), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1.3
