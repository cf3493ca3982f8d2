import numpy as np
import pytest

from oracles import (
    BlockMatrix,
    ac_product,
    diagonal_mpo,
    mpo_apply_einsum,
    random_mpo,
    strong_kron,
    tt_inner,
    vec,
)
from ttkit.algebra import (
    eye_mpo,
    mpo_apply,
    mpo_mul,
    mpo_transpose,
    tt_add,
    tt_norm,
    tt_scale,
)
from ttkit.train import (
    TruncationPolicy,
    TTVector,
    random_tt,
    tt_round,
    tt_svd,
)

TIGHT = TruncationPolicy(1e-12)


def test_add_zero_and_dense_equivalence():
    rng = np.random.default_rng(0)
    x = random_tt((2, 3, 2), 2, rng)
    zero = tt_svd(np.zeros((2, 3, 2)))
    assert np.allclose(vec(tt_add(x, zero)), vec(x))
    y = random_tt((2, 3, 2), 3, rng)
    assert np.allclose(vec(tt_add(x, y)), vec(x) + vec(y))


def test_add_rank_law():
    rng = np.random.default_rng(1)
    x = random_tt((2, 2, 2, 2), 2, rng)
    y = random_tt((2, 2, 2, 2), 3, rng)
    s = tt_add(x, y)
    for n in range(1, 4):
        assert s.ranks[n] == x.ranks[n] + y.ranks[n]
    assert s.ranks[0] == s.ranks[-1] == 1


def test_add_cancellation_rounds_to_zero():
    rng = np.random.default_rng(2)
    x = random_tt((2, 3, 2), 2, rng)
    diff = tt_add(x, tt_scale(x, -1.0))
    r = tt_round(diff, TIGHT)
    assert tt_norm(r) <= 1e-12 * tt_norm(x)


def test_add_shape_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        tt_add(random_tt((2, 2), 1, rng), random_tt((2, 3), 1, rng))


def test_scale():
    rng = np.random.default_rng(4)
    x = random_tt((2, 3, 2), 2, rng)
    assert np.allclose(vec(tt_scale(x, 1.0)), vec(x))
    assert np.allclose(vec(tt_scale(x, 0.0)), 0.0)
    assert np.allclose(vec(tt_scale(x, -2.0)), -2.0 * vec(x))
    assert tt_scale(x, -2.0).ranks == x.ranks


def test_inner_and_norm():
    rng = np.random.default_rng(5)
    x = random_tt((2, 3, 2, 2), 3, rng)
    y = random_tt((2, 3, 2, 2), 2, rng)
    assert tt_inner(x, x) == pytest.approx(np.dot(vec(x), vec(x)), rel=1e-12)
    assert tt_inner(x, y) == pytest.approx(np.dot(vec(x), vec(y)), rel=1e-12)
    assert tt_norm(x) == pytest.approx(np.linalg.norm(vec(x)), rel=1e-12)


def test_norm_past_the_square_range():
    # the squares of these entries overflow; their norm does not
    big = TTVector([np.full((1, 2, 1), 1e160)])
    assert tt_norm(big) == pytest.approx(np.sqrt(2.0) * 1e160, rel=1e-15)
    tiny = TTVector([np.full((1, 2, 1), 1e-200)])
    assert tt_norm(tiny) == pytest.approx(np.sqrt(2.0) * 1e-200, rel=1e-15)


def test_inner_orthogonal_rank_one():
    e0 = TTVector([np.array([1.0, 0.0]).reshape(1, 2, 1)] * 2)
    e1 = TTVector(
        [np.array([0.0, 1.0]).reshape(1, 2, 1), np.array([1.0, 0.0]).reshape(1, 2, 1)]
    )
    assert tt_inner(e0, e1) == pytest.approx(0.0)


def test_cauchy_schwarz():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = random_tt((2, 2, 3), 3, rng)
        y = random_tt((2, 2, 3), 2, rng)
        assert abs(tt_inner(x, y)) <= tt_norm(x) * tt_norm(y) * (1 + 1e-12)


def test_linearity():
    rng = np.random.default_rng(7)
    x = random_tt((2, 3, 2), 2, rng)
    y = random_tt((2, 3, 2), 3, rng)
    combo = tt_add(tt_scale(x, 1.5), tt_scale(y, -0.5))
    assert np.allclose(vec(combo), 1.5 * vec(x) - 0.5 * vec(y), atol=1e-12)


# ---------------------------------------------------------------------------
# operator products


def test_apply_identity_restores_ranks_after_rounding():
    rng = np.random.default_rng(8)
    x = tt_round(random_tt((2, 3, 2), 2, rng), TruncationPolicy(0.0))
    ident = eye_mpo((2, 3, 2))
    y = mpo_apply(ident, x, TIGHT)
    assert np.allclose(vec(y), vec(x))
    assert y.ranks == x.ranks


def test_apply_matches_dense():
    rng = np.random.default_rng(9)
    a = random_mpo((2, 2, 2), (2, 2, 2), 3, rng)
    x = random_tt((2, 2, 2), 2, rng)
    y = mpo_apply(a, x)
    assert np.linalg.norm(vec(y) - a.full() @ vec(x)) < 1e-12 * np.linalg.norm(vec(y))


def test_apply_rank_product_law():
    rng = np.random.default_rng(10)
    a = random_mpo((2, 2, 2, 2), (2, 2, 2, 2), 3, rng)
    x = random_tt((2, 2, 2, 2), 2, rng)
    y = mpo_apply(a, x)  # no rounding
    assert y.ranks == tuple(p * r for p, r in zip(a.ranks, x.ranks))


def test_apply_is_the_per_site_einsum_bitwise():
    # mpo_mul on the vector read as a one-column TT matrix, core for core
    rng = np.random.default_rng(31)
    policy = TruncationPolicy(1e-6)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        rows, cols = rng.integers(1, 6, size=n), rng.integers(1, 6, size=n)
        a = random_mpo(rows, cols, list(rng.integers(1, 5, size=n - 1)), rng)
        x = random_tt(cols, list(rng.integers(1, 5, size=n - 1)), rng)
        want = mpo_apply_einsum(a, x)
        for got, ref in [(mpo_apply(a, x), want), (mpo_apply(a, x, policy), tt_round(want, policy))]:
            assert len(got.cores) == len(ref.cores)
            assert all(np.array_equal(g, r) for g, r in zip(got.cores, ref.cores))


def test_apply_shape_mismatch():
    rng = np.random.default_rng(11)
    a = random_mpo((2, 2), (2, 3), 2, rng)
    with pytest.raises(ValueError):
        mpo_apply(a, random_tt((2, 2), 1, rng))


# the AC product of block matrices, the reference for the per-site product


def test_ac_product_unit_grids_is_matmul():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = ac_product(BlockMatrix(a[None, None]), BlockMatrix(b[None, None]))
    assert out.grid == (1, 1)
    assert np.allclose(out.block(0, 0), a @ b)


def test_ac_product_grid_shape_law():
    rng = np.random.default_rng(22)
    a = BlockMatrix(rng.standard_normal((2, 3, 2, 4)))
    b = BlockMatrix(rng.standard_normal((3, 2, 4, 5)))
    out = ac_product(a, b)
    assert out.grid == (2 * 3, 3 * 2)
    assert out.block_shape == (2, 5)


def test_ac_product_block_mismatch():
    a = BlockMatrix(np.zeros((1, 1, 2, 3)))
    b = BlockMatrix(np.zeros((1, 1, 4, 2)))
    with pytest.raises(ValueError):
        ac_product(a, b)


def test_ac_product_chain_reproduces_operator_vector_product():
    # site-wise AC products of operator/vector block matrices, chained with
    # strong Kronecker products, assemble the dense matrix-vector product
    rng = np.random.default_rng(23)
    a = random_mpo((2, 3, 2), (2, 2, 3), 2, rng)
    x = random_tt((2, 2, 3), 2, rng)
    acc = None
    for ac, xc in zip(a.cores, x.cores):
        op_bm = BlockMatrix(ac.transpose(0, 3, 1, 2))
        vec_bm = BlockMatrix(xc.transpose(0, 2, 1)[:, :, :, None])
        site = ac_product(op_bm, vec_bm)
        acc = site if acc is None else strong_kron(acc, site)
    assert acc.grid == (1, 1)
    dense = a.full() @ x.full().reshape(-1)
    assert np.allclose(acc.block(0, 0)[:, 0], dense)
    assert np.allclose(mpo_apply(a, x).full().reshape(-1), dense)


def test_mul_identity_and_dense():
    rng = np.random.default_rng(12)
    a = random_mpo((2, 3), (2, 2), 2, rng)
    ident = eye_mpo((2, 2))
    prod = mpo_mul(a, ident)
    assert np.allclose(prod.full(), a.full())
    b = random_mpo((2, 2), (3, 2), 2, rng)
    ab = mpo_mul(a, b)
    assert np.linalg.norm(ab.full() - a.full() @ b.full()) < 1e-11 * np.linalg.norm(ab.full())
    assert ab.ranks == tuple(p * r for p, r in zip(a.ranks, b.ranks))


def test_mul_associativity_with_vector():
    rng = np.random.default_rng(13)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    b = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    x = random_tt((2, 2, 2), 2, rng)
    left = mpo_apply(mpo_mul(a, b), x)
    right = mpo_apply(a, mpo_apply(b, x))
    dense = a.full() @ (b.full() @ vec(x))
    assert np.linalg.norm(vec(left) - dense) < 1e-10 * np.linalg.norm(dense)
    assert np.linalg.norm(vec(right) - dense) < 1e-10 * np.linalg.norm(dense)


def test_gram_is_symmetric():
    rng = np.random.default_rng(14)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    gram = mpo_mul(mpo_transpose(a), a)
    g = gram.full()
    assert np.abs(g - g.T).max() < 1e-12 * np.abs(g).max()


def test_transpose():
    rng = np.random.default_rng(15)
    a = random_mpo((2, 3), (4, 2), 2, rng)
    at = mpo_transpose(a)
    assert np.allclose(at.full(), a.full().T)
    assert np.allclose(mpo_transpose(at).full(), a.full())
    ident = eye_mpo((2, 3))
    assert np.allclose(mpo_transpose(ident).full(), ident.full())


def test_adjoint_identity():
    rng = np.random.default_rng(16)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    x = random_tt((2, 2, 2), 2, rng)
    y = random_tt((2, 2, 2), 2, rng)
    lhs = tt_inner(mpo_apply(a, x), y)
    rhs = tt_inner(x, mpo_apply(mpo_transpose(a), y))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_diagonal_mpo():
    rng = np.random.default_rng(17)
    d = random_tt((2, 2, 2), 2, rng)
    op = diagonal_mpo(d)
    assert np.allclose(op.full(), np.diag(vec(d)))
    assert op.ranks == d.ranks
