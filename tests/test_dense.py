import itertools

import numpy as np
import pytest

from oracles import (
    BlockMatrix,
    ac_product,
    contract,
    flat_index,
    hadamard,
    khatri_rao,
    kron,
    mode_n_product,
    mode_n_vec_product,
    multi_from_flat,
    multilinear_product,
    outer,
    refold,
    strong_kron,
    unfold,
    unfold_split,
)

RANDOM_SHAPES = [(2,), (3, 4), (2, 3, 2), (2, 3, 4), (2, 2, 2, 2), (2, 3, 2, 2, 2), (2, 2, 2, 2, 2, 2)]


def test_flat_index_known_values():
    # last index runs fastest
    assert flat_index((2, 3), (0, 0)) == 0
    assert flat_index((2, 3), (0, 2)) == 2
    assert flat_index((2, 3, 4), (1, 0, 0)) == 1 * 3 * 4


def test_flat_index_bounds():
    with pytest.raises(IndexError):
        flat_index((2, 3), (2, 0))
    with pytest.raises(IndexError):
        multi_from_flat((2, 3), 6)
    with pytest.raises(ValueError):
        flat_index((2, 3), (0, 0, 0))


@pytest.mark.parametrize("shape", RANDOM_SHAPES)
def test_flat_index_bijection(shape):
    total = int(np.prod(shape))
    seen = set()
    for k in range(total):
        idx = multi_from_flat(shape, k)
        assert flat_index(shape, idx) == k
        seen.add(idx)
    assert len(seen) == total


def test_flat_index_matches_c_order():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 3, 4))
    flat = t.reshape(-1)
    for k in range(t.size):
        assert flat[k] == t[multi_from_flat(t.shape, k)]


def test_unfold_matrix_is_itself():
    m = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(unfold(m, 0), m)


@pytest.mark.parametrize("shape", RANDOM_SHAPES)
def test_unfold_refold_round_trip(shape):
    rng = np.random.default_rng(1)
    t = rng.standard_normal(shape)
    for mode in range(len(shape)):
        assert np.array_equal(refold(unfold(t, mode), mode, shape), t)


def test_unfold_entries_match_index_oracle():
    t = np.arange(12.0).reshape(2, 3, 2)
    m = unfold(t, 1)
    rest = (2, 2)
    for i1, i2, i3 in itertools.product(range(2), range(3), range(2)):
        col = flat_index(rest, (i1, i3))
        assert m[i2, col] == t[i1, i2, i3]


def test_unfold_invalid_mode():
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 2)


def test_unfold_split_single_mode_matches_unfold():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((2, 3, 4))
    for mode in range(3):
        assert np.array_equal(unfold_split(t, [mode]), unfold(t, mode))


def test_unfold_split_all_modes_is_vec():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2, 3, 2))
    v = unfold_split(t, [0, 1, 2])
    assert v.shape == (12, 1)
    assert np.array_equal(v[:, 0], t.reshape(-1))


def test_unfold_split_entries():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((2, 2, 2, 2))
    m = unfold_split(t, [0, 1])
    assert m.shape == (4, 4)
    for idx in itertools.product(range(2), repeat=4):
        r = flat_index((2, 2), idx[:2])
        c = flat_index((2, 2), idx[2:])
        assert m[r, c] == t[idx]


def test_unfold_split_rejects_bad_partitions():
    t = np.zeros((2, 2))
    with pytest.raises(ValueError):
        unfold_split(t, [])
    with pytest.raises(ValueError):
        unfold_split(t, [0, 0])
    with pytest.raises(ValueError):
        unfold_split(t, [0, 5])


def test_mode_product_identity():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 3, 2))
    for mode in range(3):
        out = mode_n_product(t, np.eye(t.shape[mode]), mode)
        assert np.allclose(out, t)


def test_mode_product_matches_unfolded_matrix_product():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((2, 3, 2))
    m = rng.standard_normal((4, 3))
    out = mode_n_product(t, m, 1)
    assert out.shape == (2, 4, 2)
    assert np.allclose(unfold(out, 1), m @ unfold(t, 1))


def test_mode_product_shape_mismatch():
    with pytest.raises(ValueError):
        mode_n_product(np.zeros((2, 3)), np.zeros((4, 4)), 1)


def test_mode_vec_product_unit_vector_slices():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, 3, 2))
    e1 = np.zeros(3)
    e1[1] = 1.0
    assert np.allclose(mode_n_vec_product(t, e1, 1), t[:, 1, :])


def test_mode_vec_product_ones_sums():
    rng = np.random.default_rng(8)
    t = rng.standard_normal((2, 3, 2))
    assert np.allclose(mode_n_vec_product(t, np.ones(3), 1), t.sum(axis=1))


def test_mode_vec_product_brute_force():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal(4)
    want = np.zeros((2, 3))
    for i, j, k in itertools.product(range(2), range(3), range(4)):
        want[i, j] += t[i, j, k] * v[k]
    assert np.allclose(mode_n_vec_product(t, v, 2), want)


def test_multilinear_identity_and_sequential():
    rng = np.random.default_rng(10)
    t = rng.standard_normal((2, 3, 2))
    eyes = [np.eye(s) for s in t.shape]
    assert np.allclose(multilinear_product(t, eyes), t)
    mats = [rng.standard_normal((4, s)) for s in t.shape]
    seq = t
    for n, m in enumerate(mats):
        seq = mode_n_product(seq, m, n)
    assert np.allclose(multilinear_product(t, mats), seq)


def test_multilinear_rank_one_core_gives_outer_product():
    a, b, c = np.array([1.0, 2.0]), np.array([3.0, -1.0, 0.5]), np.array([2.0, 0.0])
    core = np.ones((1, 1, 1))
    out = multilinear_product(core, [a[:, None], b[:, None], c[:, None]])
    want = np.einsum("i,j,k->ijk", a, b, c)
    assert np.allclose(out, want)


def test_contract_dot_and_matmul():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    assert np.allclose(contract(a, b, 0, 0), a @ b)
    m1, m2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    assert np.allclose(contract(m1, m2, 1, 0), m1 @ m2)


def test_contract_one_mode_of_fourth_order_tensors():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3, 4, 2))
    b = rng.standard_normal((3, 4, 2, 3))
    out = contract(a, b, 2, 1)
    assert out.shape == (2, 3, 2, 3, 2, 3)
    want = np.zeros(out.shape)
    for idx in itertools.product(*(range(s) for s in out.shape)):
        i1, i2, i4, j1, j3, j4 = idx
        for s in range(4):
            want[idx] += a[i1, i2, s, i4] * b[j1, s, j3, j4]
    assert np.allclose(out, want)


def test_contract_full_overlap_is_inner_product():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2, 3, 2))
    b = rng.standard_normal((2, 3, 2))
    out = contract(a, b, [0, 1, 2], [0, 1, 2])
    assert np.allclose(out, np.sum(a * b))


def test_contract_size_mismatch():
    with pytest.raises(ValueError):
        contract(np.zeros((2, 3)), np.zeros((4, 2)), 1, 0)


def test_kron_vectors():
    out = kron(np.array([1.0, 0.0]), np.array([2.0, 3.0]))
    assert np.array_equal(out, [2.0, 3.0, 0.0, 0.0])


def test_kron_matches_numpy_for_matrices():
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
    assert np.allclose(kron(a, b), np.kron(a, b))


def test_kron_entry_formula():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    c = kron(a, b)
    for i1, i2, j1, j2 in itertools.product(range(2), range(3), range(2), range(2)):
        assert c[i1 * 2 + j1, i2 * 2 + j2] == pytest.approx(a[i1, i2] * b[j1, j2])


def test_outer_three_vectors():
    a, b, c = np.array([1.0, -1.0]), np.array([2.0, 0.5, 1.0]), np.array([3.0, 4.0])
    t = outer(outer(a, b), c)
    for i, j, k in itertools.product(range(2), range(3), range(2)):
        assert t[i, j, k] == pytest.approx(a[i] * b[j] * c[k])


def test_khatri_rao_columns():
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    out = khatri_rao(a, b)
    assert out.shape == (6, 4)
    for j in range(4):
        assert np.allclose(out[:, j], kron(a[:, j], b[:, j]))


def test_hadamard():
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    assert np.allclose(hadamard(a, b), a * b)
    with pytest.raises(ValueError):
        hadamard(a, b.T)


# ---------------------------------------------------------------------------
# block matrices


def test_block_matrix_dense_round_trip():
    rng = np.random.default_rng(18)
    m = rng.standard_normal((6, 8))
    bm = BlockMatrix.from_dense(m, (2, 4))
    assert bm.grid == (2, 4)
    assert bm.block_shape == (3, 2)
    assert np.array_equal(bm.to_dense(), m)
    assert np.array_equal(bm.block(1, 2), m[3:6, 4:6])


def test_strong_kron_unit_grids_is_kron():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    out = strong_kron(BlockMatrix(a[None, None]), BlockMatrix(b[None, None]))
    assert out.grid == (1, 1)
    assert np.array_equal(out.block(0, 0), np.kron(a, b))


def test_strong_kron_hand_expanded_two_by_two():
    rng = np.random.default_rng(20)
    a = BlockMatrix(rng.standard_normal((2, 2, 2, 3)))
    b = BlockMatrix(rng.standard_normal((2, 2, 3, 2)))
    out = strong_kron(a, b)
    assert out.grid == (2, 2)
    assert out.block_shape == (6, 6)
    for r1, r3 in itertools.product(range(2), range(2)):
        want = sum(np.kron(a.block(r1, r2), b.block(r2, r3)) for r2 in range(2))
        assert np.allclose(out.block(r1, r3), want)


def test_strong_kron_grid_mismatch():
    a = BlockMatrix(np.zeros((1, 2, 2, 2)))
    b = BlockMatrix(np.zeros((3, 1, 2, 2)))
    with pytest.raises(ValueError):
        strong_kron(a, b)


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
    from ttkit.algebra import mpo_apply
    from oracles import random_mpo
    from ttkit.train import random_tt

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


def test_fortran_flat_conversion_round_trip():
    from ttkit import from_fortran_flat, to_fortran_flat

    rng = np.random.default_rng(24)
    t = rng.standard_normal((2, 3, 4))
    flat = to_fortran_flat(t)
    # first index fastest in the exported layout
    assert flat[0] == t[0, 0, 0]
    assert flat[1] == t[1, 0, 0]
    assert np.array_equal(from_fortran_flat(flat, (2, 3, 4)), t)


def test_size_one_modes_are_legal():
    from ttkit.train import tt_svd

    rng = np.random.default_rng(25)
    t = rng.standard_normal((2, 1, 3, 1))
    assert np.array_equal(refold(unfold(t, 1), 1, t.shape), t)
    x = tt_svd(t)
    assert np.allclose(x.full(), t)
    assert x.mode_sizes == (2, 1, 3, 1)
