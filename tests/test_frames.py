import numpy as np
import pytest

from oracles import (
    frame_matrix,
    frame_matrix_two,
    left_interface,
    merged_core,
    random_mpo,
    right_interface,
    tt_inner,
    vec,
)
from ttkit.algebra import eye_mpo
from ttkit.frames import (
    EnvStack,
    effective_operator,
    effective_rhs,
    env_build,
)
from ttkit.train import TTVector, orthogonalize, random_tt


# ---------------------------------------------------------------------------
# interfaces and frames


def test_frame_matrix_single_core_chain_is_identity():
    x = TTVector([np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)])
    assert np.array_equal(frame_matrix(x, 0), np.eye(3))


def test_frame_equation_every_site():
    rng = np.random.default_rng(0)
    x = random_tt((2, 3, 2, 3), 4, rng)
    v = vec(x)
    for site in range(x.order):
        f = frame_matrix(x, site)
        err = np.linalg.norm(v - f @ x.cores[site].reshape(-1))
        assert err <= 1e-12 * np.linalg.norm(v)


def test_frame_matrix_first_site_structure():
    rng = np.random.default_rng(1)
    x = random_tt((2, 3, 2), 3, rng)
    f = frame_matrix(x, 0)
    want = np.kron(np.eye(2), right_interface(x, 0).T)
    assert np.allclose(f, want)


def test_frame_row_cap():
    rng = np.random.default_rng(2)
    x = random_tt((2,) * 17, 1, rng)
    with pytest.raises(ValueError, match="cap"):
        frame_matrix(x, 0)


def test_two_core_frame_equation():
    rng = np.random.default_rng(3)
    x = random_tt((2, 3, 2, 2), 3, rng)
    v = vec(x)
    for site in range(x.order - 1):
        f2 = frame_matrix_two(x, site)
        g = merged_core(x, site).reshape(-1)
        assert np.linalg.norm(v - f2 @ g) <= 1e-12 * np.linalg.norm(v)


def test_two_core_frame_of_two_site_chain_is_identity():
    rng = np.random.default_rng(4)
    x = random_tt((3, 4), 2, rng)
    assert np.allclose(frame_matrix_two(x, 0), np.eye(12))


def test_frame_relation_between_one_and_two_core():
    # the one-core frame at site+1 factors through the two-core frame
    rng = np.random.default_rng(5)
    x = random_tt((2, 3, 2, 2), 3, rng)
    for site in range(x.order - 1):
        f2 = frame_matrix_two(x, site)
        f1 = frame_matrix(x, site + 1)
        core = x.cores[site]
        r0, i, r1 = core.shape
        left_unf = core.reshape(r0 * i, r1)
        i_next = x.mode_sizes[site + 1]
        r_next = x.cores[site + 1].shape[2]
        factor = np.kron(left_unf, np.eye(i_next * r_next))
        assert np.linalg.norm(f1 - f2 @ factor) <= 1e-12 * np.linalg.norm(f1)


def test_frame_orthogonality_mixed_canonical():
    rng = np.random.default_rng(6)
    x = random_tt((2, 3, 2, 3), 4, rng)
    for site in range(x.order):
        xc = orthogonalize(x, site)
        f = frame_matrix(xc, site)
        assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-12
    for site in range(x.order - 1):
        xc = orthogonalize(x, site)
        f2 = frame_matrix_two(xc, site)
        assert np.abs(f2.T @ f2 - np.eye(f2.shape[1])).max() <= 1e-12


def test_tensor_linear_in_each_core():
    rng = np.random.default_rng(7)
    x = random_tt((2, 3, 2), 3, rng)
    for site in range(x.order):
        delta = rng.standard_normal(x.cores[site].shape)
        cores = [c.copy() for c in x.cores]
        cores[site] = cores[site] + delta
        perturbed = TTVector(cores)
        diff = vec(perturbed) - vec(x)
        want = frame_matrix(x, site) @ delta.reshape(-1)
        assert np.linalg.norm(diff - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_interfaces_orthonormal_rows_in_canonical_form():
    rng = np.random.default_rng(8)
    x = orthogonalize(random_tt((2, 3, 2, 2), 3, rng), 2)
    li = left_interface(x, 2)
    assert np.abs(li @ li.T - np.eye(li.shape[0])).max() <= 1e-12
    ri = right_interface(x, 2)
    assert np.abs(ri @ ri.T - np.eye(ri.shape[0])).max() <= 1e-12


# ---------------------------------------------------------------------------
# environments


def _full_zip(stack: EnvStack) -> float:
    for site in range(stack.order):
        stack.update_left(site)
    return float(stack.left[stack.order][0, 0, 0])


def test_full_zip_equals_dense_sandwich():
    rng = np.random.default_rng(9)
    x = random_tt((2, 3, 2, 2), 3, rng)
    y = random_tt((2, 3, 2, 2), 2, rng)
    a = random_mpo((2, 3, 2, 2), (2, 3, 2, 2), 2, rng)
    stack = EnvStack(x.cores, a.cores, y.cores)
    scalar = _full_zip(stack)
    dense = vec(x) @ a.full() @ vec(y)
    assert scalar == pytest.approx(dense, rel=1e-11)


def test_identity_operator_environments_are_inner_product_partials():
    rng = np.random.default_rng(10)
    x = random_tt((2, 3, 2), 2, rng)
    y = random_tt((2, 3, 2), 2, rng)
    stack = EnvStack(x.cores, eye_mpo((2, 3, 2)).cores, y.cores)
    assert _full_zip(stack) == pytest.approx(tt_inner(x, y), rel=1e-12)
    # partials have a singleton operator axis
    for env in stack.left[1:]:
        assert env.shape[1] == 1


def test_rebuild_matches_incremental_bitwise():
    rng = np.random.default_rng(11)
    x = random_tt((2, 2, 2, 2), 3, rng)
    a = random_mpo((2, 2, 2, 2), (2, 2, 2, 2), 2, rng)
    fresh = env_build(x.cores, a.cores, x.cores)
    incremental = EnvStack(x.cores, a.cores, x.cores)
    for site in range(incremental.order - 1, -1, -1):
        incremental.update_right(site)
    for site in range(4):
        assert np.array_equal(fresh.right[site], incremental.right[site])


def test_env_consistency_any_split_point():
    rng = np.random.default_rng(12)
    x = random_tt((2, 3, 2, 2), 3, rng)
    a = random_mpo((2, 3, 2, 2), (2, 3, 2, 2), 2, rng)
    stack = env_build(x.cores, a.cores, x.cores)
    dense = vec(x) @ a.full() @ vec(x)
    for split in range(stack.order + 1):
        for site in range(split):
            stack.update_left(site)
        scalar = float(np.einsum("apc,apc->", stack.left[split], stack.right[split]))
        assert scalar == pytest.approx(dense, rel=1e-11)


def test_effective_operator_identity_with_orthonormal_frames():
    rng = np.random.default_rng(13)
    x = orthogonalize(random_tt((2, 3, 2), 3, rng), 1)
    stack = env_build(x.cores, eye_mpo((2, 3, 2)).cores, x.cores)
    stack.update_left(0)
    h = effective_operator(stack, 1)
    assert np.abs(h - np.eye(h.shape[0])).max() <= 1e-12


def test_effective_operator_equals_frame_sandwich():
    rng = np.random.default_rng(14)
    for case in range(20):
        x = random_tt((2, 2, 3, 2), 3, rng)
        a = random_mpo((2, 2, 3, 2), (2, 2, 3, 2), 2, rng)
        dense = a.full()
        for site in range(x.order):
            xc = orthogonalize(x, site)
            stack = env_build(xc.cores, a.cores, xc.cores)
            for k in range(site):
                stack.update_left(k)
            h = effective_operator(stack, site)
            f = frame_matrix(xc, site)
            want = f.T @ dense @ f
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(h - want).max() <= 1e-11 * scale


def test_effective_operator_two_equals_two_core_sandwich():
    rng = np.random.default_rng(15)
    x = random_tt((2, 2, 2, 2), 3, rng)
    a = random_mpo((2, 2, 2, 2), (2, 2, 2, 2), 2, rng)
    dense = a.full()
    for site in range(x.order - 1):
        xc = orthogonalize(x, site)
        stack = env_build(xc.cores, a.cores, xc.cores)
        for k in range(site):
            stack.update_left(k)
        h2 = effective_operator(stack, site, span=2)
        f2 = frame_matrix_two(xc, site)
        want = f2.T @ dense @ f2
        assert np.abs(h2 - want).max() <= 1e-11 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("span", [1, 2])
@pytest.mark.parametrize("ranks, first", [((3, 6), (0, 1)), ((6, 3), (1, 2))], ids=["left-first", "right-first"])
def test_effective_operator_is_the_einsum_in_fortran_order(span, ranks, first):
    # the smaller environment is contracted first, as einsum's planner does;
    # both orders give einsum's bits, written as h.T in C order
    from ttkit.frames import _contraction_path

    rng = np.random.default_rng(26)
    bonds = [1, ranks[0]] + [4] * (span - 1) + [ranks[1], 1]
    modes = (2,) * (span + 2)
    cores = [rng.standard_normal((bonds[n], 2, bonds[n + 1])) for n in range(span + 2)]
    a = random_mpo(modes, modes, 3, rng)
    stack = env_build(cores, a.cores, cores)
    stack.update_left(0)
    env_l, env_r = stack.left_env(1), stack.right_env(1 + span)
    if span == 1:
        op, subscripts = a.cores[1], "apc,pijq,bqd->aibcjd"
    else:
        op, subscripts = np.einsum("pabq,qcdr->pacbdr", a.cores[1], a.cores[2]), "apc,pikjlq,bqd->aikbcjld"
    dim = ranks[0] * 2**span * ranks[1]
    fused = (op.shape[0], 2**span, 2**span, op.shape[-1])
    assert _contraction_path("apc,pijq,bqd->aibcjd", env_l.shape, fused, env_r.shape)[1] == first
    h = effective_operator(stack, 1, span)
    assert h.shape == (dim, dim) and h.flags.f_contiguous
    assert np.array_equal(h, np.einsum(subscripts, env_l, op, env_r, optimize=True).reshape(dim, dim))


def test_rayleigh_quotient_through_effective_operator():
    rng = np.random.default_rng(16)
    x = orthogonalize(random_tt((2, 2, 2), 2, rng), 1)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    dense = 0.5 * (a.full() + a.full().T)
    from ttkit.train import mpo_svd

    asym = mpo_svd(dense, (2, 2, 2), (2, 2, 2))
    stack = env_build(x.cores, asym.cores, x.cores)
    stack.update_left(0)
    h = effective_operator(stack, 1)
    core = x.cores[1].reshape(-1)
    local = core @ h @ core / (core @ core)
    v = vec(x)
    global_rq = v @ dense @ v / (v @ v)
    assert local == pytest.approx(global_rq, rel=1e-10)


def test_effective_rhs_matches_dense():
    rng = np.random.default_rng(17)
    x = random_tt((2, 2, 3), 3, rng)
    y = random_tt((2, 3, 2), 2, rng)
    a = random_mpo((2, 3, 2), (2, 2, 3), 2, rng)  # maps x-space to y-space
    at = a.full().T
    for site in range(x.order):
        xc = orthogonalize(x, site)
        # stack for frame(x)^T A^T y
        from ttkit.algebra import mpo_transpose

        stack = env_build(xc.cores, mpo_transpose(a).cores, y.cores)
        for k in range(site):
            stack.update_left(k)
        rhs = effective_rhs(stack, site)
        want = frame_matrix(xc, site).T @ (at @ vec(y))
        assert np.linalg.norm(rhs - want) <= 1e-11 * max(np.linalg.norm(want), 1.0)


def test_effective_rhs_consistent_with_operator():
    # rhs built from A x equals the effective operator applied to the core
    rng = np.random.default_rng(18)
    x = random_tt((2, 2, 2), 2, rng)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    from ttkit.algebra import mpo_apply, mpo_mul, mpo_transpose

    y = mpo_apply(a, x)
    gram = mpo_mul(mpo_transpose(a), a)
    for span in (1, 2):
        for site in range(x.order - span + 1):
            xc = orthogonalize(x, site)
            s_rhs = env_build(xc.cores, mpo_transpose(a).cores, y.cores)
            s_gram = env_build(xc.cores, gram.cores, xc.cores)
            for k in range(site):
                s_rhs.update_left(k)
                s_gram.update_left(k)
            rhs = effective_rhs(s_rhs, site, span)
            h = effective_operator(s_gram, site, span)
            core = (xc.cores[site] if span == 1 else merged_core(xc, site)).reshape(-1)
            assert np.linalg.norm(rhs - h @ core) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_effective_rhs_zero():
    rng = np.random.default_rng(19)
    x = random_tt((2, 2), 2, rng)
    zero = TTVector([np.zeros((1, 2, 1)), np.zeros((1, 2, 1))])
    a = random_mpo((2, 2), (2, 2), 2, rng)
    stack = env_build(x.cores, a.cores, zero.cores)
    assert np.allclose(effective_rhs(stack, 0), 0.0)


def test_effective_rhs_two_matches_dense():
    rng = np.random.default_rng(20)
    x = random_tt((2, 2, 2), 2, rng)
    y = random_tt((2, 2, 2), 2, rng)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    for site in range(x.order - 1):
        xc = orthogonalize(x, site)
        stack = env_build(xc.cores, a.cores, y.cores)
        for k in range(site):
            stack.update_left(k)
        rhs2 = effective_rhs(stack, site, span=2)
        want = frame_matrix_two(xc, site).T @ (a.full() @ vec(y))
        assert np.linalg.norm(rhs2 - want) <= 1e-11 * max(np.linalg.norm(want), 1.0)


def test_stale_environment_rejected():
    rng = np.random.default_rng(21)
    x = random_tt((2, 2, 2), 2, rng)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    stack = env_build(x.cores, a.cores, x.cores)
    stack.update_left(0)
    effective_operator(stack, 1)  # fine
    stack.invalidate(0)
    with pytest.raises(RuntimeError, match="stale"):
        effective_operator(stack, 1)
    with pytest.raises(RuntimeError, match="stale"):
        stack.update_left(1)
    # the core at site 1 changed: right environments 1 and 2 are stale
    stack.invalidate(1)
    with pytest.raises(RuntimeError, match="^right environment 1 is stale"):
        effective_operator(stack, 0)
    with pytest.raises(RuntimeError, match="^right environment at site 0 is stale$"):
        stack.update_right(0)


@pytest.mark.parametrize("bra_order, ket_order", [(2, 3), (3, 2)])
def test_chains_of_unequal_length_rejected(bra_order, ket_order):
    rng = np.random.default_rng(25)
    bra, ket = (random_tt((2,) * n, 2, rng) for n in (bra_order, ket_order))
    with pytest.raises(ValueError, match="^bra, operator and ket must have equal length$"):
        EnvStack(bra, eye_mpo((2, 2, 2)), ket)


def test_local_dim_cap(monkeypatch):
    rng = np.random.default_rng(22)
    x = random_tt((2, 2, 2), 2, rng)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    stack = env_build(x.cores, a.cores, x.cores)
    monkeypatch.setattr("ttkit.frames.LOCAL_DIM_CAP", 2)
    with pytest.raises(ValueError, match="cap"):
        effective_operator(stack, 0)


def test_span_and_site_out_of_range_rejected():
    rng = np.random.default_rng(24)
    x = random_tt((2, 2, 2, 2), 2, rng)
    a = random_mpo((2, 2, 2, 2), (2, 2, 2, 2), 2, rng)
    stack = env_build(x.cores, a.cores, x.cores)
    n = stack.order
    for site, span, match in [(-1, 1, "site -1"), (n, 1, f"site {n}"), (n - 1, 2, f"site {n - 1}"), (0, 3, "span")]:
        for build in (effective_operator, effective_rhs):
            with pytest.raises(ValueError, match=match):
                build(stack, site, span)


def test_env_build_accepts_tt_objects():
    rng = np.random.default_rng(23)
    x = random_tt((2, 2, 2), 2, rng)
    a = random_mpo((2, 2, 2), (2, 2, 2), 2, rng)
    stack = env_build(x, a, x)
    assert _full_zip(stack) == pytest.approx(vec(x) @ a.full() @ vec(x), rel=1e-11)
