"""Reference operations the tests check the library against.

Dense N-way tensors and the basic multilinear operations, block matrices
with the strong Kronecker and AC products, the explicit interface and
frame matrices of a TT vector, a QTT operator whose cores are exact, a
TT-SVD by plain SVDs of every unfolding, the TT-format helpers only tests
need (random TT matrices, inner products, diagonal operators and block TTs
joined from TT vectors), and the per-site contractions that the library's
dense forms and operator-vector products equal bit for bit.  None of this
lies on a library path: the library works on cores and cached environments
and never forms a dense N-way tensor or a frame.

Conventions:

* a dense tensor is a C-contiguous float64 ``numpy.ndarray``;
* linearization is big-endian (the last index runs fastest), which is
  exactly numpy's C order, so ``vec(T) == T.reshape(-1)``;
* unfoldings keep the grouped modes in their original order, again with
  big-endian layout, so every reshape below is a pure view/permute;
* mode numbers are 0-based everywhere in code.

For a TT vector x the frame matrix ``G_neq(n)`` maps the vectorized site-n
core to the full vectorized tensor, ``vec(x) = G_neq(n) @ vec(G[n])``; it is
the Kronecker product of the left interface, an identity of the site's mode
size, and the right interface.  Frames are guarded by a row cap.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ttkit.train import BlockTT, TTMatrix, TTVector, _block_diag, feasible_ranks

FRAME_ROW_CAP = 1 << 16


def _check_shape(shape: Sequence[int]) -> tuple:
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"mode sizes must be positive, got {shape}")
    return shape


def flat_index(shape: Sequence[int], multi_index: Sequence[int]) -> int:
    """Big-endian flat position of ``multi_index`` inside ``shape``.

    The last index runs fastest: for shape (I, J) the pair (i, j) maps to
    ``j + i*J``.
    """
    shape = _check_shape(shape)
    idx = tuple(int(i) for i in multi_index)
    if len(idx) != len(shape):
        raise ValueError(f"index {idx} does not match order {len(shape)}")
    k = 0
    for i, s in zip(idx, shape):
        if not 0 <= i < s:
            raise IndexError(f"index {idx} out of bounds for shape {shape}")
        k = k * s + i
    return k


def multi_from_flat(shape: Sequence[int], k: int) -> tuple:
    """Inverse of :func:`flat_index`."""
    shape = _check_shape(shape)
    total = int(np.prod(shape, dtype=np.int64))
    k = int(k)
    if not 0 <= k < total:
        raise IndexError(f"flat index {k} out of bounds for shape {shape}")
    out = []
    for s in reversed(shape):
        out.append(k % s)
        k //= s
    return tuple(reversed(out))


def _as_tensor(t) -> np.ndarray:
    return np.ascontiguousarray(t, dtype=np.float64)


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: rows indexed by that mode, columns by the
    remaining modes (kept in order, big-endian)."""
    t = _as_tensor(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} invalid for order-{t.ndim} tensor")
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def refold(m: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`."""
    shape = _check_shape(shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} invalid for order-{len(shape)} tensor")
    rest = shape[:mode] + shape[mode + 1:]
    t = _as_tensor(m).reshape((shape[mode],) + rest)
    return np.moveaxis(t, 0, mode).copy()


def unfold_split(t: np.ndarray, row_modes: Sequence[int]) -> np.ndarray:
    """Generalized unfolding: the listed modes index the rows (in the given
    order), the complement indexes the columns (ascending), both big-endian."""
    t = _as_tensor(t)
    rows = [int(m) for m in row_modes]
    if not rows:
        raise ValueError("row_modes must be non-empty")
    if len(set(rows)) != len(rows) or any(not 0 <= m < t.ndim for m in rows):
        raise ValueError(f"row_modes {rows} invalid for order-{t.ndim} tensor")
    cols = [m for m in range(t.ndim) if m not in rows]
    nrow = int(np.prod([t.shape[m] for m in rows], dtype=np.int64))
    return t.transpose(rows + cols).reshape(nrow, -1)


def mode_n_product(t: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product with a matrix: ``unfold(result, mode) ==
    mat @ unfold(t, mode)``."""
    t = _as_tensor(t)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix {mat.shape} does not act on mode {mode} of size {t.shape[mode]}"
        )
    out = np.tensordot(mat, t, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


def mode_n_vec_product(t: np.ndarray, vec: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product with a vector; the mode is summed out."""
    t = _as_tensor(t)
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != t.shape[mode]:
        raise ValueError(
            f"vector of length {vec.shape} does not act on mode {mode} "
            f"of size {t.shape[mode]}"
        )
    return np.tensordot(t, vec, axes=(mode, 0))


def multilinear_product(t: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one matrix per mode: ``t ×₀ mats[0] ×₁ mats[1] ⋯``."""
    t = _as_tensor(t)
    if len(mats) != t.ndim:
        raise ValueError(f"need {t.ndim} matrices, got {len(mats)}")
    for n, m in enumerate(mats):
        t = mode_n_product(t, m, n)
    return t


def contract(a: np.ndarray, b: np.ndarray, modes_a, modes_b) -> np.ndarray:
    """Contract the paired modes of two tensors.

    The result keeps the remaining modes of ``a`` (in order) followed by the
    remaining modes of ``b``.  Contracting all modes of equal-shape tensors
    yields their scalar inner product.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    ma = [int(m) for m in np.atleast_1d(modes_a)]
    mb = [int(m) for m in np.atleast_1d(modes_b)]
    if len(ma) != len(mb):
        raise ValueError("modes_a and modes_b must pair up")
    for i, j in zip(ma, mb):
        if a.shape[i] != b.shape[j]:
            raise ValueError(
                f"contracted sizes differ: a.shape[{i}]={a.shape[i]} vs "
                f"b.shape[{j}]={b.shape[j]}"
            )
    return np.tensordot(a, b, axes=(ma, mb))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer (tensor) product; orders add."""
    return np.tensordot(_as_tensor(a), _as_tensor(b), axes=0)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of equal-order tensors.

    Per-mode index pairs fuse big-endian (the ``a`` index is slower), i.e.
    ``c[..., i*Jn + j, ...] = a[..., i, ...] * b[..., j, ...]``.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != b.ndim:
        raise ValueError("kron requires tensors of equal order")
    n = a.ndim
    c = np.tensordot(a, b, axes=0)
    perm = [x for i in range(n) for x in (i, n + i)]
    c = c.transpose(perm)
    return c.reshape([ia * ib for ia, ib in zip(a.shape, b.shape)])


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column count."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("khatri_rao needs two matrices with equal column count")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of equal-shape tensors."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a * b


class BlockMatrix:
    """A matrix partitioned into an R1 x R2 grid of equally shaped blocks.

    Stored as an array of shape ``(R1, R2, I, J)``.  The assembled dense
    matrix places block (r1, r2) at rows ``r1*I:(r1+1)*I`` and columns
    ``r2*J:(r2+1)*J``.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: np.ndarray, copy: bool = True):
        arr = np.array(blocks, dtype=np.float64) if copy else np.ascontiguousarray(
            blocks, dtype=np.float64
        )
        if arr.ndim != 4:
            raise ValueError(f"blocks must be 4-way (R1, R2, I, J), got {arr.shape}")
        self.blocks = arr

    @property
    def grid(self) -> tuple:
        return self.blocks.shape[:2]

    @property
    def block_shape(self) -> tuple:
        return self.blocks.shape[2:]

    def block(self, r1: int, r2: int) -> np.ndarray:
        return self.blocks[r1, r2]

    def to_dense(self) -> np.ndarray:
        r1, r2, i, j = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(r1 * i, r2 * j)

    @classmethod
    def from_dense(cls, mat: np.ndarray, grid) -> "BlockMatrix":
        mat = np.asarray(mat, dtype=np.float64)
        r1, r2 = int(grid[0]), int(grid[1])
        if mat.ndim != 2 or mat.shape[0] % r1 or mat.shape[1] % r2:
            raise ValueError(f"matrix {mat.shape} does not split on grid {grid}")
        i, j = mat.shape[0] // r1, mat.shape[1] // r2
        blocks = mat.reshape(r1, i, r2, j).transpose(0, 2, 1, 3)
        return cls(blocks)

    def __repr__(self):
        return f"BlockMatrix(grid={self.grid}, block_shape={self.block_shape})"


def strong_kron(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Strong Kronecker product of block matrices.

    Block (r1, r3) of the result sums ``kron(A[r1, r2], B[r2, r3])`` over the
    shared grid index r2; the grid becomes R1 x R3 and the blocks IK x JL.
    With 1x1 grids this is the ordinary Kronecker product.
    """
    (ra1, ra2), (i, j) = a.grid, a.block_shape
    (rb1, rb2), (k, l) = b.grid, b.block_shape
    if ra2 != rb1:
        raise ValueError(f"inner grid dims differ: {ra2} vs {rb1}")
    c = np.einsum("abij,bckl->acikjl", a.blocks, b.blocks)
    return BlockMatrix(c.reshape(ra1, rb2, i * k, j * l), copy=False)


def ac_product(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Block-matrix product with ordinary matrix multiplication of blocks.

    Block (q1, q2) of the result is ``A[p1, p2] @ B[r1, r2]`` where the
    result grid indices fuse the input grid indices pairwise (the ``a`` grid
    index is the slower one).  With 1x1 grids this is the ordinary matrix
    product.
    """
    (pa1, pa2), (i, j) = a.grid, a.block_shape
    (rb1, rb2), (jb, k) = b.grid, b.block_shape
    if j != jb:
        raise ValueError(f"block inner dims differ: {j} vs {jb}")
    c = np.einsum("abij,cdjk->acbdik", a.blocks, b.blocks)
    return BlockMatrix(c.reshape(pa1 * rb1, pa2 * rb2, i, k), copy=False)


# ---------------------------------------------------------------------------
# interface and frame matrices


def left_interface(x: TTVector, site: int) -> np.ndarray:
    """Unfolding of the subtrain left of ``site``: shape
    ``(R[site], I[0]*...*I[site-1])``.  For site 0 this is the 1x1 identity."""
    cores = x.cores
    if not 0 <= site < len(cores):
        raise ValueError(f"site {site} out of range")
    acc = np.ones((1, 1))  # (prod I, rank)
    for core in cores[:site]:
        acc = np.tensordot(acc, core, axes=(1, 0))
        acc = acc.reshape(-1, acc.shape[-1])
    return np.ascontiguousarray(acc.T)


def right_interface(x: TTVector, site: int) -> np.ndarray:
    """Unfolding of the subtrain right of ``site``: shape
    ``(R[site+1], I[site+1]*...*I[N-1])``."""
    cores = x.cores
    if not 0 <= site < len(cores):
        raise ValueError(f"site {site} out of range")
    acc = np.ones((1, 1))  # (rank, prod I)
    for core in reversed(cores[site + 1 :]):
        acc = np.tensordot(core, acc, axes=(2, 0))
        acc = acc.reshape(acc.shape[0], -1)
    return np.ascontiguousarray(acc)


def _check_frame_size(x: TTVector):
    total = int(np.prod(x.mode_sizes, dtype=np.int64))
    if total > FRAME_ROW_CAP:
        raise ValueError(
            f"dense frame would have {total} rows, above the cap {FRAME_ROW_CAP}"
        )
    return total


def frame_matrix(x: TTVector, site: int) -> np.ndarray:
    """Dense frame matrix at ``site``: ``kron(Lᵀ, I_mode, Rᵀ)`` with L, R the
    interface matrices; satisfies ``vec(x) = frame @ vec(core)``."""
    _check_frame_size(x)
    left = left_interface(x, site).T
    right = right_interface(x, site).T
    mode = x.mode_sizes[site]
    return np.kron(np.kron(left, np.eye(mode)), right)


def frame_matrix_two(x: TTVector, site: int) -> np.ndarray:
    """Two-core frame at sites ``(site, site+1)``; satisfies
    ``vec(x) = frame @ vec(merged_core)``."""
    if site >= x.order - 1:
        raise ValueError(f"two-core frame needs site < {x.order - 1}")
    _check_frame_size(x)
    left = left_interface(x, site).T
    right = right_interface(x, site + 1).T
    i1, i2 = x.mode_sizes[site], x.mode_sizes[site + 1]
    return np.kron(np.kron(left, np.eye(i1 * i2)), right)


def merged_core(x: TTVector, site: int) -> np.ndarray:
    """Supercore contracting sites ``site`` and ``site+1``; shape
    ``(R[site], I[site], I[site+1], R[site+2])``."""
    if site >= x.order - 1:
        raise ValueError(f"merged core needs site < {x.order - 1}")
    return np.tensordot(x.cores[site], x.cores[site + 1], axes=(2, 0))


# ---------------------------------------------------------------------------
# an operator with exact cores


def qtt_laplacian(d: int) -> TTMatrix:
    """``tridiag(-1, 2, -1)`` of size ``2**d`` (``d >= 2``) from explicit
    bond-rank-3 QTT cores (Kazeev & Khoromskij, SIMAX 33(3), 2012).  Every
    entry is exact, unlike an ``mpo_svd`` of the dense matrix, so solutions
    can be checked against closed forms to the last digits.  Site 0 holds
    the most significant bit of the index."""
    eye, up, zero = np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))

    def core(blocks):  # grid (P0, P1) of 2x2 blocks -> core (P0, 2, 2, P1)
        return np.asarray(blocks).transpose(0, 2, 3, 1)

    first = core([[eye, up.T, up]])
    middle = core([[eye, up.T, up], [zero, up, zero], [zero, zero, up.T]])
    last = core([[2 * eye - up - up.T], [-up], [-up.T]])
    return TTMatrix([first] + [middle] * (d - 2) + [last])


# ---------------------------------------------------------------------------
# TT-SVD by plain SVDs


def tt_svd_plain(t: np.ndarray, tol: float) -> TTVector:
    """TT-SVD with ``numpy.linalg.svd`` of every unfolding (Oseledets, SISC
    33(5), 2011, Algorithm 1).  Each bond keeps the fewest singular values
    whose discarded tail has 2-norm at most ``tol·‖t‖_F / √(N−1)``, so the
    relative reconstruction error is at most ``tol``."""
    shape = t.shape
    threshold = tol * np.linalg.norm(t) / np.sqrt(len(shape) - 1)
    cores, rest = [], t.reshape(1, -1)
    for n in shape[:-1]:
        u, s, vt = np.linalg.svd(rest.reshape(rest.shape[0] * n, -1), full_matrices=False)
        tail = np.cumsum(s[::-1] ** 2)[::-1]
        rank = max(1, int(np.count_nonzero(tail > threshold**2)))
        cores.append(u[:, :rank].reshape(-1, n, rank))
        rest = s[:rank, None] * vt[:rank]
    cores.append(rest.reshape(-1, shape[-1], 1))
    return TTVector(cores)


# ---------------------------------------------------------------------------
# generators and helpers in TT format


def random_mpo(row_sizes, col_sizes, rank, rng) -> TTMatrix:
    """Random TT matrix; ranks are clipped against the fused (i, j) modes."""
    rows = [int(m) for m in row_sizes]
    cols = [int(m) for m in col_sizes]
    if len(rows) != len(cols):
        raise ValueError("row and column shapes must have the same length")
    fused = [i * j for i, j in zip(rows, cols)]
    if isinstance(rank, int):
        rank = [rank] * (len(fused) - 1)
    r = feasible_ranks(fused, rank)
    cores = [
        rng.standard_normal((r[n], rows[n], cols[n], r[n + 1]))
        for n in range(len(fused))
    ]
    return TTMatrix(cores, copy=False)


def tt_inner(x: TTVector, y: TTVector) -> float:
    """Euclidean inner product of the represented vectors, evaluated by a
    left-to-right zip contraction (cost O(N I R^3); no dense intermediate)."""
    if x.mode_sizes != y.mode_sizes:
        raise ValueError(f"mode sizes differ: {x.mode_sizes} vs {y.mode_sizes}")
    v = np.ones((1, 1))
    for a, b in zip(x.cores, y.cores):
        t = np.tensordot(v, a, axes=(0, 0))  # (rb, i, ra')
        v = np.tensordot(t, b, axes=((0, 1), (0, 1)))  # (ra', rb')
    return float(v[0, 0])


def diagonal_mpo(x: TTVector) -> TTMatrix:
    """Diagonal operator whose diagonal is the vector represented by ``x``;
    ranks are inherited."""
    cores = []
    for g in x.cores:
        r0, i, r1 = g.shape
        c = np.zeros((r0, i, i, r1))
        idx = np.arange(i)
        c[:, idx, idx, :] = g
        cores.append(c)
    return TTMatrix(cores, copy=False)


def block_from_tts(tts: Sequence[TTVector]) -> BlockTT:
    """Join K TT vectors of identical mode sizes into one block TT by a
    direct sum: interior bond ranks add, chain j fills the j-th diagonal
    block, and the last core gains the block index, whose column j holds
    vector j."""
    if not tts:
        raise ValueError("need at least one TT vector")
    modes = tts[0].mode_sizes
    for t in tts:
        if t.mode_sizes != modes:
            raise ValueError("all TT vectors must share mode sizes")
    last = len(modes) - 1
    cores = []
    for n in range(last + 1):
        parts = [t.cores[n] for t in tts]
        if n == last:
            parts = [p[:, :, None, :] for p in parts]
        cores.append(_block_diag(parts, ((0,) if n > 0 else ()) + (2,)))
    return BlockTT(cores, last, copy=False)


# ---------------------------------------------------------------------------
# per-site contractions of TT vectors


def tt_to_full_chain(x: TTVector) -> np.ndarray:
    """Dense tensor of ``x`` by one ``tensordot`` per bond."""
    res = x.cores[0][0]  # (I0, R1)
    for core in x.cores[1:]:
        res = np.tensordot(res, core, axes=(res.ndim - 1, 0))
    return np.ascontiguousarray(res[..., 0])


def mpo_apply_einsum(a: TTMatrix, x: TTVector) -> TTVector:
    """Exact operator-vector product by one ``einsum`` per site; bond ranks
    multiply."""
    cores = []
    for ac, xc in zip(a.cores, x.cores):
        c = np.einsum("aijb,cjd->acibd", ac, xc)
        p0, r0, i, p1, r1 = c.shape
        cores.append(c.reshape(p0 * r0, i, p1 * r1))
    return TTVector(cores, copy=False)
