"""Tensor trains: TT/MPS vectors and TT/MPO matrices.

Construction from dense data by successive truncated SVDs, dense
reconstruction, orthogonalization and rounding (recompression).

Construction, orthogonalization, rounding and the sweep solvers' moves rest
on one bond split: a core unfolding is factored into an orthonormal
factor, kept as the core, and a carry for the neighbour.
:func:`qr_split` keeps the rank; :func:`svd_split`, one
``numpy.linalg.svd`` of the unfolding, takes it from the caller's rule, the
noise floor of an exact split (:func:`nonzero_rank`) or a tail budget
(:func:`select_rank`).  Only :func:`tt_svd` reads an unfolding another
way: a block of consecutive bonds whose unfolding has at most 32 rows, and
is wide with at least 4096 entries, is read through the triangular factor
of one blocked Householder QR of its transpose (:func:`_r_factor`), so a
2^18 sample takes three QRs, not one per early bond, and no orthogonal
factor of the unfolding's size is formed.

A TT vector is a chain of order-3 cores ``G[n]`` of shape
``(R[n], I[n], R[n+1])`` with boundary ranks ``R[0] = R[N] = 1``; the
represented entry is the product of the slice matrices ``G[n][:, i_n, :]``.
A TT matrix uses order-4 cores ``(P[n], I[n], J[n], P[n+1])`` with the row
and column indices of each site paired up.  K vectors held jointly in one
chain (the block TT format of Dolgov, Khoromskij, Oseledets & Savostyanov,
Comput. Phys. Commun. 185(4), 2014) are the K columns of a TT matrix whose
column sizes are K on one core and 1 on every other; :func:`block_extract`
takes one of them out.

A TT vector is a TT matrix whose column indices have size 1
(:func:`_as_matrix` reads it so, with no copy).  So one loop,
:func:`mpo_to_full`, forms every dense array, and the operator products of
:mod:`ttkit.algebra` have one contraction between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "TruncationPolicy",
    "TTVector",
    "TTMatrix",
    "tt_svd",
    "tt_to_full",
    "mpo_svd",
    "mpo_to_full",
    "orthogonalize",
    "tt_round",
    "mpo_round",
    "block_extract",
    "random_tt",
    "feasible_ranks",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Relative accuracy target and optional per-bond rank cap."""

    tol: float = 0.0
    max_rank: Optional[int] = None

    def __post_init__(self):
        _check_real("tol", self.tol, positive=False)
        if self.max_rank is not None:
            _check_count("max_rank", self.max_rank, 1)


def _check_count(name: str, value, least: Optional[int] = None):
    """Refuse a ``value`` that is not an integer (Python's or numpy's, not a
    bool), or, given ``least``, one below it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value}")


def _check_real(name: str, value, positive: bool):
    """Refuse a ``value`` that is not a finite real number (Python's or
    numpy's, not a bool) above 0, or at least 0 unless ``positive``."""
    real = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    if not (real and math.isfinite(value) and (value > 0 or value == 0 and not positive)):
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value}")


EXACT = TruncationPolicy(0.0)


def _prepare_cores(cores, ndim: int, copy: bool):
    """Validated float64 C-ordered cores, ``ndim``-way each."""
    out = []
    for n, c in enumerate(cores):
        arr = (
            np.array(c, dtype=np.float64, order="C")
            if copy
            else np.ascontiguousarray(c, dtype=np.float64)
        )
        if arr.ndim != ndim:
            raise ValueError(f"core {n} must be {ndim}-way, got shape {arr.shape}")
        out.append(arr)
    if not out:
        raise ValueError("a tensor train needs at least one core")
    if out[0].shape[0] != 1 or out[-1].shape[-1] != 1:
        raise ValueError("boundary ranks must equal 1")
    for a, b in zip(out, out[1:]):
        if a.shape[-1] != b.shape[0]:
            raise ValueError(
                f"rank chain broken: {a.shape} does not link to {b.shape}"
            )
    return out


def _wrap(cls, cores: list):
    """A ``cls`` (:class:`TTVector` or :class:`TTMatrix`) over ``cores`` as
    they are.  Only for cores the library built itself, which are C-ordered
    float64 arrays of the right order with linked ranks: the public
    constructors would only check and convert them again."""
    obj = object.__new__(cls)
    obj.cores = cores
    return obj


class TTVector:
    """Chain of order-3 cores representing an N-way tensor."""

    __slots__ = ("cores",)

    def __init__(self, cores: Sequence[np.ndarray], copy: bool = True):
        self.cores = _prepare_cores(cores, 3, copy)

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    def full(self) -> np.ndarray:
        return tt_to_full(self)

    def __repr__(self):
        return f"TTVector(modes={self.mode_sizes}, ranks={self.ranks})"


class TTMatrix:
    """Chain of order-4 cores representing a matrix with paired site indices."""

    __slots__ = ("cores",)

    def __init__(self, cores: Sequence[np.ndarray], copy: bool = True):
        self.cores = _prepare_cores(cores, 4, copy)

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def row_sizes(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def col_sizes(self) -> tuple:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(c.shape[3] for c in self.cores)

    @property
    def shape(self) -> tuple:
        return math.prod(self.row_sizes), math.prod(self.col_sizes)

    def full(self) -> np.ndarray:
        return mpo_to_full(self)

    def __repr__(self):
        return (
            f"TTMatrix(rows={self.row_sizes}, cols={self.col_sizes}, "
            f"ranks={self.ranks})"
        )


# ---------------------------------------------------------------------------
# factorization helpers shared by construction, rounding and the solvers


def fix_svd_signs(u: np.ndarray, vt: np.ndarray):
    """Make the largest-magnitude entry of each left singular vector
    nonnegative, compensating in ``vt``; gives reproducible factors."""
    j = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[j, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, vt * signs[:, None]


def _unit_scaled(a: np.ndarray):
    """``(2^-e·a, e)``, with e the binary exponent of the largest |entry| of
    ``a`` (0 when that is 0, inf or nan), so the scaled entries lie below 1
    in magnitude and their squares cannot overflow.  Scaling by a power of
    two is exact, so a norm or a rank decision made on the scaled entries
    is that of ``a`` to the bit, wherever ``a``'s own squares stay finite."""
    exp = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    return np.ldexp(a, -exp), exp


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of ``a``, finite whenever it is representable."""
    scaled, exp = _unit_scaled(a)
    return float(np.ldexp(np.linalg.norm(scaled), exp))


def select_rank(s: np.ndarray, threshold: float, max_rank: Optional[int]) -> int:
    """Smallest rank whose discarded tail has 2-norm <= threshold (>= 1)."""
    if s.size == 0:
        return 1
    s, exp = _unit_scaled(s)
    threshold = np.ldexp(threshold, -exp)
    tail = np.cumsum(s[::-1] ** 2)[::-1]
    rank = int(np.count_nonzero(tail > threshold * threshold))
    rank = max(rank, 1)
    if max_rank is not None:
        rank = min(rank, max_rank)
    return rank


def nonzero_rank(s: np.ndarray, max_rank: Optional[int] = None) -> int:
    """Number of singular values above the noise floor ``1e-14 * s[0]``
    (at least one, at most ``max_rank``): the rank of an exact split."""
    if s.size == 0 or s[0] == 0.0:
        rank = 1
    else:
        rank = max(1, int(np.count_nonzero(s > s[0] * 1e-14)))
    if max_rank is not None:
        rank = min(rank, max_rank)
    return rank


def policy_rank(policy: TruncationPolicy) -> Callable[[np.ndarray], int]:
    """Rank rule of a split judged on its own: the discarded tail stays
    within ``policy.tol`` of the norm of the split matrix, and the rank at
    most ``policy.max_rank``."""
    return lambda s: select_rank(s, policy.tol * _norm(s), policy.max_rank)


def _diagonal_signs(r: np.ndarray) -> np.ndarray:
    """The signs of the triangular factor ``r``'s diagonal, +1 where it is
    zero: scaling ``r``'s rows by them makes that diagonal nonnegative."""
    d = np.sign(np.diagonal(r)).copy()
    d[d == 0] = 1.0
    return d


def qr_split(m: np.ndarray, step: int):
    """Split the unfolding ``m`` of a core across its bond by QR, keeping the
    rank: returns ``(a, b)`` with ``m == a @ b``.  For ``step > 0`` (moving
    right) ``a`` has orthonormal columns and ``b`` is the carry; for
    ``step < 0`` ``b`` has orthonormal rows and ``a`` is the carry.  The
    diagonal of the triangular factor is made nonnegative."""
    q, r = np.linalg.qr(m if step > 0 else m.T)
    d = _diagonal_signs(r)
    q, r = q * d, r * d[:, None]
    return (q, r) if step > 0 else (r.T, np.ascontiguousarray(q.T))


def svd_split(m: np.ndarray, step: int, rank: Callable[[np.ndarray], int]):
    """Split the unfolding ``m`` of a core across its bond by a truncated SVD:
    returns ``(a, b)`` with ``a @ b`` the best approximation of ``m`` at the
    rank ``rank(s)`` chosen from the singular values ``s``.  For ``step > 0``
    ``a = u`` and the carry is ``b = s·vᵀ``; for ``step < 0`` ``b = vᵀ`` and
    the carry is ``a = u·s``.  Signs follow :func:`fix_svd_signs`."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = rank(s)
    u, vt = fix_svd_signs(u[:, :keep], vt[:keep])
    return (u, s[:keep, None] * vt) if step > 0 else (u * s[:keep], vt)


# ---------------------------------------------------------------------------
# TT-SVD and reconstruction


# entries from which tt_svd reads a wide unfolding (more columns than rows)
# through its triangular factor
_QR_FIRST_SIZE = 4096
# block size of that QR: LAPACK's default for Householder QR
_QR_BLOCK = 32


def _r_factor(m: np.ndarray) -> np.ndarray:
    """The wide ``m`` as ``small @ qᵀ``: returns ``small`` (rows × rows), the
    transposed triangular factor of ``mᵀ = q·r``, by LAPACK's blocked
    Householder QR ``dgeqrt`` of the column-contiguous ``mᵀ`` (recursive
    within each block of ``_QR_BLOCK`` columns: Elmroth & Gustavson, IBM J.
    Res. Dev. 44(4), 2000).  ``q`` is never formed."""
    rows = m.shape[0]
    reflectors = scipy.linalg.lapack.dgeqrt(min(rows, _QR_BLOCK), m.T)[0]
    return np.triu(reflectors[:rows]).T


def _left_splits(rest: np.ndarray, modes: Sequence[int], rule: Callable[[np.ndarray], int]):
    """Split ``modes`` off the rows of ``rest`` one by one, moving right by
    :func:`svd_split`: returns the cores and the last carry."""
    cores = []
    for i in modes:
        u, rest = svd_split(rest.reshape(rest.shape[0] * i, -1), 1, rule)
        cores.append(u.reshape(-1, i, u.shape[1]))
    return cores, rest


def tt_svd(t: np.ndarray, policy: TruncationPolicy = EXACT) -> TTVector:
    """Decompose a dense tensor by a sequence of truncated SVDs (Oseledets,
    SISC 33(5), 2011).

    The per-bond threshold is ``policy.tol * ||t||_F / sqrt(N-1)``, which
    guarantees overall relative reconstruction error at most ``policy.tol``.
    ``||t||_F`` is taken as the norm of the first split's singular values,
    all of them, before any is discarded, so the tensor is not read a second
    time for its norm.  Cores left of the last are left-orthogonal by
    construction.

    The bonds are split in blocks: from the current carry, a block takes
    consecutive modes while its unfolding ``m`` (carry rank times the
    block's modes as rows, the rest of the tensor as columns) has at most
    ``_QR_BLOCK`` rows, and at least one mode.  A wide ``m`` of at least
    ``_QR_FIRST_SIZE`` entries, such as the first unfoldings of a long
    sample, is read once: ``m = rᵀ·qᵀ`` (:func:`_r_factor`), the block's
    splits run on the small ``rᵀ``, and the carry is ``fᵀ·m``, one product
    with ``m``, where ``f`` is the block's cores contracted into its left
    frame.  As ``qᵀ`` has orthonormal rows, every unfolding inside the
    block has the singular values and left vectors of the matching
    unfolding of ``rᵀ``, so the ranks, cores and error bound are those of
    the sequential TT-SVD, with singular values that agree to about
    n·eps·s[0] (a communication-avoiding QR: Demmel, Grigori, Hoemmen &
    Langou, SISC 34(1), 2012).  Every other block is split one bond at a
    time by :func:`svd_split`.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    if t.ndim == 0:
        t = t.reshape(1)
    if t.size == 0:
        raise ValueError("cannot decompose an empty tensor")
    if not np.isfinite(t).all():
        raise ValueError("cannot decompose a tensor holding inf or NaN")
    shape = t.shape
    n_modes = len(shape)
    if n_modes == 1:
        return _wrap(TTVector, [t.reshape(1, shape[0], 1)])
    threshold = None

    def rule(s):
        nonlocal threshold
        if threshold is None:  # the first split: ||s|| is ||t||_F
            threshold = policy.tol * _norm(s) / math.sqrt(n_modes - 1)
        return select_rank(s, threshold, policy.max_rank)

    cores = []
    rest = t.reshape(1, -1)
    n = 0
    while n < n_modes - 1:
        rows, end = rest.shape[0] * shape[n], n + 1
        while end < n_modes - 1 and rows * shape[end] <= _QR_BLOCK:
            rows, end = rows * shape[end], end + 1
        m = rest.reshape(rows, -1)
        if m.shape[1] > rows and m.size >= _QR_FIRST_SIZE:
            small = _r_factor(m)  # m = small @ qᵀ, qᵀ with orthonormal rows
            block, _ = _left_splits(small.reshape(rest.shape[0], -1), shape[n:end], rule)
            frame = block[0].reshape(-1, block[0].shape[2])
            for core in block[1:]:
                frame = (frame @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])
            rest = frame.T @ m
        else:
            block, rest = _left_splits(rest, shape[n:end], rule)
        cores += block
        n = end
    cores.append(rest.reshape(-1, shape[-1], 1))
    return _wrap(TTVector, cores)


def tt_to_full(x: TTVector) -> np.ndarray:
    """Contract the chain into a dense tensor of shape ``mode_sizes``."""
    return mpo_to_full(_as_matrix(x)).reshape(x.mode_sizes)


def mpo_svd(
    mat: np.ndarray,
    row_shape: Sequence[int],
    col_shape: Sequence[int],
    policy: TruncationPolicy = EXACT,
) -> TTMatrix:
    """Decompose a dense matrix into TT/MPO form.

    Reshapes to an order-2N tensor, permutes to the interleaved index order
    (i1, j1, i2, j2, ...), fuses each (i_n, j_n) pair (row index slower) and
    runs the TT-SVD.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    rows = tuple(int(s) for s in row_shape)
    cols = tuple(int(s) for s in col_shape)
    if len(rows) != len(cols):
        raise ValueError("row and column shapes must have the same length")
    if mat.ndim != 2 or mat.shape != (math.prod(rows), math.prod(cols)):
        raise ValueError(
            f"matrix {mat.shape} does not factor as {rows} x {cols}"
        )
    n_modes = len(rows)
    t = mat.reshape(rows + cols)
    perm = [x for n in range(n_modes) for x in (n, n_modes + n)]
    fused = t.transpose(perm).reshape([i * j for i, j in zip(rows, cols)])
    return _unfused(tt_svd(fused, policy), rows, cols)


def mpo_to_full(a: TTMatrix) -> np.ndarray:
    """Assemble the dense matrix (prod(rows) x prod(cols)) core by core; the
    one loop that forms dense arrays, for TT vectors too.
    One ``matmul`` per core writes (rows so far · i, columns so far · j,
    rank) in C order, so no transposing copy follows, and the peak is the
    result plus the one partial product before it.  Each is oriented so that
    neither side of its products has size 1 where the sites allow it: BLAS
    then computes every entry as the one-column branch computes it on the
    (i, j)-fused view, which is a one-column TT matrix."""
    _, i, j, q = a.cores[0].shape
    res = a.cores[0].reshape(i, j, q)
    for core in a.cores[1:]:
        (rows, cols, p), (_, i, j, q) = res.shape, core.shape
        if cols == 1:  # one product, (rows so far, p) @ (p, i·j·q)
            res = res.reshape(rows, p) @ core.reshape(p, i * j * q)
        elif j * q == 1:  # batches of rows so far: (i, p) @ (p, cols so far)
            res = np.matmul(core.reshape(p, i).T, res.transpose(0, 2, 1))
        else:  # batches (rows so far, i): (cols so far, p) @ (p, j·q)
            res = np.matmul(res[:, None], core.reshape(p, i, j * q).transpose(1, 0, 2))
        res = res.reshape(rows * i, cols * j, q)
    return res.reshape(a.shape)


def _fused(a: TTMatrix) -> TTVector:
    """The TT matrix as a TT vector, with no copy: each core ``(p, i, j, q)``
    is read as a vector core ``(p, i·j, q)``, so ``tt_norm`` gives ‖a‖_F."""
    return _wrap(TTVector, [c.reshape(c.shape[0], -1, c.shape[3]) for c in a.cores])


def _as_matrix(x) -> TTMatrix:
    """``x`` read as a TT matrix, with no copy: a TT vector with one column
    per site, and a TT matrix as itself."""
    if isinstance(x, TTMatrix):
        return x
    return _wrap(TTMatrix, [c[:, :, None, :] for c in x.cores])


def _unfused(v: TTVector, rows: Sequence[int], cols: Sequence[int]) -> TTMatrix:
    """Inverse of :func:`_fused`, for site sizes ``rows`` by ``cols``."""
    cores = [c.reshape(c.shape[0], i, j, c.shape[2]) for c, i, j in zip(v.cores, rows, cols)]
    return _wrap(TTMatrix, cores)


# ---------------------------------------------------------------------------
# canonical forms


def orthogonalize(x: TTVector, site: int) -> TTVector:
    """Mixed-canonical form: cores left of ``site`` left-orthogonal, cores
    right of it right-orthogonal; the represented tensor is unchanged."""
    _check_count("site", site)
    if not 0 <= site < x.order:
        raise ValueError(f"site {site} out of range for order {x.order}")
    cores = [c.copy() for c in x.cores]
    for k in range(site):
        r0, i, r1 = cores[k].shape
        q, r = qr_split(cores[k].reshape(r0 * i, r1), 1)
        cores[k] = q.reshape(r0, i, -1)
        cores[k + 1] = _contract(r, cores[k + 1])
    for k in range(len(cores) - 1, site, -1):
        r0, i, r1 = cores[k].shape
        l, q = qr_split(cores[k].reshape(r0, i * r1), -1)
        cores[k] = q.reshape(-1, i, r1)
        cores[k - 1] = _contract(cores[k - 1], l)
    return _wrap(TTVector, cores)


def _last_core(x: TTVector) -> np.ndarray:
    """The last core of ``orthogonalize(x, x.order - 1)``, bit for bit, from
    the triangular factors of its QR steps alone (``numpy.linalg.qr`` with
    ``mode="r"``): the left-orthogonal cores are never formed."""
    core = np.ascontiguousarray(x.cores[0])
    for nxt in x.cores[1:]:
        r = np.linalg.qr(core.reshape(-1, core.shape[2]), mode="r")
        core = _contract(r * _diagonal_signs(r)[:, None], np.ascontiguousarray(nxt))
    return core


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a``'s last axis contracted with ``b``'s first: the one ``np.dot`` of
    2-D reshapes that ``np.tensordot(a, b, axes=(a.ndim - 1, 0))`` makes,
    bit for bit, without its argument handling."""
    out = np.dot(a.reshape(-1, a.shape[-1]), b.reshape(b.shape[0], -1))
    return out.reshape(a.shape[:-1] + b.shape[1:])


def tt_round(x: TTVector, policy: TruncationPolicy) -> TTVector:
    """Recompress to (at most) the input ranks within relative accuracy
    ``policy.tol``.

    Two passes: right-to-left QR orthogonalization, then a left-to-right
    truncated-SVD sweep with per-bond threshold ``tol * ||x|| / sqrt(N-1)``.
    The result is left-canonical.
    """
    cores = orthogonalize(x, 0).cores
    n_modes = len(cores)
    if n_modes == 1:
        return _wrap(TTVector, cores)
    threshold = policy.tol * _norm(cores[0]) / math.sqrt(n_modes - 1)
    for k in range(n_modes - 1):
        r0, i, r1 = cores[k].shape
        u, carry = svd_split(
            cores[k].reshape(r0 * i, r1), 1, lambda s: select_rank(s, threshold, policy.max_rank)
        )
        cores[k] = u.reshape(r0, i, -1)
        cores[k + 1] = _contract(carry, cores[k + 1])
    return _wrap(TTVector, cores)


def mpo_round(a: TTMatrix, policy: TruncationPolicy) -> TTMatrix:
    """Recompress a TT matrix by rounding its (i, j)-fused TT vector."""
    return _unfused(tt_round(_fused(a), policy), a.row_sizes, a.col_sizes)


# ---------------------------------------------------------------------------
# columns and direct sums


def _column(x: TTMatrix, k: int) -> TTVector:
    """Column ``k`` of ``x``, unchecked and read in place: each core gives
    its column of the multi-index that ``k`` unravels to over the column
    sizes, last fastest, as a view wherever that column is contiguous."""
    cores, rest = [], int(k)  # Python integers do not overflow past 2^63 columns
    for c in reversed(x.cores):
        rest, j = divmod(rest, c.shape[2])
        cores.append(np.ascontiguousarray(c[:, :, j, :]))
    return _wrap(TTVector, cores[::-1])


def block_extract(x: TTMatrix, k: int) -> TTVector:
    """Column ``k`` of a TT matrix as a TT vector of its own, such as one of
    the K vectors a block solver returns (:func:`_column`, copied)."""
    _check_count("k", k)
    if not 0 <= k < x.shape[1]:
        raise IndexError(f"block column {k} out of range [0, {x.shape[1]})")
    return TTVector(_column(x, k).cores)


def _block_diag(parts, axes) -> np.ndarray:
    """Place ``parts`` on the diagonal of a zero array: sizes add along
    ``axes``, and every other axis is shared (all parts agree on it)."""
    shape = list(parts[0].shape)
    for ax in axes:
        shape[ax] = sum(p.shape[ax] for p in parts)
    out = np.zeros(shape)
    start = dict.fromkeys(axes, 0)
    for p in parts:
        index = [slice(None)] * p.ndim
        for ax in axes:
            index[ax] = slice(start[ax], start[ax] + p.shape[ax])
            start[ax] += p.shape[ax]
        out[tuple(index)] = p
    return out


# ---------------------------------------------------------------------------
# random construction (used for solver initialization and tests)


def feasible_ranks(mode_sizes: Sequence[int], bond_ranks: Sequence[int]) -> list:
    """Clip an interior rank profile so it is achievable for generic cores.

    Enforces ``r[n] <= min(prod(modes[:n]), prod(modes[n:]))`` together with
    the chain conditions ``r[n] <= r[n-1]*I[n-1]`` and ``r[n] <= I[n]*r[n+1]``.
    Returns the full profile including the boundary 1s.
    """
    modes = [int(m) for m in mode_sizes]
    n_modes = len(modes)
    if len(bond_ranks) != n_modes - 1:
        raise ValueError(f"need {n_modes - 1} interior ranks, got {len(bond_ranks)}")
    r = [1] + [int(v) for v in bond_ranks] + [1]
    for n in range(1, n_modes):
        left = math.prod(modes[:n])
        right = math.prod(modes[n:])
        r[n] = max(1, min(r[n], left, right))
    for n in range(1, n_modes):
        r[n] = min(r[n], r[n - 1] * modes[n - 1])
    for n in range(n_modes - 1, 0, -1):
        r[n] = min(r[n], modes[n] * r[n + 1])
    return r


def random_tt(mode_sizes, rank, rng) -> TTVector:
    """Random TT with interior ranks clipped to a feasible profile."""
    modes = [int(m) for m in mode_sizes]
    if isinstance(rank, (int, np.integer)):
        rank = [rank] * (len(modes) - 1)
    r = feasible_ranks(modes, rank)
    cores = [rng.standard_normal((r[n], modes[n], r[n + 1])) for n in range(len(modes))]
    return _wrap(TTVector, cores)
