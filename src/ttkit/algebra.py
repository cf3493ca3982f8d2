"""Arithmetic in TT formats: addition, scaling and norms, operator-vector
and operator-operator products.

Products are exact (bond ranks multiply); recompression is explicit via the
``policy`` argument and never happens behind the caller's back.  There is
one product contraction: :func:`mpo_apply` is :func:`mpo_mul` on the vector
read as a one-column TT matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .train import (
    TruncationPolicy,
    TTMatrix,
    TTVector,
    _as_matrix,
    _block_diag,
    _fused,
    _last_core,
    _norm,
    _wrap,
    mpo_round,
)

__all__ = [
    "tt_add",
    "tt_scale",
    "tt_norm",
    "mpo_apply",
    "mpo_mul",
    "mpo_transpose",
    "eye_mpo",
]


def tt_add(x: TTVector, y: TTVector) -> TTVector:
    """Exact sum by the direct sum of the chains: interior bond ranks add,
    each chain fills one diagonal block, and the boundary bonds stay
    shared."""
    if x.mode_sizes != y.mode_sizes:
        raise ValueError(f"mode sizes differ: {x.mode_sizes} vs {y.mode_sizes}")
    if x.order == 1:
        return TTVector([x.cores[0] + y.cores[0]])
    last = x.order - 1
    cores = [
        _block_diag([a, b], ((0,) if n > 0 else ()) + ((2,) if n < last else ()))
        for n, (a, b) in enumerate(zip(x.cores, y.cores))
    ]
    return _wrap(TTVector, cores)


def tt_scale(x: TTVector, alpha: float) -> TTVector:
    """Scale by multiplying the first core; ranks are unchanged."""
    cores = [x.cores[0] * float(alpha)] + [c.copy() for c in x.cores[1:]]
    return _wrap(TTVector, cores)


def tt_norm(x: TTVector) -> float:
    """Frobenius norm, computed stably as the norm of the center core of the
    mixed-canonical form; finite whenever it is representable."""
    return _norm(_last_core(x))


def mpo_apply(a: TTMatrix, x: TTVector, policy: Optional[TruncationPolicy] = None) -> TTVector:
    """Operator-vector product in TT format: :func:`mpo_mul` of ``a`` and
    ``x`` read as a one-column TT matrix, read back as a TT vector.

    Site cores combine pairwise, so before rounding the bond ranks are the
    exact products ``Q[n] = P[n] * R[n]``.  Pass a :class:`TruncationPolicy`
    to recompress the result; ``None`` keeps the exact product.
    """
    return _fused(mpo_mul(a, _as_matrix(x), policy))


def mpo_mul(a: TTMatrix, b: TTMatrix, policy: Optional[TruncationPolicy] = None) -> TTMatrix:
    """Operator-operator product; pre-rounding bond ranks multiply."""
    if a.col_sizes != b.row_sizes:
        raise ValueError(
            f"inner mode sizes differ: {a.col_sizes} vs {b.row_sizes}"
        )
    cores = []
    for ac, bc in zip(a.cores, b.cores):
        c = np.einsum("aijb,cjkd->acikbd", ac, bc)
        p0, r0, i, k, p1, r1 = c.shape
        cores.append(c.reshape(p0 * r0, i, k, p1 * r1))
    y = _wrap(TTMatrix, cores)
    return y if policy is None else mpo_round(y, policy)


def mpo_transpose(a: TTMatrix) -> TTMatrix:
    """Transpose by swapping the row/column index of every core."""
    return TTMatrix([c.transpose(0, 2, 1, 3) for c in a.cores])


def eye_mpo(mode_sizes) -> TTMatrix:
    """Identity operator with all bond ranks 1."""
    cores = [np.eye(int(i))[None, :, :, None] for i in mode_sizes]
    return TTMatrix(cores, copy=False)
