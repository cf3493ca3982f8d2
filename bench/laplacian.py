"""Explicit rank-3 QTT cores of the 1-D Dirichlet Laplacian.

The matrix is ``tridiag(-1, 2, -1)`` of size ``n = 2**d``.  Its QTT form
(Kazeev & Khoromskij, "Low-rank explicit QTT representation of the Laplace
operator and its inverse", SIMAX 33(3), 2012) is built core by core, so no
dense ``n x n`` matrix is ever formed; at d = 16 that matrix would take
34 GB.  Site 0 is the most significant bit of the row/column index, matching
ttkit's big-endian linearization.

With ``I`` the 2x2 identity and ``J = [[0, 1], [0, 0]]`` the shift:

* first core  ``[I, J^T, J]``
* middle core ``[[I, J^T, J], [0, J, 0], [0, 0, J^T]]``
* last core   ``[2I - J - J^T, -J, -J^T]`` (a column of blocks)
"""

from __future__ import annotations

import numpy as np

_I = np.eye(2)
_J = np.array([[0.0, 1.0], [0.0, 0.0]])


def _core(blocks) -> np.ndarray:
    """Stack a grid of 2x2 blocks into a TT-matrix core ``(P0, 2, 2, P1)``."""
    grid = np.asarray(blocks, dtype=float)  # (P0, P1, 2, 2)
    return np.ascontiguousarray(grid.transpose(0, 2, 3, 1))


def laplacian_cores(d: int) -> list:
    """Cores of the QTT Dirichlet Laplacian on ``2**d`` points (``d >= 2``)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    zero = np.zeros((2, 2))
    first = _core([[_I, _J.T, _J]])
    middle = _core([[_I, _J.T, _J], [zero, _J, zero], [zero, zero, _J.T]])
    last = _core([[2 * _I - _J - _J.T], [-_J], [-_J.T]])
    return [first] + [middle] * (d - 2) + [last]


def laplacian(d: int):
    """The Laplacian as a ``ttkit.TTMatrix`` with bond ranks 3."""
    import ttkit

    return ttkit.TTMatrix(laplacian_cores(d))


def dense_laplacian(n: int) -> np.ndarray:
    return 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def eigenvalue(k: int, n: int) -> float:
    """The k-th smallest eigenvalue (1-based) of the ``n x n`` Laplacian."""
    return 4.0 * np.sin(k * np.pi / (2 * (n + 1))) ** 2


def self_check(max_d: int = 8):
    """Raise if the explicit cores differ from the dense tridiagonal matrix,
    or if their ranks differ from what ``mpo_svd`` finds, for ``d <= max_d``."""
    import ttkit

    for d in range(2, max_d + 1):
        n = 2**d
        dense = dense_laplacian(n)
        explicit = laplacian(d)
        if not np.array_equal(explicit.full(), dense):
            raise AssertionError(f"explicit QTT Laplacian differs from dense at d={d}")
        svd = ttkit.mpo_svd(dense, (2,) * d, (2,) * d, ttkit.TruncationPolicy(1e-13))
        if tuple(svd.ranks) != tuple(explicit.ranks):
            raise AssertionError(
                f"ranks {explicit.ranks} differ from mpo_svd's {svd.ranks} at d={d}"
            )
