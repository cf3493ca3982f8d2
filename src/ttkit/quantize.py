"""Tensorization and quantization: fold long vectors and large matrices into
high-order low-mode tensors, compress them as (Q)TT, and unfold back.

Quantizing a vector of length ``q**K`` reshapes it (big-endian) into a
``(q, ..., q)`` tensor of order K before running the TT-SVD; storage then
scales like O(K * q * max_rank^2) instead of O(q**K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .train import (
    TruncationPolicy,
    TTMatrix,
    TTVector,
    _check_count,
    mpo_svd,
    tt_svd,
)

__all__ = [
    "QuantizationPlan",
    "plan_auto",
    "quantize_vector",
    "quantize_matrix",
    "dequantize",
    "storage_report",
    "format_report",
    "from_fortran_flat",
    "to_fortran_flat",
]


@dataclass(frozen=True)
class QuantizationPlan:
    """Per-physical-mode factorizations ``I_n = I_{n,1} * ... * I_{n,K_n}``;
    each factor an integer (Python's or numpy's, not a bool) of at least 1."""

    factors: tuple

    def __post_init__(self):
        for group in self.factors:
            if not group:
                raise ValueError(f"invalid factor group {group}")
            for f in group:
                _check_count("plan factor", f, 1)

    @property
    def physical_shape(self) -> tuple:
        return tuple(math.prod(g) for g in self.factors)

    @property
    def virtual_shape(self) -> tuple:
        return tuple(f for g in self.factors for f in g)


def _factorize(size: int, base: int, mixed_radix: bool) -> tuple:
    if size == 1:
        return (1,)
    factors = []
    n = size
    while n % base == 0:
        factors.append(base)
        n //= base
    if n > 1:
        if not mixed_radix:
            raise ValueError(
                f"{size} is not a power of {base}; pass mixed_radix=True to "
                "allow mixed-radix plans"
            )
        p = 2
        while p * p <= n:
            while n % p == 0:
                factors.append(p)
                n //= p
            p += 1
        if n > 1:
            factors.append(n)
    return tuple(factors)


def plan_auto(
    shape: Union[int, Sequence[int]], base: int = 2, mixed_radix: bool = False
) -> QuantizationPlan:
    """Finest deterministic quantization plan for a length or a shape.

    Each physical size is split into as many base-``base`` factors as
    possible; any remainder is either an error (strict mode) or factored
    into ascending primes (``mixed_radix=True``).
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"sizes must be positive, got {shape}")
    return QuantizationPlan(tuple(_factorize(s, base, mixed_radix) for s in shape))


def quantize_vector(
    v: np.ndarray, plan: QuantizationPlan, policy: TruncationPolicy = TruncationPolicy()
) -> TTVector:
    """Reshape a flat vector to the plan's virtual modes and run TT-SVD."""
    v = np.ascontiguousarray(v, dtype=np.float64).reshape(-1)
    total = math.prod(plan.virtual_shape)
    if v.size != total:
        raise ValueError(f"length {v.size} does not match plan total {total}")
    return tt_svd(v.reshape(plan.virtual_shape), policy)


def _pad_to(groups: tuple, length: int) -> list:
    out = list(groups)
    out.extend([1] * (length - len(out)))
    return out


def quantize_matrix(
    m: np.ndarray,
    row_plan: QuantizationPlan,
    col_plan: QuantizationPlan,
    policy: TruncationPolicy = TruncationPolicy(),
) -> TTMatrix:
    """Quantize a matrix into TT/MPO form with interleaved (i_k, j_k) pairs.

    Row and column virtual modes are paired site by site; the shorter side is
    padded with trailing size-1 modes.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    rows = row_plan.virtual_shape
    cols = col_plan.virtual_shape
    depth = max(len(rows), len(cols))
    return mpo_svd(m, _pad_to(rows, depth), _pad_to(cols, depth), policy)


def dequantize(x, plan: QuantizationPlan = None):
    """Reconstruct the dense data and undo the tensorizing reshape.

    TT vectors come back with the plan's physical shape (a flat vector for a
    single physical mode); TT matrices come back as dense matrices.
    """
    if isinstance(x, TTMatrix):
        return x.full()
    if isinstance(x, TTVector):
        full = x.full()
        if plan is None:
            return full.reshape(-1)
        total = math.prod(plan.physical_shape)
        if full.size != total:
            raise ValueError(
                f"plan total {total} does not match represented size {full.size}"
            )
        shape = plan.physical_shape
        return full.reshape(shape if len(shape) > 1 else (-1,))
    raise TypeError(f"cannot dequantize {type(x).__name__}")


def from_fortran_flat(flat: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Import utility: reinterpret a flat array linearized with the FIRST
    index fastest (Fortran style) under this package's convention."""
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"mode sizes must be positive, got {shape}")
    return np.ascontiguousarray(
        np.asarray(flat, dtype=np.float64).reshape(shape, order="F")
    )


def to_fortran_flat(t: np.ndarray) -> np.ndarray:
    """Inverse of :func:`from_fortran_flat`."""
    return np.ascontiguousarray(t, dtype=np.float64).reshape(-1, order="F")


def storage_report(x) -> dict:
    """Raw element count, TT parameter count and compression ratio.

    The parameter count is the total number of core entries,
    ``sum_n R[n] * I[n] * R[n+1]`` for a TT vector (column modes multiply
    in for a TT matrix); the ratio is parameters over raw count, so values
    below 1 mean compression.
    """
    kind = {TTVector: "vector", TTMatrix: "matrix"}.get(type(x))
    if kind is None:
        raise TypeError(f"cannot report on {type(x).__name__}")
    raw = math.prod(x.shape if kind == "matrix" else x.mode_sizes)
    params = sum(c.size for c in x.cores)
    return {
        "kind": kind,
        "order": x.order,
        "modes": ",".join(str(i) for i in x.mode_sizes)
        if not isinstance(x, TTMatrix)
        else ",".join(f"{i}x{j}" for i, j in zip(x.row_sizes, x.col_sizes)),
        "ranks": ",".join(str(r) for r in x.ranks),
        "max_rank": max(x.ranks),
        "raw_count": raw,
        "parameter_count": params,
        "compression_ratio": params / raw,
    }


def format_report(report: dict) -> str:
    """Line-oriented key=value rendering (deterministic field order)."""
    lines = []
    for key, value in report.items():
        if isinstance(value, float):
            value = f"{value:.12g}"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
