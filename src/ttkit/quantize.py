"""Tensorization and quantization: fold long vectors and large matrices into
high-order low-mode tensors, compress them as (Q)TT, and unfold back.

A plan is one flat tuple of virtual mode sizes ``(I_1, ..., I_K)`` for a
length ``I_1 * ... * I_K``; a matrix takes one plan for its rows and one for
its columns.  Quantizing a vector of length ``q**K`` reshapes it
(big-endian) into a ``(q, ..., q)`` tensor of order K before running the
TT-SVD; storage then scales like O(K * q * max_rank^2) instead of O(q**K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
]


@dataclass(frozen=True)
class QuantizationPlan:
    """Virtual mode sizes ``(I_1, ..., I_K)`` of a length ``I_1 * ... * I_K``:
    a non-empty tuple, each size an integer (Python's or numpy's, not a
    bool) of at least 1."""

    factors: tuple

    def __post_init__(self):
        if not isinstance(self.factors, tuple):  # a list would leave the plan unhashable
            raise ValueError(f"factors must be a tuple of mode sizes, got {type(self.factors).__name__}")
        if not self.factors:
            raise ValueError("a quantization plan needs at least one factor")
        for f in self.factors:
            _check_count("plan factor", f, 1)


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


def plan_auto(size: int, base: int = 2, mixed_radix: bool = False) -> QuantizationPlan:
    """Finest deterministic quantization plan for a length.

    The size is split into as many base-``base`` factors as possible; any
    remainder is either an error (strict mode) or factored into ascending
    primes (``mixed_radix=True``).
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    _check_count("size", size, 1)
    return QuantizationPlan(_factorize(int(size), base, mixed_radix))


def quantize_vector(
    v: np.ndarray, plan: QuantizationPlan, policy: TruncationPolicy = TruncationPolicy()
) -> TTVector:
    """Reshape a flat vector to the plan's virtual modes and run TT-SVD."""
    v = np.ascontiguousarray(v, dtype=np.float64).reshape(-1)
    total = math.prod(plan.factors)
    if v.size != total:
        raise ValueError(f"length {v.size} does not match plan total {total}")
    return tt_svd(v.reshape(plan.factors), policy)


def _pad_to(factors: tuple, length: int) -> list:
    out = list(factors)
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
    rows, cols = row_plan.factors, col_plan.factors
    depth = max(len(rows), len(cols))
    return mpo_svd(m, _pad_to(rows, depth), _pad_to(cols, depth), policy)


def dequantize(x, plan: QuantizationPlan = None):
    """Reconstruct the dense data: a flat vector for a TT vector, whose
    length must be the plan's when one is given, and the dense matrix for a
    TT matrix."""
    if isinstance(x, TTMatrix):
        return x.full()
    if not isinstance(x, TTVector):
        raise TypeError(f"cannot dequantize {type(x).__name__}")
    full = x.full().reshape(-1)
    if plan is not None and full.size != math.prod(plan.factors):
        raise ValueError(
            f"plan total {math.prod(plan.factors)} does not match represented size {full.size}"
        )
    return full


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
