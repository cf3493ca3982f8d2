"""Chain splitting machinery: interface matrices, frame matrices, and the
cached environment blocks that all sweep solvers consume.

For a TT vector x the frame matrix ``G_neq(n)`` maps the vectorized site-n
core to the full vectorized tensor, ``vec(x) = G_neq(n) @ vec(G[n])``; it is
the Kronecker product of the left interface, an identity of the site's mode
size, and the right interface.  Explicit frame/interface matrices exist to
verify contractions at desk scale and are guarded by a row cap; solvers only
ever touch the cached three-layer environments.

Local problems come from one builder pair, :func:`effective_operator` and
:func:`effective_rhs`, over a span of one core or two merged cores; both
refuse problems larger than ``LOCAL_DIM_CAP``, read at call time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .train import TTMatrix, TTVector

__all__ = [
    "FRAME_ROW_CAP",
    "LOCAL_DIM_CAP",
    "left_interface",
    "right_interface",
    "frame_matrix",
    "frame_matrix_two",
    "merged_core",
    "EnvStack",
    "env_build",
    "effective_operator",
    "effective_rhs",
]

FRAME_ROW_CAP = 1 << 16
LOCAL_DIM_CAP = 4096


def _cores_of(x) -> list:
    if isinstance(x, (TTVector, TTMatrix)):
        return x.cores
    if isinstance(x, list):
        return x  # shared on purpose: sweeps mutate cores in place
    return list(x)


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
# environments


def _absorb_left(env: np.ndarray, bra: np.ndarray, op: np.ndarray, ket: np.ndarray):
    # env (a,p,c); bra (a,i,b); op (p,i,j,q); ket (c,j,d) -> (b,q,d)
    t = np.einsum("apc,aib->pcib", env, bra)
    t = np.einsum("pcib,pijq->cbjq", t, op)
    return np.einsum("cbjq,cjd->bqd", t, ket)


def _absorb_right(env: np.ndarray, bra: np.ndarray, op: np.ndarray, ket: np.ndarray):
    # env (b,q,d); bra (a,i,b); op (p,i,j,q); ket (c,j,d) -> (a,p,c)
    t = np.einsum("bqd,aib->qdai", env, bra)
    t = np.einsum("qdai,pijq->dapj", t, op)
    return np.einsum("dapj,cjd->apc", t, ket)


class EnvStack:
    """Cached left/right partial contractions of ``<bra| op |ket>``.

    ``left[n]`` contracts sites ``< n`` (shape: bra-rank x op-rank x
    ket-rank at bond n); ``right[n]`` contracts sites ``>= n``.  Both ends
    start as 1x1x1 ones.  The stack keeps references to the three core
    lists, so callers that mutate a core must :meth:`invalidate` that site;
    a validity cursor then rejects reads of stale entries.
    """

    def __init__(self, bra, op: TTMatrix, ket):
        self.bra = _cores_of(bra)
        self.op = _cores_of(op)
        self.ket = _cores_of(ket)
        n = len(self.op)
        if len(self.bra) != n or len(self.ket) != n:
            raise ValueError("bra, operator and ket must have equal length")
        self.left = [None] * (n + 1)
        self.right = [None] * (n + 1)
        self.left[0] = np.ones((1, 1, 1))
        self.right[n] = np.ones((1, 1, 1))
        self._lvalid = 0
        self._rvalid = n

    @property
    def order(self) -> int:
        return len(self.op)

    def invalidate(self, site: int):
        """Mark environments that depend on the core at ``site`` stale."""
        self._lvalid = min(self._lvalid, site)
        self._rvalid = max(self._rvalid, site + 1)

    def update_left(self, site: int):
        """Absorb ``site`` into the left environment (computes left[site+1])."""
        if site > self._lvalid:
            raise RuntimeError(f"left environment at site {site} is stale")
        self.left[site + 1] = _absorb_left(
            self.left[site], self.bra[site], self.op[site], self.ket[site]
        )
        self._lvalid = max(self._lvalid, site + 1)

    def update_right(self, site: int):
        """Absorb ``site`` into the right environment (computes right[site])."""
        if site + 1 < self._rvalid:
            raise RuntimeError(f"right environment at site {site} is stale")
        self.right[site] = _absorb_right(
            self.right[site + 1], self.bra[site], self.op[site], self.ket[site]
        )
        self._rvalid = min(self._rvalid, site)

    def left_env(self, n: int) -> np.ndarray:
        if n > self._lvalid:
            raise RuntimeError(f"left environment {n} is stale (valid up to {self._lvalid})")
        return self.left[n]

    def right_env(self, n: int) -> np.ndarray:
        if n < self._rvalid:
            raise RuntimeError(f"right environment {n} is stale (valid from {self._rvalid})")
        return self.right[n]


def env_build(bra, op: TTMatrix, ket) -> EnvStack:
    """Stack primed for a left-to-right sweep: all right environments built."""
    stack = EnvStack(bra, op, ket)
    for site in range(stack.order - 1, -1, -1):
        stack.update_right(site)
    return stack


@functools.lru_cache(maxsize=256)
def _contraction_path(subscripts: str, *shapes) -> tuple:
    """The contraction order ``einsum(optimize=True)`` picks for operands of
    these shapes; planning it costs about as much as a small contraction, and
    a sweep repeats the same few shapes at every site."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *operands, optimize="greedy")[0])


def _planned_einsum(subscripts: str, *operands) -> np.ndarray:
    path = _contraction_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def _check_local_dim(dim: int):
    if dim > LOCAL_DIM_CAP:
        raise ValueError(
            f"local problem of size {dim} exceeds the cap {LOCAL_DIM_CAP}; reduce ranks"
        )


def _span_frame(stack: EnvStack, site: int, span: int):
    """Environments around sites ``site .. site+span-1`` and the operator
    core over them (for ``span=2`` the two cores merged, legs
    ``(p, i1, i2, j1, j2, q)``)."""
    if span not in (1, 2):
        raise ValueError(f"span must be 1 or 2, got {span}")
    if not 0 <= site <= stack.order - span:
        raise ValueError(f"site {site} out of range for span {span} on {stack.order} sites")
    env_l = stack.left_env(site)
    env_r = stack.right_env(site + span)
    op = stack.op[site]
    if span == 2:
        op = np.einsum("pabq,qcdr->pacbdr", op, stack.op[site + 1])
    return env_l, op, env_r


def effective_operator(stack: EnvStack, site: int, span: int = 1) -> np.ndarray:
    """Dense local operator over the ``span`` (1 or 2) cores starting at
    ``site``: rows pair with the vectorization of the bra core (or merged
    supercore), columns with the ket's."""
    env_l, op, env_r = _span_frame(stack, site, span)
    rows = env_l.shape[0] * math.prod(op.shape[1 : 1 + span]) * env_r.shape[0]
    cols = env_l.shape[2] * math.prod(op.shape[1 + span : -1]) * env_r.shape[2]
    _check_local_dim(max(rows, cols))
    i, j = "ik"[:span], "jl"[:span]
    h = _planned_einsum(f"apc,p{i}{j}q,bqd->a{i}bc{j}d", env_l, op, env_r)
    return h.reshape(rows, cols)


def effective_rhs(stack: EnvStack, site: int, span: int = 1) -> np.ndarray:
    """Local right-hand side over the ``span`` cores starting at ``site``:
    the stack's ket chain contracted against the bra frame,
    ``frame(bra)ᵀ · op · ket``."""
    env_l, op, env_r = _span_frame(stack, site, span)
    dim = env_l.shape[0] * math.prod(op.shape[1 : 1 + span]) * env_r.shape[0]
    _check_local_dim(dim)
    if span == 2:
        ket = np.tensordot(stack.ket[site], stack.ket[site + 1], axes=(2, 0))
        v = _planned_einsum("apc,pikjlq,cjld,bqd->aikb", env_l, op, ket, env_r)
    else:
        t = np.einsum("apc,cjd->apjd", env_l, stack.ket[site])
        t = np.einsum("apjd,pijq->aidq", t, op)
        v = np.einsum("aidq,bqd->aib", t, env_r)
    return v.reshape(dim)
