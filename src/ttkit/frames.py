"""The cached environment blocks that all sweep solvers consume, and the
local problems built from them.

An environment is the partial contraction ``<bra| op |ket>`` of the sites
left or right of a bond.  With the other cores in mixed-canonical form the
environments act as exact frames, so a solver never forms the frame matrix
that maps a core to the full vectorized tensor.

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
    "LOCAL_DIM_CAP",
    "EnvStack",
    "env_build",
    "effective_operator",
    "effective_rhs",
]

LOCAL_DIM_CAP = 4096


def _cores_of(x) -> list:
    if isinstance(x, (TTVector, TTMatrix)):
        return x.cores
    if isinstance(x, list):
        return x  # shared on purpose: sweeps mutate cores in place
    return list(x)


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
