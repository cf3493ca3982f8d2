"""The cached environment blocks that all sweep solvers consume, and the
local problems built from them.

An environment is the partial contraction ``<bra| op |ket>`` of the sites
left or right of a bond.  With the other cores in mixed-canonical form the
environments act as exact frames, so a solver never forms the frame matrix
that maps a core to the full vectorized tensor.

Local problems come from one builder pair, :func:`effective_operator` and
:func:`effective_rhs`, over a span of one core or two merged cores; both
refuse problems larger than ``LOCAL_DIM_CAP``, read at call time.  A span of
two is read as one core with fused site indices, so each builder has one
contraction for both spans.
"""

from __future__ import annotations

import functools

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
    return x  # a list of cores, shared on purpose: sweeps mutate cores in place


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


def _check_local_dim(dim: int):
    if dim > LOCAL_DIM_CAP:
        raise ValueError(
            f"local problem of size {dim} exceeds the cap {LOCAL_DIM_CAP}; reduce ranks"
        )


def _span_frame(stack: EnvStack, site: int, span: int):
    """Environments around sites ``site .. site+span-1`` and the operator
    core over them, legs ``(p, i, j, q)``; for ``span=2`` the two cores are
    merged and their row and column indices fused (``i = i1·i2``)."""
    if span not in (1, 2):
        raise ValueError(f"span must be 1 or 2, got {span}")
    if not 0 <= site <= stack.order - span:
        raise ValueError(f"site {site} out of range for span {span} on {stack.order} sites")
    env_l = stack.left_env(site)
    env_r = stack.right_env(site + span)
    op = stack.op[site]
    if span == 2:
        op = np.einsum("pabq,qcdr->pacbdr", op, stack.op[site + 1])
        p, i1, i2, j1, j2, r = op.shape
        op = op.reshape(p, i1 * i2, j1 * j2, r)
    return env_l, op, env_r


def effective_operator(stack: EnvStack, site: int, span: int = 1) -> np.ndarray:
    """Dense local operator over the ``span`` (1 or 2) cores starting at
    ``site``: rows pair with the vectorization of the bra core (or merged
    supercore), columns with the ket's.

    The result is Fortran-ordered: one broadcast ``matmul`` writes its
    transpose in C order, so no full-size transposing copy is made.  The
    environment contracted first is the one ``einsum``'s greedy planner
    picks for these shapes, and its values are those of
    ``einsum("apc,pijq,bqd->aibcjd")``."""
    env_l, op, env_r = _span_frame(stack, site, span)
    (a, p, c), (_, i, j, _), (b, q, d) = env_l.shape, op.shape, env_r.shape
    _check_local_dim(max(a * i * b, c * j * d))
    # the plan reads ("einsum_path", first pair, second pair)
    first = _contraction_path("apc,pijq,bqd->aibcjd", env_l.shape, op.shape, env_r.shape)[1]
    # h.T as (c, j, d, a, i, b): batches (c, j, d) of one small product each
    if first == (0, 1):  # the left environment first, then q: (a·i, q) @ (q, b)
        t = np.tensordot(env_l, op, axes=(1, 0))  # (a, c, i, j, q)
        t = np.ascontiguousarray(t.transpose(1, 3, 0, 2, 4)).reshape(c, j, 1, a * i, q)
        h_t = np.matmul(t, np.ascontiguousarray(env_r.transpose(2, 1, 0)))
    else:  # the right environment first, then p: (a, p) @ (p, i·b)
        t = np.tensordot(op, env_r, axes=(3, 1))  # (p, i, j, b, d)
        t = np.ascontiguousarray(t.transpose(2, 4, 0, 1, 3)).reshape(j, d, p, i * b)
        h_t = np.matmul(np.ascontiguousarray(env_l.transpose(2, 0, 1))[:, None, None], t)
    return h_t.reshape(c * j * d, a * i * b).T


def effective_rhs(stack: EnvStack, site: int, span: int = 1) -> np.ndarray:
    """Local right-hand side over the ``span`` cores starting at ``site``:
    the stack's ket chain contracted against the bra frame,
    ``frame(bra)ᵀ · op · ket``.  Two ket cores are merged first, so both
    spans run the same chain of three contractions."""
    env_l, op, env_r = _span_frame(stack, site, span)
    dim = env_l.shape[0] * op.shape[1] * env_r.shape[0]
    _check_local_dim(dim)
    ket = stack.ket[site]
    if span == 2:
        ket = np.tensordot(ket, stack.ket[site + 1], axes=(2, 0))
        ket = ket.reshape(ket.shape[0], -1, ket.shape[-1])
    t = np.einsum("apc,cjd->apjd", env_l, ket)
    t = np.einsum("apjd,pijq->aidq", t, op)
    return np.einsum("aidq,bqd->aib", t, env_r).reshape(dim)
