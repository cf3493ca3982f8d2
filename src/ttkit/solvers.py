"""Alternating-sweep optimizers in TT format.

All solvers share one engine: the iterate is kept mixed-canonical with an
"active" site holding the current local solution (K columns for the block
solvers); dense local problems are assembled from cached environments by
one builder, ``frames.effective_operator``/``frames.effective_rhs`` over a
span of one site or a site pair, and solved exactly.  Their size is bounded
only by ``frames.LOCAL_DIM_CAP``.  A local solve computes only the pairs the
sweep keeps: the K extreme eigenpairs (``eigh`` with ``subset_by_index``),
or for ``svd_dominant`` the top singular triplet.  A single-site step of a
K = 1 eigenproblem without a metric at a site solved before starts from the
site's current core instead: Cholesky factors of shifted local matrices
certify its Rayleigh quotient as the lowest eigenvalue, or drive inverse
iteration to one that is, and ``eigh`` runs only when three factorizations
did not settle it (see ``_lowest_pair``).  A sweep is two
half-sweeps, left to right and back, over one site schedule: each step
solves the local problem over its span, installs the solution and moves the
active site one bond on.  Because the frames are orthonormal, every local
solve of an eigen-, SVD or CCA problem can only improve the global
objective, so its per-half-sweep trajectory is monotone.  The same holds
for ``linsolve`` on symmetric positive definite operators, which it sweeps
through the energy ½xᵀAx − bᵀx; other operators go through the normal
equations, where it need not (see its docstring).

Rank policies: the default is single-site updates.  With K = 1 a move
splits the active core by QR and keeps the initial bond ranks.  With K > 1
the block index travels with the active site, and a move splits by an SVD
that keeps every singular value above the noise floor, so bond ranks can
grow, but only up to ``max_rank``: a cap below the ranks the block needs
discards nonzero weight at every move, and the objective can then cycle
instead of converging.  ``adaptive=True`` switches to two-site updates
where the merged supercore is solved and split by a truncated SVD under
``trunc_tol``/``max_rank``, letting ranks grow or shrink as needed.  Every
split goes through ``train.qr_split`` or ``train.svd_split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.linalg

from .algebra import eye_mpo, mpo_apply, mpo_mul, mpo_transpose, tt_add, tt_norm, tt_scale
from .frames import EnvStack, effective_operator, effective_rhs, env_build
from .train import (
    BlockTT,
    TruncationPolicy,
    TTMatrix,
    TTVector,
    block_extract,
    feasible_ranks,
    fix_svd_signs,
    nonzero_rank,
    orthogonalize,
    policy_rank,
    qr_split,
    svd_split,
)

__all__ = [
    "SweepConfig",
    "SolveReport",
    "eig_min",
    "eig_block",
    "svd_dominant",
    "svd_small_k",
    "gevd",
    "cca",
    "linsolve",
]

_OP_ROUND = TruncationPolicy(1e-14)  # recompression of composed operators


@dataclass
class SweepConfig:
    """Stopping rules, rank policy and seeding for the sweep solvers."""

    max_sweeps: int = 20
    objective_tol: float = 1e-8
    residual_tol: float = 1e-8
    rank: int = 8
    adaptive: bool = False
    trunc_tol: float = 1e-10
    max_rank: Optional[int] = None
    seed: int = 0
    identity_grams: bool = False  # CCA only: treat the data Grams as identity

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        for name in ("objective_tol", "residual_tol", "trunc_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be positive")


@dataclass
class SolveReport:
    """Objective trajectory (one value per half-sweep) plus convergence data."""

    sense: str = "min"
    objective: List[float] = field(default_factory=list)
    residuals: List[float] = field(default_factory=list)
    ranks: List[int] = field(default_factory=list)
    sweeps: int = 0
    converged: bool = False
    regularized: int = 0

    def is_monotone(self, slack: float = 1e-10) -> bool:
        if len(self.objective) < 2:
            return True
        traj = np.asarray(self.objective)
        allow = slack * max(1.0, float(np.max(np.abs(traj))))
        diffs = np.diff(traj)
        if self.sense == "min":
            return bool(np.all(diffs <= allow))
        return bool(np.all(diffs >= -allow))

    def to_keyvalue(self) -> str:
        lines = [
            f"sense={self.sense}",
            f"converged={'true' if self.converged else 'false'}",
            f"sweeps={self.sweeps}",
            f"objective={_fmt(self.objective[-1]) if self.objective else 'nan'}",
            "residuals=" + ",".join(_fmt(r) for r in self.residuals),
            "ranks=" + ",".join(str(r) for r in self.ranks),
            f"regularized={self.regularized}",
        ]
        return "\n".join(lines) + "\n"

    def trajectory_csv(self) -> str:
        rows = ["half_sweep,objective"]
        rows += [f"{i + 1},{_fmt(v)}" for i, v in enumerate(self.objective)]
        return "\n".join(rows) + "\n"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# the sweep engine


class _Chain:
    """Mixed-canonical working chain with the active site holding K columns.

    ``cores`` are plain 3-way arrays; the entry at ``pos`` is stale (its
    content lives in ``x``, a ``(R_left, I, R_right, K)`` block).  Cores left
    of ``pos`` are left-orthogonal, cores right of it right-orthogonal, so
    environments built from them are exact frames.
    """

    def __init__(self, modes, rank: int, k: int, rng):
        modes = [int(m) for m in modes]
        n = len(modes)
        profile = feasible_ranks(modes, [rank] * (n - 1))
        for site in range(n):
            if profile[site] * modes[site] * profile[site + 1] < k:
                # the largest local dimension any rank allows at this site
                top = feasible_ranks(modes, [math.prod(modes)] * (n - 1))
                most = top[site] * modes[site] * top[site + 1]
                advice = "increase the rank" if most >= k else f"the mode sizes allow at most {most} there"
                raise ValueError(f"K={k} exceeds the local dimension at site {site}; {advice}")
        cores = [
            rng.standard_normal((profile[j], modes[j], profile[j + 1]))
            for j in range(n)
        ]
        cores = orthogonalize(TTVector(cores, copy=False), 0).cores
        self.modes = tuple(modes)
        self.k = k
        self.cores = cores
        self.pos = 0
        ra, i, rb = cores[0].shape
        q, _ = np.linalg.qr(rng.standard_normal((ra * i * rb, k)))
        self.x = np.ascontiguousarray(q).reshape(ra, i, rb, k)

    @property
    def order(self) -> int:
        return len(self.cores)

    def ranks(self) -> list:
        return [1] + [self.x.shape[2] if j == self.pos else c.shape[2] for j, c in enumerate(self.cores)]

    def install(self, solution, step: int, span: int, policy: TruncationPolicy):
        """Install a local solution and move the active site one bond in
        direction ``step`` (+1 right, -1 left).  A solution over span 1 stays
        put at either end; otherwise it is split across the bond it leaves,
        by QR for K = 1 (the rank is kept) and by an SVD at the noise floor,
        capped at ``policy.max_rank``, for K > 1.  A solution over span 2
        covers the active site and its neighbour in that direction and is
        split by an SVD under ``policy``.  The orthonormal factor becomes the
        core left behind, and the carry the new active block."""
        k, modes = self.k, self.modes
        first = self.pos if step > 0 else self.pos - span + 1
        last = first + span - 1
        ra = (self.x if first == self.pos else self.cores[first]).shape[0]
        rc = (self.x if last == self.pos else self.cores[last]).shape[2]
        if span == 1 and not 0 <= self.pos + step < self.order:
            self.x = np.ascontiguousarray(solution).reshape(ra, modes[first], rc, k)
            return
        # rows | columns of the split: (ra, i_first) | (k, rest) moving right,
        # (ra, ..., k) | (i_last, rc) moving left
        rows = ra * modes[first] if step > 0 else ra * math.prod(modes[first:last])
        t = solution.reshape(rows, -1, k).transpose(0, 2, 1)
        m = t.reshape(rows, -1) if step > 0 else t.reshape(rows * k, -1)
        if span == 2:
            left, right = svd_split(m, step, policy_rank(policy))
        elif k > 1:
            left, right = svd_split(m, step, lambda s: nonzero_rank(s, policy.max_rank))
        else:
            left, right = qr_split(m, step)
        if step > 0:
            self.cores[first] = left.reshape(ra, modes[first], -1)
            if span == 1:
                self.x = np.einsum("skb,bjc->sjck", right.reshape(-1, k, rc), self.cores[first + 1])
            else:
                self.x = np.ascontiguousarray(right.reshape(-1, k, modes[last], rc).transpose(0, 2, 3, 1))
            self.pos = first + 1
        else:
            self.cores[last] = right.reshape(-1, modes[last], rc)
            if span == 1:
                self.x = np.einsum("zja,aks->zjsk", self.cores[last - 1], left.reshape(ra, k, -1))
            else:
                self.x = np.ascontiguousarray(left.reshape(ra, modes[first], k, -1).transpose(0, 1, 3, 2))
            self.pos = last - 1

    def snapshot(self):
        """Freeze the current iterate as a TTVector (K=1) or BlockTT."""
        cores = [c.copy() for c in self.cores]
        if self.k == 1:
            cores[self.pos] = np.ascontiguousarray(self.x[:, :, :, 0])
            return TTVector(cores, copy=False)
        cores[self.pos] = np.ascontiguousarray(self.x.transpose(0, 1, 3, 2))
        return BlockTT(cores, self.pos, copy=False)


def _run_sweeps(
    chains: List[_Chain],
    stacks: List[EnvStack],
    solve: Callable,
    residual_fn: Callable,
    config: SweepConfig,
    report: SolveReport,
):
    """Alternate half-sweeps over one site schedule until convergence.

    ``solve(site, span)`` returns the local objective and one local solution
    per chain for the ``span`` sites starting at ``site``.  A step installs
    that solution and moves the active site one bond in the sweep direction:
    with span 1 the steps cover every site and the last step of a half-sweep
    stays put; with span 2 (adaptive) they cover the pairs ``(site, site+1)``
    and always move.  Whenever the active site moves, the environments across
    the bond it crossed are refreshed.  The objective of a half-sweep is that
    of its last step.  The residuals are computed only where they are
    read: after a sweep whose objective is stable (the convergence test
    needs them) and after the last sweep (the report keeps them).

    A half-sweep starts where the previous one ended.  That step sees the
    same environments as the step before it (the install in between touched
    no environment it reads), so its local problem is solved once and the
    kept solution is installed again.
    """
    n_sites = chains[0].order
    span = 2 if config.adaptive and n_sites > 1 else 1
    policy = TruncationPolicy(config.trunc_tol, config.max_rank)
    last = n_sites - span  # last site a step starts at
    prev = None
    solved = None  # (site, objective, solutions) of the latest local solve
    for sweep in range(1, config.max_sweeps + 1):
        for step, sites in ((1, range(last + 1)), (-1, range(last, -1, -1))):
            for site in sites:
                if solved is None or solved[0] != site:
                    solved = (site, *solve(site, span))
                _, obj, sols = solved
                start = chains[0].pos
                for chain, sol in zip(chains, sols):
                    chain.install(sol, step, span, policy)
                if chains[0].pos != start:
                    bond = min(start, chains[0].pos)  # cores bond and bond+1 changed
                    for stack in stacks:
                        stack.invalidate(bond)
                        stack.invalidate(bond + 1)
                        if step > 0:
                            stack.update_left(bond)
                        else:
                            stack.update_right(bond + 1)
            report.objective.append(obj)
        report.sweeps = sweep
        current = report.objective[-1]
        stable = prev is not None and abs(current - prev) <= config.objective_tol * max(1.0, abs(current))
        prev = current
        if stable or sweep == config.max_sweeps:
            report.residuals = residual_fn()
            report.converged = stable and max(report.residuals) <= config.residual_tol
        if report.converged:
            break
    report.ranks = chains[0].ranks()


def _symmetrize(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def _shift_ladder(m: np.ndarray, attempt: Callable, report: SolveReport, what: str, tries: int = 4):
    """``attempt(m + mu·I)`` for mu = 0, then 1e-12·s, 1e-10·s, 1e-8·s, ...
    with s = max(|tr m| / dim, 1), stopping at the first success; each
    failure is counted in ``report``.  After ``tries`` failures, raises
    ``LinAlgError`` naming ``what`` and the last shift tried."""
    mu = 0.0
    for _ in range(tries):
        try:
            return attempt(m + mu * np.eye(m.shape[0]) if mu else m)
        except scipy.linalg.LinAlgError:
            report.regularized += 1
            tried = mu
            mu = max(abs(np.trace(m)) / m.shape[0], 1.0) * 1e-12 if mu == 0.0 else mu * 100.0
    raise scipy.linalg.LinAlgError(
        f"{what} stayed indefinite after regularization (last shift {tried:.3e})"
    )


def _solve_spd(h: np.ndarray, rhs: np.ndarray, report: SolveReport) -> np.ndarray:
    """SPD solve with one regularizing shift, then least squares."""
    try:
        return _shift_ladder(
            h, lambda hm: scipy.linalg.solve(hm, rhs, assume_a="pos"), report, "local system", tries=2
        )
    except scipy.linalg.LinAlgError:
        return np.linalg.lstsq(h, rhs, rcond=None)[0]


def _residual_norm(lhs: TTVector, rhs: TTVector) -> float:
    return tt_norm(tt_add(lhs, tt_scale(rhs, -1.0)))


_SYMMETRY_TOL = 1e-12  # relative ‖A − Aᵀ‖_F up to which A counts as symmetric


def _is_symmetric(op: TTMatrix) -> bool:
    """‖A − Aᵀ‖_F ≤ 1e-12·‖A‖_F, measured in TT form: each operator core
    ``(p, i, j, q)`` is read as a TT vector core ``(p, i·j, q)``."""
    if op.row_sizes != op.col_sizes:
        return False

    def flat(m: TTMatrix) -> TTVector:
        return TTVector([c.reshape(c.shape[0], -1, c.shape[3]) for c in m.cores], copy=False)

    a = flat(op)
    skew = tt_add(a, tt_scale(flat(mpo_transpose(op)), -1.0))
    return tt_norm(skew) <= _SYMMETRY_TOL * tt_norm(a)


def _require_symmetric(op: TTMatrix, name: str):
    """Reject, with a one-line ``ValueError``, an operator that a symmetric
    eigensolver would otherwise treat as its symmetric part."""
    if op.row_sizes != op.col_sizes:
        raise ValueError(f"{name} must be square (row sizes == column sizes)")
    if not _is_symmetric(op):
        raise ValueError(f"{name} is not symmetric: ||A - A^T||_F > {_SYMMETRY_TOL:g} ||A||_F")


# ---------------------------------------------------------------------------
# eigenproblems


def _lowest_pair(h: np.ndarray, start: np.ndarray):
    """Lowest eigenpair ``(w, v)`` of the symmetric ``h``, shaped as from
    ``eigh(h, subset_by_index=[0, 0])``, warm-started from ``start``.

    The Rayleigh quotient rho of the current vector bounds lambda_min from
    above; a Cholesky factor of h − (rho − delta)·I proves rho − delta <
    lambda_min, so each factorization is an inertia certificate.  delta
    starts at max(‖r‖, floor), with r the residual and floor = n·eps·‖h‖_F,
    and grows ×100 whenever the factorization fails.  A pair whose residual
    is at rounding level (√n·eps·‖h‖_F) and whose certificate holds at
    delta ≤ max(floor, ‖r‖) is returned unchanged: its value is then within
    floor of lambda_min.  Otherwise inverse iteration runs on the factor,
    and the shift moves to the new rho once the residual stops falling
    tenfold per step.  After three factorizations the answer comes from
    ``eigh``, with the factor's buffer released first."""
    n = h.shape[0]
    eps = np.finfo(h.dtype).eps
    scale = float(np.linalg.norm(h))
    floor, tol = n * eps * scale, math.sqrt(n) * eps * scale

    def rayleigh(x):
        hx = h @ x
        rho = float(x @ hx)
        hx -= rho * x
        return rho, float(np.linalg.norm(hx))

    x = start / np.linalg.norm(start)
    rho, res = rayleigh(x)
    delta = max(res, floor)
    work = np.empty_like(h)
    factor = None
    for _ in range(3):
        np.copyto(work, h)
        work.reshape(-1)[:: n + 1] -= rho - delta
        try:
            factor = scipy.linalg.cholesky(work.T, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            delta *= 100.0
            continue
        if res <= tol and delta <= max(floor, res):
            return np.array([rho]), x[:, None]
        while True:  # inverse iteration on (h − (rho − delta)·I) = factorᵀ·factor
            y = scipy.linalg.solve_triangular(factor, x, trans="T", check_finite=False)
            y = scipy.linalg.solve_triangular(factor, y, check_finite=False)
            x = y / np.linalg.norm(y)
            last = res
            rho, res = rayleigh(x)
            if not tol < res <= 0.1 * last:
                break
        delta = max(res, floor)
    work = factor = None
    return scipy.linalg.eigh(h, subset_by_index=[0, 0])


def _block_eig(
    op: TTMatrix,
    k: int,
    config: SweepConfig,
    metric: Optional[TTMatrix] = None,
):
    rng = np.random.default_rng(config.seed)
    chain = _Chain(op.row_sizes, config.rank, k, rng)
    stacks = [env_build(chain.cores, op, chain.cores)]
    if metric is not None:
        if metric.row_sizes != op.row_sizes or metric.col_sizes != op.col_sizes:
            raise ValueError("metric operator must match the main operator's shape")
        stacks.append(env_build(chain.cores, metric, chain.cores))
    report = SolveReport(sense="min")
    state = {"values": np.zeros(k)}
    solved = set()  # sites solved before: their core is a warm start

    def solve(site, span):
        h = _symmetrize(effective_operator(stacks[0], site, span))
        if h.shape[0] < k:
            raise ValueError(f"local dimension {h.shape[0]} cannot hold K={k} vectors")
        kept = [0, k - 1]
        if metric is None and k == 1 and span == 1 and site in solved:
            w, v = _lowest_pair(h, chain.x.reshape(-1))
        elif metric is None:
            w, v = scipy.linalg.eigh(h, subset_by_index=kept)
        else:
            b = _symmetrize(effective_operator(stacks[1], site, span))
            w, v = _shift_ladder(
                b, lambda bm: scipy.linalg.eigh(h, bm, subset_by_index=kept), report, "local metric"
            )
        solved.add(site)
        state["values"] = w
        return float(np.sum(w)), [v]

    def residual():
        vectors = _block_columns(chain.snapshot())
        out = []
        for lam, vec in zip(state["values"], vectors):
            left = mpo_apply(op, vec)
            right = (
                tt_scale(mpo_apply(metric, vec), lam)
                if metric is not None
                else tt_scale(vec, lam)
            )
            out.append(_residual_norm(left, right) / max(1.0, abs(lam)))
        return out

    _run_sweeps([chain], stacks, solve, residual, config, report)
    snap = chain.snapshot()
    return state["values"], snap, report


def _block_columns(snap):
    if isinstance(snap, TTVector):
        return [snap]
    return [block_extract(snap, j) for j in range(snap.num_vectors)]


def _as_block(snap) -> BlockTT:
    if isinstance(snap, BlockTT):
        return snap
    last = len(snap.cores) - 1
    cores = [c[:, :, None, :] if j == last else c for j, c in enumerate(snap.cores)]
    return BlockTT(cores, last)


def eig_min(op: TTMatrix, config: SweepConfig = SweepConfig()):
    """Smallest eigenvalue and eigenvector of a symmetric operator.

    Sweeps minimize the Rayleigh quotient through the dense local operator at
    each site; the returned vector is unit-norm.  A site's first visit solves
    its local problem with a dense ``eigh``.  Later single-site visits start
    from the site's current core, which is usually already the local
    minimizer: a Cholesky factorization of the local operator shifted just
    below the core's Rayleigh quotient proves that no lower eigenvalue
    exists, and otherwise inverse iteration on that factor improves the
    core; ``eigh`` is the fallback.  An operator that is not symmetric
    (‖A − Aᵀ‖_F > 1e-12·‖A‖_F, checked in TT form) raises ``ValueError``.
    """
    _require_symmetric(op, "operator")
    values, snap, report = _block_eig(op, 1, config)
    return float(values[0]), snap, report


def eig_block(op: TTMatrix, k: int, config: SweepConfig = SweepConfig()):
    """K smallest eigenvalues (ascending) with jointly represented
    eigenvectors in block TT form; local trace problems keep the K columns
    orthonormal, which transfers to the global vectors.  A non-symmetric
    operator raises ``ValueError``, as in :func:`eig_min`."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _require_symmetric(op, "operator")
    values, snap, report = _block_eig(op, k, config)
    return np.asarray(values), _as_block(snap), report


def svd_small_k(op: TTMatrix, k: int, config: SweepConfig = SweepConfig()):
    """K smallest singular values (ascending) via the Gram route: block
    eigenproblem on transpose(A)·A (kept in TT form, never dense).

    The sweeps, their trajectory and the convergence test run on the Ritz
    values of AᵀA, whose small ones carry an absolute error of about
    eps·σ₁²/σ_k.  The returned values are therefore taken from A itself,
    σ_k = ‖A·v_k‖ / ‖v_k‖ for each returned right singular vector v_k; the
    block columns are reordered with them."""
    gram = mpo_mul(mpo_transpose(op), op, _OP_ROUND)
    _, snap, report = _block_eig(gram, k, config)
    block = _as_block(snap)
    sigmas = np.array([tt_norm(mpo_apply(op, v)) / tt_norm(v) for v in _block_columns(snap)])
    order = np.argsort(sigmas, kind="stable")
    cores = list(block.cores)
    cores[block.position] = cores[block.position][:, :, order, :]
    return sigmas[order], BlockTT(cores, block.position, copy=False), report


def gevd(
    x_op: TTMatrix,
    a_op: TTMatrix,
    b_op: TTMatrix,
    k: int,
    config: SweepConfig = SweepConfig(),
):
    """Generalized trace minimization: K smallest eigenpairs of the pencil
    (X·A·Xᵀ, B) with B-orthonormal block eigenvectors.

    The sandwich X·A·Xᵀ is composed in TT form; indefinite local metrics are
    shifted by a tiny multiple of the identity (counted in the report).  A
    non-symmetric A or B raises ``ValueError``, as in :func:`eig_min`.
    """
    if a_op.row_sizes != x_op.col_sizes or a_op.col_sizes != x_op.col_sizes:
        raise ValueError("inner operator must act on the sandwich's column space")
    if b_op.row_sizes != x_op.row_sizes or b_op.col_sizes != x_op.row_sizes:
        raise ValueError("metric must act on the sandwich's row space")
    _require_symmetric(a_op, "inner operator")
    _require_symmetric(b_op, "metric operator")
    m_op = mpo_mul(mpo_mul(x_op, a_op, _OP_ROUND), mpo_transpose(x_op), _OP_ROUND)
    values, snap, report = _block_eig(m_op, k, config, metric=b_op)
    return np.asarray(values), _as_block(snap), report


# ---------------------------------------------------------------------------
# singular triplets


def _top_singular_triplet(c: np.ndarray):
    """``(sigma, u, v)`` for the largest singular value of ``c``, from the top
    eigenpair of its smaller Gram matrix (cᵀc when c is tall, c·cᵀ when
    wide).  This is safe for the top pair only: sigma_1² comes out to a
    relative error of eps, so sigma_1 = ‖c·v‖ loses nothing, and the vector
    error is governed by sigma_1 / (sigma_1 - sigma_2) as in a direct SVD.
    A smaller sigma_k would only be found to an absolute error of about
    eps·sigma_1²/sigma_k, so the route does not extend to K > 1.  When
    the Gram matrix could overflow or underflow (max|c| beyond 2^±400), c is
    scaled by a power of two, which is exact; not otherwise, because LAPACK's
    eigensolvers are not bitwise invariant under scaling."""
    tall = c.shape[0] >= c.shape[1]
    exp = np.frexp(np.abs(c).max())[1]
    if abs(exp) <= 400:
        exp = 0
    a = np.ldexp(c if tall else c.T, -exp)
    n = a.shape[1]
    _, near = scipy.linalg.eigh(a.T @ a, subset_by_index=[n - 1, n - 1])
    far = a @ near
    sigma = float(np.linalg.norm(far))
    if sigma == 0.0:  # c == 0: every unit vector is a singular vector
        far[0] = 1.0
    else:
        far /= sigma
    u, v = (far, near) if tall else (near, far)
    u, vt = fix_svd_signs(u, v.T)
    return float(np.ldexp(sigma, exp)), u, vt.T


def svd_dominant(op: TTMatrix, config: SweepConfig = SweepConfig()):
    """Largest singular triplet via alternating maximization of uᵀ·A·v with
    unit-norm TT factors.  Each site takes the top singular triplet of its
    dense local cross matrix from the top eigenpair of the smaller Gram
    matrix, which costs no digits for the top pair (see
    ``_top_singular_triplet``)."""
    rng = np.random.default_rng(config.seed)
    u_chain = _Chain(op.row_sizes, config.rank, 1, rng)
    v_chain = _Chain(op.col_sizes, config.rank, 1, rng)
    stack = env_build(u_chain.cores, op, v_chain.cores)
    op_t = mpo_transpose(op)
    report = SolveReport(sense="max")
    state = {"sigma": 0.0}

    def solve(site, span):
        sigma, u1, v1 = _top_singular_triplet(effective_operator(stack, site, span))
        state["sigma"] = sigma
        return sigma, [u1, v1]

    def residual():
        sigma = state["sigma"]
        u = u_chain.snapshot()
        v = v_chain.snapshot()
        scale = max(1.0, sigma)
        r1 = _residual_norm(mpo_apply(op, v), tt_scale(u, sigma)) / scale
        r2 = _residual_norm(mpo_apply(op_t, u), tt_scale(v, sigma)) / scale
        return [r1, r2]

    _run_sweeps([u_chain, v_chain], [stack], solve, residual, config, report)
    return state["sigma"], u_chain.snapshot(), v_chain.snapshot(), report


# ---------------------------------------------------------------------------
# canonical correlation analysis


def cca(
    x_op: TTMatrix,
    y_op: TTMatrix,
    k: int,
    config: SweepConfig = SweepConfig(),
):
    """K leading canonical correlations of two data operators sharing their
    observation space.

    Local problems are whitened: Cholesky factors of the local Gram
    sandwiches, SVD of the whitened cross matrix.  With
    ``config.identity_grams`` the data Grams are replaced by identities
    (plain unit-norm constraints on the canonical vectors).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if x_op.col_sizes != y_op.col_sizes:
        raise ValueError("the two operators must share the observation modes")
    if x_op.order != y_op.order:
        raise ValueError("the two operators must have the same chain length")
    cross = mpo_mul(x_op, mpo_transpose(y_op), _OP_ROUND)
    rng = np.random.default_rng(config.seed)
    wx = _Chain(x_op.row_sizes, config.rank, k, rng)
    wy = _Chain(y_op.row_sizes, config.rank, k, rng)
    stacks = [env_build(wx.cores, cross, wy.cores)]
    if not config.identity_grams:  # the Grams are read only when whitening
        stacks += [
            env_build(w.cores, mpo_mul(op, mpo_transpose(op), _OP_ROUND), w.cores)
            for w, op in ((wx, x_op), (wy, y_op))
        ]
    report = SolveReport(sense="max")
    state = {"corr": np.zeros(k), "constraint": 0.0}

    def solve(site, span):
        c_loc = effective_operator(stacks[0], site, span)
        if min(c_loc.shape) < k:
            raise ValueError(f"local dimension {c_loc.shape} cannot hold K={k}")
        if config.identity_grams:
            uu, ss, vvt = scipy.linalg.svd(c_loc, full_matrices=False)
            wx_loc, wy_loc = uu[:, :k], vvt[:k].T
        else:
            g_x, g_y = (_symmetrize(effective_operator(st, site, span)) for st in stacks[1:])
            l_x, l_y = (
                _shift_ladder(
                    g, lambda gm: scipy.linalg.cholesky(gm, lower=True), report, "local Gram matrix"
                )
                for g in (g_x, g_y)
            )
            m = scipy.linalg.solve_triangular(l_x, c_loc, lower=True)
            m = scipy.linalg.solve_triangular(l_y, m.T, lower=True).T
            uu, ss, vvt = scipy.linalg.svd(m, full_matrices=False)
            wx_loc = scipy.linalg.solve_triangular(l_x.T, uu[:, :k], lower=False)
            wy_loc = scipy.linalg.solve_triangular(l_y.T, vvt[:k].T, lower=False)
        wx_loc, wy_t = fix_svd_signs(wx_loc, wy_loc.T)
        wy_loc = wy_t.T
        state["corr"] = ss[:k].copy()
        if config.identity_grams:
            cons_x = wx_loc.T @ wx_loc - np.eye(k)
            cons_y = wy_loc.T @ wy_loc - np.eye(k)
        else:
            cons_x = wx_loc.T @ g_x @ wx_loc - np.eye(k)
            cons_y = wy_loc.T @ g_y @ wy_loc - np.eye(k)
        state["constraint"] = float(
            max(np.max(np.abs(cons_x)), np.max(np.abs(cons_y)))
        )
        return float(np.sum(ss[:k])), [wx_loc, wy_loc]

    def residual():
        return [state["constraint"]]

    _run_sweeps([wx, wy], stacks, solve, residual, config, report)
    return state["corr"], _as_block(wx.snapshot()), _as_block(wy.snapshot()), report


# ---------------------------------------------------------------------------
# linear systems


def _linear_sweeps(op: TTMatrix, rhs: TTVector, config: SweepConfig, energy: bool):
    """Sweep the local systems of op·x = rhs: on the energy route those of A
    itself, where a local system without a Cholesky factor raises
    ``LinAlgError``; otherwise those of the normal equations."""
    rng = np.random.default_rng(config.seed)
    chain = _Chain(op.col_sizes, config.rank, 1, rng)
    if energy:
        lhs_op, rhs_op = op, eye_mpo(op.row_sizes)
    else:
        rhs_op = mpo_transpose(op)
        lhs_op = mpo_mul(rhs_op, op, _OP_ROUND)
    stacks = [env_build(chain.cores, lhs_op, chain.cores), env_build(chain.cores, rhs_op, rhs.cores)]
    s_op, s_rhs = stacks
    rhs_norm = tt_norm(rhs)
    report = SolveReport(sense="min")

    def solve(site, span):
        h = _symmetrize(effective_operator(s_op, site, span))
        b = effective_rhs(s_rhs, site, span)
        z = scipy.linalg.solve(h, b, assume_a="pos") if energy else _solve_spd(h, b, report)
        objective = float(z @ (h @ z) - 2.0 * (z @ b))
        return objective, [z[:, None]]

    def residual():
        x = chain.snapshot()
        return [_residual_norm(mpo_apply(op, x), rhs) / max(rhs_norm, 1e-300)]

    _run_sweeps([chain], stacks, solve, residual, config, report)
    return chain.snapshot(), report


def linsolve(op: TTMatrix, rhs: TTVector, config: SweepConfig = SweepConfig()):
    """Solve op·x = rhs, or op·x ≅ rhs in the least-squares sense.

    A symmetric operator (‖A − Aᵀ‖_F ≤ 1e-12·‖A‖_F, checked in TT form)
    takes the energy route: sweeps minimize ½xᵀAx − bᵀx, each local system
    is the projection FᵀAF of A onto the frame F, solved by Cholesky.  For
    symmetric positive definite A every such projection is positive
    definite, so the trajectory is monotone and the accuracy is that of
    cond(A), not cond(A)².  The first local system without a Cholesky factor
    proves A indefinite or singular; the run then starts again from the same
    seed on the normal-equation route.

    The normal-equation route serves every other operator, rectangular ones
    included: local systems use the Gram operator transpose(A)·A (composed
    in TT form) and the projected right-hand side; singular local systems
    fall back to a regularized solve, counted in the report.  Squaring the
    condition number costs accuracy: on ill-conditioned operators the
    trajectory need not be monotone and the residual can stall above
    ``residual_tol``.

    With ``adaptive=True`` the two-site splits truncate under ``trunc_tol``,
    and the residual cannot fall much below what that truncation leaves, so
    keep ``trunc_tol`` well below ``residual_tol``.  With the defaults (1e-10
    and 1e-8) the 2-D 32×32 Laplacian with a ones right-hand side and
    ``max_rank=16`` stalls at a residual of 1.7e-8 and runs all its sweeps;
    with ``trunc_tol=1e-12`` it converges in 2.
    """
    if op.row_sizes != rhs.mode_sizes:
        raise ValueError(
            f"operator rows {op.row_sizes} do not match rhs modes {rhs.mode_sizes}"
        )
    if _is_symmetric(op):
        try:
            return _linear_sweeps(op, rhs, config, energy=True)
        except scipy.linalg.LinAlgError:
            pass  # A is not positive definite
    return _linear_sweeps(op, rhs, config, energy=False)
