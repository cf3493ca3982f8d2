"""Alternating-sweep optimizers in TT format.

All seven solvers share one engine and one local-problem interface.  The
iterate is kept mixed-canonical with an "active" site holding the current
local solution (K columns for the block solvers).  A solver hands
``_run_sweeps`` its chains, ``(EnvStack, builder)`` pairs (builder
``frames.effective_operator`` or ``frames.effective_rhs``) and
``solve(site, span, mats)``: each step assembles the pairs' dense local
matrices over one site or a site pair, refuses a problem too small for K
vectors and solves it exactly by ``solve``, whose last values go to the
residual and are returned.  Their size is bounded only by
``frames.LOCAL_DIM_CAP``.  A local solve computes only the pairs the sweep
keeps: the K lowest eigenpairs (``eigh`` with ``subset_by_index``), of ±AᵀA
on the one SVD route, ``_svd``.  A single-site step of a K = 1 eigenproblem
without a metric at a site solved before starts from the site's current
core instead: Cholesky factors of shifted local matrices certify its
Rayleigh quotient as the lowest eigenvalue, or drive inverse iteration to
one that is, and ``eigh`` runs only when three factorizations did not
settle it (see ``_lowest_pair``).  Such runs build their start by one sweep
at rank ⌈R/2⌉ and pad its cores to rank R with the vector unchanged
(``_Chain.pad``), so the dense first-visit ``eigh`` calls run at the half
rank and every rank-R step starts warm; that sweep is not counted in
``max_sweeps`` or reported.  A sweep is two half-sweeps, left to right and
back, over one site schedule: each step solves the local problem over its
span, installs the solution and moves the active site one bond on.  A run
ends after a right-to-left half-sweep, so every iterate comes back as a
TT matrix with its K columns on site 0 (``_Chain.snapshot``), whatever K
is; ``eig_min``, ``svd_dominant`` and ``linsolve`` return its column 0.
Because the frames are orthonormal, every local solve of an eigen-, SVD or
CCA problem can only improve the global objective, so its per-half-sweep
trajectory is monotone.  The same holds for ``linsolve`` on symmetric
positive definite operators, which it sweeps through the energy
½xᵀAx − bᵀx; other operators go through the normal equations, where it need
not (see its docstring).  Local matrices come Fortran-ordered from
``frames.effective_operator``.  Every local matrix that is symmetric by
construction (an operator, a metric or a Gram) is read by its lower
triangle alone, never averaged: ``eigh`` and the Cholesky factors read it
there, ``_lowest_pair``'s products use ``dsymv(..., lower=1)`` on h itself,
and the other products ``dsymv``/``dsymm`` on ``h.T``, whose upper triangle
it is.

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
from .frames import effective_operator, effective_rhs, env_build
from .train import (
    TruncationPolicy,
    TTMatrix,
    TTVector,
    _check_count,
    _check_real,
    _fused,
    _unit_scaled,
    block_extract,
    feasible_ranks,
    fix_svd_signs,
    nonzero_rank,
    orthogonalize,
    policy_rank,
    qr_split,
    random_tt,
    svd_split,
    tt_round,
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
    """Stopping rules, rank policy and seeding for the sweep solvers.  A run
    has converged once its objective changed by at most ``tol``·max(1,
    |objective|) over a sweep and every residual it reports is at most
    ``tol``; it stops then, or after ``max_sweeps`` sweeps."""

    max_sweeps: int = 20
    tol: float = 1e-8
    rank: int = 8
    adaptive: bool = False
    trunc_tol: float = 1e-10
    max_rank: Optional[int] = None
    seed: int = 0
    identity_grams: bool = False  # CCA only: treat the data Grams as identity

    def __post_init__(self):
        for name in ("tol", "trunc_tol"):
            _check_real(name, getattr(self, name), positive=True)
        for name in ("adaptive", "identity_grams"):  # Python's or numpy's bools
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)}")
        for name, least in (("max_sweeps", 1), ("rank", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        if self.max_rank is not None:
            _check_count("max_rank", self.max_rank, 1)


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
        _check_count("k", k)
        if k < 1:
            raise ValueError("k must be at least 1")
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
        cores = orthogonalize(random_tt(modes, [rank] * (n - 1), rng), 0).cores
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

    def pad(self, rank: int, rng):
        """Raise the bond ranks of a K = 1 chain to the feasible profile of
        ``rank`` without changing the vector it represents, and leave it
        right-orthogonal with the active site at 0.  Each core gains zero
        columns on its right bond and rows drawn from ``rng`` on its left
        bond; those rows meet the zero columns of the core before, so they
        change nothing but give the new bond directions full rank.
        Environments built on the old cores are stale."""
        profile = feasible_ranks(self.modes, [rank] * (self.order - 1))
        cores = []
        for j, core in enumerate(self.cores):
            if j == self.pos:
                core = self.x[:, :, :, 0]
            ra, i, rb = core.shape
            padded = np.zeros((profile[j], i, profile[j + 1]))
            padded[:ra, :, :rb] = core
            padded[ra:] = rng.standard_normal((profile[j] - ra, i, profile[j + 1]))
            cores.append(padded)
        self.cores = orthogonalize(TTVector(cores, copy=False), 0).cores
        self.pos = 0
        self.x = self.cores[0][:, :, :, None].copy()

    def snapshot(self) -> TTMatrix:
        """Freeze the current iterate, for every K, as a TT matrix whose K
        columns sit on the active site, column size 1 everywhere else; after
        a full sweep that is site 0.  A K = 1 vector is its column 0
        (``train.block_extract``)."""
        cores = [c[:, :, None, :].copy() for c in self.cores]
        cores[self.pos] = np.ascontiguousarray(self.x.transpose(0, 1, 3, 2))
        return TTMatrix(cores, copy=False)


def _half_sweeps(chains: List[_Chain], problems: List[tuple], solve: Callable, config: SweepConfig):
    """Alternate half-sweeps over one site schedule, left to right and back,
    and yield the objective and the values after each.

    A step assembles ``build(stack, site, span)`` for each ``(stack, build)``
    of ``problems`` over the ``span`` sites starting at ``site``, refuses a
    local dimension below the chains' K, and passes the matrices, in that
    order, to ``solve(site, span, mats)``.  That returns the local objective,
    one local solution per chain and the step's values (whatever the
    caller's residual reads).  The step installs the solutions and moves the
    active site one bond in the sweep direction: with span 1 the steps cover
    every site and the last step of a half-sweep stays put; with span 2
    (adaptive) they cover the pairs ``(site, site+1)`` and always move.
    Whenever the active site moves, the environments across the bond it
    crossed are refreshed.  The objective and values of a half-sweep are
    those of its last step.

    A half-sweep starts where the previous one ended.  That step sees the
    same environments as the step before it (the install in between touched
    no environment it reads), so its local problem is solved once and the
    kept solution is installed again.
    """
    n_sites, k = chains[0].order, chains[0].k
    span = 2 if config.adaptive and n_sites > 1 else 1
    policy = TruncationPolicy(config.trunc_tol, config.max_rank)
    last = n_sites - span  # last site a step starts at
    solved = None  # (site, objective, solutions, values) of the latest local solve
    while True:
        for step, sites in ((1, range(last + 1)), (-1, range(last, -1, -1))):
            for site in sites:
                if solved is None or solved[0] != site:
                    mats = [build(stack, site, span) for stack, build in problems]
                    dim = min(min(m.shape) for m in mats)
                    if dim < k:
                        raise ValueError(f"local dimension {dim} cannot hold K={k} vectors")
                    solved = (site, *solve(site, span, mats))
                    del mats  # not held while the next step assembles its own
                _, obj, sols, values = solved
                start = chains[0].pos
                for chain, sol in zip(chains, sols):
                    chain.install(sol, step, span, policy)
                if chains[0].pos != start:
                    bond = min(start, chains[0].pos)  # cores bond and bond+1 changed
                    for stack, _ in problems:
                        stack.invalidate(bond)
                        stack.invalidate(bond + 1)
                        if step > 0:
                            stack.update_left(bond)
                        else:
                            stack.update_right(bond + 1)
            yield obj, values


def _run_sweeps(
    chains: List[_Chain],
    problems: List[tuple],
    solve: Callable,
    residual_fn: Callable,
    config: SweepConfig,
    report: SolveReport,
):
    """Sweep (see ``_half_sweeps``) until convergence or ``max_sweeps``,
    recording each half-sweep's objective in ``report``; returns the last
    step's values.  The residuals, ``residual_fn`` of those values, are
    computed only where they are read: after a sweep whose objective is
    stable (the convergence test needs them) and after the last sweep (the
    report keeps them)."""
    half_sweeps = _half_sweeps(chains, problems, solve, config)
    prev = None
    for sweep in range(1, config.max_sweeps + 1):
        (first, _), (current, values) = next(half_sweeps), next(half_sweeps)
        report.objective += [first, current]
        report.sweeps = sweep
        stable = prev is not None and abs(current - prev) <= config.tol * max(1.0, abs(current))
        prev = current
        if stable or sweep == config.max_sweeps:
            report.residuals = residual_fn(values)
            report.converged = stable and max(report.residuals) <= config.tol
        if report.converged:
            break
    report.ranks = chains[0].ranks()
    return values


def _shift_ladder(m: np.ndarray, attempt: Callable, report: SolveReport, what: str):
    """``attempt(m + mu·I)`` for mu = 0, 1e-12·s, 1e-10·s and 1e-8·s, with
    s = max(|tr m| / dim, 1), stopping at the first success; each failure is
    counted in ``report``.  After four failures, raises ``LinAlgError``
    naming ``what`` and the last shift tried."""
    mu = 0.0
    for _ in range(4):
        try:
            return attempt(m + mu * np.eye(m.shape[0]) if mu else m)
        except scipy.linalg.LinAlgError:
            report.regularized += 1
            tried = mu
            mu = max(abs(np.trace(m)) / m.shape[0], 1.0) * 1e-12 if mu == 0.0 else mu * 100.0
    raise scipy.linalg.LinAlgError(
        f"{what} stayed indefinite after regularization (last shift {tried:.3e})"
    )


def _cholesky_solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve h·z = rhs by a Cholesky factor of h's lower triangle, read as
    the upper one of ``h.T``; ``LinAlgError`` when there is none.  No
    condition estimate is made, so an ill-conditioned but factorable h gives
    no ``LinAlgWarning``."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(h.T), rhs)


def _residual_norm(lhs: TTVector, rhs: TTVector) -> float:
    return tt_norm(tt_add(lhs, tt_scale(rhs, -1.0)))


_SYMMETRY_TOL = 1e-12  # relative ‖A − Aᵀ‖_F up to which A counts as symmetric


def _is_symmetric(op: TTMatrix) -> bool:
    """‖A − Aᵀ‖_F ≤ 1e-12·‖A‖_F, measured in TT form (on ``train._fused``)."""
    if op.row_sizes != op.col_sizes:
        return False
    a = _fused(op)
    skew = tt_add(a, tt_scale(_fused(mpo_transpose(op)), -1.0))
    return tt_norm(skew) <= _SYMMETRY_TOL * tt_norm(a)


def _require_symmetric(op: TTMatrix, name: str):
    """Reject, with a one-line ``ValueError``, an operator that a symmetric
    eigensolver would otherwise read by its lower triangle alone."""
    if op.row_sizes != op.col_sizes:
        raise ValueError(f"{name} must be square (row sizes == column sizes)")
    if not _is_symmetric(op):
        raise ValueError(f"{name} is not symmetric: ||A - A^T||_F > {_SYMMETRY_TOL:g} ||A||_F")


# ---------------------------------------------------------------------------
# eigenproblems


def _lowest_pair(h: np.ndarray, start: np.ndarray):
    """Lowest eigenpair ``(w, v)`` of the symmetric matrix whose lower
    triangle is that of ``h``, shaped as from ``eigh(h, subset_by_index=[0,
    0])``, warm-started from ``start``.

    The Rayleigh quotient rho of the current vector bounds lambda_min from
    above.  A Cholesky factor of h − sigma·I, sigma = rho − delta (LAPACK's
    lower ``dpotrf`` on a Fortran-ordered copy, other triangle left as it
    was), proves sigma < lambda_min, so each factorization is an inertia
    certificate.  The pair in hand is returned once its residual r is at
    rounding level, ‖r‖ ≤ tol = √n·eps·‖h‖_F, and rho − sigma ≤ floor +
    ‖r‖ for the sigma of the factor in hand, with floor = n·eps·‖h‖_F: its
    value is then within floor + tol of lambda_min.  This is tested after
    the factorization and after every inverse iteration step on it.  delta
    starts at max(‖r‖, floor) and grows ×100 whenever the factorization
    fails.  Once the residual stops falling tenfold per step, or reaches
    tol without the certificate, the shift moves to the new rho with delta
    = max(min(‖r‖, 10‖r‖²/g), floor), where the gap g to the next
    eigenvalue is read off the last contraction rate c as (rho −
    sigma)(1 − c)/c.  After three factorizations the answer comes from
    ``eigh``, with the factor's buffer released first.

    An h whose ‖h‖_F lies outside (2^-400, 2^400), where that norm and the
    residual norms square past the float range, is solved scaled by its
    exact power of two (``train._unit_scaled``), and w is scaled back."""
    h = np.asfortranarray(h)  # dsymv and the factor read it with no copy
    n = h.shape[0]
    eps = np.finfo(h.dtype).eps
    with np.errstate(over="ignore"):  # an inf norm is rescaled below
        scale = float(np.linalg.norm(h))  # whole matrix: only a tolerance scale
    if not 2.0**-400 < scale < 2.0**400:
        scaled, exp = _unit_scaled(h)
        if exp:  # 0 for the zero matrix, which needs no scaling
            w, v = _lowest_pair(scaled, start)
            return np.ldexp(w, exp), v
    floor, tol = n * eps * scale, math.sqrt(n) * eps * scale

    def rayleigh(x):
        hx = scipy.linalg.blas.dsymv(1.0, h, x, lower=1)
        rho = float(x @ hx)
        hx -= rho * x
        return rho, float(np.linalg.norm(hx))

    x = start / np.linalg.norm(start)
    rho, res = rayleigh(x)
    delta = max(res, floor)
    work = np.empty_like(h, order="F")
    for _ in range(3):
        sigma = rho - delta
        np.copyto(work, h)
        work.reshape(-1, order="F")[:: n + 1] -= sigma
        _, info = scipy.linalg.lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
        if info:
            delta *= 100.0
            continue
        last = math.inf
        while True:  # inverse iteration on h − sigma·I = L·Lᵀ
            if res <= tol and rho - sigma <= floor + res:
                return np.array([rho]), x[:, None]
            if last < math.inf and not tol < res <= 0.1 * last:
                break  # stalled, or at tol without the certificate: re-shift
            y = scipy.linalg.blas.dtrsv(work, x, lower=1)
            y = scipy.linalg.blas.dtrsv(work, y, lower=1, trans=1)
            x = y / np.linalg.norm(y)
            last = res
            rho, res = rayleigh(x)
        rate = res / last if last else 0.0
        gap = (rho - sigma) * (1.0 - rate) / rate if 0.0 < rate < 1.0 else 0.0
        delta = max(min(res, 10.0 * res * res / gap) if gap > 0.0 else res, floor)
    work = None
    return scipy.linalg.eigh(h, subset_by_index=[0, 0])


def _block_eig(
    op: TTMatrix,
    k: int,
    config: SweepConfig,
    metric: Optional[TTMatrix] = None,
):
    rng = np.random.default_rng(config.seed)
    # the steps _lowest_pair serves start from one sweep at half the rank
    warm_up = k == 1 and metric is None and not config.adaptive and config.rank >= 2
    chain = _Chain(op.row_sizes, -(-config.rank // 2) if warm_up else config.rank, k, rng)
    problems = [
        (env_build(chain.cores, m, chain.cores), effective_operator) for m in (op, metric) if m is not None
    ]
    report = SolveReport(sense="min")
    solved = set()  # sites solved before: their core is a warm start

    def solve(site, span, mats):
        h = mats[0]
        kept = [0, k - 1]
        if metric is None and k == 1 and span == 1 and site in solved:
            w, v = _lowest_pair(h, chain.x.reshape(-1))
        elif metric is None:
            w, v = scipy.linalg.eigh(h, subset_by_index=kept)
        else:
            w, v = _shift_ladder(
                mats[1], lambda bm: scipy.linalg.eigh(h, bm, subset_by_index=kept), report, "local metric"
            )
        solved.add(site)
        return float(np.sum(w)), [v], w

    def residual(values):
        snap = chain.snapshot()
        out = []
        for j, lam in enumerate(values):
            vec = block_extract(snap, j)
            right = tt_scale(vec if metric is None else mpo_apply(metric, vec), lam)
            out.append(_residual_norm(mpo_apply(op, vec), right) / max(1.0, abs(lam)))
        return out

    if warm_up:
        # part of building the start: not counted, reported or checked; it
        # solves every site, so each rank-R step starts warm
        half_sweeps = _half_sweeps([chain], problems, solve, config)
        next(half_sweeps)  # left to right
        next(half_sweeps)  # and back: every site solved, the active site at 0
        chain.pad(config.rank, rng)
        problems = [(env_build(chain.cores, op, chain.cores), effective_operator)]
    values = _run_sweeps([chain], problems, solve, residual, config, report)
    return values, chain.snapshot(), report


def eig_min(op: TTMatrix, config: SweepConfig = SweepConfig()):
    """Smallest eigenvalue and eigenvector of a symmetric operator.

    Sweeps minimize the Rayleigh quotient through the dense local operator at
    each site; the returned vector is unit-norm.  A site's first visit solves
    its local problem with a dense ``eigh``.  Later single-site visits start
    from the site's current core, which is usually already the local
    minimizer: a Cholesky factorization of the local operator shifted just
    below the core's Rayleigh quotient proves that no lower eigenvalue
    exists, and otherwise inverse iteration on that factor improves the
    core; ``eigh`` is the fallback.  In single-site mode with
    ``config.rank`` R ≥ 2 the start is built by one such sweep at rank
    ⌈R/2⌉ from the seeded random start, padded to rank R without changing
    the vector, so the first visits run at the half rank and every rank-R
    step starts warm.  That sweep is not counted in ``max_sweeps`` and adds
    nothing to the report.  An operator that is not symmetric
    (‖A − Aᵀ‖_F > 1e-12·‖A‖_F, checked in TT form) raises ``ValueError``.
    """
    _require_symmetric(op, "operator")
    values, block, report = _block_eig(op, 1, config)
    return float(values[0]), block_extract(block, 0), report


def eig_block(op: TTMatrix, k: int, config: SweepConfig = SweepConfig()):
    """K smallest eigenvalues (ascending) with jointly represented
    eigenvectors, the columns of a TT matrix with its K columns on site 0
    and column size 1 elsewhere; local trace problems keep the K columns
    orthonormal, which transfers to the global vectors.  At k = 1 the start
    is built as in :func:`eig_min`, by one uncounted sweep at half the rank.
    A non-symmetric operator raises ``ValueError``, as in :func:`eig_min`."""
    _require_symmetric(op, "operator")
    values, block, report = _block_eig(op, k, config)
    return np.asarray(values), block, report


def _svd(op: TTMatrix, k: int, config: SweepConfig, largest: bool):
    """``(sigmas, u, v, report)``: the K largest (``largest``) or smallest
    singular values of A and their right singular vectors v, the columns of
    a TT matrix; for the largest also the left ones u (else None).  Both
    carry their K columns on site 0, where the sweeps end.

    The sweeps solve the block eigenproblem of −BᵀB or BᵀB, composed in TT
    form from B = 2^-e·A (A with its first core scaled, which is exact): e
    is the binary exponent of the largest entry of the last core of A's
    left-orthogonal form, whose norm is ‖A‖_F, so ‖B‖_F lies near 1.  AᵀA
    itself could overflow or underflow, and the residual test ‖Hv − λv‖ /
    max(1, |λ|) would be absolute, not relative to ‖A‖_F², for ‖A‖_F < 1.

    σ_k = ‖A·v_k‖ / ‖v_k‖ is taken from A, not from the Ritz values
    (absolute error eps·σ₁²), and orders v's columns.  The objective, scale
    restored, is √(Σσ_k²) for the largest (``sense="max"``) and Σσ_k² for
    the smallest.  u is A·v orthogonalized toward site 0, its first core's
    (i·q) × K unfolding orthonormalized by ``train.qr_split`` (uᵀA·v has a
    nonnegative diagonal), then rounded at a relative 1e-14: unlike
    A·v_k / σ_k it stays orthonormal as σ_k → 0."""
    _, exp = _unit_scaled(orthogonalize(_fused(op), op.order - 1).cores[-1])
    scaled = TTMatrix([np.ldexp(op.cores[0], -exp)] + op.cores[1:], copy=False)
    gram = mpo_mul(mpo_transpose(scaled), scaled, _OP_ROUND)
    if largest:
        gram = TTMatrix([-gram.cores[0]] + gram.cores[1:], copy=False)
    _, v, report = _block_eig(gram, k, config)
    columns = (block_extract(v, j) for j in range(k))
    sigmas = np.array([np.ldexp(tt_norm(mpo_apply(scaled, c)) / tt_norm(c), exp) for c in columns])
    order = np.argsort(-sigmas if largest else sigmas, kind="stable")
    v.cores[0] = v.cores[0][:, :, order, :]
    if not largest:
        with np.errstate(over="ignore"):  # past ‖A‖_F ≈ 1e154 the objective reads inf
            report.objective = [float(np.ldexp(w, 2 * exp)) for w in report.objective]
        return sigmas[order], None, v, report
    report.sense = "max"
    report.objective = [float(np.ldexp(math.sqrt(max(-w, 0.0)), exp)) for w in report.objective]
    cores = orthogonalize(mpo_apply(scaled, v), 0).cores
    _, _, q = cores[0].shape
    unfolding = cores[0].reshape(-1, k, q).transpose(0, 2, 1).reshape(-1, k)
    if unfolding.shape[0] < k:
        raise ValueError(f"K={k} exceeds the local dimension {unfolding.shape[0]} of the left vectors")
    cores[0] = qr_split(unfolding, 1)[0].reshape(1, -1, q, k).transpose(0, 1, 3, 2).reshape(1, -1, q)
    u = tt_round(TTVector(cores, copy=False), _OP_ROUND).cores
    u = [u[0].reshape(1, -1, k, u[0].shape[2])] + [c[:, :, None, :] for c in u[1:]]
    return sigmas[order], TTMatrix(u, copy=False), v, report


def svd_small_k(op: TTMatrix, k: int, config: SweepConfig = SweepConfig()):
    """K smallest singular values (ascending) and their right singular
    vectors (a TT matrix's K columns) via the Gram route, the block
    eigenproblem of AᵀA in TT form; σ_k = ‖A·v_k‖ / ‖v_k‖ is taken from A
    itself.  The report's objective is Σσ_k², its residuals those of the
    Gram eigenproblem."""
    sigmas, _, v, report = _svd(op, k, config, largest=False)
    return sigmas, v, report


def svd_dominant(op: TTMatrix, config: SweepConfig = SweepConfig()):
    """Largest singular triplet ``(sigma, u, v)`` via the Gram route: the
    lowest eigenpair of −AᵀA, swept as in :func:`eig_min` (sigma² to a
    relative eps).  sigma = ‖A·v‖ / ‖v‖; u is A·v normalized, a unit vector
    even for A = 0.  The report's objective is sigma (``sense="max"``), its
    residual that of the Gram eigenproblem."""
    sigmas, u, v, report = _svd(op, 1, config, largest=True)
    return float(sigmas[0]), block_extract(u, 0), block_extract(v, 0), report


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
    values, block, report = _block_eig(m_op, k, config, metric=b_op)
    return np.asarray(values), block, report


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
    ``config.identity_grams`` the data Grams are replaced by identities, and
    the problem is the top-K SVD of X·Yᵀ: ``_svd`` returns orthonormal wx and
    wy, and a report with the objective √(Σσ_k²) and the Gram residuals.
    """
    if x_op.col_sizes != y_op.col_sizes:
        raise ValueError("the two operators must share the observation modes")
    cross = mpo_mul(x_op, mpo_transpose(y_op), _OP_ROUND)
    if config.identity_grams:
        return _svd(cross, k, config, largest=True)
    rng = np.random.default_rng(config.seed)
    wx = _Chain(x_op.row_sizes, config.rank, k, rng)
    wy = _Chain(y_op.row_sizes, config.rank, k, rng)
    gram_x, gram_y = (mpo_mul(op, mpo_transpose(op), _OP_ROUND) for op in (x_op, y_op))
    problems = [
        (env_build(bra.cores, m, ket.cores), effective_operator)
        for bra, m, ket in ((wx, cross, wy), (wx, gram_x, wx), (wy, gram_y, wy))
    ]
    report = SolveReport(sense="max")

    def solve(site, span, mats):
        c_loc, g_x, g_y = mats
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
        cons_x = wx_loc.T @ scipy.linalg.blas.dsymm(1.0, g_x.T, wx_loc, lower=0) - np.eye(k)
        cons_y = wy_loc.T @ scipy.linalg.blas.dsymm(1.0, g_y.T, wy_loc, lower=0) - np.eye(k)
        constraint = float(max(np.max(np.abs(cons_x)), np.max(np.abs(cons_y))))
        return float(np.sum(ss[:k])), [wx_loc, wy_loc], (ss[:k].copy(), constraint)

    # the residual is the local constraint violation of the last step
    corr, _ = _run_sweeps([wx, wy], problems, solve, lambda values: [values[1]], config, report)
    return corr, wx.snapshot(), wy.snapshot(), report


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
    problems = [
        (env_build(chain.cores, lhs_op, chain.cores), effective_operator),
        (env_build(chain.cores, rhs_op, rhs.cores), effective_rhs),
    ]
    rhs_norm = tt_norm(rhs)
    report = SolveReport(sense="min")

    def solve(site, span, mats):
        h, b = mats
        if energy:
            z = _cholesky_solve(h, b)
        else:
            z = _shift_ladder(h, lambda hm: _cholesky_solve(hm, b), report, "local system")
        objective = float(z @ scipy.linalg.blas.dsymv(1.0, h.T, z, lower=0) - 2.0 * (z @ b))
        return objective, [z[:, None]], None

    def residual(_):
        x = block_extract(chain.snapshot(), 0)
        return [_residual_norm(mpo_apply(op, x), rhs) / max(rhs_norm, 1e-300)]

    _run_sweeps([chain], problems, solve, residual, config, report)
    return block_extract(chain.snapshot(), 0), report


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

    ``config.tol`` bounds both stopping tests: the objective's change over
    a sweep, relative to max(1, |objective|), and the one residual,
    ‖Ax − b‖ / ‖b‖, on either route.

    These promises weaken as cond(A) grows.  On the QTT Laplacian of size
    2^d with a ones right-hand side (rank 8, seed 7), cond(A) grows as 4^d:
    at d = 14 the energy rises by 3.9e-9 of its size within the run, beyond
    the 1e-10 slack of ``SolveReport.is_monotone``, and at d = 16 the
    residual, measured against ‖b‖, stays at 1.4e-7 after 20 sweeps with
    one BLAS thread (3.2e-7 with two), above the default ``tol``.  The
    iterates stay backward stable all the same:
    ‖Ax − b‖ / (‖A‖₂‖x‖ + ‖b‖) is 0.9e-16 to 1.6e-16 at d = 14 to 24.

    The normal-equation route serves every other operator, rectangular ones
    included: local systems use the Gram operator transpose(A)·A (composed
    in TT form) and the projected right-hand side; a local system without a
    Cholesky factor is shifted on the ladder that ``gevd``'s metrics and
    ``cca``'s Grams share (1e-12·s, 1e-10·s, then 1e-8·s with s = max(|tr
    h| / dim, 1)); each failed factorization is counted in the report, and
    a system that fails at every shift raises ``LinAlgError``.  Squaring the
    condition number costs accuracy: on ill-conditioned operators the
    trajectory need not be monotone and the residual can stall above
    ``tol``.

    With ``adaptive=True`` the two-site splits truncate under ``trunc_tol``,
    and the residual cannot fall much below what that truncation leaves, so
    keep ``trunc_tol`` well below ``tol``.  With the defaults (1e-10
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
