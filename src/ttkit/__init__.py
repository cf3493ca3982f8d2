"""Tensor-train toolkit: TT/MPS, TT/MPO and QTT compression plus
alternating-sweep solvers for eigenproblems, singular triplets, generalized
eigenproblems, canonical correlations and linear systems."""

from .algebra import (
    eye_mpo,
    mpo_apply,
    mpo_mul,
    mpo_transpose,
    tt_add,
    tt_norm,
    tt_scale,
)
from .container import load, save
from .frames import (
    EnvStack,
    effective_operator,
    effective_rhs,
    env_build,
)
from .quantize import (
    QuantizationPlan,
    dequantize,
    format_report,
    from_fortran_flat,
    plan_auto,
    quantize_matrix,
    quantize_vector,
    storage_report,
    to_fortran_flat,
)
from .solvers import (
    SolveReport,
    SweepConfig,
    cca,
    eig_block,
    eig_min,
    gevd,
    linsolve,
    svd_dominant,
    svd_small_k,
)
from .train import (
    BlockTT,
    TruncationPolicy,
    TTMatrix,
    TTVector,
    block_extract,
    mpo_round,
    mpo_svd,
    mpo_to_full,
    orthogonalize,
    random_tt,
    tt_round,
    tt_svd,
    tt_to_full,
)

__version__ = "0.1.0"
