"""Tensor-train toolkit: TT/MPS, TT/MPO and QTT compression plus
alternating-sweep solvers for eigenproblems, singular triplets, generalized
eigenproblems, canonical correlations and linear systems."""

from .algebra import (
    diagonal_mpo,
    eye_mpo,
    mpo_apply,
    mpo_mul,
    mpo_transpose,
    tt_add,
    tt_inner,
    tt_norm,
    tt_scale,
)
from .container import load, save
from .dense import (
    BlockMatrix,
    ac_product,
    contract,
    flat_index,
    from_fortran_flat,
    hadamard,
    khatri_rao,
    kron,
    mode_n_product,
    mode_n_vec_product,
    multi_from_flat,
    multilinear_product,
    outer,
    refold,
    strong_kron,
    to_fortran_flat,
    unfold,
    unfold_split,
)
from .frames import (
    EnvStack,
    effective_operator,
    effective_rhs,
    env_build,
    frame_matrix,
    frame_matrix_two,
    left_interface,
    merged_core,
    right_interface,
)
from .quantize import (
    QuantizationPlan,
    dequantize,
    format_report,
    plan_auto,
    quantize_matrix,
    quantize_vector,
    storage_report,
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
    block_from_tts,
    block_move,
    mpo_round,
    mpo_svd,
    mpo_to_full,
    orthogonalize,
    random_mpo,
    random_tt,
    tt_entry,
    tt_round,
    tt_svd,
    tt_to_full,
)

__version__ = "0.1.0"
