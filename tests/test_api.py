"""The public API of ``ttkit``."""

import dataclasses
import types

import pytest

import ttkit

# A new export needs a user in the library, the CLI or the README; helpers
# that only tests need live in tests/oracles.py.
PUBLIC = {
    "BlockTT",
    "EnvStack",
    "QuantizationPlan",
    "SolveReport",
    "SweepConfig",
    "TTMatrix",
    "TTVector",
    "TruncationPolicy",
    "block_extract",
    "cca",
    "dequantize",
    "effective_operator",
    "effective_rhs",
    "eig_block",
    "eig_min",
    "env_build",
    "eye_mpo",
    "format_report",
    "from_fortran_flat",
    "gevd",
    "linsolve",
    "load",
    "mpo_apply",
    "mpo_mul",
    "mpo_round",
    "mpo_svd",
    "mpo_to_full",
    "mpo_transpose",
    "orthogonalize",
    "plan_auto",
    "quantize_matrix",
    "quantize_vector",
    "random_tt",
    "save",
    "storage_report",
    "svd_dominant",
    "svd_small_k",
    "to_fortran_flat",
    "tt_add",
    "tt_norm",
    "tt_round",
    "tt_scale",
    "tt_svd",
    "tt_to_full",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(ttkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC) == 44
    assert names == PUBLIC


# Every settable field is an option that tests and benchmarks must cover; a
# new one needs two callers outside the tests that want different values.
FIELDS = {
    ttkit.SweepConfig: (
        "max_sweeps", "tol", "rank", "adaptive", "trunc_tol", "max_rank", "seed", "identity_grams",
    ),
    ttkit.TruncationPolicy: ("tol", "max_rank"),
    ttkit.QuantizationPlan: ("factors",),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_settable_fields_are_pinned(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
