import re

import numpy as np
import pytest

from ttkit.quantize import (
    QuantizationPlan,
    dequantize,
    format_report,
    from_fortran_flat,
    plan_auto,
    quantize_matrix,
    quantize_vector,
    storage_report,
)
from ttkit.train import TruncationPolicy, tt_svd

EXACT = TruncationPolicy(0.0)
TIGHT = TruncationPolicy(1e-13)


def test_plan_auto_power_of_two():
    plan = plan_auto(8, 2)
    assert plan.factors == ((2, 2, 2),)
    assert plan.physical_shape == (8,)


def test_plan_auto_mixed_radix():
    plan = plan_auto(12, 2, mixed_radix=True)
    assert plan.factors == ((2, 2, 3),)
    assert plan_auto(60, 2, mixed_radix=True).factors == ((2, 2, 3, 5),)


def test_plan_auto_minimal_and_strict():
    assert plan_auto(2, 2).factors == ((2,),)
    assert plan_auto(1).factors == ((1,),)
    with pytest.raises(ValueError):
        plan_auto(12, 2)


@pytest.mark.parametrize("base", [1, 0])
def test_plan_auto_rejects_base_below_two(base):
    with pytest.raises(ValueError, match=f"^base must be >= 2, got {base}$"):
        plan_auto(16, base, mixed_radix=True)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: plan_auto(0), ValueError, "sizes must be positive, got (0,)"),
        (lambda: plan_auto((4, -2)), ValueError, "sizes must be positive, got (4, -2)"),
        (lambda: quantize_matrix(np.ones(8), plan_auto(8), plan_auto(8)), ValueError, "expected a matrix, got shape (8,)"),
        (lambda: dequantize(tt_svd(np.ones((2, 2))), plan_auto(8)), ValueError, "plan total 8 does not match represented size 4"),
        (lambda: dequantize(np.ones(4)), TypeError, "cannot dequantize ndarray"),
        (lambda: from_fortran_flat(np.ones(4), (4, 0)), ValueError, "mode sizes must be positive, got (4, 0)"),
        (lambda: storage_report(np.ones(4)), TypeError, "cannot report on ndarray"),
    ],
    ids=["zero-size", "negative-size", "not-a-matrix", "plan-of-another-size", "dequantize-array", "fortran-zero-size", "report-on-array"],
)
def test_bad_input_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_plan_determinism():
    assert plan_auto(64, 2) == plan_auto(64, 2)
    assert plan_auto((4, 8), 2) == QuantizationPlan(((2, 2), (2, 2, 2)))


@pytest.mark.parametrize("group", [(2, 2.5), (4, 2.0), (2, True, 4), (2, "4"), (0,), (2, -1), ()])
def test_plan_rejects_non_integer_factors(group):
    with pytest.raises(ValueError) as info:
        QuantizationPlan((group,))
    assert "\n" not in str(info.value)


def test_plan_accepts_numpy_integers():
    plan = QuantizationPlan(((np.int64(2), np.int32(4)), (np.uint8(3),)))
    assert plan.physical_shape == (8, 3)
    x = quantize_vector(np.arange(24.0), plan, TruncationPolicy(1e-12))
    assert np.allclose(dequantize(x, plan).reshape(-1), np.arange(24.0))


def test_quantize_constant_vector_rank_one():
    plan = plan_auto(2 ** 10, 2)
    x = quantize_vector(np.full(2 ** 10, 3.25), plan, TIGHT)
    assert set(x.ranks) == {1}
    assert np.allclose(dequantize(x, plan), 3.25)


def test_quantize_linear_ramp_rank_two():
    n = 2 ** 10
    v = np.arange(n, dtype=np.float64)
    plan = plan_auto(n, 2)
    x = quantize_vector(v, plan, TIGHT)
    assert max(x.ranks) <= 2
    back = dequantize(x, plan)
    assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)


def test_quantize_random_lossless_at_zero_tolerance():
    rng = np.random.default_rng(0)
    for n in [2 ** 6, 2 ** 8, 2 ** 12]:
        v = rng.standard_normal(n)
        plan = plan_auto(n, 2)
        back = dequantize(quantize_vector(v, plan, EXACT), plan)
        assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)


def test_quantize_length_mismatch():
    with pytest.raises(ValueError):
        quantize_vector(np.zeros(10), plan_auto(8, 2), EXACT)


def test_quantize_matrix_identity_rank_one():
    n = 2 ** 4
    plan = plan_auto(n, 2)
    op = quantize_matrix(np.eye(n), plan, plan, TIGHT)
    assert set(op.ranks) == {1}
    assert np.allclose(dequantize(op), np.eye(n))


def test_quantize_matrix_kron_structure():
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal((2, 2)) for _ in range(3)]
    m = np.kron(np.kron(blocks[0], blocks[1]), blocks[2])
    plan = plan_auto(8, 2)
    op = quantize_matrix(m, plan, plan, TIGHT)
    assert set(op.ranks) == {1}
    assert np.linalg.norm(dequantize(op) - m) <= 1e-12 * np.linalg.norm(m)


def test_quantize_matrix_random_lossless():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((8, 8))
    plan = plan_auto(8, 2)
    op = quantize_matrix(m, plan, plan, EXACT)
    assert np.linalg.norm(dequantize(op) - m) <= 1e-12 * np.linalg.norm(m)


def test_quantize_matrix_uneven_depth_pads():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 8))
    op = quantize_matrix(m, plan_auto(4, 2), plan_auto(8, 2), EXACT)
    assert np.linalg.norm(dequantize(op) - m) <= 1e-12 * np.linalg.norm(m)


def test_dequantize_physical_shape():
    rng = np.random.default_rng(4)
    plan = plan_auto((4, 8), 2)
    t = rng.standard_normal((4, 8))
    x = tt_svd(t.reshape(plan.virtual_shape), EXACT)
    back = dequantize(x, plan)
    assert back.shape == (4, 8)
    assert np.allclose(back, t)


def test_dequantize_single_factor_plan():
    v = np.array([1.0, 2.0, 3.0])
    plan = plan_auto(3, 2, mixed_radix=True)
    x = quantize_vector(v, plan, EXACT)
    assert np.allclose(dequantize(x, plan), v)


def test_storage_report_rank_one_counts():
    plan = plan_auto(2 ** 10, 2)
    x = quantize_vector(np.ones(2 ** 10), plan, TIGHT)
    report = storage_report(x)
    assert report["raw_count"] == 1024
    assert report["parameter_count"] == 2 * 10
    assert report["compression_ratio"] == pytest.approx(20 / 1024)


def test_storage_report_single_core_ratio_one():
    x = tt_svd(np.arange(4.0))
    report = storage_report(x)
    assert report["raw_count"] == report["parameter_count"] == 4
    assert report["compression_ratio"] == 1.0


def test_storage_report_matches_core_sizes():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(2 ** 8)
    x = quantize_vector(v, plan_auto(2 ** 8, 2), EXACT)
    report = storage_report(x)
    assert report["parameter_count"] == sum(c.size for c in x.cores)
    assert report["ranks"] == ",".join(str(r) for r in x.ranks)


def test_compression_strictly_less_for_bounded_ranks():
    # with max_rank r, parameters <= K * q * r^2 < q^K once K is large enough
    n = 2 ** 12
    v = np.arange(n, dtype=np.float64)
    x = quantize_vector(v, plan_auto(n, 2), TruncationPolicy(1e-10, max_rank=4))
    report = storage_report(x)
    assert report["parameter_count"] < report["raw_count"]
    assert max(x.ranks) ** 2 * 2 * 12 < n


def test_format_report_key_value_lines():
    x = tt_svd(np.ones((2, 2)))
    text = format_report(storage_report(x))
    lines = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert lines["kind"] == "vector"
    assert lines["raw_count"] == "4"


def test_round_trip_identity_across_sizes():
    rng = np.random.default_rng(6)
    for n in [16, 64, 256, 4096]:
        v = rng.standard_normal(n)
        plan = plan_auto(n, 2)
        assert np.allclose(dequantize(quantize_vector(v, plan, EXACT), plan), v)
