"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools
import json
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import ttkit  # noqa: E402
import ttkit.cli  # noqa: E402

import jobs  # noqa: E402
import laplacian  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def test_tracer_self_time_arithmetic():
    tracer = tracer_mod.Tracer(clock=itertools.count().__next__)

    def inner():
        return 1

    def outer():
        return inner() + nested_same() + inner()

    def nested_same():
        return 0

    inner = tracer.span(inner, "frames.rhs")
    nested_same = tracer.span(nested_same, "algebra.apply")  # same layer: merged
    outer = tracer.span(outer, "algebra.apply")

    tracer.push(tracer_mod.ROOT)  # t=0
    assert outer() == 2  # spans: outer 1..6, inner 2..3 and 4..5
    wall = tracer.pop()  # t=7
    assert wall == 7
    assert tracer.self_s == {"frames.rhs": 2, "algebra.apply": 3, tracer_mod.ROOT: 2}
    assert tracer.calls == {"frames.rhs": 2, "algebra.apply": 1, tracer_mod.ROOT: 1}
    assert sum(tracer.self_s.values()) == wall


def test_laplacian_cores_match_dense_and_mpo_svd():
    laplacian.self_check(8)
    d = 5
    dense = laplacian.dense_laplacian(2**d)
    assert np.array_equal(laplacian.laplacian(d).full(), dense)
    want = [laplacian.eigenvalue(k, 2**d) for k in range(1, 2**d + 1)]
    assert np.allclose(np.linalg.eigvalsh(dense), want, rtol=0, atol=1e-13)


def _namespace_snapshot():
    import numpy.linalg
    import scipy.linalg

    owners = [ttkit, ttkit.EnvStack, numpy.linalg, scipy.linalg]
    owners += [getattr(ttkit, m) for m in tracer_mod.MODULES]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _small_jobs():
    op = laplacian.laplacian(4)
    config = ttkit.SweepConfig(rank=2, seed=0, max_sweeps=2)
    wrapped = []

    def call():
        wrapped.append(hasattr(ttkit.solvers.effective_operator, "__wrapped__"))
        return ttkit.eig_min(op, config)

    job = jobs._solver_job("eig_min-d4", call, laplacian.eigenvalue(1, 16), 4.0, 12)
    return [job], wrapped


def test_tracer_stays_out_of_untraced_runs():
    before = _namespace_snapshot()
    small, wrapped = _small_jobs()
    untraced = run.run_pass(small)
    assert wrapped == [False] and untraced.layers is None
    assert _namespace_snapshot() == before

    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer, ttkit):
        assert _namespace_snapshot() != before
        traced = run.run_pass(small, tracer)
    assert wrapped == [False, True]
    assert _namespace_snapshot() == before
    assert untraced.checks[0].passed and traced.checks[0].passed

    self_s, calls, counts = traced.layers
    assert traced.self_sum_gap < 1e-4
    assert calls["solvers.sweep_self"] == 1 and calls["solvers.local_solve"] > 0
    assert counts["solvers.half_sweeps"] == 4


def test_lapack_calls_in_a_solver_go_to_their_layer():
    import numpy.linalg

    a = np.eye(3)
    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer, ttkit):
        numpy.linalg.lstsq(a, a, rcond=None)  # outside a solver: not a span
        tracer.push("solvers.sweep_self")
        numpy.linalg.lstsq(a, a, rcond=None)  # the regularized solve's fallback
        numpy.linalg.qr(a)
        tracer.pop()
    assert tracer.calls == {
        "solvers.sweep_self": 1,
        "solvers.local_solve": 1,
        "solvers.move_split": 1,
    }


def test_only_known_failures_leave_a_run_correct():
    def pass_with(error):
        p = run.Pass()
        p.checks = [jobs.Check(error, 8, "f"), jobs.Check(error, 8, "f")]
        return p

    bad = [pass_with(1e-12), pass_with(1e-5)]
    tally = run.Tally(["known", "other"], bad, {"known": "reason"})
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.problems == ["other: wrong answer"]
    assert run.Tally(["known"], bad, {"known": "reason"}).problems == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("error, want", [(0.0, 16.0), (1e-20, 16.0), (1e-3, 3.0), (float("nan"), 0.0)])
def test_digits(error, want):
    assert jobs.digits(error) == pytest.approx(want)
