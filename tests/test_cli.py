import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import ttkit
from ttkit import container
from ttkit.cli import main
from ttkit.quantize import storage_report
from ttkit.solvers import SweepConfig, eig_min
from ttkit.train import TruncationPolicy, TTMatrix, TTVector, mpo_svd, random_tt


def write_raw(path, data):
    np.asarray(data, dtype="<f8").tofile(path)


def laplacian(n):
    return 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# compress / info / reconstruct


def test_compress_constant_vector_rank_one(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    write_raw(raw, np.full(2 ** 10, 7.0))
    out = tmp_path / "c.tt"
    code, stdout, _ = run(capsys, "compress", raw, "--shape", ",".join(["2"] * 10), "-o", out)
    assert code == 0
    vec = container.load(out)
    assert set(vec.ranks) == {1}
    assert "parameter_count=20" in stdout
    assert (tmp_path / "c.tt.report.txt").exists()


def test_compress_reconstruct_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = rng.standard_normal(64)
    raw = tmp_path / "x.raw"
    write_raw(raw, data)
    out = tmp_path / "x.tt"
    code, _, _ = run(capsys, "compress", raw, "--shape", "4,4,4", "--tol", "1e-10", "-o", out)
    assert code == 0
    back = tmp_path / "back.raw"
    code, _, _ = run(capsys, "reconstruct", out, "-o", back)
    assert code == 0
    recon = np.fromfile(back, dtype="<f8")
    assert np.linalg.norm(recon - data) <= 1e-9 * np.linalg.norm(data)


def test_compress_bad_shape_product(tmp_path, capsys):
    raw = tmp_path / "x.raw"
    write_raw(raw, np.zeros(10))
    code, _, err = run(capsys, "compress", raw, "--shape", "2,3", "-o", tmp_path / "x.tt")
    assert code != 0
    assert "error" in err


def test_info_matches_storage_report(tmp_path, capsys):
    x = random_tt((2, 3, 4), 3, np.random.default_rng(1))
    path = tmp_path / "x.tt"
    container.save(x, path)
    code, stdout, _ = run(capsys, "info", path)
    assert code == 0
    report = storage_report(x)
    for key in ("raw_count", "parameter_count", "ranks"):
        assert f"{key}={report[key]}" in stdout


def test_info_identity_operator(tmp_path, capsys):
    op = mpo_svd(np.eye(8), (2, 2, 2), (2, 2, 2), TruncationPolicy(1e-12))
    path = tmp_path / "i.tt"
    container.save(op, path)
    code, stdout, _ = run(capsys, "info", path)
    assert code == 0
    assert "ranks=1,1,1,1" in stdout


def test_info_counts_entries_exactly(tmp_path, capsys):
    # 2^64 entries: a 64-bit count would wrap to 0
    path = tmp_path / "ones.tt"
    container.save(TTVector([np.ones((1, 2, 1))] * 64), path)
    code, stdout, err = run(capsys, "info", path)
    assert (code, err) == (0, "")
    assert f"raw_count={2**64}" in stdout.splitlines()
    ratio = float(next(l for l in stdout.splitlines() if l.startswith("compression_ratio=")).split("=")[1])
    assert ratio * 2**64 == pytest.approx(128, rel=1e-11)


def test_info_corrupt_magic(tmp_path, capsys):
    bad = tmp_path / "bad.tt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, _, err = run(capsys, "info", bad)
    assert code != 0
    assert "error" in err


# ---------------------------------------------------------------------------
# quantize


def test_quantize_ramp_rank_two(tmp_path, capsys):
    raw = tmp_path / "ramp.raw"
    write_raw(raw, np.arange(2 ** 10, dtype=np.float64))
    out = tmp_path / "ramp.tt"
    code, stdout, _ = run(capsys, "quantize", raw, "--tol", "1e-12", "-o", out)
    assert code == 0
    assert "max_rank=2" in stdout


def test_quantize_strict_mode_rejects_non_power(tmp_path, capsys):
    raw = tmp_path / "v.raw"
    write_raw(raw, np.zeros(12))
    code, _, err = run(capsys, "quantize", raw, "-o", tmp_path / "v.tt")
    assert code != 0
    assert "mixed_radix" in err or "power" in err


def test_quantize_matrix_mode_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((8, 16))
    raw = tmp_path / "m.raw"
    write_raw(raw, m.reshape(-1))
    out = tmp_path / "m.tt"
    code, _, _ = run(
        capsys, "quantize", raw, "--row-shape", 8, "--col-shape", 16, "--tol", "1e-12", "-o", out
    )
    assert code == 0
    back = tmp_path / "m_back.raw"
    run(capsys, "reconstruct", out, "-o", back)
    recon = np.fromfile(back, dtype="<f8").reshape(8, 16)
    assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)


def test_quantize_matrix_missing_flag(tmp_path, capsys):
    raw = tmp_path / "m.raw"
    write_raw(raw, np.zeros(16))
    code, _, err = run(capsys, "quantize", raw, "--row-shape", 4, "-o", tmp_path / "m.tt")
    assert code != 0
    assert "--col-shape" in err


def test_quantize_matrix_explicit_mode_sizes(tmp_path, capsys):
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 4))
    raw = tmp_path / "m.raw"
    write_raw(raw, m.reshape(-1))
    out = tmp_path / "m.tt"
    code, _, _ = run(
        capsys, "quantize", raw, "--row-shape", "2,3", "--col-shape", "2,2",
        "--tol", "1e-12", "-o", out,
    )
    assert code == 0
    back = tmp_path / "back.raw"
    run(capsys, "reconstruct", out, "-o", back)
    recon = np.fromfile(back, dtype="<f8").reshape(6, 4)
    assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)


# ---------------------------------------------------------------------------
# solvers


def test_eig_cli_matches_dense(tmp_path, capsys):
    dense = laplacian(64)
    op = mpo_svd(dense, (2,) * 6, (2,) * 6, TruncationPolicy(1e-13))
    op_path = tmp_path / "lap.tt"
    container.save(op, op_path)
    out = tmp_path / "eig"
    code, stdout, _ = run(capsys, "eig", op_path, "--k", 3, "--rank", 8, "--seed", 0, "-o", out)
    assert code == 0
    lines = [l for l in stdout.splitlines() if "," in l and not l.startswith("index")]
    values = np.array([float(l.split(",")[1]) for l in lines[:3]])
    w = np.linalg.eigvalsh(dense)
    assert np.abs(values - w[:3]).max() < 1e-7
    assert (tmp_path / "eig.values.csv").exists()
    assert (tmp_path / "eig.trajectory.csv").exists()
    assert (tmp_path / "eig.report.txt").exists()
    assert container.load(tmp_path / "eig.tt").shape[1] == 3


def test_eig_cli_runs_on_the_sweep_config_defaults(tmp_path, capsys):
    # no solver flag: the CLI must solve as the library does by default
    op = mpo_svd(laplacian(64), (2,) * 6, (2,) * 6, TruncationPolicy(1e-13))
    op_path, out = tmp_path / "lap.tt", tmp_path / "eig"
    container.save(op, op_path)
    code, _, _ = run(capsys, "eig", op_path, "-o", out)
    value, vec, report = eig_min(op, SweepConfig())
    assert code == 0
    assert (tmp_path / "eig.report.txt").read_text() == report.to_keyvalue()
    assert (tmp_path / "eig.trajectory.csv").read_text() == report.trajectory_csv()
    assert (tmp_path / "eig.values.csv").read_text() == f"index,eigenvalue\n0,{value:.17g}\n"
    saved = container.load(tmp_path / "eig.tt")
    assert all(np.array_equal(a, b) for a, b in zip(saved.cores, vec.cores))


def test_info_and_reconstruct_block_container(tmp_path, capsys):
    # eig --k 3 writes a TT matrix with its 3 columns on site 0: info shows
    # them as the first column size, and reconstruct writes its 32 x 3 dense
    # matrix of orthonormal eigenvectors
    dense = laplacian(32)
    op_path = tmp_path / "lap.tt"
    container.save(mpo_svd(dense, (2,) * 5, (2,) * 5, TruncationPolicy(1e-13)), op_path)
    out = tmp_path / "eig"
    code, _, _ = run(capsys, "eig", op_path, "--k", 3, "--rank", 4, "--seed", 0, "-o", out)
    assert code == 0
    code, stdout, _ = run(capsys, "info", tmp_path / "eig.tt")
    assert code == 0
    lines = stdout.splitlines()
    assert "kind=matrix" in lines
    assert "modes=2x3,2x1,2x1,2x1,2x1" in lines
    assert "raw_count=96" in lines
    back = tmp_path / "eig.raw"
    code, stdout, _ = run(capsys, "reconstruct", tmp_path / "eig.tt", "-o", back)
    assert code == 0
    assert stdout == f"wrote 96 float64 values to {back}\n"
    v = np.fromfile(back, dtype="<f8").reshape(32, 3)
    assert np.abs(v.T @ v - np.eye(3)).max() < 1e-12
    ritz = np.linalg.eigvalsh(v.T @ dense @ v)
    assert np.abs(ritz - np.linalg.eigvalsh(dense)[:3]).max() < 1e-10


@pytest.mark.parametrize("kind", ["vector", "matrix", "block"])
def test_reconstruct_writes_the_dense_form_of_every_kind(tmp_path, capsys, kind):
    from oracles import block_from_tts, random_mpo

    rng = np.random.default_rng(40)
    obj = {
        "vector": random_tt((2, 3, 4), 3, rng),
        "matrix": random_mpo((2, 3), (4, 1), 2, rng),
        "block": block_from_tts([random_tt((3, 2, 2), 2, rng) for _ in range(3)]),
    }[kind]
    dense = obj.full()
    container.save(obj, tmp_path / "x.tt")
    code, stdout, _ = run(capsys, "reconstruct", tmp_path / "x.tt", "-o", tmp_path / "x.raw")
    assert code == 0
    assert stdout == f"wrote {dense.size} float64 values to {tmp_path / 'x.raw'}\n"
    assert (tmp_path / "x.raw").read_bytes() == np.ascontiguousarray(dense, dtype="<f8").tobytes()


def test_info_and_reconstruct_read_a_block_container(tmp_path, capsys):
    # TTK1 kind 2, a block TT with K = 3 on site 1: read as the TT matrix
    # with column sizes (1, 3, 1)
    from oracles import block_container

    rng = np.random.default_rng(41)
    x = TTMatrix([rng.standard_normal(shape) for shape in ((1, 2, 1, 2), (2, 3, 3, 2), (2, 2, 1, 1))])
    path = tmp_path / "b.tt"
    path.write_bytes(block_container(x, 1))
    code, stdout, _ = run(capsys, "info", path)
    assert code == 0
    assert "kind=matrix" in stdout.splitlines() and "modes=2x1,3x3,2x1" in stdout.splitlines()
    code, _, _ = run(capsys, "reconstruct", path, "-o", tmp_path / "b.raw")
    assert code == 0
    assert (tmp_path / "b.raw").read_bytes() == np.ascontiguousarray(x.full(), dtype="<f8").tobytes()


def test_solve_cli(tmp_path, capsys):
    dense = laplacian(16) + np.eye(16)
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, TruncationPolicy(1e-13))
    x_star = random_tt((2,) * 4, 2, np.random.default_rng(3))
    from ttkit.algebra import mpo_apply

    y = mpo_apply(op, x_star)
    op_path, y_path = tmp_path / "a.tt", tmp_path / "y.tt"
    container.save(op, op_path)
    container.save(y, y_path)
    out = tmp_path / "sol"
    code, _, _ = run(capsys, "solve", op_path, "--rhs", y_path, "--rank", "4", "-o", out)
    assert code == 0
    x = container.load(tmp_path / "sol.tt")
    err = np.linalg.norm(x.full().reshape(-1) - x_star.full().reshape(-1))
    assert err < 1e-7 * np.linalg.norm(x_star.full())


def test_solve_missing_rhs_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "whatever.tt", "-o", "out"])
    assert exc.value.code == 2


def test_nonconverged_exit_code(tmp_path, capsys):
    dense = laplacian(32)
    op = mpo_svd(dense, (2,) * 5, (2,) * 5, TruncationPolicy(1e-13))
    op_path = tmp_path / "op.tt"
    container.save(op, op_path)
    code, _, err = run(
        capsys, "eig", op_path, "--max-sweeps", 1, "--tol", "1e-14", "-o", tmp_path / "o1"
    )
    assert code == 1
    assert "convergence" in err or "converge" in err
    code2, _, _ = run(
        capsys,
        "eig", op_path, "--max-sweeps", 1, "--tol", "1e-14",
        "--allow-nonconverged", "-o", tmp_path / "o2",
    )
    assert code2 == 0


def test_svd_cli_dominant_and_smallest(tmp_path, capsys):
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((16, 16))
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, TruncationPolicy(1e-13))
    op_path = tmp_path / "a.tt"
    container.save(op, op_path)
    s = np.linalg.svd(dense, compute_uv=False)
    code, stdout, _ = run(capsys, "svd", op_path, "--rank", 6, "--max-sweeps", 30, "-o", tmp_path / "dom")
    assert code == 0
    top = float(stdout.splitlines()[1].split(",")[1])
    assert abs(top - s[0]) < 1e-6
    assert (tmp_path / "dom.u.tt").exists() and (tmp_path / "dom.v.tt").exists()
    code, stdout, _ = run(
        capsys, "svd", op_path, "--k", 2, "--smallest", "--rank", 6,
        "--max-sweeps", 30, "--tol", "1e-7", "-o", tmp_path / "small",
    )
    assert code == 0
    got = [float(l.split(",")[1]) for l in stdout.splitlines()[1:3]]
    assert np.abs(np.array(got) - np.sort(s)[:2]).max() < 1e-6


def test_svd_cli_largest_k_requires_smallest_flag(tmp_path, capsys):
    rng = np.random.default_rng(5)
    op = mpo_svd(rng.standard_normal((4, 4)), (2, 2), (2, 2), TruncationPolicy(0.0))
    op_path = tmp_path / "a.tt"
    container.save(op, op_path)
    code, _, err = run(capsys, "svd", op_path, "--k", 2, "-o", tmp_path / "x")
    assert code != 0
    assert "--smallest" in err


def test_deterministic_outputs_across_runs(tmp_path, capsys):
    dense = laplacian(16)
    op = mpo_svd(dense, (2,) * 4, (2,) * 4, TruncationPolicy(1e-13))
    op_path = tmp_path / "op.tt"
    container.save(op, op_path)
    outputs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag / "eig"
        (tmp_path / tag).mkdir()
        code, stdout, _ = run(capsys, "eig", op_path, "--k", 2, "--seed", 7, "-o", out)
        assert code == 0
        blob = stdout.encode()
        for suffix in (".tt", ".report.txt", ".trajectory.csv", ".values.csv"):
            blob += (tmp_path / tag / ("eig" + suffix)).read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_info_oversized_header_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "big.tt"
    header = b"TTK1" + bytes([1, 0]) + (1).to_bytes(4, "little")
    bad.write_bytes(header + np.asarray([2 ** 40, 1, 1], dtype="<u8").tobytes() + b"\x00" * 64)
    code, stdout, err = run(capsys, "info", bad)
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "cores, refused_up_front",
    [
        # 8 TiB: refused from the sizes and ranks, before any contraction
        pytest.param([np.ones((1, 2, 1))] * 40, True, id="beyond-physical-memory"),
        # 2 GiB: within the physical memory of most machines, beyond the
        # address-space limit below, so the allocation itself fails
        pytest.param([np.ones((1, 2, 1))] * 20 + [np.ones((1, 256, 1))], False, id="beyond-address-space"),
    ],
)
def test_reconstruct_beyond_memory_is_one_line_error(tmp_path, cores, refused_up_front):
    # run in a child whose address space is capped, so that a reconstruction
    # which does allocate fails there and cannot exhaust this machine
    path = tmp_path / "big.tt"
    container.save(TTVector(cores), path)
    limit = 1_500_000 * 1024
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ttkit.__file__)), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ttkit.cli", "reconstruct", str(path), "-o", str(tmp_path / "big.raw")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert not refused_up_front or "physical memory" in proc.stderr
    assert not (tmp_path / "big.raw").exists()


def test_reconstruct_past_physical_memory_is_one_line_error(tmp_path, capsys, monkeypatch):
    # 64 KiB of physical memory, as os.sysconf reports it; the 2^14 result
    # and the partial product before it need 8 · (2^14 + 2^13) bytes
    path, out = tmp_path / "x.tt", tmp_path / "x.raw"
    container.save(TTVector([np.ones((1, 2, 1))] * 14), path)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    code, stdout, err = run(capsys, "reconstruct", path, "-o", out)
    assert code == 1 and stdout == ""
    assert err == (
        f"error: {path}: reconstruction needs arrays of 196608 bytes, "
        "more than the 65536 bytes of physical memory\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "message, line",
    [("", "error: out of memory"), ("no room", "error: out of memory (no room)")],
)
def test_memory_error_is_one_line_error(tmp_path, capsys, monkeypatch, message, line):
    # the parser is built once per process, so the failure is injected
    # below it, in the container loader every reading command calls
    def no_memory(path):
        raise MemoryError(message)

    monkeypatch.setattr(container, "load", no_memory)
    code, stdout, err = run(capsys, "info", tmp_path / "x.tt")
    assert (code, stdout, err) == (1, "", line + "\n")


@pytest.mark.parametrize(
    "obj, largest",
    [
        # the result and the partial product before it: 2 x 3 after the first core
        (TTVector([np.ones((1, 2, 3)), np.ones((3, 2, 1))]), 6 + 4),
        (TTMatrix([np.ones((1, 2, 3, 5)), np.ones((5, 2, 3, 1))]), 30 + 36),  # the 6 x 6 result
        (TTMatrix([np.ones((1, 2, 1, 1)), np.ones((1, 3, 4, 1))]), 2 + 24),  # 6 x K = 4
    ],
    ids=["vector", "matrix", "block"],
)
def test_largest_intermediate_counts_every_site_index(obj, largest):
    from ttkit.cli import _largest_intermediate

    assert _largest_intermediate(obj.cores) == largest


def test_nan_tolerance_is_one_line_error(tmp_path, capsys):
    op = mpo_svd(laplacian(16), (2,) * 4, (2,) * 4, TruncationPolicy(1e-13))
    op_path = tmp_path / "op.tt"
    container.save(op, op_path)
    code, stdout, err = run(capsys, "eig", op_path, "--tol", "nan", "-o", tmp_path / "o")
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_negative_seed_is_one_line_error_naming_the_field(tmp_path, capsys):
    op_path = tmp_path / "op.tt"
    container.save(mpo_svd(laplacian(16), (2,) * 4, (2,) * 4, TruncationPolicy(1e-13)), op_path)
    code, stdout, err = run(capsys, "eig", op_path, "--seed", -1, "-o", tmp_path / "out")
    assert code == 1
    assert stdout == ""
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert not list(tmp_path.glob("out*"))


def test_missing_output_directory_is_one_line_error(tmp_path, capsys):
    raw = tmp_path / "ok.raw"
    write_raw(raw, np.arange(8.0))
    out = tmp_path / "missing_dir" / "x.tt"
    code, stdout, err = run(capsys, "compress", raw, "--shape", "8", "-o", out)
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", ["compress", "quantize"])
def test_non_finite_raw_data_names_the_file(tmp_path, capsys, command):
    raw = tmp_path / "bad.raw"
    data = np.arange(16.0)
    data[5] = np.nan
    write_raw(raw, data)
    shape = ["--shape", "16"] if command == "compress" else []
    code, stdout, err = run(capsys, command, raw, *shape, "-o", tmp_path / "x.tt")
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert str(raw) in err and "non-finite" in err
    assert not (tmp_path / "x.tt").exists()


def test_non_finite_container_names_the_file(tmp_path, capsys):
    op = mpo_svd(laplacian(16), (2,) * 4, (2,) * 4, TruncationPolicy(1e-13))
    op.cores[2][0, 0, 0, 0] = np.inf
    op_path = tmp_path / "op.tt"
    container.save(op, op_path)
    code, stdout, err = run(capsys, "eig", op_path, "-o", tmp_path / "o")
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert str(op_path) in err and "non-finite" in err


@pytest.mark.parametrize("command", ["compress", "quantize"])
def test_raw_size_not_a_multiple_of_eight_names_the_file(tmp_path, capsys, command):
    raw = tmp_path / "odd.raw"
    raw.write_bytes(np.arange(8.0).astype("<f8").tobytes() + b"\x01\x02\x03")
    shape = ["--shape", "8"] if command == "compress" else []
    code, stdout, err = run(capsys, command, raw, *shape, "-o", tmp_path / "x.tt")
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert str(raw) in err and "67 bytes" in err
    assert not (tmp_path / "x.tt").exists()


@pytest.mark.parametrize("position", ["eig", "gevd-inner", "gevd-metric"])
def test_nonsymmetric_operator_is_one_line_error(tmp_path, capsys, position):
    rng = np.random.default_rng(0)
    paths = {}
    for name, dense in [("square", rng.standard_normal((16, 16))), ("eye", np.eye(16))]:
        paths[name] = tmp_path / f"{name}.tt"
        container.save(mpo_svd(dense, (2,) * 4, (2,) * 4, TruncationPolicy(1e-12)), paths[name])
    argv = {
        "eig": ["eig", paths["square"], "--k", 1],
        "gevd-inner": ["gevd", paths["eye"], paths["square"], paths["eye"], "--k", 1],
        "gevd-metric": ["gevd", paths["eye"], paths["eye"], paths["square"], "--k", 1],
    }[position]
    code, stdout, err = run(capsys, *argv, "-o", tmp_path / "out")
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "not symmetric" in err
    assert not list(tmp_path.glob("out*"))


def test_ill_conditioned_solve_is_one_line_error(tmp_path, capsys):
    # the 2^30 Laplacian: cond ~ 4^30, so the energy route's local Cholesky
    # fails and the run restarts on the normal equations, which do not
    # converge.  The local solves make no condition estimate, so no
    # LinAlgWarning joins the one error line on stderr
    import warnings

    from oracles import qtt_laplacian

    d = 30
    op_path, rhs_path = tmp_path / "lap.tt", tmp_path / "ones.tt"
    container.save(qtt_laplacian(d), op_path)
    container.save(TTVector([np.ones((1, 2, 1))] * d), rhs_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "solve", op_path, "--rhs", rhs_path, "-o", tmp_path / "sol")
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert err.splitlines() == ["error: solver did not converge (use --allow-nonconverged to accept)"]


@pytest.mark.parametrize("command", ["svd", "svd-dominant", "gevd"])
def test_k_zero_is_one_line_error(tmp_path, capsys, command):
    op_path, eye_path = tmp_path / "op.tt", tmp_path / "eye.tt"
    container.save(mpo_svd(laplacian(16), (2,) * 4, (2,) * 4, TruncationPolicy(1e-13)), op_path)
    container.save(mpo_svd(np.eye(16), (2,) * 4, (2,) * 4, TruncationPolicy(1e-13)), eye_path)
    argv = {
        "svd": ["svd", op_path, "--smallest"],
        "svd-dominant": ["svd", op_path],
        "gevd": ["gevd", eye_path, op_path, eye_path],
    }[command]
    code, stdout, err = run(capsys, *argv, "--k", 0, "-o", tmp_path / "out")
    assert code == 1
    assert stdout == ""
    assert err == "error: k must be at least 1\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("base", [0, 1])
def test_quantize_base_below_two_is_one_line_error(tmp_path, capsys, base):
    # a vector, and a matrix given by explicit mode sizes (no base is used)
    raw = tmp_path / "v.raw"
    write_raw(raw, np.arange(16.0))
    for shapes in ([], ["--row-shape", "2,2", "--col-shape", "2,2"]):
        code, stdout, err = run(capsys, "quantize", raw, "--base", base, *shapes, "-o", tmp_path / "v.tt")
        assert code == 1
        assert stdout == ""
        assert err == f"error: base must be >= 2, got {base}\n"
        assert not (tmp_path / "v.tt").exists()


def test_compress_shape_product_is_exact(tmp_path, capsys):
    raw = tmp_path / "x.raw"
    write_raw(raw, np.zeros(16))
    code, stdout, err = run(capsys, "compress", raw, "--shape", "4294967296,4294967296", "-o", tmp_path / "x.tt")
    assert code == 1
    assert stdout == ""
    assert err == (
        "error: file holds 16 values but shape (4294967296, 4294967296) "
        "needs 18446744073709551616\n"
    )


@pytest.mark.parametrize(
    "row_shape, rows",
    [("999999999999999989", "999999999999999989"), ("4294967296,4294967296", "18446744073709551616")],
)
def test_quantize_size_mismatch_is_exact_and_checked_before_planning(
    tmp_path, capsys, monkeypatch, row_shape, rows
):
    def no_planning(*args):
        raise AssertionError("plan_auto ran before the size check")

    monkeypatch.setattr("ttkit.cli.plan_auto", no_planning)
    raw = tmp_path / "m.raw"
    write_raw(raw, np.arange(16.0))
    code, stdout, err = run(
        capsys, "quantize", raw, "--row-shape", row_shape, "--col-shape", 1, "--mixed-radix",
        "-o", tmp_path / "m.tt",
    )
    assert code == 1
    assert stdout == ""
    assert err == f"error: file holds 16 values but {rows}x1 needs {rows}\n"
    assert not (tmp_path / "m.tt").exists()


def test_parser_built_once_answers_like_a_fresh_one(tmp_path, capsys):
    from ttkit.cli import _build_parser

    container.save(random_tt((2,) * 4, 2, np.random.default_rng(0)), tmp_path / "x.tt")
    write_raw(tmp_path / "ramp.raw", np.arange(256.0))
    calls = [
        ["info", tmp_path / "x.tt"],
        ["quantize", tmp_path / "ramp.raw", "--row-shape"],  # usage error
        ["quantize", tmp_path / "ramp.raw", "-o", tmp_path / "ramp.tt"],
    ]

    def outcome(argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        written = tmp_path / "ramp.tt"
        return code, out.out, out.err, written.read_bytes() if written.exists() else None

    _build_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]  # one parser serves all three
    assert _build_parser.cache_info().misses == 1
    (tmp_path / "ramp.tt").unlink()
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [o[0] for o in shared] == [0, ("exit", 2), 0]


def _with_block_position(path, position):
    """Rewrite the 1-based block position field of a saved block container."""
    raw = bytearray(path.read_bytes())
    order = int.from_bytes(raw[6:10], "little")
    offset = 10 + 8 * order + 8 * (order + 1)  # header, mode sizes, ranks
    raw[offset:offset + 4] = position.to_bytes(4, "little")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "case, message",
    [
        ("shape-not-integer", "bad shape '2,x'"),
        ("shape-zero", "bad shape '0,8'"),
        ("empty-raw", "holds no float64 data"),
        ("eig-on-vector", "does not hold a TT matrix"),
        ("solve-rhs-matrix", "does not hold a TT vector"),
        ("no-cores", "TTK1 container with no cores"),
        ("block-position-0", "corrupt TTK1 container: block position 0"),
        ("block-position-past-end", "corrupt TTK1 container: block position 3"),
        ("k-beyond-capped-local-dimension", "local dimension 2 cannot hold K=4 vectors"),
    ],
)
def test_refusal_is_one_line_error(tmp_path, capsys, case, message):
    from oracles import block_container

    raw, vec, op, blk = (tmp_path / name for name in ("x.raw", "v.tt", "op.tt", "b.tt"))
    write_raw(raw, np.arange(16.0))
    container.save(random_tt((2, 2), 2, np.random.default_rng(0)), vec)
    container.save(mpo_svd(laplacian(64), (2,) * 6, (2,) * 6, TruncationPolicy(1e-13)), op)
    blk.write_bytes(block_container(TTMatrix([np.ones((1, 2, 2, 2)), np.ones((2, 2, 1, 1))]), 0))
    out = tmp_path / "out"
    argv = {
        "shape-not-integer": ["compress", raw, "--shape", "2,x", "-o", out],
        "shape-zero": ["compress", raw, "--shape", "0,8", "-o", out],
        "empty-raw": ["compress", raw, "--shape", "8", "-o", out],
        "eig-on-vector": ["eig", vec, "-o", out],
        "solve-rhs-matrix": ["solve", op, "--rhs", op, "-o", out],
        "no-cores": ["info", vec],
        "block-position-0": ["info", blk],
        "block-position-past-end": ["info", blk],
        "k-beyond-capped-local-dimension": ["eig", op, "--k", 4, "--rank", 4, "--max-rank", 1, "-o", out],
    }[case]
    if case == "empty-raw":
        raw.write_bytes(b"")
    elif case == "no-cores":
        vec.write_bytes(vec.read_bytes()[:6] + (0).to_bytes(4, "little"))
    elif case.startswith("block-position"):
        _with_block_position(blk, 0 if case == "block-position-0" else 3)
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err
    assert not list(tmp_path.glob("out*"))
