import numpy as np
import pytest

from ttkit import container
from ttkit.cli import main
from ttkit.quantize import storage_report
from ttkit.train import TruncationPolicy, mpo_svd, random_tt


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
    assert container.load(tmp_path / "eig.tt").num_vectors == 3


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


def test_nan_tolerance_is_one_line_error(tmp_path, capsys):
    op = mpo_svd(laplacian(16), (2,) * 4, (2,) * 4, TruncationPolicy(1e-13))
    op_path = tmp_path / "op.tt"
    container.save(op, op_path)
    code, stdout, err = run(capsys, "eig", op_path, "--tol", "nan", "-o", tmp_path / "o")
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


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
