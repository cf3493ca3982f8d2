import numpy as np
import pytest

from oracles import block_container, block_from_tts, random_mpo
from ttkit import container
from ttkit.train import TTMatrix, TTVector, mpo_to_full, random_tt


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = random_tt((2, 3, 4), 3, rng)
    path = tmp_path / "x.tt"
    container.save(x, path)
    y = container.load(path)
    assert isinstance(y, TTVector)
    assert y.mode_sizes == x.mode_sizes
    assert y.ranks == x.ranks
    for a, b in zip(x.cores, y.cores):
        assert np.array_equal(a, b)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = random_mpo((2, 3), (4, 2), 2, rng)
    path = tmp_path / "a.tt"
    container.save(a, path)
    b = container.load(path)
    assert isinstance(b, TTMatrix)
    assert b.row_sizes == a.row_sizes
    assert b.col_sizes == a.col_sizes
    for x, y in zip(a.cores, b.cores):
        assert np.array_equal(x, y)


def test_block_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    blk = block_from_tts([random_tt((2, 2, 2), 2, rng) for _ in range(3)])
    path = tmp_path / "b.tt"
    container.save(blk, path)
    back = container.load(path)
    assert isinstance(back, TTMatrix)
    assert back.col_sizes == blk.col_sizes
    assert back.shape[1] == 3
    assert np.allclose(back.full(), blk.full())


@pytest.mark.parametrize("position", range(3))
def test_block_container_loads_as_a_tt_matrix(tmp_path, position):
    # TTK1 has kinds 0 and 1 only: a block TT with K = 3 at ``position`` is
    # the TT matrix with column size 3 there, 1 elsewhere, saved and loaded
    # as kind 1; the block TT layout (kind 2) is refused
    rng = np.random.default_rng(6)
    shapes = [(1, 2, 1, 2), (2, 3, 1, 2), (2, 2, 1, 1)]
    shapes[position] = shapes[position][:2] + (3,) + shapes[position][3:]
    # small integers: every product is exact, so the dense form is known
    x = TTMatrix([rng.integers(-3, 4, shape).astype(np.float64) for shape in shapes])
    path = tmp_path / "b.tt"
    path.write_bytes(block_container(x, position))
    with pytest.raises(ValueError, match="^unknown TTK1 kind 2$"):
        container.load(path)
    container.save(x, tmp_path / "m.tt")
    assert (tmp_path / "m.tt").read_bytes()[5] == 1
    back = container.load(tmp_path / "m.tt")
    assert isinstance(back, TTMatrix)
    assert back.col_sizes == x.col_sizes and back.ranks == x.ranks
    assert back.col_sizes == tuple(3 if n == position else 1 for n in range(3))
    for a, b in zip(back.cores, x.cores):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    dense = back.full()
    assert dense.tobytes() == mpo_to_full(x).tobytes()
    exact = np.einsum("aijb,bklc,cmnd->ikmjln", *x.cores).reshape(12, 3)
    assert np.array_equal(dense, exact)


def test_header_layout(tmp_path):
    x = TTVector([np.arange(6.0).reshape(1, 3, 2), np.arange(8.0).reshape(2, 4, 1)])
    path = tmp_path / "x.tt"
    container.save(x, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TTK1"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # kind: vector
    assert int.from_bytes(raw[6:10], "little") == 2  # order
    modes = np.frombuffer(raw[10:26], dtype="<u8")
    assert list(modes) == [3, 4]
    ranks = np.frombuffer(raw[26:50], dtype="<u8")
    assert list(ranks) == [1, 2, 1]
    payload = np.frombuffer(raw[50:], dtype="<f8")
    assert np.array_equal(payload[:6], np.arange(6.0))
    assert np.array_equal(payload[6:], np.arange(8.0))


def test_corrupt_magic(tmp_path):
    path = tmp_path / "bad.tt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="TTK1"):
        container.load(path)


def test_truncated_file(tmp_path):
    rng = np.random.default_rng(3)
    x = random_tt((2, 2, 2), 2, rng)
    path = tmp_path / "x.tt"
    container.save(x, path)
    clipped = tmp_path / "clip.tt"
    clipped.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        container.load(clipped)


def test_save_load_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    x = random_tt((2, 3, 2), 2, rng)
    p1, p2 = tmp_path / "a.tt", tmp_path / "b.tt"
    container.save(x, p1)
    container.save(x, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _header(modes, ranks):
    return (
        b"TTK1" + bytes([1, 0]) + len(modes).to_bytes(4, "little")
        + np.asarray(modes + ranks, dtype="<u8").tobytes()
    )


@pytest.mark.parametrize(
    "modes, ranks",
    [
        ([2 ** 40], [1, 1]),  # declared payload far beyond the file
        ([2 ** 63 + 2], [1, 1]),  # would wrap negative as int64
        ([2, 2 ** 62], [1, 2 ** 62, 1]),  # product overflows int64
    ],
)
def test_oversized_header_is_rejected_before_reading(tmp_path, modes, ranks):
    path = tmp_path / "big.tt"
    path.write_bytes(_header(modes, ranks) + b"\x00" * 64)
    with pytest.raises(ValueError, match="truncated"):
        container.load(path)


@pytest.mark.parametrize("modes, ranks", [([0, 2], [1, 1, 1]), ([2, 2], [1, 0, 1])])
def test_zero_mode_or_rank_is_rejected(tmp_path, modes, ranks):
    path = tmp_path / "zero.tt"
    path.write_bytes(_header(modes, ranks))
    with pytest.raises(ValueError, match="zero"):
        container.load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_core_is_rejected(tmp_path, bad):
    x = random_tt((2, 3, 2), 2, np.random.default_rng(5))
    path = tmp_path / "x.tt"
    container.save(x, path)
    # the payload ends the file: its last entry is the last core's
    path.write_bytes(path.read_bytes()[:-8] + np.float64(bad).tobytes())
    with pytest.raises(ValueError, match="core 2 holds a non-finite value"):
        container.load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_non_finite_core_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "x.tt"
    with pytest.raises(ValueError, match="^cannot save core 0: it holds a non-finite value$"):
        container.save(TTVector([np.full((1, 2, 1), bad)]), path)
    x = random_tt((2, 3, 2), 2, np.random.default_rng(5))
    x.cores[2][1, 0, 0] = bad
    with pytest.raises(ValueError, match="^cannot save core 2: it holds a non-finite value$"):
        container.save(x, path)
    assert not path.exists()


def test_save_refuses_an_unsupported_object(tmp_path):
    path = tmp_path / "x.tt"
    with pytest.raises(TypeError, match="^cannot save ndarray$"):
        container.save(np.ones((1, 2, 1)), path)
    assert not path.exists()
