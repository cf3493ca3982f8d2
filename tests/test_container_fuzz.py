"""Property tests of the TTK1 container: random TT vectors and matrices
survive ``save``/``load`` bit for bit, and a corrupted file, a block TT
container (kind 2) among them, is refused with ``ValueError`` and nothing
else."""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import block_container
from ttkit import container
from ttkit.train import TTMatrix, TTVector

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def trains(draw, kind=None):
    """A TTVector, a TTMatrix, or a TTMatrix whose column size is 1 on every
    core but one ("block"), with small random shapes and finite entries,
    signed zeros and subnormals included."""
    kind = draw(st.sampled_from(["vector", "matrix", "block"])) if kind is None else kind
    order = draw(st.integers(1, 4))
    ranks = [1] + [draw(st.integers(1, 3)) for _ in range(order - 1)] + [1]
    modes = [draw(st.integers(1, 3)) for _ in range(order)]
    if kind == "matrix":
        cols = [draw(st.integers(1, 3)) for _ in range(order)]
        shapes = [(ranks[n], modes[n], cols[n], ranks[n + 1]) for n in range(order)]
    elif kind == "vector":
        shapes = [(ranks[n], modes[n], ranks[n + 1]) for n in range(order)]
    else:
        shapes = [(ranks[n], modes[n], 1, ranks[n + 1]) for n in range(order)]
        position = draw(st.integers(0, order - 1))
        r0, i, _, r1 = shapes[position]
        shapes[position] = (r0, i, draw(st.integers(1, 3)), r1)
    cores = [draw(arrays(np.float64, shape, elements=finite)) for shape in shapes]
    if kind == "vector":
        return TTVector(cores)
    return TTMatrix(cores)


@SETTINGS
@given(obj=st.one_of(trains("vector"), trains("matrix"), trains("block")))
def test_round_trip_is_bit_exact(tmp_path, obj):
    path = tmp_path / "x.tt"
    container.save(obj, path)
    back = container.load(path)
    assert type(back) is type(obj)
    assert len(back.cores) == len(obj.cores)
    for a, b in zip(obj.cores, back.cores):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def corruptions(draw):
    """The bytes of a saved train with some bytes overwritten, then cut
    short or extended."""
    data = bytearray(draw(st.sampled_from(_SAVED)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        data[at] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=16))


def _saved(obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.tt")
        container.save(obj, path)
        with open(path, "rb") as fh:
            return fh.read()


_rng = np.random.default_rng(0)
_SAVED = [
    _saved(TTVector([_rng.standard_normal((1, 2, 2)), _rng.standard_normal((2, 3, 1))])),
    _saved(TTMatrix([_rng.standard_normal((1, 2, 3, 2)), _rng.standard_normal((2, 2, 1, 1))])),
    block_container(TTMatrix([_rng.standard_normal((1, 2, 1, 2)), _rng.standard_normal((2, 2, 3, 1))]), 1),
]


@SETTINGS
@given(data=corruptions())
def test_corrupted_file_raises_only_value_error(tmp_path, data):
    path = tmp_path / "bad.tt"
    path.write_bytes(data)
    try:
        container.load(path)
    except ValueError:
        pass
