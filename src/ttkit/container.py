"""Binary container for TT objects.

Layout (all integers and floats little-endian):

* magic ``TTK1`` (4 bytes), version u8 = 1, kind u8
  (0 = TT vector, 1 = TT matrix);
* N as u32;
* mode sizes as u64 (N values; interleaved pairs I_n, J_n for kind 1);
* ranks as u64 (N + 1 values);
* core payloads concatenated in chain order as finite IEEE-754 f64, each
  laid out with the first rank slowest, then the mode index (then the column
  mode for a matrix), last rank fastest.

K vectors held jointly are a TT matrix and are saved as kind 1; any other
kind is refused.
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from .train import TTMatrix, TTVector

__all__ = ["MAGIC", "save", "save_all", "load"]

MAGIC = b"TTK1"
VERSION = 1
KIND_VECTOR, KIND_MATRIX = 0, 1


def _write_u64s(fh, values):
    fh.write(np.asarray(list(values), dtype="<u8").tobytes())


def _read_exact(fh, count: int) -> bytes:
    """Read ``count`` bytes, refusing before any allocation when fewer are
    left in the file (``count`` comes from untrusted header fields)."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise ValueError(f"truncated TTK1 container: {count} bytes declared, {left} left")
    data = fh.read(count)
    if len(data) != count:
        raise ValueError("truncated TTK1 container")
    return data


def _read_u64s(fh, count: int) -> list:
    # Python ints: u64 fields >= 2^63 must not wrap negative
    return [int(v) for v in np.frombuffer(_read_exact(fh, 8 * count), dtype="<u8")]


def save(obj, path):
    """Write a TT vector or a TT matrix to ``path``; a core holding a NaN or
    an infinity is refused before the file is opened."""
    save_all([(obj, path)])


def save_all(pairs):
    """Write each ``(obj, path)`` of ``pairs``, or none of them: every object
    is encoded, and one that :func:`save` refuses is refused, before the
    first file is opened."""
    encoded = [(_encode(obj), path) for obj, path in pairs]
    for data, path in encoded:
        with open(path, "wb") as fh:
            fh.write(data)


def _encode(obj) -> bytes:
    """The container bytes of ``obj`` (see :func:`save`), or ``ValueError``
    naming its first non-finite core."""
    if isinstance(obj, TTVector):
        kind = KIND_VECTOR
    elif isinstance(obj, TTMatrix):
        kind = KIND_MATRIX
    else:
        raise TypeError(f"cannot save {type(obj).__name__}")
    buf = io.BytesIO()
    buf.write(struct.pack("<4sBBI", MAGIC, VERSION, kind, obj.order))
    if kind == KIND_MATRIX:
        modes = [v for pair in zip(obj.row_sizes, obj.col_sizes) for v in pair]
    else:
        modes = list(obj.mode_sizes)
    _write_u64s(buf, modes)
    _write_u64s(buf, obj.ranks)
    for n, core in enumerate(obj.cores):
        if not np.isfinite(core).all():
            raise ValueError(f"cannot save core {n}: it holds a non-finite value")
        buf.write(np.ascontiguousarray(core, dtype="<f8").tobytes())
    return buf.getvalue()


def load(path):
    """Read a TTK1 container; returns a TTVector for kind 0 and a TTMatrix
    for kind 1."""
    with open(path, "rb") as fh:
        header = _read_exact(fh, 10)
        magic, version, kind, order = struct.unpack("<4sBBI", header)
        if magic != MAGIC:
            raise ValueError(f"not a TTK1 container (magic {magic!r})")
        if version != VERSION:
            raise ValueError(f"unsupported TTK1 version {version}")
        if kind not in (KIND_VECTOR, KIND_MATRIX):
            raise ValueError(f"unknown TTK1 kind {kind}")
        if order < 1:
            raise ValueError("TTK1 container with no cores")
        sizes = _read_u64s(fh, (2 if kind == KIND_MATRIX else 1) * order)
        if kind == KIND_MATRIX:
            rows, cols = sizes[0::2], sizes[1::2]
        else:
            rows, cols = sizes, [1] * order
        ranks = _read_u64s(fh, order + 1)
        if ranks[0] != 1 or ranks[-1] != 1:
            raise ValueError("corrupt TTK1 container: boundary ranks differ from 1")
        if min(rows + cols + ranks) < 1:
            raise ValueError("corrupt TTK1 container: zero mode size or rank")
        cores = []
        for n in range(order):
            shape = (ranks[n], rows[n], cols[n], ranks[n + 1])
            count = math.prod(shape)
            data = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8")
            if not np.isfinite(data).all():
                raise ValueError(f"corrupt TTK1 container: core {n} holds a non-finite value")
            cores.append(data.astype(np.float64).reshape(shape))
        if fh.read(1):
            raise ValueError("trailing bytes after TTK1 payload")
    if kind == KIND_VECTOR:
        return TTVector([c[:, :, 0] for c in cores], copy=False)
    return TTMatrix(cores, copy=False)
