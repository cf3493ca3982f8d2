"""Binary container for TT objects.

Layout (all integers and floats little-endian):

* magic ``TTK1`` (4 bytes), version u8 = 1, kind u8
  (0 = TT vector, 1 = TT matrix, 2 = block TT);
* N as u32;
* mode sizes as u64 (N values; interleaved pairs I_n, J_n for kind 1);
* ranks as u64 (N + 1 values);
* kind 2 only: block position as u32 (1-based), K as u64;
* core payloads concatenated in chain order as IEEE-754 f64, each laid out
  with the first rank slowest, then the mode index (then the column mode for
  a matrix, then the block index for the block core), last rank fastest.
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from .train import BlockTT, TTMatrix, TTVector

__all__ = ["MAGIC", "save", "load"]

MAGIC = b"TTK1"
VERSION = 1
KIND_VECTOR, KIND_MATRIX, KIND_BLOCK = 0, 1, 2


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
    """Write a TT vector / TT matrix / block TT to ``path``."""
    if isinstance(obj, TTVector):
        kind = KIND_VECTOR
    elif isinstance(obj, TTMatrix):
        kind = KIND_MATRIX
    elif isinstance(obj, BlockTT):
        kind = KIND_BLOCK
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
    if kind == KIND_BLOCK:
        buf.write(struct.pack("<I", obj.position + 1))
        _write_u64s(buf, [obj.num_vectors])
    for core in obj.cores:
        buf.write(np.ascontiguousarray(core, dtype="<f8").tobytes())
    data = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(data)


def load(path):
    """Read a TTK1 container; returns a TTVector, TTMatrix or BlockTT."""
    with open(path, "rb") as fh:
        header = _read_exact(fh, 10)
        magic, version, kind, order = struct.unpack("<4sBBI", header)
        if magic != MAGIC:
            raise ValueError(f"not a TTK1 container (magic {magic!r})")
        if version != VERSION:
            raise ValueError(f"unsupported TTK1 version {version}")
        if kind not in (KIND_VECTOR, KIND_MATRIX, KIND_BLOCK):
            raise ValueError(f"unknown TTK1 kind {kind}")
        if order < 1:
            raise ValueError("TTK1 container with no cores")
        sizes = _read_u64s(fh, (2 if kind == KIND_MATRIX else 1) * order)
        if kind == KIND_MATRIX:
            rows, cols = sizes[0::2], sizes[1::2]
        else:
            modes = sizes
        ranks = _read_u64s(fh, order + 1)
        if ranks[0] != 1 or ranks[-1] != 1:
            raise ValueError("corrupt TTK1 container: boundary ranks differ from 1")
        position = k_cols = None
        if kind == KIND_BLOCK:
            (position,) = struct.unpack("<I", _read_exact(fh, 4))
            (k_cols,) = _read_u64s(fh, 1)
            if not 1 <= position <= order:
                raise ValueError(f"corrupt TTK1 container: block position {position}")
            sizes = sizes + [k_cols]
        if min(sizes + ranks) < 1:
            raise ValueError("corrupt TTK1 container: zero mode size, rank or block size")
        cores = []
        for n in range(order):
            if kind == KIND_MATRIX:
                shape = (ranks[n], rows[n], cols[n], ranks[n + 1])
            elif kind == KIND_BLOCK and n == position - 1:
                shape = (ranks[n], modes[n], k_cols, ranks[n + 1])
            else:
                shape = (ranks[n], modes[n], ranks[n + 1])
            count = math.prod(shape)
            data = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8")
            cores.append(data.astype(np.float64).reshape(shape))
        if fh.read(1):
            raise ValueError("trailing bytes after TTK1 payload")
    if kind == KIND_VECTOR:
        return TTVector(cores, copy=False)
    if kind == KIND_MATRIX:
        return TTMatrix(cores, copy=False)
    return BlockTT(cores, position - 1, copy=False)
