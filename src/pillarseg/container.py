"""Single-file binary container for named arrays.

Used for parameter checkpoints. Layout (all little-endian):

    magic   4 bytes  b"PSTC"
    version u32
    count   u32
    entries, each:
        name_len u16, name utf-8 bytes
        dtype    u8, always 0: float32
        ndim     u8
        dims     u32 * ndim
        payload  raw little-endian float32 bytes, row-major

Checkpoints store parameters and buffers as float32, the only dtype a
container holds; any other dtype or dtype code is a ``FormatError``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"PSTC"
VERSION = 1

_F4_CODE = 0
_DTYPE = np.dtype("<f4")


def write_container(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays to `path`, overwriting any existing file."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype != np.float32:
            raise FormatError(f"container holds float32 arrays only, got {arr.dtype} for {name!r}")
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<BB", _F4_CODE, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype(_DTYPE, copy=False).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_container(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`write_container`; bytes past its
    last entry are a ``FormatError``."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MAGIC:
        raise FormatError(f"not a container file: {path}")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    out: dict[str, np.ndarray] = {}
    off = 12
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            try:
                name = data[off : off + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"entry name at byte {off} is not UTF-8") from exc
            off += name_len
            if name in out:
                raise FormatError(f"duplicate entry {name!r}")
            code, ndim = struct.unpack_from("<BB", data, off)
            off += 2
            dims = struct.unpack_from(f"<{ndim}I", data, off)
            off += 4 * ndim
            if code != _F4_CODE:
                raise FormatError(f"unknown dtype code {code} for entry {name!r}")
            nbytes = math.prod(dims) * _DTYPE.itemsize
            if off + nbytes > len(data):
                raise FormatError(f"truncated payload for entry {name!r}")
            payload = np.frombuffer(data[off : off + nbytes], dtype=_DTYPE)
            try:
                out[name] = payload.reshape(dims).copy()
            except ValueError as exc:  # more dims than numpy supports
                raise FormatError(f"entry {name!r} has {ndim} dims") from exc
            off += nbytes
    except struct.error as exc:
        raise FormatError(f"truncated container file: {path}") from exc
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes after the last entry: {path}")
    return out
