"""Single-file binary container for named arrays.

Used for parameter checkpoints and cached frames. Layout (all little-endian):

    magic   4 bytes  b"PSTC"
    version u32
    count   u32
    entries, each:
        name_len u16, name utf-8 bytes
        dtype    u8 (code below)
        ndim     u8
        dims     u32 * ndim
        payload  raw little-endian array bytes, row-major

Checkpoints store parameters as 32-bit floats; caches may use any listed dtype.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"PSTC"
VERSION = 1

_DTYPE_CODES = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<u2"),
    3: np.dtype("<u4"),
    4: np.dtype("<i8"),
    5: np.dtype("|u1"),
}
_CODE_FOR_KIND = {np.dtype(d).str.lstrip("<|="): c for c, d in _DTYPE_CODES.items()}


def _code_for(arr: np.ndarray) -> int:
    key = np.dtype(arr.dtype).str.lstrip("<|=>")
    if key not in _CODE_FOR_KIND:
        raise FormatError(f"unsupported container dtype: {arr.dtype}")
    return _CODE_FOR_KIND[key]


def write_container(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays to `path`, overwriting any existing file."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        code = _code_for(arr)
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<BB", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        chunks.append(le.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_container(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`write_container`."""
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
            if code not in _DTYPE_CODES:
                raise FormatError(f"unknown dtype code {code} for entry {name!r}")
            dtype = _DTYPE_CODES[code]
            nbytes = math.prod(dims) * dtype.itemsize
            if off + nbytes > len(data):
                raise FormatError(f"truncated payload for entry {name!r}")
            payload = np.frombuffer(data[off : off + nbytes], dtype=dtype)
            try:
                out[name] = payload.reshape(dims).copy()
            except ValueError as exc:  # more dims than numpy supports
                raise FormatError(f"entry {name!r} has {ndim} dims") from exc
            off += nbytes
    except struct.error as exc:
        raise FormatError(f"truncated container file: {path}") from exc
    return out
