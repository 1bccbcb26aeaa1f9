"""Bit-exact tensor serialization (the "FGTS" container).

Layout, all integers little-endian:

    magic "FGTS" | u8 format-version = 1 | u32 tensor-count
    per tensor: u16 name-length | UTF-8 name | u8 dtype (0 = f32) | u8 rank
                | rank x u32 dims | row-major little-endian f32 payload

The canonical form writes names in strictly ascending order and ends with
the last payload, so identical contents always produce identical bytes
(version ids are derived from these bytes). ``encode_tensors`` writes only
that form and ``decode_tensors`` accepts only that form.

A decoded container is a ``Tensors``: a read-only mapping over its encoded
bytes. Building one checks the whole header and reads no payload, so it
carries each tensor's shape and its bytes (``raw``) without numpy. An array
is decoded, and numpy imported, only when it is first read; the engine and
its wire server pass states through as bytes and never do. A container
whose arrays have been read is encoded from those arrays, so an edit made
to one in place is saved.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from typing import TYPE_CHECKING

from forge.errors import CorruptStore, InvalidArgument

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"FGTS"
FORMAT_VERSION = 1
DTYPE_F32 = 0


class Tensors(Mapping):
    """name -> f32 array, over the canonical container ``raw``. Each array is
    decoded on its first read and kept by this instance; it is the reader's
    own copy, so writing to it changes neither ``raw`` nor another
    container over the same bytes."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.shapes: dict[str, tuple[int, ...]] = {}  # from the header, in name order
        self._offsets: dict[str, int] = {}
        self._arrays: dict[str, np.ndarray] = {}
        try:
            off = self._parse_header()
        except (struct.error, UnicodeDecodeError) as exc:
            raise CorruptStore(f"malformed tensor container: {exc}") from None
        if off != len(raw):
            raise CorruptStore(f"tensor container of {off} bytes followed by "
                               f"{len(raw) - off} more")

    def _parse_header(self) -> int:
        """Fill ``shapes`` and ``_offsets``; the container's length."""
        raw = self.raw
        if raw[:4] != MAGIC:
            raise CorruptStore("bad tensor container magic")
        version, count = struct.unpack_from("<BI", raw, 4)
        if version != FORMAT_VERSION:
            raise CorruptStore(f"unsupported tensor container version {version}")
        off, last = 9, None
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, off)
            name = raw[off + 2:off + 2 + name_len].decode("utf-8")
            dtype, rank = struct.unpack_from("<BB", raw, off + 2 + name_len)
            off += 4 + name_len
            if last is not None and name <= last:
                raise CorruptStore(f"tensor name {name!r} does not sort after {last!r}")
            if dtype != DTYPE_F32:
                raise CorruptStore(f"unknown tensor dtype {dtype}")
            dims = struct.unpack_from(f"<{rank}I", raw, off)
            off += 4 * rank
            self.shapes[name] = dims
            self._offsets[name] = off
            off += 4 * math.prod(dims)
            if off > len(raw):
                raise CorruptStore("truncated tensor payload")
            last = name
        return off

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None:
            import numpy as np

            dims = self.shapes[name]
            arr = np.frombuffer(self.raw, "<f4", math.prod(dims),
                                self._offsets[name]).reshape(dims).copy()
            self._arrays[name] = arr
        return arr

    def __contains__(self, name) -> bool:  # Mapping's own would decode the array
        return name in self.shapes

    def __iter__(self):
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)


def encode_tensors(tensors: Mapping[str, np.ndarray]) -> bytes:
    """The canonical container of ``tensors``. A ``Tensors`` none of whose
    arrays has been read is its ``raw``; once one has been, the arrays are
    encoded, since the reader may have written to them."""
    if isinstance(tensors, Tensors) and not tensors._arrays:
        return tensors.raw
    import numpy as np

    parts = [MAGIC, struct.pack("<BI", FORMAT_VERSION, len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # note: would promote 0-d to 1-d
        if arr.dtype != np.float32:
            raise InvalidArgument(f"tensor {name!r} must be float32, got {arr.dtype}")
        if arr.ndim > 255:
            raise InvalidArgument("tensor rank exceeds 255")
        raw_name = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<BB", DTYPE_F32, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f4", copy=False).tobytes())
    return b"".join(parts)


def decode_tensors(buf: bytes) -> Tensors:
    """The container ``buf``; CorruptStore unless it is in canonical form."""
    return Tensors(buf)
