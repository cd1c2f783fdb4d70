"""The model-file format: a 4-byte magic, a u16 version, then the model's
little-endian integers and float64 arrays in a fixed order, nothing past the end."""

import math
import struct

import numpy as np


def header(magic: bytes, version: int) -> bytes:
    return magic + struct.pack("<H", version)


def floats(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


class Reader:
    """Reads one model file's fields in order, starting after its header."""

    def __init__(self, blob: bytes, magic: bytes, version: int, kind: str):
        if blob[:4] != magic:
            raise ValueError(f"not a {kind} model file")
        self._blob, self._offset = blob, 4
        (found,) = self.unpack("<H")
        if found != version:
            raise ValueError(f"unsupported model version {found}")

    def _take(self, size: int) -> int:
        """Offset of the next `size` bytes, which the reader then moves past."""
        start, self._offset = self._offset, self._offset + size
        if self._offset > len(self._blob):
            raise ValueError(f"model cut short: {len(self._blob)} bytes, need {self._offset}")
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self._blob, self._take(struct.calcsize(fmt)))

    def floats(self, *shape: int) -> np.ndarray:
        count = math.prod(shape)
        return np.frombuffer(self._blob, "<f8", count, self._take(8 * count)).reshape(shape).copy()

    def end(self) -> None:
        extra = len(self._blob) - self._offset
        if extra:
            raise ValueError(f"{extra} bytes past the end of the model")
