"""Little-endian binary primitives shared by the checkpoint and dataset formats."""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np


class FileFormatError(Exception):
    """A malformed binary file; the message names what is wrong."""


def expect_bytes(f: BinaryIO, n: int, what: str) -> None:
    # checked before reading, so an oversized count never allocates the request
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FileFormatError(f"truncated file: {what} needs {n} bytes, {left} left")


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    expect_bytes(f, n, what)
    return f.read(n)


def expect_end(f: BinaryIO, what: str) -> None:
    # a corrupted count field must not load as a shorter file
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left:
        raise FileFormatError(f"trailing bytes: {left} bytes after the last {what}")


def expect_magic(f: BinaryIO, magic: bytes) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise FileFormatError(f"bad magic: expected {magic!r}, got {got!r}")


def expect_version(f: BinaryIO, version: int) -> None:
    got = read_u32(f, "version")
    if got != version:
        raise FileFormatError(f"version mismatch: expected {version}, got {got}")


def read_u8(f: BinaryIO, what: str) -> int:
    return struct.unpack("<B", read_exact(f, 1, what))[0]


def read_u16(f: BinaryIO, what: str) -> int:
    return struct.unpack("<H", read_exact(f, 2, what))[0]


def read_u32(f: BinaryIO, what: str) -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def write_u8(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<B", value))


def write_u16(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<H", value))


def write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def write_f32_array(f: BinaryIO, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_f32_array(f: BinaryIO, shape: tuple[int, ...], what: str) -> np.ndarray:
    count = math.prod(shape)  # Python ints: u32 dims never overflow
    buf = read_exact(f, 4 * count, what)
    with np.errstate(invalid="ignore"):  # a signalling NaN; callers reject non-finite values
        return np.frombuffer(buf, dtype="<f4").astype(np.float64).reshape(shape)
