"""Canonical byte encoding shared by key, profile and wire serialization.

Every integer is encoded as its big-endian magnitude prefixed by a 4-byte
big-endian length; byte strings use the same length prefix.  Decoding is
strict: a magnitude with a leading zero byte is rejected, so every value has
exactly one encoding and records round-trip byte-identically.  A sequence
is a 4-byte big-endian item count followed by the encoded items; decoding
refuses counts above a caller-given limit before reading any item.  A
record's rules live in its constructor, which ``Reader.build`` calls.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence, TypeVar

__all__ = ["MAX_COEFFS", "MAX_ENTRIES", "MAX_SESSION_ID_BYTES",
           "MAX_USER_ID_BYTES", "DecodeError", "Reader", "encode_bytes",
           "encode_seq", "encode_str", "encode_uint", "encode_uints",
           "write_atomically"]

# Decoding limits on sequence counts: polynomial coefficients per record or
# challenge, and entries per response.
MAX_COEFFS = 1 << 20
MAX_ENTRIES = 1 << 20
# Decoding limits on field lengths: a UTF-8 user id and a session id.
MAX_USER_ID_BYTES = 256
MAX_SESSION_ID_BYTES = 64

T = TypeVar("T")


class DecodeError(ValueError):
    """Raised on a truncated or non-canonical byte sequence.

    ``position`` is the byte offset at which decoding failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


def encode_uint(value: int) -> bytes:
    if value < 0:
        raise ValueError("only nonnegative integers are encodable")
    magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return len(magnitude).to_bytes(4, "big") + magnitude


def encode_bytes(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode("utf-8"))


def encode_seq(items: Sequence[bytes]) -> bytes:
    """Count-prefix a sequence of already-encoded items."""
    return len(items).to_bytes(4, "big") + b"".join(items)


def encode_uints(values: Iterable[int]) -> bytes:
    return encode_seq([encode_uint(v) for v in values])


class Reader:
    """Sequential decoder over a byte buffer, tracking position for errors."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def fail(self, message: str) -> NoReturn:
        raise DecodeError(message, self._pos)

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            self.fail(f"truncated: {count} bytes needed, "
                      f"{len(self._data) - self._pos} available")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def uint(self) -> int:
        length = int.from_bytes(self.take(4), "big")
        magnitude = self.take(length)
        if length and magnitude[0] == 0:
            self.fail("non-canonical integer (leading zero byte)")
        return int.from_bytes(magnitude, "big")

    def bytes_lp(self, max_length: int) -> bytes:
        length = int.from_bytes(self.take(4), "big")
        if length > max_length:
            self.fail(f"length {length} exceeds limit {max_length}")
        return self.take(length)

    def str_lp(self, max_length: int) -> str:
        raw = self.bytes_lp(max_length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            self.fail("invalid UTF-8")

    def seq(self, read_item: Callable[[], T], limit: int) -> tuple[T, ...]:
        """Read a count-prefixed sequence of at most ``limit`` items."""
        count = int.from_bytes(self.take(4), "big")
        if count > limit:
            self.fail(f"sequence count {count} exceeds limit {limit}")
        return tuple(read_item() for _ in range(count))

    def uints(self, limit: int) -> tuple[int, ...]:
        return self.seq(self.uint, limit)

    def build(self, make: Callable[..., T], *args, **kwargs) -> T:
        """``make(*args, **kwargs)``, its ``ValueError`` a ``DecodeError``."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            self.fail(str(exc))

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            self.fail(f"{len(self._data) - self._pos} trailing bytes")


def write_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` through a temporary file renamed over ``path``: a
    reader sees the old bytes or the new, and only the owner may read them
    (``mkstemp``).  The file is synced before the rename and the directory
    after it, so a crash leaves the old bytes or the new, never an empty
    file."""
    fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        os.unlink(temp_name)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
