"""Canonical byte encoding shared by key, profile and wire serialization.

Every integer is encoded as its big-endian magnitude prefixed by a 4-byte
big-endian length; byte strings use the same length prefix.  Decoding is
strict: a magnitude with a leading zero byte is rejected, so every value has
exactly one encoding and records round-trip byte-identically.  A sequence
is a 4-byte big-endian item count followed by the encoded items; decoding
refuses counts above a caller-given limit before reading any item.
"""

from __future__ import annotations

from typing import Callable, Iterable, NoReturn, Sequence, TypeVar

__all__ = ["MAX_COEFFS", "MAX_ENTRIES", "DecodeError", "Reader",
           "encode_bytes", "encode_seq", "encode_str", "encode_uint",
           "encode_uints"]

# Decoding limits on sequence counts: polynomial coefficients (and blinded
# randomizers) per record or challenge, and triples per response.
MAX_COEFFS = 1 << 20
MAX_ENTRIES = 1 << 20

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

    @property
    def position(self) -> int:
        return self._pos

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

    def bytes_lp(self, max_length: int | None = None) -> bytes:
        length = int.from_bytes(self.take(4), "big")
        if max_length is not None and length > max_length:
            self.fail(f"length {length} exceeds limit {max_length}")
        return self.take(length)

    def str_lp(self, max_length: int | None = None) -> str:
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

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            self.fail(f"{len(self._data) - self._pos} trailing bytes")
