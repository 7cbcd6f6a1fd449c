"""Framed binary wire protocol between device and carrier.

Frame layout: 1 version byte (0x04), 1 message-type byte, a 4-byte big-endian
payload length, then the payload.  Payloads use the canonical length-prefixed
encoding from ``encoding``; integer sequences carry a 4-byte count prefix and
user ids are length-prefixed UTF-8 of at most 256 bytes.  A profile and a
challenge carry the 32-byte seed of the blinded randomizers, length-prefixed,
where version 0x03 carried the randomizers themselves.  A response entry is
two integers, the cipher and the ratio.

Message types:

    0x01 StoreProfile(userId, profile)    0x02 StoreAck
    0x03 AuthInit(userId, sampleSize)     0x04 Challenge(challenge)
    0x05 Response(sessionId, entries)     0x06 Result(decision)
    0x7F Error(code, text)

Error codes: 0x01 unknown user, 0x02 expired/consumed session, 0x03 decode
failure, 0x04 protocol violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Union

from .encoding import MAX_ENTRIES, MAX_SESSION_ID_BYTES, MAX_USER_ID_BYTES, \
    DecodeError, Reader, encode_bytes, encode_seq, encode_str, encode_uint
from .profiles import EncryptedProfile
from .protocol import AuthChallenge, AuthDecision, AuthResponseEntry

__all__ = [
    "AuthInit",
    "Challenge",
    "ErrorReply",
    "Message",
    "Response",
    "Result",
    "StoreAck",
    "StoreProfile",
    "DecodeError",
    "ERR_DECODE",
    "ERR_PROTOCOL",
    "ERR_SESSION",
    "ERR_UNKNOWN_USER",
    "FramingError",
    "MAX_PAYLOAD",
    "PROTOCOL_VERSION",
    "REPLIES",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "write_frame",
]

PROTOCOL_VERSION = 0x04
MAX_PAYLOAD = 64 * 1024 * 1024


class FramingError(DecodeError):
    """``read_frame`` read no whole frame, so the stream has no frame
    boundary left to resume at: it ended inside a frame, or a header
    declared more than ``MAX_PAYLOAD`` and its payload stays unread."""


ERR_UNKNOWN_USER = 0x01
ERR_SESSION = 0x02
ERR_DECODE = 0x03
ERR_PROTOCOL = 0x04


@dataclass(frozen=True)
class StoreProfile:
    user_id: str
    profile: EncryptedProfile


@dataclass(frozen=True)
class StoreAck:
    pass


@dataclass(frozen=True)
class AuthInit:
    user_id: str
    sample_size: int


@dataclass(frozen=True)
class Challenge:
    challenge: AuthChallenge


@dataclass(frozen=True)
class Response:
    session_id: bytes
    entries: tuple[AuthResponseEntry, ...]


@dataclass(frozen=True)
class Result:
    decision: AuthDecision


@dataclass(frozen=True)
class ErrorReply:
    code: int
    text: str


Message = Union[StoreProfile, StoreAck, AuthInit, Challenge, Response,
                Result, ErrorReply]

# Request type -> the reply type the carrier answers it with, unless it
# answers with an ErrorReply.
REPLIES: dict[type, type] = {StoreProfile: StoreAck, AuthInit: Challenge,
                             Response: Result}


def _encode_error(msg: ErrorReply) -> bytes:
    if not 0 <= msg.code <= 0xFF:
        raise ValueError("error code must fit one byte")
    return bytes([msg.code]) + encode_str(msg.text)


# Message-type byte -> (class, payload encoder, payload decoder).
_CODECS: dict[int, tuple[type, Callable[[Any], bytes],
                         Callable[[Reader], Message]]] = {
    0x01: (StoreProfile,
           lambda m: encode_str(m.user_id) + m.profile.to_bytes(),
           lambda r: StoreProfile(r.str_lp(MAX_USER_ID_BYTES),
                                  EncryptedProfile.from_reader(r))),
    0x02: (StoreAck, lambda m: b"", lambda r: StoreAck()),
    0x03: (AuthInit,
           lambda m: encode_str(m.user_id) + encode_uint(m.sample_size),
           lambda r: AuthInit(r.str_lp(MAX_USER_ID_BYTES), r.uint())),
    0x04: (Challenge, lambda m: m.challenge.to_bytes(),
           lambda r: Challenge(AuthChallenge.from_reader(r))),
    0x05: (Response,
           lambda m: encode_bytes(m.session_id) +
           encode_seq([entry.to_bytes() for entry in m.entries]),
           lambda r: Response(r.bytes_lp(MAX_SESSION_ID_BYTES), r.seq(
               lambda: AuthResponseEntry.from_reader(r), MAX_ENTRIES))),
    0x06: (Result, lambda m: m.decision.to_bytes(),
           lambda r: Result(AuthDecision.from_reader(r))),
    0x7F: (ErrorReply, _encode_error,
           lambda r: ErrorReply(r.byte(), r.str_lp(1 << 16))),
}
_TAGS: dict[type, int] = {cls: tag for tag, (cls, _, _) in _CODECS.items()}


def encode_frame(msg: Message) -> bytes:
    tag = _TAGS.get(type(msg))
    if tag is None:
        raise TypeError(f"not a wire message: {type(msg).__name__}")
    payload = _CODECS[tag][1](msg)
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the frame limit")
    return bytes([PROTOCOL_VERSION, tag]) + \
        len(payload).to_bytes(4, "big") + payload


def decode_frame(data: bytes) -> Message:
    if len(data) < 6:
        raise DecodeError("frame shorter than its header", len(data))
    version, tag = data[0], data[1]
    if version != PROTOCOL_VERSION:
        raise DecodeError(f"unsupported version 0x{version:02x}", 0)
    length = int.from_bytes(data[2:6], "big")
    if length > MAX_PAYLOAD:
        raise DecodeError(f"payload length {length} exceeds the frame limit", 2)
    if len(data) != 6 + length:
        raise DecodeError(
            f"frame length {len(data)} does not match header ({6 + length})", 6)
    reader = Reader(data[6:])
    codec = _CODECS.get(tag)
    if codec is None:
        reader.fail(f"unknown message type 0x{tag:02x}")
    msg = codec[2](reader)
    reader.expect_end()
    return msg


def write_frame(stream: BinaryIO, msg: Message) -> None:
    stream.write(encode_frame(msg))
    stream.flush()


def read_frame(stream: BinaryIO) -> Message | None:
    """Read one frame; ``None`` on clean end of stream.

    A frame read whole that fails to decode, for an unknown version or
    message type or a bad payload, raises ``DecodeError`` with its payload
    consumed, so framing stays in sync and the peer can be answered with an
    error instead of dropping the connection.  A frame not read whole
    raises ``FramingError``.
    """
    header = stream.read(6)
    if not header:
        return None
    if len(header) < 6:
        raise FramingError("truncated frame header", len(header))
    length = int.from_bytes(header[2:6], "big")
    if length > MAX_PAYLOAD:
        raise FramingError(f"payload length {length} exceeds the frame limit",
                           2)
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise FramingError("truncated payload", 6 + len(payload))
    return decode_frame(header + payload)
