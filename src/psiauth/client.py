"""Device-side client: set-up and authentication over the wire."""

from __future__ import annotations

import random
import socket
from pathlib import Path

from .encoding import write_atomically
from .paillier import DEFAULT_KEY_BITS
from .profiles import DeviceSecret, EncryptedProfile, FeatureSet, \
    build_encrypted_profile
from .protocol import AuthDecision, respond, response_values
from .similarity import SimilarityFunction
from . import wire

__all__ = [
    "CarrierConnection",
    "CarrierReplyError",
    "authenticate",
    "load_device_secret",
    "setup_device",
    "store_profile",
    "write_device_secret",
]

# Seconds any one connect, read or write to the carrier may block.
SOCKET_TIMEOUT = 30.0


class CarrierReplyError(RuntimeError):
    """The carrier answered with an error frame."""

    def __init__(self, code: int, text: str):
        super().__init__(f"carrier error 0x{code:02x}: {text}")
        self.code = code
        self.text = text


class CarrierConnection:
    """One TCP connection to the carrier, request/reply framed."""

    def __init__(self, address: tuple[str, int]):
        self._sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT)
        self._stream = self._sock.makefile("rwb")

    def request(self, msg: wire.Message) -> wire.Message:
        """Send ``msg`` and return the carrier's reply, which must be of
        the type ``wire.REPLIES`` pairs with the request."""
        wire.write_frame(self._stream, msg)
        reply = wire.read_frame(self._stream)
        if reply is None:
            raise ConnectionError("carrier closed the connection")
        if isinstance(reply, wire.ErrorReply):
            raise CarrierReplyError(reply.code, reply.text)
        # The carrier answers anything but a request with an error.
        expected = wire.REPLIES.get(type(msg), wire.ErrorReply)
        if not isinstance(reply, expected):
            raise wire.DecodeError(f"expected {expected.__name__}, "
                                   f"got {type(reply).__name__}", 0)
        return reply

    def close(self) -> None:
        self._stream.close()
        self._sock.close()

    def __enter__(self) -> "CarrierConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def store_profile(address: tuple[str, int], user_id: str,
                  profile: EncryptedProfile) -> None:
    with CarrierConnection(address) as conn:
        conn.request(wire.StoreProfile(user_id, profile))


def write_device_secret(path: Path | str, secret: DeviceSecret) -> None:
    """Write the secret file atomically with owner-only permissions."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(path, secret.to_bytes())


def load_device_secret(path: Path | str) -> DeviceSecret:
    return DeviceSecret.from_bytes(Path(path).read_bytes())


def setup_device(address: tuple[str, int], user_id: str, features: FeatureSet,
                 secret_path: Path | str, bits: int = DEFAULT_KEY_BITS,
                 rng: random.Random | None = None, *,
                 threshold: int | None = None) -> DeviceSecret:
    """Full set-up: build the profile, ship it, then persist the secret.

    The secret file is only written after the carrier acknowledged the
    profile, so a network failure leaves no half-configured device.
    """
    profile, secret = build_encrypted_profile(
        user_id, features, bits, rng, threshold=threshold)
    store_profile(address, user_id, profile)
    write_device_secret(secret_path, secret)
    return secret


def authenticate(address: tuple[str, int], secret: DeviceSecret,
                 sample: FeatureSet,
                 similarity: SimilarityFunction | None = None,
                 rng: random.Random | None = None) -> AuthDecision:
    """Run one authentication round trip and return the carrier's decision.

    ``response_values`` runs before the carrier opens a session, so a
    sample the device cannot answer for opens none.  The device response
    uses one pool process per usable CPU; run the caller with a one-CPU
    affinity mask to build it in-process.
    """
    values = response_values(secret, sample, similarity)
    with CarrierConnection(address) as conn:
        challenge = conn.request(
            wire.AuthInit(secret.user_id, sample.size)).challenge
        entries = respond(secret, challenge, values, rng)
        return conn.request(wire.Response(challenge.session_id,
                                          tuple(entries))).decision
