"""Device-side client: set-up and authentication over the wire."""

from __future__ import annotations

import random
import socket
from pathlib import Path

from .encoding import write_atomically
from .profiles import DeviceSecret, EncryptedProfile, FeatureMode, FeatureSet, \
    build_encrypted_profile
from .protocol import AuthDecision, check_sample, device_respond, \
    device_respond_weighted
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


class CarrierReplyError(RuntimeError):
    """The carrier answered with an error frame."""

    def __init__(self, code: int, text: str):
        super().__init__(f"carrier error 0x{code:02x}: {text}")
        self.code = code
        self.text = text


class CarrierConnection:
    """One TCP connection to the carrier, request/reply framed."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._stream = self._sock.makefile("rwb")

    def request(self, msg: wire.Message) -> wire.Message:
        wire.write_frame(self._stream, msg)
        reply = wire.read_frame(self._stream)
        if reply is None:
            raise ConnectionError("carrier closed the connection")
        if isinstance(reply, wire.ErrorReply):
            raise CarrierReplyError(reply.code, reply.text)
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
        reply = conn.request(wire.StoreProfile(user_id, profile))
        if not isinstance(reply, wire.StoreAck):
            raise wire.DecodeError(
                f"expected StoreAck, got {type(reply).__name__}", 0)


def write_device_secret(path: Path | str, secret: DeviceSecret) -> None:
    """Write the secret file atomically with owner-only permissions."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(path, secret.to_bytes())


def load_device_secret(path: Path | str) -> DeviceSecret:
    return DeviceSecret.from_bytes(Path(path).read_bytes())


def setup_device(address: tuple[str, int], user_id: str, features: FeatureSet,
                 secret_path: Path | str, bits: int = 1024,
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

    ``check_sample`` runs before the carrier opens a session.  The device
    response uses one pool process per usable CPU; run the caller with a
    one-CPU affinity mask to build it in-process.
    """
    check_sample(secret, sample, similarity)
    with CarrierConnection(address) as conn:
        reply = conn.request(wire.AuthInit(secret.user_id, sample.size))
        if not isinstance(reply, wire.Challenge):
            raise wire.DecodeError(
                f"expected Challenge, got {type(reply).__name__}", 0)
        challenge = reply.challenge
        if secret.mode is FeatureMode.CASE_B:
            entries = device_respond_weighted(secret, challenge, sample,
                                              similarity, rng)
        else:
            entries = device_respond(secret, challenge, sample, rng)
        reply = conn.request(wire.Response(challenge.session_id,
                                           tuple(entries)))
        if not isinstance(reply, wire.Result):
            raise wire.DecodeError(
                f"expected Result, got {type(reply).__name__}", 0)
        return reply.decision
