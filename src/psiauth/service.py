"""Carrier service: profile store, session table and the TCP endpoint.

The carrier accepts StoreProfile, AuthInit and Response messages, scoring a
session with nothing but the encrypted profile record.  Stored state and
logs only ever contain ciphertext-space and blinded values; plaintext
features never reach this process.
"""

from __future__ import annotations

import hashlib
import logging
import random
import socketserver
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .encoding import DecodeError, Reader, encode_uints, write_atomically
from .profiles import EncryptedProfile
from .protocol import (
    _TEETH,
    ProtocolError,
    SessionError,
    SessionState,
    carrier_challenge,
    carrier_score,
    challenge_teeth,
    decide,
)
from . import pool, wire

__all__ = ["CarrierConfig", "CarrierService", "ProfileStore", "UnknownUserError"]

log = logging.getLogger(__name__)


class UnknownUserError(KeyError):
    pass


class ProfileStore:
    """One record per user, and its challenge teeth; writes are atomic."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, user_id: str, suffix: str = ".profile") -> Path:
        digest = hashlib.sha256(user_id.encode("utf-8")).hexdigest()
        return self.root / f"{digest}{suffix}"

    def save(self, user_id: str, profile: EncryptedProfile) -> None:
        write_atomically(self._path(user_id), profile.to_bytes())

    def load(self, user_id: str) -> EncryptedProfile:
        target = self._path(user_id)
        try:
            data = target.read_bytes()
        except FileNotFoundError:
            raise UnknownUserError(user_id) from None
        return EncryptedProfile.from_bytes(data)

    def teeth(self, user_id: str, profile: EncryptedProfile
              ) -> tuple[int, ...]:
        """``challenge_teeth(profile)``, kept behind the SHA-256 of the
        record's bytes so that no other record's teeth are ever used; a
        missing or mismatched file is computed again and rewritten."""
        digest = hashlib.sha256(profile.to_bytes()).digest()
        target = self._path(user_id, ".teeth")
        count = (_TEETH - 1) * len(profile.enc_coeffs)
        try:
            reader = Reader(target.read_bytes())
            if reader.take(len(digest)) == digest:
                teeth = reader.uints(count)
                reader.expect_end()
                if len(teeth) == count:
                    return teeth
        except (OSError, DecodeError):
            pass
        teeth = challenge_teeth(profile)
        write_atomically(target, digest + encode_uints(teeth))
        return teeth

    def exists(self, user_id: str) -> bool:
        return self._path(user_id).exists()


class SessionTable:
    """Pending sessions keyed by id; claimed once, expired by age."""

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._sessions: dict[bytes, SessionState] = {}
        self._lock = threading.Lock()

    def add(self, session: SessionState) -> None:
        with self._lock:
            self._purge()
            self._sessions[session.session_id] = session

    def claim(self, session_id: bytes) -> SessionState:
        with self._lock:
            self._purge()
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionError("unknown, expired or consumed session")
        return session

    def _purge(self) -> None:
        deadline = time.monotonic() - self.timeout
        stale = [sid for sid, s in self._sessions.items()
                 if s.created_at < deadline]
        for sid in stale:
            del self._sessions[sid]


@dataclass
class CarrierConfig:
    store_root: Path
    host: str = "127.0.0.1"
    port: int = 0
    session_timeout: float = 60.0
    seed: int | None = None  # test mode only; production keeps OS entropy

    def __post_init__(self):
        # Also every connection's socket timeout: settimeout raises on a
        # value that is infinite, NaN or above TIMEOUT_MAX, and 0 makes the
        # socket non-blocking.  Refuse such a value here, not per connection.
        if not 0 < self.session_timeout <= threading.TIMEOUT_MAX:
            raise ValueError("session timeout must be positive and at most "
                             f"{threading.TIMEOUT_MAX:.0f} s, "
                             f"got {self.session_timeout!r}")


class _Handler(socketserver.StreamRequestHandler):
    def setup(self):
        # A peer silent for longer than a session lives could finish no
        # session anyway; its read then times out, an OSError, and the
        # handler ends.
        self.timeout = self.server.service.config.session_timeout  # type: ignore[attr-defined]
        super().setup()

    def handle(self):
        service: "CarrierService" = self.server.service  # type: ignore[attr-defined]
        try:
            while True:
                try:
                    msg = wire.read_frame(self.rfile)
                    if msg is None:
                        return
                    reply = service.dispatch(msg)
                except DecodeError as exc:
                    # Framing may be out of sync after a truncated read;
                    # answer and keep listening, the peer decides whether
                    # to go on.
                    reply = wire.ErrorReply(wire.ERR_DECODE, str(exc))
                wire.write_frame(self.wfile, reply)
        except OSError:
            # The peer hung up, reset, or stayed silent past its timeout.
            return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CarrierService:
    """The long-running carrier endpoint."""

    def __init__(self, config: CarrierConfig):
        self.config = config
        self.store = ProfileStore(config.store_root)
        self.sessions = SessionTable(config.session_timeout)
        self._rng = random.Random(config.seed) if config.seed is not None \
            else random.SystemRandom()
        self._rng_lock = threading.Lock()
        self._server = _Server((config.host, config.port), _Handler)
        self._server.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def dispatch(self, msg: wire.Message) -> wire.Message:
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            return wire.ErrorReply(wire.ERR_PROTOCOL,
                                   f"unexpected message {type(msg).__name__}")
        try:
            return handler(self, msg)
        except DecodeError as exc:
            return wire.ErrorReply(wire.ERR_DECODE, str(exc))
        except UnknownUserError as exc:
            return wire.ErrorReply(wire.ERR_UNKNOWN_USER, f"unknown user {exc}")
        except SessionError as exc:
            return wire.ErrorReply(wire.ERR_SESSION, str(exc))
        except ProtocolError as exc:
            return wire.ErrorReply(wire.ERR_PROTOCOL, str(exc))
        except Exception:
            log.exception("internal error handling %s", type(msg).__name__)
            return wire.ErrorReply(wire.ERR_PROTOCOL, "internal error")

    def _handle_store(self, msg: wire.StoreProfile) -> wire.Message:
        overwrite = self.store.exists(msg.user_id)
        self.store.save(msg.user_id, msg.profile)
        log.info("stored profile for %r (size=%d mode=%s%s)", msg.user_id,
                 msg.profile.size, msg.profile.mode.name,
                 ", overwriting previous" if overwrite else "")
        return wire.StoreAck()

    def _handle_init(self, msg: wire.AuthInit) -> wire.Message:
        if msg.sample_size < 1:
            raise ProtocolError("declared sample size must be positive")
        profile = self.store.load(msg.user_id)
        # Lock the draws only: one user's teeth and comb stall no other's.
        with self._rng_lock:
            theta = self._rng.randrange(1, profile.public_key.n)
            sid = self._rng.getrandbits(128).to_bytes(16, "big")
        challenge, session = carrier_challenge(
            profile, teeth=self.store.teeth(msg.user_id, profile),
            session_exponent=theta, session_id=sid)
        session.sample_size = msg.sample_size
        self.sessions.add(session)
        log.info("session %s opened for %r (declared sample size %d)",
                 session.session_id.hex()[:8], msg.user_id, msg.sample_size)
        return wire.Challenge(challenge)

    def _handle_response(self, msg: wire.Response) -> wire.Message:
        session = self.sessions.claim(msg.session_id)
        matches = carrier_score(session, list(msg.entries))
        decision = decide(matches, session.profile, session.sample_size)
        # The observed entry count can exceed the declared sample size in
        # Case B (one entry per similarity unit); worth surfacing.
        log.info("session %s scored: %d entries observed, %d matches, %s",
                 msg.session_id.hex()[:8], len(msg.entries), matches,
                 "accept" if decision.accepted else "reject")
        return wire.Result(decision)

    # Request type -> its handler: the requests that wire.REPLIES pairs
    # with the reply each handler returns.
    _HANDLERS = {wire.StoreProfile: _handle_store, wire.AuthInit: _handle_init,
                 wire.Response: _handle_response}

    # Both fork the pool's workers first, so that no worker is forked from
    # a process that runs a serving or handler thread.
    def start(self) -> None:
        pool.fork_workers()
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="carrier", daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        pool.fork_workers()
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "CarrierService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
