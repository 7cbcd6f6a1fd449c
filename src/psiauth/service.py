"""Carrier service: profile store, session table and the TCP endpoint.

The carrier accepts StoreProfile, AuthInit and Response messages, scoring a
session with nothing but the encrypted profile record.  Stored state and
logs only ever contain ciphertext-space and blinded values; plaintext
features never reach this process.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import socketserver
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .encoding import DecodeError
from .profiles import EncryptedProfile
from .protocol import (
    ProtocolError,
    SessionError,
    SessionState,
    carrier_challenge,
    carrier_score,
    decide,
)
from . import wire

__all__ = ["CarrierConfig", "CarrierService", "ProfileStore", "UnknownUserError"]

log = logging.getLogger(__name__)


class UnknownUserError(KeyError):
    pass


class ProfileStore:
    """One record per user under a root directory; writes are atomic."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _path(self, user_id: str) -> Path:
        digest = hashlib.sha256(user_id.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.profile"

    def save(self, user_id: str, profile: EncryptedProfile) -> None:
        data = profile.to_bytes()
        target = self._path(user_id)
        with self._write_lock:
            fd, temp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_name, target)
            except BaseException:
                os.unlink(temp_name)
                raise

    def load(self, user_id: str) -> EncryptedProfile:
        target = self._path(user_id)
        try:
            data = target.read_bytes()
        except FileNotFoundError:
            raise UnknownUserError(user_id) from None
        return EncryptedProfile.from_bytes(data)

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


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        service: "CarrierService" = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                msg = wire.read_frame(self.rfile)
            except DecodeError as exc:
                # Framing may be out of sync after a truncated read; answer
                # and keep listening, the peer decides whether to go on.
                try:
                    wire.write_frame(self.wfile,
                                     wire.ErrorReply(wire.ERR_DECODE, str(exc)))
                except (ConnectionError, OSError):
                    return
                continue
            except (ConnectionError, OSError):
                return
            if msg is None:
                return
            reply = service.dispatch(msg)
            try:
                wire.write_frame(self.wfile, reply)
            except (ConnectionError, OSError):
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
        try:
            if isinstance(msg, wire.StoreProfile):
                return self._handle_store(msg)
            if isinstance(msg, wire.AuthInit):
                return self._handle_init(msg)
            if isinstance(msg, wire.Response):
                return self._handle_response(msg)
            return wire.ErrorReply(wire.ERR_PROTOCOL,
                                   f"unexpected message {type(msg).__name__}")
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
        profile = self.store.load(msg.user_id)
        with self._rng_lock:
            challenge, session = carrier_challenge(profile, self._rng)
        self.sessions.add(session)
        log.info("session %s opened for %r (declared sample size %d)",
                 session.session_id.hex()[:8], msg.user_id, msg.sample_size)
        return wire.Challenge(challenge)

    def _handle_response(self, msg: wire.Response) -> wire.Message:
        session = self.sessions.claim(msg.session_id)
        matches = carrier_score(session, list(msg.entries))
        decision = decide(matches, session.profile, len(msg.entries))
        # The observed entry count can exceed the declared sample size in
        # Case B (one entry per similarity unit); worth surfacing.
        log.info("session %s scored: %d entries observed, %d matches, %s",
                 msg.session_id.hex()[:8], len(msg.entries), matches,
                 "accept" if decision.accepted else "reject")
        return wire.Result(decision)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="carrier", daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
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
