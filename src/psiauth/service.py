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
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

from .encoding import DecodeError, Reader, encode_uint, encode_uints, \
    write_atomically
from .profiles import EncryptedProfile
from .protocol import (
    _TEETH,
    _comb_width,
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
        # (user, digest) -> the teeth its first concurrent caller delivers.
        self._teeth_in_flight: dict[tuple[str, bytes], Future] = {}
        self._lock = threading.Lock()

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
        """``challenge_teeth(profile)``, kept behind the SHA-256 of the comb
        width and the record's bytes, so that no other record's teeth, and
        no teeth of another width, are ever used; a missing or mismatched
        file is computed again and rewritten.  Concurrent callers for one
        user and record wait for the first one's read or computation; the
        lock that finds it is held for no read and no computation."""
        width = _comb_width(profile.public_key.n)
        digest = hashlib.sha256(encode_uint(width) +
                                profile.to_bytes()).digest()
        key = (user_id, digest)
        with self._lock:
            shared = self._teeth_in_flight.get(key)
            first = shared is None
            if first:
                shared = self._teeth_in_flight[key] = Future()
        if first:
            try:
                shared.set_result(self._stored_teeth(user_id, profile, digest))
            except BaseException as exc:  # raised below, to every caller
                shared.set_exception(exc)
            with self._lock:
                del self._teeth_in_flight[key]
        return shared.result()

    def _stored_teeth(self, user_id: str, profile: EncryptedProfile,
                      digest: bytes) -> tuple[int, ...]:
        """The teeth stored behind ``digest``, or new ones, then stored."""
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
            in_sync = True
            while in_sync:
                try:
                    msg = wire.read_frame(self.rfile)
                    if msg is None:
                        return
                    reply = service.dispatch(msg)
                except DecodeError as exc:
                    # A frame read whole keeps the stream in sync: answer and
                    # keep listening.  A header over the frame limit leaves
                    # its payload unread, so answer once and close; a
                    # truncated read has reached the end of the stream.
                    reply = wire.ErrorReply(wire.ERR_DECODE, str(exc))
                    in_sync = not isinstance(exc, wire.FramingError)
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
        # Handlers share it unlocked: a Random runs each call in C under the
        # GIL, and a SystemRandom reads os.urandom, so no draw is corrupted.
        self._rng = random.Random(config.seed) if config.seed is not None \
            else random.SystemRandom()
        self._server = _Server((config.host, config.port), _Handler)
        self._server.service = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="carrier", daemon=True)

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
        profile = self.store.load(msg.user_id)
        challenge, session = carrier_challenge(
            profile, self._rng, sample_size=msg.sample_size,
            teeth=self.store.teeth(msg.user_id, profile))
        self.sessions.add(session)
        log.info("session %s opened for %r (declared sample size %d)",
                 session.session_id.hex()[:8], msg.user_id, msg.sample_size)
        return wire.Challenge(challenge)

    def _handle_response(self, msg: wire.Response) -> wire.Message:
        session = self.sessions.claim(msg.session_id)
        matches = carrier_score(session, list(msg.entries))
        decision = decide(matches, session)
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

    def start(self) -> None:
        """Fork the pool's workers, then serve on the "carrier" thread.

        The workers are forked first, so that none is forked from a process
        that runs a serving or handler thread.  A ``start`` that raises, as
        when Ctrl-C interrupts the fork, has closed the listening socket.
        """
        try:
            pool.fork_workers()
            self._thread.start()
        except BaseException:
            self.shutdown()
            raise

    def wait(self) -> None:
        """Block until the serving loop ends, as it does in ``shutdown``; a
        signal's exception, such as ``KeyboardInterrupt``, ends the wait."""
        self._thread.join()

    def shutdown(self) -> None:
        """Stop the serving loop if ``start`` started it, then close the
        listening socket.  Returns from any state: before ``start``, after
        a ``start`` that raised, and when called again."""
        if self._thread.is_alive():
            self._server.shutdown()
            self._thread.join()
        self._server.server_close()

    def __enter__(self) -> "CarrierService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
