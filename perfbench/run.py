"""Loopback authentication benchmark for psiauth.

Run from the root of a checkout:

    python3 perfbench/run.py --workload login-a --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn in one process and
prints one result line per workload (``rss_mb`` is then the peak so far).

One process starts a real ``CarrierService`` on 127.0.0.1 and acts as a
single device in a closed loop: one authentication in flight, one TCP
connection per authentication, 1024-bit keys, one worker, the closed-form
blinding solver.  A run first enrolls the workload's users
``SETUP_PHASES`` times (the set-up phase, timed per phase), then
authenticates round-robin for ``--seconds``; it starts no authentication
that, taking as long as the one before, would end after that.  Every
enrollment and authentication is checked against the plaintext oracles;
any error reply, exception or disagreement counts as a failure and makes
the run exit non-zero.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the public functions of each layer are wrapped in spans and
the last line reports the per-layer split instead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "psiauth" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no psiauth sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import psiauth  # noqa: E402
from psiauth import client, profiles, protocol, service, wire  # noqa: E402
from psiauth.oracles import oracle_intersection, oracle_l1, \
    oracle_weighted  # noqa: E402
from psiauth.profiles import FeatureMode  # noqa: E402
from psiauth.similarity import SimilarityFunction  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(psiauth.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: psiauth imported from {psiauth.__file__}, "
                     f"not from {SRC}")

KEY_BITS = 1024
SETUP_PHASES = 3
WORK_DIR = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "auth_s": "s",
    "carrier_s": "s",
    "auth_bytes": "bytes",
    "profile_bytes": "bytes",
    "rss_mb": "MB",
    "ok_frac": "ratio",
}

ERROR_NAMES = {
    wire.ERR_UNKNOWN_USER: "unknown_user",
    wire.ERR_SESSION: "session",
    wire.ERR_DECODE: "decode",
    wire.ERR_PROTOCOL: "protocol",
}

# Per-layer metrics: name -> (unit, phase, span or count, kind).  "setup"
# metrics are medians over set-up phases, "auth" ones medians over
# authentications; "self" is span self time, "count" a recorded count.
PER_LAYER = {
    "paillier.keygen_s": ("s", "setup", "paillier.keygen", "self"),
    "paillier.encrypt_s": ("s", "setup", "paillier.encrypt", "self"),
    "paillier.encrypt_calls": ("count", "setup", "paillier.encrypt", "count"),
    "profiles.build_self_s": ("s", "setup", "profiles.build", "self"),
    "profiles.poly_s": ("s", "setup", "profiles.poly", "self"),
    "profiles.blinding_s": ("s", "setup", "profiles.blinding", "self"),
    "service.store_s": ("s", "setup", "service.store", "self"),
    "service.save_s": ("s", "setup", "service.save", "self"),
    "protocol.challenge_s": ("s", "auth", "protocol.challenge", "self"),
    "protocol.respond_s": ("s", "auth", "protocol.respond", "self"),
    "protocol.score_s": ("s", "auth", "protocol.score", "self"),
    "protocol.decide_s": ("s", "auth", "protocol.decide", "self"),
    "protocol.entries": ("count", "auth", "protocol.entries", "count"),
    "protocol.matches": ("count", "auth", "protocol.matches", "count"),
    "similarity.support_pairs": ("count", "auth", "similarity.support_pairs",
                                 "count"),
    "wire.encode_s": ("s", "auth", "wire.encode", "self"),
    "wire.decode_s": ("s", "auth", "wire.decode", "self"),
    "wire.challenge_bytes": ("bytes", "auth", "wire.challenge_bytes", "count"),
    "wire.response_bytes": ("bytes", "auth", "wire.response_bytes", "count"),
    "service.init_s": ("s", "auth", "service.init", "self"),
    "service.load_s": ("s", "auth", "service.load", "self"),
    "service.response_s": ("s", "auth", "service.response", "self"),
    "client.connect_s": ("s", "auth", "client.connect", "self"),
    "client.wait_s": ("s", "auth", "client.wait", "self"),
}

# Per-layer metrics derived from the whole run rather than one phase.
RUN_LEVEL = {
    "protocol.distinct_ratio": "ratio",
    "wire.store_bytes": "bytes",
    "service.errors": "count",
    **{f"service.errors.{name}": "count" for name in ERROR_NAMES.values()},
    "service.sessions_pending": "count",
    "trace.auth_s": "s",
    "trace.spans_per_auth": "count",
}

PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}
PER_LAYER_UNITS.update(RUN_LEVEL)

_DISPATCH_SPANS = {
    wire.StoreProfile: "service.store",
    wire.AuthInit: "service.init",
    wire.Response: "service.response",
}
_FRAME_BYTES = {
    wire.Challenge: "wire.challenge_bytes",
    wire.Response: "wire.response_bytes",
    wire.StoreProfile: "wire.store_bytes",
}


class OracleMismatch(Exception):
    pass


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""

    def count_encrypt(t, args, result):
        t.count("paillier.encrypt")

    def count_score(t, args, result):
        t.count("protocol.matches", result)
        t.count("protocol.entries", len(args[1]))

    def count_respond(t, args, result):
        t.count("protocol.distinct", len(args[2].values))

    def count_respond_weighted(t, args, result):
        sample, sim = args[2], args[3]
        t.count("protocol.distinct",
                len({z for y in sample.values for z, _ in sim.table[y]}))

    def count_support(t, args, result):
        t.count("similarity.support_pairs", len(result))

    def count_frame(t, args, result):
        msg = args[0]
        t.count("wire.bytes", len(result))
        if isinstance(msg, wire.ErrorReply):
            t.count("service.errors."
                    + ERROR_NAMES.get(msg.code, f"0x{msg.code:02x}"))
        key = _FRAME_BYTES.get(type(msg))
        if key is not None:
            t.count(key, len(result))
            t.count(key + ".frames")

    wrap = tracer.wrap
    wrap(profiles, "keygen", "paillier.keygen")
    wrap(profiles, "encrypt", "paillier.encrypt", count_encrypt)
    wrap(profiles, "poly_from_roots", "profiles.poly")
    wrap(profiles, "solve_blinding", "profiles.blinding")
    wrap(client, "build_encrypted_profile", "profiles.build")
    wrap(client.CarrierConnection, "__init__", "client.connect")
    wrap(client.CarrierConnection, "request", "client.wait")
    wrap(service.CarrierService, "dispatch",
         lambda args: _DISPATCH_SPANS.get(type(args[1]), "service.other"))
    wrap(service.ProfileStore, "save", "service.save")
    wrap(service.ProfileStore, "load", "service.load")
    wrap(service, "carrier_challenge", "protocol.challenge")
    wrap(service, "carrier_score", "protocol.score", count_score)
    wrap(service, "decide", "protocol.decide")
    wrap(protocol, "device_respond", "protocol.respond", count_respond)
    wrap(protocol, "device_respond_weighted", "protocol.respond",
         count_respond_weighted)
    wrap(SimilarityFunction, "support_for", None, count_support)
    wrap(wire, "encode_frame", "wire.encode", count_frame)
    wrap(wire, "decode_frame", "wire.decode")


def expected_decision(workload: workloads.Workload, user: workloads.User,
                      sample: workloads.Sample) -> tuple[int, object, bool]:
    """Match count, dissimilarity and outcome from the plaintext oracles."""
    if workload.mode is FeatureMode.CASE_C:
        matches = oracle_intersection(user.features.values,
                                      sample.features.values)
        distance = oracle_l1(user.vector, sample.vector)
        return matches, Fraction(distance), distance <= user.threshold
    if workload.mode is FeatureMode.CASE_B:
        matches = oracle_weighted(user.features.values,
                                  sample.features.values, workload.similarity)
    else:
        matches = oracle_intersection(user.features.values,
                                      sample.features.values)
    dissimilarity = Fraction(1, matches) if matches else protocol.INFINITE
    return matches, dissimilarity, matches >= user.threshold


def authenticate_once(address, secret, sample, similarity, rng):
    """One closed-loop authentication, timed the way the device sees it.

    Returns the decision, the seconds from connect to Result, the seconds
    spent inside the two round trips, and the four frames exchanged.
    """
    started = time.perf_counter()
    with client.CarrierConnection(address) as conn:
        init = wire.AuthInit(secret.user_id, sample.size)
        sent = time.perf_counter()
        challenge = conn.request(init)
        carrier = time.perf_counter() - sent
        if not isinstance(challenge, wire.Challenge):
            raise wire.DecodeError(
                f"expected Challenge, got {type(challenge).__name__}", 0)
        if similarity is not None:
            entries = protocol.device_respond_weighted(
                secret, challenge.challenge, sample, similarity, rng)
        else:
            entries = protocol.device_respond(secret, challenge.challenge,
                                              sample, rng)
        response = wire.Response(challenge.challenge.session_id,
                                 tuple(entries))
        sent = time.perf_counter()
        result = conn.request(response)
        finished = time.perf_counter()
    if not isinstance(result, wire.Result):
        raise wire.DecodeError(f"expected Result, got {type(result).__name__}",
                               0)
    carrier += finished - sent
    return (result.decision, finished - started, carrier,
            (init, challenge, response, result))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class RunRecord:
    """Raw observations of one run; ``summary`` turns them into metrics."""

    setup_phases: int
    attempted: int = 0
    failed: int = 0
    pending: int = 0
    setup_times: list[float] = field(default_factory=list)
    profile_bytes: list[int] = field(default_factory=list)
    # One entry per authentication that completed, in order.
    auth_times: list[float] = field(default_factory=list)
    carrier_times: list[float] = field(default_factory=list)
    auth_bytes: list[int] = field(default_factory=list)
    matches: list[int] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    tracer: Tracer | None = None
    rss_mb: float = 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.pending == 0


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        key_bits: int = KEY_BITS, setup_phases: int = SETUP_PHASES,
        log=print) -> RunRecord:
    """Enroll, then authenticate for ``seconds``, checking every outcome."""
    workload = workloads.build(workload_name, seed)
    record = RunRecord(setup_phases)
    tracer = record.tracer = Tracer() if trace else None
    paused = tracer.paused if tracer else contextlib.nullcontext

    def fail(what: str, exc: BaseException) -> None:
        record.failed += 1
        log(f"# FAILED {what}: {type(exc).__name__}: {exc}")

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_DIR))
    if tracer:
        install_spans(tracer)
    try:
        config = service.CarrierConfig(store_root=work / "store", seed=seed)
        with service.CarrierService(config) as carrier:
            secrets = {}
            for phase in range(setup_phases):
                if tracer:
                    tracer.unit = f"setup:{phase}"
                user_ids = [f"{workload_name}-p{phase}-u{index}"
                            for index in range(len(workload.users))]
                started = time.perf_counter()
                for index, user in enumerate(workload.users):
                    record.attempted += 1
                    try:
                        secrets[index] = client.setup_device(
                            carrier.address, user_ids[index], user.features,
                            work / f"{user_ids[index]}.secret", key_bits,
                            random.Random(f"{seed}:{phase}:{index}"),
                            threshold=user.threshold)
                    except Exception as exc:  # counted, the run goes on
                        secrets.pop(index, None)
                        fail(f"enrollment {user_ids[index]}", exc)
                record.setup_times.append(time.perf_counter() - started)
                with paused():
                    record.profile_bytes.extend(
                        len(wire.encode_frame(wire.StoreProfile(
                            user_id, carrier.store.load(user_id))))
                        for user_id in user_ids
                        if carrier.store.exists(user_id))

            device_rng = random.Random(f"device:{seed}")
            lap = time.perf_counter()
            deadline = lap + seconds
            index = 0
            while True:
                # Start another authentication only if one more, as long as
                # the last, still ends within the measured window.
                now = time.perf_counter()
                if index and now + (now - lap) > deadline:
                    break
                lap = now
                what = f"authentication {index}"
                user_index, sample = workload.attempt(index)
                if tracer:
                    tracer.unit = f"auth:{index}"
                index += 1
                record.attempted += 1
                if user_index not in secrets:
                    fail(what, RuntimeError("user was not enrolled"))
                    continue
                try:
                    decision, elapsed, in_carrier, frames = authenticate_once(
                        carrier.address, secrets[user_index], sample.features,
                        workload.similarity, device_rng)
                except Exception as exc:  # counted, the run goes on
                    fail(what, exc)
                    continue
                with paused():
                    record.auth_bytes.append(
                        sum(len(wire.encode_frame(m)) for m in frames))
                    expected = expected_decision(
                        workload, workload.users[user_index], sample)
                record.auth_times.append(elapsed)
                record.carrier_times.append(in_carrier)
                record.matches.append(decision.match_count)
                record.accepted.append(decision.accepted)
                got = (decision.match_count, decision.dissimilarity,
                       decision.accepted)
                if got != expected or decision.mode is not workload.mode:
                    fail(what, OracleMismatch(
                        f"carrier said {got}, oracles say {expected}"))
            if tracer:
                tracer.unit = ""
            # SessionTable has no public size yet.  Every authentication
            # above has finished, so no session may be left open.
            record.pending = len(carrier.sessions._sessions)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    record.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if record.pending:
        log(f"# FAILED {record.pending} sessions left pending after the run")
    log(f"# {workload_name} seed {seed}: {len(workload.users)} users x "
        f"{setup_phases} set-up phases, {len(record.auth_times)} "
        f"authentications timed ({sum(record.accepted)} accepted, "
        f"{record.accepted.count(False)} rejected), fail_frac "
        f"{record.failed / record.attempted:.4g} "
        f"({record.failed} of {record.attempted})")
    return record


def summary(record: RunRecord) -> dict:
    """The result object the benchmark prints as its last line."""
    if record.tracer:
        metrics = per_layer(record)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(record.setup_times),
            "auth_s": _median(record.auth_times),
            "carrier_s": _median(record.carrier_times),
            "auth_bytes": _median(record.auth_bytes),
            "profile_bytes": _median(record.profile_bytes),
            "rss_mb": record.rss_mb,
            "ok_frac": 1 - record.failed / record.attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def per_layer(record: RunRecord) -> dict:
    tracer = record.tracer
    self_times = tracer.self_times()
    counts = tracer.counts
    phases = {"setup": sorted(u for u in set(self_times) | set(counts)
                              if u.startswith("setup:")),
              "auth": sorted(u for u in set(self_times) | set(counts)
                             if u.startswith("auth:"))}
    metrics = {}
    for name, (_, phase, key, kind) in PER_LAYER.items():
        table = self_times if kind == "self" else counts
        metrics[name] = _median([table[u].get(key, 0.0)
                                 for u in phases[phase]])

    def total(key: str) -> float:
        return sum(c.get(key, 0.0) for c in counts.values())

    entries = total("protocol.entries")
    metrics["protocol.distinct_ratio"] = \
        total("protocol.distinct") / entries if entries else 0.0
    frames = total("wire.store_bytes.frames")
    metrics["wire.store_bytes"] = \
        total("wire.store_bytes") / frames if frames else 0.0
    for name in ERROR_NAMES.values():
        metrics[f"service.errors.{name}"] = total(f"service.errors.{name}")
    metrics["service.errors"] = sum(
        value for unit in counts.values() for key, value in unit.items()
        if key.startswith("service.errors."))
    metrics["service.sessions_pending"] = record.pending
    metrics["trace.auth_s"] = _median(record.auth_times)
    auth_spans = sum(1 for span in tracer.spans
                     if span.unit.startswith("auth:"))
    metrics["trace.spans_per_auth"] = \
        auth_spans / len(phases["auth"]) if phases["auth"] else 0.0
    return metrics


def machine(seed: int, key_bits: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "key_bits": key_bits,
        "seed": seed,
        "transport": "TCP over the loopback interface (127.0.0.1)",
        "topology": "carrier and device share one process; the closed loop "
                    "(one authentication in flight) keeps them from "
                    "computing at the same time",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(workloads.BUILDERS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(workloads.BUILDERS) if args.workload == "all" \
        else [args.workload]
    print("# machine " + json.dumps(machine(args.seed, KEY_BITS)), flush=True)
    correct = True
    for name in names:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        if record.tracer:
            path = WORK_DIR / "traces" / f"{name}-seed{args.seed}.jsonl"
            record.tracer.write(path)
            print(f"# spans written to {path.relative_to(ROOT)}")
        else:
            print(f"# auth_s and carrier_s are medians of "
                  f"{len(record.auth_times)} authentications, setup_s of "
                  f"{record.setup_phases} set-up phases")
        result = summary(record)
        for metric, value in result["metrics"].items():
            print(f"{name}  {metric:28} {value['value']:.6g} {value['unit']}")
        print(json.dumps(result), flush=True)
        correct &= result["correct"]
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
