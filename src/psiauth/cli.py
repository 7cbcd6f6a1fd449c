"""Operator command line: serve, setup, auth, bench, oracle."""

from __future__ import annotations

import argparse
import contextlib
import logging
import random
import signal
import sys
from pathlib import Path

from . import bench as bench_mod
from . import client
from .oracles import oracle_intersection, oracle_l1, oracle_weighted
from .paillier import DEFAULT_KEY_BITS
from .profiles import FeatureMode, FeatureSet, encode_numeric, hash_feature
from .service import CarrierConfig, CarrierService
from .similarity import SimilarityFunction

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

_MODES = {"case-a": FeatureMode.CASE_A, "case-b": FeatureMode.CASE_B,
          "case-c": FeatureMode.CASE_C}


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _read_lines(path: str) -> list[str]:
    lines = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _read_feature_file(path: str) -> list[int]:
    """One raw feature string per line, hashed into the integer domain."""
    return [hash_feature(line.encode("utf-8")) for line in _read_lines(path)]


def _read_vector_file(path: str) -> list[int]:
    tokens = Path(path).read_text(encoding="utf-8").split()
    return [int(token) for token in tokens]


def _read_table_file(path: str) -> SimilarityFunction:
    """Lines of "y z weight"; y and z are hashed like feature lines."""
    entries = []
    for line in _read_lines(path):
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"expected 'y z weight', got {line!r}")
        y, z, weight = fields
        entries.append((hash_feature(y.encode("utf-8")),
                        hash_feature(z.encode("utf-8")), int(weight)))
    return SimilarityFunction.from_entries(entries)


def _load_sample(mode: FeatureMode, features: str | None,
                 values: str | None, cap: int | None) -> FeatureSet:
    """A Case C vector file encoded under ``cap``, or a feature file."""
    if mode is FeatureMode.CASE_C:
        if not values:
            raise ValueError("Case C needs --values")
        if not cap:
            raise ValueError("Case C needs --cap")
        return encode_numeric(_read_vector_file(values), cap)
    if not features:
        raise ValueError("Cases A and B need a feature file "
                         "(setup --features, auth --sample)")
    return FeatureSet.from_values(mode, _read_feature_file(features))


def _cmd_serve(args) -> int:
    host, port = args.listen
    service = CarrierService(CarrierConfig(
        store_root=Path(args.data_dir), host=host, port=port,
        session_timeout=args.session_timeout, seed=args.seed))
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    # Ctrl-C stops serve with status 0, during the carrier's start too.
    with contextlib.suppress(KeyboardInterrupt), service:
        # kill's SIGTERM stops it like Ctrl-C, so its pool workers exit.
        # The handler is installed once start() has forked them: a
        # KeyboardInterrupt raised in a fork's after-fork hook is ignored.
        # The ready line follows, flushed even into a pipe, so a reader may
        # send SIGTERM as soon as it has read the line.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print("carrier listening on %s:%d, profiles under %s"
              % (*service.address, args.data_dir), flush=True)
        service.wait()
    return EXIT_OK


def _cmd_setup(args) -> int:
    mode = _MODES[args.mode]
    rng = random.Random(args.seed) if args.seed is not None else None
    features = _load_sample(mode, args.features, args.values, args.cap)
    client.setup_device(args.carrier, args.user, features, args.secret_file,
                        bits=args.key_bits, rng=rng, threshold=args.threshold)
    print(f"profile stored for {args.user!r} "
          f"({features.size} features, mode {args.mode}); "
          f"device secret written to {args.secret_file}")
    return EXIT_OK


def _cmd_auth(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    secret = client.load_device_secret(args.secret_file)
    sample = _load_sample(secret.mode, args.sample, args.values, secret.cap)
    similarity = _read_table_file(args.table) if args.table else None
    decision = client.authenticate(args.carrier, secret, sample, similarity,
                                   rng)
    outcome = "ACCEPT" if decision.accepted else "REJECT"
    print(f"{outcome}: {decision.match_count} matches, "
          f"dissimilarity {decision.dissimilarity}")
    return EXIT_OK if decision.accepted else EXIT_REJECTED


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    records = bench_mod.bench_run(sizes, key_bits=args.key_bits,
                                  solver=args.solver,
                                  repetitions=args.repetitions,
                                  seed=args.seed,
                                  feature_bits=args.feature_bits)
    print(bench_mod.format_table(records))
    if args.csv:
        bench_mod.write_csv(records, args.csv)
        print(f"csv written to {args.csv}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    mode = _MODES[args.mode]
    if mode is FeatureMode.CASE_A:
        x = _read_feature_file(args.profile)
        y = _read_feature_file(args.sample)
        print(f"intersection cardinality: {oracle_intersection(x, y)}")
    elif mode is FeatureMode.CASE_B:
        if not args.table:
            raise ValueError("Case B needs a similarity table (--table)")
        x = _read_feature_file(args.profile)
        y = _read_feature_file(args.sample)
        sim = _read_table_file(args.table)
        print(f"weighted similarity sum: {oracle_weighted(x, y, sim)}")
    else:
        u = _read_vector_file(args.profile)
        v = _read_vector_file(args.sample)
        print(f"L1 distance: {oracle_l1(u, v)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psiauth",
        description="Privacy-preserving implicit authentication: the carrier "
                    "stores only an encrypted profile and learns only a "
                    "similarity score.")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (test mode only)")

    serve = sub.add_parser("serve", parents=[seeded],
                           help="run the carrier service")
    serve.add_argument("--listen", type=_parse_address, default=("127.0.0.1", 7700),
                       metavar="HOST:PORT", help="listen address (default %(default)s)")
    serve.add_argument("--data-dir", required=True, help="profile store root")
    serve.add_argument("--session-timeout", type=float, default=60.0,
                       help="seconds before a pending session expires and an "
                            "idle connection closes")
    serve.set_defaults(func=_cmd_serve)

    setup = sub.add_parser("setup", parents=[seeded],
                           help="enroll a profile with the carrier")
    setup.add_argument("--user", required=True)
    setup.add_argument("--carrier", type=_parse_address, required=True,
                       metavar="HOST:PORT")
    setup.add_argument("--secret-file", required=True,
                       help="where to write the device secret")
    setup.add_argument("--mode", choices=sorted(_MODES), default="case-a")
    setup.add_argument("--features", help="file of raw feature strings, one per line")
    setup.add_argument("--values", help="Case C: whitespace-separated numeric vector")
    setup.add_argument("--cap", type=int, default=None,
                       help="Case C: public per-entry magnitude cap")
    setup.add_argument("--key-bits", type=int, default=DEFAULT_KEY_BITS)
    setup.add_argument("--threshold", type=int, default=None,
                       help="per-user decision threshold stored at the carrier")
    setup.set_defaults(func=_cmd_setup)

    auth = sub.add_parser("auth", parents=[seeded],
                          help="authenticate a fresh sample")
    auth.add_argument("--carrier", type=_parse_address, required=True,
                      metavar="HOST:PORT")
    auth.add_argument("--secret-file", required=True)
    auth.add_argument("--sample", help="file of raw feature strings, one per line")
    auth.add_argument("--values", help="Case C: whitespace-separated numeric vector")
    auth.add_argument("--table", help="Case B: similarity lines 'y z weight'")
    auth.set_defaults(func=_cmd_auth)

    bench = sub.add_parser("bench", parents=[seeded],
                           help="time set-up and authentication")
    bench.add_argument("--sizes", default="1,5,10,15,20,25,30,35,40,45,50",
                       help="comma-separated profile sizes")
    bench.add_argument("--key-bits", type=int, default=DEFAULT_KEY_BITS)
    bench.add_argument("--solver", choices=("closed-form", "gaussian"),
                       default="closed-form")
    bench.add_argument("--repetitions", type=int, default=3)
    bench.add_argument("--feature-bits", type=int, default=128)
    bench.add_argument("--csv", default=None, help="also write records to CSV")
    bench.set_defaults(func=_cmd_bench)

    oracle = sub.add_parser("oracle",
                            help="plaintext reference score for two inputs")
    oracle.add_argument("--mode", choices=sorted(_MODES), default="case-a")
    oracle.add_argument("--profile", required=True,
                        help="profile features (or Case C vector) file")
    oracle.add_argument("--sample", required=True,
                        help="sample features (or Case C vector) file")
    oracle.add_argument("--table", help="Case B: similarity lines 'y z weight'")
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: 0 on success, 1 only for a rejected ``auth``, and 2
    with one stderr line for any error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"psiauth {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
