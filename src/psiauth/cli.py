"""Operator command line: serve, setup, auth, bench, oracle."""

from __future__ import annotations

import argparse
import logging
import random
import sys
from pathlib import Path

from . import bench as bench_mod
from . import client
from .oracles import oracle_intersection, oracle_l1, oracle_weighted
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


def _load_sample(args, mode: FeatureMode) -> FeatureSet:
    if mode is FeatureMode.CASE_C:
        if not args.values:
            raise ValueError("Case C needs --values")
        if not args.cap:
            raise ValueError("Case C needs --cap")
        return encode_numeric(_read_vector_file(args.values), args.cap)
    if not args.features:
        raise ValueError("--features is required outside Case C")
    return FeatureSet.from_values(mode, _read_feature_file(args.features))


def _cmd_serve(args) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    host, port = args.listen
    config = CarrierConfig(store_root=Path(args.data_dir), host=host, port=port,
                           session_timeout=args.session_timeout, seed=args.seed)
    service = CarrierService(config)
    bound_host, bound_port = service.address
    print(f"carrier listening on {bound_host}:{bound_port}, "
          f"profiles under {args.data_dir}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.shutdown()
    return EXIT_OK


def _cmd_setup(args) -> int:
    mode = _MODES[args.mode]
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        features = _load_sample(args, mode)
        client.setup_device(args.carrier, args.user, features,
                            args.secret_file, bits=args.key_bits, rng=rng,
                            threshold=args.threshold)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"profile stored for {args.user!r} "
          f"({features.size} features, mode {args.mode}); "
          f"device secret written to {args.secret_file}")
    return EXIT_OK


def _cmd_auth(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        secret = client.load_device_secret(args.secret_file)
    except OSError as exc:
        print(f"cannot read device secret: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if secret.mode is FeatureMode.CASE_C:
            if not args.values:
                raise ValueError("Case C needs --values")
            sample = encode_numeric(_read_vector_file(args.values), secret.cap)
            if sample.count != secret.count:
                raise ValueError(f"vector length {sample.count} differs from "
                                 f"the enrolled length {secret.count}")
        else:
            if not args.sample:
                raise ValueError("--sample is required outside Case C")
            sample = FeatureSet.from_values(secret.mode,
                                            _read_feature_file(args.sample))
        similarity = None
        if secret.mode is FeatureMode.CASE_B:
            if not args.table:
                raise ValueError("Case B needs --table")
            similarity = _read_table_file(args.table)
        decision = client.authenticate(args.carrier, secret, sample,
                                       similarity, rng)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"authentication failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    outcome = "ACCEPT" if decision.accepted else "REJECT"
    print(f"{outcome}: {decision.match_count} matches, "
          f"dissimilarity {decision.dissimilarity}")
    return EXIT_OK if decision.accepted else EXIT_REJECTED


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        records = bench_mod.bench_run(sizes, key_bits=args.key_bits,
                                      solver=args.solver,
                                      repetitions=args.repetitions,
                                      seed=args.seed,
                                      feature_bits=args.feature_bits)
    except (ValueError, RuntimeError) as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(bench_mod.format_table(records))
    if args.csv:
        bench_mod.write_csv(records, args.csv)
        print(f"csv written to {args.csv}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    mode = _MODES[args.mode]
    try:
        if mode is FeatureMode.CASE_A:
            x = _read_feature_file(args.profile)
            y = _read_feature_file(args.sample)
            print(f"intersection cardinality: {oracle_intersection(x, y)}")
        elif mode is FeatureMode.CASE_B:
            x = _read_feature_file(args.profile)
            y = _read_feature_file(args.sample)
            sim = _read_table_file(args.table)
            print(f"weighted similarity sum: {oracle_weighted(x, y, sim)}")
        else:
            u = _read_vector_file(args.profile)
            v = _read_vector_file(args.sample)
            print(f"L1 distance: {oracle_l1(u, v)}")
    except (OSError, ValueError) as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psiauth",
        description="Privacy-preserving implicit authentication: the carrier "
                    "stores only an encrypted profile and learns only a "
                    "similarity score.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the carrier service")
    serve.add_argument("--listen", type=_parse_address, default=("127.0.0.1", 7700),
                       metavar="HOST:PORT", help="listen address (default %(default)s)")
    serve.add_argument("--data-dir", required=True, help="profile store root")
    serve.add_argument("--session-timeout", type=float, default=60.0,
                       help="seconds before a pending session expires")
    serve.add_argument("--seed", type=int, default=None,
                       help="RNG seed (test mode only)")
    serve.set_defaults(func=_cmd_serve)

    setup = sub.add_parser("setup", help="enroll a profile with the carrier")
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
    setup.add_argument("--key-bits", type=int, default=1024)
    setup.add_argument("--threshold", type=int, default=None,
                       help="per-user decision threshold stored at the carrier")
    setup.add_argument("--seed", type=int, default=None,
                       help="RNG seed (test mode only)")
    setup.set_defaults(func=_cmd_setup)

    auth = sub.add_parser("auth", help="authenticate a fresh sample")
    auth.add_argument("--carrier", type=_parse_address, required=True,
                      metavar="HOST:PORT")
    auth.add_argument("--secret-file", required=True)
    auth.add_argument("--sample", help="file of raw feature strings, one per line")
    auth.add_argument("--values", help="Case C: whitespace-separated numeric vector")
    auth.add_argument("--table", help="Case B: similarity lines 'y z weight'")
    auth.add_argument("--seed", type=int, default=None,
                      help="RNG seed (test mode only)")
    auth.set_defaults(func=_cmd_auth)

    bench = sub.add_parser("bench", help="time set-up and authentication")
    bench.add_argument("--sizes", default="1,5,10,15,20,25,30,35,40,45,50",
                       help="comma-separated profile sizes")
    bench.add_argument("--key-bits", type=int, default=1024)
    bench.add_argument("--solver", choices=("closed-form", "gaussian"),
                       default="closed-form")
    bench.add_argument("--repetitions", type=int, default=3)
    bench.add_argument("--feature-bits", type=int, default=128)
    bench.add_argument("--csv", default=None, help="also write records to CSV")
    bench.add_argument("--seed", type=int, default=None,
                       help="RNG seed (test mode only)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
