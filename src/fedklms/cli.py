"""Command-line front end.

Subcommands: train (federated run from a JSON config), toy (scalar
mean-estimation grid), codec-bench (throughput and determinism check),
validate (parse a config and report OK).  Exit codes: 0 success, 1 config
error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from .codec import CodecParams, decode_update, encode_update
from .codec import deserialize_update, serialize_update
from .config import (
    TOY_ONLY_KEYS,
    ConfigError,
    load_config_file,
    parse_experiment_config,
    parse_toy_config,
)
from .distributions import BernoulliVector
from .sim import run_experiment, write_metrics_csv, write_summary_json
from .streams import StreamKey, derive_stream
from .toy import run_toy, write_toy_csv


def _seed(text: str) -> int:
    """A root seed: an integer in [0, 2^64)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64): {text!r}")
    return value


def _count(text: str) -> int:
    """A coordinate count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedklms",
        description="federated compression experiments with a KL-tracking codec",
    )
    sub = parser.add_subparsers(dest="command")

    train = sub.add_parser("train", help="run a federated experiment")
    train.add_argument("config", help="experiment config (JSON)")
    train.add_argument("--seed", type=int, default=None, help="override config seed")
    train.add_argument("--out", default=None, help="override metrics CSV path")

    toy = sub.add_parser("toy", help="scalar mean-estimation grid")
    toy.add_argument("config", nargs="?", default=None, help="toy config (JSON)")
    toy.add_argument("--seed", type=int, default=None, help="override config seed")
    toy.add_argument("--out", default=None, help="override CSV path")

    bench = sub.add_parser("codec-bench", help="codec throughput and determinism")
    bench.add_argument("--seed", type=_seed, default=0)
    bench.add_argument("--coords", type=_count, default=1_000_000)

    val = sub.add_parser("validate", help="check a config file")
    val.add_argument("config", help="config file (JSON)")
    return parser


def _load(args, parse):
    """Parse the config (no file: defaults) with --seed applied to an object,
    and pick the CSV and summary paths, --out and its sibling JSON if given."""
    obj = {} if args.config is None else load_config_file(args.config)
    if args.seed is not None and isinstance(obj, dict):
        obj["seed"] = args.seed
    cfg = parse(obj)
    if not args.out:
        return cfg, cfg.output.metrics_csv, cfg.output.summary_json
    out = Path(args.out)
    return cfg, args.out, str(out.with_name(out.stem + ".summary.json"))


def _cmd_train(args) -> int:
    cfg, metrics_path, summary_path = _load(args, parse_experiment_config)
    rows, summary = run_experiment(cfg)
    write_metrics_csv(rows, metrics_path)
    write_summary_json(summary, summary_path)
    print(
        f"{cfg.method}/{cfg.variant}: {cfg.rounds} rounds, "
        f"final accuracy {summary['final_accuracy']:.4f}, "
        f"mean payload {summary['mean_bpp_payload']:.4f} bpp, "
        f"total {summary['mean_bpp_total']:.4f} bpp, "
        f"{summary['location_rounds']} location rounds -> {metrics_path}"
    )
    return 0


def _cmd_toy(args) -> int:
    cfg, csv_path, summary_path = _load(args, parse_toy_config)
    cells, summary = run_toy(cfg)
    write_toy_csv(cells, csv_path)
    write_summary_json(summary, summary_path)
    print(f"{len(cells)} cells x {cfg.runs} runs -> {csv_path}")
    return 0


def _cmd_codec_bench(args) -> int:
    d = args.coords
    params = CodecParams(d_kl_target=3.0, overhead_r=2.0)
    root = StreamKey(args.seed, (("bench", 0),))
    setup = derive_stream(root.child("probs"))
    q = BernoulliVector(0.45 + 0.1 * setup.uniforms(d))
    p = BernoulliVector(np.full(d, 0.5))

    t0 = time.perf_counter()  # the block cut is part of the encode
    upd, cost = encode_update(q, p, None, params, root, round_index=0, client_id=0,
                              include_locations=True)
    encode_s = time.perf_counter() - t0

    blob = serialize_update(upd, params)
    received = deserialize_update(blob, params)

    t0 = time.perf_counter()
    decoded = decode_update(p, None, params, root, received)
    decode_s = time.perf_counter() - t0
    decoded_again = decode_update(p, None, params, root, received)
    if not np.array_equal(decoded, decoded_again):
        raise RuntimeError("decode is not deterministic")

    digest = hashlib.sha256(decoded.astype(np.uint8).tobytes()).hexdigest()
    print(f"coords: {d}, blocks: {upd.num_blocks}, "
          f"index bits: {cost.payload_bits / upd.num_blocks:.2f} mean, K = {2**params.index_bits}")
    print(f"encode: {d / encode_s:,.0f} coords/s")
    print(f"decode: {d / decode_s:,.0f} coords/s")
    print(f"payload: {cost.payload_bits} bits ({cost.payload_bits / d:.4f} bpp)")
    print(f"total: {cost.total_bits} bits ({cost.total_bits / d:.4f} bpp), {len(blob)} wire bytes")
    print(f"decoded checksum: {digest}")
    return 0


def _cmd_validate(args) -> int:
    obj = load_config_file(args.config)
    if isinstance(obj, dict) and not TOY_ONLY_KEYS.isdisjoint(obj):
        parse_toy_config(obj)
    else:
        parse_experiment_config(obj)
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the config-error code
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "train": _cmd_train,
        "toy": _cmd_toy,
        "codec-bench": _cmd_codec_bench,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to a distinct code
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
