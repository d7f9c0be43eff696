#!/usr/bin/env python3
"""Trace payload bits against the KL curve on a drifting Bernoulli stream.

Each round the per-coordinate KL profile (a sinusoid spanning a 10x range)
shifts phase.  The adaptive partition re-cuts blocks to its KL budget, so its
payload should hug total KL/ln2 plus the per-block overhead; a fixed
equal-size partition with as many blocks as the first round's adaptive one
ends up with blocks far off their budget in both directions.  Each round
encodes the vector over both partitions, and a partition's bits are the
payload the codec accounts for that message: the index codes it sends.
Writes results/bitrate_trace.csv under the checkout root, wherever it is run
from.
"""

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedklms.codec import BlockPartition, CodecParams, encode_update, split_blocks_adaptive
from fedklms.distributions import BernoulliVector, kl_per_coordinate
from fedklms.streams import StreamKey

D = 10_000
ROUNDS = 50
KL_LOW = 2e-3
SEED = 2025


def payload_bits(q, p, partition: BlockPartition, params: CodecParams, key: StreamKey) -> int:
    """The payload bits of q's message over the partition, keyed by key."""
    _, cost = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
    return cost.payload_bits


def kl_profile(round_index: int) -> np.ndarray:
    i = np.arange(D)
    phase = 2.0 * np.pi * (4.0 * i / D + round_index / ROUNDS)
    return KL_LOW * 10.0 ** ((1.0 + np.sin(phase)) / 2.0)


def trace_rows() -> list[tuple[int, float, float, int, int, float]]:
    """One (round, kl_nats, ideal_bits, adaptive_bits, fixed_bits,
    fixed_violation_frac) row per round; writes nothing."""
    params = CodecParams(d_kl_target=3.0, overhead_r=2.0, max_block_size=4096)
    p = BernoulliVector(np.full(D, 0.5))
    rows = []
    fixed_size = None
    for t in range(ROUNDS):
        q = BernoulliVector(np.clip(0.5 + np.sqrt(kl_profile(t) / 2.0), 0.5, 0.99))
        kl = kl_per_coordinate(q, p)
        total_kl = float(kl.sum())

        key = StreamKey(SEED).child("round", t)
        adaptive = split_blocks_adaptive(kl, params)
        adaptive_bits = payload_bits(q, p, adaptive, params, key.child("adaptive"))
        ideal = (total_kl + adaptive.num_blocks * params.overhead_r) / math.log(2.0)

        if fixed_size is None:
            # as many fixed blocks as the first round's adaptive partition has
            fixed_size = max(1, round(D / adaptive.num_blocks))
        fixed = BlockPartition(D, tuple(range(0, D, fixed_size)))
        fixed_bits = payload_bits(q, p, fixed, params, key.child("fixed"))
        budget = params.d_kl_target
        realized = np.array([float(kl[lo:hi].sum()) for lo, hi in fixed.ranges()])
        violation = float(np.mean((realized > 2.0 * budget) | (realized < 0.5 * budget)))
        rows.append((t, total_kl, ideal, adaptive_bits, fixed_bits, violation))
    return rows


def trace_csv(rows) -> str:
    """The CSV text of `trace_rows()`, as results/bitrate_trace.csv holds it."""
    lines = ["round,kl_nats,ideal_bits,adaptive_bits,fixed_bits,fixed_violation_frac"]
    lines += [f"{t},{kl!r},{ideal!r},{adaptive},{fixed},{violation!r}"
              for t, kl, ideal, adaptive, fixed, violation in rows]
    return "\n".join(lines) + "\n"


def main() -> int:
    rows = trace_rows()
    out = ROOT / "results" / "bitrate_trace.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(trace_csv(rows))
    _, _, ideal, adaptive, _, violations = zip(*rows)
    ratio = sum(adaptive) / sum(ideal)
    violation = sum(violations) / ROUNDS
    print(f"adaptive payload / (KL + M*r)/ln2 over {ROUNDS} rounds: {ratio:.3f}")
    print(f"fixed-block budget violations (mean fraction): {violation:.3f}")
    print(f"trace -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
