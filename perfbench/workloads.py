"""The benchmark's workloads, built from the workload seed.

Each workload is a list of operations that together form one *cycle*; a run
repeats whole cycles.  Every operation of a cycle is deterministic given the
seed, so repeated cycles must reproduce the first one bit for bit, and that is
checked.  Only public ``fedklms`` functions are called, through their module
attributes at call time, so the traced run sees every call.

Simulator operations run one shipped config through ``sim.run_experiment``
for a fixed prefix of its rounds, with a config seed derived from the
workload seed.  Codec operations send one vector through partition, encode,
serialize, deserialize and decode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedklms import cli, codec, config, distributions, sim, streams

COORDS = 65_536  # per codec_sweep vector, and the codec-bench --coords it matches

# workload -> (round prefix, config seeds per config, [(config file, overrides)]).
# Every round of a shipped config costs about the same, so a prefix stands
# for the whole run.  How much work a run does, its bitrate and its accuracy
# all depend on the seed; several config seeds per config average that out
# where rounds are cheap.  fedpm needs 50 rounds before its accuracy settles.
SIM_WORKLOADS = {
    "fedpm_mlp": (50, 1, [("fedpm_separable", {})]),
    "logistic_klms": (30, 3, [
        ("qsgd_separable", {}),
        ("signsgd_separable", {}),
        ("sgld_separable", {}),
    ]),
    "baselines": (30, 3, [
        ("fedpm_separable_baseline", {}),
        ("qsgd_separable", {"variant": "baseline"}),
        ("signsgd_separable", {"variant": "baseline"}),
        ("sgld_separable", {"variant": "baseline"}),
        ("qsgd_separable", {"method": "none"}),
    ]),
}


@dataclass
class OpResult:
    """What one operation did, and whether its outputs passed every check."""

    label: str
    seconds: float = 0.0
    rounds: int = 0  # simulator rounds, or 1 per codec round trip
    coords: int = 0  # parameters x messages
    bits_total: int = 0
    bits_payload: int = 0
    accuracy: float | None = None
    blocks_checked: int = 0
    blocks_exact: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)


class SimOp:
    """One shipped config run for a prefix of its rounds."""

    def __init__(self, root: Path, name: str, overrides: dict, rounds: int, seed: int):
        obj = config.load_config_file(str(root / "configs" / f"{name}.json"))
        obj.update(overrides, seed=seed, rounds=rounds)
        parts = [name] + [f"{k}={v}" for k, v in sorted(overrides.items())]
        self.label = "+".join(parts) + f"@seed{seed}"
        self.cfg = config.parse_experiment_config(obj)

    def measure(self) -> tuple[OpResult, tuple]:
        out = OpResult(self.label)
        t0 = time.perf_counter()
        rows, summary = sim.run_experiment(self.cfg)
        out.seconds = time.perf_counter() - t0
        out.rounds = len(rows)
        out.coords = summary["model_dim"] * self.cfg.rounds * self.cfg.clients_per_round
        out.bits_total = summary["total_bits_sent"]
        out.bits_payload = summary["total_payload_bits_sent"]
        out.accuracy = summary["final_accuracy"]
        return out, (rows, summary)

    def verify(self, out: OpResult, artifacts: tuple, scratch: Path,
               reference: bool) -> None:
        """Hash the metrics CSV and summary JSON exactly as ``train`` writes
        them, and check the summary against the config."""
        rows, summary = artifacts
        csv_path, json_path = scratch / "metrics.csv", scratch / "summary.json"
        sim.write_metrics_csv(rows, str(csv_path))
        sim.write_summary_json(summary, str(json_path))
        out.digest = ",".join(
            hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path)
        )
        if out.rounds != self.cfg.rounds:
            out.errors.append(f"{out.rounds} rounds reported, {self.cfg.rounds} configured")
        if not all(0.0 <= r.accuracy <= 1.0 for r in rows):
            out.errors.append("accuracy outside [0, 1]")
        if not 0 < out.bits_payload <= out.bits_total:
            out.errors.append(f"payload bits {out.bits_payload} vs total {out.bits_total}")


class CodecOp:
    """One vector through partition -> encode -> serialize -> deserialize -> decode.

    ``fixed_width`` cuts equal blocks instead of the adaptive KL partition.
    ``with_locations`` ships the block lengths on the wire and lets decode
    rebuild the partition from them, as a simulator location round does.
    """

    def __init__(self, label, q, p, params, key, *, with_locations=True,
                 fixed_width=None, uint8_digest=False):
        self.label = label
        self.q, self.p, self.params, self.key = q, p, params, key
        self.with_locations = with_locations
        self.fixed_width = fixed_width
        self.uint8_digest = uint8_digest

    def _round_trip(self):
        q, p, params, key = self.q, self.p, self.params, self.key
        if self.fixed_width is None:
            kl = distributions.kl_per_coordinate(q, p)
            partition = codec.split_blocks_adaptive(kl, params)
        else:
            partition = codec.split_blocks_fixed(q.dim, self.fixed_width)
        upd, cost = codec.encode_update(
            q, p, partition, params, key, round_index=0, client_id=0,
            include_locations=self.with_locations,
        )
        blob = codec.serialize_update(upd, params)
        received = codec.deserialize_update(blob, params)
        given = None if self.with_locations else partition
        decoded = codec.decode_update(p, given, params, key, received)
        return partition, upd, cost, blob, received, decoded

    def measure(self) -> tuple[OpResult, tuple]:
        out = OpResult(self.label)
        t0 = time.perf_counter()
        artifacts = self._round_trip()
        out.seconds = time.perf_counter() - t0
        _, _, cost, _, _, _ = artifacts
        out.rounds = 1
        out.coords = self.q.dim
        out.bits_total = cost.total_bits
        out.bits_payload = cost.payload_bits
        return out, artifacts

    def verify(self, out: OpResult, artifacts: tuple, scratch: Path,
               reference: bool) -> None:
        """The wire must round-trip and match the bit accounting.  With
        ``reference`` (the first cycle), decode must also repeat bit for bit
        and every block must equal an independent regeneration."""
        partition, upd, cost, blob, received, decoded = artifacts
        raw = decoded.astype(np.uint8) if self.uint8_digest else decoded
        out.digest = hashlib.sha256(raw.tobytes()).hexdigest()
        if not np.array_equal(received.indices, upd.indices):
            out.errors.append("deserialized indices differ from the encoded ones")
        if received.block_lengths != upd.block_lengths:
            out.errors.append("deserialized block lengths differ from the encoded ones")
        if len(blob) != math.ceil(cost.total_bits / 8):
            out.errors.append(f"wire is {len(blob)} bytes, accounting says "
                              f"{cost.total_bits} bits")
        if reference:
            # later cycles repeat the decode and must reproduce this digest
            given = None if self.with_locations else partition
            again = codec.decode_update(self.p, given, self.params, self.key, received)
            if not np.array_equal(decoded, again):
                out.errors.append("decode does not repeat bit for bit")
            self._check_reference(partition, upd, decoded, out)

    def _check_reference(self, partition, upd, decoded, out: OpResult) -> None:
        """Compare each decoded block with a full regeneration of its K
        candidates from the block's shared stream, keyed as the codec keys
        it (its ``_BLOCK_TAG`` and ``_SHARED_TAG`` labels under the message
        key)."""
        num_samples, _ = codec.samples_per_block(self.params.d_kl_target, self.params)
        for m, (lo, hi) in enumerate(partition.ranges()):
            shared_key = self.key.child(codec._BLOCK_TAG, m).child(codec._SHARED_TAG)
            stream = streams.derive_stream(shared_key)
            candidates = self.p.sample(lo, hi, stream, count=num_samples)
            out.blocks_checked += 1
            if np.array_equal(candidates[int(upd.indices[m])], decoded[lo:hi]):
                out.blocks_exact += 1
        if out.blocks_exact != out.blocks_checked:
            out.errors.append(f"{out.blocks_checked - out.blocks_exact} of "
                              f"{out.blocks_checked} blocks differ from the reference")


def _codec_bench_op(seed: int, coords: int) -> CodecOp:
    """The exact input of ``fedklms codec-bench --coords <coords> --seed <seed>``."""
    params = codec.CodecParams(d_kl_target=3.0, overhead_r=2.0)
    root = streams.StreamKey(seed, (("bench", 0),))
    setup = streams.derive_stream(root.child("probs"))
    q = distributions.BernoulliVector(0.45 + 0.1 * setup.uniforms(coords))
    p = distributions.BernoulliVector(np.full(coords, 0.5))
    return CodecOp("bernoulli.codec_bench", q, p, params, root,
                   with_locations=False, uint8_digest=True)


def codec_sweep_ops(seed: int) -> list[CodecOp]:
    """The four distribution pairs at the fedpm codec setting, plus one wide
    high-K Bernoulli case.

    The Bernoulli pair is the codec-bench input (1024-wide blocks).  The other
    pairs are drawn so that their adaptive blocks come out about 16
    (ternary), 47 (sign) and 149 (Gaussian) coordinates wide, spanning
    per-block-overhead-bound to width-bound encodes.
    """
    d = COORDS
    params = codec.CodecParams(d_kl_target=3.0, overhead_r=2.0)
    root = streams.StreamKey(seed, (("perfbench", 0),))
    ops = [_codec_bench_op(seed, COORDS)]

    gen = streams.derive_stream(root.child("ternary"))
    base = np.array([0.25, 0.5, 0.25])
    lam = 0.75 * gen.uniforms(d)
    symbol = gen.integers(d, 3)
    mix = (1.0 - lam)[:, None] * base + lam[:, None] * np.eye(3)[symbol]
    q = distributions.TernaryPattern(mix[:, 0], mix[:, 1], 1.0 - mix[:, 0] - mix[:, 1])
    p = distributions.TernaryPattern(np.full(d, 0.25), np.full(d, 0.5), np.full(d, 0.25))
    ops.append(CodecOp("ternary", q, p, params, root.child("pair", 1)))

    gen = streams.derive_stream(root.child("sign"))
    q = distributions.BinarySign(1.0 / (1.0 + np.exp(-0.8 * gen.gaussians(d))))
    p = distributions.UniformSign(d)
    ops.append(CodecOp("sign", q, p, params, root.child("pair", 2)))

    gen = streams.derive_stream(root.child("gaussian"))
    sigma = 0.5
    q = distributions.DiagonalGaussian(0.2 * sigma * gen.gaussians(d), sigma)
    p = distributions.DiagonalGaussian(np.zeros(d), sigma)
    ops.append(CodecOp("gaussian", q, p, params, root.child("pair", 3)))

    # K = 2^ceil((6 + 2) / ln 2) = 4096 candidates over four 1024-wide blocks
    wide = codec.CodecParams(d_kl_target=6.0, overhead_r=2.0, max_block_size=1024)
    gen = streams.derive_stream(root.child("high_k"))
    q = distributions.BernoulliVector(0.5 + 0.09 * (2.0 * gen.uniforms(4096) - 1.0))
    p = distributions.BernoulliVector(np.full(4096, 0.5))
    ops.append(CodecOp("bernoulli.high_k", q, p, wide, root.child("pair", 4),
                       fixed_width=1024))
    return ops


def build(name: str, seed: int, root: Path) -> list:
    """The operations of one cycle of workload ``name``."""
    if name == "codec_sweep":
        return codec_sweep_ops(seed)
    rounds, per_config, entries = SIM_WORKLOADS[name]
    return [SimOp(root, cfg, overrides, rounds, seed * per_config + i)
            for cfg, overrides in entries for i in range(per_config)]


def codec_bench_checksum(seed: int, coords: int) -> str:
    """Run the ``codec-bench`` command in process and return its checksum."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["codec-bench", "--coords", str(coords), "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"codec-bench exited with code {code}")
    for line in buf.getvalue().splitlines():
        if line.startswith("decoded checksum: "):
            return line.split(": ", 1)[1].strip()
    raise RuntimeError("codec-bench printed no checksum")
