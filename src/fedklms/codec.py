"""Shared-seed importance-sampling codec.

A client holding a local posterior q and the broadcast global prior p sends a
parameter vector by (1) cutting coordinates into blocks of bounded KL, (2)
regenerating, per block, K pseudo-random candidates from p using a stream whose
key both sides can derive, (3) picking one candidate with probability
proportional to the importance ratio q/p, and (4) transmitting only the
candidate's index.  The decoder derives the same key and regenerates only the
indexed candidate: the stream is counter based, so it skips the rows before
it without computing them.  The bit cost therefore tracks the KL between the
posteriors instead of the raw parameter width.

The encoder's log importance weights are affine in the candidate and its
square (see :func:`fedklms.distributions.log_ratio`).  They are computed from
coefficients built once per message, over candidate chunks of at most
``ENCODE_CHUNK_FLOATS`` values, so encode memory is bounded whatever K is.

K is uniform across blocks and derived from the block KL *target*, not the
realized block KL: the greedy partitioner aims every block at the same target,
the optimal sample budget is then the same for every block, and the decoder
needs no client-side KL values.

Wire layout (bit-packed, MSB first within bytes, zero-padded to a byte):

    [round:32][client_id:32][flags:8][avg_block_kl: float32 big-endian]
    [num_blocks:32]
    [if flags bit0: num_blocks fields of ceil(log2 max_block_size) bits,
     each holding block_length - 1]
    [num_blocks index fields of index_bits bits]

index_bits and max_block_size are session constants carried in
:class:`CodecParams`, never in-band.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .distributions import LogRatio, ProductDistribution, kl_per_coordinate, log_ratio
from .streams import SampleStream, StreamKey, derive_stream

_LN2 = math.log(2.0)

# most candidate values one encode holds at once (8 MB of float64); a block
# wider than half of this still takes two rows per chunk
ENCODE_CHUNK_FLOATS = 1 << 20

# stream role labels; both sides must derive identical keys
_BLOCK_TAG = "block"
_SHARED_TAG = "shared"
_SELECT_TAG = "select"


class WireFormatError(ValueError):
    """Malformed serialized update; carries the byte offset of the problem."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class CodecParams:
    """Session constants shared by every client and the server."""

    d_kl_target: float
    overhead_r: float = 0.0
    max_block_size: int = 1024
    kl_min_threshold: float = 0.0
    kl_max_threshold: float = math.inf

    def __post_init__(self) -> None:
        if not self.d_kl_target > 0:
            raise ValueError(f"d_kl_target must be positive: {self.d_kl_target}")
        if self.overhead_r < 0:
            raise ValueError(f"overhead_r must be nonnegative: {self.overhead_r}")
        if self.max_block_size < 1:
            raise ValueError(f"max_block_size must be >= 1: {self.max_block_size}")
        if not self.kl_min_threshold <= self.d_kl_target <= self.kl_max_threshold:
            raise ValueError(
                "thresholds must bracket the target: "
                f"{self.kl_min_threshold} <= {self.d_kl_target} <= {self.kl_max_threshold}"
            )

    @property
    def index_bits(self) -> int:
        """Per-block index width; uniform across blocks (see module docstring)."""
        return samples_per_block(self.d_kl_target, self)[1]

    @property
    def length_field_bits(self) -> int:
        return max_block_size_field_bits(self.max_block_size)


def max_block_size_field_bits(max_block_size: int) -> int:
    """Width of one block-length wire field: ceil(log2 max_block_size).

    Lengths are in [1, max_block_size] and are stored as length - 1, which is
    exactly the 0 .. max_block_size-1 range the field can hold.
    """
    if max_block_size < 1:
        raise ValueError(f"max_block_size must be >= 1: {max_block_size}")
    return max(0, (max_block_size - 1).bit_length())


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous cover of [0, dim) by blocks, given as sorted start offsets."""

    dim: int
    starts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive: {self.dim}")
        if not self.starts or self.starts[0] != 0:
            raise ValueError("partition must start at coordinate 0")
        prev = -1
        for s in self.starts:
            if s <= prev:
                raise ValueError(f"starts must be strictly increasing: {self.starts}")
            prev = s
        if prev >= self.dim:
            raise ValueError(f"start {prev} out of range for dim {self.dim}")

    @property
    def num_blocks(self) -> int:
        return len(self.starts)

    @property
    def lengths(self) -> tuple[int, ...]:
        ends = self.starts[1:] + (self.dim,)
        return tuple(e - s for s, e in zip(self.starts, ends))

    def ranges(self) -> list[tuple[int, int]]:
        ends = self.starts[1:] + (self.dim,)
        return list(zip(self.starts, ends))

    def check_max_block_size(self, max_block_size: int) -> None:
        for lo, hi in self.ranges():
            if hi - lo > max_block_size:
                raise ValueError(
                    f"block [{lo}, {hi}) exceeds max_block_size {max_block_size}"
                )

    @staticmethod
    def from_lengths(lengths: tuple[int, ...] | list[int]) -> "BlockPartition":
        if not lengths:
            raise ValueError("partition needs at least one block")
        starts = [0]
        for ln in lengths[:-1]:
            if ln < 1:
                raise ValueError(f"block lengths must be >= 1: {lengths}")
            starts.append(starts[-1] + int(ln))
        if lengths[-1] < 1:
            raise ValueError(f"block lengths must be >= 1: {lengths}")
        return BlockPartition(dim=starts[-1] + int(lengths[-1]), starts=tuple(starts))


@dataclass
class EncodedUpdate:
    """One client-to-server message before/after serialization."""

    round_index: int
    client_id: int
    avg_block_kl: float
    num_blocks: int
    indices: np.ndarray
    includes_locations: bool = False
    block_lengths: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.shape != (self.num_blocks,):
            raise ValueError(
                f"expected {self.num_blocks} indices, got shape {self.indices.shape}"
            )
        if self.includes_locations:
            if self.block_lengths is None or len(self.block_lengths) != self.num_blocks:
                raise ValueError("includes_locations requires one length per block")
        elif self.block_lengths is not None:
            raise ValueError("block_lengths present but includes_locations is False")


@dataclass(frozen=True)
class BitCost:
    """Exact bit accounting for one message; mirrors the wire layout."""

    payload_bits: int
    location_bits: int
    header_bits: int
    dimension: int

    def __post_init__(self) -> None:
        if min(self.payload_bits, self.location_bits, self.header_bits) < 0:
            raise ValueError("bit counts must be nonnegative")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.location_bits + self.header_bits

    @property
    def bpp(self) -> float:
        return self.total_bits / self.dimension

    @property
    def bpp_payload(self) -> float:
        return self.payload_bits / self.dimension


# round:32 + client:32 + flags:8 + avg_kl:32 + num_blocks:32
HEADER_BITS = 136


def samples_per_block(block_kl: float, params: CodecParams) -> tuple[int, int]:
    """(K, bits) for a block of the given KL (nats).

    bits = ceil((block_kl + overhead_r) / ln 2), at least 1; K = 2**bits.
    """
    if block_kl < 0:
        raise ValueError(f"block KL must be nonnegative: {block_kl}")
    bits = max(1, math.ceil((block_kl + params.overhead_r) / _LN2))
    return 2**bits, bits


def split_blocks_adaptive(kl: np.ndarray, params: CodecParams) -> BlockPartition:
    """Greedy left-to-right cut: close a block once its KL sum reaches the
    target or its length reaches max_block_size."""
    kl = np.asarray(kl, dtype=np.float64)
    if kl.ndim != 1 or kl.size == 0:
        raise ValueError("kl must be a non-empty 1-D vector")
    if np.any(kl < 0):
        raise ValueError("per-coordinate KL must be nonnegative")
    starts = [0]
    running = 0.0
    length = 0
    for i, k in enumerate(kl):
        running += float(k)
        length += 1
        closed = running >= params.d_kl_target or length == params.max_block_size
        if closed and i + 1 < kl.size:
            starts.append(i + 1)
            running = 0.0
            length = 0
    return BlockPartition(dim=int(kl.size), starts=tuple(starts))


def split_blocks_fixed(dim: int, block_size: int) -> BlockPartition:
    """Equal-size blocks (last one possibly shorter)."""
    if dim < 1:
        raise ValueError(f"dimension must be positive: {dim}")
    if block_size < 1:
        raise ValueError(f"block_size must be positive: {block_size}")
    return BlockPartition(dim=dim, starts=tuple(range(0, dim, block_size)))


def aggregate_block_locations(
    partitions: list[BlockPartition], max_block_size: int | None = None
) -> BlockPartition:
    """Merge per-client partitions into one: per position, the ceiling of the
    mean start over the clients that have that many blocks.

    The raw ceil-means can collide or go out of range, so the result is
    repaired: non-increasing starts are dropped, and if a cap is given, blocks
    over max_block_size are split at cap multiples.
    """
    if not partitions:
        raise ValueError("need at least one client partition")
    dim = partitions[0].dim
    for p in partitions:
        if p.dim != dim:
            raise ValueError(f"partitions disagree on dimension: {p.dim} vs {dim}")
    deepest = max(p.num_blocks for p in partitions)
    starts = []
    for m in range(deepest):
        having = [p.starts[m] for p in partitions if p.num_blocks > m]
        starts.append(math.ceil(sum(having) / len(having)))
    merged = [0]
    for s in starts[1:]:
        if merged[-1] < s < dim:
            merged.append(s)
    if max_block_size is not None:
        capped = [0]
        bounds = merged[1:] + [dim]
        for lo, hi in zip(merged, bounds):
            if lo > 0:
                capped.append(lo)
            while hi - lo > max_block_size:
                lo += max_block_size
                capped.append(lo)
        merged = capped
    return BlockPartition(dim=dim, starts=tuple(merged))


class ZeroMassCandidatesError(ValueError):
    """Every candidate in a block had zero mass under the client posterior."""

    def __init__(self, lo: int, hi: int):
        super().__init__(
            f"all candidates for block [{lo}, {hi}) have zero client mass; "
            "the posterior is not absolutely continuous enough for this budget"
        )


def selection_weights(
    q: ProductDistribution,
    p: ProductDistribution,
    lo: int,
    hi: int,
    candidates: np.ndarray | Iterable[np.ndarray],
    ratio: LogRatio | None = None,
) -> np.ndarray:
    """Normalized importance weights q/p over candidate rows drawn from p
    (max-shifted softmax of the log ratios, so extreme ratios stay finite).

    ``candidates`` is the K x (hi-lo) matrix or an iterable of its consecutive
    row chunks; ``ratio`` is ``log_ratio(q, p)`` when the caller has it.
    """
    ratio = log_ratio(q, p) if ratio is None else ratio
    chunks = [candidates] if isinstance(candidates, np.ndarray) else candidates
    log_w = np.concatenate([ratio.rows(lo, hi, c) for c in chunks])
    top = np.max(log_w)
    if np.isneginf(top):
        raise ZeroMassCandidatesError(lo, hi)
    weights = np.exp(log_w - top)
    weights /= weights.sum()
    return weights


def _select(weights: np.ndarray, selector_stream: SampleStream) -> int:
    u = selector_stream.next_uniform()
    k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    if k >= weights.size:
        # float roundoff left the last cumulative weight marginally below u;
        # use the last candidate that carries mass
        k = int(np.flatnonzero(weights > 0.0)[-1])
    return k


def encode_block(
    q: ProductDistribution,
    p: ProductDistribution,
    lo: int,
    hi: int,
    num_samples: int,
    shared_stream: SampleStream,
    selector_stream: SampleStream,
    ratio: LogRatio | None = None,
) -> tuple[int, np.ndarray]:
    """Pick one of num_samples candidates drawn from p, importance-weighted by q.

    Returns (index, selected row).  The shared stream is consumed identically
    by :func:`decode_block`; the selector stream is client-only randomness.
    Candidates are drawn in chunks of an even number of rows (Gaussian pairs
    never straddle two chunks); when there is more than one chunk, the
    selected row is regenerated by skipping to it.
    """
    if num_samples < 1:
        raise ValueError(f"need at least one candidate: {num_samples}")
    rows = max(2, ENCODE_CHUNK_FLOATS // (hi - lo) // 2 * 2)
    if num_samples <= rows:
        candidates = p.sample(lo, hi, shared_stream, count=num_samples)
        k = _select(selection_weights(q, p, lo, hi, candidates, ratio), selector_stream)
        return k, candidates[k]
    replay = shared_stream.copy()
    chunks = (p.sample(lo, hi, shared_stream, count=min(rows, num_samples - start))
              for start in range(0, num_samples, rows))
    k = _select(selection_weights(q, p, lo, hi, chunks, ratio), selector_stream)
    return k, p.sample(lo, hi, replay, start=k)[0]


def decode_block(
    p: ProductDistribution,
    lo: int,
    hi: int,
    num_samples: int,
    shared_stream: SampleStream,
    index: int,
) -> np.ndarray:
    """The encoder's indexed candidate, generated alone: the stream skips the
    index rows before it."""
    if not 0 <= index < num_samples:
        raise ValueError(f"index {index} out of range for {num_samples} candidates")
    return p.sample(lo, hi, shared_stream, start=index)[0]


def _block_streams(key_base: StreamKey, m: int) -> tuple[SampleStream, SampleStream]:
    """The encoder's shared and selector streams for block m."""
    block_key = key_base.child(_BLOCK_TAG, m)
    return (
        derive_stream(block_key.child(_SHARED_TAG)),
        derive_stream(block_key.child(_SELECT_TAG)),
    )


def bit_cost(
    num_blocks: int, params: CodecParams, includes_locations: bool, dimension: int
) -> BitCost:
    location = num_blocks * params.length_field_bits if includes_locations else 0
    return BitCost(
        payload_bits=num_blocks * params.index_bits,
        location_bits=location,
        header_bits=HEADER_BITS,
        dimension=dimension,
    )


def encode_update(
    q: ProductDistribution,
    p: ProductDistribution,
    partition: BlockPartition,
    params: CodecParams,
    key_base: StreamKey,
    round_index: int,
    client_id: int,
    include_locations: bool = False,
    *,
    kl: np.ndarray | None = None,
) -> tuple[EncodedUpdate, BitCost]:
    """Encode a full parameter vector block by block.

    key_base must identify (round, client) uniquely; the per-block stream keys
    are derived from it, so the stream for block m never depends on how other
    blocks were processed.  ``kl`` is ``kl_per_coordinate(q, p)`` when the
    caller has already computed it.
    """
    if q.dim != p.dim or q.dim != partition.dim:
        raise ValueError(
            f"dimension mismatch: q {q.dim}, p {p.dim}, partition {partition.dim}"
        )
    partition.check_max_block_size(params.max_block_size)
    num_samples, _ = samples_per_block(params.d_kl_target, params)
    kl = kl_per_coordinate(q, p) if kl is None else kl
    ratio = log_ratio(q, p)
    indices = np.empty(partition.num_blocks, dtype=np.int64)
    block_kls = np.empty(partition.num_blocks)
    for m, (lo, hi) in enumerate(partition.ranges()):
        shared, selector = _block_streams(key_base, m)
        indices[m], _ = encode_block(q, p, lo, hi, num_samples, shared, selector, ratio)
        block_kls[m] = kl[lo:hi].sum()
    upd = EncodedUpdate(
        round_index=round_index,
        client_id=client_id,
        # transmitted at 32 bits, so stored already rounded
        avg_block_kl=float(np.float32(block_kls.mean())),
        num_blocks=partition.num_blocks,
        indices=indices,
        includes_locations=include_locations,
        block_lengths=partition.lengths if include_locations else None,
    )
    return upd, bit_cost(partition.num_blocks, params, include_locations, q.dim)


def decode_update(
    p: ProductDistribution,
    partition: BlockPartition | None,
    params: CodecParams,
    key_base: StreamKey,
    upd: EncodedUpdate,
) -> np.ndarray:
    """Reconstruct the encoder's selected samples for a whole vector.

    If the update carries block locations they define the partition; otherwise
    the caller-provided partition must match the one used at encode time.
    """
    if upd.includes_locations:
        partition = BlockPartition.from_lengths(upd.block_lengths)
    if partition is None:
        raise ValueError("update has no locations and no partition was given")
    if partition.dim != p.dim:
        raise ValueError(f"partition dim {partition.dim} != distribution dim {p.dim}")
    if partition.num_blocks != upd.num_blocks:
        raise ValueError(
            f"partition has {partition.num_blocks} blocks, update has {upd.num_blocks}"
        )
    num_samples, _ = samples_per_block(params.d_kl_target, params)
    out = np.empty(p.dim)
    for m, (lo, hi) in enumerate(partition.ranges()):
        # only the shared stream: the selector is the encoder's alone
        shared = derive_stream(key_base.child(_BLOCK_TAG, m).child(_SHARED_TAG))
        out[lo:hi] = decode_block(p, lo, hi, num_samples, shared, int(upd.indices[m]))
    return out


def should_update_partition(avg_block_kl: float, params: CodecParams) -> bool:
    """Strictly outside [kl_min_threshold, kl_max_threshold] means repartition."""
    return avg_block_kl > params.kl_max_threshold or avg_block_kl < params.kl_min_threshold


def _msb_shifts(width: int) -> np.ndarray:
    """Bit positions of a width-bit field, most significant first."""
    return np.arange(width - 1, -1, -1, dtype=np.uint64)


def _field_bits(values, width: int) -> np.ndarray:
    """The bits of each value in a field width bits wide, back to back."""
    values = np.asarray(values, dtype=np.uint64).reshape(-1, 1)
    return ((values >> _msb_shifts(width)) & 1).astype(np.uint8).ravel()


class _FieldReader:
    """MSB-first fixed-width field unpacker with offset-bearing errors."""

    def __init__(self, data: bytes):
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.bit_pos = 0

    def read(self, width: int, count: int = 1) -> np.ndarray:
        end = self.bit_pos + count * width
        if end > self._bits.size:
            # the first field that does not fit starts where the whole ones end
            start = self.bit_pos + (self._bits.size - self.bit_pos) // width * width
            raise WireFormatError(
                f"truncated: needed {width} bits, {self._bits.size - start} left",
                start // 8,
            )
        fields = self._bits[self.bit_pos:end].reshape(count, width)
        self.bit_pos = end
        return fields @ (np.uint64(1) << _msb_shifts(width))


def serialize_update(upd: EncodedUpdate, params: CodecParams) -> bytes:
    """Pack an update per the wire layout in the module docstring."""
    if not 0 <= upd.round_index < 2**32:
        raise ValueError(f"round_index out of range: {upd.round_index}")
    if not 0 <= upd.client_id < 2**32:
        raise ValueError(f"client_id out of range: {upd.client_id}")
    (kl_bits,) = struct.unpack(">I", struct.pack(">f", upd.avg_block_kl))
    header = (upd.round_index, upd.client_id, int(upd.includes_locations), kl_bits,
              upd.num_blocks)
    fields = [_field_bits([v], w) for v, w in zip(header, (32, 32, 8, 32, 32))]
    if upd.includes_locations:
        lengths = np.asarray(upd.block_lengths, dtype=np.int64)
        bad = (lengths < 1) | (lengths > params.max_block_size)
        if bad.any():
            raise ValueError(
                f"block length {lengths[bad][0]} outside [1, {params.max_block_size}]"
            )
        fields.append(_field_bits(lengths - 1, params.length_field_bits))
    width = params.index_bits
    bad = (upd.indices < 0) | (upd.indices >= 1 << width)
    if bad.any():
        raise ValueError(f"index {upd.indices[bad][0]} does not fit in {width} bits")
    fields.append(_field_bits(upd.indices, width))
    return np.packbits(np.concatenate(fields)).tobytes()  # zero-pads the tail


def deserialize_update(data: bytes, params: CodecParams) -> EncodedUpdate:
    """Inverse of :func:`serialize_update`; rejects truncated or overlong input."""
    r = _FieldReader(data)
    round_index, client_id, flags = (int(r.read(w)[0]) for w in (32, 32, 8))
    if flags & ~0x01:
        raise WireFormatError(f"unknown flag bits 0x{flags:02x}", 8)
    includes_locations = bool(flags & 0x01)
    kl_bits, num_blocks = (int(r.read(32)[0]) for _ in range(2))
    (avg_block_kl,) = struct.unpack(">f", struct.pack(">I", kl_bits))
    # plausibility bound before reading: index fields are >= 1 bit each
    if num_blocks * params.index_bits > 8 * len(data):
        raise WireFormatError(
            f"truncated: {num_blocks} blocks cannot fit in {len(data)} bytes",
            r.bit_pos // 8,
        )
    lengths: tuple[int, ...] | None = None
    if includes_locations:
        lengths = tuple(int(v) + 1 for v in r.read(params.length_field_bits, num_blocks))
    indices = r.read(params.index_bits, num_blocks).astype(np.int64)
    expected_bytes = (r.bit_pos + 7) // 8
    if len(data) != expected_bytes:
        raise WireFormatError(
            f"overlong: message is {expected_bytes} bytes, got {len(data)}",
            expected_bytes,
        )
    return EncodedUpdate(
        round_index=round_index,
        client_id=client_id,
        avg_block_kl=float(avg_block_kl),
        num_blocks=num_blocks,
        indices=indices,
        includes_locations=includes_locations,
        block_lengths=lengths,
    )
