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
The encoder keeps no candidate past its chunk and returns only the index:
the selected row exists once the decoder regenerates it.

K is uniform across blocks and derived from the block KL *target*, not the
realized block KL: the greedy partitioner aims every block at the same target,
the optimal sample budget is then the same for every block, and the index
width is a session constant, so the parser checks that the whole body fits
before it reads any block.

The block partition's lifecycle: a round without a shared partition, such as
the first, is a location round.  Every client cuts its own blocks from its
per-coordinate KL (:func:`encode_update` with no partition) and ships their
lengths.  :func:`next_partition` then merges the partitions that crossed the
wire into the shared one.  On ordinary rounds it drops that partition only
when the mean transmitted block KL drifts strictly outside the configured
band, so the next round is a location round again.

Wire layout (bit-packed, MSB first within bytes, zero-padded to a byte):

    [locations: 1 bit, set when block lengths follow the header]
    [avg_block_kl: 8 bits, the code of the mean block KL on a log2 grid]
    [num_blocks n >= 1: Elias-gamma code, floor(log2 n) zero bits, then n in
     binary from its leading 1, 2 floor(log2 n) + 1 bits in all]
    [if locations: n fields of ceil(log2 max_block_size) bits, each holding
     block_length - 1]
    [n index fields of index_bits bits]

A one-block message has a 10-bit header, one of 2-3 blocks 12 bits.

The reader mirrors the writer: it unpacks the whole message into one bit
array and reads each field as the dot product of its bits with their weights.
It checks that the whole body fits before it reads any block field, and it
refuses a block length above max_block_size, so every message it accepts is
one the writer writes, up to the pad bits, which it does not read.

The mean block KL only reports how far the client's blocks drift from the
target, so it is sent at 1/8-octave precision: code 0 is a KL of exactly 0,
and code c >= 1 is 2^((c - 128) / 8) nats, from 1.6e-5 to 6.0e4.  The encoder
sends the code nearest the KL in log2, within a factor 2^(1/16); a KL outside
that range saturates to code 1 or 255.

index_bits and max_block_size are session constants carried in
:class:`CodecParams`, never in-band.  Neither are the round and the client:
the receiver derives the message's stream key from both, so it already knows
them, and a message read under another key decodes to other candidates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .distributions import (LogRatio, ProductDistribution, _check_coordinates,
                            _is_integer, kl_per_coordinate, log_ratio)
from .streams import SampleStream, StreamKey, derive_stream

_LN2 = math.log(2.0)

# widest index field the wire reader handles: fields are read as uint64
_MAX_INDEX_BITS = 63

# the weight of each bit of a wire field, 2^63 ... 2^0; a w-bit field is the
# dot product of its bits with the last w of them
_BIT_WEIGHTS = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)

# the mean block KL's wire code: 8 bits on a log2 grid of 8 steps per octave,
# code 0 for a KL of exactly 0 (see the module docstring)
_KL_CODE_BITS = 8
_KL_STEPS_PER_OCTAVE = 8
_KL_CODE_OF_ONE_NAT = 128

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
        if not self.overhead_r >= 0:
            raise ValueError(f"overhead_r must be nonnegative: {self.overhead_r}")
        if not _is_integer(self.max_block_size) or self.max_block_size < 1:
            raise ValueError(f"max_block_size must be an integer >= 1: {self.max_block_size!r}")
        object.__setattr__(self, "max_block_size", int(self.max_block_size))  # numpy ints too
        if not self.kl_min_threshold <= self.d_kl_target <= self.kl_max_threshold:
            raise ValueError(
                "thresholds must bracket the target: "
                f"{self.kl_min_threshold} <= {self.d_kl_target} <= {self.kl_max_threshold}"
            )
        nats = self.d_kl_target + self.overhead_r
        if not nats / _LN2 <= _MAX_INDEX_BITS:  # the quotient samples_per_block rounds up
            raise ValueError(
                f"d_kl_target + overhead_r is {nats} nats, which needs index fields "
                f"wider than {_MAX_INDEX_BITS} bits; at most {_MAX_INDEX_BITS} ln 2 = "
                f"{_MAX_INDEX_BITS * _LN2:.4f} nats fit"
            )

    @property
    def index_bits(self) -> int:
        """Per-block index width; uniform across blocks (see module docstring)."""
        return samples_per_block(self.d_kl_target, self)[1]

    @property
    def length_field_bits(self) -> int:
        """Width of one block-length wire field: ceil(log2 max_block_size).

        Lengths are in [1, max_block_size] and are stored as length - 1, which
        is exactly the 0 .. max_block_size-1 range the field can hold.
        """
        return max(0, (self.max_block_size - 1).bit_length())


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
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise ValueError(f"starts must be strictly increasing: {self.starts}")
        if self.starts[-1] >= self.dim:
            raise ValueError(f"start {self.starts[-1]} out of range for dim {self.dim}")

    @property
    def num_blocks(self) -> int:
        return len(self.starts)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.ranges())

    def ranges(self) -> list[tuple[int, int]]:
        ends = self.starts[1:] + (self.dim,)
        return list(zip(self.starts, ends))

    @staticmethod
    def from_lengths(lengths: Iterable[int]) -> "BlockPartition":
        # no lengths, or a length below 1, gives starts __post_init__ refuses
        ends = np.cumsum([0, *lengths], dtype=np.int64).tolist()
        return BlockPartition(dim=ends[-1], starts=tuple(ends[:-1]))


def _kl_code(kl: float) -> int:
    """The wire code of a finite KL >= 0: the nearest grid point in log2,
    saturating at the ends of the grid."""
    if kl == 0.0:
        return 0
    code = round(_KL_STEPS_PER_OCTAVE * math.log2(kl)) + _KL_CODE_OF_ONE_NAT
    return min(max(code, 1), (1 << _KL_CODE_BITS) - 1)


def _kl_of_code(code: int) -> float:
    return 0.0 if code == 0 else 2.0 ** ((code - _KL_CODE_OF_ONE_NAT) / _KL_STEPS_PER_OCTAVE)


@dataclass
class EncodedUpdate:
    """One client-to-server message before/after serialization.

    ``avg_block_kl`` is snapped to the grid of its 8-bit wire code on
    construction, so it holds exactly the KL the receiver reads.
    """

    avg_block_kl: float
    indices: np.ndarray  # one candidate index per block
    block_lengths: tuple[int, ...] | None = None  # shipped on location rounds

    def __post_init__(self) -> None:
        if not (math.isfinite(self.avg_block_kl) and self.avg_block_kl >= 0.0):
            raise ValueError(f"avg_block_kl must be finite and nonnegative: "
                             f"{self.avg_block_kl!r}")
        self.avg_block_kl = _kl_of_code(_kl_code(self.avg_block_kl))
        # types only: serialize_update checks that each value fits its field
        indices = np.asarray(self.indices)
        if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"indices must be a 1-D integer array: {self.indices!r}")
        self.indices = indices.astype(np.int64, copy=False)
        if self.indices.size == 0:
            # a partition has at least one block, and the gamma code of
            # num_blocks has no word for zero
            raise ValueError("an update carries at least one block index")
        lengths = self.block_lengths
        if lengths is not None and (len(lengths) != self.num_blocks
                                    or not all(map(_is_integer, lengths))):
            raise ValueError(f"block_lengths needs one integer length per index: {lengths!r}")

    @property
    def num_blocks(self) -> int:
        return len(self.indices)

    @property
    def includes_locations(self) -> bool:
        return self.block_lengths is not None


@dataclass(frozen=True)
class BitCost:
    """Exact bit accounting for one message; mirrors the wire layout."""

    payload_bits: int
    location_bits: int
    header_bits: int

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.location_bits + self.header_bits


# the fixed-width header fields, (field, bits) in wire order: their one
# statement, read by the writer, the reader and the bit accounting.  The
# Elias-gamma code of num_blocks follows them (see _gamma_bits).
_HEADER = (
    ("locations", 1),  # 1: block lengths follow the header
    ("avg_block_kl", _KL_CODE_BITS),  # the KL's log2-grid code
)


def _gamma_bits(n: int) -> int:
    """Length of the Elias-gamma code of n >= 1: 2 floor(log2 n) + 1 bits."""
    if n < 1:
        raise ValueError(f"Elias gamma codes positive integers: {n}")
    return 2 * n.bit_length() - 1


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
    _check_coordinates(np.isfinite(kl) & (kl >= 0.0),
                       "per-coordinate KL must be finite and nonnegative", kl)
    target, cap, dim = params.d_kl_target, params.max_block_size, int(kl.size)
    starts, lo, guess = [0], 0, 16
    while True:
        # cumsum adds left to right from the block's first term, as a running
        # total would, so the block closes at its first sum that reaches the
        # target, or at cap terms; a window about twice the last block's
        # width is tried before one of cap terms
        window = min(cap, guess)
        sums = np.cumsum(kl[lo:lo + window])
        j = int(sums.searchsorted(target))
        if j == window < cap:
            sums = np.cumsum(kl[lo:lo + cap])
            j = int(sums.searchsorted(target))
        hi = lo + min(j + 1, sums.size)
        if hi >= dim:
            return BlockPartition(dim=dim, starts=tuple(starts))
        starts.append(hi)
        guess = 2 * (hi - lo) + 8
        lo = hi


def split_blocks_fixed(dim: int, block_size: int) -> BlockPartition:
    """Equal-size blocks (last one possibly shorter)."""
    if block_size < 1:
        raise ValueError(f"block_size must be positive: {block_size}")
    return BlockPartition(dim=dim, starts=tuple(range(0, dim, block_size)))


def aggregate_block_locations(
    partitions: list[BlockPartition], max_block_size: int
) -> BlockPartition:
    """Merge per-client partitions into one: per position, the ceiling of the
    mean start over the clients that have that many blocks.

    The raw ceil-means can collide or go out of range, so the result is
    repaired: non-increasing starts are dropped, and blocks over
    max_block_size are split at cap multiples.
    """
    if not partitions:
        raise ValueError("need at least one client partition")
    dim = partitions[0].dim
    if any(p.dim != dim for p in partitions):
        raise ValueError(f"partitions disagree on dimension: {[p.dim for p in partitions]}")
    deepest = max(p.num_blocks for p in partitions)
    starts = []
    for m in range(deepest):
        having = [p.starts[m] for p in partitions if p.num_blocks > m]
        starts.append(math.ceil(sum(having) / len(having)))
    merged = [0]
    for s in starts[1:]:
        if merged[-1] < s < dim:
            merged.append(s)
    capped = [0]
    for lo, hi in zip(merged, merged[1:] + [dim]):
        if lo > 0:
            capped.append(lo)
        while hi - lo > max_block_size:
            lo += max_block_size
            capped.append(lo)
    return BlockPartition(dim=dim, starts=tuple(capped))


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


def select_index(weights: np.ndarray, selector_stream: SampleStream) -> int:
    """Draw one index with probability given by normalized ``weights``,
    consuming one uniform of the selector stream."""
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
) -> int:
    """Pick one of num_samples candidates drawn from p, importance-weighted by q.

    Returns the index, the only thing the message carries: the decoder
    regenerates its row with :func:`decode_block`.  The shared stream is
    consumed identically by both sides; the selector stream is client-only
    randomness.  Candidates are drawn in chunks of an even number of rows
    (Gaussian pairs and the two halves of a Bernoulli word never straddle two
    chunks), so at most ``ENCODE_CHUNK_FLOATS`` values are held at once.
    """
    if num_samples < 1:
        raise ValueError(f"need at least one candidate: {num_samples}")
    rows = max(2, ENCODE_CHUNK_FLOATS // (hi - lo) // 2 * 2)
    chunks = (p.sample(lo, hi, shared_stream, count=min(rows, num_samples - start))
              for start in range(0, num_samples, rows))
    return select_index(selection_weights(q, p, lo, hi, chunks, ratio), selector_stream)


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


def bit_cost(num_blocks: int, params: CodecParams, includes_locations: bool) -> BitCost:
    location = num_blocks * params.length_field_bits if includes_locations else 0
    return BitCost(
        payload_bits=num_blocks * params.index_bits,
        location_bits=location,
        header_bits=sum(bits for _, bits in _HEADER) + _gamma_bits(num_blocks),
    )


def encode_update(
    q: ProductDistribution,
    p: ProductDistribution,
    partition: BlockPartition | None,
    params: CodecParams,
    key_base: StreamKey,
    round_index: int,
    client_id: int,
    include_locations: bool = False,
) -> tuple[EncodedUpdate, BitCost]:
    """Encode a full parameter vector block by block.

    With no ``partition`` the client cuts its own blocks from its KL vector
    (:func:`split_blocks_adaptive`) and must ship their lengths.

    key_base must identify (round, client) uniquely; the per-block stream keys
    are derived from it, so the stream for block m never depends on how other
    blocks were processed.  ``round_index`` and ``client_id`` name that
    message; they are neither stored in the update nor sent, because the
    receiver knows both (it derives the same key).
    """
    if partition is None and not include_locations:
        raise ValueError("an update without a partition must include its locations")
    kl = kl_per_coordinate(q, p)  # refuses a q and p of different dimensions
    partition = partition or split_blocks_adaptive(kl, params)
    if partition.dim != q.dim:
        raise ValueError(f"dimension mismatch: q {q.dim}, partition {partition.dim}")
    num_samples, _ = samples_per_block(params.d_kl_target, params)
    ranges = partition.ranges()
    wide = [f"[{lo}, {hi})" for lo, hi in ranges if hi - lo > params.max_block_size]
    if wide:
        raise ValueError(f"block {wide[0]} exceeds max_block_size {params.max_block_size}")
    with np.errstate(over="ignore"):
        block_kls = np.array([kl[lo:hi].sum() for lo, hi in ranges])
        avg_block_kl = float(block_kls.mean())
    if not math.isfinite(avg_block_kl):
        lo, hi = ranges[int(np.argmax(block_kls))]
        raise ValueError(f"mean block KL overflows float64: block "
                         f"[{lo}, {hi}) has {float(block_kls.max())!r} nats")
    ratio = log_ratio(q, p)
    indices = np.empty(partition.num_blocks, dtype=np.int64)
    for m, (lo, hi) in enumerate(ranges):
        shared, selector = _block_streams(key_base, m)
        indices[m] = encode_block(q, p, lo, hi, num_samples, shared, selector, ratio)
    upd = EncodedUpdate(
        avg_block_kl=avg_block_kl,
        indices=indices,
        block_lengths=partition.lengths if include_locations else None,
    )
    return upd, bit_cost(partition.num_blocks, params, include_locations)


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


def next_partition(partition: BlockPartition | None, updates: list[EncodedUpdate],
                   params: CodecParams) -> BlockPartition | None:
    """The server's partition for the next round, from this round's updates:
    after a location round (no ``partition``) the merge of the block lengths
    they shipped; otherwise the same partition, or None (a location round
    next) when :func:`should_update_partition` fires on their mean block KL."""
    if partition is None:
        shipped = [BlockPartition.from_lengths(u.block_lengths) for u in updates]
        return aggregate_block_locations(shipped, params.max_block_size)
    mean_avg_kl = float(np.mean([u.avg_block_kl for u in updates]))
    return None if should_update_partition(mean_avg_kl, params) else partition


def _field_bits(values, width: int) -> np.ndarray:
    """The bits of each value in a field width bits wide, back to back."""
    values = np.asarray(values, dtype=np.uint64).reshape(-1, 1)
    return ((values & _BIT_WEIGHTS[64 - width:]) != 0).astype(np.uint8).ravel()


def serialize_update(upd: EncodedUpdate, params: CodecParams) -> bytes:
    """Pack an update per the wire layout in the module docstring."""
    header = {"locations": int(upd.includes_locations),
              "avg_block_kl": _kl_code(upd.avg_block_kl)}
    fields = [_field_bits([header[name]], width) for name, width in _HEADER]
    fields.append(_field_bits([upd.num_blocks], _gamma_bits(upd.num_blocks)))
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
    """Inverse of :func:`serialize_update`: refuses truncated or overlong
    input, and any field the writer would refuse."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pos = 0

    def fits(width: int, count: int, start: int) -> int:
        """The end of count width-bit fields from start, if they fit."""
        end = start + width * count
        if end > bits.size:
            # the first field that does not fit starts where the whole ones end
            start += (bits.size - start) // width * width
            raise WireFormatError(
                f"truncated: needed {width} bits, {bits.size - start} left", start // 8)
        return end

    def take(width: int, count: int = 1) -> np.ndarray:
        nonlocal pos
        end = fits(width, count, pos)
        fields = bits[pos:end].reshape(count, width) @ _BIT_WEIGHTS[64 - width:]
        pos = end
        return fields

    header = {name: int(take(width)[0]) for name, width in _HEADER}
    # the Elias-gamma block count: z zero bits, then the count in z + 1 bits
    run = bits[pos:pos + 64]
    if not run.any():
        if run.size == 64:  # 2^64 blocks or more: no message is that long
            raise WireFormatError("num_blocks code has 64 or more leading zeros",
                                  pos // 8)
        fits(run.size + 1, 1, pos)  # the zeros reach the end of the message
    zeros = int(run.argmax())
    fits(2 * zeros + 1, 1, pos)  # the whole code, refused from where it starts
    pos += zeros
    num_blocks = int(take(zeros + 1)[0])
    # the whole body must fit before any of it is read: the count can be
    # near 2^64 when the length fields are zero bits wide
    length_bits = params.length_field_bits if header["locations"] else 0
    fits(params.index_bits, num_blocks, fits(length_bits, num_blocks, pos))
    lengths: tuple[int, ...] | None = None
    if header["locations"]:
        start = pos
        values = take(length_bits, num_blocks) + 1
        bad = np.flatnonzero(values > params.max_block_size)
        if bad.size:
            raise WireFormatError(
                f"block length {values[bad[0]]} outside [1, {params.max_block_size}]",
                (start + int(bad[0]) * length_bits) // 8)
        lengths = tuple(values.tolist())
    indices = take(params.index_bits, num_blocks).astype(np.int64)
    expected_bytes = (pos + 7) // 8
    if len(data) != expected_bytes:
        raise WireFormatError(
            f"overlong: message is {expected_bytes} bytes, got {len(data)}",
            expected_bytes,
        )
    return EncodedUpdate(
        avg_block_kl=_kl_of_code(header["avg_block_kl"]),
        indices=indices,
        block_lengths=lengths,
    )
