"""Shared-seed codec: ordered random coding over candidates drawn from p.

A client holding a local posterior q and the broadcast global prior p sends a
parameter vector by (1) cutting coordinates into blocks of bounded KL, (2)
regenerating, per block, K pseudo-random candidates from p using a stream whose
key both sides can derive, (3) picking one candidate by ordered random coding,
and (4) transmitting only the candidate's index.  The decoder derives the same
key and regenerates only the indexed candidate: the stream is counter based,
so it skips the rows before it without computing them.  The bit cost therefore
tracks the KL between the posteriors instead of the raw parameter width.

Ordered random coding is Li & El Gamal's Poisson functional representation
truncated to K candidates (Theis & Yosri, ICML 2022).  The encoder gives the
candidates increasing arrival times T_1 < ... < T_K, running sums of Exp(1)
draws from its own selector stream, and picks n = argmax (log w_n - log T_n),
where w is the importance weight q/p.  Scaling every w by one constant moves
no pick, so the weights are never normalized.  When q is near p the weights
are near equal, so early candidates win and small indices are likely; each
index is sent as the Elias-gamma code of n + 1, and costs about the block's
KL in bits rather than log2 K.

The encoder's log importance weights are affine in the candidate and its
square (see :func:`fedklms.distributions.log_ratio`).  They are computed from
coefficients built once per message, one tile of candidates at a time.  A
tile holds at most ``ENCODE_CHUNK_FLOATS`` values (256 KiB of float64) or
four rows, so it stays in cache while it is drawn and weighed.  The arrival
times come in chunks of at most as many values, each a whole number of
tiles, and each chunk's scores yield one running best.  So encode memory is
one tile and one chunk, however wide the block and however large K.  The
encoder keeps no candidate past its tile and returns only the index: the
selected row exists once the decoder regenerates it.

Each block draws its own candidate count, K_m = min(K, 2^ceil((KL_m + sigma_m
+ r) / ln 2)) (:func:`block_samples`), where KL_m is the block's KL and
sigma_m the standard deviation under q of its log q/p.  About exp(KL + a few
sigma) samples cover a block (Chatterjee & Diaconis, "The sample size
required in importance sampling", 2018), and a pick among the first K_m
candidates is the pick of a longer run whenever that run's winner is among
them, because the first K_m candidates and arrival times are prefixes of the
longer run's.  The session K = 2^ceil((d_kl_target + r) / ln 2) caps K_m and
is the bound the parser holds every index to; K_m is never sent, since the
decoder regenerates only the indexed row.  The scalar study
(:mod:`fedklms.toy`) holds the paper's importance sampler itself, and takes
only its K from :func:`samples_per_block`.

The block partition's lifecycle: a round without a shared partition, such as
the first, is a location round.  There :func:`transmit`, given no partition,
has each client cut its own blocks from its per-coordinate KL and ship their
lengths.  :func:`next_partition` then adopts one of the partitions that
crossed the wire as the shared one: that of the client whose block count is
the upper median.  On ordinary rounds each message says only which side of
the band [d_kl_target / 2, 2 * d_kl_target] its client's mean block KL lies
on.  The codec derives that band from the target; it is not a parameter.
The server drops the partition only when more than half of the round's
messages lie strictly outside the band on one side and a re-cut could
change the partition: below the band only if it has blocks to merge, above
it only if it has a block to split.  A dropped partition makes the next
round a location round again; a one-block partition below the band is
kept, so while a model's whole KL stays under the target it ships its
locations on the first round only.

The wire layout is bit-packed, MSB first within bytes, zero-padded to a
byte.  Its one statement is the list of fields that :func:`_wire_fields`
gives for an update: a kind code, the Elias-gamma block count, then on
location rounds one fixed-width length field per block, then one
Elias-gamma index code per block.  :func:`serialize_update` packs that
list, and :func:`bit_cost` sums it, so the wire length equals the
accounting.

The kind code is a prefix code over the four kinds of message: 0 for a mean
block KL below the band, 10 inside it, 110 above it and 111 for a location
message.  Every bit string starts with exactly one of the four.  The client
takes its symbol from the exact mean block KL it computes for its blocks;
a KL equal to an edge of the band is inside.  A location message carries
no KL at all, because the round after it only reads the shipped lengths.
So no KL value crosses the wire: a report of the clients' KL (the
simulator's mean_kl_per_param) reads each client's own figure,
:attr:`EncodedUpdate.avg_block_kl`, which the parser leaves as None.

The reader mirrors that list: it unpacks the whole message into one bit array,
reads each fixed-width field as the dot product of its bits with their
weights, and reads the block count and the index codes with one Elias-gamma
reader, whose one pass over the 1 bits records each code's start as it meets
the code's leading 1.  Before it reads any block field it checks that the
length fields and at least one bit per index fit, and it refuses a block
length above max_block_size, an index of K or more and a code the message cuts
short, at the byte where the field starts, so every message it accepts is one
the writer writes, up to the pad bits, which it does not read.

K (from d_kl_target and overhead_r) and max_block_size are session constants
carried in :class:`CodecParams`, never in-band.  Neither are the round and the
client: the receiver derives the message's stream key from both, so it
already knows them, and a message read under another key decodes to other
candidates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .distributions import (ENCODE_CHUNK_FLOATS, LogRatio, ProductDistribution,
                            _check_coordinates, _is_integer, kl_spread_and_ratio, log_ratio)
from .streams import SampleStream, StreamKey, derive_stream

_LN2 = math.log(2.0)
_TINY = np.finfo(np.float64).tiny

# widest index or length field the wire handles: fields are read as uint64,
# and the writer takes block lengths as int64
_MAX_FIELD_BITS = 63

# the weight of each bit of a wire field, 2^63 ... 2^0; a w-bit field is the
# dot product of its bits with the last w of them
_BIT_WEIGHTS = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
_POWERS_OF_TWO = _BIT_WEIGHTS[::-1].copy()  # 2^0 ... 2^63, for searchsorted
# the most fields the writer shifts into one Python integer; a message with
# more is packed into 64-bit words by numpy
_FEW_FIELDS = 64

# which side of the band [d_kl_target / 2, 2 * d_kl_target] a message's mean
# block KL lies on; a location message (band None) carries none
BANDS = ("below", "inside", "above")
# (value, width) of each kind's code, in the order of _KINDS: the kind's
# place in that order as that many 1s, then a 0 for all but the last
_KINDS = (*BANDS, None)
_KIND_CODES = ((0b0, 1), (0b10, 2), (0b110, 3), (0b111, 3))

# stream role labels; both sides must derive identical keys
_BLOCK_TAG = "block"
_SHARED_TAG = "shared"
_SELECT_TAG = "select"


def index_fields_too_wide(nats: float) -> str:
    """Why a sample budget of ``nats`` (a KL plus overhead_r) needs index
    fields wider than the wire's 63 bits, as "<nats> nats, which needs ...",
    or "" if it fits."""
    if nats / _LN2 <= _MAX_FIELD_BITS:  # the quotient samples_per_block rounds up
        return ""
    return (f"{nats} nats, which needs index fields wider than {_MAX_FIELD_BITS} bits; "
            f"at most {_MAX_FIELD_BITS} ln 2 = {_MAX_FIELD_BITS * _LN2:.4f} nats fit")


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

    def __post_init__(self) -> None:
        if not self.d_kl_target > 0:
            raise ValueError(f"d_kl_target must be positive: {self.d_kl_target}")
        if not self.overhead_r >= 0:
            raise ValueError(f"overhead_r must be nonnegative: {self.overhead_r}")
        if (not _is_integer(self.max_block_size)
                or not 1 <= self.max_block_size < 1 << _MAX_FIELD_BITS):
            raise ValueError(f"max_block_size must be an integer in [1, 2^{_MAX_FIELD_BITS} - 1]: "
                             f"{self.max_block_size!r}")
        object.__setattr__(self, "max_block_size", int(self.max_block_size))  # numpy ints too
        too_wide = index_fields_too_wide(self.d_kl_target + self.overhead_r)
        if too_wide:
            raise ValueError(f"d_kl_target + overhead_r is {too_wide}")

    @property
    def index_bits(self) -> int:
        """log2 K for the session K of d_kl_target + overhead_r: the most
        candidates any block draws (:func:`block_samples`) and the bound the
        parser holds every index to.  An index's Elias-gamma code has at most
        2 index_bits + 1 bits."""
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


@dataclass
class EncodedUpdate:
    """One client-to-server message before/after serialization.

    A message without ``block_lengths`` has a ``band``, one of
    :data:`BANDS`; a location message has none.  ``avg_block_kl`` is the
    client's exact mean block KL in nats, as :func:`encode_update` computed
    it.  It is not sent, so a parsed update has None there.
    """

    indices: np.ndarray  # one candidate index per block
    block_lengths: tuple[int, ...] | None = None  # shipped on location rounds
    band: str | None = None
    avg_block_kl: float | None = None

    def __post_init__(self) -> None:
        kl = self.avg_block_kl
        if kl is not None and not (math.isfinite(kl) and kl >= 0.0):
            raise ValueError(f"avg_block_kl must be finite and nonnegative: {kl!r}")
        # indices: types and sign only; serialize_update checks each against K
        indices = np.asarray(self.indices)
        if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"indices must be a 1-D integer array: {self.indices!r}")
        self.indices = indices.astype(np.int64, copy=False)
        if (self.indices < 0).any():  # bit_cost prices index n as the code of n + 1
            raise ValueError(f"index {self.indices.min()} is negative")
        if self.indices.size == 0:
            # a partition has at least one block, and the gamma code of
            # num_blocks has no word for zero
            raise ValueError("an update carries at least one block index")
        lengths = self.block_lengths
        if lengths is not None:
            if len(lengths) != self.num_blocks or not all(map(_is_integer, lengths)):
                raise ValueError(f"block_lengths needs one integer length per index: "
                                 f"{lengths!r}")
            # the writer takes lengths as int64; serialize_update bounds them
            # by max_block_size
            low, high = min(lengths), max(lengths)
            if low < 1 or high >= 1 << _MAX_FIELD_BITS:
                raise ValueError(f"block length {low if low < 1 else high} outside "
                                 f"[1, 2^{_MAX_FIELD_BITS} - 1]")
            if self.band is not None:
                raise ValueError(f"a location message carries no band: {self.band!r}")
        elif self.band not in BANDS:
            raise ValueError(f"a message without block lengths needs a band, one of "
                             f"{', '.join(BANDS)}: {self.band!r}")

    @property
    def num_blocks(self) -> int:
        return len(self.indices)

    @property
    def includes_locations(self) -> bool:
        return self.block_lengths is not None


@dataclass(frozen=True)
class BitCost:
    """Exact bit accounting for one message: :func:`bit_cost` sums its wire
    fields into these parts."""

    payload_bits: int
    location_bits: int
    header_bits: int

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.location_bits + self.header_bits


def samples_per_block(block_kl: float, params: CodecParams) -> tuple[int, int]:
    """(K, bits) for a block of the given KL (nats).

    bits = ceil((block_kl + overhead_r) / ln 2), at least 1; K = 2**bits.
    """
    if block_kl < 0:
        raise ValueError(f"block KL must be nonnegative: {block_kl}")
    bits = max(1, math.ceil((block_kl + params.overhead_r) / _LN2))
    return 2**bits, bits


def block_samples(block_kl: float, spread: float, params: CodecParams) -> int:
    """The encoder's candidate count for one block: 2^ceil((KL + spread + r) /
    ln 2), at least 2, and at most the session K = 2^index_bits.

    ``spread`` is the standard deviation under q of the block's log q/p.  The
    exponent is compared with index_bits before any power is formed, so a
    huge or infinite KL or spread gives K, not a huge integer or an error."""
    bits = (block_kl + spread + params.overhead_r) / _LN2
    if not bits < params.index_bits:
        return 1 << params.index_bits
    return 1 << max(1, math.ceil(bits))


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


def aggregate_block_locations(partitions: list[BlockPartition]) -> BlockPartition:
    """The shipped partition whose block count is the upper median: the one
    at position n // 2 once the n partitions are stably sorted by block
    count, so ties keep the clients' order.

    Each partition already covers [0, dim) in blocks the parser bounded to
    [1, max_block_size], so the choice needs no repair.  A client that cut
    fewer blocks tends to lie below the band under the chosen partition, and
    one that cut more above it.  At most n // 2 clients cut fewer and at
    most ceil(n / 2) - 1 cut more, so neither group alone is the strict
    majority that drops a partition (:func:`next_partition`).
    """
    if not partitions:
        raise ValueError("need at least one client partition")
    dim = partitions[0].dim
    if any(p.dim != dim for p in partitions):
        raise ValueError(f"partitions disagree on dimension: {[p.dim for p in partitions]}")
    return sorted(partitions, key=lambda p: p.num_blocks)[len(partitions) // 2]


def selection_weights(
    q: ProductDistribution,
    p: ProductDistribution,
    lo: int,
    hi: int,
    candidates: np.ndarray,
) -> np.ndarray:
    """Normalized importance weights q/p over a K x (hi-lo) candidate matrix
    drawn from p: the max-shifted softmax of their log ratios, so extreme
    ratios stay finite.  Refuses a block whose candidates all miss q's
    support, where no normalization exists.

    These are the weights of the tests' reference pick; no program path
    calls this function, since :func:`encode_block` never normalizes.  It
    stays in this module only because ``perfbench/spans.py`` binds it by name,
    which ``tests/test_perfbench_contract.py`` guards; it moves to
    ``tests/reference.py`` once the benchmark's ESS/K hook wraps something
    else.
    """
    log_w = log_ratio(q, p).block(lo, hi)(candidates)
    top = np.max(log_w)
    if top == -np.inf:
        raise ValueError(f"all candidates for block [{lo}, {hi}) have zero client mass")
    weights = np.exp(log_w - top)
    return weights / weights.sum()


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
    """Pick one of num_samples candidates drawn from p by ordered random
    coding: n = argmax (log w_n - log T_n) over log importance weights
    log w = log q/p and increasing arrival times T (see the module
    docstring).  A block whose candidates all miss q's support scores -inf
    everywhere, so it picks index 0, the ordered pick under equal weights,
    whose candidate is a draw from p.

    Returns the index, the only thing the message carries: the decoder
    regenerates its row with :func:`decode_block`.  The shared stream is
    consumed identically by both sides; the selector stream is client-only
    randomness, num_samples uniforms of it.
    """
    if num_samples < 1:
        raise ValueError(f"need at least one candidate: {num_samples}")
    weigh = (log_ratio(q, p) if ratio is None else ratio).block(lo, hi)
    # A tile of candidates holds at most ENCODE_CHUNK_FLOATS values, or four
    # rows, and its rows are a multiple of 4.  An even count keeps Gaussian
    # pairs and the two halves of a Bernoulli word from straddling two tiles.
    # A multiple of 4 also keeps the log-weights bit for bit: with OpenBLAS
    # 0.3.31 (Haswell kernels), the matrix-vector product of tiles of 4, 8,
    # 12 or 64 rows equals the whole product, where tiles of 2, 6 or 14 rows
    # differ in the last bits (the selections survive even that).  A chunk
    # of arrival times and scores holds at most as many values, in whole
    # tiles, and at least one tile.
    tile = max(4, ENCODE_CHUNK_FLOATS // (hi - lo) // 4 * 4)
    chunk = max(1, ENCODE_CHUNK_FLOATS // tile) * tile
    best, pick, clock = -np.inf, 0, 0.0
    for start in range(0, num_samples, chunk):
        # arrival times of a unit-rate Poisson process, one per candidate in
        # order; the clock carried into the first gap makes them the sums of
        # one whole cumsum, bit for bit
        gaps = -np.log1p(-selector_stream.uniforms(min(chunk, num_samples - start)))
        gaps[0] += clock
        arrivals = np.cumsum(gaps)
        clock = arrivals[-1]
        # the first time is 0 only for a uniform of exactly 0, which the
        # floor turns into a large score; adding log w to -log T is exactly
        # subtracting log T from it
        scores = -np.log(np.maximum(arrivals, _TINY))
        for at in range(0, scores.size, tile):
            part = scores[at:at + tile]
            part += weigh(p.sample(lo, hi, shared_stream, count=part.size))
        j = int(np.argmax(scores))
        if scores[j] > best:  # a later chunk wins only outright, as in one argmax
            best, pick = scores[j], start + j
    return pick


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
    (:func:`split_blocks_adaptive`) and must ship their lengths;
    :func:`transmit`, the round trip, includes them exactly then.  Each block
    draws :func:`block_samples` of its own KL and spread; a block whose
    candidates all miss q's support sends index 0 (:func:`encode_block`).

    key_base must identify (round, client) uniquely; the per-block stream keys
    are derived from it, so the stream for block m never depends on how other
    blocks were processed.  ``round_index`` and ``client_id`` name that
    message; they are neither stored in the update nor sent, because the
    receiver knows both (it derives the same key).

    The update holds the mean block KL, and a message without locations
    also its band: "below" d_kl_target / 2, "above" 2 * d_kl_target, or
    "inside" (a KL equal to an edge is inside).
    """
    if partition is None and not include_locations:
        raise ValueError("an update without a partition must include its locations")
    # refuses a q and p of different dimensions
    kl, variance, ratio = kl_spread_and_ratio(q, p)
    partition = partition or split_blocks_adaptive(kl, params)
    if partition.dim != q.dim:
        raise ValueError(f"dimension mismatch: q {q.dim}, partition {partition.dim}")
    ranges = partition.ranges()
    wide = [f"[{lo}, {hi})" for lo, hi in ranges if hi - lo > params.max_block_size]
    if wide:
        raise ValueError(f"block {wide[0]} exceeds max_block_size {params.max_block_size}")
    with np.errstate(over="ignore"):
        block_kls = np.array([kl[lo:hi].sum() for lo, hi in ranges])
        avg_block_kl = float(block_kls.mean())
        spreads = np.sqrt([variance[lo:hi].sum() for lo, hi in ranges])
    if not math.isfinite(avg_block_kl):
        lo, hi = ranges[int(np.argmax(block_kls))]
        raise ValueError(f"mean block KL overflows float64: block "
                         f"[{lo}, {hi}) has {float(block_kls.max())!r} nats")
    indices = np.empty(partition.num_blocks, dtype=np.int64)
    for m, ((lo, hi), block_kl, spread) in enumerate(zip(ranges, block_kls.tolist(),
                                                         spreads.tolist())):
        shared, selector = _block_streams(key_base, m)
        num_samples = block_samples(block_kl, spread, params)
        indices[m] = encode_block(q, p, lo, hi, num_samples, shared, selector, ratio)
    if include_locations:
        band = None
    elif avg_block_kl < params.d_kl_target / 2.0:
        band = "below"
    elif avg_block_kl > params.d_kl_target * 2.0:
        band = "above"
    else:
        band = "inside"
    upd = EncodedUpdate(
        indices=indices,
        block_lengths=partition.lengths if include_locations else None,
        band=band,
        avg_block_kl=avg_block_kl,
    )
    return upd, bit_cost(upd, params)


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
    num_samples = 1 << params.index_bits
    out = np.empty(p.dim)
    for m, (lo, hi) in enumerate(partition.ranges()):
        # only the shared stream: the selector is the encoder's alone
        shared = derive_stream(key_base.child(_BLOCK_TAG, m).child(_SHARED_TAG))
        out[lo:hi] = decode_block(p, lo, hi, num_samples, shared, int(upd.indices[m]))
    return out


def transmit(
    q: ProductDistribution,
    p: ProductDistribution,
    partition: BlockPartition | None,
    params: CodecParams,
    key_base: StreamKey,
    round_index: int,
    client_id: int,
) -> tuple[np.ndarray, EncodedUpdate, BitCost, float]:
    """One message end to end: encode (a location message when there is no
    ``partition``), serialize, refuse a wire whose length is not the bit
    accounting's, parse, and decode under the same partition.  Returns the
    decoded vector, the parsed update (what :func:`next_partition` reads),
    its :class:`BitCost` and the client's own KL in nats, which is not sent."""
    upd, cost = encode_update(q, p, partition, params, key_base, round_index, client_id,
                              include_locations=partition is None)
    blob = serialize_update(upd, params)
    if len(blob) != (cost.total_bits + 7) // 8:
        raise ValueError(f"wire is {len(blob)} bytes, bit accounting says "
                         f"{cost.total_bits} bits")
    received = deserialize_update(blob, params)
    decoded = decode_update(p, partition, params, key_base, received)
    return decoded, received, cost, upd.avg_block_kl * upd.num_blocks


def next_partition(partition: BlockPartition | None,
                   updates: list[EncodedUpdate]) -> BlockPartition | None:
    """The server's partition for the next round, from this round's updates:
    after a location round (no ``partition``) the blocks the upper-median
    client shipped (:func:`aggregate_block_locations`); otherwise the same
    partition, or None (a location round next) when a re-cut could change
    it: more than half of the updates lie below the band and the partition
    has blocks to merge, or more than half lie above it and it has a block
    to split.  An exact half keeps it."""
    if partition is None:
        return aggregate_block_locations(
            [BlockPartition.from_lengths(u.block_lengths) for u in updates])
    bands = [u.band for u in updates]
    merge = 2 * bands.count("below") > len(bands) and partition.num_blocks > 1
    # fewer blocks than coordinates: some block is wider than one
    split = 2 * bands.count("above") > len(bands) and partition.num_blocks < partition.dim
    return None if merge or split else partition


def gamma_widths(values: np.ndarray) -> np.ndarray:
    """The Elias-gamma code length of each uint64 value v >= 1, its
    floor(log2 v) leading zeros included: 2 floor(log2 v) + 1 bits.
    :func:`_wire_fields` prices the index codes by this one rule, and
    :func:`fedklms.methods.elias_gamma_bits` the QSGD baseline's levels."""
    return 2 * np.searchsorted(_POWERS_OF_TWO, values, side="right") - 1


def _pack(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of uint64 fields back to back, MSB first and zero-padded:
    field i ends at bit ends[i], its value's bits end it, and zeros fill the
    rest."""
    total = int(ends[-1])
    if values.size <= _FEW_FIELDS:
        message, at = 0, 0
        for value, end in zip(values.tolist(), ends.tolist()):
            message, at = message << (end - at) | value, end
        return (message << (-total % 8)).to_bytes((total + 7) // 8, "big")
    # Each value is shifted into the 64-bit word that holds its field's last
    # bit, and what the shift pushes out goes into the word before: a value
    # has at most 64 bits, so at most 63 of them spill.  The array has a
    # word more than the message, where the fields of word 0 spill nothing.
    words = np.zeros(total // 64 + 2, dtype=np.uint64)
    last = (ends - 1) >> 6
    shift = ((last + 1) * 64 - ends).astype(np.uint64)  # 0 to 63 bits after the field
    np.bitwise_or.at(words, last, values << shift)
    np.bitwise_or.at(words, last - 1, values >> (np.uint64(63) - shift) >> np.uint64(1))
    return words.astype(">u8").tobytes()[:(total + 7) // 8]


def _wire_fields(upd: EncodedUpdate,
                 params: CodecParams) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """The update's wire fields in order: their uint64 values, the bit at
    which each field ends, and the positions of the first location field and
    the first index field in that order.  The fields before them are the
    header and count toward :attr:`BitCost.header_bits`, those between them
    toward location_bits, the rest toward payload_bits.

    A value v >= 1 in a field of 2 floor(log2 v) + 1 bits is its Elias-gamma
    code: the field's floor(log2 v) leading zeros come before v's leading 1.
    The header is the kind code (1 bit below the band, 2 inside, 3 above or
    for a location message) and the gamma code of the block count n >= 1:
    an ordinary one-block message below the band has a 2-bit header.
    Location messages then send the n block lengths, each as length - 1, and
    every message ends with the gamma codes of its n indices plus 1: 1 bit
    for index 0, 3 bits for 1-2, 5 bits for 3-6.
    """
    n = upd.num_blocks
    body = 2 + (n if upd.includes_locations else 0)
    values = np.empty(body + n, dtype=np.uint64)
    widths = np.empty(body + n, dtype=np.int64)
    values[0], widths[0] = _KIND_CODES[_KINDS.index(upd.band)]
    values[1], widths[1] = n, 2 * n.bit_length() - 1
    if upd.includes_locations:
        values[2:body] = upd.block_lengths
        values[2:body] -= np.uint64(1)
        widths[2:body] = params.length_field_bits
    codes = values[body:]
    codes[:] = upd.indices
    codes += np.uint64(1)
    widths[body:] = gamma_widths(codes)
    return values, np.cumsum(widths), (2, body)


def bit_cost(upd: EncodedUpdate, params: CodecParams) -> BitCost:
    """The bits of the update's wire fields, summed per part; only
    :func:`encode_update` calls it, once per message (perfbench sums every call)."""
    _, ends, (located, body) = _wire_fields(upd, params)
    header, before_payload = int(ends[located - 1]), int(ends[body - 1])
    return BitCost(payload_bits=int(ends[-1]) - before_payload,
                   location_bits=before_payload - header, header_bits=header)


def serialize_update(upd: EncodedUpdate, params: CodecParams) -> bytes:
    """Pack an update's wire fields (:func:`_wire_fields`) once each block
    length is checked to fit its field and each index to be below K."""
    values, ends, (located, body) = _wire_fields(upd, params)
    if upd.includes_locations:
        # each field holds length - 1; a length below 1 wraps above any bound
        over = np.flatnonzero(values[located:body] >= params.max_block_size)
        if over.size:
            raise ValueError(f"block length {upd.block_lengths[over[0]]} outside "
                             f"[1, {params.max_block_size}]")
    num_samples = 1 << params.index_bits
    if upd.indices.min() < 0 or upd.indices.max() >= num_samples:
        bad = upd.indices[(upd.indices < 0) | (upd.indices >= num_samples)][0]
        raise ValueError(f"index {bad} out of range for {num_samples} candidates")
    return _pack(values, ends)


def deserialize_update(data: bytes, params: CodecParams) -> EncodedUpdate:
    """Inverse of :func:`serialize_update`: refuses truncated or overlong
    input, and any field the writer would refuse."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))

    def fits(width: int, count: int, start: int) -> int:
        """The end of count width-bit fields from start, if they fit."""
        end = start + width * count
        if end > bits.size:
            # the first field that does not fit starts where the whole ones end
            start += (bits.size - start) // width * width
            raise WireFormatError(
                f"truncated: needed {width} bits, {bits.size - start} left", start // 8)
        return end

    def gamma(count: int, limit: int, name: str) -> list[int]:
        """count Elias-gamma codes from pos, each of a value in [1, limit]:
        z zero bits, then the value in z + 1 bits.  A code whose zero run is
        too long for limit, that the message cuts short or whose value is
        above limit is refused at the byte where it starts."""
        nonlocal pos
        longest = limit.bit_length() - 1  # the longest zero run of a value <= limit
        left = bits.size - pos
        # A code's leading 1 is the first 1 from its start, and the code ends
        # as many bits after that 1 as it starts before it.  So one pass over
        # the 1s from pos reads the codes: a 1 before the end of the code so
        # far is one of its value bits, and any other leads the next code.
        # count codes within limit span at most 2 longest + 1 bits each, so
        # no later 1 is needed, and a 1 just past the message leads a code
        # whose zero run reaches its end: only the last code read can be cut.
        ones = bits[pos:pos + count * (2 * longest + 1)].view(bool).nonzero()[0].tolist()
        ones.append(left)
        # the values of the codes read, where each starts from pos, and where
        # the last one ends
        values, starts, end = [], [], 0
        for one in ones:
            if one < end:
                values[-1] |= 1 << (end - 1 - one)
            else:
                starts.append(end)
                values.append(1 << (one - end))
                end = 2 * one + 1 - end
        # keep the first count codes; starts then ends where the last one does
        starts.append(end)
        del values[count:], starts[count + 1:]
        end = starts[-1]
        if max(values) > limit or end > left:
            # the first code above limit, or else the last, which may be cut
            last = len(values) - 1
            i = next((i for i, value in enumerate(values) if value > limit), last)
            start = starts[i]
            if values[i].bit_length() - 1 > longest:
                raise WireFormatError(f"{name} code has {longest + 1} or more leading zeros",
                                      (pos + start) // 8)
            if i == last and end > left:
                raise WireFormatError(f"truncated: needed {end - start} bits, "
                                      f"{left - start} left", (pos + start) // 8)
            raise WireFormatError(f"{name} code {values[i]} out of range [1, {limit}]",
                                  (pos + start) // 8)
        pos += end
        return values

    # the kind code: as many 1s as the kind's place in _KINDS, ended by a 0,
    # or the last kind's three 1s
    lead = bits[:3].tolist()
    kind = lead.index(0) if 0 in lead else len(lead)
    pos = fits(_KIND_CODES[kind][1], 1, 0)
    band = _KINDS[kind]
    locations = band is None
    num_blocks = gamma(1, (1 << 64) - 1, "num_blocks")[0]
    # the length fields and at least one bit per index code must fit before
    # any of them is read: the count can be near 2^64
    length_bits = params.length_field_bits if locations else 0
    body = fits(length_bits, num_blocks, pos)
    if bits.size - body < num_blocks:
        raise WireFormatError(f"truncated: {num_blocks} index codes need at least "
                              f"{num_blocks} bits, {bits.size - body} left", body // 8)
    lengths: tuple[int, ...] | None = None
    if locations:
        values = (bits[pos:body].reshape(num_blocks, length_bits)
                  @ _BIT_WEIGHTS[64 - length_bits:]) + 1
        bad = np.flatnonzero(values > params.max_block_size)
        if bad.size:
            raise WireFormatError(
                f"block length {values[bad[0]]} outside [1, {params.max_block_size}]",
                (pos + int(bad[0]) * length_bits) // 8)
        lengths = tuple(values.tolist())
        pos = body
    # each index n < K is sent as the gamma code of n + 1
    codes = np.array(gamma(num_blocks, 1 << params.index_bits, "index"), dtype=np.uint64)
    indices = (codes - np.uint64(1)).astype(np.int64)
    expected_bytes = (pos + 7) // 8
    if len(data) != expected_bytes:
        raise WireFormatError(
            f"overlong: message is {expected_bytes} bytes, got {len(data)}",
            expected_bytes,
        )
    return EncodedUpdate(indices=indices, block_lengths=lengths, band=band)
