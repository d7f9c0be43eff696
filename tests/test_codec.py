"""Codec oracles: sample budgets, partitioning, round trips, wire format.

Frozen values were worked out by hand from the budget rule
bits = ceil((kl + r)/ln 2), K = 2^bits, the encoder's per-block count
min(K, 2^ceil((kl + spread + r)/ln 2)), and the wire layout (header: the kind
code, 0 below the KL band, 10 inside it, 110 above it and 111 for a location
message, and the Elias-gamma block count; then the block lengths on location
rounds, and the Elias-gamma code of each index plus 1).
"""

import dataclasses
import hashlib
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedklms import codec, toy
from fedklms.codec import (
    BitCost,
    BlockPartition,
    CodecParams,
    EncodedUpdate,
    WireFormatError,
    aggregate_block_locations,
    bit_cost,
    block_samples,
    decode_block,
    decode_update,
    deserialize_update,
    encode_block,
    encode_update,
    next_partition,
    samples_per_block,
    selection_weights,
    serialize_update,
    split_blocks_adaptive,
    split_blocks_fixed,
)
from fedklms.config import ToyConfig
from fedklms.distributions import (
    BernoulliVector,
    BinarySign,
    DiagonalGaussian,
    TernaryPattern,
    UniformSign,
    kl_per_coordinate,
    log_ratio,
)
from fedklms.streams import SampleStream, StreamKey, derive_stream
from reference import gamma_codes, split_starts


def params_with(target=1.0, r=0.0, max_block=1024, kl_min=0.0, kl_max=math.inf):
    return CodecParams(
        d_kl_target=target,
        overhead_r=r,
        max_block_size=max_block,
        kl_min_threshold=kl_min,
        kl_max_threshold=kl_max,
    )


# --- sample budgets ---------------------------------------------------------


def test_samples_per_block_frozen():
    p = params_with()
    assert samples_per_block(0.0, p) == (2, 1)
    assert samples_per_block(math.log(2.0), p) == (2, 1)
    assert samples_per_block(2.0, params_with(r=1.0)) == (32, 5)


def test_samples_per_block_monotone():
    p = params_with()
    prev = 0
    for kl in np.linspace(0.0, 12.0, 40):
        k, bits = samples_per_block(float(kl), p)
        assert k == 2**bits
        assert bits >= prev
        prev = bits


def test_block_samples_frozen():
    p = params_with(target=3.0, r=2.0)  # session K = 2^ceil(5 / ln 2) = 256
    assert block_samples(0.0, 0.0, params_with()) == 2  # at least one bit
    assert block_samples(0.45, 0.3, p) == 16  # 3.97 bits
    assert block_samples(0.0, 0.0, p) == 8  # 2.89 bits
    assert block_samples(3.0, 1.0, p) == 256  # 8.66 bits, capped at 8
    # the exponent is compared with index_bits before any power is formed
    assert block_samples(5e307, 1e154, p) == 256
    assert block_samples(math.inf, math.inf, p) == 256


@pytest.mark.parametrize("distances, width, counts", [
    # KL d^2 / 2 and spread d per one-coordinate block; with r = 1:
    # (0 + 0 + 1) / ln 2 = 1.44 bits, 2.34, 3.61 and 7.21, capped at 6
    pytest.param((0.0, 0.5, 1.0, 2.0), 1, [4, 8, 16, 64], id="one-coordinate-blocks"),
    # one block of KL 5e307 nats and spread 1e154
    pytest.param((0.0, 1e154), 2, [64], id="5e307-nats"),
    # one block of KL 1.21e308 nats, whose variance 2 KL overflows: spread inf
    pytest.param((1.1e154, 1.1e154), 2, [64], id="infinite-spread"),
])
def test_each_block_draws_its_own_count(distances, width, counts, monkeypatch):
    drawn = []
    block = codec.encode_block

    def spy(q, p, lo, hi, num_samples, *streams):
        drawn.append(num_samples)
        return block(q, p, lo, hi, num_samples, *streams)

    monkeypatch.setattr(codec, "encode_block", spy)
    params = params_with(target=3.0, r=1.0)  # session K = 2^ceil(4 / ln 2) = 64
    upd, _ = _gaussian_update(*distances, params=params, width=width)
    assert drawn == counts
    assert serialize_update(upd, params)  # every index is below the session K


# --- partitioning -----------------------------------------------------------


def test_split_adaptive_frozen():
    kl = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    part = split_blocks_adaptive(kl, params_with(target=0.3, max_block=100))
    assert part.starts == (0, 2, 3)

    part = split_blocks_adaptive(np.zeros(10), params_with(target=0.3, max_block=4))
    assert part.starts == (0, 4, 8)

    part = split_blocks_adaptive(np.array([5.0]), params_with(target=0.3, max_block=100))
    assert part.starts == (0,)


def test_split_fixed_frozen():
    assert split_blocks_fixed(10, 4).starts == (0, 4, 8)
    assert split_blocks_fixed(8, 8).starts == (0,)
    assert split_blocks_fixed(1, 100).starts == (0,)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 200),
    st.floats(0.05, 3.0),
    st.integers(1, 64),
)
def test_split_adaptive_invariants(seed, dim, target, max_block):
    rng = np.random.default_rng(seed)
    kl = rng.exponential(0.1, dim)
    part = split_blocks_adaptive(kl, params_with(target=target, max_block=max_block))
    assert part.dim == dim
    assert part.starts[0] == 0
    lengths = part.lengths
    assert all(1 <= ln <= max_block for ln in lengths)
    assert sum(lengths) == dim
    # every block except the last closed for a reason
    for (lo, hi), ln in zip(part.ranges()[:-1], lengths[:-1]):
        assert kl[lo:hi].sum() >= target or ln == max_block


# KL values whose sums are exact, so running totals land on the target
_EXACT_KL = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0, 3.0])


@settings(max_examples=300)
@given(
    st.lists(st.one_of(_EXACT_KL, st.floats(0.0, 2.0)), min_size=1, max_size=300),
    st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(0.01, 10.0)),
    st.integers(1, 320),
)
def test_split_adaptive_equals_running_total(kl, target, max_block):
    kl = np.array(kl)
    part = split_blocks_adaptive(kl, params_with(target=target, max_block=max_block))
    assert part.starts == split_starts(kl, target, max_block)


def test_aggregate_frozen():
    a = BlockPartition(dim=40, starts=(0, 10, 20))
    b = BlockPartition(dim=40, starts=(0, 12, 24, 30))
    merged = aggregate_block_locations([a, b], max_block_size=40)
    assert merged.starts == (0, 11, 22, 30)


def test_aggregate_single_client_identity():
    a = BlockPartition(dim=16, starts=(0, 3, 9))
    assert aggregate_block_locations([a], max_block_size=16).starts == (0, 3, 9)


def test_aggregate_identical_clients_identity():
    a = BlockPartition(dim=16, starts=(0, 5, 11))
    assert aggregate_block_locations([a, a, a], max_block_size=16).starts == (0, 5, 11)


def test_aggregate_enforces_cap():
    a = BlockPartition(dim=30, starts=(0,))
    merged = aggregate_block_locations([a], max_block_size=8)
    assert merged.starts == (0, 8, 16, 24)
    assert max(merged.lengths) <= 8


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 80))
def test_aggregate_fuzz(seed, num_clients, dim):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(num_clients):
        cuts = np.flatnonzero(rng.random(dim - 1) < 0.3) + 1 if dim > 1 else []
        parts.append(BlockPartition(dim=dim, starts=(0, *map(int, cuts))))
    cap = int(rng.integers(1, dim + 1))
    merged = aggregate_block_locations(parts, max_block_size=cap)
    # validity is enforced by the constructor; re-check the cap
    assert merged.dim == dim
    assert max(merged.lengths) <= cap


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(dim=4, starts=(1, 2))
    with pytest.raises(ValueError):
        BlockPartition(dim=4, starts=(0, 2, 2))
    with pytest.raises(ValueError):
        BlockPartition(dim=4, starts=(0, 4))
    with pytest.raises(ValueError):
        aggregate_block_locations([], max_block_size=4)
    for lengths in ((), (3, 0, 2), (0,), (3, -1), (-2, 5)):
        with pytest.raises(ValueError):
            BlockPartition.from_lengths(lengths)


# --- block encode/decode ----------------------------------------------------


def block_streams(tag: str):
    base = StreamKey(99, (("t", hash(tag) % 1000),))
    return derive_stream(base.child("shared")), derive_stream(base.child("select"))


def test_block_round_trip_determinism():
    q = BernoulliVector(np.array([0.9, 0.8, 0.7, 0.95]))
    p = BernoulliVector(np.full(4, 0.5))
    key = StreamKey(1, (("blk", 0),))
    shared1 = derive_stream(key)
    sel = derive_stream(key.child("sel"))
    k = encode_block(q, p, 0, 4, 16, shared1, sel)
    assert type(k) is int and 0 <= k < 16
    decoded = decode_block(p, 0, 4, 16, derive_stream(key), k)
    assert np.array_equal(decoded, p.sample(0, 4, derive_stream(key), count=16)[k])
    again = decode_block(p, 0, 4, 16, derive_stream(key), k)
    assert np.array_equal(decoded, again)


def test_selection_weights_sum_to_one():
    q = DiagonalGaussian(np.array([0.8, -0.2]), 1.0)
    p = DiagonalGaussian(np.zeros(2), 1.0)
    s = derive_stream(StreamKey(5, (("w", 0),)))
    cands = p.sample(0, 2, s, count=64)
    w = selection_weights(q, p, 0, 2, cands)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)


def test_zero_mass_candidates_never_selected():
    # q puts all mass on the all-ones vector; any selected candidate must be it
    q = BernoulliVector(np.ones(2))
    p = BernoulliVector(np.full(2, 0.5))
    key = StreamKey(17, (("zm", 0),))
    k = encode_block(
        q, p, 0, 2, 32, derive_stream(key), derive_stream(key.child("sel"))
    )
    assert np.array_equal(decode_block(p, 0, 2, 32, derive_stream(key), k), np.ones(2))


def _all_miss_pair(kind: str):
    """(q, p) where the candidates p draws have no mass under q."""
    if kind == "bernoulli":  # q demands a value p never produces
        return BernoulliVector(np.ones(1)), BernoulliVector(np.zeros(1))
    # q forbids an outcome at every coordinate that p draws often
    dim = 12
    if kind == "ternary":
        return (TernaryPattern(np.zeros(dim), np.ones(dim), np.zeros(dim)),
                TernaryPattern(np.full(dim, 0.5), np.zeros(dim), np.full(dim, 0.5)))
    return BinarySign(np.ones(dim)), UniformSign(dim)


@pytest.mark.parametrize("kind", ["bernoulli", "ternary", "uniform_sign"])
def test_all_zero_mass_block_picks_index_0(kind, monkeypatch):
    # every candidate scores -inf, so the pick is index 0, the ordered pick
    # under equal weights, and decode regenerates p's row 0; with
    # ENCODE_CHUNK_FLOATS at 1 the 16 candidates span four arrival chunks of
    # 4 rows, and no later chunk's -inf displaces the first
    q, p = _all_miss_pair(kind)
    key = StreamKey(82, (("allzero", len(kind)),))
    candidates = p.sample(0, q.dim, derive_stream(key), count=16)
    with pytest.raises(ValueError, match="zero client mass"):  # no weights to normalize
        selection_weights(q, p, 0, q.dim, candidates)
    for chunk_floats in (codec.ENCODE_CHUNK_FLOATS, 1):
        monkeypatch.setattr(codec, "ENCODE_CHUNK_FLOATS", chunk_floats)
        k = encode_block(q, p, 0, q.dim, 16, derive_stream(key), derive_stream(key.child("s")))
        assert type(k) is int and k == 0
    assert np.array_equal(decode_block(p, 0, q.dim, 16, derive_stream(key), k), candidates[0])


def test_decode_index_out_of_range():
    p = BernoulliVector(np.full(2, 0.5))
    with pytest.raises(ValueError):
        decode_block(p, 0, 2, 8, derive_stream(StreamKey(1)), 8)


# --- full updates -----------------------------------------------------------


def make_bernoulli_pair(seed, dim):
    rng = np.random.default_rng(seed)
    q = BernoulliVector(rng.uniform(0.05, 0.95, dim))
    p = BernoulliVector(rng.uniform(0.2, 0.8, dim))
    return q, p


def test_encode_update_cost_frozen():
    # K = 4 needs target+r in (ln2, 2 ln2]; d=4 split into 2 blocks
    params = params_with(target=1.2, max_block=2)
    assert params.index_bits == 2
    q, p = make_bernoulli_pair(0, 4)
    part = split_blocks_fixed(4, 2)
    key = StreamKey(3, (("cf", 0),))
    upd, cost = encode_update(q, p, part, params, key, round_index=0, client_id=0)
    assert upd.indices.tolist() == [0, 1]
    assert cost.payload_bits == 4  # the codes of 1 and 2: 1 and 010
    # the thresholds' defaults, 0 and inf, put every KL inside the band
    assert cost.header_bits == 5  # kind code 10 + gamma(2) = 3
    assert cost.location_bits == 0
    assert cost.total_bits == 9
    assert cost.total_bits / q.dim == pytest.approx(9 / 4)


# (63 ln 2) / ln 2 is exactly 63.0 in float64: the boundary itself
@pytest.mark.parametrize("target, r", [
    (63 * math.log(2.0), 0.0), (62.5 * math.log(2.0), 0.0), (40.0, 3.6),
])
def test_params_accept_63_bit_index_fields(target, r):
    # constructed only: nothing draws 2^63 candidates
    assert CodecParams(d_kl_target=target, overhead_r=r).index_bits == 63


@pytest.mark.parametrize("target, r", [
    (63.5 * math.log(2.0), 0.0), (40.0, 3.7), (50.0, 2.0), (1e300, 0.0), (1.0, math.inf),
])
def test_params_refuse_index_fields_over_63_bits(target, r):
    with pytest.raises(ValueError, match="wider than 63 bits"):
        CodecParams(d_kl_target=target, overhead_r=r)


def test_location_bits_frozen():
    params = params_with(target=1.2, max_block=1024)
    cost = bit_cost(EncodedUpdate(avg_block_kl=0.0, indices=np.zeros(3, dtype=np.int64),
                                  block_lengths=(1, 1, 1)), params)
    assert cost.location_bits == 30  # 3 blocks x ceil(log2 1024) = 10 bits


def test_update_round_trip():
    params = params_with(target=2.0, r=1.0, max_block=8)
    q, p = make_bernoulli_pair(7, 20)
    kl = np.abs(np.random.default_rng(7).normal(0.2, 0.1, 20))
    part = split_blocks_adaptive(kl, params)
    key = StreamKey(21, (("rt", 0),))
    upd, cost = encode_update(q, p, part, params, key, round_index=5, client_id=2)
    decoded = decode_update(p, part, params, key, upd)
    assert decoded.shape == (20,)
    assert set(np.unique(decoded)) <= {0.0, 1.0}
    # determinism
    again = decode_update(p, part, params, key, upd)
    assert np.array_equal(decoded, again)


def test_update_with_locations_round_trip():
    params = params_with(target=0.5, max_block=16)
    q, p = make_bernoulli_pair(9, 33)
    part = split_blocks_adaptive(np.full(33, 0.09), params)
    key = StreamKey(22, (("loc", 0),))
    upd, cost = encode_update(
        q, p, part, params, key, round_index=1, client_id=0, include_locations=True
    )
    assert upd.includes_locations
    assert upd.block_lengths == part.lengths
    # decoder gets no partition: it must rebuild it from the message
    decoded = decode_update(p, None, params, key, upd)
    assert decoded.shape == (33,)
    blob = serialize_update(upd, params)
    assert len(blob) * 8 >= cost.total_bits > (len(blob) - 1) * 8


def _gaussian_update(*distances, params=None, width=None):
    """Encode Gaussian coordinates whose client and global means lie the given
    distances apart, so each has KL distance^2 / 2, in blocks of ``width``
    (default: one block)."""
    half = np.array(distances) / 2
    q = DiagonalGaussian(half, 1.0)
    p = DiagonalGaussian(-half, 1.0)
    return encode_update(q, p, split_blocks_fixed(half.size, width or half.size),
                         params or params_with(target=2.0),
                         StreamKey(32, (("inf", 0),)), round_index=0, client_id=0)


# the band of each mean block KL when the band is [0.5, 2.0]: distances 0.5,
# 1, 1.5, 2 and 4 give KLs of exactly 0.125, 0.5, 1.125, 2 and 8 nats
_BAND_PARAMS = params_with(target=1.0, kl_min=0.5, kl_max=2.0)
_KL_OF_DISTANCE = {0.5: 0.125, 1.0: 0.5, 1.5: 1.125, 2.0: 2.0, 4.0: 8.0}


@pytest.mark.parametrize("distance, band", [
    pytest.param(0.5, "below", id="below"),
    pytest.param(1.0, "inside", id="at-kl-min"),
    pytest.param(1.5, "inside", id="inside"),
    pytest.param(2.0, "inside", id="at-kl-max"),
    pytest.param(4.0, "above", id="above"),
])
def test_encoder_sends_the_band_of_its_exact_mean_block_kl(distance, band):
    upd, cost = _gaussian_update(distance, params=_BAND_PARAMS)
    assert upd.avg_block_kl == _KL_OF_DISTANCE[distance]
    assert upd.band == band
    received = deserialize_update(serialize_update(upd, _BAND_PARAMS), _BAND_PARAMS)
    assert received.band == band and received.avg_block_kl is None
    # the kind code, then gamma(1) = 1
    assert cost.header_bits == {"below": 1, "inside": 2, "above": 3}[band] + 1


def test_encoder_band_is_the_mean_over_blocks():
    # blocks of 0.125 and 8 nats: the mean, 4.0625, is above the band
    q = DiagonalGaussian(np.array([0.25, 2.0]), 1.0)
    p = DiagonalGaussian(np.array([-0.25, -2.0]), 1.0)
    upd, _ = encode_update(q, p, split_blocks_fixed(2, 1), _BAND_PARAMS,
                           StreamKey(30, (("f32", 0),)), round_index=0, client_id=0)
    assert upd.avg_block_kl == 4.0625 and upd.band == "above"


def test_location_messages_carry_no_band():
    q = DiagonalGaussian(np.array([2.0]), 1.0)
    p = DiagonalGaussian(np.array([-2.0]), 1.0)
    upd, cost = encode_update(q, p, None, _BAND_PARAMS, StreamKey(30), round_index=0,
                              client_id=0, include_locations=True)
    assert upd.band is None and upd.avg_block_kl == 8.0
    assert cost.header_bits == 3 + 1  # kind code 111, gamma(1)


def test_kind_codes_form_a_complete_prefix_code():
    codes = {band: format(value, f"0{width}b")
             for band, (value, width) in zip(codec._KINDS, codec._KIND_CODES)}
    assert codes == {"below": "0", "inside": "10", "above": "110", None: "111"}
    # no code starts another, and the lengths fill the Kraft sum exactly
    assert not any(a != b and b.startswith(a) for a in codes.values() for b in codes.values())
    assert sum(2.0 ** -len(code) for code in codes.values()) == 1.0
    # so every 3-bit string starts with exactly one of them
    for head in range(8):
        assert sum(f"{head:03b}".startswith(code) for code in codes.values()) == 1
    # and the parser reads each code as its kind, here followed by a block
    # count of 1 and an index of 0 (and, after the location code, a length of
    # 1 in a 0-bit field)
    for band, code in codes.items():
        assert deserialize_update(_bit_message(code + "11"), params_with(max_block=1)).band == band


# a KL that is not finite and nonnegative has no band
@pytest.mark.parametrize("kl", [-1.0, math.nan, math.inf])
def test_avg_block_kl_refuses_values_without_a_code(kl):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        EncodedUpdate(avg_block_kl=kl, indices=np.array([0]), band="inside")


def test_encode_update_cuts_its_own_blocks_without_a_partition():
    params = params_with(target=0.5, r=1.0, max_block=16)
    q, p = make_bernoulli_pair(4, 40)
    key = StreamKey(31, (("own", 0),))
    part = split_blocks_adaptive(kl_per_coordinate(q, p), params)
    assert part.num_blocks > 1
    given_part, given_cost = encode_update(q, p, part, params, key, round_index=0,
                                           client_id=0, include_locations=True)
    own, own_cost = encode_update(q, p, None, params, key, round_index=0, client_id=0,
                                  include_locations=True)
    assert np.array_equal(own.indices, given_part.indices)
    assert own.block_lengths == given_part.block_lengths == part.lengths
    assert own.avg_block_kl == given_part.avg_block_kl
    assert own_cost == given_cost


def test_encode_update_refuses_no_partition_without_locations():
    q, p = make_bernoulli_pair(4, 9)
    with pytest.raises(ValueError, match="without a partition must include its locations"):
        encode_update(q, p, None, params_with(target=2.0), StreamKey(31), round_index=0,
                      client_id=0)


def test_encode_update_refuses_a_block_over_max_block_size():
    q, p = make_bernoulli_pair(4, 9)
    with pytest.raises(ValueError, match=r"block \[4, 9\) exceeds max_block_size 4"):
        encode_update(q, p, BlockPartition(dim=9, starts=(0, 4)), params_with(max_block=4),
                      StreamKey(31), round_index=0, client_id=0)


def test_encode_update_sends_index_0_when_every_candidate_misses(monkeypatch):
    # q (all ones) is absolutely continuous w.r.t. p (fair coins), but its
    # support has prior mass 2^-12 in the block, so K = 4 candidates all miss
    # it; the block still carries index 0, the ordered pick under equal
    # weights, whose candidate is a draw from p, and decode regenerates it
    params = params_with(target=1.0)
    num_samples = 2 ** params.index_bits
    q, p = BernoulliVector(np.ones(12)), BernoulliVector(np.full(12, 0.5))
    part = split_blocks_fixed(12, 12)
    key = StreamKey(33, (("miss", 0),))
    shared_keys = []
    block = codec.encode_block

    def spy(*args):
        shared_keys.append(args[5].key)
        return block(*args)

    monkeypatch.setattr(codec, "encode_block", spy)
    upd, cost = encode_update(q, p, part, params, key, round_index=0, client_id=0)
    assert num_samples == 4 and len(shared_keys) == 1
    candidates = p.sample(0, 12, derive_stream(shared_keys[0]), count=4)
    assert (log_ratio(q, p).block(0, 12)(candidates) == -np.inf).all()
    assert upd.indices.tolist() == [0] and cost.payload_bits == 1
    received = deserialize_update(serialize_update(upd, params), params)
    row = decode_update(p, part, params, key, received)
    assert np.array_equal(row, candidates[0])
    assert not np.array_equal(row, np.ones(12))  # q gives it no mass: a draw from p


@pytest.mark.parametrize("run, match", [
    pytest.param(lambda: split_blocks_adaptive(np.array([0.5, np.nan, 0.5, 0.5, 0.5, 0.5]),
                                               params_with(target=1.0)),
                 "finite and nonnegative: coordinate 1 is nan", id="nan-kl-into-split"),
    # the KL of coordinate 1 overflows float64
    pytest.param(lambda: _gaussian_update(0.0, 1e200), "coordinate 1 is 5e\\+199, -5e\\+199",
                 id="gaussian-kl-overflow"),
    # each coordinate's KL is finite, 8.45e307, but the block's sum overflows
    pytest.param(lambda: _gaussian_update(1.3e154, 1.3e154, 1.3e154),
                 "block \\[0, 3\\) has inf nats",
                 id="block-kl-sum-overflows-float64"),
])
def test_non_finite_kl_refused_where_it_enters(run, match):
    with pytest.raises(ValueError, match=match):
        run()


@pytest.mark.parametrize("distance, band", [
    pytest.param(1e154, "above", id="5e307-nats"),
    pytest.param(1e-4, "below", id="5e-9-nats"),
])
def test_extreme_mean_block_kls_keep_their_value_and_band(distance, band):
    # one block of two coordinates, whose KLs are 0 and distance^2 / 2
    upd, _ = _gaussian_update(0.0, distance, params=params_with(kl_min=1e-8, kl_max=1e300))
    assert upd.avg_block_kl == distance**2 / 2 and upd.band == band


# --- partition update rule --------------------------------------------------


def test_next_partition_merges_the_shipped_lengths():
    params = params_with(target=1.0, max_block=40)
    updates = [EncodedUpdate(indices=np.zeros(len(lengths), dtype=np.int64),
                             block_lengths=lengths) for lengths in ((10, 10, 20), (12, 12, 6, 10))]
    merged = next_partition(None, updates, params)
    assert merged == aggregate_block_locations(
        [BlockPartition(dim=40, starts=(0, 10, 20)),
         BlockPartition(dim=40, starts=(0, 12, 24, 30))], max_block_size=40)
    assert merged.starts == (0, 11, 22, 30)


# Each client's mean block KL, in nats, with the band [0.5, 2.0]: 0.125 is
# below, 8 above, and 0.5, 1.125 and 2 inside.  The partition is dropped
# when more than half of the clients lie on one side and a re-cut could
# change it; an exact half keeps it.
_TWO_BLOCKS, _UNIT_BLOCKS = (0, 4), tuple(range(8))


def _keeps(starts, kls):
    """Whether next_partition keeps the partition with these starts over
    dim 8, after each client sends its mean block KL's band through the
    wire in a one-coordinate message."""
    part = BlockPartition(dim=8, starts=starts)
    distance = {kl: d for d, kl in _KL_OF_DISTANCE.items()}
    updates = [_gaussian_update(distance[kl], params=_BAND_PARAMS)[0] for kl in kls]
    assert [u.avg_block_kl for u in updates] == list(kls)
    received = [deserialize_update(serialize_update(u, _BAND_PARAMS), _BAND_PARAMS)
                for u in updates]
    kept = next_partition(part, received, _BAND_PARAMS)
    assert kept in (part, None)
    return kept is part


@pytest.mark.parametrize("kls, kept", [
    pytest.param((1.125, 1.125), True, id="keep-inside"),
    pytest.param((2.0, 2.0), True, id="keep-mean-at-upper-edge"),
    pytest.param((0.5, 0.5), True, id="keep-mean-at-lower-edge"),
    pytest.param((1.125, 8.0, 8.0), False, id="drop-above"),
    pytest.param((0.125, 0.125, 1.125), False, id="drop-below"),
    # ties and split votes
    pytest.param((0.125, 1.125), True, id="keep-half-below"),
    pytest.param((8.0, 0.5, 8.0, 2.0), True, id="keep-half-above"),
    pytest.param((0.125, 0.125, 8.0, 8.0), True, id="keep-halves-below-and-above"),
    pytest.param((0.125, 8.0, 1.125), True, id="keep-no-majority"),
    pytest.param((0.125, 0.125, 8.0), False, id="drop-majority-below"),
    pytest.param((8.0,), False, id="drop-the-one-client-above"),
])
def test_next_partition_keeps_or_drops(kls, kept):
    assert _keeps(_TWO_BLOCKS, kls) is kept


# outside the band the partition is dropped only if a re-cut could change it:
# a merge needs two blocks, a split a block wider than one coordinate
@pytest.mark.parametrize("starts, kl, kept", [
    pytest.param((0,), 0.125, True, id="keep-one-block-below"),
    pytest.param(_UNIT_BLOCKS, 8.0, True, id="keep-unit-blocks-above"),
    pytest.param(_TWO_BLOCKS, 0.125, False, id="drop-two-blocks-below"),
    pytest.param((0, 1, 2, 3, 4, 5, 6), 8.0, False, id="drop-a-two-wide-block-above"),
    pytest.param((0,), 8.0, False, id="drop-one-block-above"),
    pytest.param(_UNIT_BLOCKS, 0.125, False, id="drop-unit-blocks-below"),
])
def test_next_partition_drops_only_what_a_re_cut_can_change(starts, kl, kept):
    assert _keeps(starts, (kl, kl)) is kept


# --- wire format ------------------------------------------------------------


def test_serialize_empty_update_length():
    # a partition has at least one block, and gamma has no code for zero
    with pytest.raises(ValueError, match="at least one block"):
        EncodedUpdate(avg_block_kl=0.25, indices=np.array([], dtype=np.int64))


def test_serialize_length_equals_bit_cost():
    params = params_with(target=2.0, r=1.0, max_block=32)
    q, p = make_bernoulli_pair(2, 40)
    part = split_blocks_fixed(40, 16)
    key = StreamKey(40, (("ser", 0),))
    for include in (False, True):
        upd, cost = encode_update(
            q, p, part, params, key, round_index=0, client_id=0,
            include_locations=include,
        )
        blob = serialize_update(upd, params)
        assert len(blob) == (cost.total_bits + 7) // 8


# a message's kind: its band, or None for a location message
_KINDS = st.sampled_from(["below", "inside", "above", None])


def _message(indices, lengths, band):
    """An update of the given kind: a location message ships the lengths."""
    return EncodedUpdate(indices=indices, block_lengths=lengths if band is None else None,
                         band=band)


@settings(max_examples=60)
@given(
    st.integers(1, 20),
    _KINDS,
    st.integers(1, 10),
)
def test_wire_round_trip(num_blocks, band, max_pow):
    rng = np.random.default_rng(num_blocks)
    max_block = 2**max_pow
    params = params_with(target=3.0, r=1.0, max_block=max_block)
    indices = rng.integers(0, 2**params.index_bits, num_blocks)
    lengths = tuple(int(x) for x in rng.integers(1, max_block + 1, num_blocks))
    upd = _message(indices, lengths, band)
    blob = serialize_update(upd, params)
    back = deserialize_update(blob, params)
    assert back.band == upd.band and back.avg_block_kl is None
    assert back.num_blocks == upd.num_blocks
    assert np.array_equal(back.indices, upd.indices)
    assert back.includes_locations == upd.includes_locations
    assert back.block_lengths == upd.block_lengths


@settings(max_examples=30, deadline=None)
@given(
    num_blocks=st.integers(1, 5000),
    index_bits=st.integers(1, 63),
    max_pow=st.integers(0, 20),
    band=_KINDS,
    seed=st.integers(0, 2**32 - 1),
)
def test_wire_property(num_blocks, index_bits, max_pow, band, seed):
    """Exact round trip, wire length equal to the accounting, every proper
    prefix refused at an offset inside it, and trailing bytes refused."""
    # ceil(index_bits - 1/2) = index_bits
    params = CodecParams(d_kl_target=(index_bits - 0.5) * math.log(2.0),
                         max_block_size=2**max_pow)
    assert params.index_bits == index_bits
    rng = np.random.default_rng(seed)
    lengths = tuple(int(x) for x in rng.integers(1, 2**max_pow + 1, num_blocks))
    # K - 1, the index with the longest code, 2 index_bits + 1 bits, and 0,
    # with the shortest, 1 bit, take turns
    indices = np.where(np.arange(num_blocks) % 2, 0, 2**index_bits - 1)
    upd = _message(indices, lengths, band)
    blob = serialize_update(upd, params)
    assert len(blob) == math.ceil(bit_cost(upd, params).total_bits / 8)
    back = deserialize_update(blob, params)
    assert back.band == band
    assert np.array_equal(back.indices, upd.indices)
    assert back.block_lengths == upd.block_lengths
    # each prefix is read up to its cut, so long messages cost this test
    # tens of seconds
    for n in range(len(blob)):
        with pytest.raises(WireFormatError) as err:
            deserialize_update(blob[:n], params)
        assert err.value.byte_offset <= n
    for extra in (b"\x00", b"\xff\xff"):
        with pytest.raises(WireFormatError, match="overlong") as err:
            deserialize_update(blob + extra, params)
        assert err.value.byte_offset == len(blob)


def test_wire_length_field_holds_max_block_size():
    # length == max_block_size must survive the (length - 1) field encoding
    params = params_with(target=1.2, max_block=8)
    upd = EncodedUpdate(
        avg_block_kl=0.0,
        indices=np.array([1]), block_lengths=(8,),
    )
    back = deserialize_update(serialize_update(upd, params), params)
    assert back.block_lengths == (8,)


def test_deserialize_truncated():
    params = params_with(target=1.2)
    upd = EncodedUpdate(indices=np.array([0, 1]), band="below")
    blob = serialize_update(upd, params)
    with pytest.raises(WireFormatError) as err:
        deserialize_update(blob[:-1], params)
    assert err.value.byte_offset <= len(blob) - 1


@pytest.mark.parametrize("size, match", [
    (5, "truncated"),  # the zero run of the block count reaches the end
    (20, "64 or more leading zeros"),  # 2^64 blocks or more
])
def test_deserialize_refuses_unterminated_block_count(size, match):
    # every bit zero: the kind code of a message below the band, then a gamma
    # code with no 1
    with pytest.raises(WireFormatError, match=match) as err:
        deserialize_update(bytes(size), params_with(target=1.2))
    assert err.value.byte_offset == 0  # where the block count starts, bit 1


def test_deserialize_refuses_a_body_longer_than_the_message():
    # the location kind code and the gamma code of 2^62 (62 zeros, a 1, 62
    # zeros) fill 128 of 136 bits.  Zero-width length fields take no room,
    # so the 2^62 index codes, a bit or more each, are the first that do not
    # fit; the body is refused where it starts, before any of it is read,
    # not by reading 2^62 codes
    params = CodecParams(d_kl_target=3.0, overhead_r=2.0, max_block_size=1)
    assert (params.length_field_bits, params.index_bits) == (0, 8)
    blob = int("111" + "0" * 62 + "1" + "0" * 70, 2).to_bytes(17, "big")
    with pytest.raises(WireFormatError, match="truncated") as err:
        deserialize_update(blob, params)
    assert err.value.byte_offset == 16  # the first index field starts at bit 128


def test_deserialize_overlong():
    params = params_with(target=1.2)
    upd = EncodedUpdate(indices=np.array([0]), band="above")
    blob = serialize_update(upd, params) + b"\x00\x00"
    with pytest.raises(WireFormatError):
        deserialize_update(blob, params)


# the ids are the ones these cases had when two header-field cases came first
@pytest.mark.parametrize("field, value, match", [
    # K = 32 candidates
    pytest.param("indices", np.array([2**5, 0]), "index", id="indices-value2-index"),
    pytest.param("block_lengths", (0, 4), "block length",
                 id="block_lengths-value3-block length"),
    # max_block_size is 8
    pytest.param("block_lengths", (9, 4), "block length",
                 id="block_lengths-value4-block length"),
])
def test_serialize_refuses_values_outside_their_fields(field, value, match):
    params = params_with(target=2.0, r=1.0, max_block=8)
    q, p = make_bernoulli_pair(5, 8)
    upd, _ = encode_update(q, p, split_blocks_fixed(8, 4), params, StreamKey(41),
                           round_index=0, client_id=0, include_locations=True)
    serialize_update(upd, params)  # the unaltered update fits
    with pytest.raises(ValueError, match=match):
        serialize_update(dataclasses.replace(upd, **{field: value}), params)


@pytest.mark.parametrize("fields, match", [
    # one block in num_blocks and bit_cost, but two index fields on the wire
    pytest.param(dict(indices=[[1, 2]]), "1-D integer array", id="2-d-indices"),
    pytest.param(dict(indices=[1.9, 2.2]), "1-D integer array", id="float-indices"),
    pytest.param(dict(indices=np.array([True, False])), "1-D integer array",
                 id="bool-indices"),
    pytest.param(dict(indices=[3, -1]), "index -1 is negative", id="negative-index"),
    pytest.param(dict(indices=[1], block_lengths=(5.5,)), "integer length",
                 id="float-length"),
    pytest.param(dict(indices=[1], block_lengths=(True,)), "integer length",
                 id="bool-length"),
    # refused where it enters, not as an OverflowError when the writer or
    # bit_cost takes it as an int64
    *[pytest.param(dict(indices=[1], block_lengths=(n,)),
                   rf"block length {n} outside \[1, 2\^63 - 1\]", id=f"length-{n}")
      for n in (2**63, -2**64, 0, -1)],
    # a location message has no band, and any other message one of three
    pytest.param(dict(indices=[1], block_lengths=(4,), band="below"),
                 "a location message carries no band: 'below'", id="band-with-locations"),
    pytest.param(dict(indices=[1]), "needs a band, one of below, inside, above: None",
                 id="no-band-without-locations"),
    pytest.param(dict(indices=[1], band="low"), "needs a band", id="unknown-band"),
])
def test_encoded_update_refuses_malformed_fields(fields, match):
    with pytest.raises(ValueError, match=match):
        EncodedUpdate(avg_block_kl=1.0, **fields)


def test_encoded_update_accepts_numpy_integers():
    params = params_with(target=2.0, r=1.0, max_block=8)
    upd = EncodedUpdate(avg_block_kl=1.0, indices=np.array([3, 30], dtype=np.uint8),
                        block_lengths=(np.int64(5), 2))
    assert upd.indices.dtype == np.int64 and upd.block_lengths == (5, 2)
    back = deserialize_update(serialize_update(upd, params), params)
    assert np.array_equal(back.indices, upd.indices) and back.block_lengths == (5, 2)


@pytest.mark.parametrize("size", [2.5, 16.0, True, "16"])
def test_params_refuse_a_max_block_size_that_is_not_an_integer(size):
    with pytest.raises(ValueError, match="max_block_size must be an integer"):
        params_with(max_block=size)


@pytest.mark.parametrize("r", [math.nan, -0.5, -math.inf])
def test_params_refuse_an_overhead_that_is_not_nonnegative(r):
    with pytest.raises(ValueError, match="overhead_r must be nonnegative"):
        CodecParams(d_kl_target=1.0, overhead_r=r)


def test_params_take_a_numpy_max_block_size():
    params = params_with(max_block=np.int64(16))
    assert params == params_with(max_block=16) and params.length_field_bits == 4


def test_wire_carries_a_block_of_the_widest_max_block_size():
    # 63-bit length fields, the index fields' limit: the field holds
    # length - 1 = 2^63 - 2, and length fits an int64
    params = params_with(target=1.2, max_block=2**63 - 1)
    assert params.length_field_bits == 63
    upd = EncodedUpdate(avg_block_kl=1.0, indices=np.array([3]), block_lengths=(2**63 - 1,))
    blob = serialize_update(upd, params)
    assert len(blob) == math.ceil(bit_cost(upd, params).total_bits / 8)
    assert deserialize_update(blob, params).block_lengths == (2**63 - 1,)


# 2^64: an all-ones field plus 1 wraps to a length of 0 in uint64; 2^65: a
# 65-bit field is wider than the uint64 the reader sums it in
@pytest.mark.parametrize("size", [2**63, 2**64, 2**65])
def test_params_refuse_a_max_block_size_over_63_bits(size):
    with pytest.raises(ValueError, match=r"max_block_size must be an integer in \[1, 2\^63 - 1\]"):
        params_with(max_block=size)


def _wire_params(max_block):
    # K = 2^ceil((2 + 1) / ln 2) = 32 candidates: indices 0-31, whose codes
    # (of index + 1) are 1 to 11 bits long
    return CodecParams(d_kl_target=2.0, overhead_r=1.0, max_block_size=max_block)


# Bytes and truncation offsets recorded from the writer and reader when the
# header became the kind code and the gamma-coded block count.  indices_only
# was also worked out by hand: 10 00101 (inside the band, 5 blocks), then 1,
# 00000100000, 00110, 000010010 and 0001001 (indices 0, 31, 5, 17 and 8),
# 40 bits with no pad.  offsets[n] is the byte_offset of the WireFormatError
# raised for the first n bytes of the message: byte 0 for no bytes, the byte
# where the body starts for a body shorter than a bit per index, else the
# byte where the first cut length field or index code starts.  A case
# without bytes is one the codec refuses.
WIRE_GOLDEN = {
    "indices_only": (
        _wire_params(64),
        dict(indices=np.array([0, 31, 5, 17, 8]), band="inside"),
        "8b04060909",
        [0, 0, 1, 3, 3],
    ),
    "with_locations": (
        _wire_params(20),
        dict(indices=np.array([1, 30, 12]), block_lengths=(20, 1, 7)),
        "ee60320f8d",
        [0, 0, 2, 3, 3],
    ),
    "zero_width_lengths": (
        _wire_params(1),
        dict(indices=np.array([3, 0, 31, 16]), block_lengths=(1, 1, 1, 1)),
        "e424100440",
        [0, 1, 1, 1, 3],
    ),
    "many_blocks": (
        _wire_params(20),
        dict(indices=np.arange(40) * 7 % 32,
             block_lengths=tuple(i * 3 % 20 + 1 for i in range(40))),
        "e0a0033258f90487536131150b744033258f90487536131150b7462078583a416120c82038e0a87"
        "18a088603e61a140da12100b878a30261a881e160e9058480",
        [0, 0, 1, 3, 3, 4, 5, 6, 8, 8, 9, 10, 11, 13, 13, 14, 15, 16, 18, 18, 19, 20, 21,
         23, 23, 24, 25, 26, 26, 26, 26, 26, 31, 32, 33, 34, 36, 36, 37, 38, 39, 41, 41, 42,
         43, 45, 45, 47, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62],
    ),
    "one_block_below": (
        _wire_params(64),
        dict(indices=np.array([0]), band="below"),
        "60",
        [0],
    ),
    "above": (
        _wire_params(64),
        dict(indices=np.array([2, 6]), band="above"),
        "c99c",
        [0, 0],
    ),
    "no_blocks": (
        _wire_params(64),
        dict(indices=np.array([], dtype=np.int64), band="below"),
        None,
        None,
    ),
}


def _golden_update(name):
    """The case's update, or None after checking that a case without bytes
    is refused: a partition has at least one block."""
    _, fields, golden, _ = WIRE_GOLDEN[name]
    if golden is None:
        with pytest.raises(ValueError, match="at least one block"):
            EncodedUpdate(**fields)
        return None
    return EncodedUpdate(**fields)


@pytest.mark.parametrize("name", list(WIRE_GOLDEN))
def test_wire_bytes_pinned(name):
    params, _, golden, _ = WIRE_GOLDEN[name]
    upd = _golden_update(name)
    if upd is None:
        return
    blob = serialize_update(upd, params)
    assert blob.hex() == golden
    back = deserialize_update(blob, params)
    assert np.array_equal(back.indices, upd.indices)
    assert back.block_lengths == upd.block_lengths
    assert back.band == upd.band


@pytest.mark.parametrize("name", list(WIRE_GOLDEN))
def test_wire_error_offsets_pinned(name):
    params, _, golden, offsets = WIRE_GOLDEN[name]
    if _golden_update(name) is None:
        return
    blob = bytes.fromhex(golden)
    seen = []
    for n in range(len(blob)):
        with pytest.raises(WireFormatError) as err:
            deserialize_update(blob[:n], params)
        seen.append(err.value.byte_offset)
    assert seen == offsets
    for extra in (1, 2):
        with pytest.raises(WireFormatError, match="overlong") as err:
            deserialize_update(blob + bytes(extra), params)
        assert err.value.byte_offset == len(blob)


# (header, location, payload) bits of each golden message: the wire tests
# compare totals only, so these keep bits from moving between the parts
WIRE_GOLDEN_PARTS = {
    "indices_only": (7, 0, 33),  # 2 + gamma(5) = 5; index codes 1 + 11 + 5 + 9 + 7
    "with_locations": (6, 15, 19),  # 3 + gamma(3) = 3; 3 x 5-bit lengths; codes 3 + 9 + 7
    "zero_width_lengths": (8, 0, 26),  # 3 + gamma(4) = 5; max_block_size 1: 0-bit lengths
    "many_blocks": (14, 200, 292),  # 3 + gamma(40) = 11
    "one_block_below": (2, 0, 1),  # 1 + gamma(1) = 1; the code of index 0
    "above": (6, 0, 8),  # 3 + gamma(2) = 3; codes 3 + 5
}


@pytest.mark.parametrize("name", list(WIRE_GOLDEN_PARTS))
def test_wire_golden_bit_cost_parts_pinned(name):
    params, _, golden, _ = WIRE_GOLDEN[name]
    upd = _golden_update(name)
    cost = bit_cost(upd, params)
    assert (cost.header_bits, cost.location_bits, cost.payload_bits) == WIRE_GOLDEN_PARTS[name]
    assert math.ceil(cost.total_bits / 8) == len(golden) // 2


def _located_message(lengths):
    """The location kind code, the gamma code of 3 blocks, a 5-bit length
    field per block (holding length - 1) and the gamma codes of three indices
    of 1, zero-padded."""
    fields = "111" + "011" + "".join(f"{n - 1:05b}" for n in lengths) + "010" * 3
    fields += "0" * (-len(fields) % 8)
    return int(fields, 2).to_bytes(len(fields) // 8, "big")


@pytest.mark.parametrize("second", [20, 21, 32])
def test_deserialize_refuses_block_lengths_over_max_block_size(second):
    # 5-bit length fields could hold lengths up to 32; the writer sends <= 20
    params = _wire_params(20)
    lengths = (20, second, 1)
    blob = _located_message(lengths)
    if second <= 20:
        assert deserialize_update(blob, params).block_lengths == lengths
        return
    with pytest.raises(WireFormatError, match=f"block length {second} outside") as err:
        deserialize_update(blob, params)
    assert err.value.byte_offset == 1  # the second length field starts at bit 11


def _bit_message(fields: str) -> bytes:
    """The bytes of a bit string, zero-padded."""
    fields += "0" * (-len(fields) % 8)
    return int(fields, 2).to_bytes(len(fields) // 8, "big")


# the kind code of a message below the band; then, with K = 32, the gamma
# code of 3 blocks and the longest index code, index 31's
_THREE_BLOCKS, _INDEX_31 = "0" + "011", "00000100000"
# indices 31, 0 and 31
_THREE_INDICES = _THREE_BLOCKS + _INDEX_31 + "1" + _INDEX_31


@pytest.mark.parametrize("fields, match, offset", [
    # a code of 33, index 32 = K, after index 31: refused where it starts, bit 15
    pytest.param(_THREE_BLOCKS + _INDEX_31 + "00000100001" + "1",
                 r"index code 33 out of range \[1, 32\]", 1, id="index-K"),
    # a zero run too long for any index below K, at bit 16
    pytest.param(_THREE_BLOCKS + _INDEX_31 + "1" + "0000001",
                 "index code has 6 or more leading zeros", 2, id="zero-run-too-long"),
    # the third code cut short: it starts at bit 16, 8 bits are left
    pytest.param(_THREE_INDICES[:24], "truncated: needed 11 bits, 8 left", 2,
                 id="third-code-cut"),
    # cut at bit 16, where the third code would start
    pytest.param(_THREE_INDICES[:16], "truncated", 2, id="cut-before-third-code"),
    # the first code's zero run reaches the end of the message
    pytest.param(_THREE_INDICES[:8], "truncated", 0, id="zero-run-to-the-end"),
    # fewer bits than codes: refused where the body starts, bit 6
    pytest.param("0" + "00100" + "1" * 2, "4 index codes need at least 4 bits, 2 left", 0,
                 id="fewer-bits-than-codes"),
])
def test_deserialize_refuses_index_codes_out_of_range_or_cut(fields, match, offset):
    with pytest.raises(WireFormatError, match=match) as err:
        deserialize_update(_bit_message(fields), _wire_params(64))
    assert err.value.byte_offset == offset


def test_deserialize_reads_index_codes_of_every_length():
    # the whole message of the truncation cases above
    blob = _bit_message(_THREE_INDICES)
    upd = deserialize_update(blob, _wire_params(64))
    assert upd.indices.tolist() == [31, 0, 31]
    assert serialize_update(upd, _wire_params(64)) == blob


def _gamma(value: int) -> str:
    """The Elias-gamma code of value >= 1, as a bit string."""
    return f"{value:b}".zfill(2 * value.bit_length() - 1)


# a block count and the bits after the count: random bytes, or the gamma
# codes of that many values, some of them above K or with too many zeros
_INDEX_BODIES = st.one_of(
    st.tuples(st.integers(1, 40),
              st.binary(max_size=48).map(lambda b: "".join(f"{x:08b}" for x in b))),
    st.lists(st.integers(1, 2**64 - 1), min_size=1, max_size=40).map(
        lambda values: (len(values), "".join(map(_gamma, values)))),
)


@settings(max_examples=300)
@given(count_body=_INDEX_BODIES, index_bits=st.sampled_from([1, 2, 5, 8, 63]))
def test_index_codes_read_as_one_code_at_a_time(count_body, index_bits):
    """Any bits after a valid header are read, or refused with the same
    message at the same byte, as a reader that takes one code at a time
    (reference.gamma_codes) reads or refuses them."""
    count, body = count_body
    params = CodecParams(d_kl_target=(index_bits - 0.5) * math.log(2.0))
    # the kind code of a message below the band and the gamma code of count
    header = "0" + _gamma(count)
    data = _bit_message(header + body)
    bits = "".join(f"{b:08b}" for b in data)
    start = len(header)
    if len(bits) - start < count:
        want = ("truncated: "
                f"{count} index codes need at least {count} bits, {len(bits) - start} left",
                start // 8)
    else:
        values, after = gamma_codes(bits, start, count, 2**index_bits, "index")
        if values is None:
            message, bit = after
            want = (message, bit // 8)
        elif len(data) != (after + 7) // 8:
            want = (f"overlong: message is {(after + 7) // 8} bytes, got {len(data)}",
                    (after + 7) // 8)
        else:
            want = [v - 1 for v in values]
    try:
        got = deserialize_update(data, params).indices.tolist()
    except WireFormatError as err:
        got = (str(err).removesuffix(f" (byte offset {err.byte_offset})"), err.byte_offset)
    assert got == want


@settings(max_examples=300)
@given(data=st.binary(max_size=64), head=st.sampled_from(["", "0", "10", "110", "111"]),
       max_block=st.sampled_from([1, 2, 20, 64, 4096]))
@example(data=_located_message((20, 32, 1)), head="", max_block=20)
@example(data=bytes.fromhex("8b04060909"), head="", max_block=64)
@example(data=_bit_message(_THREE_INDICES), head="", max_block=64)
def test_deserialize_accepts_only_what_serialize_writes(data, head, max_block):
    """Arbitrary bytes are refused, or they re-serialize to themselves with
    the pad bits cleared.  A kind code put at the head draws every kind of
    message as often."""
    if head:
        data = _bit_message(head + "".join(f"{x:08b}" for x in data))
    params = _wire_params(max_block)
    try:
        upd = deserialize_update(data, params)
    except WireFormatError:
        return
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits[bit_cost(upd, params).total_bits:] = 0
    assert serialize_update(upd, params) == np.packbits(bits).tobytes()


# --- discrepancy decay smoke (full version lives in the acceptance suite) ---


def test_selection_bias_shrinks_with_more_samples():
    q = BernoulliVector(np.full(4, 0.8))
    p = BernoulliVector(np.full(4, 0.5))
    reps = 1500
    means = {}
    for r_exp, num_samples in ((0, 4), (6, 1024)):
        acc = 0.0
        for i in range(reps):
            key = StreamKey(60, (("decay", r_exp), ("rep", i)))
            k = encode_block(
                q, p, 0, 4, num_samples,
                derive_stream(key.child("shared")),
                derive_stream(key.child("select")),
            )
            acc += decode_block(p, 0, 4, num_samples, derive_stream(key.child("shared")), k).mean()
        means[r_exp] = acc / reps
    assert abs(means[6] - 0.8) < abs(means[0] - 0.8)
    assert abs(means[6] - 0.8) < 0.03


# --- law of the pick ------------------------------------------------------------

# Each case is a block of a few coordinates whose outcomes can be listed, laid
# out _LAW_KEYS times side by side in one message: every copy is its own block,
# with its own streams, so one encode_update call draws _LAW_KEYS independent
# picks at whatever K the encoder gives the block.  The decoded outcomes'
# empirical law must lie within a total variation (TV) threshold of q's law.
# The threshold comes from the exact-sampling null, the empirical law of
# _LAW_KEYS exact draws from q, whose TV from q exceeds t with probability at
# most (2^k - 2) exp(-2 n t^2) over k outcomes and n draws (Weissman et al.,
# "Inequalities for the L1 deviation of the empirical distribution", 2003).
# The threshold holds that bound to _LAW_FALSE_FAILURE over all the checks
# together, so an exact sampler fails this test on at most one root key in
# 10^6.  For the 8-outcome cases the threshold is 0.052, and the null's
# median and 99th percentile are 0.015 and 0.027 (20,000 null draws).  The
# picks' TVs lie between 0.009 and 0.031 over the eight checks.  A pick by
# the largest weight alone, ignoring the arrival times, gives 0.30 to 0.66;
# two candidates per block give 0.17 to 0.19; counts from KL + r without the
# spread give 0.052 to 0.078 at r = 0.5.  Uniform gaps between the arrival
# times give 0.024 to 0.045, which this threshold does not separate.
_LAW_KEYS = 4000
_LAW_KINDS = ("bernoulli", "sign", "ternary", "gaussian")
_LAW_SETTINGS = {2.0: 3.0, 0.5: 1.5}  # overhead_r -> d_kl_target: fedpm's, signsgd's
_LAW_FALSE_FAILURE = 1e-6


def _law_threshold(outcomes: int, checks: int = len(_LAW_KINDS) * len(_LAW_SETTINGS)) -> float:
    per_check = _LAW_FALSE_FAILURE / checks
    return math.sqrt(math.log((2**outcomes - 2) / per_check) / (2 * _LAW_KEYS))


def _law_case(kind: str):
    """(q, p, block width, the outcome number of each decoded row, q's law
    over the outcome numbers) for _LAW_KEYS copies of one block."""
    n = _LAW_KEYS
    if kind == "gaussian":
        # one coordinate, KL 0.32 nats, binned at q's deciles
        mean = 0.8
        edges = [mean + NormalDist().inv_cdf(k / 10) for k in range(1, 10)]
        number = lambda rows: np.searchsorted(edges, rows[:, 0])
        return (DiagonalGaussian(np.full(n, mean), 1.0), DiagonalGaussian(np.zeros(n), 1.0),
                1, number, np.full(10, 0.1))
    if kind == "ternary":
        values = (-1.0, 0.0, 1.0)
        masses = np.array([[0.5, 0.4, 0.1], [0.1, 0.4, 0.5]])  # per coordinate; KL 0.33 nats
        q = TernaryPattern(*np.tile(masses, (n, 1)).T)
        p = TernaryPattern(np.full(2 * n, 0.25), np.full(2 * n, 0.5), np.full(2 * n, 0.25))
    else:
        plus = np.array([0.8, 0.3, 0.6])  # KL 0.295 nats
        masses = np.stack([1.0 - plus, plus], axis=1)
        if kind == "bernoulli":
            values = (0.0, 1.0)
            q, p = BernoulliVector(np.tile(plus, n)), BernoulliVector(np.full(3 * n, 0.5))
        else:
            values = (-1.0, 1.0)
            q, p = BinarySign(np.tile(plus, n)), UniformSign(3 * n)
    width, base = masses.shape
    law = masses[0]
    for row in masses[1:]:
        law = np.outer(law, row).ravel()  # the first coordinate's digit leads
    number = lambda rows: np.searchsorted(values, rows) @ base ** np.arange(width - 1, -1, -1)
    return q, p, width, number, law


@pytest.mark.parametrize("r", list(_LAW_SETTINGS))
@pytest.mark.parametrize("kind", _LAW_KINDS)
def test_decoded_picks_follow_q(kind, r):
    q, p, width, number, law = _law_case(kind)
    params = CodecParams(d_kl_target=_LAW_SETTINGS[r], overhead_r=r)
    partition = BlockPartition(q.dim, tuple(range(0, q.dim, width)))
    key = StreamKey(89, (("law", _LAW_KINDS.index(kind)), ("r", int(4 * r))))
    upd, _ = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
    rows = decode_update(p, partition, params, key, upd).reshape(_LAW_KEYS, width)
    found = np.bincount(number(rows), minlength=law.size) / _LAW_KEYS
    tv = 0.5 * float(np.abs(found - law).sum())
    assert tv < _law_threshold(law.size), (tv, found.round(3).tolist())


# The scalar study's importance sampler (fedklms.toy) through the same check:
# _LAW_KEYS clients of the Gaussian case each pick through the study's
# per-client code, with the study's K from KL + r.  A self-normalized
# importance sampler follows q only as K grows, so the check holds the TV
# below the threshold at r = 4 (K = 128) and r = 6 (K = 1,024), and above it
# at r = 0 (K = 2); the false-failure probability is split over those three
# checks (threshold 0.052 over the 10 bins).  TVs over root seeds 89, 90 and
# 91: 0.19 to 0.20 at r = 0, 0.041 to 0.049 at r = 2 (K = 16, too near the
# threshold to check either way), 0.013 to 0.024 at r = 4 and 0.011 to 0.018
# at r = 6.
_TOY_LAW_SETTINGS = (0.0, 4.0, 6.0)


@pytest.mark.parametrize("r", _TOY_LAW_SETTINGS)
def test_toy_picks_follow_q_as_k_grows(r):
    q, p, _, number, law = _law_case("gaussian")
    mean, prior = q.mean[0], DiagonalGaussian(p.mean[:1], p.sigma)
    num_samples, _ = samples_per_block(mean**2 / 2.0, ToyConfig.codec_params(r))
    key = StreamKey(89, (("toy law", int(r)),))
    iq = 1.0 / p.sigma**2
    values = np.array([toy._client_value(prior, iq, mean, num_samples, key.child("client", n))
                       for n in range(_LAW_KEYS)])
    found = np.bincount(number(values[:, None]), minlength=law.size) / _LAW_KEYS
    tv = 0.5 * float(np.abs(found - law).sum())
    threshold = _law_threshold(law.size, checks=len(_TOY_LAW_SETTINGS))
    if r == 0.0:
        assert tv > threshold, (num_samples, tv)
    else:
        assert tv < threshold, (num_samples, tv, found.round(3).tolist())


# --- selections pinned --------------------------------------------------------


def _pin_pair(kind: str):
    """One (q, p) pair per codec pairing, with zero-mass coordinates in q."""
    gen = derive_stream(StreamKey(123, (("pin", 0), ("kind", len(kind)))))
    dim = 101
    if kind == "bernoulli":
        probs = 0.2 + 0.6 * gen.uniforms(dim)
        probs[[3, 40]], probs[[17, 77]] = 0.0, 1.0
        return BernoulliVector(probs), BernoulliVector(0.3 + 0.4 * gen.uniforms(dim))
    if kind == "ternary":
        neg = 0.4 * gen.uniforms(dim)
        zero = 0.5 * gen.uniforms(dim)
        neg[[5, 60]] = 0.0
        return (TernaryPattern(neg, zero, 1.0 - neg - zero),
                TernaryPattern(np.full(dim, 0.25), np.full(dim, 0.5), np.full(dim, 0.25)))
    if kind == "sign":
        plus = gen.uniforms(dim)
        plus[[8, 90]], plus[[9]] = 0.0, 1.0
        return BinarySign(plus), UniformSign(dim)
    mean = 0.3 * gen.gaussians(dim)
    return DiagonalGaussian(mean, 0.7), DiagonalGaussian(0.1 * mean, 0.7)


def _pin_digests(q, p, params, lengths, key):
    part = BlockPartition.from_lengths(lengths)
    upd, _ = encode_update(q, p, part, params, key, round_index=0, client_id=0)
    decoded = decode_update(p, part, params, key, upd)
    sha = lambda a: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
    return sha(upd.indices.astype(np.int64)), sha(decoded)


# odd block widths, so every block but the first starts at an odd or
# non-multiple-of-4 offset and spans a non-multiple-of-4 number of draws
_PIN_LENGTHS = (7, 13, 3, 21, 1, 5, 51)
# (indices SHA-256, decoded vector SHA-256), re-recorded when the encoder
# moved from importance sampling to ordered random coding.  The indices are
# bernoulli 12, 15, 0, 21, 0, 6, 56; ternary 0, 108, 4, 196, 0, 14, 230; sign
# 0, 20, 2, 72, 0, 0, 146; gaussian 0, 2, 0, 2, 0, 0, 173; bernoulli_k4096 985
SELECTION_GOLDEN = {
    "bernoulli": (
        "62addb104ba928fbedc59ae11c75299293fc49b98a0db1778d1c6018141ae258",
        "a253a45b90a938862a7f9356aa9be0995a8a8ddb692d85cd56e0b136e42c871c",
    ),
    "ternary": (
        "5947d23edc686db4e7f728286c38cd00697301846ee8a988ff1c8a1aff04c8c0",
        "ba5e86fc89a07348bc395ffcacedcb962b0feca4b60ea2b509c0bab3748ba998",
    ),
    "sign": (
        "7648885378662a77d9f98c8b0099c867fba345c10c8f5c1735947a7e57773a73",
        "691323b28d10590c6b1110b532637ce7ff58e2584b6d9672ce40db78cc04ca2c",
    ),
    "gaussian": (
        "b343a7d84ace962c23aa110db36137df7d21486bc9f3abc1fc9ab81bc8d3696b",
        "409358be8d986c804051c80a1b9c81d629fbfc95b3f36715d8139d0f59e25275",
    ),
    "bernoulli_k4096": (
        "2db4a87b0c24fa8bede74baa49c344f301700581bf03e6885e035568bd3e2c35",
        "7657c390d0caba03b7ecf9703f4f9f6af02277e6c6bef19c2010a6c93373bae1",
    ),
}


@pytest.mark.parametrize("kind", list(SELECTION_GOLDEN))
def test_selected_indices_pinned(kind):
    key = StreamKey(321, (("pin", 0), ("case", len(kind))))
    if kind == "bernoulli_k4096":
        # K = 2^ceil((6 + 2) / ln 2) = 4096 candidates for one 1023-wide block
        gen = derive_stream(key.child("probs"))
        q = BernoulliVector(0.5 + 0.09 * (2.0 * gen.uniforms(1023) - 1.0))
        p = BernoulliVector(np.full(1023, 0.5))
        params, lengths = CodecParams(d_kl_target=6.0, overhead_r=2.0), (1023,)
    else:
        q, p = _pin_pair(kind)
        params, lengths = CodecParams(d_kl_target=3.0, overhead_r=2.0), _PIN_LENGTHS
    assert _pin_digests(q, p, params, lengths, key) == SELECTION_GOLDEN[kind]


# --- skip-decode and chunked encode -------------------------------------------


def _p_of_kind(kind: str, dim: int):
    gen = derive_stream(StreamKey(77, (("p", len(kind)),)))
    if kind == "bernoulli":
        return BernoulliVector(0.2 + 0.6 * gen.uniforms(dim))
    if kind == "ternary":
        neg = 0.4 * gen.uniforms(dim)
        return TernaryPattern(neg, 0.5 * (1.0 - neg), 0.5 * (1.0 - neg))
    if kind == "uniform_sign":
        return UniformSign(dim)
    return DiagonalGaussian(gen.gaussians(dim), 0.6)


def _q_of_kind(kind: str, dim: int):
    """A client posterior that pairs with _p_of_kind(kind), with zero-mass
    coordinates for the discrete kinds."""
    gen = derive_stream(StreamKey(78, (("q", len(kind)),)))
    if kind == "bernoulli":
        probs = 0.1 + 0.8 * gen.uniforms(dim)
        probs[5], probs[30] = 0.0, 1.0
        return BernoulliVector(probs)
    if kind == "ternary":
        neg, zero = 0.3 * gen.uniforms(dim), 0.4 * gen.uniforms(dim)
        neg[[6, 7]] = 0.0
        return TernaryPattern(neg, zero, 1.0 - neg - zero)
    if kind == "uniform_sign":
        plus = gen.uniforms(dim)
        plus[9] = 1.0
        return BinarySign(plus)
    return DiagonalGaussian(gen.gaussians(dim), 0.6)


P_KINDS = ("bernoulli", "ternary", "uniform_sign", "gaussian")


@settings(max_examples=40)
@given(
    st.sampled_from(P_KINDS),
    st.integers(1, 41).filter(lambda w: w % 4),
    st.integers(0, 5),
    st.sampled_from([1, 2, 7, 32, 64]),
)
@example("gaussian", 1, 0, 64)  # a one-coordinate Gaussian block, as the scalar study draws
def test_decode_block_equals_full_regeneration(kind, width, lo, num_samples):
    p = _p_of_kind(kind, lo + width + 3)
    key = StreamKey(79, (("regen", width), ("lo", lo), ("k", num_samples)))
    full = p.sample(lo, lo + width, derive_stream(key), count=num_samples)
    for index in range(num_samples):
        row = decode_block(p, lo, lo + width, num_samples, derive_stream(key), index)
        assert np.array_equal(row, full[index]), index


@pytest.mark.parametrize("kind", P_KINDS)
@pytest.mark.parametrize("chunk_floats", [1, 37 * 6, 37 * 9 + 5])
def test_chunked_encode_keeps_selections(kind, chunk_floats, monkeypatch):
    # width 37 is odd, so Gaussian tiles stay pair-aligned only because the
    # tiles hold an even number of rows (4, 4 and 8 here); 201 candidates
    # leave a ragged last tile in each case
    lo, hi, num_samples = 4, 41, 201
    q, p = _q_of_kind(kind, 45), _p_of_kind(kind, 45)
    key = StreamKey(80, (("chunks", len(kind)),))

    def encode():
        return [encode_block(q, p, lo, hi, num_samples,
                             derive_stream(key.child("shared", rep)),
                             derive_stream(key.child("select", rep)))
                for rep in range(12)]

    whole = encode()
    monkeypatch.setattr(codec, "ENCODE_CHUNK_FLOATS", chunk_floats)
    assert encode() == whole


def test_chunked_encode_memory_is_bounded():
    # K = 2^14 candidates of width 1024 would be a 128 MiB matrix; tiles of
    # ENCODE_CHUNK_FLOATS values keep the encoder to one tile and one chunk of
    # arrival times
    width, num_samples = 1024, 1 << 14
    q = BernoulliVector(np.linspace(0.45, 0.55, width))
    p = BernoulliVector(np.full(width, 0.5))
    key = StreamKey(81, (("bounded", 0),))
    full_matrix_bytes = num_samples * width * 8
    tracemalloc.start()
    try:
        k = encode_block(q, p, 0, width, num_samples,
                         derive_stream(key), derive_stream(key.child("select")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_matrix_bytes / 32, peak
    assert 0 <= k < num_samples


def test_encode_memory_does_not_grow_with_k():
    # K = 2^20 candidates of a 4-wide block: K weights and K arrival times
    # alone would be 16 MiB, where one tile and one chunk of arrival times
    # and scores peak near 1.3 MiB
    q = BernoulliVector(np.array([0.3, 0.45, 0.55, 0.7]))
    p = BernoulliVector(np.full(4, 0.5))
    key = StreamKey(90, (("huge-k", 0),))
    tracemalloc.start()
    try:
        k = encode_block(q, p, 0, 4, 1 << 20, derive_stream(key),
                         derive_stream(key.child("select")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 <= k < 1 << 20
    assert peak < 3 * 2**20, peak


def _fedpm_size_message(seed: int):
    # the fedpm MLP's codec setting: d = 2,210 in one Bernoulli block, and
    # K = 2^ceil((3 + 2) / ln 2) = 256 candidates
    params = params_with(target=3.0, r=2.0, max_block=4096)
    gen = derive_stream(StreamKey(84, (("fedpm-size", seed),)))
    q = BernoulliVector(0.5 + 0.3 * (2.0 * gen.uniforms(2210) - 1.0))
    p = BernoulliVector(0.5 + 0.3 * (2.0 * gen.uniforms(2210) - 1.0))
    return q, p, BlockPartition(2210, (0,)), params


def test_fedpm_size_encode_holds_one_tile():
    # the whole 256 x 2,210 candidate matrix would be 4.3 MiB
    q, p, partition, params = _fedpm_size_message(0)
    assert samples_per_block(params.d_kl_target, params)[0] == 256
    key = StreamKey(85, (("fedpm-peak", 0),))
    tracemalloc.start()
    try:
        upd, _ = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert upd.num_blocks == 1
    assert peak < 1.5 * 2**20, peak


def _whole_matrix_pick(q, p, num_samples, key):
    """The ordered random coding pick of a one-block message, from the whole
    K-row candidate matrix: argmin T_n / w_n, with arrival times T the running
    sums of -log(1 - u) over K uniforms of the block's selector stream."""
    shared, selector = codec._block_streams(key, 0)
    weights = selection_weights(q, p, 0, q.dim, p.sample(0, q.dim, shared, count=num_samples))
    arrivals = np.cumsum(-np.log1p(-selector.uniforms(num_samples)))
    # a weight that underflows to 0, or a ratio that overflows, never wins: the
    # largest weight is 1
    with np.errstate(divide="ignore", over="ignore"):
        return int(np.argmin(arrivals / weights))


def test_tiled_encode_picks_what_the_whole_matrix_picks(monkeypatch):
    # 20 one-block messages of 256 candidates for each kind: fedpm-size
    # Bernoulli pairs, and each other kind's pair 555 wide under 20 keys.  A
    # 2,210-wide block is 12-row tiles in one arrival chunk at the default
    # size (a 555-wide one 56-row tiles), one 256-row tile at 2^20 values,
    # and 4-row tiles in 13 arrival chunks of 20 rows (the last of 16) at 20
    # values, so there the clock is carried from chunk to chunk
    keys = [StreamKey(86, (("tiles", seed),)) for seed in range(20)]
    fedpm = [_fedpm_size_message(seed) for seed in range(20)]
    for kind in P_KINDS:
        pairs = ([message[:2] for message in fedpm] if kind == "bernoulli"
                 else [(_q_of_kind(kind, 555), _p_of_kind(kind, 555))] * 20)
        partition, params = BlockPartition(pairs[0][0].dim, (0,)), fedpm[0][3]
        whole = [_whole_matrix_pick(q, p, 256, key) for (q, p), key in zip(pairs, keys)]
        assert len(set(whole)) > 10, kind  # the 20 blocks pick apart
        for chunk_floats in (codec.ENCODE_CHUNK_FLOATS, 1 << 20, 20):
            monkeypatch.setattr(codec, "ENCODE_CHUNK_FLOATS", chunk_floats)
            tiled = [int(encode_update(q, p, partition, params, key,
                                       round_index=0, client_id=0)[0].indices[0])
                     for (q, p), key in zip(pairs, keys)]
            assert tiled == whole, (kind, chunk_floats)


def test_chunked_encode_builds_two_streams_per_block(monkeypatch):
    # each block's shared and selector streams and no other: the encoder
    # returns the index, so no chunked block replays its stream for a row
    params = params_with(target=2.0, r=1.0, max_block=8)
    q, p = make_bernoulli_pair(7, 20)
    partition = split_blocks_fixed(20, 8)
    key = StreamKey(83, (("streams", 0),))
    whole, _ = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
    monkeypatch.setattr(codec, "ENCODE_CHUNK_FLOATS", 16)  # 4 rows per tile
    built = []
    init = SampleStream.__init__

    def spy(self, stream_key):
        built.append(stream_key)
        init(self, stream_key)

    monkeypatch.setattr(SampleStream, "__init__", spy)
    chunked, _ = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
    assert len(built) == 2 * partition.num_blocks == 6
    assert np.array_equal(chunked.indices, whole.indices)


@pytest.mark.parametrize("kind", P_KINDS)
def test_decode_equals_a_full_regeneration_for_every_sent_index(kind):
    # 60 coordinates in blocks of 1 to 13; K = 2^ceil((3 + 2) / ln 2) = 256
    q, p = _q_of_kind(kind, 60), _p_of_kind(kind, 60)
    params = CodecParams(d_kl_target=3.0, overhead_r=2.0)
    partition = BlockPartition.from_lengths((1, 4, 13, 7, 2, 9, 11, 5, 8))
    for rep in range(4):
        key = StreamKey(87, (("regen-sent", len(kind)), ("rep", rep)))
        upd, cost = encode_update(q, p, partition, params, key, round_index=0, client_id=0,
                                  include_locations=True)
        blob = serialize_update(upd, params)
        assert len(blob) == math.ceil(cost.total_bits / 8)
        received = deserialize_update(blob, params)
        decoded = decode_update(p, None, params, key, received)
        for m, (lo, hi) in enumerate(partition.ranges()):
            shared = codec._block_streams(key, m)[0]
            full = p.sample(lo, hi, shared, count=256)
            assert np.array_equal(decoded[lo:hi], full[received.indices[m]]), (rep, m)


@pytest.mark.parametrize("kind", P_KINDS)
def test_a_block_whose_q_is_p_sends_index_0(kind):
    # equal weights: the earliest arrival, candidate 0, wins in every block,
    # and its code is one bit
    p = _p_of_kind(kind, 30)
    q = BinarySign(np.full(30, 0.5)) if kind == "uniform_sign" else p
    params = CodecParams(d_kl_target=3.0, overhead_r=2.0)
    partition = BlockPartition.from_lengths((10, 1, 19))
    upd, cost = encode_update(q, p, partition, params, StreamKey(88, (("same", len(kind)),)),
                              round_index=0, client_id=0)
    assert upd.indices.tolist() == [0, 0, 0] and cost.payload_bits == 3
