"""Codec oracles: sample budgets, partitioning, round trips, wire format.

Frozen values were worked out by hand from the budget rule
bits = ceil((kl + r)/ln 2) and the wire layout (header: a 1-bit location
flag, the 8-bit code of the mean block KL and the Elias-gamma block count).
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedklms import codec
from fedklms.codec import (
    BitCost,
    BlockPartition,
    CodecParams,
    EncodedUpdate,
    WireFormatError,
    ZeroMassCandidatesError,
    aggregate_block_locations,
    bit_cost,
    decode_block,
    decode_update,
    deserialize_update,
    encode_block,
    encode_update,
    next_partition,
    samples_per_block,
    selection_weights,
    serialize_update,
    should_update_partition,
    split_blocks_adaptive,
    split_blocks_fixed,
)
from fedklms.distributions import (
    BernoulliVector,
    BinarySign,
    DiagonalGaussian,
    TernaryPattern,
    UniformSign,
    kl_per_coordinate,
)
from fedklms.streams import SampleStream, StreamKey, derive_stream
from reference import split_starts


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


def test_all_zero_mass_raises():
    # q demands a value p will never produce
    q = BernoulliVector(np.ones(1))
    p = BernoulliVector(np.zeros(1))
    key = StreamKey(18, (("azm", 0),))
    with pytest.raises(ZeroMassCandidatesError):
        encode_block(q, p, 0, 1, 8, derive_stream(key), derive_stream(key.child("s")))


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
    # bits=2 needs target+r in (ln2, 2 ln2]; d=4 split into 2 blocks
    params = params_with(target=1.2, max_block=2)
    assert params.index_bits == 2
    q, p = make_bernoulli_pair(0, 4)
    part = split_blocks_fixed(4, 2)
    key = StreamKey(3, (("cf", 0),))
    upd, cost = encode_update(q, p, part, params, key, round_index=0, client_id=0)
    assert cost.payload_bits == 4
    assert cost.header_bits == 12  # 1 + 8 + gamma(2) = 3
    assert cost.location_bits == 0
    assert cost.total_bits == 16
    assert cost.total_bits / q.dim == pytest.approx(16 / 4)


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
    cost = bit_cost(3, params, includes_locations=True)
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


def _kl_of(code):
    """The KL an 8-bit wire code stands for: exactly 0 for code 0, else
    2^((code - 128) / 8) nats."""
    return 0.0 if code == 0 else 2.0 ** ((code - 128) / 8)


def _wire_kl_code(kl):
    """The code a one-block update with this mean block KL sends: bits 1-8,
    after the location flag."""
    upd = EncodedUpdate(avg_block_kl=kl, indices=np.array([0]))
    blob = serialize_update(upd, params_with(target=1.2))
    return int.from_bytes(blob[:2], "big") >> 7 & 0xFF


def test_avg_block_kl_code_grid():
    params = params_with(target=1.2)
    for code in range(256):
        kl = _kl_of(code)
        upd = EncodedUpdate(avg_block_kl=kl, indices=np.array([1]))
        assert upd.avg_block_kl == kl  # a grid point stays as it is
        assert _wire_kl_code(kl) == code  # code -> KL -> code
        back = deserialize_update(serialize_update(upd, params), params)
        assert back.avg_block_kl == kl
    # past both ends of the grid, 1.6e-5 and 6.0e4 nats
    kls = np.geomspace(1e-7, 1e6, 4001)
    codes = np.array([_wire_kl_code(kl) for kl in kls])
    assert np.all(np.diff(codes) >= 0)
    assert codes[0] == 1 and codes[-1] == 255
    inside = (kls >= _kl_of(1)) & (kls <= _kl_of(255))
    snapped = np.array([EncodedUpdate(avg_block_kl=kl, indices=np.array([0])).avg_block_kl
                        for kl in kls[inside]])
    assert np.all(np.abs(snapped / kls[inside] - 1.0) <= 2.0 ** (1 / 16) - 1.0)
    assert _wire_kl_code(0.0) == 0 and _wire_kl_code(1e300) == 255
    # the encoder's KL is the mean block KL, snapped to the grid
    q, p = make_bernoulli_pair(3, 6)
    upd, _ = encode_update(q, p, split_blocks_fixed(6, 3), params_with(target=2.0),
                           StreamKey(30, (("f32", 0),)), round_index=0, client_id=0)
    mean = kl_per_coordinate(q, p).reshape(2, 3).sum(axis=1).mean()
    assert upd.avg_block_kl == EncodedUpdate(avg_block_kl=mean,
                                             indices=np.array([0])).avg_block_kl


@pytest.mark.parametrize("kl", [-1.0, math.nan, math.inf])
def test_avg_block_kl_refuses_values_without_a_code(kl):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        EncodedUpdate(avg_block_kl=kl, indices=np.array([0]))


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


def _gaussian_update(*distances):
    """Encode one block of Gaussian coordinates whose client and global means
    lie the given distances apart, so each has KL distance^2 / 2."""
    half = np.array(distances) / 2
    q = DiagonalGaussian(half, 1.0)
    p = DiagonalGaussian(-half, 1.0)
    return encode_update(q, p, split_blocks_fixed(half.size, half.size), params_with(target=2.0),
                         StreamKey(32, (("inf", 0),)), round_index=0, client_id=0)


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


@pytest.mark.parametrize("distance, code", [
    (1e154, 255),  # 5e307 nats, past the top of the grid
    (1e-4, 1),  # 5e-9 nats, below its lowest nonzero point
])
def test_avg_block_kl_saturates(distance, code):
    upd, _ = _gaussian_update(0.0, distance)
    assert upd.avg_block_kl == _kl_of(code)


# --- partition update rule --------------------------------------------------


def test_should_update_partition_strict():
    params = params_with(target=1.0, kl_min=0.5, kl_max=2.0)
    assert not should_update_partition(2.0, params)  # boundary: not strict above
    assert not should_update_partition(0.5, params)
    assert should_update_partition(2.0000001, params)
    assert should_update_partition(0.4999999, params)
    assert not should_update_partition(1.0, params)


def _update(avg_block_kl, block_lengths=None):
    indices = np.zeros(len(block_lengths or (1,)), dtype=np.int64)
    return EncodedUpdate(avg_block_kl=avg_block_kl, indices=indices,
                         block_lengths=block_lengths)


def test_next_partition_merges_the_shipped_lengths():
    params = params_with(target=1.0, max_block=40)
    updates = [_update(1.0, (10, 10, 20)), _update(1.0, (12, 12, 6, 10))]
    merged = next_partition(None, updates, params)
    assert merged == aggregate_block_locations(
        [BlockPartition(dim=40, starts=(0, 10, 20)),
         BlockPartition(dim=40, starts=(0, 12, 24, 30))], max_block_size=40)
    assert merged.starts == (0, 11, 22, 30)


# each KL is a point of the 8-bit wire code's grid, so each mean is exact
@pytest.mark.parametrize("kls, kept", [
    pytest.param((1.0, 1.0), True, id="keep-inside"),
    pytest.param((0.0, 4.0), True, id="keep-mean-at-upper-edge"),
    pytest.param((0.0, 1.0), True, id="keep-mean-at-lower-edge"),
    pytest.param((1.0, 4.0), False, id="drop-above"),
    pytest.param((0.25, 0.5), False, id="drop-below"),
])
def test_next_partition_keeps_or_drops(kls, kept):
    params = params_with(target=1.0, kl_min=0.5, kl_max=2.0)
    part = BlockPartition(dim=8, starts=(0, 4))
    updates = [_update(kl) for kl in kls]
    assert [u.avg_block_kl for u in updates] == list(kls)
    assert next_partition(part, updates, params) is (part if kept else None)


# --- wire format ------------------------------------------------------------


def test_serialize_empty_update_length():
    # a partition has at least one block, and gamma has no code for zero
    with pytest.raises(ValueError, match="at least one block"):
        EncodedUpdate(avg_block_kl=0.25, indices=np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="positive"):
        bit_cost(0, params_with(target=1.2), includes_locations=False)


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


@settings(max_examples=60)
@given(
    st.integers(1, 20),
    st.booleans(),
    st.integers(1, 10),
    st.floats(0.0, 100.0),
)
def test_wire_round_trip(num_blocks, include, max_pow, kl):
    rng = np.random.default_rng(num_blocks)
    max_block = 2**max_pow
    params = params_with(target=3.0, r=1.0, max_block=max_block)
    indices = rng.integers(0, 2**params.index_bits, num_blocks)
    lengths = tuple(int(x) for x in rng.integers(1, max_block + 1, num_blocks))
    upd = EncodedUpdate(
        avg_block_kl=kl,
        indices=indices,
        block_lengths=lengths if include else None,
    )
    blob = serialize_update(upd, params)
    back = deserialize_update(blob, params)
    assert back.avg_block_kl == upd.avg_block_kl
    assert back.num_blocks == upd.num_blocks
    assert np.array_equal(back.indices, upd.indices)
    assert back.includes_locations == upd.includes_locations
    assert back.block_lengths == upd.block_lengths


@settings(max_examples=30, deadline=None)
@given(
    num_blocks=st.integers(1, 5000),
    index_bits=st.integers(1, 63),
    max_pow=st.integers(0, 20),
    include=st.booleans(),
    kl=st.integers(0, 255).map(_kl_of),
    seed=st.integers(0, 2**32 - 1),
)
def test_wire_property(num_blocks, index_bits, max_pow, include, kl, seed):
    """Exact round trip, wire length equal to the accounting, every proper
    prefix refused at an offset inside it, and trailing bytes refused."""
    # ceil(index_bits - 1/2) = index_bits
    params = CodecParams(d_kl_target=(index_bits - 0.5) * math.log(2.0),
                         max_block_size=2**max_pow)
    assert params.index_bits == index_bits
    rng = np.random.default_rng(seed)
    lengths = tuple(int(x) for x in rng.integers(1, 2**max_pow + 1, num_blocks))
    upd = EncodedUpdate(
        avg_block_kl=kl,
        indices=np.full(num_blocks, 2**index_bits - 1),  # all-ones fields
        block_lengths=lengths if include else None,
    )
    blob = serialize_update(upd, params)
    assert len(blob) == math.ceil(bit_cost(num_blocks, params, include).total_bits / 8)
    back = deserialize_update(blob, params)
    assert back.avg_block_kl == kl
    assert np.array_equal(back.indices, upd.indices)
    assert back.block_lengths == upd.block_lengths
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
    upd = EncodedUpdate(
        avg_block_kl=0.0,
        indices=np.array([0, 1]),
    )
    blob = serialize_update(upd, params)
    with pytest.raises(WireFormatError) as err:
        deserialize_update(blob[:-1], params)
    assert err.value.byte_offset <= len(blob) - 1


@pytest.mark.parametrize("size, match", [
    (5, "truncated"),  # the zero run of the block count reaches the end
    (20, "64 or more leading zeros"),  # 2^64 blocks or more
])
def test_deserialize_refuses_unterminated_block_count(size, match):
    # every bit zero: no location flag, KL code 0, and a gamma code with no 1
    with pytest.raises(WireFormatError, match=match) as err:
        deserialize_update(bytes(size), params_with(target=1.2))
    assert err.value.byte_offset == 1  # where the block count starts, bit 9


def test_deserialize_refuses_a_body_longer_than_the_message():
    # location flag, KL code 0 and the gamma code of 2^62 (62 zeros, a 1, 62
    # zeros) fill 134 of 136 bits.  Zero-width length fields take no room,
    # so the 2^62 8-bit index fields are the first that do not fit; the body
    # is refused before any of it is read, not by allocating 2^62 fields
    params = CodecParams(d_kl_target=3.0, overhead_r=2.0, max_block_size=1)
    assert (params.length_field_bits, params.index_bits) == (0, 8)
    blob = int("1" + "0" * 70 + "1" + "0" * 64, 2).to_bytes(17, "big")
    with pytest.raises(WireFormatError, match="truncated") as err:
        deserialize_update(blob, params)
    assert err.value.byte_offset == 16  # the first index field starts at bit 134


def test_deserialize_overlong():
    params = params_with(target=1.2)
    upd = EncodedUpdate(
        avg_block_kl=0.0,
        indices=np.array([0]),
    )
    blob = serialize_update(upd, params) + b"\x00\x00"
    with pytest.raises(WireFormatError):
        deserialize_update(blob, params)


# the ids are the ones these cases had when two header-field cases came first
@pytest.mark.parametrize("field, value, match", [
    # index fields are 5 bits wide
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
    pytest.param(dict(indices=[1], block_lengths=(5.5,)), "integer length",
                 id="float-length"),
    pytest.param(dict(indices=[1], block_lengths=(True,)), "integer length",
                 id="bool-length"),
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


def _wire_params(max_block):
    # index fields 5 bits wide: ceil((2 + 1) / ln 2)
    return CodecParams(d_kl_target=2.0, overhead_r=1.0, max_block_size=max_block)


# Bytes and truncation offsets recorded from the writer and reader when the
# header became a 1-bit location flag, the 8-bit KL code and the gamma-coded
# block count; indices_only was also worked out by hand.  offsets[n] is the byte_offset of the WireFormatError raised for the
# first n bytes of the message.  A case without bytes is one the codec refuses.
WIRE_GOLDEN = {
    "indices_only": (
        _wire_params(64),
        dict(avg_block_kl=1.25, indices=np.array([0, 31, 5, 17, 8])),
        "41941f2c50",
        [0, 0, 1, 3, 3],
    ),
    "with_locations": (
        _wire_params(20),
        dict(avg_block_kl=3.5, indices=np.array([1, 30, 12]), block_lengths=(20, 1, 7)),
        "c73980c1f300",
        [0, 0, 1, 2, 4, 4],
    ),
    "zero_width_lengths": (
        _wire_params(1),
        dict(avg_block_kl=0.0, indices=np.array([3, 0, 31, 16]), block_lengths=(1, 1, 1, 1)),
        "801060fc00",
        [0, 0, 1, 3, 3],
    ),
    "many_blocks": (
        _wire_params(20),
        dict(avg_block_kl=2.75, indices=np.arange(40) * 7 % 32,
             block_lengths=tuple(i * 3 % 20 + 1 for i in range(40))),
        "c602800cc963e4121d4d84c4542dd100cc963e4121d4d84c4542dd101dd5e0d51c7ccda6c498"
        "5fc564f4143edd22e5901dd5e0d510",
        [0, 0, 1, 2, 3, 5, 5, 6, 7, 8, 10, 10, 11, 12, 13, 15, 15, 16, 17, 18, 20, 20,
         21, 22, 23, 25, 25, 26, 27, 28, 30, 30, 31, 32, 33, 35, 35, 36, 37, 38, 40, 40,
         41, 42, 43, 45, 45, 46, 47, 48, 50, 50, 51],
    ),
    "no_blocks": (
        _wire_params(64),
        dict(avg_block_kl=0.5, indices=np.array([], dtype=np.int64)),
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
    assert back.avg_block_kl == upd.avg_block_kl


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


def _located_message(lengths):
    """Locations, KL code 0, the gamma code of 3 blocks, a 5-bit length field
    per block (holding length - 1) and 5-bit indices of 1, zero-padded."""
    fields = "1" + "0" * 8 + "011" + "".join(f"{n - 1:05b}" for n in lengths) + "00001" * 3
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
    assert err.value.byte_offset == 2  # the second length field starts at bit 17


@settings(max_examples=300)
@given(data=st.binary(max_size=64), locations=st.booleans(),
       max_block=st.sampled_from([1, 2, 20, 64, 4096]))
@example(data=_located_message((20, 32, 1)), locations=True, max_block=20)
def test_deserialize_accepts_only_what_serialize_writes(data, locations, max_block):
    """Arbitrary bytes are refused, or they re-serialize to themselves with
    the pad bits cleared."""
    if data:
        data = bytes([data[0] | 0x80 if locations else data[0] & 0x7F]) + data[1:]
    params = _wire_params(max_block)
    try:
        upd = deserialize_update(data, params)
    except WireFormatError:
        return
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits[bit_cost(upd.num_blocks, params, upd.includes_locations).total_bits:] = 0
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
# (indices SHA-256, decoded vector SHA-256), recorded before the encoder's
# log-weights became affine and the decoder began skipping to the indexed row;
# the Bernoulli cases re-recorded when Bernoulli candidates moved to 32-bit words
SELECTION_GOLDEN = {
    "bernoulli": (
        "175e92972d9d1a936616af615be79d2623221bd1eb405539a874a531261ed890",
        "deadf3c1e92cd8a59b30da2cfabeceeeaf53e42fd104b086e76d073a877dd96f",
    ),
    "ternary": (
        "724f5fd3e6f72c0c378001efd79828770856278d35ad7fbcb37093290e33975b",
        "960c2517b7f516db448ff61848385c6de411c2379914994045ac5126794983cd",
    ),
    "sign": (
        "1e801cbc52dcd38e7de315aa86d71be69deb1dfb00a9e5453c1d2fd00cce0ded",
        "416ef9b0578327da13fbb7faff151052310b3132a9c0271bb66ff87382dcf4bf",
    ),
    "gaussian": (
        "f80311ea0416729b196e719a6d310c921363786f7af1a188ad6862b21946d5b3",
        "5d6eec8bde2b14674264241d35310c61e600245f42e9259b634c68e02dfab37c",
    ),
    "bernoulli_k4096": (
        "84426d23f5232cdc3874a0d1eee5d8eae12cc7bfe6d944426336329bc6b496f3",
        "841cd8faac6202dadfb201a1df76ed287fbbd071e1540bba0bb1a6c068143225",
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
    # width 37 is odd, so Gaussian chunks stay pair-aligned only because the
    # chunks hold an even number of rows (2, 6 and 8 here); 201 candidates
    # leave a ragged last chunk in each case
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


def test_chunked_encode_memory_is_bounded(monkeypatch):
    # K = 2^14 candidates of width 1024 would be a 128 MiB matrix; chunks of
    # 2^16 values keep the encoder to a few MiB
    monkeypatch.setattr(codec, "ENCODE_CHUNK_FLOATS", 1 << 16)
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


def test_chunked_encode_builds_two_streams_per_block(monkeypatch):
    # each block's shared and selector streams and no other: the encoder
    # returns the index, so no chunked block replays its stream for a row
    params = params_with(target=2.0, r=1.0, max_block=8)
    q, p = make_bernoulli_pair(7, 20)
    partition = split_blocks_fixed(20, 8)
    key = StreamKey(83, (("streams", 0),))
    whole, _ = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
    monkeypatch.setattr(codec, "ENCODE_CHUNK_FLOATS", 16)  # 2 or 4 rows per chunk
    built = []
    init = SampleStream.__init__

    def spy(self, stream_key):
        built.append(stream_key)
        init(self, stream_key)

    monkeypatch.setattr(SampleStream, "__init__", spy)
    chunked, _ = encode_update(q, p, partition, params, key, round_index=0, client_id=0)
    assert len(built) == 2 * partition.num_blocks == 6
    assert np.array_equal(chunked.indices, whole.indices)


# --- affine log-weights ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["ternary", "uniform_sign"])
def test_all_zero_mass_block_raises_for_every_discrete_kind(kind):
    # q forbids an outcome at every coordinate that p draws often
    dim = 12
    if kind == "ternary":
        q = TernaryPattern(np.zeros(dim), np.ones(dim), np.zeros(dim))
        p = TernaryPattern(np.full(dim, 0.5), np.zeros(dim), np.full(dim, 0.5))
    else:
        q, p = BinarySign(np.ones(dim)), UniformSign(dim)
    key = StreamKey(82, (("allzero", len(kind)),))
    with pytest.raises(ZeroMassCandidatesError):
        encode_block(q, p, 0, dim, 4, derive_stream(key), derive_stream(key.child("s")))
