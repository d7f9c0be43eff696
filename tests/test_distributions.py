"""Distribution oracles: closed forms against hand-derived constants and
brute-force enumeration.

The enumeration helpers are the independent route: they know nothing about the
closed-form KL, only how to walk a small discrete support and sum masses.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedklms.distributions import (
    AbsoluteContinuityError,
    BernoulliVector,
    BinarySign,
    DiagonalGaussian,
    TernaryPattern,
    UniformSign,
    kl_per_coordinate,
    log_ratio,
)
from fedklms.streams import StreamKey, derive_stream
from reference import bernoulli_sample, kl_block, log_mass, scaled, ternary_sample


def enumerate_support(dist):
    """All support points of a small discrete product distribution."""
    if isinstance(dist, BernoulliVector):
        per_coord = [(0.0, 1.0)] * dist.dim
    elif isinstance(dist, TernaryPattern):
        per_coord = [(-1.0, 0.0, 1.0)] * dist.dim
    elif isinstance(dist, (BinarySign, UniformSign)):
        per_coord = [(-1.0, 1.0)] * dist.dim
    else:
        raise TypeError(f"not enumerable: {type(dist).__name__}")
    for point in itertools.product(*per_coord):
        yield np.array(point)


def enumerated_total_mass(dist):
    return sum(np.exp(log_mass(dist, 0, dist.dim, x)) for x in enumerate_support(dist))


def enumerated_kl(q, p, lo, hi):
    """Sum_x q(x) (log q(x) - log p(x)) over the restricted support."""
    total = 0.0
    width = hi - lo
    if isinstance(q, BernoulliVector):
        sub = BernoulliVector(q.probs[lo:hi])
    elif isinstance(q, TernaryPattern):
        sub = TernaryPattern(q.p_neg[lo:hi], q.p_zero[lo:hi], q.p_pos[lo:hi])
    elif isinstance(q, BinarySign):
        sub = BinarySign(q.p_plus[lo:hi])
    else:
        raise TypeError(type(q).__name__)
    for x in enumerate_support(sub):
        lq = log_mass(q, lo, hi, x)
        if np.isneginf(lq):
            continue
        lp = log_mass(p, lo, hi, x)
        total += np.exp(lq) * (lq - lp)
    assert width == sub.dim
    return total


# hand-derived constants
LOG_HALF_SQ = -1.3862943611198906  # 2 ln 0.5
# Bernoulli(0.9) is Bernoulli(t) with t = floor(0.9 * 2^32) / 2^32 = 3865470566 / 2^32
LOG_09 = -0.10536051576130659  # ln t
STD_NORMAL_AT_0 = -0.9189385332046727  # -0.5 ln(2 pi)
KL_BERN_09_05 = 0.3680642069638646  # t ln 2t + (1 - t) ln 2(1 - t)


def test_bernoulli_log_mass_frozen():
    d = BernoulliVector(np.array([0.5, 0.5]))
    assert log_mass(d, 0, 2, np.array([0.0, 1.0])) == pytest.approx(LOG_HALF_SQ, abs=1e-12)
    d9 = BernoulliVector(np.array([0.9]))
    assert log_mass(d9, 0, 1, np.array([1.0])) == pytest.approx(LOG_09, abs=1e-12)


def test_gaussian_log_density_frozen():
    g = DiagonalGaussian(np.zeros(1), 1.0)
    assert log_mass(g, 0, 1, np.array([0.0])) == pytest.approx(STD_NORMAL_AT_0, abs=1e-12)


def test_zero_mass_is_neg_inf_not_error():
    d = BernoulliVector(np.array([1.0]))
    assert np.isneginf(log_mass(d, 0, 1, np.array([0.0])))
    t = TernaryPattern(np.array([0.0]), np.array([1.0]), np.array([0.0]))
    assert np.isneginf(log_mass(t, 0, 1, np.array([1.0])))


def test_kl_bernoulli_frozen():
    q = BernoulliVector(np.array([0.9]))
    p = BernoulliVector(np.array([0.5]))
    assert kl_per_coordinate(q, p)[0] == pytest.approx(KL_BERN_09_05, abs=1e-12)


def test_kl_gaussian_frozen():
    q = DiagonalGaussian(np.array([0.8]), 1.0)
    p = DiagonalGaussian(np.array([0.0]), 1.0)
    assert kl_per_coordinate(q, p)[0] == pytest.approx(0.32, abs=1e-15)


def test_kl_equal_distributions_is_zero():
    q = BernoulliVector(np.array([0.3, 0.7, 1.0, 0.0]))
    assert kl_block(q, q, 0, 4) == 0.0


def test_kl_sign_vs_uniform():
    q = BinarySign(np.array([0.5]))
    p = UniformSign(1)
    assert kl_per_coordinate(q, p)[0] == pytest.approx(0.0, abs=1e-15)
    q2 = BinarySign(np.array([1.0]))
    assert kl_per_coordinate(q2, p)[0] == pytest.approx(np.log(2.0), abs=1e-15)


def test_absolute_continuity_violation_raises():
    q = BernoulliVector(np.array([0.5]))
    p = BernoulliVector(np.array([0.0]))
    with pytest.raises(AbsoluteContinuityError):
        kl_per_coordinate(q, p)
    # hard 1 on both sides is fine: no client mass outside global support
    both_one = BernoulliVector(np.array([1.0]))
    assert kl_per_coordinate(both_one, both_one)[0] == 0.0


def test_incompatible_kinds_raise():
    with pytest.raises(ValueError):
        kl_per_coordinate(BernoulliVector(np.array([0.5])), UniformSign(1))
    with pytest.raises(ValueError):
        kl_per_coordinate(
            BernoulliVector(np.array([0.5])), BernoulliVector(np.array([0.5, 0.5]))
        )
    with pytest.raises(ValueError):
        kl_per_coordinate(
            DiagonalGaussian(np.zeros(2), 1.0), DiagonalGaussian(np.zeros(2), 2.0)
        )


def test_ternary_validation():
    with pytest.raises(ValueError):
        TernaryPattern(np.array([0.5]), np.array([0.5]), np.array([0.5]))


# --- non-finite inputs are refused, naming the first bad coordinate -----------

_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("probs,bad", [
    ([0.5, _NAN], 1), ([_NAN, _NAN], 0), ([0.2, 0.3, _INF], 2), ([-_INF, 0.5], 0),
    ([0.5, 1.5, _NAN], 1),
])
def test_bernoulli_refuses_non_finite(probs, bad):
    with pytest.raises(ValueError, match=f"coordinate {bad} is"):
        BernoulliVector(np.array(probs))


@pytest.mark.parametrize("p_plus,bad", [
    ([_NAN, 0.5], 0), ([0.5, 0.5, _NAN], 2), ([0.5, _INF], 1), ([-_INF], 0),
])
def test_binary_sign_refuses_non_finite(p_plus, bad):
    with pytest.raises(ValueError, match=f"coordinate {bad} is"):
        BinarySign(np.array(p_plus))


@pytest.mark.parametrize("which,bad", [(0, 0), (0, 2), (1, 1), (2, 2)])
@pytest.mark.parametrize("value", [_NAN, _INF, -_INF])
def test_ternary_refuses_non_finite(which, bad, value):
    probs = [np.full(3, 0.25), np.full(3, 0.5), np.full(3, 0.25)]
    probs[which][bad] = value
    with pytest.raises(ValueError, match=f"must be finite: coordinate {bad} is"):
        TernaryPattern(*probs)


@pytest.mark.parametrize("magnitude", [_NAN, _INF, -1.0])
def test_ternary_refuses_bad_magnitude(magnitude):
    third = np.full(2, 1.0 / 3.0)
    with pytest.raises(ValueError, match="magnitude"):
        TernaryPattern(third, third, third, magnitude=magnitude)


@pytest.mark.parametrize("mean,bad", [
    ([0.0, _NAN], 1), ([_INF, 0.0], 0), ([0.0, 1.0, -_INF], 2),
])
def test_gaussian_refuses_non_finite_mean(mean, bad):
    with pytest.raises(ValueError, match=f"coordinate {bad} is"):
        DiagonalGaussian(np.array(mean), 1.0)


@pytest.mark.parametrize("dim", [2.5, 3.0, True, 0, -1])
def test_uniform_sign_refuses_a_dimension_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        UniformSign(dim)


@pytest.mark.parametrize("sigma", [_INF, _NAN, 0.0, -1.0])
def test_gaussian_refuses_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        DiagonalGaussian(np.zeros(2), sigma)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_bernoulli_mass_sums_to_one(seed, dim):
    rng = np.random.default_rng(seed)
    d = BernoulliVector(rng.random(dim))
    assert enumerated_total_mass(d) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_ternary_mass_sums_to_one(seed, dim):
    rng = np.random.default_rng(seed)
    raw = rng.random((3, dim))
    raw /= raw.sum(axis=0)
    d = TernaryPattern(raw[0], raw[1], raw[2])
    assert enumerated_total_mass(d) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_sign_mass_sums_to_one(seed, dim):
    rng = np.random.default_rng(seed)
    assert enumerated_total_mass(BinarySign(rng.random(dim))) == pytest.approx(
        1.0, abs=1e-9
    )
    assert enumerated_total_mass(UniformSign(dim)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_kl_block_matches_enumeration(seed, dim):
    # closed form vs brute force: the two independent routes must agree
    rng = np.random.default_rng(seed)
    q = BernoulliVector(rng.uniform(0.05, 0.95, dim))
    p = BernoulliVector(rng.uniform(0.05, 0.95, dim))
    lo, hi = 0, dim
    assert kl_block(q, p, lo, hi) == pytest.approx(
        enumerated_kl(q, p, lo, hi), abs=1e-9
    )


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_ternary_kl_matches_enumeration(seed, dim):
    rng = np.random.default_rng(seed)
    raws = []
    for _ in range(2):
        raw = rng.uniform(0.05, 1.0, (3, dim))
        raw /= raw.sum(axis=0)
        raws.append(raw)
    q = TernaryPattern(*raws[0])
    p = TernaryPattern(*raws[1])
    assert kl_block(q, p, 0, dim) == pytest.approx(enumerated_kl(q, p, 0, dim), abs=1e-9)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_kl_is_nonnegative(seed, dim):
    rng = np.random.default_rng(seed)
    q = BernoulliVector(rng.random(dim))
    p = BernoulliVector(rng.uniform(1e-6, 1.0 - 1e-6, dim))
    assert kl_block(q, p, 0, dim) >= -1e-12
    g_q = DiagonalGaussian(rng.normal(size=dim), 1.5)
    g_p = DiagonalGaussian(rng.normal(size=dim), 1.5)
    assert kl_block(g_q, g_p, 0, dim) >= -1e-12


def test_ternary_scale_invariance():
    # pattern-level mass is unchanged by any magnitude, bit for bit
    probs = (np.array([0.2, 0.5]), np.array([0.3, 0.25]), np.array([0.5, 0.25]))
    x = np.array([1.0, -1.0])
    small = TernaryPattern(*probs, magnitude=1.0)
    large = TernaryPattern(*probs, magnitude=7.25)
    assert log_mass(small, 0, 2, x) == log_mass(large, 0, 2, x)
    assert np.array_equal(scaled(large, x), 7.25 * x)


def test_sampling_matches_marginals():
    # Bernoulli(0.25) empirical frequency over 10^5 draws
    d = BernoulliVector(np.array([0.25]))
    s = derive_stream(StreamKey(11, (("bern", 0),)))
    x = d.sample(0, 1, s, count=10**5)
    assert x.mean() == pytest.approx(0.25, abs=0.01)

    t = TernaryPattern(np.array([0.2]), np.array([0.5]), np.array([0.3]))
    s = derive_stream(StreamKey(11, (("tern", 0),)))
    y = t.sample(0, 1, s, count=10**5).ravel()
    assert (y == -1).mean() == pytest.approx(0.2, abs=0.01)
    assert (y == 0).mean() == pytest.approx(0.5, abs=0.01)

    g = DiagonalGaussian(np.array([2.0]), 0.5)
    s = derive_stream(StreamKey(11, (("gauss", 0),)))
    z = g.sample(0, 1, s, count=10**5).ravel()
    assert z.mean() == pytest.approx(2.0, abs=0.01)
    assert z.std() == pytest.approx(0.5, abs=0.01)


def test_ternary_sample_matches_masked_reference_bit_for_bit():
    # every coordinate kind: certain outcomes, one impossible outcome in each
    # position, and three open ones
    gen = derive_stream(StreamKey(12, (("tern-ref", 0),)))
    x = gen.uniforms(60)
    cases = [
        (np.ones_like(x), 0 * x, 0 * x), (0 * x, np.ones_like(x), 0 * x),
        (0 * x, 0 * x, np.ones_like(x)), (0 * x, x, 1.0 - x), (x, 0 * x, 1.0 - x),
        (x, 1.0 - x, 0 * x), (0.5 * x, 0.5 * (1.0 - x), 0.5 + 0.0 * x),
    ]
    dist = TernaryPattern(*(np.concatenate(c) for c in zip(*cases)))
    for lo, hi, count, start in ((0, dist.dim, 64, 0), (7, 311, 33, 5), (59, 60, 1000, 3)):
        key = StreamKey(12, (("tern-ref", 1), ("lo", lo)))
        ours = dist.sample(lo, hi, derive_stream(key), count=count, start=start)
        ref = ternary_sample(dist, lo, hi, derive_stream(key), count=count, start=start)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_bernoulli_law_is_on_the_32_bit_grid(probs):
    given_probs = np.array(probs)
    law = BernoulliVector(given_probs).probs
    thresholds = law * 2.0**32
    assert np.array_equal(thresholds, np.floor(thresholds))
    assert np.all((law <= given_probs) & (given_probs - law < 2.0**-32))


def test_bernoulli_certain_coordinates():
    # thresholds 0 and 2^32: no word is below the first, every word below the second
    d = BernoulliVector(np.array([0.0, 1.0, 0.5, 1.0, 0.0, 1e-10]))
    assert d.probs[0] == 0.0 and d.probs[1] == 1.0 and d.probs[5] == 0.0
    key = StreamKey(15, (("certain", 0),))
    x = d.sample(0, 6, derive_stream(key), count=5000)
    assert (x[:, [0, 4, 5]] == 0.0).all() and (x[:, [1, 3]] == 1.0).all()
    assert 0 < x[:, 2].sum() < 5000
    row = d.sample(1, 4, derive_stream(key), start=7)  # an odd half-word start
    assert row[0, 0] == 1.0 and row[0, 2] == 1.0


@pytest.mark.parametrize("start", [0, 3])
def test_bernoulli_sample_matches_per_call_threshold_reference(start):
    # each edge of the grid: 0, a probability that rounds to 0, one half,
    # the top grid point below 1, and 1 (threshold 2^32), three times over,
    # so that width 15 and start 3 begin at an odd half-word
    probs = np.array([0.0, 2.0**-33, 0.5, 1.0 - 2.0**-32, 1.0])
    dist = BernoulliVector(np.tile(probs, 3))
    for lo, hi, count in ((0, 15, 5000), (2, 9, 7), (4, 5, 1)):
        key = StreamKey(17, (("bern-ref", start), ("lo", lo)))
        ours = dist.sample(lo, hi, derive_stream(key), count=count, start=start)
        ref = bernoulli_sample(dist, lo, hi, derive_stream(key), count=count, start=start)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("p", [1e-6, 0.3, 0.5])
def test_bernoulli_frequency_matches_grid_law(p):
    # 10^6 draws: 1000 candidates of 1000 coordinates
    d = BernoulliVector(np.full(1000, p))
    x = d.sample(0, 1000, derive_stream(StreamKey(16, (("freq", round(p * 1e6)),))),
                 count=1000)
    law = d.probs[0]
    sigma = np.sqrt(law * (1.0 - law) / x.size)
    assert abs(x.mean() - law) <= 4.0 * sigma


def test_sample_draw_counts_are_range_local():
    # sampling [2, 5) must not depend on coordinates outside the range
    d = BernoulliVector(np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
    key = StreamKey(12, (("rl", 0),))
    a = d.sample(2, 5, derive_stream(key), count=3)
    d2 = BernoulliVector(np.array([0.9, 0.9, 0.3, 0.4, 0.5, 0.9]))
    b = d2.sample(2, 5, derive_stream(key), count=3)
    assert np.array_equal(a, b)


def test_bernoulli_sample_holds_one_candidate_matrix():
    # the fedpm MLP block: K = 256 candidates of width 2210
    d = BernoulliVector(np.full(2210, 0.3))
    stream = derive_stream(StreamKey(13, (("peak", 0),)))
    tracemalloc.start()
    try:
        x = d.sample(0, 2210, stream, count=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.dtype == np.float64 and set(np.unique(x)) <= {0.0, 1.0}
    assert peak < 1.5 * x.nbytes


def test_range_validation():
    d = BernoulliVector(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        log_mass(d, 0, 3, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        log_mass(d, 1, 1, np.array([]))
    with pytest.raises(ValueError):
        log_mass(d, 0, 2, np.array([0.0, 0.5]))  # off-support value


# --- affine log-ratio -------------------------------------------------------------


def _ratio_pairs():
    """Codec pairs over 40 coordinates with exact zeros and ones in them."""
    gen = derive_stream(StreamKey(14, (("ratio", 0),)))
    u = lambda: gen.uniforms(40)
    bern_q, bern_p = 0.05 + 0.9 * u(), 0.1 + 0.8 * u()
    bern_q[[3, 11]], bern_q[[4, 30]] = 0.0, 1.0  # q forbids an outcome p draws
    bern_p[[7, 8]], bern_p[[9, 10]] = 0.0, 1.0  # p never draws one outcome
    bern_q[7], bern_q[9] = 0.0, 1.0
    neg, zero = 0.4 * u(), 0.4 * u()
    neg[[5, 21]] = 0.0
    zero[6] = 0.0
    tern_p_neg = np.full(40, 0.3)
    tern_p_neg[[12, 21]] = 0.0
    tern_p = TernaryPattern(tern_p_neg, np.full(40, 0.35), 0.65 - tern_p_neg)
    plus = u()
    plus[[2, 17]], plus[[18]] = 0.0, 1.0
    mean = gen.gaussians(40)
    return {
        "bernoulli": (BernoulliVector(bern_q), BernoulliVector(bern_p)),
        "ternary": (TernaryPattern(neg, zero, 1.0 - neg - zero), tern_p),
        "sign": (BinarySign(plus), UniformSign(40)),
        "gaussian": (DiagonalGaussian(mean, 0.8), DiagonalGaussian(0.3 * mean, 0.8)),
        "gaussian_unequal_sigma": (DiagonalGaussian(mean, 0.5),
                                   DiagonalGaussian(0.3 * mean, 1.3)),
    }


@pytest.mark.parametrize("name", list(_ratio_pairs()))
@pytest.mark.parametrize("lo,hi", [(0, 40), (3, 16), (17, 19), (21, 22)])
def test_log_ratio_matches_log_mass_difference(name, lo, hi):
    q, p = _ratio_pairs()[name]
    rows = p.sample(lo, hi, derive_stream(StreamKey(15, (("rows", lo),))), count=4096)
    log_q, log_p = q.log_mass_rows(lo, hi, rows), p.log_mass_rows(lo, hi, rows)
    expected = log_q - log_p
    got = log_ratio(q, p).block(lo, hi)(rows)
    assert np.array_equal(np.isneginf(got), np.isneginf(expected))
    assert not np.isnan(got).any()
    # relative to the log masses: where they nearly cancel, the difference
    # itself carries their rounding error (a few 1e-16 on a 1e-5 difference)
    live = np.isfinite(expected)
    error = np.abs(got[live] - expected[live])
    assert np.all(error <= 1e-12 * (np.abs(log_q) + np.abs(log_p))[live])


def test_log_ratio_zero_mass_rows_occur():
    # the cases above do reach the -inf branch, and not for every row
    q, p = _ratio_pairs()["bernoulli"]
    rows = p.sample(0, 40, derive_stream(StreamKey(15, (("rows", 0),))), count=4096)
    dead = np.isneginf(log_ratio(q, p).block(0, 40)(rows))
    assert 0 < dead.sum() < dead.size


def test_log_ratio_rejects_unpaired_kinds():
    with pytest.raises(ValueError):
        log_ratio(BinarySign(np.full(3, 0.5)), BinarySign(np.full(3, 0.5)))
