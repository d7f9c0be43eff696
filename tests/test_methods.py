"""Method-level oracles: aggregation closed forms, quantizer unbiasedness,
bit accounting, noise calibration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedklms.methods import (
    FedPMParams,
    FedPMState,
    QSGDParams,
    SGLDParams,
    SignSGDParams,
    bayes_agg,
    elias_gamma_bits,
    fedpm_client_train,
    fedpm_codec_pair,
    fedpm_sample_mask,
    logit,
    qsgd_client_distribution,
    qsgd_klms_global,
    qsgd_quantize,
    sgld_client_distributions,
    sgld_server_step,
    sigmoid,
    signsgd_client_distribution,
    signsgd_temperature,
)
from fedklms.distributions import kl_per_coordinate
from fedklms.models import build_model
from fedklms.streams import StreamKey, derive_stream
import reference
from reference import aggregate_noise_var, sgld_noisy_message


def stream(tag: str, value: int = 0):
    return derive_stream(StreamKey(777, ((tag, value),)))


# --- FedPM ------------------------------------------------------------------


def test_bayes_agg_frozen():
    state = FedPMState.initial(3, init_prob=0.5, lambda0=1.0)
    masks = [
        np.array([1.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 1.0]),
        np.array([0.0, 0.0, 1.0]),
    ]  # m_agg = (2, 0, 3)
    out = bayes_agg(masks, state, FedPMParams(prior_lambda=1.0), round_index=1)
    assert np.array_equal(out.alpha, [3.0, 1.0, 4.0])
    assert np.array_equal(out.beta, [2.0, 4.0, 1.0])
    assert out.probs == pytest.approx([2.0 / 3.0, 0.0, 1.0])


def test_bayes_agg_empty_is_identity():
    state = FedPMState.initial(4, init_prob=0.37, lambda0=1.0)
    out = bayes_agg([], state, FedPMParams(), round_index=5)
    assert out is state


def test_bayes_agg_all_ones_saturates():
    state = FedPMState.initial(2, init_prob=0.5, lambda0=1.0)
    masks = [np.ones(2) for _ in range(5)]
    out = bayes_agg(masks, state, FedPMParams(), round_index=1)
    assert np.array_equal(out.probs, [1.0, 1.0])


def test_bayes_agg_rejects_non_binary():
    state = FedPMState.initial(2, init_prob=0.5, lambda0=1.0)
    with pytest.raises(ValueError):
        bayes_agg([np.array([0.5, 1.0])], state, FedPMParams(), round_index=1)


def test_bayes_agg_reset_schedule():
    state = FedPMState.initial(1, init_prob=0.5, lambda0=1.0)
    params = FedPMParams(prior_lambda=1.0, reset_every=2)
    state = bayes_agg([np.ones(1)], state, params, round_index=1)
    state = bayes_agg([np.ones(1)], state, params, round_index=3)
    assert state.alpha[0] == 3.0  # no reset on odd rounds
    state = bayes_agg([np.ones(1)], state, params, round_index=4)
    assert state.alpha[0] == 2.0  # reset wiped the history first


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 20),
    st.floats(0.5, 4.0),
)
def test_bayes_agg_probs_in_unit_interval(seed, num_clients, dim, lam):
    rng = np.random.default_rng(seed)
    state = FedPMState.initial(dim, init_prob=0.5, lambda0=lam)
    masks = [(rng.random(dim) < 0.5).astype(np.float64) for _ in range(num_clients)]
    out = bayes_agg(masks, state, FedPMParams(prior_lambda=lam), round_index=1)
    assert np.all(out.probs >= 0.0) and np.all(out.probs <= 1.0)


def test_fedpm_codec_pair_clamps_saturated_probs():
    q, p = fedpm_codec_pair(np.array([0.5]), np.array([1.0]))
    assert 0.0 < p.probs[0] < 1.0
    kl = kl_per_coordinate(q, p)  # must not raise despite theta = 1
    assert np.isfinite(kl[0])


class QuadraticModel:
    """Stub with loss 0.5 ||w - target||^2, so grad = w - target."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def loss_and_grad(self, w, X, y):
        # w (d,) or a stack (B, d): one loss per client, as the models do
        delta = w - self.target
        loss = 0.5 * (delta * delta).sum(axis=-1)
        return (float(loss) if loss.ndim == 0 else loss), delta


def test_fedpm_client_train_moves_probs_toward_useful_weights():
    # frozen weights equal the target: keeping every weight is optimal, so
    # trained probabilities must rise above their start
    dim = 16
    frozen = np.ones(dim)
    model = QuadraticModel(np.ones(dim))
    start = np.full(dim, 0.5)
    out = fedpm_client_train(
        start, frozen, model, np.zeros((1, 8, 1)), np.zeros((1, 8)),
        FedPMParams(local_lr=1.0, local_epochs=10, batch_size=8),
        [stream("fedpm-train")],
    )
    assert np.all(out > 0.5)


def _fedpm_group(kind, clients, tag):
    """fedpm_separable's shape: shards of 60 points with 20 features, and for
    the MLP 96 hidden units, so d = 2,210 and 10 clients train as two
    sub-stacks of 5.  The global probabilities include 0 and 1."""
    model = build_model(kind, 20, 2, hidden_units=96)
    root = StreamKey(778, (("fedpm-group", 0),)).child(tag)
    frozen = model.init_params(derive_stream(root.child("w")))
    probs = derive_stream(root.child("p")).uniforms(model.dim)
    probs[:4] = [0.0, 1.0, 0.0, 1.0]
    X = derive_stream(root.child("x")).gaussians(clients * 60 * 20).reshape(clients, 60, 20)
    y = derive_stream(root.child("y")).integers(clients * 60, 2).reshape(clients, 60)
    streams = lambda: [derive_stream(root.child("local", b)) for b in range(clients)]
    return model, frozen, probs, X, y, streams


@pytest.mark.parametrize("clients", [1, 3, 10])
@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_fedpm_client_train_stack_equals_one_client_at_a_time(kind, clients):
    # three minibatches of 25, 25 and 10 points an epoch, two epochs
    model, frozen, probs, X, y, streams = _fedpm_group(kind, clients, "stack")
    params = FedPMParams(local_epochs=2, batch_size=25)
    stacked = fedpm_client_train(probs, frozen, model, X, y, params, streams())
    assert stacked.shape == (clients, model.dim)
    for b, s in enumerate(streams()):
        one = fedpm_client_train(probs, frozen, model, X[b : b + 1], y[b : b + 1], params,
                                 [derive_stream(s.key)])
        assert stacked[b].tobytes() == one[0].tobytes(), b
        plain = reference.fedpm_client_train(probs, frozen, model, X[b], y[b], params, s)
        assert stacked[b].tobytes() == plain.tobytes(), b


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_training_returns_fresh_arrays(kind):
    # fedpm steps its scores with the returned gradient in place, so a
    # gradient must not be a buffer that the next call writes again
    model, frozen, probs, X, y, streams = _fedpm_group(kind, 2, "fresh")
    w = np.stack([frozen, 0.5 * frozen])
    _, first = model.loss_and_grad(w, X, y)
    kept = first.copy()
    _, second = model.loss_and_grad(w[::-1].copy(), X, y)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    trained = fedpm_client_train(probs, frozen, model, X, y, FedPMParams(), streams())
    kept = trained.copy()
    again = fedpm_client_train(probs, frozen, model, X, y, FedPMParams(), streams())
    assert not np.shares_memory(trained, again)
    assert trained.tobytes() == kept.tobytes() == again.tobytes()


def test_fedpm_training_memory_is_bounded():
    # 10 clients at fedpm_separable's shape peak at 0.87 MB in sub-stacks of
    # 5; the whole group as one stack peaks at 1.51 MB, and a first stack
    # with two (B, n, H) activation arrays and fresh (B, d) temporaries
    # peaked at 2.75 MB
    model, frozen, probs, X, y, streams = _fedpm_group("mlp", 10, "memory")
    group = streams()
    tracemalloc.start()
    try:
        out = fedpm_client_train(probs, frozen, model, X, y, FedPMParams(), group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (10, 2210)
    assert peak < 1.2e6, peak


def test_fedpm_sample_mask_extremes():
    s = stream("mask")
    mask = fedpm_sample_mask(np.concatenate([np.ones(5), np.zeros(5)]), s)
    assert np.array_equal(mask, np.concatenate([np.ones(5), np.zeros(5)]))


_SIGMOID_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                           709.78, -709.78, 1e-300, -1e-300, 36.7, -36.7])


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60))
def test_sigmoid_matches_masked_reference_bit_for_bit(values):
    gen = derive_stream(StreamKey(31, (("sigmoid", len(values)),)))
    x = np.concatenate([_SIGMOID_EDGES, np.array(values, dtype=np.float64),
                        40.0 * gen.gaussians(64)])
    got, want = sigmoid(x), reference.sigmoid(x)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the same bits written to caller buffers, as fedpm's training does
    out, spare = np.empty_like(x), np.empty_like(x)
    assert sigmoid(x, out=out, spare=spare) is out
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_sigmoid_logit_inverse():
    x = np.linspace(-8, 8, 33)
    assert logit(sigmoid(x)) == pytest.approx(x, abs=1e-6)
    assert np.isfinite(logit(np.array([0.0, 1.0]))).all()


# --- QSGD -------------------------------------------------------------------


def test_qsgd_client_distribution_frozen():
    v = np.array([0.6, -0.8])
    d = qsgd_client_distribution(v)
    assert d.magnitude == pytest.approx(1.0)
    assert (d.p_neg[0], d.p_zero[0], d.p_pos[0]) == pytest.approx((0.0, 0.4, 0.6))
    assert (d.p_neg[1], d.p_zero[1], d.p_pos[1]) == pytest.approx((0.8, 0.2, 0.0))
    # closed-form mean of magnitude * pattern recovers v exactly
    mean_pattern = d.p_pos - d.p_neg
    assert d.magnitude * mean_pattern == pytest.approx(v, abs=1e-12)


def test_qsgd_client_distribution_zero_vector():
    d = qsgd_client_distribution(np.zeros(3))
    assert d.magnitude == 0.0
    assert np.array_equal(d.p_zero, np.ones(3))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_qsgd_distribution_rows_normalized(seed, dim):
    rng = np.random.default_rng(seed)
    d = qsgd_client_distribution(rng.normal(size=dim))
    total = d.p_neg + d.p_zero + d.p_pos
    assert total == pytest.approx(np.ones(dim), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qsgd_client_distribution_refuses_a_non_finite_vector(bad):
    v = np.arange(8.0)
    v[5] = bad
    with pytest.raises(ValueError, match=f"QSGD input must be finite: coordinate 5 is {bad!r}"):
        qsgd_client_distribution(v)


def test_qsgd_quantize_support_and_unbiasedness():
    v = np.array([0.3, -1.2, 0.0, 2.0])
    norm = float(np.linalg.norm(v))
    for levels in (1, 4):
        reps = 4000
        acc = np.zeros_like(v)
        for i in range(reps):
            out, lev = qsgd_quantize(v, levels, stream("quant", levels * 10**6 + i))
            assert np.all(lev >= 0) and np.all(lev <= levels)
            assert out == pytest.approx(norm * np.sign(v) * lev / levels, abs=1e-12)
            acc += out
        mc_mean = acc / reps
        # MC tolerance ~ 4 sigma of the estimator
        tol = 4.0 * norm / np.sqrt(reps)
        assert mc_mean == pytest.approx(v, abs=tol)


def test_qsgd_quantize_exact_grid_is_deterministic():
    v = np.array([3.0, 0.0, -4.0])  # |v_i|/||v|| in {0.6, 0, 0.8}, s=5 grid exact
    out, _ = qsgd_quantize(v, 5, stream("exact"))
    assert out == pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qsgd_quantize_refuses_a_non_finite_vector(bad):
    v = np.arange(8.0)
    v[5] = bad
    with pytest.raises(ValueError, match=f"QSGD input must be finite: coordinate 5 is {bad!r}"):
        qsgd_quantize(v, 1, stream("non-finite"))


# the sum of squares overflows float64; the norm itself does not
HUGE = np.array([1e200, -1e200, 3.0])


def test_qsgd_client_distribution_scales_a_norm_whose_square_overflows():
    d = qsgd_client_distribution(HUGE)
    assert d.magnitude == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert d.magnitude * (d.p_pos - d.p_neg) == pytest.approx(HUGE, rel=1e-15, abs=1e-12)


def test_qsgd_quantize_scales_a_norm_whose_square_overflows():
    out, lev = qsgd_quantize(HUGE, 1, stream("huge"))
    assert np.isfinite(out).all()
    assert np.all((lev == 0) | (lev == 1))
    assert out == pytest.approx(np.sqrt(2.0) * 1e200 * np.sign(HUGE) * lev, rel=1e-15)


def test_qsgd_quantize_levels_do_not_overflow():
    # levels * |v_i| would be 4e308; the level of |v_i| / ||v|| = 1 is 4
    out, lev = qsgd_quantize(np.array([1e308, 1.0]), 4, stream("levels"))
    assert lev.tolist() == [4, 0] and out.tolist() == [1e308, 0.0]


# inputs whose sum of squares underflows to 0 or is subnormal while their
# norms do not, with those norms; the plain norm of the second is
# 4.99997e-160, off by 5.6e-6
SMALL_NORMS = pytest.mark.parametrize("v, norm", [
    pytest.param(np.array([1e-200, -1e-200]), np.sqrt(2.0) * 1e-200, id="square-0"),
    pytest.param(np.array([3e-160, -4e-160]), 5e-160, id="square-subnormal"),
])


@SMALL_NORMS
def test_qsgd_client_distribution_scales_a_norm_whose_square_underflows(v, norm):
    d = qsgd_client_distribution(v)
    assert d.magnitude == pytest.approx(norm, rel=1e-15, abs=0.0)
    assert d.magnitude * (d.p_pos - d.p_neg) == pytest.approx(v, rel=1e-15, abs=0.0)


@SMALL_NORMS
def test_qsgd_quantize_scales_a_norm_whose_square_underflows(v, norm):
    # each coordinate is sent at the norm with probability |v_i| / norm; the
    # mean over 1,000 draws is within max|v| / 10 of v (0.1e-200 for the
    # first input), at least 4.9 std of that mean
    draws = [qsgd_quantize(v, 1, stream("tiny", i)) for i in range(1000)]
    for out, lev in draws:
        assert np.all((lev == 0) | (lev == 1))
        assert out == pytest.approx(norm * np.sign(v) * lev, rel=1e-15, abs=0.0)
    assert np.mean([out for out, _ in draws], axis=0) == pytest.approx(
        v, abs=np.abs(v).max() / 10)


@pytest.mark.parametrize("quantize", [
    qsgd_client_distribution, lambda v: qsgd_quantize(v, 1, stream("overflow"))],
    ids=["client_distribution", "quantize"])
def test_qsgd_refuses_a_norm_beyond_float_range(quantize):
    v = np.array([1.0, 1.7e308, -1.7e308])
    with pytest.raises(ValueError,
                       match=r"QSGD input norm overflows float64: coordinate 1 is 1\.7e\+308"):
        quantize(v)


def test_elias_gamma_bits_frozen():
    assert elias_gamma_bits(np.zeros(4, dtype=np.int64)) == 36
    assert elias_gamma_bits(np.array([1])) == 3 + 32 + 1
    assert elias_gamma_bits(np.array([7])) == 7 + 32 + 1
    # exact past 2^48, where a float log2 of level + 1 rounds up a bit length
    assert elias_gamma_bits(np.array([2**49 - 2])) == 97 + 32 + 1
    assert elias_gamma_bits(np.array([2**53 - 2])) == 105 + 32 + 1
    with pytest.raises(ValueError):
        elias_gamma_bits(np.array([-1]))


def test_qsgd_klms_global_frozen():
    patterns = [np.zeros(2) for _ in range(10)]
    d = qsgd_klms_global(patterns, 2)
    assert d.p_neg[0] == pytest.approx(1.0 / 13.0)
    assert d.p_zero[0] == pytest.approx(11.0 / 13.0)
    assert d.p_pos[0] == pytest.approx(1.0 / 13.0)


def test_qsgd_klms_global_first_round_uniform():
    d = qsgd_klms_global([], dim=5)
    assert d.p_neg == pytest.approx(np.full(5, 1.0 / 3.0))


def test_qsgd_klms_global_strictly_positive():
    patterns = [np.ones(3), np.ones(3)]
    d = qsgd_klms_global(patterns, 3)
    assert np.all(d.p_neg > 0) and np.all(d.p_zero > 0) and np.all(d.p_pos > 0)


# --- stochastic SignSGD -----------------------------------------------------


def test_signsgd_distribution_frozen():
    d = signsgd_client_distribution(np.array([2.0]), temperature=2.0)
    assert d.p_plus[0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_signsgd_sign_consistency():
    # at |v|/T = 5 the sampled sign matches sign(v) almost always
    d = signsgd_client_distribution(np.array([5.0]), temperature=1.0)
    draws = d.sample(0, 1, stream("signs"), count=10**4).ravel()
    assert (draws == 1.0).mean() >= 0.99


def test_signsgd_temperature_modes():
    # temperature_scale * mean|v|, and temperature_scale alone when v is all zero
    params = SignSGDParams(temperature_scale=2.0)
    assert signsgd_temperature(np.array([3.0, -1.0]), params) == 4.0
    assert signsgd_temperature(np.zeros(3), params) == 2.0
    assert signsgd_temperature(np.array([0.5, -0.25]), SignSGDParams()) == 0.375


# --- federated SGLD ---------------------------------------------------------


def test_sgld_kl_frozen():
    q, p = sgld_client_distributions(np.array([2.0]), sigma_s=2.0)
    assert kl_per_coordinate(q, p)[0] == pytest.approx(0.5)  # H = sigma_s
    q4, p4 = sgld_client_distributions(np.array([2.0]), sigma_s=4.0)
    assert kl_per_coordinate(q4, p4)[0] == pytest.approx(0.125)  # doubled sigma -> /4


def test_sgld_server_step_zero_gradients():
    theta = np.array([1.0, -2.0, 0.5])
    out = sgld_server_step(theta, [np.zeros(3), np.zeros(3)], SGLDParams())
    assert np.array_equal(out, theta)


def test_sgld_default_sigma_matches_langevin():
    params = SGLDParams(step_gamma=0.01, server_lr=0.1)
    c = 10
    sigma = params.sigma_s(c)
    assert sigma == pytest.approx(np.sqrt(2 * 0.01 * c) / 0.1)
    assert aggregate_noise_var(params, c) == pytest.approx(2 * 0.01)


def test_sgld_noise_variance_smoke():
    # aggregate noise variance of the server step ~ eta^2 sigma^2 / C
    params = SGLDParams(step_gamma=4e-3, server_lr=0.2)
    c, dim, reps = 4, 16, 400
    sigma = params.sigma_s(c)
    theta = np.zeros(dim)
    grad = np.zeros(dim)
    draws = np.empty((reps, dim))
    for i in range(reps):
        msgs = [
            sgld_noisy_message(grad, sigma, stream("sgld-noise", i * c + j))
            for j in range(c)
        ]
        draws[i] = sgld_server_step(theta, msgs, params)
    target = aggregate_noise_var(params, c)
    assert draws.var() == pytest.approx(target, rel=0.1)

