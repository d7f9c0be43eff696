"""Acceptance suite: one test per shipped guarantee.

Each test runs on a desk machine; together they cover codec exactness on the
wire, estimator fidelity versus overhead bits, the scalar mean-estimation
study, bitrate adaptivity under drift, quantizer unbiasedness, end-to-end
federated runs under a bitrate budget, server noise calibration, and
byte-level determinism of the command-line entry points.  The shipped
studies are read from the scripts that produce them (the `report` and
`bitrate_trace` fixtures of conftest.py), so each runs once per session.
The digit-subset run needs IDX files under data/mnist/ and is skipped when
they are absent.
"""

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fedklms.cli import main
from fedklms.codec import (
    BlockPartition,
    CodecParams,
    _block_streams,
    decode_block,
    deserialize_update,
    encode_block,
    encode_update,
    decode_update,
    samples_per_block,
    serialize_update,
)
from fedklms.config import (
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    load_config_file,
    parse_experiment_config,
)
from fedklms.data import split_iid
from fedklms.distributions import (
    BernoulliVector,
    BinarySign,
    DiagonalGaussian,
    TernaryPattern,
    UniformSign,
    kl_per_coordinate,
)
from fedklms.methods import (
    SGLDParams,
    SignSGDParams,
    qsgd_client_distribution,
    qsgd_quantize,
    sgld_server_step,
)
from fedklms.models import build_model
from fedklms.sim import _load_dataset, init_state, run_experiment, run_round
from fedklms.streams import StreamKey, derive_stream
from reference import aggregate_noise_var, block_spread, kl_block, sgld_noisy_message

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RESULTS_DIR = CONFIG_DIR.parent / "results"

MNIST_FILES = (
    "data/mnist/train-images-idx3-ubyte",
    "data/mnist/train-labels-idx1-ubyte",
    "data/mnist/t10k-images-idx3-ubyte",
    "data/mnist/t10k-labels-idx1-ubyte",
)
HAS_MNIST = all((CONFIG_DIR.parent / f).exists() for f in MNIST_FILES)


def _experiment(name: str, **overrides) -> ExperimentConfig:
    cfg = parse_experiment_config(load_config_file(str(CONFIG_DIR / name)))
    return replace(cfg, **overrides) if overrides else cfg


def _random_pair(kind: str, d: int, rng: np.random.Generator):
    if kind == "bern":
        return (
            BernoulliVector(rng.uniform(0.05, 0.95, d)),
            BernoulliVector(rng.uniform(0.05, 0.95, d)),
        )
    if kind == "ternary":

        def tern():
            raw = rng.uniform(0.05, 1.0, (3, d))
            probs = raw / raw.sum(axis=0)
            return TernaryPattern(probs[0], probs[1], probs[2],
                                  magnitude=float(rng.uniform(0.1, 5.0)))

        return tern(), tern()
    if kind == "sign":
        return BinarySign(rng.uniform(0.05, 0.95, d)), UniformSign(d)
    sigma = float(rng.uniform(0.5, 2.0))
    return (
        DiagonalGaussian(rng.normal(0.0, 1.0, d), sigma),
        DiagonalGaussian(np.zeros(d), sigma),
    )


def _random_partition(d: int, rng: np.random.Generator) -> BlockPartition:
    lengths = []
    left = d
    while left:
        take = int(rng.integers(1, min(left, 16) + 1))
        lengths.append(take)
        left -= take
    return BlockPartition.from_lengths(lengths)


def test_1_codec_round_trip_exact():
    """1,000 randomized updates: decode reproduces the encoder's selections
    coordinate for coordinate, and the wire blob is exactly the accounted
    bit total rounded up to bytes."""
    rng = np.random.default_rng(190301)
    root = StreamKey(1001)
    kinds = ("bern", "ternary", "sign", "gauss")
    for case in range(1000):
        kind = kinds[case % 4]
        d = int(rng.integers(1, 65))
        params = CodecParams(
            d_kl_target=float(rng.uniform(0.2, 4.0)),
            overhead_r=float(rng.uniform(0.0, 1.5)),
            max_block_size=64,
        )
        assert params.index_bits <= 8  # keeps candidate counts at <= 256
        q, p = _random_pair(kind, d, rng)
        partition = _random_partition(d, rng)
        include = bool(rng.integers(0, 2))
        key = root.child("case", case)

        # replicate the per-block selection independently of encode_update:
        # block m draws min(K, 2^ceil((KL_m + spread_m + r) / ln 2)) candidates
        expected = np.empty(d)
        expected_idx = []
        for m, (lo, hi) in enumerate(partition.ranges()):
            nats = kl_block(q, p, lo, hi) + block_spread(q, p, lo, hi) + params.overhead_r
            bits = min(params.index_bits, max(1, math.ceil(nats / math.log(2.0))))
            num_samples = 2**bits
            shared, selector = _block_streams(key, m)
            k = encode_block(q, p, lo, hi, num_samples, shared, selector)
            expected_idx.append(k)
            regenerated = _block_streams(key, m)[0]
            expected[lo:hi] = p.sample(lo, hi, regenerated, count=num_samples)[k]

        upd, cost = encode_update(
            q, p, partition, params, key,
            round_index=case, client_id=case % 7, include_locations=include,
        )
        assert upd.indices.tolist() == expected_idx

        blob = serialize_update(upd, params)
        assert len(blob) == (cost.total_bits + 7) // 8

        received = deserialize_update(blob, params)
        assert received.num_blocks == upd.num_blocks
        assert received.includes_locations == include
        assert received.band == upd.band
        assert np.array_equal(received.indices, upd.indices)
        if include:
            assert received.block_lengths == partition.lengths

        decoded = decode_update(
            p, None if include else partition, params, key, received
        )
        assert np.array_equal(decoded, expected)


def test_2_discrepancy_decays_with_overhead():
    """Coordinate-mean bias of the selected sample shrinks as the overhead
    budget grows: non-increasing across r in {0,2,4,6} up to 0.005 slack,
    and below 0.02 at r=6."""
    q = BernoulliVector(np.full(4, 0.8))
    p = BernoulliVector(np.full(4, 0.5))
    block_kl = float(kl_per_coordinate(q, p).sum())
    root = StreamKey(2024)
    reps = 10_000
    disc = []
    for r_idx, r in enumerate((0.0, 2.0, 4.0, 6.0)):
        num_samples, _ = samples_per_block(
            block_kl, CodecParams(d_kl_target=1.0, overhead_r=r)
        )
        acc = np.empty((reps, 4))
        for i in range(reps):
            rep_key = root.child("decay", r_idx).child("rep", i)
            k = encode_block(
                q, p, 0, 4, num_samples,
                derive_stream(rep_key.child("shared")),
                derive_stream(rep_key.child("select")),
            )
            acc[i] = decode_block(p, 0, 4, num_samples, derive_stream(rep_key.child("shared")), k)
        disc.append(abs(float(acc.mean()) - 0.8))
    for lo_r, hi_r in zip(disc, disc[1:]):
        assert hi_r <= lo_r + 0.005
    assert disc[-1] <= 0.02


def _toy_cells(report, case):
    """The cells of a shipped toy study's summary, with attribute access."""
    return [SimpleNamespace(**cell) for cell in report.outputs(case)[2]["cells"]]


def test_3_toy_estimator_orderings(report):
    """Scalar study: averaging over more clients shrinks the spread, more
    overhead bits shrink the bias, and client heterogeneity degrades the
    estimate only mildly."""
    cells = _toy_cells(report, "toy_default")
    by = {(c.r, c.N): c for c in cells}
    client_grid = (1, 5, 10, 50, 100)
    for r in (2.0, 4.0, 6.0):
        stds = [by[(r, n)].std_gap for n in client_grid]
        assert all(a > b for a, b in zip(stds, stds[1:]))
    for n in client_grid:
        assert by[(6.0, n)].mean_abs_gap < by[(0.0, n)].mean_abs_gap

    het = _toy_cells(report, "toy_heterogeneity")
    base = het[0].mean_abs_gap
    for cell in het[1:]:
        assert cell.mean_abs_gap <= 1.5 * base


def test_4_bits_track_divergence(bitrate_trace):
    """Adaptive partitions keep payload near the information content of a
    drifting Bernoulli stream; a fixed partition at the same mean bitrate
    leaves many blocks far off their budget."""
    rows = bitrate_trace.trace_rows()
    assert bitrate_trace.trace_csv(rows) == (RESULTS_DIR / "bitrate_trace.csv").read_text()
    _, _, ideal, adaptive, _, violations = zip(*rows)
    adaptive_bits = sum(adaptive)
    ideal_bits = sum(ideal)

    ratio = adaptive_bits / ideal_bits
    assert 0.75 <= ratio <= 1.25
    assert float(np.mean(violations)) >= 0.20


def test_5_quantizer_unbiasedness():
    """Stochastic quantization is unbiased: exact in closed form, and the
    Monte-Carlo mean lands within three standard errors per coordinate."""
    rng = np.random.default_rng(42)
    v = rng.normal(0.0, 1.0, 16)
    norm = float(np.linalg.norm(v))

    tern = qsgd_client_distribution(v)
    closed_ternary = tern.magnitude * (tern.p_pos - tern.p_neg)
    assert float(np.max(np.abs(closed_ternary - v))) <= 1e-12

    for levels in (1, 4):
        a = levels * np.abs(v) / norm
        lower = np.floor(a)
        frac = a - lower
        closed = norm * np.sign(v) * (lower * (1.0 - frac) + (lower + 1.0) * frac) / levels
        assert float(np.max(np.abs(closed - v))) <= 1e-12

    draws = 100_000
    for levels in (1, 4):
        stream = derive_stream(StreamKey(5).child("unbiased", levels))
        acc = np.zeros(16)
        acc_sq = np.zeros(16)
        for _ in range(draws):
            s, _ = qsgd_quantize(v, levels, stream)
            acc += s
            acc_sq += s * s
        mean = acc / draws
        var = acc_sq / draws - mean**2
        se = np.sqrt(np.maximum(var, 0.0) / draws)
        assert np.all(np.abs(mean - v) <= 3.0 * se + 1e-12)


def test_6_desk_runs_synthetic(report):
    """On the separable desk task the compressed variants match their
    uncompressed or 1-bit counterparts at a fraction of the bitrate."""
    summary = lambda case: report.outputs(case)[2]
    # probability-mask training against the uncompressed mask baseline
    klms, base = summary("fedpm_separable"), summary("fedpm_separable_baseline")
    assert klms["mean_bpp_payload"] <= 0.15
    assert klms["final_accuracy"] >= base["final_accuracy"] - 0.02
    assert klms["mean_bpp_total"] <= base["mean_bpp_total"] / 80
    assert klms["total_bits_sent"] * 80 <= base["total_bits_sent"]

    # sign updates against the 1-bit stochastic sign baseline
    klms, base = summary("signsgd_separable"), summary("signsgd_baseline")
    assert base["mean_bpp_total"] == pytest.approx(1.0)
    assert klms["mean_bpp_payload"] <= 0.1
    assert klms["final_accuracy"] >= base["final_accuracy"] - 0.02

    # ternary quantization against the universal-code baseline
    klms, base = summary("qsgd_separable"), summary("qsgd_baseline")
    assert klms["mean_bpp_payload"] < base["mean_bpp_payload"]
    assert abs(klms["final_accuracy"] - base["final_accuracy"]) <= 0.01


@pytest.mark.skipif(not HAS_MNIST, reason="IDX digit files missing under data/mnist/")
def test_6_desk_runs_mnist():
    """Same comparisons on a 2,000/1,000 digit subset with a logistic model."""
    qsgd_cfg = _experiment("qsgd_mnist.json")

    fedpm_cfg = replace(qsgd_cfg, method="fedpm", rounds=300)
    _, klms = run_experiment(fedpm_cfg)
    _, base = run_experiment(replace(fedpm_cfg, variant="baseline"))
    assert klms["mean_bpp_payload"] <= 0.15
    assert klms["final_accuracy"] >= base["final_accuracy"] - 0.02

    signsgd_cfg = replace(
        qsgd_cfg,
        method="signsgd",
        codec=CodecParams(d_kl_target=1.5, overhead_r=0.5, max_block_size=4096),
        signsgd=SignSGDParams(temperature_scale=4.0, server_lr=0.02),
    )
    _, klms = run_experiment(signsgd_cfg)
    _, base = run_experiment(replace(signsgd_cfg, variant="baseline"))
    assert base["mean_bpp_total"] == pytest.approx(1.0)
    assert klms["mean_bpp_payload"] <= 0.1
    assert klms["final_accuracy"] >= base["final_accuracy"] - 0.02

    _, klms = run_experiment(qsgd_cfg)
    _, base = run_experiment(replace(qsgd_cfg, variant="baseline"))
    assert klms["mean_bpp_payload"] < base["mean_bpp_payload"]
    assert abs(klms["final_accuracy"] - base["final_accuracy"]) <= 0.01


def test_7_langevin_noise_calibration():
    """With compression disabled, the Monte-Carlo variance of the server
    step matches the configured aggregate noise variance within 5%."""
    params = SGLDParams()
    clients, dim, reps = 4, 8, 10_000
    sigma = params.sigma_s(clients)
    target_var = aggregate_noise_var(params, clients)
    assert target_var == pytest.approx(2.0 * params.step_gamma, rel=1e-12)

    root = StreamKey(77)
    theta = np.zeros(dim)
    steps = np.empty((reps, dim))
    for rep in range(reps):
        rep_key = root.child("cal", rep)
        messages = [
            sgld_noisy_message(
                np.zeros(dim), sigma, derive_stream(rep_key.child("client", c))
            )
            for c in range(clients)
        ]
        steps[rep] = sgld_server_step(theta, messages, params)
    observed = float(steps.var())
    assert abs(observed - target_var) / target_var <= 0.05


def test_8_deterministic_reruns(tmp_path):
    """Re-running the train and toy commands with the same seed produces
    byte-identical CSV and summary outputs."""
    train_obj = load_config_file(str(CONFIG_DIR / "qsgd_separable.json"))
    train_obj["rounds"] = 25
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(train_obj))
    outs = [tmp_path / "a" / "run.csv", tmp_path / "b" / "run.csv"]
    for out in outs:
        assert main(["train", str(train_cfg), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (
        outs[0].with_suffix("").with_suffix(".summary.json").read_bytes()
        == outs[1].with_suffix("").with_suffix(".summary.json").read_bytes()
    )

    toy_obj = load_config_file(str(CONFIG_DIR / "toy_default.json"))
    toy_obj["runs"] = 20
    toy_cfg = tmp_path / "toy.json"
    toy_cfg.write_text(json.dumps(toy_obj))
    toy_outs = [tmp_path / "a" / "toy.csv", tmp_path / "b" / "toy.csv"]
    for out in toy_outs:
        assert main(["toy", str(toy_cfg), "--out", str(out)]) == 0
    assert toy_outs[0].read_bytes() == toy_outs[1].read_bytes()


def _assert_total_bits_below_baseline(report, method):
    klms = report.outputs(f"{method}_separable")[2]
    base = report.outputs(f"{method}_baseline")[2]
    assert klms["mean_bpp_total"] < base["mean_bpp_total"]
    assert klms["total_bits_sent"] < base["total_bits_sent"]
    assert klms["final_accuracy"] >= base["final_accuracy"] - 0.02


def test_8_sgld_total_bits_below_baseline(report):
    """Langevin updates through the codec cost fewer total bits, headers and
    block locations included, than the Elias-coded baseline message, at the
    same final accuracy."""
    _assert_total_bits_below_baseline(report, "sgld")


def test_8_signsgd_total_bits_below_baseline(report):
    """Sign updates through the codec cost fewer total bits, headers and block
    locations included, than the 1-bit stochastic sign baseline, at the same
    final accuracy."""
    _assert_total_bits_below_baseline(report, "signsgd")


def test_8_qsgd_total_bits_below_baseline(report):
    """Ternary updates through the codec cost fewer total bits, headers, norms
    and block locations included, than the Elias-coded baseline message, at
    the same final accuracy."""
    _assert_total_bits_below_baseline(report, "qsgd")


def test_training_convergence_all_methods():
    """Every method, compressed or not, fits a separable task: at least 0.95
    training accuracy within 200 rounds at default hyperparameters."""
    for method in ("fedpm", "qsgd", "signsgd", "sgld"):
        for variant in ("baseline", "klms"):
            cfg = ExperimentConfig(
                method=method, variant=variant, seed=0, rounds=200,
                num_clients=4, clients_per_round=4,
                dataset=DatasetConfig(kind="separable", num_points=400,
                                      num_features=20, test_points=0),
                model=ModelConfig(kind="mlp" if method == "fedpm" else "logistic"),
            )
            root = StreamKey(cfg.seed)
            train, _ = _load_dataset(cfg, root)
            model = build_model(cfg.model.kind, train.num_features, 2,
                                cfg.model.hidden_units)
            shards = split_iid(train, cfg.num_clients,
                               derive_stream(root.child("split")))
            state = init_state(cfg, model, root)
            best = 0.0
            for _ in range(cfg.rounds):
                # evaluating on the training set measures fit, not generalization
                state, metrics = run_round(state, cfg, model, shards, train,
                                           train, root)
                best = max(best, metrics.accuracy)
                if best >= 0.95:
                    break
            assert best >= 0.95, f"{method}/{variant} peaked at {best:.3f}"
