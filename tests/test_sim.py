"""End-to-end simulator checks: accounting, partition protocol, determinism."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedklms import codec, sim
from fedklms.config import load_config_file, parse_experiment_config
from fedklms.sim import (
    CSV_HEADER,
    init_state,
    run_experiment,
    run_round,
    write_metrics_csv,
    write_summary_json,
)
from fedklms.data import split_iid
from fedklms.models import build_model
from fedklms.streams import StreamKey, derive_stream
from fedklms.data import make_separable

import reference


def make_config(**overrides):
    obj = {
        "method": "fedpm",
        "variant": "klms",
        "seed": 7,
        "rounds": 4,
        "num_clients": 4,
        "clients_per_round": 4,
        "dataset": {
            "kind": "separable",
            "num_points": 200,
            "num_features": 16,
            "margin": 0.3,
            "test_points": 80,
        },
        "model": {"kind": "logistic"},
        "codec": {"d_kl_target": 3.0, "overhead_r": 2.0, "max_block_size": 256},
    }
    obj.update(overrides)
    return parse_experiment_config(obj)


class TestBitAccounting:
    def test_fedpm_baseline_is_one_bit_per_param(self):
        cfg = make_config(variant="baseline", rounds=3)
        rows, _ = run_experiment(cfg)
        for r in rows:
            assert r.bpp_payload == 1.0
            assert r.bpp_total == 1.0

    def test_signsgd_baseline_is_one_bit_per_param(self):
        cfg = make_config(method="signsgd", variant="baseline", rounds=3)
        rows, _ = run_experiment(cfg)
        for r in rows:
            assert r.bpp_total == 1.0

    def test_uncompressed_is_thirty_two_bits_per_param(self):
        cfg = make_config(method="none", rounds=2)
        rows, summary = run_experiment(cfg)
        for r in rows:
            assert r.bpp_payload == 32.0
            assert r.bpp_total == 32.0
            assert r.mean_kl_per_param == 0.0
        assert summary["location_rounds"] == 0

    def test_uncompressed_steps_with_qsgd_server_lr(self):
        # none is qsgd without compression: the server step reads server_lr
        rows = {lr: [r.csv_row() for r in run_experiment(make_config(
            method="none", rounds=3, qsgd={"server_lr": lr}))[0]] for lr in (1.0, 0.5)}
        assert rows[1.0] != rows[0.5]
        assert rows[1.0] == [r.csv_row() for r in run_experiment(
            make_config(method="none", rounds=3))[0]]

    def test_codec_total_includes_header_overhead(self):
        cfg = make_config(rounds=3)
        rows, _ = run_experiment(cfg)
        for r in rows:
            assert r.bpp_total > r.bpp_payload > 0.0

    def test_summary_totals_match_round_sums(self):
        cfg = make_config(rounds=4)
        rows, summary = run_experiment(cfg)
        dim = summary["model_dim"]
        k = cfg.clients_per_round
        total = sum(round(r.bpp_total * dim * k) for r in rows)
        payload = sum(round(r.bpp_payload * dim * k) for r in rows)
        assert summary["total_bits_sent"] == total
        assert summary["total_payload_bits_sent"] == payload

    def test_qsgd_codec_payload_counts_norm_scalar(self):
        cfg = make_config(method="qsgd", rounds=1, clients_per_round=1)
        rows, summary = run_experiment(cfg)
        dim = summary["model_dim"]
        # payload bits form an integer and include the 32-bit magnitude
        bits = rows[0].bpp_payload * dim
        assert bits == round(bits)
        assert bits >= 32


class TestPartitionProtocol:
    def test_first_round_ships_locations(self):
        cfg = make_config(rounds=3)
        rows, _ = run_experiment(cfg)
        assert rows[0].partition_updated is True
        assert rows[1].partition_updated is False

    def test_wide_band_never_updates_again(self):
        cfg = make_config(
            rounds=6,
            codec={
                "d_kl_target": 3.0,
                "overhead_r": 2.0,
                "max_block_size": 256,
                "kl_min_threshold": 0.0,
                "kl_max_threshold": 1e9,
            },
        )
        rows, summary = run_experiment(cfg)
        assert summary["location_rounds"] == 1

    @staticmethod
    def _empty_band(target):
        return {"d_kl_target": target, "overhead_r": 2.0, "max_block_size": 256,
                "kl_min_threshold": target, "kl_max_threshold": target}

    def test_empty_band_alternates_update_rounds(self):
        # with an impossible band every ordinary round re-raises the flag,
        # since a target of 0.1 cuts this model into blocks a re-cut can change
        rows, _ = run_experiment(make_config(rounds=6, codec=self._empty_band(0.1)))
        flags = [r.partition_updated for r in rows]
        assert flags == [True, False, True, False, True, False]

    def test_one_block_under_an_empty_band_ships_locations_once(self):
        # under a target of 3.0 the whole model is one block below the band,
        # and no re-cut can merge it further
        rows, summary = run_experiment(make_config(rounds=6, codec=self._empty_band(3.0)))
        assert [r.partition_updated for r in rows] == [True] + [False] * 5
        assert summary["location_rounds"] == 1

    def test_baseline_never_reports_updates(self):
        cfg = make_config(variant="baseline", rounds=4)
        rows, summary = run_experiment(cfg)
        assert summary["location_rounds"] == 0
        assert all(r.partition_updated is False for r in rows)


class TestDeterminism:
    def test_same_seed_same_metrics(self, tmp_path):
        cfg = make_config(method="qsgd", rounds=4)
        a, sa = run_experiment(cfg)
        b, sb = run_experiment(make_config(method="qsgd", rounds=4))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, str(pa))
        write_metrics_csv(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()
        assert sa == sb

    def test_different_seed_different_trajectory(self):
        a, _ = run_experiment(make_config(seed=1, rounds=3))
        b, _ = run_experiment(make_config(seed=2, rounds=3))
        assert [r.accuracy for r in a] != [r.accuracy for r in b] or [
            r.bpp_payload for r in a
        ] != [r.bpp_payload for r in b]

    def test_csv_format(self, tmp_path):
        cfg = make_config(rounds=2)
        rows, _ = run_experiment(cfg)
        path = tmp_path / "m.csv"
        write_metrics_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[5] in ("true", "false")


class TestMethodBehavior:
    def test_fedpm_keeps_weights_frozen(self):
        cfg = make_config(rounds=3, model={"kind": "mlp", "hidden_units": 8})
        root = StreamKey(cfg.seed)
        train = make_separable(120, 16, 0.3, derive_stream(root.child("data", 0)))
        test = make_separable(60, 16, 0.3, derive_stream(root.child("data", 1)))
        model = build_model("mlp", 16, 2, 8)
        shards = split_iid(train, cfg.num_clients, derive_stream(root.child("split")))
        state = init_state(cfg, model, root)
        w0 = state.weights.copy()
        for _ in range(3):
            state, _ = run_round(state, cfg, model, shards, train, test, root)
        assert np.array_equal(state.weights, w0)

    def test_sgd_methods_move_weights(self):
        for method in ("qsgd", "signsgd", "sgld", "none"):
            cfg = make_config(method=method, rounds=2)
            root = StreamKey(cfg.seed)
            train = make_separable(120, 16, 0.3, derive_stream(root.child("data", 0)))
            test = make_separable(60, 16, 0.3, derive_stream(root.child("data", 1)))
            model = build_model("logistic", 16, 2)
            shards = split_iid(train, cfg.num_clients, derive_stream(root.child("split")))
            state = init_state(cfg, model, root)
            w0 = state.weights.copy()
            for _ in range(2):
                state, _ = run_round(state, cfg, model, shards, train, test, root)
            assert not np.array_equal(state.weights, w0), method

    def test_qsgd_prior_built_once_per_round(self, monkeypatch):
        # the server builds qsgd's prior p in its fold, not once per client:
        # the initial prior, then one per round when the codec ran
        calls = []
        build = sim.qsgd_klms_global
        monkeypatch.setattr(sim, "qsgd_klms_global",
                            lambda *args, **kw: calls.append(1) or build(*args, **kw))

        def builds(**overrides):
            obj = load_config_file(str(CONFIG_DIR / "qsgd_separable.json"))
            obj.update(overrides, rounds=3)
            calls.clear()
            run_experiment(parse_experiment_config(obj))
            return len(calls)

        assert builds() == 4  # not one per client, 10 a round
        assert builds(variant="baseline") <= 1
        assert builds(method="none") <= 1

    def test_klms_reports_positive_kl(self):
        cfg = make_config(rounds=3)
        rows, _ = run_experiment(cfg)
        assert all(r.mean_kl_per_param > 0.0 for r in rows)

    def test_partial_participation(self):
        cfg = make_config(num_clients=6, clients_per_round=3, rounds=3)
        rows, summary = run_experiment(cfg)
        assert summary["clients_per_round"] == 3
        assert len(rows) == 3

    def test_skewed_split_runs(self):
        cfg = make_config(
            rounds=2,
            dataset={
                "kind": "blobs",
                "num_points": 240,
                "num_features": 10,
                "num_classes": 4,
                "spread": 0.5,
                "test_points": 80,
            },
            split={"mode": "skewed", "max_classes_per_client": 2},
        )
        rows, _ = run_experiment(cfg)
        assert len(rows) == 2


def _client_stack(kind, clients, n, tag):
    """A model, its start weights and a stack of client shards and streams."""
    model = build_model(kind, 6, 3, hidden_units=5)
    root = StreamKey(11).child(tag)
    w0 = model.init_params(derive_stream(root.child("w")))
    X = derive_stream(root.child("x")).gaussians(clients * n * 6).reshape(clients, n, 6)
    y = derive_stream(root.child("y")).integers(clients * n, 3).reshape(clients, n)
    streams = lambda: [derive_stream(root.child("local", b)) for b in range(clients)]
    return model, w0, X, y, streams


def _one_client_at_a_time(monkeypatch):
    """Replace the stacked trainers with the one-client references."""
    monkeypatch.setattr(sim, "_local_sgd", lambda model, w0, X, y, lr, epochs, batch, streams:
                        np.stack([reference.local_sgd(model, w0, Xc, yc, lr, epochs, batch, s)
                                  for Xc, yc, s in zip(X, y, streams)]))
    monkeypatch.setattr(sim, "_stochastic_gradient", lambda model, w, X, y, batch, streams:
                        np.stack([reference.stochastic_gradient(model, w, Xc, yc, batch, s)
                                  for Xc, yc, s in zip(X, y, streams)]))


class TestStackedTraining:
    @pytest.mark.parametrize("clients", [1, 4])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_local_sgd_equals_one_client_at_a_time(self, kind, clients):
        model, w0, X, y, streams = _client_stack(kind, clients, 20, "sgd")
        stacked = sim._local_sgd(model, w0, X, y, 0.3, 2, 7, streams())
        assert stacked.shape == (clients, model.dim)
        for b, stream in enumerate(streams()):
            one = reference.local_sgd(model, w0, X[b], y[b], 0.3, 2, 7, stream)
            assert np.array_equal(stacked[b], one), b

    @pytest.mark.parametrize("clients", [1, 4])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_stochastic_gradient_equals_one_client_at_a_time(self, kind, clients):
        model, w0, X, y, streams = _client_stack(kind, clients, 20, "grad")
        stacked = sim._stochastic_gradient(model, w0, X, y, 7, streams())
        assert stacked.shape == (clients, model.dim)
        for b, stream in enumerate(streams()):
            one = reference.stochastic_gradient(model, w0, X[b], y[b], 7, stream)
            assert np.array_equal(stacked[b], one), b

    @pytest.mark.parametrize("method", ["qsgd", "sgld", "signsgd"])
    @pytest.mark.parametrize("split, num_points", [
        ({"mode": "skewed", "max_classes_per_client": 2}, 240),
        ({"mode": "iid"}, 242),  # shards of 61, 61, 60 and 60 points
    ])
    def test_unequal_shards_train_in_groups(self, monkeypatch, method, split, num_points):
        # participants with equal shard sizes train as one stack; every run
        # of these configs trains several stacks a round, repeats itself, and
        # equals training one client at a time
        cfg = make_config(
            method=method, rounds=3, split=split,
            dataset={"kind": "blobs", "num_points": num_points, "num_features": 10,
                     "num_classes": 4, "spread": 0.5, "test_points": 80},
        )
        stacks = []
        step = sim._client_message
        monkeypatch.setattr(sim, "_client_message", lambda *args: (
            stacks.append(len(args[-1])) or step(*args)))
        rows = [r.csv_row() for r in run_experiment(cfg)[0]]
        assert len(stacks) > cfg.rounds and sum(stacks) == cfg.rounds * cfg.clients_per_round
        assert [r.csv_row() for r in run_experiment(cfg)[0]] == rows
        _one_client_at_a_time(monkeypatch)
        assert [r.csv_row() for r in run_experiment(cfg)[0]] == rows


def test_qsgd_run_survives_a_block_whose_candidates_all_miss(monkeypatch):
    # with seed 72, every one of the 256 candidates of one block misses q's
    # support; the block sends index 0, a draw from p, and the run completes
    missed = []
    block = codec.encode_block

    def spy(q, p, lo, hi, num_samples, shared, selector, ratio):
        # the block's candidates again, from a fresh stream of the same key
        candidates = p.sample(lo, hi, derive_stream(shared.key), count=num_samples)
        index = block(q, p, lo, hi, num_samples, shared, selector, ratio)
        if (ratio.block(lo, hi)(candidates) == -np.inf).all():
            missed.append(index)
        return index

    monkeypatch.setattr(codec, "encode_block", spy)
    obj = load_config_file(str(CONFIG_DIR / "qsgd_separable.json"))
    obj.update(seed=72)
    rows, summary = run_experiment(parse_experiment_config(obj))
    assert missed and set(missed) == {0} and len(rows) == summary["rounds"] == 150


class TestConvergenceSmoke:
    def test_uncompressed_fits_separable(self):
        cfg = make_config(
            method="none",
            rounds=40,
            dataset={
                "kind": "separable",
                "num_points": 240,
                "num_features": 12,
                "margin": 0.5,
                "test_points": 100,
            },
        )
        rows, summary = run_experiment(cfg)
        assert summary["best_accuracy"] >= 0.9


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of the metrics CSV and the summary JSON after the first 4 rounds of
# each shipped config (and of the variants the benchmark runs).  Four rounds
# cover the initial location round, ordinary rounds and, for the qsgd and sgld
# codec variants, a location round the KL band re-triggers (the one-block
# fedpm and signsgd partitions have nothing to merge).  Any change to a stream
# label, a bit price or the operation order of a server update shows here.
# The four klms pairs here and below were re-pinned when the encoder moved to
# ordered random coding, which moved the selections, and the indices to
# Elias-gamma codes, which moved the payload bits; then when the header's
# location flag and 8-bit KL code gave way to the kind code, which moved
# bpp_total, and mean_kl_per_param became each client's exact KL.  The sgld
# pairs here and below were re-pinned when each block began to draw its own
# candidate count from its KL and spread: sgld's Gaussian blocks lie far
# enough under the target that some of their picks lay past the new count.
# The fedpm, qsgd and signsgd pins held.
PINNED_OUTPUTS = {
    "fedpm_separable": ("fedpm_separable", {},
        "af08fd5a5bad54544cdb855ff04cc6295d6eeb3c00cfd1f4505db1136750a98c",
        "9b00f53234ed022395f6b1d42e4d16c07e6c88a10201cb2b56adcfd913cde67f"),
    "fedpm_separable_baseline": ("fedpm_separable_baseline", {},
        "737412e9fa061a8148c55476315c5f622de12dcaa7e49857b642f97f0ab1de4f",
        "304d46ae231dff58c0257194b9bab79a48dc61d7e48ef1c12846d813e192fa94"),
    "qsgd_separable": ("qsgd_separable", {},
        "3b29c8c51d0d4e396a5205a1573608cc17b47e1e032d98287d371dfb23d3bc1d",
        "cf61893c8961cae1893a59d489d0d3c9f00f77d7abee2c4680afdcab75c08021"),
    "signsgd_separable": ("signsgd_separable", {},
        "4ac76959eef9bc364e0a6732969459ff15364bbf83946af854cf901ad66a4b12",
        "f0f4fc8cb494064381921e5bf6d65e1c9f27146640b3500becff5a108ef5e8bb"),
    "sgld_separable": ("sgld_separable", {},
        "1584ab3904f7931db038844df9809e8a8e00fe93a565265fd406ef1ba77d6ca8",
        "dad28a02ad9ca84ff70e88d764b1b3fc726d21b103570e6f67f48c4057bc7236"),
    "qsgd_baseline": ("qsgd_separable", {"variant": "baseline"},
        "7f87a37ed44f2d205c8f1875d973b7fbac99de0fe677b79d6f2e3f7c25cf22d4",
        "45054f1d8c9fa165d2b21917ad438412787933aca57242beb7d72dcf9d6ab8a1"),
    "signsgd_baseline": ("signsgd_separable", {"variant": "baseline"},
        "d5ab166eaf523d473b8c42dd444bcdc450065913d51bef782c83a6d461fbc73f",
        "2a90ea65290d252be057e1e283ff1b61364d3318a61ee5a682b2010f1271c43e"),
    "sgld_baseline": ("sgld_separable", {"variant": "baseline"},
        "c9ed84baa191a7977127913436e6297af948e7e4c6dbca7cba3ecb02ca5224ae",
        "63011b5462d760e22ff1868e513e21401c55c03d4600ab79e200389695fab7fa"),
    "none": ("qsgd_separable", {"method": "none"},
        "461ebee6bb82c79e02492f9363e7b8c55b38acf809977585574e308c8bd2bcfe",
        "bacbb375400d2a35f04440dc22c5c2e1e162e989ef22c6fac6bc4e07e44e3d4a"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_outputs_pinned(case, tmp_path):
    name, overrides, csv_sha, json_sha = PINNED_OUTPUTS[case]
    obj = load_config_file(str(CONFIG_DIR / f"{name}.json"))
    obj.update(overrides, rounds=4)
    rows, summary = run_experiment(parse_experiment_config(obj))
    csv_path, json_path = tmp_path / "metrics.csv", tmp_path / "summary.json"
    write_metrics_csv(rows, str(csv_path))
    write_summary_json(summary, str(json_path))
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest(csv_path), digest(json_path)) == (csv_sha, json_sha)


# SHA-256 of the metrics CSV and the summary JSON of each train case of
# scripts/output_digests.py at full length.  A change that must not move any
# output leaves these as they are; one that moves them re-pins them from the
# script's printout, with the reason in CHANGES.
FULL_LENGTH_OUTPUTS = {
    "fedpm_separable": (
        "f37f30335351281d6ea7f3f849ada4cd17b93bd2a3270a41a8500e94da715d50",
        "788c65c4fff6af136d84cb20a7f0058448fdb53183c28e6bf45c7501530eb765"),
    "fedpm_separable_baseline": (
        "4a3914f1eb83b7fbca4274a71b19436dd812937045ca38980af176afec593153",
        "7db68938f3257eb1f39ce064bc9219de1cf14c509d3a540595d386c056b8c306"),
    "qsgd_separable": (
        "ca7c8aad653a659fad994ca184ca45350c17ca132cc7c69b34d03f760789b18d",
        "b851a731224381fcf582c4bf1fefd74084ccce1289ba3aed8b63240863da0e1c"),
    "signsgd_separable": (
        "044481ae97e67ada6fb7dbabf00b7927d9444300848ce23d3fe977ebfa2f26e7",
        "19f0ed2b95d663635b704a70fa0e44f9afeb7d599d63e02f3ba2f019703ea434"),
    "sgld_separable": (
        "b4ba74a5e3df2dd3ad84b9896b464e2dc0d5894c6731e794d4148544eacaa183",
        "cb9abbe8064a59a4618003ab1351e626aee385e1ba1405b75673344d1c75fe10"),
    "qsgd_baseline": (
        "1420f1faf7e9fb4bcb019b72363b9d85c3242bf52e5156aa1fdc9b56bfd82ba0",
        "d893f9b6f899444a68ec275afc1be30882f975533d6ef166b5ed2f5a34cfa134"),
    "signsgd_baseline": (
        "21ea10dc65fcb1385f0c76b7b3de4271f768c2027e203f781dde8a0d45c22f0f",
        "7b61e9aaa16497f1bf2ca5ffae20850b1bde131d8c6a4e79793b7c0735d16e79"),
    "sgld_baseline": (
        "9c9a719e12a91bfd6bf8e84480c53fc20ad81b2a2e6785dbc9b1cbb2470ed3a6",
        "f9152ec39cd5223175feceba51eead0a7126528d161c90be9a53e50f071321f3"),
    "none": (
        "ed63635202200314162c48766a212636824f791fd7bc36cf7d2c73aef530e3d8",
        "c96295190c6b2a6073bf6191763dad8e94029e7ff5b305afa847d0d6a669b337"),
}
# a toy case's outputs must be the committed files its config's output block names
TOY_CASES = ("toy_default", "toy_heterogeneity")


def _full_length_pin(case):
    if case in FULL_LENGTH_OUTPUTS:
        return FULL_LENGTH_OUTPUTS[case]
    output = load_config_file(str(CONFIG_DIR / f"{case}.json"))["output"]
    return tuple(hashlib.sha256((CONFIG_DIR.parent / output[key]).read_bytes()).hexdigest()
                 for key in ("metrics_csv", "summary_json"))


# the report's train cases are the ones pinned above, and every shipped config
# is one of its cases but qsgd_mnist, whose IDX files are not bundled
def test_full_length_report_covers_every_shipped_config(report):
    assert report.TRAIN_CASES == {case: (name, overrides) for case, (name, overrides, _, _)
                                  in PINNED_OUTPUTS.items()}
    assert set(report.TRAIN_CASES) == set(FULL_LENGTH_OUTPUTS)
    assert report.TOY_CASES == TOY_CASES
    run = {name for name, _ in report.TRAIN_CASES.values()} | set(report.TOY_CASES)
    assert run == {config.stem for config in CONFIG_DIR.glob("*.json")} - {"qsgd_mnist"}


@pytest.mark.parametrize("case", sorted(FULL_LENGTH_OUTPUTS) + list(TOY_CASES))
def test_full_length_outputs_pinned(case, report):
    csv, summary_json, _ = report.outputs(case)
    digest = lambda data: hashlib.sha256(data).hexdigest()
    assert (digest(csv), digest(summary_json)) == _full_length_pin(case)


# runs after the pins above have filled the report's cache, so it starts no run
def test_report_prints_the_pins(report, capsys):
    assert report.main() == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [fields[0] for fields in lines] == [*report.TRAIN_CASES, *TOY_CASES]
    for case, csv_sha, json_sha, *_ in lines:
        assert (csv_sha, json_sha) == _full_length_pin(case)


# the pins above compare float text that numpy's SIMD kernels and the OpenBLAS
# core can move; the benchmark record and the CI log name both
def test_machine_names_the_float_kernels(bench_record):
    from numpy._core import _multiarray_umath as umath

    machine = json.loads(json.dumps(bench_record.machine()))
    assert machine["numpy"] == np.__version__
    assert list(machine["cpu_dispatch"]) == list(umath.__cpu_dispatch__)
    assert machine["openblas_core"] is None or machine["openblas_core"]


# SHA-256 of the accuracy and bpp_payload columns of the full-length fedpm and
# signsgd runs.  The partition rule decides which rounds ship locations, and on
# these one-block configs not the blocks themselves, so a change to that rule
# alone leaves their selections, and with them these columns, as they are.
# Re-pinned for ordered random coding and its gamma-coded indices.
FULL_LENGTH_COLUMNS_PINNED = {
    "fedpm_separable": "e9bf8e578eef4da029068f26b3b01662127043d0a59b1eca8f0b697022535951",
    "signsgd_separable": "bae687165fd9c4fcea07794dc52686d94e639e1fa9fa3d6ef65acf1f7e2cfb55",
}


@pytest.mark.parametrize("case", sorted(FULL_LENGTH_COLUMNS_PINNED))
def test_full_length_accuracy_and_payload_pinned(case, report):
    csv, _, _ = report.outputs(case)
    lines = [line.split(",") for line in csv.decode().splitlines()]
    cols = [lines[0].index(name) for name in ("accuracy", "bpp_payload")]
    kept = "".join(",".join(line[i] for i in cols) + "\n" for line in lines)
    assert hashlib.sha256(kept.encode()).hexdigest() == FULL_LENGTH_COLUMNS_PINNED[case]


# the server drops its partition only when a re-cut could change it, so a
# shipped klms study settles: a one-block partition under the band is kept
def test_full_length_klms_runs_ship_locations_rarely(report):
    summaries = {case: report.outputs(case)[2] for case in report.TRAIN_CASES}
    klms = {case: s["location_rounds"] for case, s in summaries.items()
            if s["variant"] == "klms"}
    assert sorted(klms) == ["fedpm_separable", "qsgd_separable", "sgld_separable",
                            "signsgd_separable"]
    assert all(rounds <= 5 for rounds in klms.values()), klms


def _digests_without(case, csv_columns, summary_keys, tmp_path):
    """SHA-256 of a klms config's four-round metrics CSV and summary JSON,
    with the named CSV columns and summary keys taken out."""
    obj = load_config_file(str(CONFIG_DIR / f"{case}.json"))
    obj["rounds"] = 4
    rows, summary = run_experiment(parse_experiment_config(obj))
    csv_path, json_path = tmp_path / "metrics.csv", tmp_path / "summary.json"
    write_metrics_csv(rows, str(csv_path))
    write_summary_json(summary, str(json_path))
    lines = [line.split(",") for line in csv_path.read_text().splitlines()]
    cols = {lines[0].index(name) for name in csv_columns}
    csv = "".join(",".join(f for i, f in enumerate(line) if i not in cols) + "\n"
                  for line in lines)
    kept = json.loads(json_path.read_text())
    for key in summary_keys:
        del kept[key]
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return sha(csv), sha(json.dumps(kept, indent=2, sort_keys=True) + "\n")


# SHA-256 of the same four-round outputs with the header-dependent totals
# taken out: the metrics CSV without its bpp_total column, and the summary
# JSON without mean_bpp_total and total_bits_sent.  What is left records the
# decisions (selections, partitions, location rounds, accuracy, payload bits)
# and mean_kl_per_param, each client's own exact KL, which no wire field
# carries, so a change to the header alone leaves these digests as they are.
# Re-recorded when mean_kl_per_param stopped being read off the header's
# 8-bit KL code.
DECISIONS_PINNED = {
    "fedpm_separable": (
        "a2f0fe55300e50b20977974fdd1c766c998fdf27e68ea79adcaa1de41298fe9a",
        "6143662237a68b9e2f2d389d338ed74889732df0d720c1e81eceae48628148a8"),
    "qsgd_separable": (
        "cbdaebf6aae107c32469aa332f78e63c956ec7a377e58b50855ec67a2daeaac8",
        "c740c9f581e0475ae80b63f792e535c862a0f4d8eba820eea38f5c8bb466be1d"),
    "sgld_separable": (
        "92d3bc765c5f75004880672dc480d5861b7f96fabaece316af3e4fe81b9946d2",
        "d87d67f895e5d6a494f2f515dac320229fd53269f6bef9ed5d5b5b60f75e675b"),
    "signsgd_separable": (
        "ac52c548517709443570f9dea8ab058877bff858a2702edd351bec560a67a2d4",
        "8ec556e40f6003803de6642f6b3f16ed5c0ca3a731933b4b02ae36a7ae93fb2a"),
}


@pytest.mark.parametrize("case", sorted(DECISIONS_PINNED))
def test_decisions_pinned(case, tmp_path):
    assert _digests_without(case, ["bpp_total"], ["mean_bpp_total", "total_bits_sent"],
                            tmp_path) == DECISIONS_PINNED[case]


# SHA-256 of the same four-round outputs without the header's bits and without
# the reported KL: the metrics CSV without bpp_total and mean_kl_per_param,
# the summary JSON without mean_bpp_total and total_bits_sent.  What is left
# (selections through accuracy and payload bits, partitions and location
# rounds) depends on the header only through the server's partition rule, so
# these digests held when the header's 8-bit KL code gave way to the band
# kind code, whose majority rule keeps every partition these runs keep.
SELECTIONS_PINNED = {
    "fedpm_separable": (
        "968c2766f4e0caea96619178f3b4d3e9735371414301d1faa9bacf033d64ded5",
        "6143662237a68b9e2f2d389d338ed74889732df0d720c1e81eceae48628148a8"),
    "qsgd_separable": (
        "5081dabe512feeb50c142497bcce912dc6bc1ae905532a0df585ce1f670870c6",
        "c740c9f581e0475ae80b63f792e535c862a0f4d8eba820eea38f5c8bb466be1d"),
    "sgld_separable": (
        "f65e443a1cdb9ca9788d56cf05cd0b7768053d49478ca51dc4d3cda00800ff4c",
        "d87d67f895e5d6a494f2f515dac320229fd53269f6bef9ed5d5b5b60f75e675b"),
    "signsgd_separable": (
        "238a42768ffd9646154395f8e454223fbc135d3cb29516304441ea9b6f209017",
        "8ec556e40f6003803de6642f6b3f16ed5c0ca3a731933b4b02ae36a7ae93fb2a"),
}


@pytest.mark.parametrize("case", sorted(SELECTIONS_PINNED))
def test_selections_pinned(case, tmp_path):
    assert _digests_without(case, ["bpp_total", "mean_kl_per_param"],
                            ["mean_bpp_total", "total_bits_sent"],
                            tmp_path) == SELECTIONS_PINNED[case]
