"""End-to-end simulator checks: accounting, partition protocol, determinism."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

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

    def test_empty_band_alternates_update_rounds(self):
        # with an impossible band every ordinary round re-raises the flag
        cfg = make_config(
            rounds=6,
            codec={
                "d_kl_target": 3.0,
                "overhead_r": 2.0,
                "max_block_size": 256,
                "kl_min_threshold": 3.0,
                "kl_max_threshold": 3.0,
            },
        )
        rows, _ = run_experiment(cfg)
        flags = [r.partition_updated for r in rows]
        assert flags == [True, False, True, False, True, False] or all(
            flags[i] or not flags[i + 1] for i in range(len(flags) - 1)
        )

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
# cover the initial location round, ordinary rounds and, for the codec
# variants, a location round the KL band re-triggers.  Any change to a stream
# label, a bit price or the operation order of a server update shows here.
PINNED_OUTPUTS = {
    "fedpm_separable": ("fedpm_separable", {},
        "0155a67d65bf2d74bfd7a451f4898093693789ed2df7d25313e1462af4750f21",
        "5790b419bb5fffcdfec046c9a6758684fb5277895eaf45376bcdcd35b6076af3"),
    "fedpm_separable_baseline": ("fedpm_separable_baseline", {},
        "737412e9fa061a8148c55476315c5f622de12dcaa7e49857b642f97f0ab1de4f",
        "304d46ae231dff58c0257194b9bab79a48dc61d7e48ef1c12846d813e192fa94"),
    "qsgd_separable": ("qsgd_separable", {},
        "289961f6c61555f665f081ebb98102b312e6efcd6ce5e2de6a2c8e7db8511080",
        "cf586271bce20d715f719d00d00088abaaef2010ed29f283a22250c3adc4b75f"),
    "signsgd_separable": ("signsgd_separable", {},
        "13b5c789334380b4312c0f0cca30eeb5dd72854d5470e51073a3ac8928f9eb9f",
        "4c27331444cea1e4845693abe4783923b059adba487feedd665a3480ee547dcb"),
    "sgld_separable": ("sgld_separable", {},
        "fac539b3725c07d3f3f40b7c5f4eddca7edaa74635f441bd2d6f90a0fc6fcb9a",
        "7451431e4bd5516a8d41284d53f176fc9eccac6962084c64a107762e2888eac5"),
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
