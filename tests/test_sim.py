"""End-to-end simulator checks: accounting, partition protocol, determinism."""

import hashlib
import json
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
        "bac7f294466ecf022e26965e922873a882d6e636559605ffe573fbd21dd9f76f",
        "0cbd82e62c8247ea5ee7058838b049ea58346a4860126b1600a4dbb0ab1d301f"),
    "fedpm_separable_baseline": ("fedpm_separable_baseline", {},
        "737412e9fa061a8148c55476315c5f622de12dcaa7e49857b642f97f0ab1de4f",
        "304d46ae231dff58c0257194b9bab79a48dc61d7e48ef1c12846d813e192fa94"),
    "qsgd_separable": ("qsgd_separable", {},
        "131fe1f219f40e5bff110aca8a1d2acf67ac1f146aaff3e53342b57fd42176ab",
        "a92f781b451825e0074b0dd0ced8ca236dade16f8e29e38bf62bdfb61d16a531"),
    "signsgd_separable": ("signsgd_separable", {},
        "b66e2bd54d598a41cae6925a6b49911cd4a326da8074d37ed6e54d7460a46439",
        "8b1ae3b4b53f620d7ae03c367e8a7aabbfbf8e01da052351fb55e1c4958d0b31"),
    "sgld_separable": ("sgld_separable", {},
        "c40f34cd530ec6fbe9c1f2da4415ed6cbea4f622edd2d5c378affce36ed6bb7b",
        "08b1a74fcca80692b09cec1bc637ea25943d308c8083312529d914cd75632c34"),
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


# SHA-256 of the same four-round outputs with the header-dependent totals
# taken out: the metrics CSV without its bpp_total column, and the summary
# JSON without mean_bpp_total and total_bits_sent.  What is left records the
# decisions (selections, partitions, location rounds, accuracy, payload bits
# and the transmitted KL), so a change to the wire header alone leaves these
# digests as they are.
DECISIONS_PINNED = {
    "fedpm_separable": (
        "31d36236045db51a3bfea82887545f0329b684b038a24bfcb87d1b43029b0f59",
        "977e1dbe65bae052fda8beb6e4f4df3232f450ab1f65fb404843aaf6b088580e"),
    "qsgd_separable": (
        "14811c93b8593501ca8f3369b448a5495c67394f0d5ec35dbbc8f218c2011209",
        "90ffc253cd098facd8d25f2dc09ebb3eebec0e9a72a3dd18c9ca8909d8aeb03a"),
    "sgld_separable": (
        "4253736f8b7db3ba73363df4c0969e5783718f6a7393da3381dea30012d5cd47",
        "8cf6e3d7e87862d814f83612382f606c2aed2755f8922c7d3d4dd8cd6afef269"),
    "signsgd_separable": (
        "646e63093166ce9b13138b7f84bb74a53579c2b166d9182be05950e9a134d7b2",
        "5621fe9fd9885d7c58774d3442c316ec295c5d1a35d431cdc5d499900f56b8d8"),
}


@pytest.mark.parametrize("case", sorted(DECISIONS_PINNED))
def test_decisions_pinned(case, tmp_path):
    obj = load_config_file(str(CONFIG_DIR / f"{case}.json"))
    obj["rounds"] = 4
    rows, summary = run_experiment(parse_experiment_config(obj))
    csv_path, json_path = tmp_path / "metrics.csv", tmp_path / "summary.json"
    write_metrics_csv(rows, str(csv_path))
    write_summary_json(summary, str(json_path))
    lines = [line.split(",") for line in csv_path.read_text().splitlines()]
    col = lines[0].index("bpp_total")
    csv = "".join(",".join(f for i, f in enumerate(line) if i != col) + "\n"
                  for line in lines)
    kept = json.loads(json_path.read_text())
    del kept["mean_bpp_total"], kept["total_bits_sent"]
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (sha(csv), sha(json.dumps(kept, indent=2, sort_keys=True) + "\n")) == \
        DECISIONS_PINNED[case]
