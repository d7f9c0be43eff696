"""CLI behavior: subcommands, exit codes, overrides, reproducible outputs."""

import json
import math
import re
from pathlib import Path

import pytest

from fedklms.cli import main

EXPERIMENT = {
    "method": "qsgd",
    "variant": "klms",
    "seed": 4,
    "rounds": 3,
    "num_clients": 3,
    "clients_per_round": 3,
    "dataset": {"kind": "separable", "num_points": 120, "num_features": 10,
                 "margin": 0.4, "test_points": 60},
    "model": {"kind": "logistic"},
}

SGLD_SEPARABLE = Path(__file__).resolve().parent.parent / "configs" / "sgld_separable.json"

TOY = {"r_grid": [2.0], "client_grid": [1, 5], "eta_grid": [0.0],
       "runs": 10, "seed": 1}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["train", missing]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", str(path)]) == 1

    def test_invalid_config_values(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"method": "bogus"})
        assert main(["train", path]) == 1
        assert "method" in capsys.readouterr().err

    def test_runtime_error_is_code_two(self, tmp_path, capsys):
        # validates fine, fails at run time: csv dataset pointing nowhere
        obj = dict(EXPERIMENT)
        obj["dataset"] = {"kind": "csv", "train": str(tmp_path / "no.csv"),
                          "test": str(tmp_path / "no.csv")}
        path = write_json(tmp_path / "c.json", obj)
        assert main(["train", path]) == 2

    def test_non_finite_csv_feature_names_its_file_and_row(self, tmp_path, capsys):
        rows = [f"{i % 2},{i},{-i}" for i in range(20)]
        good = tmp_path / "good.csv"
        good.write_text("\n".join(rows) + "\n")
        rows[6] = "0,6,nan"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        obj = dict(EXPERIMENT)
        obj["dataset"] = {"kind": "csv", "train": str(bad), "test": str(good)}
        path = write_json(tmp_path / "c.json", obj)
        assert main(["validate", path]) == 0  # the config is sound; its data is not
        assert main(["train", path]) == 2
        assert f"{bad}: features must be finite: row 7, column 3 is nan" in capsys.readouterr().err

    def test_seed_on_non_object_config_train(self, tmp_path, capsys):
        path = write_json(tmp_path / "list.json", [1, 2])
        assert main(["train", path, "--seed", "3"]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_seed_on_non_object_config_toy(self, tmp_path, capsys):
        path = write_json(tmp_path / "list.json", [1, 2])
        assert main(["toy", path, "--seed", "3"]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["toy", "validate"])
    def test_toy_overhead_beyond_63_bit_fields_is_a_config_error(self, tmp_path,
                                                                 capsys, command):
        path = write_json(tmp_path / "t.json",
                          {"r_grid": [50.0], "client_grid": [1], "runs": 1})
        assert main([command, path]) == 1
        assert "r_grid[0]" in capsys.readouterr().err

    # a client's KL, mu^2 / (2 sigma^2) = 72 nats here, sizes its index fields
    @pytest.mark.parametrize("command", ["toy", "validate"])
    def test_toy_client_kl_beyond_63_bit_fields_is_a_config_error(self, tmp_path,
                                                                  capsys, command):
        path = write_json(tmp_path / "t.json",
                          {"mu": 12.0, "r_grid": [0.0], "client_grid": [1], "runs": 1})
        assert main([command, path]) == 1
        assert "mu: " in capsys.readouterr().err

    # sigma^2 underflows: the client KL would be 0 / 0
    @pytest.mark.parametrize("command", ["toy", "validate"])
    def test_toy_sigma_whose_square_underflows_is_a_config_error(self, tmp_path,
                                                                 capsys, command):
        path = write_json(tmp_path / "t.json", {"mu": 0.0, "sigma": 1e-200, "r_grid": [0.0],
                                                "client_grid": [1], "runs": 1})
        assert main([command, path]) == 1
        assert "sigma: " in capsys.readouterr().err

    def test_toy_smallest_sigma_with_a_normal_square_runs(self, tmp_path):
        path = write_json(tmp_path / "t.json", {"mu": 0.0, "sigma": 2.0**-511,
                                                "r_grid": [0.0], "client_grid": [1],
                                                "runs": 1})
        assert main(["toy", path, "--out", str(tmp_path / "toy.csv")]) == 0

    # the sgld message sigma, given or derived, squares to a subnormal or
    # overflows: the KL would divide by 0 or by inf
    @pytest.mark.parametrize("sgld", [
        {"noise_sigma": 1e-200},
        {"noise_sigma": 1e200},
        {"step_gamma": 1e-320},
        {"server_lr": 1e-320},
    ])
    def test_sgld_sigma_whose_square_is_not_normal_is_a_config_error(self, tmp_path,
                                                                     capsys, sgld):
        obj = json.loads(SGLD_SEPARABLE.read_text())
        obj["sgld"].update(sgld)
        assert main(["validate", write_json(tmp_path / "c.json", obj)]) == 1
        assert "sgld.noise_sigma: " in capsys.readouterr().err

    def test_sgld_small_sigma_with_a_normal_square_trains(self, tmp_path):
        obj = json.loads(SGLD_SEPARABLE.read_text())
        obj["sgld"]["noise_sigma"] = 1e-150
        obj["rounds"] = 2
        path = write_json(tmp_path / "c.json", obj)
        assert main(["validate", path]) == 0
        assert main(["train", path, "--out", str(tmp_path / "m.csv")]) == 0

    def test_toy_client_kl_inside_63_bit_fields_validates(self, tmp_path):
        # 43.6 of the 43.67 nats that fit; toy is not run, it would draw
        # 2^63 candidates per client
        path = write_json(tmp_path / "t.json", {"mu": 9.34, "r_grid": [0.0]})
        assert main(["validate", path]) == 0

    @pytest.mark.parametrize("command", ["train", "validate"])
    def test_config_path_is_directory(self, tmp_path, capsys, command):
        path = tmp_path / "configs"
        path.mkdir()
        assert main([command, str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "validate"])
    def test_config_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        assert main([command, str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestValidate:
    def test_ok_experiment(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", EXPERIMENT)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_ok_toy(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", TOY)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_experiment_without_method_key(self, tmp_path, capsys):
        # an experiment config may leave method at its default
        path = write_json(tmp_path / "c.json",
                          {"rounds": 2, "num_clients": 2, "clients_per_round": 2})
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_bad_config(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"rounds": -2, "method": "fedpm"})
        assert main(["validate", path]) == 1

    def test_max_block_size_over_63_bits_is_a_codec_error(self, tmp_path, capsys):
        # the schema takes any integer >= 1, but length fields are read as uint64
        obj = json.loads(SGLD_SEPARABLE.with_name("signsgd_separable.json").read_text())
        obj["rounds"] = 2
        obj["codec"]["max_block_size"] = 2**65
        assert main(["validate", write_json(tmp_path / "c.json", obj)]) == 1
        assert "codec: max_block_size must be an integer in" in capsys.readouterr().err

    # SignSGD's temperature is always temperature_scale * mean|delta|, and the
    # sgld baseline server always injects its Langevin noise
    @pytest.mark.parametrize("config, block, key, value", [
        ("signsgd_separable.json", "signsgd", "temperature_mode", "iterations"),
        ("sgld_separable.json", "sgld", "noise_enabled", False),
    ])
    def test_removed_method_setting_is_an_unknown_field(self, tmp_path, capsys,
                                                        config, block, key, value):
        obj = json.loads(SGLD_SEPARABLE.with_name(config).read_text())
        obj[block][key] = value
        assert main(["validate", write_json(tmp_path / "c.json", obj)]) == 1
        assert f"{block}.{key}: unknown field" in capsys.readouterr().err


class TestTrain:
    def test_writes_metrics_and_summary(self, tmp_path, capsys):
        obj = dict(EXPERIMENT)
        obj["output"] = {"metrics_csv": str(tmp_path / "m.csv"),
                         "summary_json": str(tmp_path / "s.json")}
        path = write_json(tmp_path / "c.json", obj)
        assert main(["train", path]) == 0
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0].startswith("round,")
        assert len(lines) == 1 + obj["rounds"]
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["method"] == "qsgd"
        # bitrates are compared on total bits, so the line prints them
        assert capsys.readouterr().out == (
            f"qsgd/klms: {obj['rounds']} rounds, "
            f"final accuracy {summary['final_accuracy']:.4f}, "
            f"mean payload {summary['mean_bpp_payload']:.4f} bpp, "
            f"total {summary['mean_bpp_total']:.4f} bpp, "
            f"{summary['location_rounds']} location rounds -> {tmp_path / 'm.csv'}\n")

    def test_out_override(self, tmp_path):
        path = write_json(tmp_path / "c.json", EXPERIMENT)
        out = tmp_path / "custom.csv"
        assert main(["train", str(path), "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "custom.summary.json").exists()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_json(tmp_path / "c.json", EXPERIMENT)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["train", str(path), "--out", str(a)]) == 0
        assert main(["train", str(path), "--out", str(b), "--seed", "99"]) == 0
        assert main(["train", str(path), "--out", str(c)]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert a.read_bytes() == c.read_bytes()


class TestToyCommand:
    def test_runs_with_config(self, tmp_path):
        path = write_json(tmp_path / "t.json", TOY)
        out = tmp_path / "toy.csv"
        assert main(["toy", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,N,eta,mean_abs_gap,std_gap"
        assert len(lines) == 3

    def test_byte_identical_rerun(self, tmp_path):
        path = write_json(tmp_path / "t.json", TOY)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["toy", str(path), "--out", str(a)]) == 0
        assert main(["toy", str(path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCodecBenchArguments:
    @pytest.mark.parametrize("flag, value", [
        ("--coords", "0"),
        ("--coords", "-3"),
        ("--coords", "many"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
    ])
    def test_out_of_range_is_a_usage_error(self, flag, value, capsys):
        assert main(["codec-bench", flag, value]) == 1
        assert f"argument {flag}: must be an integer" in capsys.readouterr().err

    def test_range_edges_run(self, capsys):
        assert main(["codec-bench", "--coords", "1", "--seed", str(2**64 - 1)]) == 0
        assert "checksum" in capsys.readouterr().out


class TestCodecBench:
    def test_reports_rates_and_checksum(self, capsys):
        assert main(["codec-bench", "--coords", "20000"]) == 0
        out = capsys.readouterr().out
        assert "encode" in out and "decode" in out
        assert "checksum" in out

    def test_checksum_stable_across_runs(self, capsys):
        assert main(["codec-bench", "--coords", "20000", "--seed", "7"]) == 0
        first = capsys.readouterr().out.splitlines()[-1]
        assert main(["codec-bench", "--coords", "20000", "--seed", "7"]) == 0
        second = capsys.readouterr().out.splitlines()[-1]
        assert first == second
        assert main(["codec-bench", "--coords", "20000", "--seed", "8"]) == 0
        third = capsys.readouterr().out.splitlines()[-1]
        assert first != third

    def test_total_counts_the_wire_bytes(self, capsys):
        assert main(["codec-bench", "--coords", "20000", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        match = re.fullmatch(r"total: (\d+) bits \(\S+ bpp\), (\d+) wire bytes", lines[-2])
        total_bits, wire_bytes = map(int, match.groups())
        assert wire_bytes == math.ceil(total_bits / 8)

    def test_index_bits_are_the_mean_code_sent(self, capsys):
        assert main(["codec-bench", "--coords", "20000", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        match = re.fullmatch(r"coords: 20000, blocks: (\d+), index bits: (\S+) mean, K = 256",
                             lines[0])
        blocks, mean_bits = int(match.group(1)), float(match.group(2))
        payload = int(re.match(r"payload: (\d+) bits", lines[3]).group(1))
        assert mean_bits == round(payload / blocks, 2)
        assert mean_bits < 8  # log2 K, what every index cost before ordered random coding

    def test_checksum_pinned(self, capsys):
        # recorded when the encoder moved to ordered random coding
        assert main(["codec-bench", "--coords", "20000", "--seed", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "decoded checksum: "
            "e644969a1c1a1af4006dcd16934f7446d877dbb8bbc2842c21befb399f31036b")
