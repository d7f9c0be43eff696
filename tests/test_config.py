"""Config parsing: defaults, validation, error aggregation."""

import json
from pathlib import Path

import pytest

from fedklms.config import (
    ConfigError,
    load_config_file,
    parse_experiment_config,
    parse_toy_config,
)

REPO = Path(__file__).resolve().parent.parent


class TestExperimentParsing:
    def test_empty_object_gives_defaults(self):
        cfg = parse_experiment_config({})
        assert cfg.method == "fedpm"
        assert cfg.variant == "klms"
        assert cfg.rounds == 50
        assert cfg.codec.d_kl_target == 3.0
        assert cfg.codec.kl_min_threshold == 1.5
        assert cfg.codec.kl_max_threshold == 6.0

    def test_kl_band_defaults_follow_target(self):
        cfg = parse_experiment_config({"codec": {"d_kl_target": 2.0}})
        assert cfg.codec.kl_min_threshold == 1.0
        assert cfg.codec.kl_max_threshold == 4.0

    def test_explicit_band_kept(self):
        cfg = parse_experiment_config(
            {"codec": {"d_kl_target": 2.0, "kl_min_threshold": 0.1,
                       "kl_max_threshold": 9.0}}
        )
        assert cfg.codec.kl_min_threshold == 0.1
        assert cfg.codec.kl_max_threshold == 9.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_experiment_config({"methd": "fedpm"})

    def test_unknown_nested_field_names_path(self):
        with pytest.raises(ConfigError, match="codec.block_sz"):
            parse_experiment_config({"codec": {"block_sz": 9}})

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            parse_experiment_config({"method": "gradient-droppping"})

    def test_errors_are_aggregated(self):
        try:
            parse_experiment_config(
                {"method": "nope", "rounds": 0, "codec": {"d_kl_target": -1}}
            )
        except ConfigError as err:
            text = str(err)
            assert "method" in text and "rounds" in text and "d_kl_target" in text
        else:
            pytest.fail("expected ConfigError")

    def test_participants_bounded_by_clients(self):
        with pytest.raises(ConfigError, match="clients_per_round"):
            parse_experiment_config({"num_clients": 3, "clients_per_round": 5})

    def test_csv_dataset_requires_paths(self):
        with pytest.raises(ConfigError, match="dataset.train"):
            parse_experiment_config({"dataset": {"kind": "csv"}})

    def test_idx_dataset_requires_paths(self):
        with pytest.raises(ConfigError, match="dataset.train_images"):
            parse_experiment_config({"dataset": {"kind": "idx"}})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_experiment_config({"rounds": True})

    def test_method_block_fields(self):
        cfg = parse_experiment_config(
            {"sgld": {"noise_enabled": False, "step_gamma": 0.5},
             "signsgd": {"temperature_mode": "iterations"}}
        )
        assert cfg.sgld.noise_enabled is False
        assert cfg.sgld.step_gamma == 0.5
        assert cfg.signsgd.temperature_mode == "iterations"

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            parse_experiment_config([1, 2])

    # Each value has the right type but would fail at run time (level 0,
    # division by zero, float-to-int conversion); the bounds are those of
    # config.schema.json.  JSON text, because json.loads is what turns NaN
    # and Infinity into floats.
    @pytest.mark.parametrize("text, field", [
        ('{"qsgd": {"levels": 0}}', "qsgd.levels"),
        ('{"qsgd": {"batch_size": 0}}', "qsgd.batch_size"),
        ('{"fedpm": {"batch_size": 0}}', "fedpm.batch_size"),
        ('{"signsgd": {"local_epochs": 0}}', "signsgd.local_epochs"),
        ('{"fedpm": {"reset_every": -1}}', "fedpm.reset_every"),
        ('{"sgld": {"server_lr": 0}}', "sgld.server_lr"),
        ('{"fedpm": {"prior_lambda": 0.0}}', "fedpm.prior_lambda"),
        ('{"codec": {"overhead_r": Infinity}}', "codec.overhead_r"),
        ('{"sgld": {"step_gamma": Infinity}}', "sgld.step_gamma"),
        ('{"qsgd": {"local_lr": NaN}}', "qsgd.local_lr"),
        pytest.param('{"sgld": {"step_gamma": 1' + "0" * 400 + '}}', "sgld.step_gamma",
                     id="step_gamma-1e400-as-integer"),
        pytest.param('{"rounds": 1' + "0" * 400 + '}', "rounds",
                     id="rounds-1e400"),
        ('{"seed": 18446744073709551616}', "seed"),
        ('{"dataset": {"margin": NaN}}', "dataset.margin"),
        ('{"dataset": {"spread": 0}}', "dataset.spread"),
        ('{"codec": {"kl_max_threshold": 0}}', "codec.kl_max_threshold"),
    ])
    def test_out_of_range_rejected_with_path(self, text, field):
        with pytest.raises(ConfigError, match=field):
            parse_experiment_config(json.loads(text))

    def test_reset_every_zero_disables_resets(self):
        cfg = parse_experiment_config({"fedpm": {"reset_every": 0}})
        assert cfg.fedpm.reset_every == 0


class TestToyParsing:
    def test_defaults(self):
        cfg = parse_toy_config({})
        assert cfg.mu == 0.8
        assert cfg.r_grid == (0.0, 2.0, 4.0, 6.0)
        assert cfg.client_grid == (1, 5, 10, 50, 100)
        assert cfg.eta_grid == (0.0,)
        assert cfg.runs == 100

    def test_grids_parsed(self):
        cfg = parse_toy_config({"r_grid": [6], "client_grid": [2, 4], "eta_grid": [0.1]})
        assert cfg.r_grid == (6.0,)
        assert cfg.client_grid == (2, 4)
        assert cfg.eta_grid == (0.1,)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="r_grid"):
            parse_toy_config({"r_grid": []})

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_toy_config({"sigma": -1.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_toy_config({"mu_grid": [1]})


class TestConfigFiles:
    def test_load_config_file_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "qsgd", "rounds": 7}))
        cfg = parse_experiment_config(load_config_file(str(path)))
        assert cfg.method == "qsgd"
        assert cfg.rounds == 7

    def test_every_shipped_config_validates(self):
        configs = sorted((REPO / "configs").glob("*.json"))
        assert configs, "no example configs found"
        for path in configs:
            obj = load_config_file(str(path))
            if "method" in obj:
                parse_experiment_config(obj)
            else:
                parse_toy_config(obj)

    def test_schema_file_is_valid_json(self):
        schema = json.loads(
            (REPO / "src" / "fedklms" / "config.schema.json").read_text()
        )
        assert "$defs" in schema
        experiment = schema["$defs"]["experiment"]["properties"]
        # schema documents the same method set the parser accepts
        assert set(experiment["method"]["enum"]) == {
            "fedpm", "qsgd", "signsgd", "sgld", "none"
        }
