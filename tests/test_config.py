"""Config parsing: defaults, validation, error aggregation."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from fedklms.cli import main
from fedklms.config import (
    ConfigError,
    load_config_file,
    parse_experiment_config,
    parse_toy_config,
)

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "src" / "fedklms" / "config.schema.json").read_text())


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

    def test_index_fields_over_63_bits_refused(self):
        # 50 + 2 (the default overhead_r) nats need ceil(52 / ln 2) = 76-bit
        # index fields, which the wire reader cannot hold
        with pytest.raises(ConfigError, match="codec: .*wider than 63 bits"):
            parse_experiment_config({"codec": {"d_kl_target": 50}})

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
            {"sgld": {"step_gamma": 0.5}, "signsgd": {"temperature_scale": 3.0}}
        )
        assert cfg.sgld.step_gamma == 0.5
        assert cfg.signsgd.temperature_scale == 3.0

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            parse_experiment_config([1, 2])

    # Each value but dataset.train's has the right type and would fail at run
    # time (level 0, division by zero, float-to-int conversion, fewer points
    # than clients); the bounds are those of config.schema.json.
    # dataset.train has the wrong type in a field that only the csv kind
    # reads.  JSON text, because json.loads is what turns NaN and Infinity
    # into floats.
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
        ('{"dataset": {"train": 5}}', "dataset.train"),
        ('{"dataset": {"num_points": 5}, "num_clients": 10, "clients_per_round": 10}',
         "dataset.num_points"),
    ])
    def test_out_of_range_rejected_with_path(self, text, field):
        with pytest.raises(ConfigError, match=field):
            parse_experiment_config(json.loads(text))

    # The codec message ignores the setting; the baseline message reads it.
    @pytest.mark.parametrize("obj, field", [
        ({"method": "qsgd", "qsgd": {"levels": 4}}, "qsgd.levels"),
    ])
    def test_setting_the_codec_ignores_refused_under_klms(self, obj, field):
        with pytest.raises(ConfigError, match=f"{field}: must be"):
            parse_experiment_config({**obj, "variant": "klms"})
        cfg = parse_experiment_config({**obj, "variant": "baseline"})
        block, name = field.split(".")
        assert getattr(getattr(cfg, block), name) == obj[block][name]

    # Each setting is read in one context and ignored in the other.
    @pytest.mark.parametrize("refused, accepted, field", [
        ({"method": "sgld", "variant": "baseline", "sgld": {"noise_sigma": 0.5}},
         {"method": "sgld", "variant": "klms", "sgld": {"noise_sigma": 0.5}},
         "sgld.noise_sigma"),
        # none sends the raw float32 delta; the qsgd baseline quantizes
        ({"method": "none", "variant": "baseline", "qsgd": {"levels": 4}},
         {"method": "qsgd", "variant": "baseline", "qsgd": {"levels": 4}},
         "qsgd.levels"),
    ])
    def test_setting_the_run_ignores_refused(self, refused, accepted, field):
        with pytest.raises(ConfigError, match=f"{field}: must be"):
            parse_experiment_config(refused)
        cfg = parse_experiment_config(accepted)
        block, name = field.split(".")
        assert getattr(getattr(cfg, block), name) == accepted[block][name]

    def test_reset_every_zero_disables_resets(self):
        cfg = parse_experiment_config({"fedpm": {"reset_every": 0}})
        assert cfg.fedpm.reset_every == 0


TOY_MU_EDGE = math.sqrt(2.0 * (63 * math.log(2.0) - 2.0)) - 0.5


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

    # a cell's index fields hold ceil((1 + r) / ln 2) bits, at most 63: the
    # boundary r = 63 ln 2 - 1 is accepted, r just above it refused by path
    def test_r_grid_at_the_63_bit_boundary_accepted(self):
        r = 63 * math.log(2.0) - 1.0
        assert parse_toy_config({"r_grid": [0.0, r]}).r_grid == (0.0, r)

    @pytest.mark.parametrize("r", [63 * math.log(2.0) - 1.0 + 1e-9, 50.0])
    def test_r_grid_needing_wider_index_fields_rejected(self, r):
        with pytest.raises(ConfigError, match=r"r_grid\[1\]: .* wider than 63 bits"):
            parse_toy_config({"r_grid": [0.0, r]})

    # a client sizes its index fields from its own KL, at most
    # (|mu| + max eta_grid)^2 / (2 sigma^2), plus r, and that sum may be at
    # most 63 ln 2 nats: with sigma 1, eta 0.5 and r 2, |mu| has its edge at
    # TOY_MU_EDGE, just inside which mu is accepted and just outside refused
    @pytest.mark.parametrize("mu", [TOY_MU_EDGE - 1e-9, -TOY_MU_EDGE + 1e-9])
    def test_client_kl_at_the_63_bit_boundary_accepted(self, mu):
        cfg = parse_toy_config({"mu": mu, "eta_grid": [0.0, 0.5], "r_grid": [0.0, 2.0]})
        assert cfg.mu == mu

    @pytest.mark.parametrize("obj", [
        {"mu": TOY_MU_EDGE + 1e-9, "eta_grid": [0.0, 0.5], "r_grid": [0.0, 2.0]},
        {"mu": -TOY_MU_EDGE - 1e-9, "eta_grid": [0.0, 0.5], "r_grid": [0.0, 2.0]},
        {"mu": 12.0, "r_grid": [0.0]},  # 72 nats: 104-bit indices
        {"mu": 0.8, "sigma": 0.05, "r_grid": [0.0]},  # 128 nats: 185 bits
        {"mu": 1e200},  # the squared ratio is past float range
        {"mu": 1.0, "sigma": 1e-300},
    ])
    def test_client_kl_needing_wider_index_fields_rejected(self, obj):
        with pytest.raises(ConfigError, match=r"mu: .* wider than 63 bits"):
            parse_toy_config(obj)

    # the client KL and log ratio divide by sigma^2, a normal float64 for
    # 2^-511 <= sigma < 2^512 only
    @pytest.mark.parametrize("sigma", [2.0**-511, math.nextafter(2.0**512, 0.0)])
    def test_sigma_whose_square_is_normal_accepted(self, sigma):
        assert parse_toy_config({"mu": 0.0, "sigma": sigma}).sigma == sigma

    @pytest.mark.parametrize("sigma", [
        1e-200, math.nextafter(2.0**-511, 0.0), 2.0**512, 1e155,
    ])
    def test_sigma_whose_square_is_not_normal_rejected(self, sigma):
        with pytest.raises(ConfigError, match=r"sigma: its square must be a normal"):
            parse_toy_config({"mu": 0.0, "sigma": sigma})

    # the r_grid, mu and sigma rules report together, one line each; with
    # sigma 1e-200 the client KL is inf nats, so mu is named as well
    @pytest.mark.parametrize("obj, paths", [
        ({"r_grid": [50.0], "sigma": 1e-200}, ["r_grid[0]", "mu", "sigma"]),
        ({"mu": 12.0, "sigma": 1e-200}, ["mu", "sigma"]),
    ])
    def test_every_rule_fault_reported_at_once(self, obj, paths):
        with pytest.raises(ConfigError) as info:
            parse_toy_config(obj)
        named = [line.split(": ")[0] for line in str(info.value).splitlines()[1:]]
        assert [name.strip() for name in named] == paths


class TestConfigFiles:
    def test_load_config_file_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"method": "qsgd", "rounds": 7}))
        cfg = parse_experiment_config(load_config_file(str(path)))
        assert cfg.method == "qsgd"
        assert cfg.rounds == 7

    def test_every_shipped_config_validates(self, capsys):
        configs = sorted((REPO / "configs").glob("*.json"))
        assert configs, "no example configs found"
        for path in configs:
            assert main(["validate", str(path)]) == 0, capsys.readouterr().err

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


# SHA-256 of repr(parse_*(obj)), recorded before the schema drove parsing:
# every shipped config, plus inputs whose result is easy to get wrong (a
# partial output block keeps its owner's other default, null means the
# default, an integer given for a number comes back as a float).
PARSE_CASES = [
    (name, "toy" if name.startswith("toy_") else "experiment",
     json.loads((REPO / "configs" / name).read_text()), digest)
    for name, digest in [
        ("fedpm_separable.json", "6bc359576be1d7271e837e44249d59850a59515ee8f081f11c9c79fbe02d981c"),
        ("fedpm_separable_baseline.json", "4a56c530713d25d9a1387b1fd109122bfab41838fe01c28e4b00a703d6a7727b"),
        ("qsgd_mnist.json", "595aaf7f17031a5ed81092c7dc659fe83215e6f1d865d823143ed9fb5761aa9a"),
        ("qsgd_separable.json", "7b7fedb164162830bbf1d2223c7851f475a623e972bc2fd2059086f8ead4d007"),
        ("sgld_separable.json", "919d79cee38a61ece66bc215f0fc5655c90f49b305c2685e289140756e13546a"),
        ("signsgd_separable.json", "d2003cd83bdcea9c66e09fd331b841adc2c30b5851f34eab996ecf10cc3db36a"),
        ("toy_default.json", "3b44df7e37ca9747635094e3f0a625fb8817a07f78873dc7d0dfd0993f4203fc"),
        ("toy_heterogeneity.json", "fa05610f5afbb01c18ab163754611341c102aa24ad243ac1c5a5125613b1319e"),
    ]
] + [
    ("toy_partial_output", "toy", {"output": {"metrics_csv": "grid.csv"}},
     "631c28b764a6aa6119165f34abe07838d810b1861246482945cef99e574a7a43"),
    ("experiment_partial_output", "experiment", {"output": {"summary_json": "run.json"}},
     "f80ea8aa857a581ffcba0d1a7bfe797a71fff704fef82ac8bcbcad7d8fc6c23c"),
    ("nulls", "experiment",
     {"sgld": {"noise_sigma": None},
      "codec": {"kl_min_threshold": None, "kl_max_threshold": None},
      "dataset": {"kind": "idx", "train_images": "ti", "train_labels": "tl",
                  "test_images": "vi", "test_labels": "vl",
                  "train_limit": None, "test_limit": None}},
     "032b67544ca754a9573fd734ab4f78f7b6b23c41343c1c77aad7deccedbbb415"),
    ("qsgd_int_lr", "experiment", {"qsgd": {"local_lr": 1}},
     "d871c07df2d5f7d9269ba5f7953c9ad0de2dc246b9c6a08a0bb0706e17c933c3"),
]


@pytest.mark.parametrize("name, kind, obj, digest", PARSE_CASES,
                         ids=[c[0] for c in PARSE_CASES])
def test_parse_result_pinned(name, kind, obj, digest):
    parse = parse_experiment_config if kind == "experiment" else parse_toy_config
    text = repr(parse(obj))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def _schema_defaults(node, path=()):
    for key, sub in node.get("properties", {}).items():
        if "default" in sub:
            yield path + (key,), sub["default"]
        yield from _schema_defaults(sub, path + (key,))


@pytest.mark.parametrize("kind, parse", [("experiment", parse_experiment_config),
                                         ("toy", parse_toy_config)])
def test_schema_defaults_match_parsed_defaults(kind, parse):
    cfg = parse({})
    defaults = list(_schema_defaults(SCHEMA["$defs"][kind]))
    assert defaults
    for path, default in defaults:
        value = cfg
        for key in path:
            value = getattr(value, key)
        expected = tuple(default) if isinstance(default, list) else default
        assert value == expected and type(value) is type(expected), (path, value)


# keywords _walk in fedklms.config enforces, and keywords that only annotate
IMPLEMENTED_KEYWORDS = {
    "type", "enum", "minimum", "exclusiveMinimum", "maximum", "properties",
    "additionalProperties", "items", "minItems", "minLength",
}
ANNOTATION_KEYWORDS = {
    "title", "description", "default", "$schema", "$defs", "$ref", "anyOf",
}


def _schema_keywords(node):
    for key, value in node.items():
        yield key
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from _schema_keywords(sub)
        elif key == "anyOf":
            for sub in value:
                yield from _schema_keywords(sub)
        elif key == "items":
            yield from _schema_keywords(value)


def test_schema_uses_only_enforced_keywords():
    unknown = set(_schema_keywords(SCHEMA)) - IMPLEMENTED_KEYWORDS - ANNOTATION_KEYWORDS
    assert not unknown, f"schema keywords the config walker does not enforce: {unknown}"
