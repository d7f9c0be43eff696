"""JSON experiment configuration: validation against the schema, defaults.

config.schema.json next to this module defines every field with its type,
bound, allowed values and default, and :func:`_walk` checks a config against
it.  Errors are collected with dotted field paths ("codec.d_kl_target: must
be > 0, got -1") so a bad config reports everything wrong at once.  Only the
rules that relate two fields are written here: clients_per_round cannot
exceed num_clients, a synthetic dataset needs at least one training point per
client, a csv or idx dataset needs its paths, d_kl_target plus overhead_r, a
toy r_grid entry and the toy's largest client KL need index fields of at most
63 bits, the square of the toy's sigma and of the sgld message sigma
sqrt(2 * step_gamma * clients_per_round) / server_lr under variant klms must
be a normal float64, and no setting is accepted that the run would then
ignore: qsgd.levels other than 1 under variant klms or method none (neither
message has levels).  The KL band is not a field: the codec derives it
from d_kl_target.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import CodecParams, index_fields_too_wide
from .methods import FedPMParams, QSGDParams, SGLDParams, SignSGDParams

_DEFS = json.loads(Path(__file__).with_name("config.schema.json").read_text())["$defs"]
# top-level keys that only a toy config declares; validate classifies by them
TOY_ONLY_KEYS = frozenset(_DEFS["toy"]["properties"]).difference(
    _DEFS["experiment"]["properties"]
)
# path fields a file-backed dataset kind cannot run without
_DATASET_PATHS = {
    "csv": ("train", "test"),
    "idx": ("train_images", "train_labels", "test_images", "test_labels"),
}


class ConfigError(ValueError):
    """Invalid configuration; message lists every offending field."""


@dataclass
class DatasetConfig:
    kind: str = "separable"
    # synthetic
    num_points: int = 400
    num_features: int = 20
    num_classes: int = 2
    margin: float = 1.0
    spread: float = 3.0
    test_points: int = 200
    # csv
    train: str | None = None
    test: str | None = None
    # idx
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    train_limit: int | None = None
    test_limit: int | None = None


@dataclass
class SplitConfig:
    mode: str = "iid"
    max_classes_per_client: int = 3


@dataclass
class ModelConfig:
    kind: str = "logistic"
    hidden_units: int = 64


@dataclass
class OutputConfig:
    metrics_csv: str = "metrics.csv"
    summary_json: str = "summary.json"


@dataclass
class ExperimentConfig:
    method: str = "fedpm"
    variant: str = "klms"
    seed: int = 0
    rounds: int = 50
    num_clients: int = 10
    clients_per_round: int = 10
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    codec: CodecParams = field(default_factory=lambda: CodecParams(
        d_kl_target=3.0, overhead_r=2.0, max_block_size=4096,
    ))
    fedpm: FedPMParams = field(default_factory=FedPMParams)
    qsgd: QSGDParams = field(default_factory=QSGDParams)
    signsgd: SignSGDParams = field(default_factory=SignSGDParams)
    sgld: SGLDParams = field(default_factory=SGLDParams)
    output: OutputConfig = field(default_factory=OutputConfig)


@dataclass
class ToyConfig:
    mu: float = 0.8
    sigma: float = 1.0
    r_grid: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0)
    client_grid: tuple[int, ...] = (1, 5, 10, 50, 100)
    eta_grid: tuple[float, ...] = (0.0,)
    runs: int = 100
    seed: int = 0
    output: OutputConfig = field(default_factory=lambda: OutputConfig(
        metrics_csv="toy.csv", summary_json="toy_summary.json"
    ))

    @staticmethod
    def codec_params(overhead_r: float) -> CodecParams:
        """The codec constants of one r_grid cell."""
        return CodecParams(d_kl_target=1.0, overhead_r=overhead_r)


def _walk(node: dict, value, path: str, errors: list[str]):
    """Check value against one schema node.

    Returns the value converted for the dataclasses (numbers to float, arrays
    to tuples, objects to a dict of their valid non-null fields), or None
    after appending to errors why it is invalid.
    """
    types = node.get("type", [])
    types = [types] if isinstance(types, str) else types
    if value is None and "null" in types:
        return None
    if "enum" in node:
        if value in node["enum"]:
            return value
        return errors.append(f"{path}: must be one of {node['enum']}, got {value!r}")
    if "object" in types:
        if not isinstance(value, dict):
            return errors.append(f"{path}: must be an object")
        props = node["properties"]
        field_path = lambda key: f"{path}.{key}" if path else key
        if node.get("additionalProperties") is False:
            errors.extend(f"{field_path(key)}: unknown field"
                          for key in value if key not in props)
        walked = {key: _walk(props[key], item, field_path(key), errors)
                  for key, item in value.items() if key in props}
        return {key: item for key, item in walked.items() if item is not None}
    if "array" in types:
        min_items = node.get("minItems", 0)
        if not isinstance(value, list) or len(value) < min_items:
            return errors.append(f"{path}: must be an array of at least {min_items} items")
        return tuple(_walk(node["items"], item, f"{path}[{i}]", errors)
                     for i, item in enumerate(value))
    if "string" in types:
        min_length = node.get("minLength", 0)
        if isinstance(value, str) and len(value) >= min_length:
            return value
        return errors.append(f"{path}: must be a string of length >= {min_length}, got {value!r}")
    if "boolean" in types:
        return value if isinstance(value, bool) else errors.append(f"{path}: must be a boolean")
    integer = "integer" in types
    if integer and (isinstance(value, bool) or not isinstance(value, int)):
        return errors.append(f"{path}: must be an integer, got {value!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return errors.append(f"{path}: must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal beyond float range
        v = math.inf
    if not math.isfinite(v):
        # json.loads accepts NaN, Infinity and integers of any size
        return errors.append(f"{path}: must be a finite number within float range")
    # bounds compare value, not v: exact for integers beyond 2^53
    strict = "exclusiveMinimum" in node
    lo, hi = node.get("exclusiveMinimum", node.get("minimum")), node.get("maximum")
    if lo is not None and (value <= lo if strict else value < lo):
        return errors.append(f"{path}: must be {'>' if strict else '>='} {lo}, got {value}")
    if hi is not None and value > hi:
        return errors.append(f"{path}: must be <= {hi}, got {value}")
    return int(value) if integer else v


def _validate(obj, kind: str) -> tuple[list[str], dict]:
    if not isinstance(obj, dict):
        raise ConfigError("invalid config:\n  top level: must be a JSON object")
    errors: list[str] = []
    return errors, _walk(_DEFS[kind], obj, "", errors)


def _raise_if(errors: list[str]) -> None:
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))


def _sigma_errors(path: str, sigma: float, derived: str = "") -> list[str]:
    """The error when sigma^2 is not a normal float64, or none.

    The Gaussian KL and log ratio divide by sigma^2, which must not underflow
    or overflow: 2^-511 <= sigma < 2^512.
    """
    if sys.float_info.min <= sigma * sigma <= sys.float_info.max:
        return []
    return [f"{path}: {derived}its square must be a normal float64, so 2^-511 (about "
            f"1.4917e-154) <= sigma < 2^512 (about 1.3408e154), got {sigma}"]


def _merge(default, given: dict):
    """default with the given fields replaced; a nested block keeps the
    defaults of the fields it does not set."""
    return replace(default, **{
        key: _merge(getattr(default, key), value) if isinstance(value, dict) else value
        for key, value in given.items()
    })


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    errors, given = _validate(obj, "experiment")
    codec = given.pop("codec", {})
    cfg = _merge(ExperimentConfig(), given)
    if cfg.clients_per_round > cfg.num_clients:
        errors.append(f"clients_per_round: cannot exceed num_clients ({cfg.num_clients})")
    kind = cfg.dataset.kind
    if kind in ("separable", "blobs") and cfg.dataset.num_points < cfg.num_clients:
        errors.append(f"dataset.num_points: cannot be fewer than num_clients ({cfg.num_clients})")
    for name in _DATASET_PATHS.get(kind, ()):
        if name not in obj["dataset"]:
            errors.append(f"dataset.{name}: required when dataset.kind is {kind}")
    if cfg.variant == "klms":
        if cfg.method == "qsgd" and cfg.qsgd.levels != 1:  # the codec message has none
            errors.append("qsgd.levels: must be 1 when variant is klms")
        if cfg.method == "sgld":  # the sigma of both message Gaussians
            errors += _sigma_errors(
                "sgld", cfg.sgld.sigma_s(cfg.clients_per_round),
                "the message sigma is sqrt(2 * step_gamma * clients_per_round) / server_lr; ")
    if cfg.method == "none" and cfg.qsgd.levels != 1:  # none sends the raw delta
        errors.append("qsgd.levels: must be 1 when method is none")
    try:
        cfg.codec = replace(cfg.codec, **codec)
    except ValueError as err:
        errors.append(f"codec: {err}")
    _raise_if(errors)
    return cfg


def parse_toy_config(obj: dict) -> ToyConfig:
    errors, given = _validate(obj, "toy")
    schema_ok = not errors
    for i, r in enumerate(given.get("r_grid", ())):
        if r is None:  # _walk has reported the entry
            continue
        try:
            ToyConfig.codec_params(r)
        except ValueError as err:
            errors.append(f"r_grid[{i}]: {err}")
    if not schema_ok:  # the rules below read the merged values
        _raise_if(errors)
    cfg = _merge(ToyConfig(), given)
    # a client's K follows its own KL mu_n^2 / (2 sigma^2), |mu_n| <= |mu| + eta,
    # not the 1-nat target (ratio * ratio overflows to inf, ratio ** 2 raises)
    ratio = (abs(cfg.mu) + max(cfg.eta_grid)) / cfg.sigma
    nats = ratio * ratio / 2.0 + max(cfg.r_grid)
    too_wide = index_fields_too_wide(nats)
    if too_wide:
        errors.append(f"mu: the largest client KL plus max r_grid is {too_wide}")
    _raise_if(errors + _sigma_errors("sigma", cfg.sigma))
    return cfg


def load_config_file(path: str) -> dict:
    """The parsed JSON of path; an unreadable or invalid file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
