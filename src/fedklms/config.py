"""JSON experiment configuration: validation against the schema, defaults.

config.schema.json next to this module defines every field with its type,
bound, allowed values and default, and :func:`_walk` checks a config against
it.  Errors are collected with dotted field paths ("codec.d_kl_target: must
be > 0, got -1") so a bad config reports everything wrong at once.  Only the
rules that relate two fields are written here: clients_per_round cannot
exceed num_clients, a synthetic dataset needs at least one training point per
client, a csv or idx dataset needs its paths, and the KL band defaults to
[d_kl_target / 2, 2 * d_kl_target] and must bracket the target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import CodecParams
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
        kl_min_threshold=1.5, kl_max_threshold=6.0,
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


class _Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def expect_keys(self, obj: dict, path: str, allowed) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown field")

    def number(self, obj, path, lo=None, hi=None, integer=False, strict_lo=False):
        if integer and (isinstance(obj, bool) or not isinstance(obj, int)):
            self.fail(path, f"must be an integer, got {obj!r}")
            return None
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, f"must be a number, got {obj!r}")
            return None
        try:
            v = float(obj)
        except OverflowError:  # an integer literal beyond float range
            v = math.inf
        if not math.isfinite(v):
            # json.loads accepts NaN, Infinity and integers of any size
            self.fail(path, "must be a finite number within float range")
            return None
        # bounds compare obj, not v: exact for integers beyond 2^53
        if lo is not None and (obj <= lo if strict_lo else obj < lo):
            self.fail(path, f"must be {'>' if strict_lo else '>='} {lo}, got {obj}")
            return None
        if hi is not None and obj > hi:
            self.fail(path, f"must be <= {hi}, got {obj}")
            return None
        return int(obj) if integer else v

    def choice(self, obj, path, options):
        if obj not in options:
            self.fail(path, f"must be one of {list(options)}, got {obj!r}")
            return None
        return obj

    def string(self, obj, path, min_length=0):
        if not isinstance(obj, str) or len(obj) < min_length:
            self.fail(path, f"must be a string of length >= {min_length}, got {obj!r}")
            return None
        return obj

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigError("invalid config:\n  " + "\n  ".join(self.errors))


def _walk(node: dict, value, path: str, chk: _Checker):
    """Check value against one schema node.

    Returns the value converted for the dataclasses (numbers to float, arrays
    to tuples, objects to a dict of their valid non-null fields), or None
    after recording on chk why it is invalid.
    """
    types = node.get("type", [])
    types = [types] if isinstance(types, str) else types
    if value is None and "null" in types:
        return None
    if "enum" in node:
        return chk.choice(value, path, node["enum"])
    if "object" in types:
        if not isinstance(value, dict):
            return chk.fail(path, "must be an object")
        props = node["properties"]
        if node.get("additionalProperties") is False:
            chk.expect_keys(value, path, props)
        walked = {key: _walk(props[key], item, f"{path}.{key}" if path else key, chk)
                  for key, item in value.items() if key in props}
        return {key: item for key, item in walked.items() if item is not None}
    if "array" in types:
        min_items = node.get("minItems", 0)
        if not isinstance(value, list) or len(value) < min_items:
            return chk.fail(path, f"must be an array of at least {min_items} items")
        return tuple(_walk(node["items"], item, f"{path}[{i}]", chk)
                     for i, item in enumerate(value))
    if "string" in types:
        return chk.string(value, path, node.get("minLength", 0))
    if "boolean" in types:
        return value if isinstance(value, bool) else chk.fail(path, "must be a boolean")
    return chk.number(
        value, path, lo=node.get("exclusiveMinimum", node.get("minimum")),
        hi=node.get("maximum"), integer="integer" in types,
        strict_lo="exclusiveMinimum" in node,
    )


def _validate(obj, kind: str) -> tuple[_Checker, dict]:
    if not isinstance(obj, dict):
        raise ConfigError("invalid config:\n  top level: must be a JSON object")
    chk = _Checker()
    return chk, _walk(_DEFS[kind], obj, "", chk)


def _merge(default, given: dict):
    """default with the given fields replaced; a nested block keeps the
    defaults of the fields it does not set."""
    return replace(default, **{
        key: _merge(getattr(default, key), value) if isinstance(value, dict) else value
        for key, value in given.items()
    })


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    chk, given = _validate(obj, "experiment")
    codec = given.pop("codec", {})
    cfg = _merge(ExperimentConfig(), given)
    if cfg.clients_per_round > cfg.num_clients:
        chk.fail("clients_per_round", f"cannot exceed num_clients ({cfg.num_clients})")
    kind = cfg.dataset.kind
    if kind in ("separable", "blobs") and cfg.dataset.num_points < cfg.num_clients:
        chk.fail("dataset.num_points", f"cannot be fewer than num_clients ({cfg.num_clients})")
    for name in _DATASET_PATHS.get(kind, ()):
        if name not in obj["dataset"]:
            chk.fail(f"dataset.{name}", f"required when dataset.kind is {kind}")
    target = codec.get("d_kl_target", cfg.codec.d_kl_target)
    band = {"kl_min_threshold": target / 2.0, "kl_max_threshold": target * 2.0}
    try:
        cfg.codec = replace(cfg.codec, **{**band, **codec})
    except ValueError as err:
        chk.fail("codec", str(err))
    chk.raise_if_failed()
    return cfg


def parse_toy_config(obj: dict) -> ToyConfig:
    chk, given = _validate(obj, "toy")
    chk.raise_if_failed()
    return _merge(ToyConfig(), given)


def load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
