"""JSON experiment configuration: parsing, defaults, validation.

Errors are collected with dotted field paths ("codec.d_kl_target: must be
positive") so a bad config reports everything wrong at once.  The JSON shape
is documented in config.schema.json next to this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .codec import CodecParams
from .methods import FedPMParams, QSGDParams, SGLDParams, SignSGDParams

METHODS = ("fedpm", "qsgd", "signsgd", "sgld", "none")
VARIANTS = ("klms", "baseline")
DATASET_KINDS = ("separable", "blobs", "csv", "idx")
SPLIT_MODES = ("iid", "skewed")
MODEL_KINDS = ("logistic", "mlp")
SEED_MAX = 2**64 - 1  # stream keys hold the root seed in 64 bits


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

    def expect_keys(self, obj: dict, path: str, allowed: set[str]) -> None:
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

    def string(self, obj, path):
        if not isinstance(obj, str) or not obj:
            self.fail(path, f"must be a non-empty string, got {obj!r}")
            return None
        return obj

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigError("invalid config:\n  " + "\n  ".join(self.errors))


def _parse_dataset(obj: dict, chk: _Checker) -> DatasetConfig:
    out = DatasetConfig()
    chk.expect_keys(obj, "dataset", {
        "kind", "num_points", "num_features", "num_classes", "margin", "spread",
        "test_points", "train", "test", "train_images", "train_labels",
        "test_images", "test_labels", "train_limit", "test_limit",
    })
    kind = chk.choice(obj.get("kind", out.kind), "dataset.kind", DATASET_KINDS)
    if kind:
        out.kind = kind
    for name, lo in (("num_points", 1), ("num_features", 1), ("num_classes", 2),
                     ("test_points", 1)):
        if name in obj:
            v = chk.number(obj[name], f"dataset.{name}", lo=lo, integer=True)
            if v is not None:
                setattr(out, name, v)
    for name in ("margin", "spread"):
        if name in obj:
            v = chk.number(obj[name], f"dataset.{name}", lo=0.0, strict_lo=True)
            if v is not None:
                setattr(out, name, v)
    if out.kind == "csv":
        for name in ("train", "test"):
            v = chk.string(obj.get(name), f"dataset.{name}")
            if v:
                setattr(out, name, v)
    if out.kind == "idx":
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            v = chk.string(obj.get(name), f"dataset.{name}")
            if v:
                setattr(out, name, v)
        for name in ("train_limit", "test_limit"):
            if obj.get(name) is not None:
                v = chk.number(obj[name], f"dataset.{name}", lo=1, integer=True)
                if v is not None:
                    setattr(out, name, v)
    return out


def _parse_codec(obj: dict, chk: _Checker) -> CodecParams | None:
    chk.expect_keys(obj, "codec", {
        "d_kl_target", "overhead_r", "max_block_size",
        "kl_min_threshold", "kl_max_threshold",
    })
    target = chk.number(obj.get("d_kl_target", 3.0), "codec.d_kl_target",
                        lo=0.0, strict_lo=True)
    r = chk.number(obj.get("overhead_r", 2.0), "codec.overhead_r", lo=0.0)
    max_block = chk.number(obj.get("max_block_size", 4096), "codec.max_block_size",
                           lo=1, integer=True)
    if target is None or r is None or max_block is None:
        return None
    kl_min = obj.get("kl_min_threshold")
    kl_max = obj.get("kl_max_threshold")
    kl_min = target / 2.0 if kl_min is None else chk.number(
        kl_min, "codec.kl_min_threshold", lo=0.0)
    kl_max = target * 2.0 if kl_max is None else chk.number(
        kl_max, "codec.kl_max_threshold", lo=0.0, strict_lo=True)
    if kl_min is None or kl_max is None:
        return None
    try:
        return CodecParams(
            d_kl_target=target, overhead_r=r, max_block_size=max_block,
            kl_min_threshold=kl_min, kl_max_threshold=kl_max,
        )
    except ValueError as err:
        chk.fail("codec", str(err))
        return None


def _parse_method_block(obj: dict, name: str, cls, chk: _Checker):
    fields = {f: getattr(cls(), f) for f in cls.__dataclass_fields__}
    chk.expect_keys(obj, name, set(fields))
    kwargs = {}
    for key, default in fields.items():
        if key not in obj:
            continue
        value = obj[key]
        path = f"{name}.{key}"
        if key == "temperature_mode":
            v = chk.choice(value, path, ("mean_abs", "iterations"))
        elif key == "noise_enabled":
            v = value if isinstance(value, bool) else chk.fail(path, "must be a boolean")
        elif key == "noise_sigma":
            v = None if value is None else chk.number(value, path, lo=0.0, strict_lo=True)
        elif isinstance(default, int):
            lo = 0 if key == "reset_every" else 1  # reset_every 0: never reset
            v = chk.number(value, path, lo=lo, integer=True)
        else:
            v = chk.number(value, path, lo=0.0, strict_lo=True)
        if v is not None or key == "noise_sigma":
            kwargs[key] = v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        chk.fail(name, str(err))
        return cls()


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("invalid config:\n  top level: must be a JSON object")
    chk = _Checker()
    cfg = ExperimentConfig()
    chk.expect_keys(obj, "", {
        "method", "variant", "seed", "rounds", "num_clients", "clients_per_round",
        "dataset", "split", "model", "codec", "fedpm", "qsgd", "signsgd", "sgld",
        "output",
    })
    m = chk.choice(obj.get("method", cfg.method), "method", METHODS)
    if m:
        cfg.method = m
    v = chk.choice(obj.get("variant", cfg.variant), "variant", VARIANTS)
    if v:
        cfg.variant = v
    for name, lo, hi in (("seed", 0, SEED_MAX), ("rounds", 1, None),
                         ("num_clients", 1, None), ("clients_per_round", 1, None)):
        if name in obj:
            val = chk.number(obj[name], name, lo=lo, hi=hi, integer=True)
            if val is not None:
                setattr(cfg, name, val)
    if cfg.clients_per_round > cfg.num_clients:
        chk.fail("clients_per_round", f"cannot exceed num_clients ({cfg.num_clients})")
    if isinstance(obj.get("dataset", {}), dict):
        cfg.dataset = _parse_dataset(obj.get("dataset", {}), chk)
    else:
        chk.fail("dataset", "must be an object")
    split_obj = obj.get("split", {})
    if isinstance(split_obj, dict):
        chk.expect_keys(split_obj, "split", {"mode", "max_classes_per_client"})
        mode = chk.choice(split_obj.get("mode", "iid"), "split.mode", SPLIT_MODES)
        if mode:
            cfg.split.mode = mode
        if "max_classes_per_client" in split_obj:
            val = chk.number(split_obj["max_classes_per_client"],
                             "split.max_classes_per_client", lo=1, integer=True)
            if val is not None:
                cfg.split.max_classes_per_client = val
    else:
        chk.fail("split", "must be an object")
    model_obj = obj.get("model", {})
    if isinstance(model_obj, dict):
        chk.expect_keys(model_obj, "model", {"kind", "hidden_units"})
        kind = chk.choice(model_obj.get("kind", "logistic"), "model.kind", MODEL_KINDS)
        if kind:
            cfg.model.kind = kind
        if "hidden_units" in model_obj:
            val = chk.number(model_obj["hidden_units"], "model.hidden_units",
                             lo=1, integer=True)
            if val is not None:
                cfg.model.hidden_units = val
    else:
        chk.fail("model", "must be an object")
    codec_obj = obj.get("codec", {})
    if isinstance(codec_obj, dict):
        parsed = _parse_codec(codec_obj, chk)
        if parsed is not None:
            cfg.codec = parsed
    else:
        chk.fail("codec", "must be an object")
    for name, cls in (("fedpm", FedPMParams), ("qsgd", QSGDParams),
                      ("signsgd", SignSGDParams), ("sgld", SGLDParams)):
        block = obj.get(name, {})
        if isinstance(block, dict):
            setattr(cfg, name, _parse_method_block(block, name, cls, chk))
        else:
            chk.fail(name, "must be an object")
    out_obj = obj.get("output", {})
    if isinstance(out_obj, dict):
        chk.expect_keys(out_obj, "output", {"metrics_csv", "summary_json"})
        for name in ("metrics_csv", "summary_json"):
            if name in out_obj:
                val = chk.string(out_obj[name], f"output.{name}")
                if val:
                    setattr(cfg.output, name, val)
    else:
        chk.fail("output", "must be an object")
    chk.raise_if_failed()
    return cfg


def parse_toy_config(obj: dict) -> ToyConfig:
    if not isinstance(obj, dict):
        raise ConfigError("invalid config:\n  top level: must be a JSON object")
    chk = _Checker()
    cfg = ToyConfig()
    chk.expect_keys(obj, "", {
        "mu", "sigma", "r_grid", "client_grid", "eta_grid", "runs", "seed", "output",
    })
    if "mu" in obj:
        v = chk.number(obj["mu"], "mu")
        if v is not None:
            cfg.mu = v
    if "sigma" in obj:
        v = chk.number(obj["sigma"], "sigma", lo=0.0, strict_lo=True)
        if v is not None:
            cfg.sigma = v
    for name, integer, lo in (("r_grid", False, 0.0), ("client_grid", True, 1),
                              ("eta_grid", False, 0.0)):
        if name not in obj:
            continue
        raw = obj[name]
        if not isinstance(raw, list) or not raw:
            chk.fail(name, "must be a non-empty array")
            continue
        vals = []
        for i, item in enumerate(raw):
            v = chk.number(item, f"{name}[{i}]", lo=lo, integer=integer)
            if v is not None:
                vals.append(v)
        if len(vals) == len(raw):
            setattr(cfg, name, tuple(vals))
    for name, lo, hi in (("runs", 1, None), ("seed", 0, SEED_MAX)):
        if name in obj:
            v = chk.number(obj[name], name, lo=lo, hi=hi, integer=True)
            if v is not None:
                setattr(cfg, name, v)
    out_obj = obj.get("output", {})
    if isinstance(out_obj, dict):
        chk.expect_keys(out_obj, "output", {"metrics_csv", "summary_json"})
        for name in ("metrics_csv", "summary_json"):
            if name in out_obj:
                val = chk.string(out_obj[name], f"output.{name}")
                if val:
                    setattr(cfg.output, name, val)
    else:
        chk.fail("output", "must be an object")
    chk.raise_if_failed()
    return cfg


def load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
