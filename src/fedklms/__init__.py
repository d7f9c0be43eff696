"""Shared-seed compression by ordered random coding for federated learning.

Clients encode a sample from their local distribution q against the global
distribution p by sending only the index of one of K shared-seed candidates,
picked by ordered random coding, so the bitrate tracks KL(q || p) instead of
the raw parameter width.  The package bundles the block codec, the product
distributions it runs on, a deterministic federated simulator with four
integration methods, and a scalar toy study, the one place that keeps the
paper's importance sampler.  The root exports the entry points; everything
else is imported from its module (``fedklms.codec``, ``fedklms.distributions``,
...).
"""

from .codec import (
    CodecParams,
    decode_update,
    deserialize_update,
    encode_update,
    serialize_update,
)
from .config import (
    ConfigError,
    load_config_file,
    parse_experiment_config,
    parse_toy_config,
)
from .sim import run_experiment
from .toy import run_toy

__all__ = [
    "CodecParams",
    "ConfigError",
    "decode_update",
    "deserialize_update",
    "encode_update",
    "load_config_file",
    "parse_experiment_config",
    "parse_toy_config",
    "run_experiment",
    "run_toy",
    "serialize_update",
]
