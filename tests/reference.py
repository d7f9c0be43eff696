"""References the tests compare the program against; the program never runs them.

Imported by the test modules as ``reference`` (pytest puts ``tests/`` on the
import path).
"""

import numpy as np

from fedklms.distributions import _check_range, kl_per_coordinate
from fedklms.methods import SGLDParams
from fedklms.streams import SampleStream


def log_mass(dist, lo: int, hi: int, x) -> float:
    """Log probability (mass or density) of one row over [lo, hi)."""
    return float(dist.log_mass_rows(lo, hi, x)[0])


def kl_block(q, p, lo: int, hi: int) -> float:
    """Total KL(q || p) over one coordinate range, in nats."""
    _check_range(lo, hi, q.dim)
    return float(kl_per_coordinate(q, p)[lo:hi].sum())


def scaled(pattern_dist, pattern) -> np.ndarray:
    """Coordinate values of a ternary sign pattern: the magnitude times it."""
    return pattern_dist.magnitude * np.asarray(pattern, dtype=np.float64)


def sgld_noisy_message(grad, sigma_s: float, stream: SampleStream) -> np.ndarray:
    """Compression-disabled SGLD message: an exact sample of q = N(grad, sigma_s)."""
    grad = np.asarray(grad, dtype=np.float64)
    return grad + sigma_s * stream.gaussians(grad.shape[0])


def aggregate_noise_var(params: SGLDParams, num_clients: int) -> float:
    """Per-coordinate noise variance the SGLD server step injects."""
    if not params.noise_enabled:
        return 0.0
    return (params.server_lr * params.sigma_s(num_clients)) ** 2 / num_clients
