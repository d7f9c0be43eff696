"""References the tests compare the program against; the program never runs them.

Imported by the test modules as ``reference`` (pytest puts ``tests/`` on the
import path).
"""

import math

import numpy as np

from fedklms.distributions import (BernoulliVector, DiagonalGaussian, TernaryPattern,
                                   _check_range, _uniform_rows, kl_per_coordinate)
from fedklms.methods import SGLDParams, local_iterations, logit
from fedklms.streams import SampleStream


def log_mass(dist, lo: int, hi: int, x) -> float:
    """Log probability (mass or density) of one row over [lo, hi)."""
    return float(dist.log_mass_rows(lo, hi, x)[0])


def kl_block(q, p, lo: int, hi: int) -> float:
    """Total KL(q || p) over one coordinate range, in nats."""
    _check_range(lo, hi, q.dim)
    return float(kl_per_coordinate(q, p)[lo:hi].sum())


def block_spread(q, p, lo: int, hi: int) -> float:
    """Standard deviation under q of log q(x) - log p(x) over one coordinate
    range, from the definition: the coordinates' variances add, and each is
    taken over its outcomes' log masses (for two Gaussians of one sigma,
    log q - log p is x (mu_q - mu_p) / sigma^2 plus a constant)."""
    _check_range(lo, hi, q.dim)
    if isinstance(q, DiagonalGaussian):
        return math.sqrt(float((((q.mean - p.mean) / q.sigma)[lo:hi] ** 2).sum()))
    rows = np.array([[0.0], [1.0]] if isinstance(q, BernoulliVector)
                    else [[-1.0], [0.0], [1.0]] if isinstance(q, TernaryPattern)
                    else [[-1.0], [1.0]])
    total = 0.0
    for i in range(lo, hi):
        log_q, log_p = q.log_mass_rows(i, i + 1, rows), p.log_mass_rows(i, i + 1, rows)
        live = log_q > -np.inf
        mass, term = np.exp(log_q[live]), log_q[live] - log_p[live]
        total += mass @ term**2 - (mass @ term) ** 2
    return math.sqrt(max(total, 0.0))


def scaled(pattern_dist, pattern) -> np.ndarray:
    """Coordinate values of a ternary sign pattern: the magnitude times it."""
    return pattern_dist.magnitude * np.asarray(pattern, dtype=np.float64)


def sgld_noisy_message(grad, sigma_s: float, stream: SampleStream) -> np.ndarray:
    """Compression-disabled SGLD message: an exact sample of q = N(grad, sigma_s)."""
    grad = np.asarray(grad, dtype=np.float64)
    return grad + sigma_s * stream.gaussians(grad.shape[0])


def local_sgd(model, w0, X, y, lr, epochs, batch_size, stream: SampleStream) -> np.ndarray:
    """Plain minibatch SGD of one client from w0; returns the final weights."""
    w = w0.copy()
    n = X.shape[0]
    batch = min(batch_size, n)
    for _ in range(local_iterations(n, epochs, batch_size)):
        idx = stream.integers(batch, n)
        _, g = model.loss_and_grad(w, X[idx], y[idx])
        w -= lr * g
    return w


def stochastic_gradient(model, w, X, y, batch_size, stream: SampleStream) -> np.ndarray:
    """One client's N_c * mean-batch gradient, the unbiased full-sum estimate."""
    n = X.shape[0]
    batch = min(batch_size, n)
    idx = stream.integers(batch, n)
    _, g = model.loss_and_grad(w, X[idx], y[idx])
    return n * g


def fedpm_client_train(global_probs, frozen_weights, model, features, labels, params,
                       stream: SampleStream) -> np.ndarray:
    """One client's local mask training, a new array for every step: sample a
    mask from sigmoid(scores), take the loss gradient at the masked weights
    and step the scores straight through the sampling."""
    scores = logit(global_probs)
    n = features.shape[0]
    batch = min(params.batch_size, n)
    for _ in range(local_iterations(n, params.local_epochs, params.batch_size)):
        idx = stream.integers(batch, n)
        phi = sigmoid(scores)
        mask = (stream.uniforms(scores.shape[0]) < phi).astype(np.float64)
        _, grad_w = model.loss_and_grad(mask * frozen_weights, features[idx], labels[idx])
        grad_s = grad_w * frozen_weights * phi * (1.0 - phi)
        scores = scores - params.local_lr * grad_s
    return sigmoid(scores)


def aggregate_noise_var(params: SGLDParams, num_clients: int) -> float:
    """Per-coordinate noise variance the SGLD server step injects."""
    return (params.server_lr * params.sigma_s(num_clients)) ** 2 / num_clients


def ternary_sample(dist, lo: int, hi: int, stream: SampleStream, count: int = 1,
                   start: int = 0) -> np.ndarray:
    """Ternary candidate rows by masked writes: +1, then 0 where u < p_neg +
    p_zero, then -1 where u < p_neg."""
    _check_range(lo, hi, dist.dim)
    u = _uniform_rows(stream, start, count, hi - lo)
    neg = dist.p_neg[lo:hi]
    out = np.ones((count, hi - lo))
    out[u < neg + dist.p_zero[lo:hi]] = 0.0
    out[u < neg] = -1.0
    return out


def bernoulli_sample(dist, lo: int, hi: int, stream: SampleStream, count: int = 1,
                     start: int = 0) -> np.ndarray:
    """Bernoulli candidate rows with thresholds derived on each call: half-word
    j of the stream, from half-word start * width on, gives 1 when it lies
    below floor(p * 2^32), compared in float64, where every word and 2^32
    itself are exact."""
    _check_range(lo, hi, dist.dim)
    width = hi - lo
    first = start * width
    stream.skip(first // 2)
    words = stream.uniforms(first % 2 + count * width, bits=32)[first % 2:]
    threshold = np.floor(dist.probs[lo:hi] * 2.0**32)
    return (words.reshape(count, width) < threshold).astype(np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function by boolean masks: 1 / (1 + exp(-x)) where x >= 0,
    exp(x) / (1 + exp(x)) elsewhere."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def split_starts(kl: np.ndarray, d_kl_target: float, max_block_size: int) -> tuple[int, ...]:
    """Block starts of the greedy cut, one coordinate at a time: a block closes
    once its running KL total reaches the target or its length reaches
    max_block_size."""
    starts = [0]
    running = 0.0
    length = 0
    for i, k in enumerate(kl):
        running += float(k)
        length += 1
        closed = running >= d_kl_target or length == max_block_size
        if closed and i + 1 < kl.size:
            starts.append(i + 1)
            running = 0.0
            length = 0
    return tuple(starts)


def gamma_codes(bits: str, pos: int, count: int, limit: int, name: str):
    """count Elias-gamma codes of values in [1, limit] from bit pos of a
    '0'/'1' string, read one code at a time: (values, the bit after them),
    or (None, (message, the bit where the refused code starts))."""
    longest = limit.bit_length() - 1
    values = []
    for _ in range(count):
        zeros = len(bits[pos:]) - len(bits[pos:].lstrip("0"))
        if zeros > longest:
            return None, (f"{name} code has {longest + 1} or more leading zeros", pos)
        if pos + 2 * zeros + 1 > len(bits):
            return None, (f"truncated: needed {2 * zeros + 1} bits, {len(bits) - pos} left", pos)
        value = int(bits[pos + zeros:pos + 2 * zeros + 1], 2)
        if value > limit:
            return None, (f"{name} code {value} out of range [1, {limit}]", pos)
        values.append(value)
        pos += 2 * zeros + 1
    return values, pos
