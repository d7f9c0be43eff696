"""Client and server machinery for the four federated methods.

Each method defines what a client turns its local data into (a posterior q),
what the server broadcasts as the shared prior p, and how decoded messages are
folded into the global state:

  fedpm    probability masks over frozen weights; Bernoulli q = sigmoid(scores),
           Bernoulli p = global probabilities, beta-posterior aggregation
  qsgd     ternary sign patterns of the local delta; global p = smoothed
           empirical pattern frequencies from the previous round
  signsgd  stochastic signs with P(+1) = sigmoid(v/temperature); p is the fair
           coin, so the rate never exceeds 1 bit per coordinate
  sgld     noisy stochastic gradients; q = N(H, sigma_s), p = N(0, sigma_s),
           the Langevin noise riding inside the sampled message

Only numerics live here; round orchestration and bit accounting are in the
simulator module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import gamma_widths
from .distributions import (
    BernoulliVector,
    BinarySign,
    DiagonalGaussian,
    TernaryPattern,
    _check_coordinates,
)
from .streams import SampleStream

_PROB_CLAMP = 1e-6
FLOAT32_BITS = 32  # the price of one float32 value on the wire


def sigmoid(x: np.ndarray) -> np.ndarray:
    # min(x, -x) is -|x|, so e is exp(-x) where x >= 0 and exp(x) below (no
    # overflow either way); unlike -|x|, it passes a NaN on with its sign
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    return np.log(p) - np.log1p(-p)


def local_iterations(n: int, epochs: int, batch_size: int) -> int:
    """Minibatch steps of local training: epochs passes over n points in
    batches of min(batch_size, n)."""
    return epochs * -(-n // min(batch_size, n))


# --- FedPM ------------------------------------------------------------------


@dataclass
class FedPMParams:
    # lr applies to mask scores, where gradients arrive attenuated by
    # sigma'(s) * w; it needs to be orders of magnitude above a weight lr
    local_lr: float = 30.0
    local_epochs: int = 5
    batch_size: int = 128
    prior_lambda: float = 1.0
    # 0 disables posterior resets; k resets alpha/beta every k rounds
    reset_every: int = 15

    def resets_at(self, round_index: int) -> bool:
        return self.reset_every > 0 and round_index % self.reset_every == 0


@dataclass
class FedPMState:
    """Server-side mask posterior over d frozen weights."""

    probs: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @staticmethod
    def initial(dim: int, init_prob: float, lambda0: float) -> "FedPMState":
        return FedPMState(
            probs=np.full(dim, float(init_prob)),
            alpha=np.full(dim, float(lambda0)),
            beta=np.full(dim, float(lambda0)),
        )


def bayes_agg(
    masks: list[np.ndarray],
    state: FedPMState,
    params: FedPMParams,
    round_index: int,
) -> FedPMState:
    """Fold decoded binary masks into the beta posterior.

    alpha accumulates observed ones, beta observed zeros; the broadcast
    probability is the posterior mode (alpha-1)/(alpha+beta-2) clamped to
    [0, 1], falling back to the mean when the mode is undefined.  An empty
    mask list leaves the state untouched.
    """
    if not masks:
        return state
    for m in masks:
        if m.shape != state.probs.shape:
            raise ValueError(f"mask shape {m.shape} != state shape {state.probs.shape}")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("masks must be binary")
    alpha = state.alpha
    beta = state.beta
    if params.resets_at(round_index):
        alpha = np.full_like(alpha, params.prior_lambda)
        beta = np.full_like(beta, params.prior_lambda)
    m_agg = np.sum(masks, axis=0)
    alpha = alpha + m_agg
    beta = beta + (len(masks) - m_agg)
    denom = alpha + beta - 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        mode = (alpha - 1.0) / denom
    mean = alpha / (alpha + beta)
    probs = np.clip(np.where(denom > 0.0, mode, mean), 0.0, 1.0)
    return FedPMState(probs=probs, alpha=alpha, beta=beta)


def fedpm_client_train(
    global_probs: np.ndarray,
    frozen_weights: np.ndarray,
    model,
    features: np.ndarray,
    labels: np.ndarray,
    params: FedPMParams,
    stream: SampleStream,
) -> np.ndarray:
    """Run local mask training and return the trained mask probabilities.

    Scores start at logit(theta).  Each iteration samples a binary mask from
    sigmoid(scores), evaluates the loss gradient at the masked weights, and
    pushes it back to the scores straight through the sampling:
    d loss / d score = (d loss / d w) * w_frozen * sigmoid'(score).
    """
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


def fedpm_codec_pair(
    client_probs: np.ndarray, global_probs: np.ndarray
) -> tuple[BernoulliVector, BernoulliVector]:
    """Clamped Bernoulli (q, p) for the codec.

    The posterior mode can sit exactly at 0 or 1, which would break absolute
    continuity; both sides clamp identically so the shared-seed samples match.
    """
    clamp = lambda v: np.clip(v, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    return BernoulliVector(clamp(client_probs)), BernoulliVector(clamp(global_probs))


def fedpm_sample_mask(probs: np.ndarray, stream: SampleStream) -> np.ndarray:
    return (stream.uniforms(probs.shape[0]) < probs).astype(np.float64)


# --- QSGD -------------------------------------------------------------------


@dataclass
class QSGDParams:
    levels: int = 1  # quantization levels s; 1 gives the ternary regime
    local_lr: float = 0.1
    local_epochs: int = 3
    batch_size: int = 128
    server_lr: float = 1.0


def _qsgd_norm(v: np.ndarray) -> float:
    """||v|| of a QSGD input, refused at its first bad coordinate when v is
    not finite.

    The plain norm is kept whenever it is finite; when it overflows float64
    (a sum of squares beyond the float range), it is taken as m * ||v / m||
    with m = max|v|, and a norm that overflows even so is refused at the
    coordinate with the largest |v_i|.
    """
    _check_coordinates(np.isfinite(v), "QSGD input must be finite", v)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if math.isfinite(norm):
            return norm
        i = int(np.argmax(np.abs(v)))
        m = abs(float(v[i]))
        norm = m * float(np.linalg.norm(v / m))
    if not math.isfinite(norm):
        raise ValueError(f"QSGD input norm overflows float64: coordinate {i} is {float(v[i])!r}")
    return norm


def qsgd_client_distribution(v: np.ndarray) -> TernaryPattern:
    """Ternary sign-pattern distribution of the one-level quantizer.

    P(+1) = max(v_i, 0)/||v||, P(-1) = max(-v_i, 0)/||v||, rest at 0; the norm
    rides along as the magnitude.  The expectation of magnitude * pattern is
    exactly v.  A zero vector degenerates to all mass at 0 with magnitude 0.
    The norm is :func:`_qsgd_norm`'s, which refuses a vector that is not
    finite or whose norm overflows.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = _qsgd_norm(v)
    if norm == 0.0:
        zeros = np.zeros(v.shape[0])
        return TernaryPattern(zeros, np.ones(v.shape[0]), zeros.copy(), magnitude=0.0)
    ratio = v / norm
    p_pos = np.maximum(ratio, 0.0)
    p_neg = np.maximum(-ratio, 0.0)
    p_zero = 1.0 - np.abs(ratio)
    # guard float dust so rows sum to one exactly
    p_zero = np.clip(p_zero, 0.0, 1.0)
    total = p_neg + p_zero + p_pos
    return TernaryPattern(p_neg / total, p_zero / total, p_pos / total, magnitude=norm)


def qsgd_quantize(
    v: np.ndarray, levels: int, stream: SampleStream
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased stochastic quantization to levels/||v|| grid points.

    Each |v_i|/||v|| lands between two grid points q/s and (q+1)/s and is
    rounded up with probability equal to its offset, so E[quantized] = v.
    Returns the quantized vector and its integer levels |quantized| * s / ||v||.
    The norm is :func:`_qsgd_norm`'s, which refuses a vector that is not
    finite or whose norm overflows.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1: {levels}")
    v = np.asarray(v, dtype=np.float64)
    norm = _qsgd_norm(v)
    if norm == 0.0:
        return np.zeros_like(v), np.zeros(v.shape[0], dtype=np.int64)
    a = levels * np.abs(v) / norm
    lower = np.floor(a)
    u = stream.uniforms(v.shape[0])
    grid = np.where(u < 1.0 - (a - lower), lower, lower + 1.0)
    return norm * np.sign(v) * (grid / levels), grid.astype(np.int64)


def elias_gamma_bits(levels_vec: np.ndarray) -> int:
    """Bit cost of the classic universal-code accounting for integer levels:
    the Elias-gamma code of level + 1 per coordinate, at the codec's exact
    width (:func:`fedklms.codec.gamma_widths`), one float32 for the norm and
    one sign bit per nonzero level."""
    x = np.asarray(levels_vec)
    if np.any(x < 0):
        raise ValueError("levels must be nonnegative integers")
    gamma = gamma_widths(x.astype(np.uint64) + np.uint64(1)).sum()
    return int(gamma) + FLOAT32_BITS + int(np.count_nonzero(x))


def qsgd_klms_global(decoded_patterns: list[np.ndarray], dim: int) -> TernaryPattern:
    """Smoothed per-coordinate pattern frequencies from last round's decodes.

    Each symbol gets one pseudo-count, so the result is strictly positive and
    usable as the codec prior.  With no history (first round) it is the
    uniform ternary distribution over dim coordinates.
    """
    if not decoded_patterns:
        third = np.full(dim, 1.0 / 3.0)
        return TernaryPattern(third, third.copy(), third.copy())
    stacked = np.stack(decoded_patterns)
    if not np.all(np.isin(stacked, (-1.0, 0.0, 1.0))):
        raise ValueError("patterns must be ternary")
    c = stacked.shape[0]
    neg = (stacked == -1.0).sum(axis=0) + 1.0
    zero = (stacked == 0.0).sum(axis=0) + 1.0
    pos = (stacked == 1.0).sum(axis=0) + 1.0
    return TernaryPattern(neg / (c + 3.0), zero / (c + 3.0), pos / (c + 3.0))


# --- stochastic SignSGD -----------------------------------------------------


@dataclass
class SignSGDParams:
    local_lr: float = 0.1
    local_epochs: int = 3
    batch_size: int = 128
    server_lr: float = 0.01
    temperature_scale: float = 1.0


def signsgd_temperature(v: np.ndarray, params: SignSGDParams) -> float:
    """temperature_scale * mean|v|, with 1 in place of the mean when v is all
    zero."""
    scale = float(np.mean(np.abs(v)))
    return params.temperature_scale * (scale if scale > 0 else 1.0)


def signsgd_client_distribution(v: np.ndarray, temperature: float) -> BinarySign:
    """P(+1) = sigmoid(v / temperature) per coordinate."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive: {temperature}")
    v = np.asarray(v, dtype=np.float64)
    return BinarySign(sigmoid(v / temperature))


# --- federated SGLD ---------------------------------------------------------


@dataclass
class SGLDParams:
    """Langevin step and message-noise configuration.

    The server step is theta <- theta - server_lr * mean_c(H_hat_c).  With
    messages H + sigma_s * z the aggregate noise std is
    server_lr * sigma_s / sqrt(C); the default sigma_s matches it to the
    sqrt(2 * step_gamma) * xi term of the underlying Langevin update, i.e.
    sigma_s = sqrt(2 * step_gamma * C) / server_lr.
    """

    step_gamma: float = 1e-3
    server_lr: float = 0.05
    batch_size: int = 128
    noise_sigma: float | None = None  # None derives the default above

    def sigma_s(self, num_clients: int) -> float:
        if self.noise_sigma is not None:
            return self.noise_sigma
        return math.sqrt(2.0 * self.step_gamma * num_clients) / self.server_lr


def sgld_client_distributions(
    grad: np.ndarray, sigma_s: float
) -> tuple[DiagonalGaussian, DiagonalGaussian]:
    """q = N(H, sigma_s), p = N(0, sigma_s); per-coordinate KL is H^2/(2 sigma_s^2)."""
    grad = np.asarray(grad, dtype=np.float64)
    return (
        DiagonalGaussian(grad, sigma_s),
        DiagonalGaussian(np.zeros(grad.shape[0]), sigma_s),
    )


def sgld_server_step(
    theta: np.ndarray, decoded: list[np.ndarray], params: SGLDParams
) -> np.ndarray:
    """theta - server_lr * mean of decoded gradients; noise arrives inside the
    messages, so an all-zero decode leaves theta unchanged."""
    if not decoded:
        raise ValueError("need at least one decoded gradient")
    stacked = np.stack(decoded)
    if stacked.shape[1] != theta.shape[0]:
        raise ValueError(f"gradient dim {stacked.shape[1]} != theta dim {theta.shape[0]}")
    return theta - params.server_lr * stacked.mean(axis=0)
