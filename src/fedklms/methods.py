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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None,
            spare: np.ndarray | None = None) -> np.ndarray:
    """The logistic function, written to out if given; spare, if given, is a
    float64 buffer of x's shape that it uses as scratch.  Neither may be x."""
    x = np.asarray(x, dtype=np.float64)
    # min(x, -x) is -|x|, so e is exp(-x) where x >= 0 and exp(x) below (no
    # overflow either way); unlike -|x|, it passes a NaN on with its sign
    e = np.negative(x, out=np.empty(x.shape) if out is None else out)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    denom = np.add(e, 1.0, out=spare)
    # e <= 1, so the numerator max(e, x >= 0) is 1 where x >= 0 and e below:
    # 1 / (1 + e) and e / (1 + e) without a masked select
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denom, out=e)


def logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    return np.log(p) - np.log1p(-p)


def local_iterations(n: int, epochs: int, batch_size: int) -> int:
    """Minibatch steps of local training: epochs passes over n points in
    batches of min(batch_size, n)."""
    return epochs * -(-n // min(batch_size, n))


def minibatches(X: np.ndarray, y: np.ndarray, batch: int, streams) -> tuple:
    """One minibatch per client of a stack (X (B, n, F), y (B, n)), client
    b's indices drawn from streams[b]."""
    idx = np.stack([stream.integers(batch, y.shape[1]) for stream in streams])
    rows = np.arange(len(streams))[:, None]
    return X[rows, idx], y[rows, idx]


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


# fedpm trains a group's clients in sub-stacks whose (B, d) arrays hold about
# this many floats (128 KiB) each, or one client at a time when d is larger
TRAIN_STACK_FLOATS = 1 << 14


def fedpm_client_train(
    global_probs: np.ndarray,
    frozen_weights: np.ndarray,
    model,
    features: np.ndarray,
    labels: np.ndarray,
    params: FedPMParams,
    streams: list[SampleStream],
) -> np.ndarray:
    """Run local mask training for a stack of clients with equal shard sizes
    (features (B, n, F), labels (B, n), streams[b] client b's draws) and
    return their trained mask probabilities, (B, d).

    Scores start at logit(theta).  Each iteration samples a binary mask from
    sigmoid(scores), evaluates the loss gradient at the masked weights, and
    pushes it back to the scores straight through the sampling:
    d loss / d score = (d loss / d w) * w_frozen * sigmoid'(score).
    Each client draws its minibatch and then its mask uniforms from its own
    stream, so row b is bit-identical to training client b alone.

    The clients train in sub-stacks of about equal size, as few as keep each
    sub-stack's (B, d) arrays near TRAIN_STACK_FLOATS floats: four of them
    are live at once, next to the model's activations, and a whole-group
    stack at fedpm_separable's shape would raise peak memory by 1 MB.  A
    sub-stack allocates its scores, probabilities and one spare (B, d)
    buffer (the sigmoid's scratch, then the masked weights) once and updates
    them in place.
    """
    num, d = len(streams), global_probs.shape[0]
    parts = max(1, -(-num * d // TRAIN_STACK_FLOATS))
    size = -(-num // parts)
    out = np.empty((num, d))
    for lo in range(0, num, size):
        part = slice(lo, lo + size)
        _train_stack(global_probs, frozen_weights, model, features[part], labels[part],
                     params, streams[part], out[part])
    return out


def _train_stack(global_probs, frozen_weights, model, features, labels, params, streams, out):
    """fedpm_client_train for one sub-stack; writes the probabilities to out."""
    n = labels.shape[1]
    batch = min(params.batch_size, n)
    scores = np.tile(logit(global_probs), (len(streams), 1))
    phi = np.empty_like(scores)
    spare = np.empty_like(scores)
    for _ in range(local_iterations(n, params.local_epochs, params.batch_size)):
        X, y = minibatches(features, labels, batch, streams)
        sigmoid(scores, out=phi, spare=spare)
        for stream, phi_b, mask_b in zip(streams, phi, spare):
            np.less(stream.uniforms(phi_b.shape[0]), phi_b, out=mask_b)
        spare *= frozen_weights
        _, grad = model.loss_and_grad(spare, X, y)
        # grad * w_frozen * phi * (1 - phi) * lr, left to right, in place
        grad *= frozen_weights
        grad *= phi
        np.subtract(1.0, phi, out=phi)
        grad *= phi
        grad *= params.local_lr
        scores -= grad
        spare = grad  # the next iteration's scratch
    sigmoid(scores, out=out, spare=spare)


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

    The plain norm is kept whenever it is finite and nonzero, or v is all
    zero; when it overflows float64 (a sum of squares beyond the float
    range) or underflows to 0 for a nonzero v, it is taken as m * ||v / m||
    with m = max|v|, and a norm that overflows even so is refused at the
    coordinate with the largest |v_i|.
    """
    _check_coordinates(np.isfinite(v), "QSGD input must be finite", v)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if 0.0 < norm < math.inf or not v.any():
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
    # dividing first keeps levels * |v_i| from overflowing
    a = levels * (np.abs(v) / norm)
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
