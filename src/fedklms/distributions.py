"""Product distributions over parameter coordinates.

These are the client/global posteriors the codec samples from and weighs
against: fully factorized, so log-mass and KL reduce to per-coordinate sums.
All five kinds share one interface:

    dim                   number of coordinates
    sample(lo, hi, stream, count, start)   rows start .. start+count-1 of the
                                           iid draws from the stream's position
    log_mass(lo, hi, x)             log probability (mass or density) of one row
    log_mass_rows(lo, hi, rows)     vectorized over rows

``sample`` consumes a fixed number of stream draws per row determined only by
(kind, hi-lo), so encoder and decoder stay in lockstep without exchanging
generator state, and ``start`` skips to a row without computing the ones
before it.

:func:`log_ratio` gives the codec log q - log p of a pair on rows drawn from
p as per-coordinate coefficients: one matrix-vector product per block (two
where a squared term is needed), with no support checks, instead of two
log-mass passes.

Zero mass is reported as -inf, never as an exception; absolute-continuity
violations (client support exceeding global support) are errors raised by the
KL routines, because they make the encoding scheme itself invalid rather than
a single candidate unusable.

The ternary kind is evaluated at pattern level {-1, 0, +1}: the magnitude is
carried as metadata and never enters the mass, so rescaling a client vector
leaves its pattern log-mass unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import SampleStream

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class AbsoluteContinuityError(ValueError):
    """Client distribution puts mass where the global distribution has none."""


def _check_range(lo: int, hi: int, dim: int) -> None:
    if not (0 <= lo < hi <= dim):
        raise ValueError(f"bad coordinate range [{lo}, {hi}) for dim {dim}")


def _check_coordinates(ok: np.ndarray, message: str, *values: np.ndarray) -> None:
    """Raise ValueError naming the first coordinate where ok is False.

    Write ok as the condition that holds, so that NaN fails it."""
    if not ok.all():
        i = int(np.argmin(ok))
        shown = ", ".join(repr(float(v[i])) for v in values)
        raise ValueError(f"{message}: coordinate {i} is {shown}")


def _check_rows(rows: np.ndarray, width: int) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != width:
        raise ValueError(f"rows have width {rows.shape[1]}, range has {width}")
    return rows


def _log(p: np.ndarray) -> np.ndarray:
    # log 0 -> -inf silently; the -inf sentinel is part of the contract
    with np.errstate(divide="ignore"):
        return np.log(p)


def _uniform_rows(stream: SampleStream, start: int, count: int, width: int) -> np.ndarray:
    """Rows start .. start+count-1 of a width-wide matrix of uniforms."""
    stream.skip(start * width)
    return stream.uniforms(count * width).reshape(count, width)


@dataclass
class BernoulliVector:
    """Independent Bernoulli coordinates with support {0, 1}."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        _check_coordinates((self.probs >= 0.0) & (self.probs <= 1.0),
                           "Bernoulli probabilities must lie in [0, 1]", self.probs)

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def sample(self, lo: int, hi: int, stream: SampleStream, count: int = 1,
               start: int = 0) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        width = hi - lo
        u = _uniform_rows(stream, start, count, width)
        # candidates overwrite the uniforms: one K x width matrix, not two
        return np.less(u, self.probs[lo:hi], out=u)

    def log_mass_rows(self, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        rows = _check_rows(rows, hi - lo)
        if not np.all((rows == 0.0) | (rows == 1.0)):
            raise ValueError("Bernoulli support is {0, 1}")
        p = self.probs[lo:hi]
        per_coord = np.where(rows == 1.0, _log(p), _log(1.0 - p))
        return per_coord.sum(axis=1)

    def log_mass(self, lo: int, hi: int, x: np.ndarray) -> float:
        return float(self.log_mass_rows(lo, hi, x)[0])


@dataclass
class TernaryPattern:
    """Independent ternary coordinates over the sign pattern {-1, 0, +1}.

    ``magnitude`` is the scale the pattern is eventually multiplied by; it is
    deliberately absent from the mass so the distribution is scale free.
    A magnitude of 0 is the degenerate all-mass-at-zero case.
    """

    p_neg: np.ndarray
    p_zero: np.ndarray
    p_pos: np.ndarray
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        self.p_neg = np.asarray(self.p_neg, dtype=np.float64)
        self.p_zero = np.asarray(self.p_zero, dtype=np.float64)
        self.p_pos = np.asarray(self.p_pos, dtype=np.float64)
        if not (self.p_neg.shape == self.p_zero.shape == self.p_pos.shape) or self.p_neg.ndim != 1:
            raise ValueError("ternary probability vectors must be 1-D and equal length")
        probs = (self.p_neg, self.p_zero, self.p_pos)
        finite = np.isfinite(self.p_neg) & np.isfinite(self.p_zero) & np.isfinite(self.p_pos)
        _check_coordinates(finite, "ternary probabilities must be finite", *probs)
        total = self.p_neg + self.p_zero + self.p_pos
        _check_coordinates(np.abs(total - 1.0) <= 1e-12,
                           "ternary probabilities must sum to 1 per coordinate", *probs)
        _check_coordinates((self.p_neg >= 0) & (self.p_zero >= 0) & (self.p_pos >= 0),
                           "ternary probabilities must be nonnegative", *probs)
        if not 0.0 <= self.magnitude < np.inf:
            raise ValueError(f"magnitude must be finite and nonnegative: {self.magnitude}")

    @property
    def dim(self) -> int:
        return self.p_neg.shape[0]

    def sample(self, lo: int, hi: int, stream: SampleStream, count: int = 1,
               start: int = 0) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        width = hi - lo
        u = _uniform_rows(stream, start, count, width)
        neg = self.p_neg[lo:hi]
        zero = self.p_zero[lo:hi]
        out = np.ones((count, width))
        out[u < neg + zero] = 0.0
        out[u < neg] = -1.0
        return out

    def log_mass_rows(self, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        rows = _check_rows(rows, hi - lo)
        if not np.all(np.isin(rows, (-1.0, 0.0, 1.0))):
            raise ValueError("ternary support is {-1, 0, +1}")
        logp = np.where(
            rows == -1.0,
            _log(self.p_neg[lo:hi]),
            np.where(rows == 0.0, _log(self.p_zero[lo:hi]), _log(self.p_pos[lo:hi])),
        )
        return logp.sum(axis=1)

    def log_mass(self, lo: int, hi: int, x: np.ndarray) -> float:
        return float(self.log_mass_rows(lo, hi, x)[0])

    def scaled(self, pattern: np.ndarray) -> np.ndarray:
        """Reconstruct coordinate values from a sign pattern."""
        return self.magnitude * np.asarray(pattern, dtype=np.float64)


@dataclass
class BinarySign:
    """Independent signs with P(+1) = p_plus per coordinate."""

    p_plus: np.ndarray

    def __post_init__(self) -> None:
        self.p_plus = np.asarray(self.p_plus, dtype=np.float64)
        if self.p_plus.ndim != 1:
            raise ValueError("p_plus must be a 1-D vector")
        _check_coordinates((self.p_plus >= 0.0) & (self.p_plus <= 1.0),
                           "sign probabilities must lie in [0, 1]", self.p_plus)

    @property
    def dim(self) -> int:
        return self.p_plus.shape[0]

    def sample(self, lo: int, hi: int, stream: SampleStream, count: int = 1,
               start: int = 0) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        width = hi - lo
        u = _uniform_rows(stream, start, count, width)
        return np.where(u < self.p_plus[lo:hi], 1.0, -1.0)

    def log_mass_rows(self, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        rows = _check_rows(rows, hi - lo)
        if not np.all((rows == 1.0) | (rows == -1.0)):
            raise ValueError("sign support is {-1, +1}")
        p = self.p_plus[lo:hi]
        return np.where(rows == 1.0, _log(p), _log(1.0 - p)).sum(axis=1)

    def log_mass(self, lo: int, hi: int, x: np.ndarray) -> float:
        return float(self.log_mass_rows(lo, hi, x)[0])


@dataclass
class UniformSign:
    """Fair coin over {-1, +1} per coordinate; the SignSGD global prior."""

    dim_: int

    def __post_init__(self) -> None:
        if self.dim_ < 1:
            raise ValueError("dimension must be positive")

    @property
    def dim(self) -> int:
        return self.dim_

    def sample(self, lo: int, hi: int, stream: SampleStream, count: int = 1,
               start: int = 0) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        width = hi - lo
        u = _uniform_rows(stream, start, count, width)
        return np.where(u < 0.5, 1.0, -1.0)

    def log_mass_rows(self, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        rows = _check_rows(rows, hi - lo)
        if not np.all((rows == 1.0) | (rows == -1.0)):
            raise ValueError("sign support is {-1, +1}")
        return np.full(rows.shape[0], -(hi - lo) * np.log(2.0))

    def log_mass(self, lo: int, hi: int, x: np.ndarray) -> float:
        return float(self.log_mass_rows(lo, hi, x)[0])


@dataclass
class DiagonalGaussian:
    """Independent Gaussians with per-coordinate means and one shared sigma."""

    mean: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        _check_coordinates(np.isfinite(self.mean), "Gaussian means must be finite", self.mean)
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite: {self.sigma}")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, lo: int, hi: int, stream: SampleStream, count: int = 1,
               start: int = 0) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        width = hi - lo
        first = start * width  # gaussian offset: pair first // 2, odd drops one
        stream.skip(2 * (first // 2))
        z = stream.gaussians(count * width + first % 2)[first % 2:]
        return self.mean[lo:hi] + self.sigma * z.reshape(count, width)

    def log_mass_rows(self, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        rows = _check_rows(rows, hi - lo)
        resid = (rows - self.mean[lo:hi]) / self.sigma
        width = hi - lo
        return -0.5 * (resid**2).sum(axis=1) - width * (_HALF_LOG_2PI + np.log(self.sigma))

    def log_mass(self, lo: int, hi: int, x: np.ndarray) -> float:
        return float(self.log_mass_rows(lo, hi, x)[0])


ProductDistribution = (
    BernoulliVector | TernaryPattern | BinarySign | UniformSign | DiagonalGaussian
)


def _kl_term(q: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
    """Per-coordinate q*log(q/p) with the 0*log(0)=0 convention."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    bad = (q > 0.0) & (p == 0.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise AbsoluteContinuityError(
            f"{what}: client mass {q[i]:.6g} at coordinate {i} where global mass is 0"
        )
    out = np.zeros_like(q)
    pos = q > 0.0
    out[pos] = q[pos] * (np.log(q[pos]) - np.log(p[pos]))
    return out


def kl_per_coordinate(q: ProductDistribution, p: ProductDistribution) -> np.ndarray:
    """KL(q_i || p_i) in nats, one entry per coordinate.

    Only the pairings the codec actually uses are defined: Bernoulli vs
    Bernoulli, ternary vs ternary (pattern level), sign vs uniform sign, and
    Gaussian vs Gaussian with equal sigma.  Anything else is a usage error.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: client {q.dim} vs global {p.dim}")
    if isinstance(q, BernoulliVector) and isinstance(p, BernoulliVector):
        kl = _kl_term(q.probs, p.probs, "Bernoulli(1)") + _kl_term(
            1.0 - q.probs, 1.0 - p.probs, "Bernoulli(0)"
        )
        return np.maximum(kl, 0.0)  # cancellation near q=p can dip below zero
    if isinstance(q, TernaryPattern) and isinstance(p, TernaryPattern):
        kl = (
            _kl_term(q.p_neg, p.p_neg, "ternary(-1)")
            + _kl_term(q.p_zero, p.p_zero, "ternary(0)")
            + _kl_term(q.p_pos, p.p_pos, "ternary(+1)")
        )
        return np.maximum(kl, 0.0)
    if isinstance(q, BinarySign) and isinstance(p, UniformSign):
        plus = q.p_plus
        kl = _kl_term(plus, np.full(q.dim, 0.5), "sign(+1)") + _kl_term(
            1.0 - plus, np.full(q.dim, 0.5), "sign(-1)"
        )
        return np.maximum(kl, 0.0)
    if isinstance(q, DiagonalGaussian) and isinstance(p, DiagonalGaussian):
        if abs(q.sigma - p.sigma) > 1e-12 * max(q.sigma, p.sigma):
            raise ValueError(
                f"Gaussian KL requires equal sigmas: client {q.sigma} vs global {p.sigma}"
            )
        delta = q.mean - p.mean
        return delta**2 / (2.0 * p.sigma**2)
    raise ValueError(
        f"incompatible distribution kinds: {type(q).__name__} vs {type(p).__name__}"
    )


def kl_block(q: ProductDistribution, p: ProductDistribution, lo: int, hi: int) -> float:
    """Total KL(q || p) over one coordinate range, in nats."""
    _check_range(lo, hi, q.dim)
    return float(kl_per_coordinate(q, p)[lo:hi].sum())


@dataclass(frozen=True)
class LogRatio:
    """log q(x) - log p(x) on rows x drawn from p, one coefficient per coordinate:

        sum_i const_i + x_i * linear_i + x_i^2 * square_i

    exact on every outcome p can draw.  An outcome q gives zero mass makes a
    coefficient infinite, so it is kept out of them and listed in ``zero_mass``
    as (value, coordinate mask) instead: a row holding that value at a masked
    coordinate gets exactly -inf.
    """

    const: np.ndarray
    linear: np.ndarray
    square: np.ndarray | None
    zero_mass: tuple[tuple[float, np.ndarray], ...]

    def rows(self, lo: int, hi: int, candidates: np.ndarray) -> np.ndarray:
        """The log-ratio of each row of a (n, hi-lo) candidate matrix."""
        out = candidates @ self.linear[lo:hi]
        if self.square is not None:
            out += (candidates * candidates) @ self.square[lo:hi]
        out += self.const[lo:hi].sum()
        for value, mask in self.zero_mass:
            cols = np.flatnonzero(mask[lo:hi])
            if cols.size:
                out[(candidates[:, cols] == value).any(axis=1)] = -np.inf
        return out


def _outcome_terms(outcomes) -> tuple[list[np.ndarray], tuple]:
    """Per outcome (value, q mass, p mass): log q - log p where p can draw it
    and q gives it mass, else 0; and the zero-mass list of :class:`LogRatio`."""
    terms, zero_mass = [], []
    for value, q_mass, p_mass in outcomes:
        drawn = p_mass > 0.0
        zero = drawn & (q_mass == 0.0)
        live = drawn & ~zero
        term = np.zeros(q_mass.shape)
        term[live] = np.log(q_mass[live]) - np.log(p_mass[live])
        terms.append(term)
        if zero.any():
            zero_mass.append((value, zero))
    return terms, tuple(zero_mass)


def log_ratio(q: ProductDistribution, p: ProductDistribution) -> LogRatio:
    """The :class:`LogRatio` of a codec pair (the pairings of
    :func:`kl_per_coordinate`; Gaussians may differ in sigma here)."""
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: client {q.dim} vs global {p.dim}")
    if isinstance(q, BernoulliVector) and isinstance(p, BernoulliVector):
        (t0, t1), zero = _outcome_terms(
            ((0.0, 1.0 - q.probs, 1.0 - p.probs), (1.0, q.probs, p.probs)))
        return LogRatio(t0, t1 - t0, None, zero)
    if isinstance(q, TernaryPattern) and isinstance(p, TernaryPattern):
        (tn, t0, tp), zero = _outcome_terms(
            ((-1.0, q.p_neg, p.p_neg), (0.0, q.p_zero, p.p_zero), (1.0, q.p_pos, p.p_pos)))
        return LogRatio(t0, 0.5 * (tp - tn), 0.5 * (tp + tn) - t0, zero)
    if isinstance(q, BinarySign) and isinstance(p, UniformSign):
        half = np.full(q.dim, 0.5)
        (tn, tp), zero = _outcome_terms(((-1.0, 1.0 - q.p_plus, half), (1.0, q.p_plus, half)))
        return LogRatio(0.5 * (tp + tn), 0.5 * (tp - tn), None, zero)
    if isinstance(q, DiagonalGaussian) and isinstance(p, DiagonalGaussian):
        iq, ip = 1.0 / q.sigma**2, 1.0 / p.sigma**2
        const = 0.5 * (ip * p.mean**2 - iq * q.mean**2) + np.log(p.sigma / q.sigma)
        square = None if q.sigma == p.sigma else np.full(q.dim, 0.5 * (ip - iq))
        return LogRatio(const, iq * q.mean - ip * p.mean, square, ())
    raise ValueError(
        f"incompatible distribution kinds: {type(q).__name__} vs {type(p).__name__}"
    )
