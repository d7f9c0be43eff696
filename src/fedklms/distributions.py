"""Product distributions over parameter coordinates.

These are the client/global posteriors the codec samples from and weighs
against: fully factorized, so log-mass and KL reduce to per-coordinate sums.
All five kinds share one interface:

    dim                   number of coordinates
    sample(lo, hi, stream, count, start)   rows start .. start+count-1 of the
                                           iid draws from the stream's position
    log_mass_rows(lo, hi, rows)     log probability (mass or density) per row

``sample`` consumes a fixed number of stream draws per row determined only by
(kind, hi-lo), so encoder and decoder stay in lockstep without exchanging
generator state, and ``start`` skips to a row without computing the ones
before it.

:func:`_outcomes` is the one table of the codec pairs: (value, q mass,
p mass) per outcome, with two Gaussians as the one closed-form case.
:func:`kl_per_coordinate` sums q mass * (log q - log p) over it, and
:func:`log_ratio` turns the same terms into per-coordinate coefficients of
log q - log p on rows drawn from p: one matrix-vector product per block (two
where a squared term is needed), with no support checks.  The encoder takes
both, and the variance of each coordinate's log q - log p under q, from one
pass over the terms (:func:`kl_spread_and_ratio`, which
:func:`kl_per_coordinate` reads the KL of).  The codec never
calls ``log_mass_rows``; it is the reference the tests compare
:func:`log_ratio` against.

A Bernoulli coordinate is drawn as one 32-bit half-word u of the stream (see
:mod:`fedklms.streams`) compared with the integer threshold t = floor(p *
2^32): the candidate is 1 when u < t, which happens with probability exactly
t / 2^32.  So the law itself lives on that grid: :class:`BernoulliVector`
stores probs = floor(p * 2^32) / 2^32, and ``sample``, ``log_mass_rows``,
:func:`kl_per_coordinate` and :func:`log_ratio` all read that one value, which
keeps the importance weights exact.  p = 0 and p = 1 stay exact (thresholds 0
and 2^32), and a probability below 2^-32 rounds to 0 and takes the zero-mass
path below.  Row k of a w-wide block starts at half-word k * w.  The uint32
thresholds and the mask of p = 1 coordinates (t = 2^32 does not fit a uint32,
so those are set to 1 after the compare) are derived once, with the grid
rounding, so a sample costs only its draw and its compare; it draws its words
in pieces of at most ``ENCODE_CHUNK_FLOATS``, the size of the codec's encode
tile.

Zero mass is reported as -inf, never as an exception; absolute-continuity
violations (client support exceeding global support) are errors raised by the
KL routine, because they make the encoding scheme itself invalid rather than
a single candidate unusable.

The ternary kind is evaluated at pattern level {-1, 0, +1}: the magnitude is
carried as metadata and never enters the mass, so rescaling a client vector
leaves its pattern log-mass unchanged.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .streams import SampleStream

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_GRID = 2.0**32  # Bernoulli thresholds are whole numbers of 2^-32
# most candidate values the codec's encoder holds at once: it draws, maps and
# weighs a block's candidates one tile of this many float64 (256 KiB) at a
# time, small enough to stay in a core's L2 cache.  A Bernoulli sample draws
# its 32-bit words in pieces of the same size, so one number bounds both.
ENCODE_CHUNK_FLOATS = 1 << 15


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


def _is_integer(value) -> bool:
    """An int or numpy integer; a bool or a whole float is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    """Independent Bernoulli coordinates with support {0, 1}.

    ``probs`` is rounded down to the grid of 32-bit thresholds on
    construction: the law is P(1) = floor(p * 2^32) / 2^32, exactly what
    ``sample`` draws.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        _check_coordinates((probs >= 0.0) & (probs <= 1.0),
                           "Bernoulli probabilities must lie in [0, 1]", probs)
        self.probs = np.floor(probs * _GRID) / _GRID
        # sample's thresholds, derived once (see the module docstring)
        threshold = self.probs * _GRID  # whole numbers in [0, 2^32]
        self._certain = threshold == _GRID
        self._threshold = np.minimum(threshold, _GRID - 1.0).astype(np.uint32)

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def sample(self, lo: int, hi: int, stream: SampleStream, count: int = 1,
               start: int = 0) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        width = hi - lo
        threshold = self._threshold[lo:hi]
        # coordinate j of the stream is half-word j: skip whole words, and at
        # an odd start draw the first row alone, dropping the half before it;
        # that row ends on a word boundary
        first = start * width
        stream.skip(first // 2)
        out = np.empty((count, width))
        head = first % 2
        if head and count:
            np.less(stream.uniforms(width + 1, bits=32)[1:], threshold, out=out[0])
        # an even number of rows per piece, so that every piece but the last
        # ends on a word boundary
        step = max(2, ENCODE_CHUNK_FLOATS // width // 2 * 2)
        for r in range(head, count, step):
            rows = out[r:r + step]
            words = stream.uniforms(rows.size, bits=32).reshape(rows.shape)
            np.less(words, threshold, out=rows)
        certain = self._certain[lo:hi]
        if certain.any():
            out[:, certain] = 1.0
        return out

    def log_mass_rows(self, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        _check_range(lo, hi, self.dim)
        rows = _check_rows(rows, hi - lo)
        if not np.all((rows == 0.0) | (rows == 1.0)):
            raise ValueError("Bernoulli support is {0, 1}")
        p = self.probs[lo:hi]
        per_coord = np.where(rows == 1.0, _log(p), _log(1.0 - p))
        return per_coord.sum(axis=1)


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
        # +1 where u >= neg + zero, -1 where u < neg (which lies below
        # neg + zero), 0 in between
        return np.subtract(u >= neg + self.p_zero[lo:hi], u < neg, dtype=np.float64)

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


@dataclass
class UniformSign:
    """Fair coin over {-1, +1} per coordinate; the SignSGD global prior."""

    dim_: int

    def __post_init__(self) -> None:
        if not _is_integer(self.dim_) or self.dim_ < 1:
            raise ValueError(f"dimension must be a positive integer: {self.dim_!r}")

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


ProductDistribution = (
    BernoulliVector | TernaryPattern | BinarySign | UniformSign | DiagonalGaussian
)


def _outcomes(q: ProductDistribution, p: ProductDistribution) -> tuple | None:
    """The table of a codec pair: (value, q mass, p mass) per outcome of a
    discrete pair, or None for two Gaussians.

    Only the pairings the codec uses are defined: Bernoulli vs Bernoulli,
    ternary vs ternary (pattern level), sign vs uniform sign, and Gaussian vs
    Gaussian.  Anything else is a usage error.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: client {q.dim} vs global {p.dim}")
    if isinstance(q, BernoulliVector) and isinstance(p, BernoulliVector):
        return (0.0, 1.0 - q.probs, 1.0 - p.probs), (1.0, q.probs, p.probs)
    if isinstance(q, TernaryPattern) and isinstance(p, TernaryPattern):
        return ((-1.0, q.p_neg, p.p_neg), (0.0, q.p_zero, p.p_zero),
                (1.0, q.p_pos, p.p_pos))
    if isinstance(q, BinarySign) and isinstance(p, UniformSign):
        half = np.full(q.dim, 0.5)
        return (-1.0, 1.0 - q.p_plus, half), (1.0, q.p_plus, half)
    if isinstance(q, DiagonalGaussian) and isinstance(p, DiagonalGaussian):
        return None
    raise ValueError(
        f"incompatible distribution kinds: {type(q).__name__} vs {type(p).__name__}"
    )


def kl_per_coordinate(q: ProductDistribution, p: ProductDistribution) -> np.ndarray:
    """KL(q_i || p_i) in nats, one entry per coordinate (see
    :func:`kl_spread_and_ratio`)."""
    return kl_spread_and_ratio(q, p)[0]


def kl_spread_and_ratio(
    q: ProductDistribution, p: ProductDistribution
) -> tuple[np.ndarray, np.ndarray, LogRatio]:
    """Per coordinate, KL(q_i || p_i) in nats and the variance under q of
    log q_i/p_i, and the pair's :func:`log_ratio`, all from one pass over
    the outcome terms: what the codec's encoder needs of a pair.

    The KL is the sum over the outcomes of q mass * (log q - log p), and the
    variance the sum of q mass * (log q - log p)^2 less the squared KL; for
    two Gaussians, which must share sigma, the closed forms, with a variance
    of 2 KL (inf where that overflows).  Refuses client mass where the
    global mass is 0, and a KL that overflows, naming the coordinate."""
    outcomes = _outcomes(q, p)
    if outcomes is None:
        if abs(q.sigma - p.sigma) > 1e-12 * max(q.sigma, p.sigma):
            raise ValueError(
                f"Gaussian KL requires equal sigmas: client {q.sigma} vs global {p.sigma}"
            )
        with np.errstate(over="ignore"):
            kl = (q.mean - p.mean) ** 2 / (2.0 * p.sigma**2)
            variance = 2.0 * kl
        _check_coordinates(np.isfinite(kl), "Gaussian KL overflows (client, global mean)",
                           q.mean, p.mean)
        return kl, variance, log_ratio(q, p)
    for value, q_mass, p_mass in outcomes:
        bad = (q_mass > 0.0) & (p_mass == 0.0)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise AbsoluteContinuityError(
                f"outcome {value:+g}: client mass {q_mass[i]:.6g} at coordinate {i} "
                "where global mass is 0"
            )
    terms, zero = _outcome_terms(outcomes)
    kl = sum(q_mass * term for (_, q_mass, _), term in zip(outcomes, terms))
    kl = np.maximum(kl, 0.0)  # cancellation near q=p can dip below zero
    second = sum(q_mass * term * term for (_, q_mass, _), term in zip(outcomes, terms))
    return kl, np.maximum(second - kl * kl, 0.0), _discrete_ratio(outcomes, terms, zero)


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

    def block(self, lo: int, hi: int) -> Callable[[np.ndarray], np.ndarray]:
        """The function that gives the log-ratio of each row of an (n, hi-lo)
        candidate matrix.  The block's constant and its zero-mass columns are
        found here, once, so that weighing a block tile by tile passes over
        its width only in the products."""
        linear = self.linear[lo:hi]
        square = None if self.square is None else self.square[lo:hi]
        const = self.const[lo:hi].sum()
        dead = [(value, cols) for value, mask in self.zero_mass
                if (cols := np.flatnonzero(mask[lo:hi])).size]

        def rows(candidates: np.ndarray) -> np.ndarray:
            out = candidates @ linear
            if square is not None:
                out += (candidates * candidates) @ square
            out += const
            for value, cols in dead:
                out[(candidates[:, cols] == value).any(axis=1)] = -np.inf
            return out

        return rows


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
    """The :class:`LogRatio` of a codec pair (the pairings of :func:`_outcomes`;
    Gaussians may differ in sigma here)."""
    outcomes = _outcomes(q, p)
    if outcomes is None:
        iq, ip = 1.0 / q.sigma**2, 1.0 / p.sigma**2
        const = 0.5 * (ip * p.mean**2 - iq * q.mean**2) + np.log(p.sigma / q.sigma)
        square = None if q.sigma == p.sigma else np.full(q.dim, 0.5 * (ip - iq))
        return LogRatio(const, iq * q.mean - ip * p.mean, square, ())
    return _discrete_ratio(outcomes, *_outcome_terms(outcomes))


def _discrete_ratio(outcomes, terms: list[np.ndarray], zero: tuple) -> LogRatio:
    """The :class:`LogRatio` of a discrete pair from its outcome terms."""
    if len(terms) == 3:  # {-1, 0, +1}: the square tells 0 from +-1
        tn, t0, tp = terms
        return LogRatio(t0, 0.5 * (tp - tn), 0.5 * (tp + tn) - t0, zero)
    # the line through (a, ta) and (b, tb); for {0, 1} and {-1, +1} every
    # product and quotient by a, b or b - a is exact
    (a, _, _), (b, _, _) = outcomes
    ta, tb = terms
    return LogRatio((b * ta - a * tb) / (b - a), (tb - ta) / (b - a), None, zero)
