"""Deterministic, hierarchically keyed random streams.

Every random draw in the package flows through a :class:`SampleStream` derived
from a :class:`StreamKey`.  A key is a root seed plus an ordered tuple of
``(tag, value)`` labels; the draw sequence is a pure function of the key and
the draw index.  Encoder and decoder never exchange generator state: both sides
rebuild the same stream from the same labels, so samples can be regenerated in
any order and across process boundaries.

Keys are hashed (BLAKE2b-128 over a canonical byte encoding) into the 128-bit
key of a Philox counter-based generator.  Distinct label tuples give
statistically independent streams.

The Gaussian transform is intentionally not the generator's native one: it is
frozen to the paired-uniform trigonometric transform

    z1 = sqrt(-2 ln u1) * cos(2 pi u2)
    z2 = sqrt(-2 ln u1) * sin(2 pi u2)

with u1 mapped from [0,1) to (0,1] so the log is finite.  Pair i consumes
uniforms (2i, 2i+1) and emits (z1, z2) adjacently, so a request for n gaussians
always consumes exactly 2*ceil(n/2) uniforms and splitting a request into
even-sized chunks reproduces the unsplit values bit for bit.

:meth:`SampleStream.skip` moves past n uniforms without computing them.
Philox turns one counter value into four uniforms, so a skip draws what is
left of the current group of four, jumps the counter over the whole groups
with ``advance``, and draws the remainder: ``skip(n)`` then ``uniforms(m)``
gives ``uniforms(n + m)[n:]``.  Gaussian j comes from pair j // 2, so the
gaussians from offset j on are reached by skipping 2 * (j // 2) uniforms and,
when j is odd, dropping the first value of the next pair.  This is how the
decoder regenerates one candidate row without the K - 1 before it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

_LABEL_VALUE_BITS = 64


@dataclass(frozen=True)
class StreamKey:
    """Immutable identifier for one random stream.

    Labels are (tag, value) pairs appended with :meth:`child`; the order is
    significant.  Values must fit in an unsigned 64-bit integer.
    """

    root_seed: int
    labels: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0 <= self.root_seed < 2**64:
            raise ValueError(f"root_seed must be in [0, 2^64): {self.root_seed}")
        for tag, value in self.labels:
            if not isinstance(tag, str) or not tag:
                raise ValueError(f"label tag must be a non-empty string: {tag!r}")
            if not 0 <= int(value) < 2**_LABEL_VALUE_BITS:
                raise ValueError(f"label value out of range: {tag}={value}")

    def child(self, tag: str, value: int = 0) -> "StreamKey":
        """Return a new key with one more label appended."""
        return StreamKey(self.root_seed, self.labels + ((tag, int(value)),))

    def digest(self) -> bytes:
        """Canonical 16-byte hash of (root_seed, labels).

        Encoding is unambiguous: root seed as 8 bytes big-endian, then for each
        label a 2-byte tag length, the UTF-8 tag, and the 8-byte value.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(self.root_seed.to_bytes(8, "big"))
        for tag, value in self.labels:
            raw = tag.encode("utf-8")
            h.update(len(raw).to_bytes(2, "big"))
            h.update(raw)
            h.update(int(value).to_bytes(8, "big"))
        return h.digest()


class SampleStream:
    """Stateful view of the deterministic stream for one :class:`StreamKey`.

    Philox is counter based, so the sequence of uniforms depends only on the
    derived key; drawing one value at a time or in blocks yields identical
    sequences.  Instances are cheap; derive one per (round, client, block,
    role) rather than sharing.
    """

    def __init__(self, key: StreamKey):
        self.key = key
        philox_key = int.from_bytes(key.digest(), "big")
        self._gen = np.random.Generator(np.random.Philox(key=philox_key))
        self._drawn = 0  # uniforms consumed; skip needs it mod 4

    def _draw(self, n: int) -> np.ndarray:
        self._drawn += n
        return self._gen.random(n)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 uniforms in [0, 1)."""
        if n < 0:
            raise ValueError(f"draw count must be nonnegative: {n}")
        return self._draw(n)

    def next_uniform(self) -> float:
        return float(self._draw(1)[0])

    def skip(self, n: int) -> None:
        """Move past the next n uniforms at the cost of at most six draws."""
        if n < 0:
            raise ValueError(f"skip count must be nonnegative: {n}")
        # advance discards Philox's buffered group of four, so finish it first
        lead = min(n, -self._drawn % 4)
        self._draw(lead)
        groups = (n - lead) // 4
        if groups:
            self._gen.bit_generator.advance(groups)
            self._drawn += 4 * groups
        self._draw((n - lead) % 4)

    def copy(self) -> "SampleStream":
        """An independent stream for the same key at the same position."""
        twin = SampleStream(self.key)
        twin.skip(self._drawn)
        return twin

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals via the frozen trigonometric transform."""
        if n < 0:
            raise ValueError(f"draw count must be nonnegative: {n}")
        if n == 0:
            return np.empty(0)
        pairs = (n + 1) // 2
        u = self._draw(2 * pairs)
        u1 = 1.0 - u[0::2]  # (0, 1]: log stays finite
        u2 = u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on {0, ..., bound-1}, one uniform consumed each."""
        if bound <= 0:
            raise ValueError(f"bound must be positive: {bound}")
        u = self.uniforms(n)
        # u < 1 so the floor is at most bound-1
        return np.minimum((u * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n); consumes n uniforms."""
        return np.argsort(self.uniforms(n), kind="stable")


def derive_stream(key: StreamKey) -> SampleStream:
    """Build the stream for a key, positioned at draw index 0."""
    return SampleStream(key)
