"""Deterministic, hierarchically keyed random streams.

Every random draw in the package flows through a :class:`SampleStream` derived
from a :class:`StreamKey`.  A key is a root seed plus an ordered tuple of
``(tag, value)`` labels; the draw sequence is a pure function of the key and
the draw index.  Encoder and decoder never exchange generator state: both sides
rebuild the same stream from the same labels, so samples can be regenerated in
any order and across process boundaries.

Keys are hashed (BLAKE2b-128 over a canonical byte encoding) into the 128-bit
key of a Philox counter-based generator.  Distinct label tuples give
statistically independent streams.  The 16-byte digest, read as one big-endian
integer, is the Philox key: its low 64-bit word is the generator's first key
word and its high word the second, as ``np.random.Philox(key=int.from_bytes(
digest, "big"))`` would set them.  The stream hands Philox those two words as
its seed and a zero counter as four words, so no seed sequence is drawn from
OS entropy only to be overridden.  Each key holds the BLAKE2b state of its own
label prefix: :meth:`StreamKey.child` copies that state and validates and
absorbs only the new label, so a prefix shared by many children is hashed
once.  Label values are integers in [0, 2^64) (floats and bools are refused,
never truncated) and tags are at most 65,535 UTF-8 bytes.

The Gaussian transform is intentionally not the generator's native one: it is
frozen to the paired-uniform trigonometric transform

    z1 = sqrt(-2 ln u1) * cos(2 pi u2)
    z2 = sqrt(-2 ln u1) * sin(2 pi u2)

with u1 mapped from [0,1) to (0,1] so the log is finite.  Pair i consumes
uniforms (2i, 2i+1) and emits (z1, z2) adjacently, so a request for n gaussians
always consumes exactly 2*ceil(n/2) uniforms and splitting a request into
even-sized chunks reproduces the unsplit values bit for bit.

The stream is a sequence of 64-bit Philox words.  A float64 uniform uses one
whole word.  ``uniforms(n, bits=32)`` instead returns n uint32 half-words
from ceil(n/2) words: half-word j is the low 32 bits of word j // 2 when j is
even and the high 32 bits when j is odd, on any host byte order.  An odd n
leaves the high half of its last word unused; the next draw starts at the
next word.

:meth:`SampleStream.skip` moves past n words without computing them.
Philox turns one counter value into four words, so a skip draws what is
left of the current group of four, jumps the counter over the whole groups
with ``advance``, and draws the remainder: ``skip(n)`` then ``uniforms(m)``
gives ``uniforms(n + m)[n:]``.  Gaussian j comes from pair j // 2, so the
gaussians from offset j on are reached by skipping 2 * (j // 2) uniforms and,
when j is odd, dropping the first value of the next pair; half-word j is
reached the same way, by skipping j // 2 words and, when j is odd, dropping
the low half of the next word.  This is how the decoder regenerates one
candidate row without the K - 1 before it, and the only way to revisit a
position: a stream has no copy, so a second view of it is a fresh stream for
the same key, skipped there.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import dataclass, field

import numpy as np

_WORD = 2**64
_MAX_TAG_BYTES = 2**16 - 1  # the tag length is encoded in two bytes
_set = object.__setattr__  # fills the fields of a frozen key
# Philox's counter starts at zero; given as words, numpy need not split an int
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def _word(value, what: str) -> int:
    """value as an int in [0, 2^64); floats and bools are refused, not cut."""
    if type(value) is not int:
        if isinstance(value, bool):
            raise TypeError(f"{what} must be an integer, not bool: {value!r}")
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{what} must be an integer: {value!r}") from None
    if not 0 <= value < _WORD:
        raise ValueError(f"{what} out of range [0, 2^64): {value}")
    return value


def _encode_label(tag: str, value) -> tuple[int, bytes]:
    """Validate one label; return its value and its canonical byte encoding."""
    if not isinstance(tag, str) or not tag:
        raise ValueError(f"label tag must be a non-empty string: {tag!r}")
    value = _word(value, f"label {tag}")
    raw = tag.encode("utf-8")
    if len(raw) > _MAX_TAG_BYTES:
        raise ValueError(
            f"label tag {tag[:32]!r}... is {len(raw)} UTF-8 bytes, at most {_MAX_TAG_BYTES}"
        )
    return value, len(raw).to_bytes(2, "big") + raw + value.to_bytes(8, "big")


@dataclass(frozen=True, slots=True)
class StreamKey:
    """Immutable identifier for one random stream.

    Labels are (tag, value) pairs appended with :meth:`child`; the order is
    significant.  Values must be integers in [0, 2^64).
    """

    root_seed: int
    labels: tuple[tuple[str, int], ...] = field(default_factory=tuple)
    # BLAKE2b state after the root seed and every label
    _prefix: hashlib.blake2b = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root_seed = _word(self.root_seed, "root_seed")
        prefix = hashlib.blake2b(root_seed.to_bytes(8, "big"), digest_size=16)
        labels = []
        for tag, value in self.labels:
            value, encoded = _encode_label(tag, value)
            prefix.update(encoded)
            labels.append((tag, value))
        _set(self, "root_seed", root_seed)
        _set(self, "labels", tuple(labels))
        _set(self, "_prefix", prefix)

    def __reduce__(self):
        # the hash state does not pickle; the fields rebuild it
        return type(self), (self.root_seed, self.labels)

    def child(self, tag: str, value: int = 0) -> "StreamKey":
        """Return a new key with one more label appended.

        The parent's labels are already checked and hashed: only the new one
        is, into a copy of the parent's hash state.
        """
        value, encoded = _encode_label(tag, value)
        prefix = self._prefix.copy()
        prefix.update(encoded)
        key = object.__new__(type(self))  # skips __post_init__'s full pass
        _set(key, "root_seed", self.root_seed)
        _set(key, "labels", self.labels + ((tag, value),))
        _set(key, "_prefix", prefix)
        return key

    def digest(self) -> bytes:
        """Canonical 16-byte hash of (root_seed, labels).

        Encoding is unambiguous: root seed as 8 bytes big-endian, then for each
        label a 2-byte tag length, the UTF-8 tag, and the 8-byte value.
        """
        return self._prefix.digest()


@functools.cache
def _philox_key_type() -> type:
    """The seed that hands Philox a digest as its key.

    Its base class lives in numpy.random, which numpy imports on first use
    and which takes about 10 ms to import, so the class is built with the
    first stream rather than when this module is imported.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """Philox asks its seed for two 64-bit words and makes them its key,
        low word first."""

        __slots__ = ("_words",)

        def __init__(self, digest: bytes):
            # the digest is a big-endian 128-bit key; reversed, it is little
            # endian, and its two 8-byte halves are the low and the high word
            self._words = np.frombuffer(digest[::-1], dtype="<u8")

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is two uint64 words, not {n_words} {dtype}")
            return self._words

    return PhiloxKey


class SampleStream:
    """Stateful view of the deterministic stream for one :class:`StreamKey`.

    Philox is counter based, so the sequence of uniforms depends only on the
    derived key; drawing one value at a time or in blocks yields identical
    sequences.  Instances are cheap; derive one per (round, client, block,
    role) rather than sharing.
    """

    def __init__(self, key: StreamKey):
        self.key = key
        self._philox = np.random.Philox(_philox_key_type()(key.digest()),
                                        counter=_ZERO_COUNTER)
        self._gen = np.random.Generator(self._philox)
        self._drawn = 0  # words consumed; skip needs it mod 4

    def _draw(self, n: int) -> np.ndarray:
        self._drawn += n
        return self._gen.random(n)

    def uniforms(self, n: int, bits: int = 64) -> np.ndarray:
        """n float64 uniforms in [0, 1), one word each; or, with bits=32, n
        uint32 words uniform on [0, 2^32), the halves of ceil(n/2) words."""
        if n < 0:
            raise ValueError(f"draw count must be nonnegative: {n}")
        if bits == 64:
            return self._draw(n)
        if bits != 32:
            raise ValueError(f"bits must be 32 or 64: {bits}")
        words = (n + 1) // 2
        self._drawn += words
        # little-endian words read as pairs of little-endian halves: low first
        raw = self._philox.random_raw(words).astype("<u8", copy=False)
        return raw.view("<u4")[:n]

    def next_uniform(self) -> float:
        return float(self._draw(1)[0])

    def skip(self, n: int) -> None:
        """Move past the next n words at the cost of at most six draws."""
        if n < 0:
            raise ValueError(f"skip count must be nonnegative: {n}")
        # advance discards Philox's buffered group of four, so finish it first
        lead = min(n, -self._drawn % 4)
        self._draw(lead)
        groups = (n - lead) // 4
        if groups:
            self._philox.advance(groups)
            self._drawn += 4 * groups
        self._draw((n - lead) % 4)

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
