"""Stream determinism and distributional sanity.

The moment bounds are the module's stated tolerances for 10^6 draws; they are
loose enough to be deterministic passes for any healthy generator but would
catch a broken transform or key collision.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedklms.streams import SampleStream, StreamKey, derive_stream


def test_same_key_same_sequence():
    key = StreamKey(7, (("round", 3), ("client", 1)))
    a = derive_stream(key).uniforms(100)
    b = derive_stream(key).uniforms(100)
    assert np.array_equal(a, b)


def test_scalar_and_vector_draws_agree():
    key = StreamKey(7, (("x", 0),))
    vec = derive_stream(key).uniforms(20)
    s = derive_stream(key)
    scalars = np.array([s.next_uniform() for _ in range(20)])
    assert np.array_equal(vec, scalars)


def test_child_keys_differ():
    base = StreamKey(42)
    a = derive_stream(base.child("block", 0)).uniforms(50)
    b = derive_stream(base.child("block", 1)).uniforms(50)
    c = derive_stream(base.child("shard", 0)).uniforms(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_label_order_matters():
    a = derive_stream(StreamKey(1, (("a", 1), ("b", 2)))).uniforms(10)
    b = derive_stream(StreamKey(1, (("b", 2), ("a", 1)))).uniforms(10)
    assert not np.array_equal(a, b)


def test_uniform_moments():
    u = derive_stream(StreamKey(123).child("u")).uniforms(10**6)
    assert 0.498 <= u.mean() <= 0.502
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_gaussian_moments():
    z = derive_stream(StreamKey(123).child("g")).gaussians(10**6)
    assert -0.005 <= z.mean() <= 0.005
    assert 0.99 <= z.var() <= 1.01


def test_cross_key_correlation():
    a = derive_stream(StreamKey(9, (("s", 0),))).uniforms(10**5)
    b = derive_stream(StreamKey(9, (("s", 1),))).uniforms(10**5)
    rho = np.corrcoef(a, b)[0, 1]
    assert -0.02 <= rho <= 0.02


def test_gaussian_draw_count_is_fixed():
    # n gaussians consume exactly 2*ceil(n/2) uniforms: the draw after them
    # must equal the draw after that many uniforms on a fresh stream
    key = StreamKey(55, (("dc", 0),))
    for n in (1, 2, 3, 8, 9):
        s1 = derive_stream(key)
        s1.gaussians(n)
        after_gauss = s1.next_uniform()
        s2 = derive_stream(key)
        s2.uniforms(2 * ((n + 1) // 2))
        assert after_gauss == s2.next_uniform()


def test_gaussian_batching_invariance():
    key = StreamKey(56, (("gb", 0),))
    whole = derive_stream(key).gaussians(8)
    s = derive_stream(key)
    split = np.concatenate([s.gaussians(4), s.gaussians(4)])
    assert np.array_equal(whole, split)


def test_gaussians_finite():
    z = derive_stream(StreamKey(2, (("fin", 0),))).gaussians(10**5)
    assert np.all(np.isfinite(z))


def test_integers_in_bounds():
    s = derive_stream(StreamKey(3, (("i", 0),)))
    x = s.integers(10**4, 7)
    assert x.min() >= 0 and x.max() <= 6
    # all residues show up
    assert set(np.unique(x)) == set(range(7))


def test_permutation_is_permutation():
    s = derive_stream(StreamKey(4, (("p", 0),)))
    perm = s.permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_key_validation():
    with pytest.raises(ValueError):
        StreamKey(-1)
    with pytest.raises(ValueError):
        StreamKey(0, (("", 0),))
    with pytest.raises(ValueError):
        StreamKey(0, (("t", -5),))


@pytest.mark.parametrize("value", [1.7, 1.0, True, False, "1", None])
def test_non_integer_label_values_refused(value):
    # once, int() cut 1.7 to 1: a different key with the same stream
    with pytest.raises(TypeError, match="rep"):
        StreamKey(0).child("rep", value)
    with pytest.raises(TypeError, match="rep"):
        StreamKey(0, (("rep", value),))


@pytest.mark.parametrize("seed", [1.5, True, "3"])
def test_non_integer_root_seed_refused(seed):
    with pytest.raises(TypeError, match="root_seed"):
        StreamKey(seed)


def test_integer_like_label_values_accepted():
    plain = StreamKey(0).child("rep", 1)
    for value in (np.int64(1), np.uint64(1), np.int8(1)):
        key = StreamKey(0).child("rep", value)
        assert key == plain and hash(key) == hash(plain)
        assert key.digest() == plain.digest()
        assert type(key.labels[0][1]) is int
    assert StreamKey(0, (("rep", np.int64(1)),)) == plain


def test_tag_length_limit():
    StreamKey(0).child("t" * 65535)  # the 2-byte length field holds 65535
    for tag in ("t" * 65536, "é" * 32768):  # 65536 UTF-8 bytes either way
        with pytest.raises(ValueError, match="65536 UTF-8 bytes"):
            StreamKey(0).child(tag)
        with pytest.raises(ValueError, match="65536 UTF-8 bytes"):
            StreamKey(0, ((tag, 0),))


def test_key_pickles_with_its_digest():
    key = StreamKey(5).child("round", 2).child("ключ", 2**64 - 1)
    again = pickle.loads(pickle.dumps(key))
    assert again == key and again.digest() == key.digest()
    assert np.array_equal(derive_stream(again).uniforms(9), derive_stream(key).uniforms(9))


# --- derivation against its definition ----------------------------------------

_TAGS = st.one_of(
    st.sampled_from(["block", "shared", "σ", "ключ", "客户", "🎲"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)
_VALUES = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
_LABELS = st.lists(st.tuples(_TAGS, _VALUES), max_size=5).map(tuple)


def _reference_digest(root_seed, labels):
    """BLAKE2b-128 of the canonical encoding, hashed from scratch."""
    h = hashlib.blake2b(digest_size=16)
    h.update(root_seed.to_bytes(8, "big"))
    for tag, value in labels:
        raw = tag.encode("utf-8")
        h.update(len(raw).to_bytes(2, "big") + raw + value.to_bytes(8, "big"))
    return h.digest()


def _reference_gaussians(u):
    """The frozen trigonometric transform over an even number of uniforms."""
    radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(u.size)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z


@given(st.integers(0, 2**64 - 1), _LABELS, st.integers(0, 300), st.integers(1, 12))
def test_stream_is_philox_keyed_by_the_digest(root_seed, labels, offset, n):
    key = StreamKey(root_seed, labels)
    ref = np.random.Generator(np.random.Philox(key=int.from_bytes(key.digest(), "big")))
    ref.random(offset)
    expected = ref.random(2 * n)
    s = derive_stream(key)
    s.skip(offset)
    twin = derive_stream(key)
    twin.skip(offset)
    assert np.array_equal(s.uniforms(2 * n), expected)
    assert np.array_equal(twin.gaussians(2 * n), _reference_gaussians(expected))


@given(st.integers(0, 2**64 - 1), _LABELS, st.integers(0, 300), st.integers(0, 25))
def test_32_bit_words_are_halves_of_philox_words(root_seed, labels, offset, n):
    # half-word j is the low half of word j // 2 when j is even, else the high
    key = StreamKey(root_seed, labels)
    ref = np.random.Philox(key=int.from_bytes(key.digest(), "big"))
    ref.random_raw(offset)
    raw = ref.random_raw((n + 1) // 2)
    halves = np.empty(2 * raw.size, dtype=np.uint64)
    halves[0::2], halves[1::2] = raw & 0xFFFFFFFF, raw >> 32
    s = derive_stream(key)
    s.skip(offset)
    words = s.uniforms(n, bits=32)
    assert words.dtype == np.uint32 and words.shape == (n,)
    assert np.array_equal(words, halves[:n])
    # an odd count leaves the high half of the last word unused
    assert s.next_uniform() == np.random.Generator(ref).random()


def test_word_width_must_be_32_or_64():
    s = derive_stream(StreamKey(8, (("bits", 0),)))
    assert s.uniforms(3, bits=64).dtype == np.float64
    for bits in (0, 16, 33, 128):
        with pytest.raises(ValueError, match="bits"):
            s.uniforms(2, bits=bits)


@given(st.integers(0, 2**64 - 1), _LABELS)
def test_child_chain_equals_direct_construction(root_seed, labels):
    direct = StreamKey(root_seed, labels)
    chain = [StreamKey(root_seed)]
    for tag, value in labels:
        chain.append(chain[-1].child(tag, value))
    chained = chain[-1]
    assert chained == direct and hash(chained) == hash(direct)
    assert repr(chained) == repr(direct)
    assert chained.digest() == direct.digest() == _reference_digest(root_seed, labels)
    # a child must not disturb its parent's hash state
    for i, key in enumerate(chain):
        assert key.digest() == _reference_digest(root_seed, labels[:i])


# --- skipping ahead -----------------------------------------------------------


@pytest.mark.parametrize("drawn", [0, 1, 2, 3, 5, 8])
def test_skip_then_draw_equals_the_tail(drawn):
    # drawn: uniforms consumed before the skip, so every phase of Philox's
    # group of four is a starting point
    key = StreamKey(8, (("skip", drawn),))
    ref = derive_stream(key).uniforms(drawn + 80)[drawn:]
    for n in range(0, 41):
        for m in (1, 3, 4, 7):
            s = derive_stream(key)
            s.uniforms(drawn)
            s.skip(n)
            assert np.array_equal(s.uniforms(m), ref[n:n + m]), (n, m)


@pytest.mark.parametrize("offset", [0, 1, 2, 7, 37, 110])
def test_gaussians_from_an_offset(offset):
    # gaussian j is reached by skipping 2 * (j // 2) uniforms and, at an odd
    # j, dropping the first value of the next pair
    key = StreamKey(8, (("gskip", offset),))
    for m in (1, 2, 5, 12):
        s = derive_stream(key)
        s.skip(2 * (offset // 2))
        tail = s.gaussians(m + offset % 2)[offset % 2:]
        assert np.array_equal(tail, derive_stream(key).gaussians(offset + m)[offset:])


def test_negative_skip_rejected():
    with pytest.raises(ValueError):
        derive_stream(StreamKey(1)).skip(-1)


# --- golden values ------------------------------------------------------------

# key -> (digest hex, first 8 uniforms, skip n, the 8 uniforms after skip(n),
# first 5 gaussians); floats are repr round-trips, compared exactly.  Every
# skip is 4k + 3, so it ends inside one of Philox's groups of four.
_GOLDEN = {
    "empty": (
        StreamKey(0),
        "c804ce198ec337e3dc762bdd1a09aece",
        [
            0.8369583661183773, 0.8916822883783284, 0.7782873409208908,
            0.7878886722064291, 0.2668794672151249, 0.8097646478327145,
            0.6773932864244638, 0.29068769872595923,
        ],
        3,
        [
            0.7878886722064291, 0.2668794672151249, 0.8097646478327145,
            0.6773932864244638, 0.29068769872595923, 0.6257140589823981,
            0.6373575051910708, 0.9901145874476895,
        ],
        [
            1.4802694750166578, -1.1984580333666102, 0.4093177658397955,
            -1.686773575340145, 0.2889859004300517,
        ],
    ),
    "one_label": (
        StreamKey(7, (("round", 3),)),
        "e9d16f4abfa69abbe648ff43de84fcb9",
        [
            0.3099167957222254, 0.044011070796662444, 0.24267561449593,
            0.38162514287064764, 0.4423883681170162, 0.7943656897845888,
            0.5173910331932898, 0.26842594148544163,
        ],
        7,
        [
            0.26842594148544163, 0.060078332099068876, 0.8693935457295477,
            0.5275818267610347, 0.5489772791328201, 0.8427193350088724,
            0.5483710703304291, 0.09470579584427574,
        ],
        [
            0.8286051721384898, 0.2351588276190456, -0.5487061697933552,
            0.504825459757637, 0.29740191237927016,
        ],
    ),
    "chain": (
        StreamKey(42).child("round", 5).child("client", 3).child("block", 11),
        "c59a7773a406ade3ee7b67604f282e61",
        [
            0.6390106031699754, 0.05827920772901318, 0.068850842451045,
            0.32706253787329453, 0.6329915774154823, 0.21273411416187504,
            0.17919091319657554, 0.7869517148700871,
        ],
        43,
        [
            0.7258596046448602, 0.008505354139069388, 0.48337808866992393,
            0.42845053329629035, 0.39129078704998765, 0.24675542742098777,
            0.9450801691645897, 0.9430373830815281,
        ],
        [
            1.3328786426991612, 0.511124162333996, -0.17582774875779345,
            0.33429957741817623, 0.32850710708588127,
        ],
    ),
    "non_ascii": (
        StreamKey(1).child("σ-шум", 9),
        "5f7c7d0598127498cb10ab6542b0f96d",
        [
            0.17201973993848207, 0.33185230348135886, 0.6953589538017703,
            0.04539457417729942, 0.6539158057731621, 0.9482502941778411,
            0.1398934305304098, 0.6960999652824905,
        ],
        11,
        [
            0.5329859762714152, 0.49458469309835007, 0.0943351024696355,
            0.49522120147386417, 0.2987888850755035, 0.5940245584417194,
            0.8169529674581543, 0.576304483501705,
        ],
        [
            -0.3022532414286385, 0.534953183763627, 1.479539385390111,
            0.43382645542459375, 1.3804274171306479,
        ],
    ),
    "max_value": (
        StreamKey(2**64 - 1).child("max", 2**64 - 1),
        "cec5b46bc9c6578f69808700f1d2f9a4",
        [
            0.038098849297553805, 0.38879161382583927, 0.6447981078338711,
            0.7590682230754969, 0.9343535256449309, 0.9293328075079196,
            0.019153626406964053, 0.8770177756598322,
        ],
        1003,
        [
            0.7637865577925809, 0.2510680981923117, 0.796401935130619,
            0.442241661294819, 0.4309132868842326, 0.6292124267667725,
            0.16274762655190989, 0.4598473840972862,
        ],
        [
            -0.21340557602910562, 0.179290923380873, 0.08193447795188694,
            -1.4364625379698595, 2.107563188926863,
        ],
    ),
    "codec_shared": (
        StreamKey(2026).child("block", 0).child("shared"),
        "37a867f1045e78d839c4790eed4e3763",
        [
            0.8579233441811953, 0.7908879763121508, 0.4408907759437527,
            0.2807897600196121, 0.2595401319190125, 0.0652280896038252,
            0.34743008321068214, 0.22655315333470016,
        ],
        15,
        [
            0.3857624924876414, 0.9179076171980938, 0.8554903964329553,
            0.9510952619984805, 0.488354022307699, 0.5075769482068436,
            0.2782665574030583, 0.9700562245189299,
        ],
        [
            0.5019662130561786, -1.9107085061838418, -0.20731475621522408,
            1.0582256176918168, 0.7110207510274226,
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_values_pinned(name):
    key, digest, first, skip, after, gaussians = _GOLDEN[name]
    assert key.digest().hex() == digest
    assert derive_stream(key).uniforms(8).tolist() == first
    s = derive_stream(key)
    s.skip(skip)
    assert s.uniforms(8).tolist() == after
    assert derive_stream(key).gaussians(5).tolist() == gaussians
