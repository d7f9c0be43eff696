"""Stream determinism and distributional sanity.

The moment bounds are the module's stated tolerances for 10^6 draws; they are
loose enough to be deterministic passes for any healthy generator but would
catch a broken transform or key collision.
"""

import numpy as np
import pytest

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


def test_copy_continues_independently():
    s = derive_stream(StreamKey(8, (("copy", 0),)))
    s.uniforms(3)
    twin = s.copy()
    assert np.array_equal(twin.uniforms(9), s.uniforms(9))
    twin.uniforms(2)
    assert np.array_equal(twin.uniforms(5), derive_stream(s.key).uniforms(19)[14:])


def test_negative_skip_rejected():
    with pytest.raises(ValueError):
        derive_stream(StreamKey(1)).skip(-1)
