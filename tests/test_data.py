"""Dataset IO formats and client split invariants."""

import struct

import numpy as np
import pytest

from fedklms.data import (
    Dataset,
    load_csv,
    load_idx_pair,
    make_blobs,
    make_separable,
    split_iid,
    split_skewed,
)
from fedklms.streams import StreamKey, derive_stream


def stream(tag, value=0):
    return derive_stream(StreamKey(31337, ((tag, value),)))


def write_idx(path, arr, dtype_code=0x08):
    arr = np.ascontiguousarray(arr)
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, dtype_code, arr.ndim]))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(arr.astype(np.uint8).tobytes())


def test_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5,2.0\n0,-1.0,3.25\n")
    ds = load_csv(str(path))
    assert ds.size == 2 and ds.num_features == 2
    assert ds.labels.tolist() == [1, 0]
    assert ds.features[1] == pytest.approx([-1.0, 3.25])


def test_csv_rejects_bad_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,1.0\n")
    with pytest.raises(ValueError):
        load_csv(str(path))


def test_csv_rejects_an_infinite_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0\ninf,2.0\n")
    with pytest.raises(ValueError, match="labels must be nonnegative integers"):
        load_csv(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_refuses_a_non_finite_feature_at_its_row_and_column(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,0.5,2.0\n0,-1.0,3.25\n1,4.0,{value}\n")
    with pytest.raises(ValueError) as err:
        load_csv(str(path))
    assert str(err.value) == (f"{path}: features must be finite: row 3, column 3 "
                              f"is {float(value)!r}")


def test_idx_round_trip(tmp_path):
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    labels = np.array([7, 2], dtype=np.uint8)
    write_idx(tmp_path / "img", images)
    write_idx(tmp_path / "lab", labels)
    ds = load_idx_pair(str(tmp_path / "img"), str(tmp_path / "lab"))
    assert ds.features.shape == (2, 12)
    assert ds.features.max() <= 1.0
    assert ds.features[0, 1] == pytest.approx(1.0 / 255.0)
    assert ds.labels.tolist() == [7, 2]


def test_idx_limit(tmp_path):
    images = np.zeros((5, 2, 2), dtype=np.uint8)
    labels = np.arange(5, dtype=np.uint8)
    write_idx(tmp_path / "img", images)
    write_idx(tmp_path / "lab", labels)
    ds = load_idx_pair(str(tmp_path / "img"), str(tmp_path / "lab"), limit=3)
    assert ds.size == 3


def test_idx_bad_magic(tmp_path):
    (tmp_path / "x").write_bytes(b"\x01\x00\x08\x01" + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_idx_pair(str(tmp_path / "x"), str(tmp_path / "x"))


def test_idx_truncated_body(tmp_path):
    with open(tmp_path / "t", "wb") as fh:
        fh.write(bytes([0, 0, 0x08, 1]))
        fh.write(struct.pack(">I", 10))
        fh.write(b"\x00" * 4)  # promises 10, delivers 4
    with pytest.raises(ValueError):
        load_idx_pair(str(tmp_path / "t"), str(tmp_path / "t"))


def test_idx_count_mismatch(tmp_path):
    write_idx(tmp_path / "img", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx(tmp_path / "lab", np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        load_idx_pair(str(tmp_path / "img"), str(tmp_path / "lab"))


def test_make_separable_is_separable():
    from fedklms.models import LogisticModel, evaluate_accuracy

    ds = make_separable(400, 20, margin=1.0, stream=stream("sep"))
    assert set(np.unique(ds.labels)) == {0, 1}
    model = LogisticModel(20, 2)
    w = np.zeros(model.dim)
    for _ in range(400):
        _, g = model.loss_and_grad(w, ds.features, ds.labels)
        w -= 1.0 * g
    assert evaluate_accuracy(model, w, ds.features, ds.labels) == 1.0


def test_make_blobs_shapes():
    ds = make_blobs(100, 6, 4, spread=3.0, stream=stream("blobs"))
    assert ds.features.shape == (100, 6)
    assert ds.num_classes <= 4


def test_split_iid_equal_sizes():
    ds = Dataset(np.zeros((1000, 2)), np.zeros(1000))
    shards = split_iid(ds, 10, stream("iid"))
    assert [s.size for s in shards] == [100] * 10
    allidx = np.concatenate(shards)
    assert np.array_equal(np.sort(allidx), np.arange(1000))


def test_split_iid_remainder():
    ds = Dataset(np.zeros((103, 2)), np.zeros(103))
    sizes = sorted(s.size for s in split_iid(ds, 10, stream("iid2")))
    assert sizes == [10] * 7 + [11] * 3


def test_split_skewed_invariants():
    labels = stream("sk-lab").integers(600, 10)
    ds = Dataset(np.zeros((600, 3)), labels)
    shards = split_skewed(ds, 8, max_classes_per_client=3, stream=stream("sk"))
    seen = np.concatenate(shards)
    assert len(np.unique(seen)) == len(seen)  # disjoint
    assert np.all(seen < 600)
    for shard in shards:
        assert shard.size >= 1
        assert len(np.unique(ds.labels[shard])) <= 3


def test_split_skewed_deterministic():
    labels = stream("sk2-lab").integers(200, 5)
    ds = Dataset(np.zeros((200, 2)), labels)
    a = split_skewed(ds, 4, 2, stream("sk2"))
    b = split_skewed(ds, 4, 2, stream("sk2"))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_split_validation():
    ds = Dataset(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError):
        split_iid(ds, 6, stream("v"))
    with pytest.raises(ValueError):
        split_iid(ds, 0, stream("v"))
    with pytest.raises(ValueError):
        split_skewed(ds, 2, 0, stream("v"))
