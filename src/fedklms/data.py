"""Dataset loading, synthesis, and client partitioning.

Supported sources: CSV rows of ``label, feature, feature, ...``; the IDX
binary format for image/label pairs; and two built-in synthetic generators
(a linearly separable two-class task and a soft multi-class blob task).

Client splits are either iid (one shuffled equal slice each) or size- and
label-skewed: client n draws a size weight j_n ~ Uniform{10..100}, gets a
shard of about j_n / sum_j of the pool, and only sees examples from at most
c_max distinct classes.  Shards are disjoint; their union may be a strict
subset of the pool when the class budgets run dry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .streams import SampleStream


@dataclass
class Dataset:
    features: np.ndarray  # (n, f) float64
    labels: np.ndarray  # (n,) int64

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, f), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.size else 0

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx])


def load_csv(path: str) -> Dataset:
    """Rows of label, feature...; no header.  A feature that is not finite is
    refused with its data row and its column, both counted from 1, the label
    being column 1."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError(f"{path}: need a label column plus at least one feature")
    labels = raw[:, 0]
    if not np.all(np.isfinite(labels) & (labels == np.round(labels)) & (labels >= 0)):
        raise ValueError(f"{path}: labels must be nonnegative integers")
    bad = np.argwhere(~np.isfinite(raw[:, 1:]))
    if bad.size:
        row, feature = bad[0]
        raise ValueError(f"{path}: features must be finite: row {row + 1}, column "
                         f"{feature + 2} is {float(raw[row, feature + 1])!r}")
    return Dataset(raw[:, 1:], labels.astype(np.int64))


def _read_idx(path: str) -> np.ndarray:
    """One array in IDX format: magic [0, 0, dtype, ndim], big-endian dims."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise ValueError(f"{path}: not an IDX file (too short)")
    zero1, zero2, dtype_code, ndim = data[0], data[1], data[2], data[3]
    if zero1 != 0 or zero2 != 0:
        raise ValueError(f"{path}: bad IDX magic {data[:4]!r}")
    dtypes = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2", 0x0C: ">i4", 0x0D: ">f4", 0x0E: ">f8"}
    if dtype_code not in dtypes:
        raise ValueError(f"{path}: unsupported IDX dtype 0x{dtype_code:02x}")
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise ValueError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    arr = np.frombuffer(data, dtype=dtypes[dtype_code], offset=header_end)
    expected = int(np.prod(dims)) if dims else 0
    if arr.size != expected:
        raise ValueError(f"{path}: body has {arr.size} items, header promises {expected}")
    return arr.reshape(dims)


def load_idx_pair(images_path: str, labels_path: str, limit: int | None = None) -> Dataset:
    """Image/label IDX pair; pixels scaled to [0, 1], images flattened."""
    images = _read_idx(images_path)
    labels = _read_idx(labels_path)
    if images.ndim < 2:
        raise ValueError(f"{images_path}: images need at least 2 dimensions")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: labels must be 1-D")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    ds = Dataset(flat, labels.astype(np.int64))
    if limit is not None and limit < ds.size:
        ds = ds.subset(np.arange(limit))
    return ds


def make_separable(
    num_points: int, num_features: int, margin: float, stream: SampleStream
) -> Dataset:
    """Two linearly separable classes: Gaussian cloud pushed margin-deep to
    either side of a random hyperplane."""
    direction = stream.gaussians(num_features)
    direction /= np.linalg.norm(direction)
    X = stream.gaussians(num_points * num_features).reshape(num_points, num_features)
    side = np.where(X @ direction >= 0.0, 1.0, -1.0)
    X = X + np.outer(side * margin, direction)
    labels = (side > 0).astype(np.int64)
    return Dataset(X, labels)


def make_blobs(
    num_points: int,
    num_features: int,
    num_classes: int,
    spread: float,
    stream: SampleStream,
) -> Dataset:
    """Gaussian class centers with unit-variance points around them."""
    centers = spread * stream.gaussians(num_classes * num_features).reshape(
        num_classes, num_features
    )
    labels = stream.integers(num_points, num_classes)
    noise = stream.gaussians(num_points * num_features).reshape(num_points, num_features)
    return Dataset(centers[labels] + noise, labels.astype(np.int64))


def split_iid(dataset: Dataset, num_clients: int, stream: SampleStream) -> list[np.ndarray]:
    """Shuffle once, deal equal contiguous slices (sizes differ by at most 1)."""
    if num_clients < 1:
        raise ValueError(f"need at least one client: {num_clients}")
    if dataset.size < num_clients:
        raise ValueError(f"{dataset.size} samples cannot cover {num_clients} clients")
    order = stream.permutation(dataset.size)
    return [np.sort(chunk) for chunk in np.array_split(order, num_clients)]


def split_skewed(
    dataset: Dataset,
    num_clients: int,
    max_classes_per_client: int,
    stream: SampleStream,
) -> list[np.ndarray]:
    """Size- and label-skewed disjoint shards (see module docstring)."""
    if num_clients < 1:
        raise ValueError(f"need at least one client: {num_clients}")
    if max_classes_per_client < 1:
        raise ValueError(f"max_classes_per_client must be >= 1: {max_classes_per_client}")
    num_classes = dataset.num_classes
    weights = stream.integers(num_clients, 91).astype(np.float64) + 10.0  # 10..100
    quotas = np.floor(dataset.size * weights / weights.sum()).astype(np.int64)
    quotas = np.maximum(quotas, 1)

    by_class: dict[int, list[int]] = {}
    for c in range(num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        perm = stream.permutation(idx.size)
        by_class[c] = list(idx[perm])

    shards = []
    for n in range(num_clients):
        class_order = stream.permutation(num_classes)
        chosen = [int(c) for c in class_order[:max_classes_per_client]]
        take: list[int] = []
        want = int(quotas[n])
        for c in chosen:
            pool = by_class[c]
            grab = min(want - len(take), len(pool))
            take.extend(pool[:grab])
            del pool[:grab]
            if len(take) >= want:
                break
        if not take:
            # chosen classes were depleted; training needs a non-empty shard
            fallback = max(by_class.values(), key=len)
            if not fallback:
                raise ValueError("dataset too small for this many skewed clients")
            take.append(fallback.pop(0))
        shards.append(np.sort(np.array(take, dtype=np.int64)))
    return shards
