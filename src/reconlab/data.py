"""Loading, generating and splitting data into threat-model roles.

A dataset is split into three disjoint parts: the fixed set the adversary
knows, the shadow pool supplying shadow targets, and held-out test targets.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "DataPoint",
    "LabeledDataset",
    "SplitSpec",
    "FormatError",
    "load_idx",
    "load_csv",
    "save_csv",
    "split",
    "synth_classification",
    "downsample_images",
    "relabel_random",
]


class FormatError(ValueError):
    """Malformed input file."""


@dataclass(frozen=True)
class DataPoint:
    x: np.ndarray
    y: int


class LabeledDataset:
    """Ordered collection of feature vectors with integer class labels."""

    def __init__(self, X: np.ndarray, y: np.ndarray, num_classes: int = None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,)")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        if num_classes is None:
            num_classes = int(y.max()) + 1 if len(y) else 0
        if len(y) and (y.min() < 0 or y.max() >= num_classes):
            raise ValueError("labels out of range")
        self.X = X
        self.y = y
        self.num_classes = int(num_classes)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __getitem__(self, i: int) -> DataPoint:
        return DataPoint(self.X[i], int(self.y[i]))

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.X[idx], self.y[idx], self.num_classes)

    def with_point(self, point: DataPoint) -> "LabeledDataset":
        """New dataset with the point appended (canonical insertion order)."""
        X = np.vstack([self.X, np.asarray(point.x, dtype=np.float64)[None, :]])
        y = np.concatenate([self.y, [point.y]])
        return LabeledDataset(X, y, max(self.num_classes, point.y + 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledDataset)
            and self.num_classes == other.num_classes
            and self.X.shape == other.X.shape
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )


@dataclass(frozen=True)
class SplitSpec:
    fixed_size: int
    shadow_size: int
    test_target_size: int
    split_seed: int = 0

    def __post_init__(self):
        if min(self.fixed_size, self.shadow_size, self.test_target_size) < 0:
            raise ValueError("split sizes must be nonnegative")


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Read an IDX image/label file pair (big-endian); pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise FormatError("truncated IDX image header")
        magic, n, h, w = struct.unpack(">IIII", header)
        if magic != _IDX_IMAGE_MAGIC:
            raise FormatError(f"bad IDX image magic 0x{magic:08x}")
        raw = f.read(n * h * w)
        if len(raw) != n * h * w:
            raise FormatError("truncated IDX image data")
    X = np.frombuffer(raw, dtype=np.uint8).reshape(n, h * w).astype(np.float64) / 255.0

    with open(labels_path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise FormatError("truncated IDX label header")
        magic, nl = struct.unpack(">II", header)
        if magic != _IDX_LABEL_MAGIC:
            raise FormatError(f"bad IDX label magic 0x{magic:08x}")
        raw = f.read(nl)
        if len(raw) != nl:
            raise FormatError("truncated IDX label data")
    if nl != n:
        raise FormatError("image/label count mismatch")
    y = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return LabeledDataset(X, y)


def load_csv(path: str, label_column: str) -> LabeledDataset:
    """Read a rectangular numeric CSV with one header row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("empty file") from None
        if label_column not in header:
            raise FormatError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        rows = list(reader)
    if not rows:
        raise FormatError("no data rows")
    width = len(header)
    X_rows, labels = [], []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"ragged row {i + 1}")
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise FormatError(f"non-numeric cell in row {i + 1}") from None
        labels.append(vals[label_idx])
        X_rows.append([v for j, v in enumerate(vals) if j != label_idx])
    y = np.asarray(labels)
    if not np.allclose(y, np.round(y)):
        raise FormatError("label column must hold integer classes")
    return LabeledDataset(np.asarray(X_rows), y.astype(np.int64))


def save_csv(dataset: LabeledDataset, path: str, label_column: str = "label") -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + [label_column])
        # the bytes csv.writer gives: no float repr needs quoting
        f.writelines(",".join(map(repr, row)) + f",{label}\r\n"
                     for row, label in zip(dataset.X.tolist(), dataset.y.tolist()))


def split(dataset: LabeledDataset, spec: SplitSpec):
    """Disjoint (fixed, shadow, targets) subsets chosen by a seeded permutation."""
    total = spec.fixed_size + spec.shadow_size + spec.test_target_size
    if total > len(dataset):
        raise ValueError(f"split sizes {total} exceed dataset size {len(dataset)}")
    perm = Rng(spec.split_seed).child("split").once().permutation(len(dataset))
    a, b = spec.fixed_size, spec.fixed_size + spec.shadow_size
    return (
        dataset.subset(perm[:a]),
        dataset.subset(perm[a:b]),
        dataset.subset(perm[b:total]),
    )


CENTER_LOW, CENTER_HIGH = 0.15, 0.85


def synth_classification(d: int, num_classes: int, n: int, cluster_std: float,
                         seed: int) -> LabeledDataset:
    """Gaussian blobs with features clipped to [0, 1]^d, one blob per class,
    centres uniform in [CENTER_LOW, CENTER_HIGH]^d."""
    if d <= 0 or num_classes <= 0:
        raise ValueError("d and num_classes must be positive")
    rng = Rng(seed)
    centers = rng.child("centers").once().uniform(CENTER_LOW, CENTER_HIGH, size=(num_classes, d))
    if n == 0:
        return LabeledDataset(np.zeros((0, d)), np.zeros(0, dtype=np.int64), num_classes)
    y = rng.child("labels").once().integers(0, num_classes, size=n)
    noise = rng.child("noise").once().normal(0.0, cluster_std, size=(n, d))
    X = np.clip(centers[y] + noise, 0.0, 1.0)
    return LabeledDataset(X, y, num_classes)


def downsample_images(dataset: LabeledDataset, height: int, width: int, factor: int) -> LabeledDataset:
    """Block-mean pool each H x W image by the given factor."""
    if dataset.dim != height * width:
        raise ValueError("feature dim does not match H*W")
    if factor < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    if height % factor or width % factor:
        raise ValueError("factor must divide both height and width")
    imgs = dataset.X.reshape(len(dataset), height // factor, factor, width // factor, factor)
    pooled = imgs.mean(axis=(2, 4)).reshape(len(dataset), -1)
    return LabeledDataset(pooled, dataset.y, dataset.num_classes)


def relabel_random(dataset: LabeledDataset, num_classes: int, seed: int) -> LabeledDataset:
    """Replace labels with seeded uniform draws over {0..K-1} (OOD shadow pools)."""
    y = Rng(seed).child("relabel").once().integers(0, num_classes, size=len(dataset))
    return LabeledDataset(dataset.X, y, num_classes)
