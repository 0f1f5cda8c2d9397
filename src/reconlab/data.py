"""Loading, generating and splitting data into threat-model roles.

A dataset is split into three disjoint parts: the fixed set the adversary
knows, the shadow pool supplying shadow targets, and held-out test targets.
"""

from __future__ import annotations

import csv
import math
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
    "read_table",
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


@dataclass(frozen=True)
class SplitSpec:
    fixed_size: int
    shadow_size: int
    test_target_size: int
    split_seed: int = 0

    def __post_init__(self):
        if min(self.fixed_size, self.shadow_size, self.test_target_size) < 0:
            raise ValueError("split sizes must be nonnegative")


def _read_idx(path: str, ndim: int) -> np.ndarray:
    """The uint8 payload of an IDX file of ndim dimensions: magic 0x800 + ndim,
    then ndim big-endian sizes, then the bytes, shaped by those sizes."""
    with open(path, "rb") as f:
        header = f.read(4 * (1 + ndim))
        if len(header) < 4 * (1 + ndim):
            raise FormatError(f"{path}: truncated IDX header")
        magic, *shape = struct.unpack(f">{1 + ndim}I", header)
        if magic != 0x800 + ndim:
            raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, not 0x{0x800 + ndim:08x}")
        size = math.prod(shape)
        raw = f.read(size)
        if len(raw) != size:
            raise FormatError(f"{path}: truncated IDX data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Read an IDX image/label file pair (big-endian); pixels scaled to [0, 1]."""
    images = _read_idx(images_path, 3)
    labels = _read_idx(labels_path, 1)
    n, h, w = images.shape
    if len(labels) != n:
        raise FormatError(f"{images_path} holds {n} images, {labels_path} {len(labels)} labels")
    X = images.reshape(n, h * w).astype(np.float64) / 255.0
    return LabeledDataset(X, labels.astype(np.int64))


def read_table(path: str, label_column: str):
    """The (X, y) float64 arrays of a numeric CSV file: one header row naming
    the columns, then one row per point; empty lines are skipped. y is the
    label column, X the other columns in file order. A malformed file raises
    a FormatError naming it."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        if label_column not in header:
            raise FormatError(f"{path}: label column {label_column!r} not in header")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(f"{path}: ragged row on line {reader.line_num}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise FormatError(f"{path}: non-numeric row on line {reader.line_num}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    table = np.array(rows)
    if not np.isfinite(table).all():
        raise FormatError(f"{path}: every value must be finite")
    li = header.index(label_column)
    return np.delete(table, li, axis=1), table[:, li]


def load_csv(path: str, label_column: str) -> LabeledDataset:
    """Read a CSV file as read_table does; its labels must be integer classes."""
    X, y = read_table(path, label_column)
    if not np.array_equal(y, np.round(y)):
        raise FormatError(f"{path}: label column {label_column!r} must hold integer classes")
    return LabeledDataset(X, y.astype(np.int64))


def save_csv(dataset: LabeledDataset, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + ["label"])
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
