import struct
from pathlib import Path

import numpy as np
import pytest

from reconlab import data


def write_idx_pair(tmp_path, images, labels):
    n, h, w = images.shape
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return str(img_path), str(lbl_path)


# ------------------------------------------------------------------- idx

def test_load_idx_roundtrip(tmp_path):
    g = np.random.default_rng(0)
    images = g.integers(0, 256, size=(5, 4, 3))
    labels = g.integers(0, 10, size=5)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = data.load_idx(ip, lp)
    assert len(ds) == 5 and ds.dim == 12
    assert np.allclose(ds.X, images.reshape(5, 12) / 255.0)
    assert np.array_equal(ds.y, labels)
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    bad = tmp_path / "bad.idx"
    blob = Path(ip).read_bytes()
    bad.write_bytes(b"\x00\x00\x08\x99" + blob[4:])
    with pytest.raises(data.FormatError):
        data.load_idx(str(bad), lp)


def test_load_idx_truncated(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    short = tmp_path / "short.idx"
    short.write_bytes(Path(ip).read_bytes()[:-3])
    with pytest.raises(data.FormatError):
        data.load_idx(str(short), lp)


# ------------------------------------------------------------------- csv

def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n0.5,1.5,0\n0.25,2.5,1\n0.75,0.5,2\n")
    ds = data.load_csv(str(p), "label")
    assert len(ds) == 3 and ds.dim == 2
    assert np.array_equal(ds.y, [0, 1, 2])


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(data.FormatError):
        data.load_csv(str(empty), "label")

    header_only = tmp_path / "h.csv"
    header_only.write_text("a,label\n")
    with pytest.raises(data.FormatError):
        data.load_csv(str(header_only), "label")

    ragged = tmp_path / "r.csv"
    ragged.write_text("a,b,label\n1,2,0\n1,0\n")
    with pytest.raises(data.FormatError):
        data.load_csv(str(ragged), "label")

    text = tmp_path / "t.csv"
    text.write_text("a,label\nfoo,0\n")
    with pytest.raises(data.FormatError):
        data.load_csv(str(text), "label")

    missing = tmp_path / "m.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(data.FormatError):
        data.load_csv(str(missing), "label")


def test_csv_roundtrip(tmp_path):
    ds = data.synth_classification(5, 3, 20, 0.1, seed=4)
    p = tmp_path / "round.csv"
    data.save_csv(ds, str(p))
    back = data.load_csv(str(p), "label")
    assert back == ds


# ----------------------------------------------------------------- split

def test_split_disjoint_and_deterministic():
    ds = data.synth_classification(4, 3, 100, 0.1, seed=1)
    spec = data.SplitSpec(30, 50, 10, split_seed=9)
    fixed, shadow, targets = data.split(ds, spec)
    assert (len(fixed), len(shadow), len(targets)) == (30, 50, 10)

    def rows(d):
        return {tuple(r) for r in d.X}

    assert not rows(fixed) & rows(shadow)
    assert not rows(fixed) & rows(targets)
    assert not rows(shadow) & rows(targets)

    f2, s2, t2 = data.split(ds, spec)
    assert f2 == fixed and s2 == shadow and t2 == targets


def test_split_empty_fixed_ok():
    ds = data.synth_classification(4, 2, 20, 0.1, seed=1)
    fixed, shadow, targets = data.split(ds, data.SplitSpec(0, 10, 5))
    assert len(fixed) == 0 and len(shadow) == 10


def test_split_too_large():
    ds = data.synth_classification(4, 2, 20, 0.1, seed=1)
    with pytest.raises(ValueError):
        data.split(ds, data.SplitSpec(10, 10, 10))


# ------------------------------------------------------------- synthetic

def test_synth_deterministic_and_bounded():
    a = data.synth_classification(8, 4, 50, 0.2, seed=3)
    b = data.synth_classification(8, 4, 50, 0.2, seed=3)
    assert a == b
    assert a.X.min() >= 0.0 and a.X.max() <= 1.0
    assert a.num_classes == 4


def test_synth_empty():
    ds = data.synth_classification(8, 4, 0, 0.2, seed=3)
    assert len(ds) == 0 and ds.dim == 8


def test_synth_blobs_learnable():
    from reconlab import nn
    ds = data.synth_classification(64, 10, 5000, 0.05, seed=2)
    train, _, test = data.split(ds, data.SplitSpec(1000, 0, 500))
    arch = nn.MlpArchitecture((64, 8, 10))
    model = nn.train(train, arch, nn.TrainConfig(epochs=100))
    assert nn.accuracy(model, test) >= 0.95


# ------------------------------------------------------------ transforms

def test_downsample_factor_one_identity():
    ds = data.synth_classification(16, 2, 5, 0.1, seed=0)
    out = data.downsample_images(ds, 4, 4, 1)
    assert np.array_equal(out.X, ds.X)


def test_downsample_constant_image():
    X = np.full((2, 16), 0.7)
    ds = data.LabeledDataset(X, np.zeros(2, dtype=np.int64), 1)
    out = data.downsample_images(ds, 4, 4, 2)
    assert out.dim == 4
    assert np.allclose(out.X, 0.7)


def test_downsample_checkerboard_means():
    img = np.zeros((4, 4))
    img[::2, ::2] = 1.0
    img[1::2, 1::2] = 1.0
    ds = data.LabeledDataset(img.reshape(1, 16), np.zeros(1, dtype=np.int64), 1)
    out = data.downsample_images(ds, 4, 4, 2)
    assert np.allclose(out.X, 0.5)


def test_relabel_random_deterministic():
    ds = data.synth_classification(4, 2, 50, 0.1, seed=1)
    a = data.relabel_random(ds, 10, seed=5)
    b = data.relabel_random(ds, 10, seed=5)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, ds.X)
    assert a.num_classes == 10
    assert a.y.max() <= 9 and a.y.min() >= 0


# ------------------------------------------------------------ containers

def test_with_point_appends_last():
    ds = data.synth_classification(4, 3, 5, 0.1, seed=1)
    z = data.DataPoint(np.full(4, 0.5), 2)
    out = ds.with_point(z)
    assert len(out) == 6
    assert np.array_equal(out.X[-1], z.x)
    assert out.y[-1] == 2


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.LabeledDataset(np.ones((2, 3)), np.array([0, 5]), num_classes=2)
    with pytest.raises(ValueError):
        data.LabeledDataset(np.array([[np.inf, 0.0]]), np.array([0]))
