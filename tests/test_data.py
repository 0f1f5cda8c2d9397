import csv
import io
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("blob,error", [
    (b"", "truncated IDX header"),
    (struct.pack(">II", 0x803, 3) + bytes(3), "bad IDX magic 0x00000803, not 0x00000801"),
    (struct.pack(">II", 0x801, 3) + bytes(2), "truncated IDX data"),
    (struct.pack(">II", 0x801, 2) + bytes(2), "holds 3 images, "),
])
def test_load_idx_checks_the_label_file_as_the_image_file(tmp_path, blob, error):
    ip, lp = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), np.zeros(3))
    Path(lp).write_bytes(blob)
    with pytest.raises(data.FormatError, match=re.escape(error)) as e:
        data.load_idx(ip, lp)
    assert lp in str(e.value)


# ------------------------------------------------------------------- csv

def test_read_table_splits_off_the_label_column_and_skips_empty_lines(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,y,b\n\n0.5,-1.25,2\n\n3,4.5,1e-3\n")
    X, y = data.read_table(str(p), "y")
    assert X.dtype == y.dtype == np.float64
    assert np.array_equal(X, [[0.5, 2.0], [3.0, 1e-3]])
    assert np.array_equal(y, [-1.25, 4.5])


@pytest.mark.parametrize("text,error", [
    ("", "empty file"),
    ("a,label\n", "no data rows"),
    ("a,label\n\n", "no data rows"),
    ("a,b\n1,2\n", "label column 'label' not in header"),
    ("a,b,label\n1,2,0\n\n1,0\n", "the number of columns changed from 3 to 2 at line 4"),
    ("a,label\n1,0\nfoo,0\n", "could not convert string 'foo' to float64 at line 3, column 1"),
    ("a,label\n1,nan\n", "every value must be finite"),
    ("a,label\n-inf,0\n", "every value must be finite"),
])
def test_read_table_errors_name_the_file(tmp_path, text, error):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(data.FormatError, match=re.escape(f"{p}: {error}")):
        data.read_table(str(p), "label")


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), columns=st.integers(1, 4), vector=st.booleans(),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=24,
                       max_size=24))
def test_read_floats_gives_the_bits_loadtxt_gives_for_savetxt_files(
        tmp_path_factory, rows, columns, vector, values):
    # glm-attack --theta was read by np.loadtxt; a vector is written as a column
    table = np.array(values[:rows * columns]).reshape(rows, columns)
    if vector:
        table = table[:, 0]
    p = tmp_path_factory.mktemp("floats") / "t.csv"
    np.savetxt(p, table, delimiter=",")
    got, want = data.read_floats(str(p)), np.loadtxt(p, delimiter=",", ndmin=2)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["", "\n", "\n\n"])
def test_read_floats_of_no_rows_is_empty(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    assert data.read_floats(str(p)).size == 0


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


def test_load_csv_refuses_a_label_off_its_class(tmp_path):
    # 2.99999 passed np.allclose and was truncated to class 2
    p = tmp_path / "l.csv"
    p.write_text("a,label\n0.5,0\n0.5,2.99999\n")
    with pytest.raises(data.FormatError, match="must hold integer classes"):
        data.load_csv(str(p), "label")
    p.write_text("a,label\n0.5,0\n0.5,3.0\n0.5,-0.0\n")
    assert data.load_csv(str(p), "label").y.tolist() == [0, 3, 0]


def test_csv_roundtrip(tmp_path):
    ds = data.synth_classification(5, 3, 20, 0.1, seed=4)
    p = tmp_path / "round.csv"
    data.save_csv(ds, str(p))
    back = data.load_csv(str(p), "label")
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
    assert back.num_classes == ds.num_classes


def test_save_csv_bytes_match_csv_writer(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, -1e16, 0.1, 1 / 3, 1e-7, 2.0**60]
    g = np.random.default_rng(3)
    X = np.vstack([np.resize(special, (3, 8)), g.normal(0.0, 10.0, size=(40, 8))])
    y = g.integers(0, 12, size=len(X))
    # save_csv reads only X, y and dim; a stand-in for the dataset lets the
    # rows hold nan and inf, which LabeledDataset refuses
    ds = SimpleNamespace(X=X, y=y, dim=8)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow([f"x{i}" for i in range(8)] + ["label"])
    for row, label in zip(X, y):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])
    p = tmp_path / "rows.csv"
    data.save_csv(ds, str(p))
    assert p.read_bytes() == want.getvalue().encode()


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

    for again, first in zip(data.split(ds, spec), (fixed, shadow, targets)):
        assert np.array_equal(again.X, first.X) and np.array_equal(again.y, first.y)
        assert again.num_classes == first.num_classes


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
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
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


@pytest.mark.parametrize("factor", [0, -2])
def test_downsample_refuses_a_factor_below_one(factor):
    ds = data.synth_classification(16, 2, 5, 0.1, seed=0)
    with pytest.raises(ValueError, match=f"downsample factor must be >= 1, got {factor}"):
        data.downsample_images(ds, 4, 4, factor)


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
