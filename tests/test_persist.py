from pathlib import Path

import numpy as np
import pytest

from reconlab import nn, persist, shadow


def test_model_roundtrip(tmp_path):
    arch = nn.MlpArchitecture((7, 5, 3), activation="tanh")
    params = nn.init_params(arch, 9)
    path = str(tmp_path / "m.model")
    persist.save_model(path, params, {"note": "x", "seed": 5})
    back, meta = persist.load_model(path)
    assert back.arch == arch
    assert np.array_equal(back.flatten(), params.flatten())
    assert meta["note"] == "x" and meta["seed"] == "5"


def test_model_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.model"
    path.write_bytes(b"something else\n\n\x00\x01")
    with pytest.raises(ValueError):
        persist.load_model(str(path))


def test_model_rejects_truncated_body(tmp_path):
    arch = nn.MlpArchitecture((4, 3))
    params = nn.init_params(arch, 0)
    path = str(tmp_path / "m.model")
    persist.save_model(path, params)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-8])
    with pytest.raises(ValueError) as e:
        persist.load_model(path)
    want = 8 * arch.parameter_count
    assert path in str(e.value) and f"expected {want} bytes" in str(e.value)
    assert f"found {want - 8}" in str(e.value)


def test_config_hash_stable():
    assert persist.config_hash("a=1\n") == persist.config_hash("a=1\n")
    assert persist.config_hash("a=1\n") != persist.config_hash("a=2\n")
    assert len(persist.config_hash("x")) == 16


def test_write_csv_has_provenance_line(tmp_path):
    path = str(tmp_path / "out.csv")
    persist.write_csv(path, ["a", "b"], [(1, 2), (3, 4)], "deadbeef")
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[1] == "a,b"
    assert lines[2:] == ["1,2", "3,4"]


def _saved_model(tmp_path):
    path = str(tmp_path / "m.model")
    persist.save_model(path, nn.init_params(nn.MlpArchitecture((4, 3)), 0))
    return path


@pytest.mark.parametrize("field,line,named", [
    ("layer_widths", b"", "'layer_widths'"),
    ("activation", b"", "'activation'"),
    ("layer_widths", b"layer_widths=4,x", "'layer_widths'"),
    ("activation", b"activation=foo", "'foo'"),
])
def test_model_header_missing_or_bad_field_names_it(tmp_path, field, line, named):
    path = _saved_model(tmp_path)
    head, sep, body = Path(path).read_bytes().partition(b"\n\n")
    kept = [ln for ln in head.split(b"\n") if not ln.startswith(field.encode() + b"=")]
    Path(path).write_bytes(b"\n".join(kept + [line] if line else kept) + sep + body)
    with pytest.raises(ValueError) as e:
        persist.load_model(path)
    assert path in str(e.value) and named in str(e.value)


def _saved_shadow_set(tmp_path):
    """A black-box shadow set of k = 6 from (4, 2) models with a (3, 4) probe:
    F = 3 * 2 = 6 and T = 4."""
    g = np.random.default_rng(0)
    featurizer = shadow.Featurizer("blackbox", probe=g.normal(size=(3, 4)))
    ss = shadow.ShadowSet(g.normal(size=(6, 6)), g.uniform(size=(6, 4)), featurizer)
    prefix = str(tmp_path / "shadows")
    ss.save(prefix)
    return prefix


def _load_shadow_set(prefix):
    """ShadowSet.load with a featurizer of the same probe size, as a config gives it."""
    featurizer = shadow.Featurizer("blackbox", probe=np.zeros((3, 4)))
    return shadow.ShadowSet.load(prefix, featurizer, nn.MlpArchitecture((4, 2)))


@pytest.mark.parametrize("suffix", [".bin"])
def test_truncated_shadow_matrix_names_file_and_sizes(tmp_path, suffix):
    prefix = _saved_shadow_set(tmp_path)
    path = prefix + suffix
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-9])
    with pytest.raises(ValueError) as e:
        _load_shadow_set(prefix)
    msg = str(e.value)
    assert path in msg and str(len(blob)) in msg and str(len(blob) - 9) in msg


def test_blackbox_shadows_bin_without_its_probe_rows_names_file_and_both_sizes(tmp_path):
    # the probe's rows follow the (k, F + T) matrix in shadows.bin; no other file holds them
    prefix = _saved_shadow_set(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shadows.bin", "shadows.header"]
    path = prefix + ".bin"
    matrix = 8 * 6 * (6 + 4)
    Path(path).write_bytes(Path(path).read_bytes()[:matrix])
    with pytest.raises(ValueError) as e:
        _load_shadow_set(prefix)
    msg = str(e.value)
    assert path in msg and f"expected {matrix + 8 * 3 * 4} bytes" in msg
    assert f"found {matrix}" in msg


def test_shadow_set_read_as_a_model_names_file_and_format(tmp_path):
    prefix = _saved_shadow_set(tmp_path)
    path = prefix + ".header"
    with pytest.raises(ValueError) as e:
        persist.load_model(path)
    assert path in str(e.value) and "format=reconlab-shadows-v1" in str(e.value)


@pytest.mark.parametrize("field,line,named", [
    ("k", "", "'k'"),
    ("feature_len", "", "'feature_len'"),
    ("k", "k=six", "'k'"),
    # a header that does not fit the featurizer and architecture it is loaded with
    ("feature_len", "feature_len=7", "feature_len 7 differs from 6"),
    ("target_len", "target_len=3", "target_len 3 differs from 4"),
])
def test_shadow_header_missing_or_bad_field_names_it(tmp_path, field, line, named):
    prefix = _saved_shadow_set(tmp_path)
    path = prefix + ".header"
    lines = Path(path).read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith(field + "=")]
    Path(path).write_text("\n".join(kept + [line] if line else kept) + "\n")
    with pytest.raises(ValueError) as e:
        _load_shadow_set(prefix)
    assert path in str(e.value) and named in str(e.value)
