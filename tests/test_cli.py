import hashlib
import io
import os
import re
import shutil
import struct
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from reconlab import cli, glm, nn, profile
from reconlab.cli import main

TINY_CONFIG = """\
[profile]
name=desk_synthetic
seed=11
[data]
d=8
num_classes=3
n=200
cluster_std=0.15
[split]
fixed_size=40
shadow_size=130
test_target_size=3
split_seed=5
[released]
hidden_widths=6
epochs=8
learning_rate=0.2
[reconn]
epochs=10
batch_size=64
seed=7
"""


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    p.write_text(TINY_CONFIG)
    return str(p)


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------- config layer

def test_parse_config_sections(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\n[data]\nd = 1\n[dp]\ndelta=2\n")
    cfg = cli.parse_config(str(p))
    assert cfg["data.d"] == 1 and cfg["dp.delta"] == 2.0


def test_reading_a_key_not_in_the_schema_is_a_program_error():
    # a key the code reads but SCHEMA lacks is a program error, not bad input;
    # an unset key with no default is bad input
    cfg = profile.resolve({"released.epochs": "2"})
    with pytest.raises(KeyError, match="released.epoch"):
        cfg["released.epoch"]
    assert cfg["released.epochs"] == 2 and cfg["reconn.epochs"] == 100
    with pytest.raises(profile.ConfigError, match="missing config key data.images"):
        cfg["data.images"]


def test_readme_lists_each_schema_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.partition("### Config format")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([^|]*?) \|", section, re.M)
    assert len(rows) == len(profile.SCHEMA) == 35
    assert dict(rows) == {key: "no default" if default is None else f"`{default}`"
                          for key, (_, default) in profile.SCHEMA.items()}


def _hash_of(tmp_path, text):
    p = tmp_path / "h.cfg"
    p.write_text(text)
    return cli.parse_config(str(p)).hash


def test_config_hash_is_over_resolved_values(tmp_path, monkeypatch):
    plain = _hash_of(tmp_path, "[profile]\nseed=11\n")
    assert _hash_of(tmp_path, "# c\n[profile]\nseed=11\n") == plain
    assert _hash_of(tmp_path, "[profile]\n") == plain
    assert _hash_of(tmp_path, "") == plain
    assert _hash_of(tmp_path, " [ profile ] \n\n  seed =  11 \n") == plain
    assert _hash_of(tmp_path, "[reconn]\nlearning_rate=1e-3\n") == plain
    for changed in ("[profile]\nseed=12\n", "[released]\nnoise_multiplier=0\n",
                    "[reconn]\nlearning_rate=0.002\n", "[featurizer]\nlayers=1\n"):
        assert _hash_of(tmp_path, changed) != plain, changed
    # a default changed in code changes the hash of a file that omits the key
    monkeypatch.setitem(profile.SCHEMA, "reconn.epochs", (int, "101"))
    assert _hash_of(tmp_path, "") != plain


def test_parse_config_malformed(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[a]\nnot a pair\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(p))


def test_missing_config_is_validation_error(tmp_path):
    rc = main(["train-released", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_profile_is_validation_error(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[profile]\nname=nonsense\n")
    rc = main(["train-released", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


# -------------------------------------------------------------- pipeline

def test_train_released_outputs_and_reproducibility(cfg_path, tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    assert main(["train-released", "--config", cfg_path, "--out", out1]) == 0
    assert main(["train-released", "--config", cfg_path, "--out", out2]) == 0
    models = sorted(f for f in os.listdir(out1) if f.endswith(".model"))
    assert len(models) == 3
    for f in models:
        assert file_hash(os.path.join(out1, f)) == file_hash(os.path.join(out2, f))
    assert file_hash(os.path.join(out1, "targets.csv")) == \
        file_hash(os.path.join(out2, "targets.csv"))


def test_train_released_parallel_matches_serial(cfg_path, tmp_path, monkeypatch):
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("RECONLAB_THREADS", threads)
        runs[threads] = out = str(tmp_path / f"threads{threads}")
        assert main(["train-released", "--config", cfg_path, "--out", out]) == 0
    models = sorted(f for f in os.listdir(runs["1"]) if f.endswith(".model"))
    assert models == sorted(f for f in os.listdir(runs["2"]) if f.endswith(".model"))
    assert len(models) == 3
    for f in models:
        assert file_hash(os.path.join(runs["1"], f)) == file_hash(os.path.join(runs["2"], f))


@pytest.mark.parametrize("threads", ["abc", "0", "-3"])
def test_bad_thread_count_exits_2_naming_the_variable(threads, cfg_path, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.setenv("RECONLAB_THREADS", threads)
    rc = main(["train-released", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: RECONLAB_THREADS must be a positive integer, got '{threads}'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("factor", ["0", "-2"])
def test_bad_downsample_factor_exits_2_naming_it(factor, tmp_path, capsys):
    # 40 blank 4x4 images: the desk_mnist14 profile pools them before the split
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 40, 4, 4) + bytes(40 * 16))
    labels.write_bytes(struct.pack(">II", 0x801, 40) + bytes([0, 1]) * 20)
    p = tmp_path / "mnist.cfg"
    p.write_text(f"[profile]\nname=desk_mnist14\n[data]\nimages={images}\n"
                 f"labels={labels}\ndownsample_factor={factor}\n")
    rc = main(["train-released", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: downsample factor must be >= 1, got {factor}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-released", "gen-shadows"])
def test_diverging_training_exits_3_naming_the_point(command, tmp_path, capsys):
    p = tmp_path / "diverge.cfg"
    p.write_text(TINY_CONFIG.replace("learning_rate=0.2", "learning_rate=1e300"))
    rc = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error: point 0 diverged" in err


def test_gen_shadows_k_validation(cfg_path, tmp_path):
    out = str(tmp_path / "s")
    assert main(["gen-shadows", "--config", cfg_path, "--out", out, "--k", "0"]) == 2
    assert main(["gen-shadows", "--config", cfg_path, "--out", out, "--k", "99999"]) == 2


def _with_sections(tmp_path, *sections):
    """The path of a config file: the tiny config, then sections."""
    p = tmp_path / "sections.cfg"
    p.write_text(TINY_CONFIG + "".join(sections))
    return str(p)


def test_gen_shadows_layer_feature_length(tmp_path, capsys):
    out = str(tmp_path / "s")
    cfg = _with_sections(tmp_path, "[featurizer]\nmode=layers\nlayers=1\n")
    assert main(["gen-shadows", "--config", cfg, "--out", out, "--k", "20"]) == 0
    header = Path(out, "shadows.header").read_text()
    # hidden width 6, 3 classes: final layer holds 6*3+3 = 21 parameters
    assert "feature_len=21" in header


def test_gen_shadows_layers_default_is_last_layer(tmp_path):
    out = str(tmp_path / "s")
    cfg = _with_sections(tmp_path, "[featurizer]\nmode=layers\n")
    assert main(["gen-shadows", "--config", cfg, "--out", out, "--k", "20"]) == 0
    header = Path(out, "shadows.header").read_text().splitlines()
    # two layers (8-6-3): the default is layer 1, the same 21 parameters (layer 0 has 54)
    assert "feature_len=21" in header
    # the header holds sizes and provenance; the config names the featurizer
    assert [line.partition("=")[0] for line in header] == \
        ["format", "k", "feature_len", "target_len", "config_hash"]


def test_gen_shadows_ood_pool_relabels(cfg_path, tmp_path):
    from reconlab import data
    ood = data.synth_classification(8, 2, 60, 0.2, seed=99)
    ood_csv = str(tmp_path / "ood.csv")
    data.save_csv(ood, ood_csv)
    out = str(tmp_path / "s")
    rc = main(["gen-shadows", "--config", cfg_path, "--out", out, "--k", "30",
               "--ood-pool", ood_csv])
    assert rc == 0
    relabeled = data.load_csv(os.path.join(out, "shadow_targets.csv"), "label")
    # labels drawn uniformly over the fixed set's 3 classes, not the OOD 2
    assert relabeled.y.max() == 2


def test_blackbox_set_keeps_the_probe_rows_the_config_cannot_give(tmp_path):
    # --ood-pool draws the probe from a file the config does not name: the
    # rows follow the matrix in shadows.bin and replace the config's probe
    from reconlab import data, shadow
    ood = data.synth_classification(8, 2, 60, 0.2, seed=99)
    ood_csv = str(tmp_path / "ood.csv")
    data.save_csv(ood, ood_csv)
    cfg_file = _with_sections(tmp_path, "[featurizer]\nmode=blackbox\nprobe_size=20\n")
    out = tmp_path / "s"
    assert main(["gen-shadows", "--config", cfg_file, "--out", str(out), "--ood-pool",
                 ood_csv]) == 0
    cfg = profile.parse_config(cfg_file)
    _, pool, _, arch, _ = profile.load_profile(cfg)
    featurizer, _ = profile.build_featurizer(cfg, pool, arch)
    back, _ = shadow.ShadowSet.load(str(out / "shadows"), featurizer, arch)
    assert np.array_equal(back.featurizer.probe, ood.X[:20])
    assert not np.array_equal(featurizer.probe, ood.X[:20])
    assert (out / "shadows.bin").stat().st_size == 8 * (40 * (20 * 3 + 8) + 20 * 8)


def test_attack_end_to_end(cfg_path, tmp_path):
    released = str(tmp_path / "released")
    shadows = str(tmp_path / "shadows")
    results = str(tmp_path / "results")
    assert main(["train-released", "--config", cfg_path, "--out", released]) == 0
    assert main(["gen-shadows", "--config", cfg_path, "--out", shadows]) == 0
    assert main(["attack", "--config", cfg_path, "--shadows", shadows,
                 "--released", released, "--out", results]) == 0
    rows = Path(results, "attack_results.csv").read_text().splitlines()
    assert rows[0].startswith("# config_hash=")
    assert len(rows) == 2 + 3  # provenance + header + one row per target
    summary = Path(results, "summary.txt").read_text()
    assert "mean_attack_mse=" in summary
    assert "oracle_threshold=" in summary


@pytest.fixture(scope="module")
def artifacts(cfg_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    released, shadows = str(root / "released"), str(root / "shadows")
    assert main(["train-released", "--config", cfg_path, "--out", released]) == 0
    assert main(["gen-shadows", "--config", cfg_path, "--out", shadows]) == 0
    return released, shadows


def _attack_with(cfg_path, artifacts, tmp_path, capsys, corrupt):
    """Run ``attack`` on copies of the artifacts after ``corrupt(released, shadows)``."""
    released = shutil.copytree(artifacts[0], tmp_path / "released")
    shadows = shutil.copytree(artifacts[1], tmp_path / "shadows")
    corrupt(released, shadows)
    capsys.readouterr()
    rc = main(["attack", "--config", cfg_path, "--shadows", str(shadows),
               "--released", str(released), "--out", str(tmp_path / "results")])
    return rc, capsys.readouterr().err


def _truncate(path, nbytes):
    blob = path.read_bytes()
    path.write_bytes(blob[:-nbytes])


def _drop_header_line(path, prefix):
    head, sep, body = path.read_bytes().partition(b"\n\n")
    kept = [ln for ln in head.split(b"\n") if not ln.startswith(prefix)]
    path.write_bytes(b"\n".join(kept) + sep + body)


def test_attack_missing_shadows_dir_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: shutil.rmtree(s))
    assert rc == 2 and "shadows.header" in err


def test_attack_missing_model_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: (r / "target_0000.model").unlink())
    assert rc == 2 and "target_0000.model" in err


def test_attack_truncated_shadows_bin_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: _truncate(s / "shadows.bin", 3))
    size = (Path(artifacts[1]) / "shadows.bin").stat().st_size
    assert rc == 2 and "shadows.bin" in err
    assert f"expected {size} bytes" in err and f"found {size - 3}" in err


def test_attack_truncated_model_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: _truncate(r / "target_0001.model", 8))
    assert rc == 2 and "target_0001.model" in err and "expected" in err


def test_attack_shadow_header_missing_field_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: _drop_header_line(s / "shadows.header", b"feature_len="))
    assert rc == 2 and "shadows.header" in err and "'feature_len'" in err


def test_attack_refuses_a_shadow_header_that_does_not_fit_the_config_before_training(
        cfg_path, artifacts, tmp_path, capsys, monkeypatch):
    # 75 features and 8 target coordinates written as 80 and 3: shadows.bin
    # keeps its size, and the reconstructor trained before attack failed
    def edit(released, shadows):
        header = shadows / "shadows.header"
        text = header.read_text()
        assert "feature_len=75\ntarget_len=8\n" in text
        header.write_text(text.replace("feature_len=75\ntarget_len=8\n",
                                       "feature_len=80\ntarget_len=3\n"))

    def untrainable(*args):
        raise AssertionError("a header that does not fit must be refused before training")

    from reconlab import shadow
    monkeypatch.setattr(shadow, "train_reconn", untrainable)
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys, edit)
    assert rc == 2 and "shadows.header" in err and "feature_len 80 differs from 75" in err


def test_attack_model_over_shadows_header_exits_2_naming_the_file_and_its_format(
        cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys, lambda r, s: shutil.copy(
        r / "target_0000.model", s / "shadows.header"))
    assert rc == 2 and "shadows.header" in err and "format=reconlab-model-v1" in err


@pytest.mark.parametrize("targets_csv", ["deleted", "stale"])
def test_attack_takes_its_targets_from_the_config(targets_csv, cfg_path, artifacts, tmp_path,
                                                  capsys):
    # a targets.csv of another split (split_seed=6) once gave a mean MSE of
    # 0.1299 for 0.0151, with an oracle distance of 0.0: the target lies in this
    # config's pool
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CONFIG.replace("split_seed=5", "split_seed=6"))
    assert main(["train-released", "--config", str(other), "--out", str(tmp_path / "o")]) == 0

    def edit(released, shadows):
        if targets_csv == "deleted":
            (released / "targets.csv").unlink()
        else:
            shutil.copy(tmp_path / "o" / "targets.csv", released / "targets.csv")

    rc, _ = _attack_with(cfg_path, artifacts, tmp_path, capsys, edit)
    assert rc == 0
    plain = tmp_path / "plain"
    assert main(["attack", "--config", cfg_path, "--shadows", artifacts[1],
                 "--released", artifacts[0], "--out", str(plain)]) == 0
    for name in ("attack_results.csv", "summary.txt"):
        assert (tmp_path / "results" / name).read_bytes() == (plain / name).read_bytes()


def test_attack_model_header_missing_field_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: _drop_header_line(r / "target_0002.model", b"activation="))
    assert rc == 2 and "target_0002.model" in err and "'activation'" in err


def test_attack_other_config_exits_2_naming_the_model(cfg_path, artifacts, tmp_path, capsys):
    # the released models carry the hash of the config they were trained under
    other = tmp_path / "other.cfg"
    other.write_text(Path(cfg_path).read_text().replace("epochs=10", "epochs=11"))
    capsys.readouterr()
    rc = main(["attack", "--config", str(other), "--shadows", artifacts[1],
               "--released", artifacts[0], "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert rc == 2 and "target_0000.model" in err and "config_hash" in err
    assert not (tmp_path / "results").exists()


def test_attack_shadows_of_other_config_exit_2_naming_the_header(cfg_path, artifacts,
                                                                 tmp_path, capsys):
    # the shadow set carries the hash of the config it was made under, like
    # the released models; here only the shadows come from another config
    header = os.path.join(artifacts[1], "shadows.header")
    made_under = cli.parse_config(cfg_path).hash
    assert f"config_hash={made_under}\n" in Path(header).read_text()
    other = tmp_path / "other.cfg"
    other.write_text(Path(cfg_path).read_text().replace("epochs=10", "epochs=11"))
    released = str(tmp_path / "released")
    assert main(["train-released", "--config", str(other), "--out", released]) == 0
    capsys.readouterr()
    rc = main(["attack", "--config", str(other), "--shadows", artifacts[1],
               "--released", released, "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert rc == 2 and header in err
    assert made_under in err and cli.parse_config(str(other)).hash in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("edit", [
    lambda text: "# a comment\n" + text,
    lambda text: text.replace("=", " = ").replace("[split]", "\n  [split]  "),
    lambda text: text + "learning_rate=0.001\n",  # [reconn]'s default, spelt out
])
def test_attack_takes_artifacts_of_an_equivalent_config(edit, cfg_path, artifacts, tmp_path):
    # the hash covers the resolved values, not the file's text
    same = tmp_path / "same.cfg"
    same.write_text(edit(Path(cfg_path).read_text()))
    assert main(["attack", "--config", str(same), "--shadows", artifacts[1],
                 "--released", artifacts[0], "--out", str(tmp_path / "results")]) == 0


def test_attack_shadow_header_without_hash_exits_2(cfg_path, artifacts, tmp_path, capsys):
    rc, err = _attack_with(cfg_path, artifacts, tmp_path, capsys,
                           lambda r, s: _drop_header_line(s / "shadows.header", b"config_hash="))
    assert rc == 2 and "shadows.header" in err and "'config_hash'" in err


# ------------------------------------------------------------ glm-attack

def test_glm_attack_recovers_planted_point(tmp_path, capsys):
    g = np.random.default_rng(5)
    X = g.normal(size=(30, 3))
    Y = g.normal(size=30)
    x_true = np.concatenate([[1.0], g.normal(size=3)])
    y_true = 0.7
    Xf = np.vstack([glm.add_intercept(X), x_true[None, :]])
    Yf = np.concatenate([Y, [y_true]])
    theta = glm.fit_glm(Xf, Yf, glm.GlmSpec("linear", 0.1))

    fixed_csv = str(tmp_path / "fixed.csv")
    with open(fixed_csv, "w") as f:
        f.write("x0,x1,x2,label\n")
        for row, lab in zip(X, Y):
            f.write(",".join(repr(float(v)) for v in row) + f",{float(lab)!r}\n")
    theta_csv = str(tmp_path / "theta.csv")
    np.savetxt(theta_csv, theta, delimiter=",")

    rc = main(["glm-attack", "--fixed", fixed_csv, "--theta", theta_csv,
               "--family", "linear", "--lam", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    x_line = [l for l in out.splitlines() if l.startswith("x=")][0]
    x_hat = np.array([float(v) for v in x_line[2:].split(",")])
    y_hat = float([l for l in out.splitlines() if l.startswith("y=")][0][2:])
    assert np.max(np.abs(x_hat - x_true)) <= 1e-6
    assert abs(y_hat - y_true) <= 1e-6


def test_glm_attack_reads_theta_as_a_column_or_one_row(tmp_path, capsys):
    # np.savetxt writes a vector as a column; one comma row is the same theta
    X = np.array([[1.0, -2.0], [1.0, -1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 0.5]])
    Y = np.array([0.5, 0.1, 1.2, 0.9, 0.3])
    theta = glm.fit_glm(X, Y, glm.GlmSpec("linear", 0.1))
    fixed_csv = tmp_path / "fixed.csv"
    fixed_csv.write_text("x1,label\n-2,0.5\n-1,0.1\n1,1.2\n2,0.9\n")
    outputs = []
    for name, layout in (("column.csv", theta), ("row.csv", theta[None, :])):
        np.savetxt(tmp_path / name, layout, delimiter=",")
        assert main(["glm-attack", "--fixed", str(fixed_csv), "--theta", str(tmp_path / name),
                     "--lam", "0.1"]) == 0
        outputs.append(capsys.readouterr().out)
    x, y = glm.reconstruct_glm(theta, X[:-1], Y[:-1], glm.GlmSpec("linear", 0.1))
    assert outputs[0] == outputs[1] == \
        "x=" + ",".join(repr(float(v)) for v in x) + f"\ny={float(y)!r}\n"


@pytest.mark.parametrize("lam", ["0", "1e-8", "1e-6", "1e-4"])
def test_glm_attack_refuses_a_point_the_fit_cannot_pin(lam, tmp_path, capsys):
    # separable: x1 < 0 has label 0, x1 > 0 label 1; the target is x1 = 3, y = 1
    X = np.array([[1.0, -2.0], [1.0, -1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    Y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    theta = glm.fit_glm(X, Y, glm.GlmSpec("logistic", float(lam)))
    fixed_csv = tmp_path / "fixed.csv"
    fixed_csv.write_text("x1,label\n-2,0\n-1,0\n1,1\n2,1\n")
    theta_csv = str(tmp_path / "theta.csv")
    np.savetxt(theta_csv, theta, delimiter=",")
    rc = main(["glm-attack", "--fixed", str(fixed_csv), "--theta", theta_csv,
               "--family", "logistic", "--lam", lam])
    assert rc == 3
    assert "near-zero denominator" in capsys.readouterr().err


def test_glm_attack_no_intercept_needs_label(tmp_path):
    fixed_csv = tmp_path / "fixed.csv"
    fixed_csv.write_text("x0,label\n1.0,2.0\n")
    theta_csv = tmp_path / "theta.csv"
    theta_csv.write_text("1.0\n")
    rc = main(["glm-attack", "--fixed", str(fixed_csv), "--theta", str(theta_csv),
               "--no-intercept"])
    assert rc == 2


def test_glm_attack_no_intercept_prints_roots(tmp_path, capsys):
    g = np.random.default_rng(6)
    X = g.normal(size=(20, 3))
    Y = g.normal(size=20)
    x_true = g.normal(size=3)
    y_true = 1.1
    Xf = np.vstack([X, x_true[None, :]])
    Yf = np.concatenate([Y, [y_true]])
    theta = glm.fit_glm(Xf, Yf, glm.GlmSpec("linear", 0.0, intercept=False))

    fixed_csv = str(tmp_path / "fixed.csv")
    with open(fixed_csv, "w") as f:
        f.write("x0,x1,x2,label\n")
        for row, lab in zip(X, Y):
            f.write(",".join(repr(float(v)) for v in row) + f",{float(lab)!r}\n")
    theta_csv = str(tmp_path / "theta.csv")
    np.savetxt(theta_csv, theta, delimiter=",")

    rc = main(["glm-attack", "--fixed", fixed_csv, "--theta", theta_csv,
               "--no-intercept", "--target-label", "1.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "candidate_1=" in out and "candidate_2=" in out
    cands = []
    for line in out.splitlines():
        if line.startswith("candidate_"):
            cands.append(np.array([float(v) for v in line.split("=")[1].split(",")]))
    assert min(np.max(np.abs(c - x_true)) for c in cands) <= 1e-6


def test_glm_attack_no_intercept_takes_ridge_at_lam_0(tmp_path, capsys):
    # ridge with no penalty is linear regression, so the same attack runs
    fixed_csv = tmp_path / "fixed.csv"
    fixed_csv.write_text("x0,x1,label\n1,0,1\n0,1,2\n1,1,0\n2,1,1\n")
    theta_csv = tmp_path / "theta.csv"
    theta_csv.write_text("0.5\n0.25\n")
    argv = ["glm-attack", "--fixed", str(fixed_csv), "--theta", str(theta_csv),
            "--no-intercept", "--target-label", "1.5"]
    outputs = []
    for flags in ([], ["--family", "ridge"], ["--family", "ridge", "--lam", "0"]):
        assert main(argv + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("candidate_1=")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("no_intercept", [False, True])
def test_glm_attack_prints_what_a_loadtxt_read_of_fixed_gives(no_intercept, tmp_path, capsys):
    # --fixed was read by np.loadtxt before data.read_table; both must parse
    # every float format to the same bits, and both skip an empty line
    g = np.random.default_rng(8)
    X, Y = g.normal(size=(30, 3)), g.normal(size=30)
    x_true, y_true = g.normal(size=3), 0.7
    spec = glm.GlmSpec("linear", 0.0 if no_intercept else 0.1, intercept=not no_intercept)
    Xf = np.vstack([X, x_true])
    theta = glm.fit_glm(Xf if no_intercept else glm.add_intercept(Xf), np.append(Y, y_true), spec)
    theta_csv = str(tmp_path / "theta.csv")
    np.savetxt(theta_csv, theta, delimiter=",")
    formats = [repr, "{:.17g}".format, "{:.6e}".format, str, "{:.3f}".format, "{:G}".format]
    lines = ["x0,label,x1,x2"] + [
        ",".join(formats[(i + j) % len(formats)](float(v)) for j, v in enumerate(row))
        for i, row in enumerate(np.column_stack([X[:, 0], Y, X[:, 1:]]))]
    lines.insert(9, "")
    fixed_csv = tmp_path / "fixed.csv"
    fixed_csv.write_text("\n".join(lines) + "\n")
    flags = ["--no-intercept", "--target-label", "0.7"] if no_intercept else ["--lam", "0.1"]
    assert main(["glm-attack", "--fixed", str(fixed_csv), "--theta", theta_csv, *flags]) == 0

    table = np.loadtxt(fixed_csv, delimiter=",", skiprows=1, ndmin=2)
    X_read, Y_read = np.delete(table, 1, axis=1), table[:, 1]
    if no_intercept:
        points = glm.reconstruct_linreg_no_intercept(theta, X_read, Y_read, y_true)
        want = "".join(f"candidate_{i}=" + ",".join(repr(float(v)) for v in c) + "\n"
                       for i, c in enumerate(points, 1))
    else:
        x, y = glm.reconstruct_glm(theta, glm.add_intercept(X_read), Y_read, spec)
        want = "x=" + ",".join(repr(float(v)) for v in x) + f"\ny={float(y)!r}\n"
    assert capsys.readouterr().out == want


# ------------------------------------------------------------------- mia

def test_mia_cli_trivial_accuracy_one(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "mia")
    rc = main(["mia", "--config", cfg_path, "--out", out, "--trials", "5"])
    assert rc == 0
    assert "accuracy=1.0" in capsys.readouterr().out
    rows = Path(out, "mia_trials.csv").read_text().splitlines()
    assert len(rows) == 2 + 5


MIA_TRIALS = {  # mia_trials.csv of ten trials on the tiny config, per attack
    "trivial": "0,0,0,1\n1,0,0,1\n2,1,1,1\n3,1,1,1\n4,1,1,1\n"
               "5,0,0,1\n6,0,0,1\n7,0,0,1\n8,1,1,1\n9,1,1,1\n",
    "constant": "0,0,0,1\n1,0,0,1\n2,1,0,0\n3,1,0,0\n4,1,0,0\n"
                "5,0,0,1\n6,0,0,1\n7,0,0,1\n8,1,0,0\n9,1,0,0\n",
}


@pytest.mark.parametrize("attack", sorted(MIA_TRIALS))
def test_mia_cli_trials_keep_their_bytes_and_train_each_candidate_once(
        attack, cfg_path, tmp_path, monkeypatch):
    calls = []
    train = nn.train
    monkeypatch.setattr(nn, "train", lambda *a: calls.append(a) or train(*a))
    out = tmp_path / "mia"
    assert main(["mia", "--config", cfg_path, "--out", str(out), "--trials", "10",
                 "--attack", attack]) == 0
    assert (out / "mia_trials.csv").read_text() == (
        "# config_hash=c64ae57ddb303b5e\ntrial,b,b_hat,correct\n" + MIA_TRIALS[attack])
    # one release per trial, and the trivial attack's two candidates
    assert len(calls) == 10 + 2 * (attack == "trivial")


# -------------------------------------------------------------- dp-sweep

def test_dp_sweep_outputs_table(cfg_path, tmp_path):
    out = str(tmp_path / "dp")
    rc = main(["dp-sweep", "--config", cfg_path, "--out", out,
               "--sigmas", "0,8", "--repeats", "2"])
    assert rc == 0
    rows = Path(out, "dp_sweep.csv").read_text().splitlines()
    assert rows[1] == "sigma,epsilon,mean_attack_mse,stderr,test_accuracy"
    assert len(rows) == 4
    sigma0 = rows[2].split(",")
    sigma8 = rows[3].split(",")
    assert sigma0[1] == "inf"
    assert float(sigma8[1]) < float("inf")
    assert float(sigma8[2]) > float(sigma0[2])


def test_dp_sweep_reconstructor_overflow_is_silent_under_w_error(tmp_path):
    # a learning rate of 2 drives reconstructor logits far enough below 0
    # that the sigmoid's exp overflows, in training and in the attack
    cfg = tmp_path / "lr2.cfg"
    cfg.write_text(TINY_CONFIG + "[reconn]\nlearning_rate=2\n")
    argv = ["dp-sweep", "--config", str(cfg), "--sigmas", "0,2", "--repeats", "1"]
    tables = []
    for action in ("always", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(argv + ["--out", str(tmp_path / action)]) == 0
        assert not caught
        tables.append((tmp_path / action / "dp_sweep.csv").read_bytes())
    assert tables[0] == tables[1]


# ------------------------------------------------------------ rero-bound

def test_rero_bound_cor1_example(capsys):
    assert main(["rero-bound", "--cor1", "--kappa", "0.01",
                 "--eps", "2.302585092994046"]) == 0
    out = capsys.readouterr().out
    gamma = float([l for l in out.splitlines() if l.startswith("gamma=")][0][6:])
    assert abs(gamma - 0.1) < 1e-12


def test_rero_bound_thm3_example(capsys):
    assert main(["rero-bound", "--thm3", "--eps", "0", "--gamma", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "delta=0.5" in out


def test_rero_bound_requires_mode():
    assert main(["rero-bound", "--kappa", "0.5", "--eps", "1.0"]) == 2


@pytest.mark.parametrize("argv,stdout", [
    (["--thm2", "--alpha", "2", "--eps", "1", "--kappa", "0.1"],
     "gamma=0.5213714442179439\nkappa=0.1\nsource=thm2\n"),
    (["--cor2", "--rho", "0.1", "--kappa", "0.01"],
     "gamma=0.03515662849557054\nkappa=0.01\nsource=cor2\n"),
    (["--cor2", "--rho", "5", "--kappa", "0.5"], "gamma=1.0\nkappa=0.5\nsource=cor2\n"),
    (["--prop1", "--d", "10", "--eps", "1"],
     "gamma=0.0026545720981045362\nkappa=0.0009765625\nsource=prop1\n"),
    (["--prop1", "--d", "10", "--rho", "0.5"],
     "gamma=0.0245222503863845\nkappa=0.0009765625\nsource=prop1\n"),
    (["--prop1", "--d", "3", "--eta", "1.5", "--rho", "0.5"],
     "gamma=1.0\nkappa=1.0\nsource=prop1\n"),
    (["--prop2", "--d", "16", "--rho", "0.1", "--sigma", "1"],
     "gamma=2.0483095000663944e-10\nkappa=9.346074812907344e-12\nsource=prop2\n"),
    (["--prop2", "--d", "16", "--eps", "1", "--sigma", "0.3"],
     "gamma=0.0016675685250246582\nkappa=0.0006134641771011576\nsource=prop2\n"),
])
def test_rero_bound_stdout(argv, stdout, capsys):
    assert main(["rero-bound", *argv]) == 0
    assert capsys.readouterr().out == stdout


# each ended in a traceback or exited 2 before the limit was taken
RERO_BOUND_LIMITS = [
    # e^eps, or a float ** in kappa_gaussian_bound, raised OverflowError
    (["--cor1", "--eps", "1000", "--kappa", "0.1"], "gamma=1.0\nkappa=0.1\nsource=cor1\n"),
    (["--cor1", "--eps", "800", "--kappa", "0"], "gamma=0.0\nkappa=0.0\nsource=cor1\n"),
    (["--thm3", "--eps", "1000", "--gamma", "0.5"], "delta=0.0\n"),
    (["--thm3", "--eps", "1000", "--gamma", "1"], "delta=1.0\n"),
    (["--prop1", "--d", "3", "--eps", "1000"], "gamma=1.0\nkappa=0.125\nsource=prop1\n"),
    (["--prop2", "--d", "3", "--rho", "1", "--sigma", "1e300"],
     "gamma=0.0\nkappa=0.0\nsource=prop2\n"),
    (["--thm2", "--alpha", "2", "--eps", "1e300", "--kappa", "0.1"],
     "gamma=1.0\nkappa=0.1\nsource=thm2\n"),
    # q = eta^2 / (sigma^2 d) reached 0, and exit 2 said "math domain error"
    (["--prop2", "--d", "3", "--eps", "1", "--sigma", "1e154"],
     "gamma=0.0\nkappa=0.0\nsource=prop2\n"),
    (["--prop2", "--d", "3", "--rho", "1", "--sigma", "1", "--eta", "1e-320"],
     "gamma=0.0\nkappa=0.0\nsource=prop2\n"),
    # kappa 0 or 1, refused by --cor2 as outside (0, 1); 0.5^2000 underflows to 0
    (["--cor2", "--rho", "1", "--kappa", "1"], "gamma=1.0\nkappa=1.0\nsource=cor2\n"),
    (["--cor2", "--rho", "1", "--kappa", "0"], "gamma=0.0\nkappa=0.0\nsource=cor2\n"),
    (["--prop1", "--d", "2000", "--rho", "1", "--eta", "0.5"],
     "gamma=0.0\nkappa=0.0\nsource=prop1\n"),
    # kappa underflowed to 0, so gamma comes from ln kappa: 2000 ln 0.5 = -1386.3
    # and 1.5 (1 - ln(3e600)) = -2072.4, both past by eps, as rho >= ln(1/kappa)
    (["--prop1", "--d", "2000", "--eta", "0.5", "--eps", "1500"],
     "gamma=1.0\nkappa=0.0\nsource=prop1\n"),
    (["--prop1", "--d", "2000", "--eta", "0.5", "--rho", "2000"],
     "gamma=1.0\nkappa=0.0\nsource=prop1\n"),
    (["--prop2", "--d", "3", "--sigma", "1e300", "--eps", "1e300"],
     "gamma=1.0\nkappa=0.0\nsource=prop2\n"),
    (["--cor2", "--rho", "800", "--kappa", "1e-320"], "gamma=1.0\nkappa=1e-320\nsource=cor2\n"),
    # (e^eps + 1) - e^eps rounded to 0.0 or 2.0 at gamma = 1
    (["--thm3", "--eps", "40", "--gamma", "1"], "delta=1.0\n"),
    (["--thm3", "--eps", "36.8", "--gamma", "1"], "delta=1.0\n"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,stdout", RERO_BOUND_LIMITS)
def test_rero_bound_takes_the_limit(argv, stdout, capsys):
    assert main(["rero-bound", *argv]) == 0
    assert capsys.readouterr() == (stdout, "")


RERO_BOUND_INPUTS = {"thm2": ("alpha", "eps", "kappa"), "cor1": ("eps", "kappa"),
                     "cor2": ("rho", "kappa"), "thm3": ("eps", "gamma"),
                     "prop1": ("d", "privacy"), "prop2": ("d", "privacy", "sigma")}
RERO_BOUND_FLAGS = ("eps", "rho", "kappa", "alpha", "gamma", "sigma", "eta", "d")
EDGE_VALUES = ("0", "1", "-1", "0.5", "1e-320", "1000", "1e300", "nan", "inf", "-inf")


def _check_rero_bound(argv):
    """main exits 0 or 2 without an exception or a warning; on 0 each printed
    gamma, kappa or delta is in [0, 1], on 2 the message names a flag of argv."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["rero-bound", *argv])
    if code == 0:
        values = [float(line.split("=", 1)[1]) for line in out.getvalue().splitlines()
                  if line.split("=", 1)[0] in ("gamma", "kappa", "delta")]
        assert values and all(0.0 <= v <= 1.0 for v in values), (argv, out.getvalue())
    else:
        assert code == 2, (argv, code)
        names = {arg.split("=", 1)[0].lstrip("-") for arg in argv}
        assert any(re.search(rf"\b{name}\b", err.getvalue()) for name in names), \
            (argv, err.getvalue())


def test_rero_bound_flags_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def argvs(draw):
        formula = draw(st.sampled_from(sorted(RERO_BOUND_INPUTS)))
        privacy = draw(st.sampled_from(("eps", "rho")))
        names = [privacy if n == "privacy" else n for n in RERO_BOUND_INPUTS[formula]]
        extra = draw(st.lists(st.sampled_from(RERO_BOUND_FLAGS), max_size=2, unique=True))
        names += [n for n in extra if n not in names]
        return ["--" + formula] + [f"--{n}={draw(st.sampled_from(EDGE_VALUES))}" for n in names]

    limits = [argv for argv, _ in RERO_BOUND_LIMITS]

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(argv=argvs())
    def check(argv):
        _check_rero_bound(argv)

    for argv in limits:
        check = hypothesis.example(argv=argv)(check)
    check()


# ------------------------------------------------------------- bad input

@pytest.mark.parametrize("argv,named", [
    (["dp-sweep", "--repeats", "0"], "repeats"),
    (["dp-sweep", "--repeats", "-1"], "repeats"),
    (["mia", "--trials", "0"], "--trials"),
    (["mia", "--trials", "-2"], "--trials"),
    (["rero-bound", "--cor1"], "--cor1 requires --eps, --kappa"),
    (["rero-bound", "--thm2", "--eps", "1", "--kappa", "0.1"], "--thm2 requires --alpha"),
    (["rero-bound", "--prop1", "--eta", "0.5"], "--prop1 requires --d, --eps"),
    (["rero-bound", "--cor2", "--kappa", "0.1"], "--cor2 requires --rho"),
    (["gen-shadows", "--k", "10", "[featurizer]\nmode=blackbox\nprobe_size=0"],
     "featurizer.probe_size"),
    (["gen-shadows", "[featurizer]\nmode=blackbox\nprobe_size=-1"], "featurizer.probe_size"),
    # --k fits the 130-point pool, but not what the probe or the OOD pool leave
    (["gen-shadows", "--k", "125", "[featurizer]\nmode=blackbox\nprobe_size=10"],
     "--k exceeds shadow pool size"),
    (["gen-shadows", "--ood-pool", "OOD_CSV", "--k", "100"], "--k exceeds shadow pool size"),
    (["rero-bound", "--cor1", "--eps", "-1", "--kappa", "0.1"], "eps must be nonnegative"),
    (["rero-bound", "--thm2", "--alpha", "2", "--eps", "-1", "--kappa", "0.1"],
     "eps must be nonnegative"),
    (["rero-bound", "--prop1", "--d", "10", "--eps", "-1"], "eps must be nonnegative"),
    # an argument starting with "[" is appended to the config as a section
    (["dp-sweep", "--sigmas", "nan"], "--sigmas"),
    (["dp-sweep", "--sigmas", "0,-1"], "--sigmas"),
    (["dp-sweep", "--sigmas", "inf"], "--sigmas"),
    (["dp-sweep", "--sigmas", "2", "[dp]\nclip_norm=0"], "dp.clip_norm"),
    (["dp-sweep", "--sigmas", "2", "[dp]\nclip_norm=nan"], "dp.clip_norm"),
    (["dp-sweep", "--sigmas", "0,2", "[dp]\ndelta=0"], "delta must be in (0, 1)"),
    (["gen-shadows", "[featurizer]\nmode=layers\nlayers=5"], "featurizer.layers"),
    (["gen-shadows", "[featurizer]\nmode=layers\nlayers=-1"], "featurizer.layers"),
    (["gen-shadows", "[featurizer]\nmode=layers\nlayers=2"], "featurizer.layers"),
    (["rero-bound", "--cor1", "--eps", "nan", "--kappa", "0.1"],
     "argument --eps: must be finite, got nan"),
    (["rero-bound", "--prop1", "--d", "10", "--eps", "nan"],
     "argument --eps: must be finite, got nan"),
    (["rero-bound", "--thm2", "--alpha", "2", "--eps", "nan", "--kappa", "0.1"],
     "argument --eps: must be finite, got nan"),
    (["rero-bound", "--thm2", "--alpha", "nan", "--eps", "1", "--kappa", "0.1"],
     "argument --alpha: must be finite, got nan"),
    (["rero-bound", "--cor2", "--rho", "nan", "--kappa", "0.1"],
     "argument --rho: must be finite, got nan"),
    (["rero-bound", "--thm3", "--eps", "nan", "--gamma", "0.5"],
     "argument --eps: must be finite, got nan"),
    # sigma * clip_norm squares to 0.0, so rho would divide by zero
    (["dp-sweep", "--sigmas", "1e-170"], "squares to 0"),
    # the .csv names are files written by the test
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "nan_theta.csv"], "nan_theta.csv"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "theta.csv", "--lam", "nan"],
     "argument --lam: must be finite, got nan"),
    (["glm-attack", "--fixed", "nan_fixed.csv", "--theta", "theta.csv"], "nan_fixed.csv"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "theta.csv", "--no-intercept",
      "--target-label", "nan"], "--target-label"),
    # a non-finite --eta or --sigma, whichever formula reads it or not
    (["rero-bound", "--cor2", "--rho", "0.1", "--kappa", "0.1", "--eta", "nan"], "--eta"),
    (["rero-bound", "--prop1", "--d", "3", "--eps", "1", "--eta", "nan"], "--eta"),
    (["rero-bound", "--cor1", "--eps", "1", "--kappa", "0.1", "--eta", "inf"], "--eta"),
    (["rero-bound", "--thm2", "--alpha", "2", "--eps", "1", "--kappa", "0.1", "--eta", "nan"],
     "--eta"),
    (["rero-bound", "--thm3", "--eps", "1", "--gamma", "0.5", "--eta=-inf"], "--eta"),
    (["rero-bound", "--prop2", "--d", "16", "--rho", "0.1", "--sigma", "1", "--eta", "nan"],
     "--eta"),
    (["rero-bound", "--prop2", "--d", "16", "--rho", "0.1", "--sigma", "nan"], "--sigma"),
    (["rero-bound", "--prop2", "--d", "16", "--eps", "1", "--sigma", "inf"], "--sigma"),
    # sqrt(d) divided the sigma check by zero before d was checked
    (["rero-bound", "--prop2", "--d", "0", "--eps", "1", "--sigma", "1"],
     "argument --d: must be >= 1, got 0"),
    (["rero-bound", "--prop2", "--d", "-1", "--eps", "1", "--sigma", "1"],
     "argument --d: must be >= 1, got -1"),
    # a negative epoch count trained nothing and exited 0; a NaN rate failed
    # only after training, with exit 3
    (["train-released", "[released]\nepochs=-3"], "epochs must be >= 0"),
    (["train-released", "[released]\nlearning_rate=nan"], "learning_rate must be finite"),
    (["gen-shadows", "[released]\nlearning_rate=inf"], "learning_rate must be finite"),
    (["dp-sweep", "--sigmas", "0", "[reconn]\nepochs=-1"], "reconn epochs must be >= 0"),
    (["dp-sweep", "--sigmas", "0", "[reconn]\nbatch_size=0"], "reconn batch_size must be >= 1"),
    (["dp-sweep", "--sigmas", "0", "[reconn]\nlearning_rate=nan"],
     "reconn learning_rate must be finite"),
    (["dp-sweep", "--sigmas", "0", "[reconn]\nlearning_rate=-1"],
     "reconn learning_rate must be finite"),
    (["gen-shadows", "--ood-pool", "OOD5_CSV"], "--ood-pool has 5 features, the fixed set 8"),
    # a value that does not parse printed only Python's message
    (["train-released", "[data]\nn=abc"], "data.n: "),
    (["train-released", "[released]\nhidden_widths=10,x"], "released.hidden_widths: "),
    (["train-released", "[released]\nlearning_rate=fast"], "released.learning_rate: "),
    (["train-released", "[released]\noptimizer=sgd_momentum\nbatch_size=ten"],
     "released.batch_size: "),
    (["train-released", "[released]\nnoise_multiplier=loud"], "released.noise_multiplier: "),
    (["dp-sweep", "--sigmas", "0", "[reconn]\nhidden_widths=8,y"], "reconn.hidden_widths: "),
    (["gen-shadows", "[featurizer]\nmode=layers\nlayers=x"], "featurizer.layers: "),
    (["gen-shadows", "[featurizer]\nmode=layers\nlayers=0,a"], "featurizer.layers: "),
    (["dp-sweep", "--sigmas", ""], "--sigmas: "),
    # a reconstructor width below 1 was refused only after every shadow had
    # trained, and neither width error named its key
    (["dp-sweep", "--sigmas", "0", "--repeats", "1", "[reconn]\nhidden_widths=0"],
     "reconn.hidden_widths: reconn hidden_widths must be >= 1"),
    (["dp-sweep", "--sigmas", "0", "[reconn]\nhidden_widths=8,-2"], "reconn.hidden_widths: "),
    (["train-released", "[released]\nhidden_widths=0"],
     "released.hidden_widths: all layer widths must be >= 1"),
    (["train-released", "[released]\nactivation=swish"], "released.activation: "),
    # a header-only --fixed file ended in an IndexError traceback
    (["glm-attack", "--fixed", "header_only.csv", "--theta", "theta.csv"],
     "header_only.csv: no data rows"),
    # a misspelt key was ignored, and its default used
    (["train-released", "[profile]\nseeds=3"], "unknown config key profile.seeds"),
    (["train-released", "[data]\nnum_class=3"], "unknown config key data.num_class"),
    (["train-released", "[split]\nfixed=40"], "unknown config key split.fixed"),
    (["train-released", "[released]\nepoch=2"], "unknown config key released.epoch"),
    (["train-released", "[reconn]\nbatch=8"], "unknown config key reconn.batch"),
    (["train-released", "[featurizer]\nlayer=1"], "unknown config key featurizer.layer"),
    (["train-released", "[dp]\nclip=1"], "unknown config key dp.clip"),
    (["train-released", "[reconstructor]\nepochs=1"], "unknown config key reconstructor.epochs"),
    # the config objects' own checks did not name the section
    (["train-released", "[released]\nmomentum=1"], "released: momentum must be in [0, 1)"),
    (["train-released", "[split]\nfixed_size=-1"], "split: split sizes must be nonnegative"),
    (["train-released", "[data]\nd=0"], "data: d and num_classes must be positive"),
    (["train-released", "[released]\noptimizer=dpgd"],
     "released: dpgd requires a finite clip_norm > 0"),
    # rero-bound used one of two formulas, or --rho over --eps, silently
    (["rero-bound", "--cor1", "--thm3", "--eps", "1", "--kappa", "0.1", "--gamma", "0.5"],
     "argument --thm3: not allowed with argument --cor1"),
    (["rero-bound", "--prop1", "--d", "3", "--eps", "1", "--rho", "0.1"],
     "argument --rho: not allowed with argument --eps"),
    # a label a hair below a class was truncated to the class below
    (["gen-shadows", "--ood-pool", "OOD_FRACTIONAL_CSV"], "must hold integer classes"),
    # a --theta of the wrong length ended in numpy's matmul message
    (["glm-attack", "--fixed", "fixed3.csv", "--theta", "theta3.csv"],
     "--theta holds 3 values, but the model of --fixed has 4, the intercept included"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "theta.csv", "--no-intercept",
      "--target-label", "1"], "--theta holds 2 values, but the model of --fixed has 1"),
    # a --theta that does not parse, or holds nothing, named neither the flag
    # nor the file; an empty one also warned, and ended in a traceback when
    # warnings are errors
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "text_theta.csv"],
     "--theta TMP/text_theta.csv: could not convert string 'a'"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "empty_theta.csv"],
     "--theta TMP/empty_theta.csv: no values"),
    pytest.param(["glm-attack", "--fixed", "fixed.csv", "--theta", "empty_theta.csv"],
                 "--theta TMP/empty_theta.csv: no values",
                 marks=pytest.mark.filterwarnings("error")),
    # refused only inside the soundness grid, naming n_trials
    (["rero-check", "--trials", "50"], "argument --trials: must be >= 100, got 50"),
    # numpy named the value's data row counted from 0: "at row 0, column 1"
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "a1_theta.csv"],
     "--theta TMP/a1_theta.csv: could not convert string 'a' to float64 at line 1, column 1"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "1a_theta.csv"],
     "--theta TMP/1a_theta.csv: could not convert string 'a' to float64 at line 1, column 2"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "1na_theta.csv"],
     "--theta TMP/1na_theta.csv: could not convert string 'a' to float64 at line 2, column 1"),
    # --theta holds float rows only: a "#" line is not a comment
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "comment_theta.csv"],
     "--theta TMP/comment_theta.csv: could not convert string '# theta' to float64 at line 1, "
     "column 1"),
    # numpy named the short row by its data row, past the blank line: "at row 2"
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "ragged_theta.csv"],
     "--theta TMP/ragged_theta.csv: the number of columns changed from 2 to 1 at line 3"),
    # an infinite alpha or eps made NaN, which the clamp turned into gamma or delta 0
    (["rero-bound", "--thm2", "--alpha", "inf", "--eps", "1", "--kappa", "0.1"],
     "argument --alpha: must be finite, got inf"),
    (["rero-bound", "--thm2", "--alpha", "2", "--eps", "inf", "--kappa", "0.1"],
     "argument --eps: must be finite, got inf"),
    (["rero-bound", "--thm3", "--eps", "inf", "--gamma", "1"],
     "argument --eps: must be finite, got inf"),
    (["rero-bound", "--cor1", "--eps", "inf", "--kappa", "0.1"],
     "argument --eps: must be finite, got inf"),
    (["rero-bound", "--prop1", "--d", "100000", "--eps", "inf"],
     "argument --eps: must be finite, got inf"),
    (["rero-bound", "--cor1", "--eps=-inf", "--kappa", "0.1"],
     "argument --eps: must be finite, got -inf"),
    # --no-intercept ran the unregularised linear attack whatever --family and --lam said
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "theta.csv", "--no-intercept",
      "--target-label", "1", "--family", "logistic"], "--no-intercept attacks a linear model"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "theta.csv", "--no-intercept",
      "--target-label", "1", "--lam", "3"], "--no-intercept attacks a linear model"),
    (["glm-attack", "--fixed", "fixed.csv", "--theta", "theta.csv", "--no-intercept",
      "--target-label", "1", "--family", "ridge", "--lam", "0.5"],
     "--no-intercept attacks a linear model"),
    # numpy refused the seed inside the soundness grid, naming no flag
    (["rero-check", "--seed", "-1"], "--seed"),
    # refused inside the formula, naming kappa, gamma or rho but not the flag;
    # an infinite rho printed gamma=1.0
    (["rero-bound", "--cor1", "--eps", "1", "--kappa", "nan"],
     "argument --kappa: must be finite, got nan"),
    (["rero-bound", "--cor1", "--eps", "1", "--kappa", "1.5"],
     "argument --kappa: must be in [0, 1], got 1.5"),
    (["rero-bound", "--thm3", "--eps", "1", "--gamma", "nan"],
     "argument --gamma: must be finite, got nan"),
    (["rero-bound", "--thm3", "--eps", "1", "--gamma=-0.5"],
     "argument --gamma: must be in [0, 1], got -0.5"),
    (["rero-bound", "--cor2", "--rho", "inf", "--kappa", "0.5"],
     "argument --rho: must be finite, got inf"),
    (["rero-bound", "--cor2", "--rho=-1", "--kappa", "0.5"], "argument --rho: must be >= 0, got -1"),
    (["rero-bound", "--prop1", "--d", "0", "--eps", "1"], "argument --d: must be >= 1, got 0"),
    # GlmSpec refused --lam only after --fixed and --theta were read; the
    # missing --fixed file would be reported first
    (["glm-attack", "--fixed", "missing.csv", "--theta", "theta.csv", "--lam", "nan"],
     "argument --lam: must be finite, got nan"),
    (["glm-attack", "--fixed", "missing.csv", "--theta", "theta.csv", "--lam=-1"],
     "argument --lam: must be >= 0, got -1"),
    # every row trained DP-GD at the release's sigma, the sigma 0 row reading epsilon inf
    (["dp-sweep", "--sigmas", "0", "--repeats", "2",
      "[released]\noptimizer=dpgd\nclip_norm=1\nnoise_multiplier=4"], "released.optimizer"),
    # every shadow and target model trained before train_reconn refused the batch
    (["dp-sweep", "--sigmas", "0,2", "--repeats", "1", "[reconn]\nbatch_size=200"],
     "reconn.batch_size"),
    # the config alone names the featurizer
    (["gen-shadows", "--featurizer", "blackbox"], "--featurizer"),
    # the oracle's percentiles of no targets ended in an IndexError traceback
    (["dp-sweep", "--sigmas", "0,2", "--repeats", "1", "[split]\ntest_target_size=0"],
     "split.test_target_size"),
    (["attack", "--shadows", "missing", "--released", "missing",
      "[split]\ntest_target_size=0"], "split.test_target_size"),
    # numpy's "need at least one array to stack", naming no key
    (["gen-shadows", "[split]\nshadow_size=0"], "split.shadow_size"),
    # squaring the noise std in the privacy accounting raised OverflowError
    (["dp-sweep", "--sigmas", "0,2", "--repeats", "1", "[dp]\nclip_norm=1e300"],
     "dp.clip_norm"),
])
def test_bad_input_exits_2_naming_it(argv, named, cfg_path, tmp_path, capsys, monkeypatch):
    from reconlab import data

    def untrainable(*args):
        raise AssertionError("bad input must be refused before any training")

    monkeypatch.setattr(nn, "train", untrainable)
    out = tmp_path / "out"
    for marker, d in (("OOD_CSV", 8), ("OOD5_CSV", 5), ("OOD_FRACTIONAL_CSV", 8)):
        if marker in argv:  # a pool of d features
            ood_csv = str(tmp_path / "ood.csv")
            data.save_csv(data.synth_classification(d, 2, 60, 0.2, seed=99), ood_csv)
            if marker == "OOD_FRACTIONAL_CSV":
                with open(ood_csv, "a") as f:
                    f.write("0.5," * d + "2.99999\r\n")
            argv = [ood_csv if a == marker else a for a in argv]
    sections = [a for a in argv if a.startswith("[")]
    if sections:
        cfg_path = tmp_path / "extra.cfg"
        cfg_path.write_text(TINY_CONFIG + "\n".join(sections) + "\n")
        argv = [a for a in argv if a not in sections]
    if argv[0] == "glm-attack":
        (tmp_path / "fixed.csv").write_text("x1,label\n-2,0\n-1,0\n1,1\n2,1\n")
        (tmp_path / "nan_fixed.csv").write_text("x1,label\n-2,0\nnan,0\n1,1\n2,1\n")
        (tmp_path / "theta.csv").write_text("0.0\n1.0\n")
        (tmp_path / "nan_theta.csv").write_text("1.0\nnan\n")
        (tmp_path / "header_only.csv").write_text("x1,label\n")
        (tmp_path / "fixed3.csv").write_text("x1,x2,x3,label\n1,2,3,0\n4,5,6,1\n")
        (tmp_path / "theta3.csv").write_text("0.5\n0.5\n0.5\n")
        (tmp_path / "text_theta.csv").write_text("a,1.0\n")
        (tmp_path / "empty_theta.csv").write_text("")
        (tmp_path / "a1_theta.csv").write_text("a,1\n")
        (tmp_path / "1a_theta.csv").write_text("1,a\n")
        (tmp_path / "1na_theta.csv").write_text("1\na\n")
        (tmp_path / "comment_theta.csv").write_text("# theta\n\n1\na\n")
        (tmp_path / "ragged_theta.csv").write_text("1,2\n\n3\n")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        named = named.replace("TMP", str(tmp_path))
    elif argv[0] not in ("rero-bound", "rero-check"):
        argv = argv + ["--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["dp-sweep", "--repeats", "0"], ["mia", "--trials", "0"],
                                  ["gen-shadows", "--k", "0"]])
def test_bad_count_is_refused_before_the_config_is_read(argv, tmp_path, capsys):
    # the config file does not exist, so reading it first would name the file
    assert main(argv + ["--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: argument {argv[1]}: must be >= 1, got 0\n"


@pytest.mark.parametrize("key,value,message", [
    ("featurizer.probe_size", "0", "must be >= 1, got 0"),
    ("featurizer.probe_size", "-3", "must be >= 1, got -3"),
    ("dp.clip_norm", "0", "must be > 0, got 0"),
    ("dp.clip_norm", "nan", "must be finite, got nan"),
    ("dp.clip_norm", "inf", "must be finite, got inf"),
])
def test_config_key_range_is_refused_before_the_data_are_read(
        key, value, message, tmp_path, capsys, monkeypatch):
    section, name = key.split(".")
    cfg_path = tmp_path / "range.cfg"
    cfg_path.write_text(TINY_CONFIG + f"[{section}]\n{name}={value}\n")
    calls = []
    monkeypatch.setattr(cli, "load_profile", lambda cfg: calls.append(cfg))
    # refused by its SCHEMA cast, also by a command that does not use the key
    for command in ("gen-shadows", "train-released"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {key}: {message}\n"
    assert calls == []


@pytest.mark.parametrize("argv,message", [
    (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
    (["train-released", "--out", "out"], "the following arguments are required: --config"),
    (["rero-bound", "--thm2", "--cor1", "--eps", "1", "--kappa", "0.1"],
     "argument --cor1: not allowed with argument --thm2"),
])
def test_parser_error_returns_2(argv, message, capsys):
    # argparse's own exit 2 would raise SystemExit out of main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as exit:
        main(["dp-sweep", "--help"])
    assert exit.value.code == 0


def test_rero_check_small_grid_sound(capsys):
    assert main(["rero-check", "--trials", "120", "--seed", "0"]) == 0
    assert "all cells sound" in capsys.readouterr().out


@pytest.mark.parametrize("fixed,theta,flags", [
    # x1 near 1e300 times a residual of 1e9 overflows X'B: numpy warned
    # before exit 3, and ended in a traceback when warnings are errors
    ("x1,label\n1e300,-1e9\n2e300,-1e9\n", "0\n0\n", []),
    # the no-intercept roots overflowed to NaN, printed with exit 0
    ("x1,label\n1e200,1e300\n1e300,0\n", "1\n", ["--no-intercept", "--target-label", "1"]),
], ids=["intercept", "no-intercept"])
def test_glm_attack_overflow_exits_3_without_a_warning(fixed, theta, flags, tmp_path, capsys):
    (tmp_path / "fixed.csv").write_text(fixed)
    (tmp_path / "theta.csv").write_text(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["glm-attack", "--fixed", str(tmp_path / "fixed.csv"),
                   "--theta", str(tmp_path / "theta.csv"), *flags])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
