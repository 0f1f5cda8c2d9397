"""A bitwise pin of nn.train: the sha256 of the trained parameters' bytes.

For each hidden activation and for GD, SGD (with a short last batch),
DP-GD and DP-GD without noise, ``tests/golden/train_sha256.json`` holds the
sha256 of ``nn.train(...).flat`` for one model and for a stack of three. The
goldens of ``tests/test_golden.py`` compare floats within 1e-10 off their
recorded build; these hashes are compared only on the build they were
recorded on, and pin every bit there.

Re-record only for a change that alters these outputs on purpose:
``PYTHONPATH=src python tests/test_train_pin.py``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from reconlab import data, nn
from test_golden import build

PIN = Path(__file__).parent / "golden" / "train_sha256.json"
WIDTHS = (4, 5, 4, 3)
CONFIGS = {
    "gd": nn.TrainConfig(optimizer="gd_momentum", learning_rate=0.2, epochs=12,
                         init_seed=3, shuffle_seed=4, noise_seed=5),
    "sgd": nn.TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, epochs=6,
                          batch_size=5, init_seed=3, shuffle_seed=4, noise_seed=5),
    "dpgd": nn.TrainConfig(optimizer="dpgd", learning_rate=0.2, epochs=8, clip_norm=1.0,
                           noise_multiplier=1.5, init_seed=3, shuffle_seed=4, noise_seed=5),
    "dpgd_sigma0": nn.TrainConfig(optimizer="dpgd", learning_rate=0.2, epochs=8, clip_norm=1.0,
                                  noise_multiplier=0.0, init_seed=3, shuffle_seed=4,
                                  noise_seed=5),
}
STACK = 3


def _datasets():
    """One model's 17 rows, and a stack of STACK models sharing its first 16
    rows, each with a last row of its own (the first model's is the one
    model's)."""
    ds = data.synth_classification(d=4, num_classes=3, n=16 + STACK, cluster_std=0.3, seed=21)
    n = 16
    X = np.stack([np.vstack([ds.X[:n], ds.X[n + k]]) for k in range(STACK)])
    y = np.stack([np.append(ds.y[:n], ds.y[n + k]) for k in range(STACK)])
    return data.LabeledDataset(X[0], y[0], 3), SimpleNamespace(X=X, y=y)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def hashes() -> dict:
    one, stack = _datasets()
    out = {}
    for act in sorted(nn.ACTIVATIONS):
        arch = nn.MlpArchitecture(WIDTHS, activation=act)
        for name, cfg in CONFIGS.items():
            configs = [replace(cfg, init_seed=cfg.init_seed + k, noise_seed=cfg.noise_seed + k)
                       for k in range(STACK)]
            out[f"{act}/{name}/one"] = _sha(nn.train(one, arch, cfg).flat)
            out[f"{act}/{name}/stack"] = _sha(nn.train(stack, arch, *configs).flat)
    return out


def record() -> None:
    with open(PIN, "w") as f:
        json.dump({"build": build(), "hashes": hashes()}, f, indent=1)
        f.write("\n")


def test_trained_bytes_match_the_pinned_sha256():
    pin = json.loads(PIN.read_text())
    if pin["build"] != build():
        pytest.skip(f"hashes recorded on {pin['build']}")
    got = hashes()
    assert sorted(got) == sorted(pin["hashes"])
    assert [key for key, sha in pin["hashes"].items() if got[key] != sha] == []


if __name__ == "__main__":
    record()
