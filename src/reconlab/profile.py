"""Experiment configs: one schema of keys, their resolution and hash, and
the data split, models and featurizer a config builds."""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
from dataclasses import replace
from typing import TYPE_CHECKING

from .persist import config_hash, int_tuple
from .rng import _derive

if TYPE_CHECKING:
    from . import nn, shadow


class ConfigError(ValueError):
    pass


class RangeError(ValueError, argparse.ArgumentTypeError):
    """A value outside its range. named() puts the config key before the
    message, and argparse the flag."""


def _ranged(cast, ok, rule: str):
    """cast, refusing a value ok() rejects: the cast of a SCHEMA key or the
    type= of a flag that has a range."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise RangeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value: 'x'"
    return parse


def at_least(low: int):
    """A cast to an int >= low."""
    return _ranged(int, lambda value: value >= low, f">= {low}")


finite = _ranged(float, math.isfinite, "finite")
positive = _ranged(finite, lambda value: value > 0, "> 0")
nonnegative = _ranged(finite, lambda value: value >= 0, ">= 0")
unit_interval = _ranged(finite, lambda value: 0 <= value <= 1, "in [0, 1]")


def nonnegatives(text: str) -> list:
    """Comma-separated finite floats, each >= 0."""
    return [nonnegative(t) for t in text.split(",")]


# "section.key": (cast, default), every key a config file may set. A default
# is written as a file would write it and goes through the same cast, so an
# omitted key and its spelt-out default resolve alike. None: no default.
SCHEMA = {
    "profile.name": (str, "desk_synthetic"),
    "profile.seed": (int, "11"),
    "data.d": (int, "64"),
    "data.num_classes": (int, "10"),
    "data.n": (int, "5000"),
    "data.cluster_std": (float, "0.15"),
    "data.images": (str, None),
    "data.labels": (str, None),
    "data.downsample_factor": (int, "2"),
    "split.fixed_size": (int, "500"),
    "split.shadow_size": (int, "2000"),
    "split.test_target_size": (int, "100"),
    "split.split_seed": (int, "5"),
    "released.hidden_widths": (int_tuple, "10"),
    "released.activation": (str, "elu"),
    "released.optimizer": (str, "gd_momentum"),
    "released.learning_rate": (float, "0.2"),
    "released.momentum": (float, "0.9"),
    "released.epochs": (int, "50"),
    "released.batch_size": (lambda t: t if t == "full" else int(t), "full"),
    "released.clip_norm": (float, "0"),
    "released.noise_multiplier": (lambda t: None if t == "none" else float(t), "none"),
    "released.init_seed": (int, "101"),
    "released.shuffle_seed": (int, "102"),
    "released.noise_seed": (int, "103"),
    "reconn.hidden_widths": (lambda t: None if t == "auto" else int_tuple(t), "auto"),
    "reconn.learning_rate": (float, "0.001"),
    "reconn.batch_size": (int, "128"),
    "reconn.epochs": (int, "100"),
    "reconn.seed": (int, "7"),
    "featurizer.mode": (str, "whitebox"),
    "featurizer.layers": (int_tuple, None),  # unset: the last layer
    "featurizer.probe_size": (at_least(1), "200"),
    "dp.delta": (float, "1e-5"),
    "dp.clip_norm": (positive, "1.0"),
}


@contextlib.contextmanager
def named(key):
    """Turn a ValueError raised in the block into a ConfigError naming key (a
    config key or section); a ConfigError passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


class Config(dict):
    """A resolved config, {"section.key": value}, not changed after resolve.
    Reading a key outside SCHEMA is a program error (KeyError); reading a key
    the file left unset and that has no default is bad input (ConfigError)."""

    def __missing__(self, key):
        if key not in SCHEMA:
            raise KeyError(f"{key} is not in SCHEMA")
        raise ConfigError(f"missing config key {key}")

    @functools.cached_property
    def hash(self) -> str:
        """persist.config_hash of the sorted ``key=repr(value)`` lines."""
        return config_hash("".join(f"{key}={val!r}\n" for key, val in sorted(self.items())))


def resolve(raw: dict) -> Config:
    """Every SCHEMA key of raw ({"section.key": text}) cast, with each default
    filled in; an empty value counts as unset. A value its cast refuses
    raises a ConfigError naming the key."""
    cfg = Config()
    for key, (cast, default) in SCHEMA.items():
        text = raw.get(key) or default
        if text is not None:
            with named(key):
                cfg[key] = cast(text)
    return cfg


def parse_config(path: str) -> Config:
    """The resolved config of a file. A key not in SCHEMA raises a ConfigError
    naming it."""
    raw = {}
    section = ""
    with open(path) as f:
        text = f.read()
    for text_line in text.splitlines():
        line = text_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed config line: {text_line!r}")
        key = f"{section}.{key.strip()}"
        if key not in SCHEMA:
            raise ConfigError(f"{path}: unknown config key {key}")
        raw[key] = val.strip()
    return resolve(raw)


def _fields(cfg: Config, section: str, names: str) -> dict:
    """{name: cfg["section.name"]} for each of the space-separated names."""
    return {name: cfg[f"{section}.{name}"] for name in names.split()}


def load_profile(cfg: Config):
    """Build (fixed, shadow_pool, targets, arch, train_config) from a config."""
    from . import data, nn

    profile = cfg["profile.name"]
    if profile == "desk_synthetic":
        with named("data"):
            dataset = data.synth_classification(
                **_fields(cfg, "data", "d num_classes n cluster_std"), seed=cfg["profile.seed"])
    elif profile in ("desk_mnist14", "full_mnist"):
        dataset = data.load_idx(cfg["data.images"], cfg["data.labels"])
        if profile == "desk_mnist14":
            side = math.isqrt(dataset.dim)
            dataset = data.downsample_images(dataset, side, side, cfg["data.downsample_factor"])
    else:
        raise ConfigError(f"unknown profile {profile!r}")

    with named("split"):
        spec = data.SplitSpec(
            **_fields(cfg, "split", "fixed_size shadow_size test_target_size split_seed"))
        fixed, shadow_pool, targets = data.split(dataset, spec)

    with named("released.hidden_widths"):
        arch = nn.MlpArchitecture(
            (dataset.dim, *cfg["released.hidden_widths"], dataset.num_classes))
    with named("released.activation"):
        arch = replace(arch, activation=cfg["released.activation"])
    with named("released"):
        train_cfg = nn.TrainConfig(
            **_fields(cfg, "released", "optimizer learning_rate momentum epochs batch_size "
                      "noise_multiplier init_seed shuffle_seed noise_seed"),
            clip_norm=cfg["released.clip_norm"] or None,
        )
    return fixed, shadow_pool, targets, arch, train_cfg


def reconn_config(cfg: Config) -> shadow.RecoNNConfig:
    from . import shadow

    config = shadow.RecoNNConfig(**_fields(cfg, "reconn", "learning_rate batch_size epochs seed"))
    with named("reconn.hidden_widths"):
        return replace(config, hidden_widths=cfg["reconn.hidden_widths"])


def build_featurizer(cfg: Config, shadow_pool, arch: nn.MlpArchitecture):
    """The featurizer of the config's featurizer.* keys. Layers mode defaults
    to the last layer. Blackbox probes are the first P shadow-pool points,
    which are then excluded from shadow targets. Returns (featurizer,
    remaining shadow pool)."""
    from . import shadow

    mode = cfg["featurizer.mode"]
    if mode == "whitebox":
        return shadow.Featurizer("whitebox"), shadow_pool
    if mode == "layers":
        idx = cfg.get("featurizer.layers", (arch.num_layers - 1,))
        if not idx or not all(0 <= i < arch.num_layers for i in idx):
            raise ConfigError(f"featurizer.layers must list layer indices in "
                              f"0..{arch.num_layers - 1}")
        return shadow.Featurizer("layers", layers=idx), shadow_pool
    if mode == "blackbox":
        p = cfg["featurizer.probe_size"]
        if p >= len(shadow_pool):
            raise ConfigError("featurizer.probe_size must be smaller than the shadow pool")
        probe = shadow_pool.subset(range(p))
        rest = shadow_pool.subset(range(p, len(shadow_pool)))
        return shadow.Featurizer("blackbox", probe=probe.X), rest
    raise ConfigError(f"unknown featurizer mode {mode!r}")


def run_config(base: nn.TrainConfig, clip: float, sigma: float, rep: int) -> nn.TrainConfig:
    """dp-sweep's training config of repeat rep at noise multiplier sigma: the
    release's own algorithm at sigma 0, else DP-GD clipped at clip. Each repeat
    draws its own initialisation, and each (sigma, repeat) its own DP noise."""
    init_seed = _derive(base.init_seed, ("rep", rep))
    if sigma == 0.0:
        return replace(base, init_seed=init_seed)
    return replace(base, optimizer="dpgd", clip_norm=clip, noise_multiplier=sigma,
                   init_seed=init_seed, noise_seed=_derive(base.noise_seed, ("adv", sigma, rep)))
