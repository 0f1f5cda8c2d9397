"""Informed membership inference and loss-distribution diagnostics.

The informed MIA game hides one of two known candidate records in the
training set; the adversary, who knows everything else, guesses which one
was used. With deterministic training the game is trivially winnable by
retraining both candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import DataPoint, LabeledDataset
from .rng import Rng, _derive

__all__ = [
    "MiaTrial",
    "UndecidedError",
    "informed_mia_protocol",
    "trivial_deterministic_mia",
    "loss_histogram",
    "overlap_coefficient",
    "single_example_loss",
]

TIE_EPS = 1e-12
OVERLAP_BINS = 20  # shared histogram bins of overlap_coefficient


class UndecidedError(RuntimeError):
    """The trivial attack cannot separate the two candidate models."""


@dataclass(frozen=True)
class MiaTrial:
    b: int
    b_hat: int
    correct: bool


def informed_mia_protocol(fixed: LabeledDataset, z0: DataPoint, z1: DataPoint,
                          arch: nn.MlpArchitecture, config: nn.TrainConfig,
                          attack_fn, trial_seed: int) -> MiaTrial:
    """One round of the informed MIA game: sample b, train on z_b, let
    attack_fn(released model) guess b."""
    b = int(Rng(trial_seed).child("bit").once().integers(0, 2))
    theta = nn.train(fixed.with_point(z0 if b == 0 else z1), arch, config)
    b_hat = int(attack_fn(theta))
    return MiaTrial(b, b_hat, b == b_hat)


def trivial_deterministic_mia(fixed: LabeledDataset, z0: DataPoint, z1: DataPoint,
                              arch: nn.MlpArchitecture, config: nn.TrainConfig):
    """The adversary that retrains both candidates: a function from a released
    model to the candidate, 0 or 1, whose retrained model is nearer to it.
    It trains each candidate once, however many rounds it plays."""
    candidates = [nn.train(fixed.with_point(z), arch, config) for z in (z0, z1)]

    def guess(theta: nn.ModelParams) -> int:
        d0, d1 = (c.l2_distance(theta) for c in candidates)
        if abs(d0 - d1) < TIE_EPS:
            raise UndecidedError("candidate models are equidistant from the release")
        return 0 if d0 < d1 else 1

    return guess


def single_example_loss(theta: nn.ModelParams, z: DataPoint) -> float:
    loss, _ = nn.loss_and_grad(theta, z.x[None, :], np.asarray([z.y]))
    return loss


def loss_histogram(z: DataPoint, fixed: LabeledDataset, arch: nn.MlpArchitecture,
                   config: nn.TrainConfig, n_models: int, vary_init: bool):
    """Distributions of the target's loss under models trained with and without it."""
    if n_models < 2:
        raise ValueError("n_models must be >= 2")
    # training is a pure function: without init variation one in/out pair stands for all
    seeds = ([_derive(config.init_seed, ("hist-init", i)) for i in range(n_models)]
             if vary_init else [config.init_seed])
    in_losses, out_losses = [], []
    for seed in seeds:
        cfg = replace(config, init_seed=seed)
        in_losses.append(single_example_loss(nn.train(fixed.with_point(z), arch, cfg), z))
        out_losses.append(single_example_loss(nn.train(fixed, arch, cfg), z))
    repeats = n_models // len(seeds)
    return np.repeat(in_losses, repeats), np.repeat(out_losses, repeats)


def overlap_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    """Histogram intersection over OVERLAP_BINS shared bins, in [0, 1]."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        return 1.0
    ha, _ = np.histogram(a, bins=OVERLAP_BINS, range=(lo, hi))
    hb, _ = np.histogram(b, bins=OVERLAP_BINS, range=(lo, hi))
    return float(np.minimum(ha / len(a), hb / len(b)).sum())
