import numpy as np
import pytest

from reconlab import mia, nn
from reconlab.data import SplitSpec, synth_classification, split
from reconlab.rng import _derive


def setup_game(seed=1):
    ds = synth_classification(6, 2, 50, 0.15, seed=seed)
    fixed, _, targets = split(ds, SplitSpec(30, 0, 2, split_seed=3))
    arch = nn.MlpArchitecture((6, 4, 2))
    cfg = nn.TrainConfig(epochs=10)
    return fixed, targets[0], targets[1], arch, cfg


def test_trivial_attack_identifies_training_candidate():
    fixed, z0, z1, arch, cfg = setup_game()
    theta0 = nn.train(fixed.with_point(z0), arch, cfg)
    assert mia.trivial_deterministic_mia(theta0, fixed, cfg, z0, z1) == 0
    # symmetric: swapping the candidates flips the guess
    assert mia.trivial_deterministic_mia(theta0, fixed, cfg, z1, z0) == 1


def test_trivial_attack_undecided_on_identical_candidates():
    fixed, z0, _, arch, cfg = setup_game()
    theta = nn.train(fixed.with_point(z0), arch, cfg)
    with pytest.raises(mia.UndecidedError):
        mia.trivial_deterministic_mia(theta, fixed, cfg, z0, z0)


def test_protocol_with_trivial_attack_always_correct():
    fixed, z0, z1, arch, cfg = setup_game()
    for t in range(20):
        trial = mia.informed_mia_protocol(
            fixed, z0, z1, arch, cfg, mia.trivial_deterministic_mia,
            trial_seed=_derive(0, ("trial", t)),
        )
        assert trial.correct


def test_protocol_constant_guesser_near_half():
    fixed, z0, z1, arch, cfg = setup_game()
    correct = 0
    n = 200
    for t in range(n):
        trial = mia.informed_mia_protocol(
            fixed, z0, z1, arch, nn.TrainConfig(epochs=0),
            attack_fn=lambda *a: 0, trial_seed=_derive(1, ("trial", t)),
        )
        correct += trial.correct
    # 99% binomial CI around 0.5 at n=200 is roughly +-0.09
    assert abs(correct / n - 0.5) < 0.1


def test_loss_histogram_separable_without_init_variation():
    fixed, z0, _, arch, cfg = setup_game()
    in_losses, out_losses = mia.loss_histogram(z0, fixed, arch, cfg, n_models=5,
                                               vary_init=False)
    # deterministic training collapses each side to a single atom
    assert np.ptp(in_losses) == 0.0 and np.ptp(out_losses) == 0.0
    assert in_losses[0] != out_losses[0]


def test_loss_histogram_without_init_variation_trains_one_pair(monkeypatch):
    fixed, z0, _, arch, cfg = setup_game()
    want_in = mia.single_example_loss(nn.train(fixed.with_point(z0), arch, cfg), z0)
    want_out = mia.single_example_loss(nn.train(fixed, arch, cfg), z0)
    calls = []
    train = nn.train
    monkeypatch.setattr(nn, "train", lambda *a: calls.append(a) or train(*a))
    in_losses, out_losses = mia.loss_histogram(z0, fixed, arch, cfg, n_models=5,
                                               vary_init=False)
    assert len(calls) == 2
    assert in_losses.tolist() == [want_in] * 5 and out_losses.tolist() == [want_out] * 5


def test_loss_histogram_varied_init_spreads():
    fixed, z0, _, arch, cfg = setup_game()
    in_losses, out_losses = mia.loss_histogram(z0, fixed, arch, cfg, n_models=5,
                                               vary_init=True)
    assert np.ptp(in_losses) > 0.0
    assert np.ptp(out_losses) > 0.0


def test_overlap_coefficient_bounds():
    g = np.random.default_rng(1)
    a = g.normal(0, 1, size=1000)
    assert mia.overlap_coefficient(a, a) > 0.95
    b = g.normal(100, 1, size=1000)
    assert mia.overlap_coefficient(a, b) == 0.0
    c = g.normal(0.2, 1, size=1000)
    assert 0.0 < mia.overlap_coefficient(a, c) <= 1.0
