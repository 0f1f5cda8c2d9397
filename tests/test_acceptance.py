"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion. The heavy
shadow-model block (criteria A2, A5, A6) shares one set of 2000 shadow
trainings, made once per process by ``desk_models``; expect a few minutes
total. ``tests/test_golden.py`` pins their A2 feature matrix.
"""

import functools
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from reconlab import accounting, glm, metrics, mia, nn, rero, shadow
from reconlab.rero import rero_soundness_grid
from reconlab.data import SplitSpec, synth_classification, split
from reconlab.rng import Rng, _derive


def report(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


# =============================================================== A1: GLM

def plant_and_fit(family, lam, g):
    """One random instance with a planted target; retries degenerate draws."""
    for _ in range(20):
        d = int(g.integers(2, 51))
        if family == "logistic":
            # keep well away from separability: near-separable fits blow up
            # theta and the target's residual vanishes, so no finite-precision
            # solver can recover the point from the optimum
            n = int(g.integers(8 * d, 1001))
            X = np.hstack([np.ones((n, 1)), g.normal(size=(n, d))])
            Y = g.integers(0, 2, size=n).astype(float)
            y_true = float(g.integers(0, 2))
        else:
            n = int(g.integers(d + 10, 1001))
            X = np.hstack([np.ones((n, 1)), g.normal(size=(n, d))])
            Y = g.normal(size=n)
            y_true = float(g.normal())
        x_true = np.concatenate([[1.0], g.normal(size=d)])
        Xf = np.vstack([X, x_true[None, :]])
        Yf = np.concatenate([Y, [y_true]])
        try:
            theta = glm.fit_glm(Xf, Yf, glm.GlmSpec(family, lam))
        except glm.GlmError:
            continue  # e.g. separable logistic draw at lam=0
        return theta, X, Y, x_true, y_true
    raise RuntimeError("could not generate a fittable instance")


def test_a1_glm_exact_reconstruction():
    families = [("linear", 0.0), ("linear", 0.1), ("linear", 1.0),
                ("logistic", 0.0), ("logistic", 0.1)]
    worst = 0.0
    for family, lam in families:
        g = np.random.default_rng(_derive(0, ("a1", family, lam)) % 2 ** 32)
        for _ in range(100):
            theta, X, Y, x_true, y_true = plant_and_fit(family, lam, g)
            x_hat, y_hat = glm.reconstruct_glm(theta, X, Y, glm.GlmSpec(family, lam))
            err = max(float(np.max(np.abs(x_hat - x_true))), abs(y_hat - y_true))
            worst = max(worst, err)
    full_rank_ok = worst <= 1e-6

    # appendix variant: intercept-free least squares with the label known
    g = np.random.default_rng(17)
    valid = hits = 0
    while valid < 100:
        d = int(g.integers(2, 20))
        n = int(g.integers(d + 5, 200))
        X = g.normal(size=(n, d))
        Y = g.normal(size=n)
        x_true = g.normal(size=d)
        y_true = float(g.normal())
        theta = glm.fit_glm(np.vstack([X, x_true[None, :]]),
                            np.concatenate([Y, [y_true]]),
                            glm.GlmSpec("linear", 0.0, intercept=False))
        try:
            c1, c2 = glm.reconstruct_linreg_no_intercept(theta, X, Y, y_true)
        except glm.GlmError:
            continue  # discriminant-invalid draw does not count
        valid += 1
        if min(np.max(np.abs(c1 - x_true)), np.max(np.abs(c2 - x_true))) <= 1e-6:
            hits += 1
    no_intercept_ok = hits >= 99

    report("A1 glm exact reconstruction", full_rank_ok and no_intercept_ok,
           f"max err {worst:.2e}; no-intercept {hits}/100")


# ================================================== A2/A5/A6 shared block

DESK_ARCH = nn.MlpArchitecture((64, 10, 10), activation="elu")
DESK_CFG = nn.TrainConfig(optimizer="gd_momentum", learning_rate=0.2, momentum=0.9,
                          epochs=50, init_seed=101, shuffle_seed=102, noise_seed=103)
RECONN_CFG = shadow.RecoNNConfig(epochs=100, seed=7)


def desk_setup():
    pool = synth_classification(64, 10, 5000, 0.15, seed=11)
    fixed, shadow_all, targets = split(pool, SplitSpec(500, 2200, 100, split_seed=5))
    probe = shadow_all.subset(range(200))          # black-box probe inputs
    shadow_pool = shadow_all.subset(range(200, 2200))
    oracle = metrics.oracle_report(targets.X, np.vstack([fixed.X, shadow_all.X]))
    return fixed, shadow_pool, probe, targets, oracle


@pytest.fixture(scope="module")
def desk_profile():
    return desk_setup()


@functools.cache
def desk_models() -> list:
    """The desk shadow models, trained once per process: A2, A5 and A6 attack
    them, and the A2 golden pins their features."""
    fixed, shadow_pool, _, _, _ = desk_setup()
    t0 = time.time()
    models = shadow.gen_shadow_models(fixed, shadow_pool, DESK_ARCH, DESK_CFG)
    print(f"\n[desk fixture] {len(models)} shadow trainings in {time.time() - t0:.0f}s",
          file=sys.stderr, flush=True)
    return models


@pytest.fixture(scope="module")
def desk_shadow_models():
    return desk_models()


@pytest.fixture(scope="module")
def desk_released(desk_profile):
    fixed, _, _, targets, _ = desk_profile
    return list(shadow.train_many(fixed, targets, DESK_ARCH, [DESK_CFG] * len(targets)))


def run_desk_attack(models, shadow_pool, featurizer, released, targets):
    s = shadow.build_shadow_set(models, shadow_pool, featurizer)
    phi = shadow.train_reconn(s, RECONN_CFG)
    return float(np.mean(shadow.attack_errors(phi, released, targets.X)))


def test_a2_shadow_attack_beats_oracle(desk_profile, desk_shadow_models, desk_released):
    fixed, shadow_pool, _, targets, oracle = desk_profile
    mean_mse = run_desk_attack(desk_shadow_models, shadow_pool,
                               shadow.Featurizer("whitebox"), desk_released, targets)
    report("A2 shadow attack beats NN oracle", mean_mse < oracle.mean_nn_distance,
           f"attack {mean_mse:.4f} vs oracle {oracle.mean_nn_distance:.4f}")


def test_a5_blackbox_parity(desk_profile, desk_shadow_models, desk_released):
    fixed, shadow_pool, probe, targets, oracle = desk_profile
    mean_mse = run_desk_attack(desk_shadow_models, shadow_pool,
                               shadow.Featurizer("blackbox", probe=probe.X),
                               desk_released, targets)
    report("A5 black-box attack beats NN oracle", mean_mse < oracle.mean_nn_distance,
           f"attack {mean_mse:.4f} vs oracle {oracle.mean_nn_distance:.4f}")


def test_a6_layer_restricted_parity(desk_profile, desk_shadow_models, desk_released):
    fixed, shadow_pool, _, targets, oracle = desk_profile
    mean_mse = run_desk_attack(desk_shadow_models, shadow_pool,
                               shadow.Featurizer("layers", layers=(1,)),
                               desk_released, targets)
    report("A6 final-layer attack beats NN oracle", mean_mse < oracle.mean_nn_distance,
           f"attack {mean_mse:.4f} vs oracle {oracle.mean_nn_distance:.4f}")


# ================================================= A3: random-init ablation

def test_a3_random_init_ablation_defeats_attack(desk_profile):
    fixed, shadow_pool, _, targets, oracle = desk_profile
    models = shadow.gen_shadow_models(fixed, shadow_pool, DESK_ARCH, DESK_CFG,
                                      random_init=True)
    s = shadow.build_shadow_set(models, shadow_pool, shadow.Featurizer("whitebox"))
    phi = shadow.train_reconn(s, RECONN_CFG)
    rel_cfgs = [replace(DESK_CFG, init_seed=_derive(909, ("release-init", i)))
                for i in range(len(targets))]
    released = shadow.train_many(fixed, targets, DESK_ARCH, rel_cfgs)
    mean_mse = float(np.mean(shadow.attack_errors(phi, released, targets.X)))
    report("A3 random-init ablation defeats attack", mean_mse > oracle.mean_nn_distance,
           f"attack {mean_mse:.4f} vs oracle {oracle.mean_nn_distance:.4f}")


# ============================================================ A4: DP sweep

def test_a4_dp_mitigation_tradeoff():
    pool = synth_classification(32, 10, 2000, 0.15, seed=21)
    fixed, shadow_pool, targets = split(pool, SplitSpec(200, 300, 20, split_seed=5))
    arch = nn.MlpArchitecture((32, 8, 10), activation="elu")
    oracle = metrics.oracle_report(
        targets.X, np.vstack([fixed.X, shadow_pool.X])).mean_nn_distance
    sigmas = [0.0, 0.5, 2.0, 8.0]
    epochs = 25

    def run_config(sigma, rep):
        if sigma == 0.0:
            return nn.TrainConfig(epochs=epochs, init_seed=_derive(rep, "init"))
        return nn.TrainConfig(optimizer="dpgd", epochs=epochs, clip_norm=1.0,
                              noise_multiplier=sigma, init_seed=_derive(rep, "init"),
                              noise_seed=_derive(rep, ("adv", sigma)))

    table = shadow.dp_tradeoff(
        fixed, shadow_pool, targets, arch, sigmas, 3, run_config,
        lambda sigma, rep, i: _derive(rep, ("released", sigma, i)),
        shadow.RecoNNConfig(epochs=80, batch_size=64, seed=7))
    means = {s: row[0] for s, row in zip(sigmas, table)}
    ses = {s: row[1] for s, row in zip(sigmas, table)}
    monotone = all(
        means[sigmas[i + 1]] >= means[sigmas[i]] - 2 * ses[sigmas[i + 1]]
        for i in range(len(sigmas) - 1)
    )
    strongest_noise_defeats = means[sigmas[-1]] > oracle
    detail = " ".join(f"s{s}:{means[s]:.4f}" for s in sigmas) + f" oracle {oracle:.4f}"
    report("A4 DP noise sweep mitigates the attack",
           monotone and strongest_noise_defeats, detail)


# ========================================================== A7: informed MIA

def test_a7_informed_mia_and_loss_overlap():
    pool = synth_classification(32, 10, 400, 0.15, seed=31)
    fixed, _, targets = split(pool, SplitSpec(100, 0, 10, split_seed=2))
    arch = nn.MlpArchitecture((32, 8, 10), activation="elu")
    cfg = nn.TrainConfig(epochs=30, learning_rate=0.2, momentum=0.9)

    correct = 0
    attack = mia.trivial_deterministic_mia(fixed, targets[0], targets[1], arch, cfg)
    for t in range(100):
        trial = mia.informed_mia_protocol(
            fixed, targets[0], targets[1], arch, cfg, attack,
            trial_seed=_derive(3, ("trial", t)))
        correct += trial.correct
    accuracy_one = correct == 100

    z = targets[2]
    in_l, out_l = mia.loss_histogram(z, fixed, arch, cfg, n_models=30, vary_init=False)
    separable = max(in_l) < min(out_l) or max(out_l) < min(in_l)
    in_l, out_l = mia.loss_histogram(z, fixed, arch, cfg, n_models=30, vary_init=True)
    overlap = mia.overlap_coefficient(in_l, out_l)

    report("A7 informed MIA trivially wins under determinism",
           accuracy_one and separable and overlap > 0.5,
           f"accuracy {correct}/100; random-init overlap {overlap:.3f}")


# ===================================================== A8: bound formulas

def test_a8_rero_formula_suite():
    checks = []
    # plain arithmetic cases
    checks.append(abs(rero.puredp_to_rero(math.log(10), 0.01) - 0.1) < 1e-12)
    checks.append(rero.rero_to_dp(0.0, 0.75) == 0.5)
    checks.append(rero.kappa_two_point(0.5) == 0.5)
    checks.append(rero.kappa_uniform_ball(0.5, 1) == 0.5)
    checks.append(abs(rero.kappa_uniform_ball(0.5, 10) - 0.5 ** 10) < 1e-18)
    checks.append(rero.kappa_gaussian_bound(1.0, 0.5, 4) == 1.0)

    # pure-DP bound as the large-alpha limit of the RDP bound
    lim = rero.rdp_to_rero(1e9, 1.2, 0.03)
    direct = rero.puredp_to_rero(1.2, 0.03)
    checks.append(abs(lim - direct) / direct <= 1e-6)

    # zCDP bound as the alpha-minimized RDP bound
    for rho, kappa in ((0.1, 0.01), (0.5, 0.001)):
        alphas = 1.0 + np.logspace(-6, 6, 400_001)
        scan = math.exp(((alphas - 1) / alphas * (math.log(kappa) + alphas * rho)).min())
        checks.append(abs(rero.zcdp_to_rero(rho, kappa) - scan) <= 1e-9)

    # uniform-ball baseline vs Monte-Carlo, d <= 5
    mc_ok = True
    for d in range(1, 6):
        est, (lo, hi) = rero.kappa_monte_carlo(
            rero.UniformBallPrior(d), rero.l2_error, 0.5, [np.zeros(d)], seed=d)
        mc_ok &= abs(est - 0.5 ** d) <= 3 * max(hi - est, 1e-6)
    checks.append(mc_ok)

    # Gaussian kappa bound dominates a 10^6-sample chi-squared simulation
    g = np.random.default_rng(0)
    r2 = (g.normal(0, 1.0, size=(1_000_000, 3)) ** 2).sum(axis=1)
    hits = int((r2 <= 0.25).sum())
    est = hits / 1_000_000
    lo, _ = rero.wilson_interval(hits, 1_000_000)
    checks.append(rero.kappa_gaussian_bound(0.5, 1.0, 3) >= est - 3 * (est - lo))

    report("A8 robustness bound formula suite", all(checks),
           f"{sum(checks)}/{len(checks)} checks")


# ============================================== A9: empirical bound soundness

def test_a9_rero_soundness_grid():
    cells = list(rero_soundness_grid(n_trials=2000, seed=0))
    violations = [c for c in cells if not c["sound"]]
    nonvacuous = [c for c in cells if c["gamma"] < 1.0]
    report("A9 empirical rates never beat the zCDP bound",
           not violations and len(nonvacuous) >= 3,
           f"{len(cells) - len(violations)}/{len(cells)} cells sound, "
           f"{len(nonvacuous)} non-vacuous")


# ============================================== A10: numerical hygiene

def test_a10_numerical_hygiene():
    # gradient vs central finite differences
    arch = nn.MlpArchitecture((6, 5, 4, 3), activation="elu")
    p = nn.init_params(arch, 11)
    g_data = np.random.default_rng(2)
    X = g_data.uniform(0, 1, size=(8, 6))
    y = g_data.integers(0, 3, size=8)
    _, g = nn.loss_and_grad(p, X, y)
    g = g.flatten()
    theta = p.flatten()
    h = 1e-5
    num = np.empty_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        lp, _ = nn.loss_and_grad(nn.ModelParams.unflatten(arch, tp), X, y)
        lm, _ = nn.loss_and_grad(nn.ModelParams.unflatten(arch, tm), X, y)
        num[i] = (lp - lm) / (2 * h)
    rel = np.max(np.abs(g - num) / np.maximum(np.abs(num), 1e-6))
    grad_ok = rel <= 1e-4

    # bitwise determinism of training
    ds = synth_classification(8, 3, 60, 0.1, seed=1)
    arch2 = nn.MlpArchitecture((8, 6, 3))
    cfg = nn.TrainConfig(optimizer="dpgd", epochs=10, clip_norm=1.0,
                         noise_multiplier=2.0)
    det_ok = np.array_equal(nn.train(ds, arch2, cfg).flatten(),
                            nn.train(ds, arch2, cfg).flatten())

    # calibrate/account round-trip
    cal_ok = True
    for eps in (0.5, 5.0, 50.0):
        sigma = accounting.calibrate_noise(eps, 1e-5, steps=100, clip_norm=1.0)
        back = accounting.zcdp_to_approx_dp(
            accounting.account_dpgd(100, 1.0, sigma), 1e-5)
        cal_ok &= back <= eps and (eps - back) / eps <= 1e-6

    report("A10 numerical hygiene", grad_ok and det_ok and cal_ok,
           f"grad rel err {rel:.2e}")
