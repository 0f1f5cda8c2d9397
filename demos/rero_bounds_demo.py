"""Reconstruction robustness: formal bounds versus an empirical MAP attacker.

A mechanism is (eta, gamma)-reconstruction robust if no attack recovers the
unknown point to within error eta with probability above gamma. The bound
calculus turns DP guarantees into gamma values; here we release a noisy mean
of ten points and check that the best possible (MAP) attacker stays below
the zCDP-derived bound.
"""

import numpy as np

from reconlab import accounting, rero

# ------------------------------------------------ bound calculus examples

kappa = 0.01  # prior baseline: best blind guess succeeds 1% of the time
print("gamma from eps-DP, eps=ln(10):",
      rero.puredp_to_rero(np.log(10.0), kappa, eta=0.1).gamma)
print("gamma from rho-zCDP, rho=0.5: ",
      rero.zcdp_to_rero(0.5, kappa, eta=0.1).gamma)
print("delta implied by (0, 0.75)-ReRo:", rero.rero_to_dp(0.0, 0.75))

# ------------------------------------- empirical check on a noisy mean

g = np.random.default_rng(0)
fixed = g.uniform(0, 1, size=(9, 2))
prior = rero.FiniteDiscretePrior(g.uniform(0, 1, size=(5, 2)), g.dirichlet(np.ones(5)))
noise, eta = 0.25, 0.05
n = fixed.shape[0] + 1

diam = max(float(np.linalg.norm(a - b)) for a in prior.points for b in prior.points)
rho = accounting.gaussian_mechanism_zcdp(diam / n, noise)
kappa, _ = rero.kappa_monte_carlo(prior, rero.l2_error, eta, prior.points)
gamma = rero.zcdp_to_rero(rho, kappa, eta).gamma


def mechanism(fixed, zs, rngs):
    # one noisy mean of fixed + z per trial; row t draws from rngs[t]
    noise_draws = np.stack([r.once().normal(0.0, noise, size=zs.shape[1]) for r in rngs])
    return (fixed.sum(axis=0) + zs) / n + noise_draws


def likelihood(thetas, zs):
    mu = (fixed.sum(axis=0)[None, :] + zs) / n
    return np.exp(-((thetas[:, None, :] - mu) ** 2).sum(axis=2) / (2 * noise ** 2))


def attack(thetas):
    return rero.map_attack_finite(prior, likelihood, thetas, rero.l2_error, eta)


rate, (lo, hi) = rero.empirical_rero(mechanism, prior, attack, fixed,
                                     rero.l2_error, eta, n_trials=2000, seed=1)
print(f"\nnoisy mean, eta={eta}: kappa={kappa:.3f} bound gamma={gamma:.3f}")
print(f"MAP attack success rate {rate:.3f} (99% CI [{lo:.3f}, {hi:.3f}])")
print("bound holds:", rate <= gamma + 3 * max(0.0, hi - rate))
