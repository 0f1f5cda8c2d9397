"""Reconstruction-robustness calculus.

A mechanism is (eta, gamma)-ReRo when no attack reconstructs the unknown
target to error <= eta with probability > gamma, jointly over the prior and
the mechanism's randomness. This module provides the baseline error kappa
for structured priors, the DP/RDP/zCDP-to-ReRo bounds and the reverse
ReRo-to-DP direction, the optimal MAP attack on finite priors, and
Monte-Carlo machinery for checking the bounds empirically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .accounting import gaussian_mechanism_zcdp
from .rng import Rng, _derive

__all__ = [
    "UniformBallPrior",
    "FiniteDiscretePrior",
    "l2_error",
    "ReRoBound",
    "wilson_interval",
    "kappa_uniform_ball",
    "kappa_gaussian_bound",
    "kappa_two_point",
    "kappa_monte_carlo",
    "rdp_to_rero",
    "puredp_to_rero",
    "zcdp_to_rero",
    "rero_to_dp",
    "prop_gamma",
    "map_attack_finite",
    "empirical_rero",
    "rero_soundness_grid",
]


# ---------------------------------------------------------------- priors

@dataclass(frozen=True)
class UniformBallPrior:
    """Uniform distribution over the d-dimensional Euclidean unit ball."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, numbers.Integral) or isinstance(self.d, bool) or self.d < 1:
            raise ValueError(f"d must be an int >= 1, got {self.d!r}")

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """n points from the stream rng, which the draws spend."""
        g = rng.once()
        x = g.normal(size=(n, self.d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return x * g.uniform(size=(n, 1)) ** (1.0 / self.d)


@dataclass(frozen=True, eq=False)
class FiniteDiscretePrior:
    """Finitely supported prior: points (m, d) with masses summing to 1.

    Compares and hashes by identity, so a prior can key a dict.
    """

    points: np.ndarray
    masses: np.ndarray
    _cdf: np.ndarray = field(init=False, repr=False)
    _balls: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        m = np.asarray(self.masses, dtype=np.float64)
        if pts.shape[0] != m.shape[0]:
            raise ValueError("points/masses length mismatch")
        if not np.all(np.isfinite(m)) or m.min() < 0 or abs(m.sum() - 1.0) > 1e-9:
            raise ValueError("masses must be finite, nonnegative and sum to 1")
        cdf = m.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "_cdf", cdf)

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """The draws of ``Generator.choice(m, size=n, p=masses)`` from the
        stream rng, which they spend, from a CDF built once per prior rather
        than once per call."""
        u = rng.once().random(n)
        return self.points[self._cdf.searchsorted(u, side="right")]

    def sample_each(self, rngs) -> np.ndarray:
        """(len(rngs), d): row t is the point ``sample(rngs[t], 1)`` draws,
        found for all streams by one search of the CDF."""
        u = np.array([rng.once().random() for rng in rngs], dtype=np.float64)
        return self.points[self._cdf.searchsorted(u, side="right")]

    def balls(self, error_fn, eta: float) -> np.ndarray:
        """(m, m) masks: row c marks the points within eta of point c.

        Cached per (error_fn, eta), keyed on the function object itself, so
        repeated queries of one prior compute the masks once.
        """
        key = (error_fn, eta)
        masks = self._balls.get(key)
        if masks is None:
            masks = np.stack([error_fn(self.points, c) <= eta for c in self.points])
            masks.flags.writeable = False
            self._balls[key] = masks
        return masks


# ------------------------------------------------------------- error fns

def l2_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance per row of a: to b if b is one point (d,), to the
    matching row of b if b is (n, d)."""
    diff = np.atleast_2d(a) - np.asarray(b)
    return np.linalg.norm(diff, axis=1)


# ----------------------------------------------------------------- bound

@dataclass(frozen=True)
class ReRoBound:
    eta: float
    kappa: float
    gamma: float
    source: str            # thm2 | cor1 | cor2 | prop1 | prop2
    privacy: dict = field(default_factory=dict)
    degenerate: bool = False


WILSON_Z = np.float64(2.5758293035489004)  # norm.ppf(0.995) bit for bit: 99% confidence
KAPPA_SAMPLES = 100_000  # prior draws behind a sampled kappa_monte_carlo estimate


def wilson_interval(successes: int, trials: int):
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------- kappas

def kappa_uniform_ball(eta: float, d: int):
    """Baseline error of the unit-ball uniform prior under l2: eta^d.

    The sup over guesses is attained at the center, where the eta-ball is
    fully contained. Returns (kappa, degenerate); eta >= 1 is vacuous.
    """
    if not d >= 1:
        raise ValueError("d must be >= 1")
    if not eta > 0:
        raise ValueError("eta must be positive")
    if eta >= 1:
        return 1.0, True
    return eta ** d, False


def kappa_gaussian_bound(eta: float, sigma: float, d: int) -> float:
    """Chi-squared tail upper bound exp((d/2)(1 - q + ln q)), q = eta^2/(sigma^2 d)."""
    if not (eta > 0 and sigma > 0 and d >= 1):
        raise ValueError("eta, sigma must be positive and d >= 1")
    q = eta ** 2 / (sigma ** 2 * d)
    if q >= 1:
        return 1.0
    return math.exp(0.5 * d * (1.0 - q + math.log(q)))


def kappa_two_point(p: float) -> float:
    """Under the 0/1 error with eta < 1, the best blind guess takes the larger mass."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    return max(p, 1.0 - p)


def kappa_monte_carlo(prior, error_fn, eta: float, candidates, seed: int = 0):
    """Estimate kappa as the max over candidate guesses of Pr[l(Z, z0) <= eta].

    FiniteDiscrete priors are handled exactly by enumeration; otherwise the
    probability is estimated by sampling, with a Wilson CI for the winner.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if candidates.shape[0] == 0:
        raise ValueError("need at least one candidate")
    if isinstance(prior, FiniteDiscretePrior):
        best = -1.0
        for c in candidates:
            p = float(prior.masses[error_fn(prior.points, c) <= eta].sum())
            best = max(best, p)
        return best, (best, best)
    samples = prior.sample(Rng(seed).child("kappa"), KAPPA_SAMPLES)
    best = max(int((error_fn(samples, c) <= eta).sum()) for c in candidates)
    return best / KAPPA_SAMPLES, wilson_interval(best, KAPPA_SAMPLES)


# --------------------------------------------------------- bound calculus

def _clamp(g: float) -> float:
    return min(1.0, max(0.0, g))


def _check_finite(**values) -> None:
    """Refuse an infinite parameter: inf - inf and 0 * inf give NaN, which
    _clamp maps to a bound of 0, the claim that no attack succeeds."""
    for name, value in values.items():
        if math.isinf(value):
            raise ValueError(f"{name} must be finite, got {value}")


def rdp_to_rero(alpha: float, eps: float, kappa: float, eta: float) -> ReRoBound:
    """(alpha, eps)-RDP gives gamma = (kappa * e^eps)^((alpha-1)/alpha)."""
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    _check_finite(alpha=alpha, eps=eps)
    if not 0 < kappa <= 1:
        raise ValueError("kappa must be in (0, 1]")
    gamma = _clamp(math.exp((alpha - 1.0) / alpha * (math.log(kappa) + eps)))
    return ReRoBound(eta, kappa, gamma, "thm2", {"alpha": alpha, "eps": eps})


def puredp_to_rero(eps: float, kappa: float, eta: float) -> ReRoBound:
    """eps-DP gives gamma = kappa * e^eps."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    _check_finite(eps=eps)
    if not 0 <= kappa <= 1:
        raise ValueError("kappa must be in [0, 1]")
    gamma = _clamp(kappa * math.exp(eps))
    return ReRoBound(eta, kappa, gamma, "cor1", {"eps": eps})


def zcdp_to_rero(rho: float, kappa: float, eta: float) -> ReRoBound:
    """rho-zCDP gives gamma = exp(-(sqrt(ln(1/kappa)) - sqrt(rho))^2) when
    rho < ln(1/kappa); otherwise the bound is vacuous (gamma = 1)."""
    if not 0 < kappa < 1:
        raise ValueError("kappa must be in (0, 1)")
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    log_inv = math.log(1.0 / kappa)
    if rho >= log_inv:
        return ReRoBound(eta, kappa, 1.0, "cor2", {"rho": rho}, degenerate=True)
    gamma = _clamp(math.exp(-(math.sqrt(log_inv) - math.sqrt(rho)) ** 2))
    return ReRoBound(eta, kappa, gamma, "cor2", {"rho": rho})


def rero_to_dp(eps: float, gamma: float) -> float:
    """Exact-reconstruction robustness over two-point priors implies
    (eps, delta)-DP with delta = max(0, (e^eps + 1) * gamma - e^eps)."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    _check_finite(eps=eps)
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must be in [0, 1]")
    return max(0.0, (math.exp(eps) + 1.0) * gamma - math.exp(eps))


def prop_gamma(d: int, eta: float, privacy: dict, prior_kind: str,
               sigma: float = None) -> ReRoBound:
    """High-dimensional prior bounds: compose the structured-prior kappa with
    the pure-DP or zCDP conversion.

    privacy is {"eps": e} or {"rho": r}; prior_kind is "uniform_ball" or
    "gaussian" (the latter needs sigma >= 2*eta/sqrt(d))."""
    if not d >= 1:
        raise ValueError("d must be >= 1")
    if prior_kind == "uniform_ball":
        kappa, degenerate = kappa_uniform_ball(eta, d)
        source = "prop1"
    elif prior_kind == "gaussian":
        if sigma is None:
            raise ValueError("gaussian prior needs sigma")
        if sigma < 2.0 * eta / math.sqrt(d):
            raise ValueError(f"sigma {sigma} < 2*eta/sqrt(d) = {2 * eta / math.sqrt(d)}")
        kappa = kappa_gaussian_bound(eta, sigma, d)
        degenerate = kappa >= 1.0
        source = "prop2"
    else:
        raise ValueError(f"unknown prior kind {prior_kind!r}")

    if "eps" in privacy:
        gamma = puredp_to_rero(privacy["eps"], kappa, eta).gamma
    elif "rho" in privacy:
        if kappa >= 1.0:
            gamma = 1.0
        else:
            inner = zcdp_to_rero(privacy["rho"], kappa, eta)
            gamma = inner.gamma
            degenerate = degenerate or inner.degenerate
    else:
        raise ValueError("privacy must contain 'eps' or 'rho'")
    return ReRoBound(eta, kappa, gamma, source, dict(privacy), degenerate=degenerate)


# ------------------------------------------------------- attacks / checks

def map_attack_finite(prior: FiniteDiscretePrior, likelihood_fn, theta,
                      error_fn, eta: float) -> np.ndarray:
    """Exact MAP reconstruction over a finite prior, for one release or a batch.

    likelihood_fn(theta, points) returns the mechanism's output density at
    theta for each candidate true point: shape (m,) for one release, or
    (T, m) for T releases. The guess maximizes the posterior mass of the
    eta-ball around it, ties breaking to the lowest index; it is (d,) for an
    (m,) likelihood and (T, d) for a (T, m) one, row t answering release t.
    """
    lik = np.asarray(likelihood_fn(theta, prior.points), dtype=np.float64)
    post = prior.masses * np.atleast_2d(lik)
    total = post.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("zero total posterior mass")
    post /= total
    # compress keeps each release's row contiguous, so numpy sums it pairwise
    # for a batch as for one release; post[:, ball] is column-major for a
    # batch, summed in another order, and near-ties broke differently
    scores = np.stack([np.compress(ball, post, axis=1).sum(axis=1)
                       for ball in prior.balls(error_fn, eta)], axis=1)
    guesses = prior.points[scores.argmax(axis=1)]
    return guesses if lik.ndim == 2 else guesses[0]


def empirical_rero(mechanism, prior, attack_fn, fixed: np.ndarray, error_fn,
                   eta: float, n_trials: int = 2000, seed: int = 0):
    """Monte-Carlo estimate of Pr[l(Z, R(theta)) <= eta] with per-trial seeds,
    for a FiniteDiscretePrior.

    Trial i draws its target z_i from the stream ``Rng(seed).child(("trial",
    i)).child("z")`` and gets the mechanism stream ``.child("mech")`` of the
    same trial. The targets come from one ``prior.sample_each`` call over
    the trials' "z" streams, row i being ``prior.sample(z_stream_i, 1)``.
    The rest runs once over all trials:
    ``mechanism(fixed, zs, rngs) -> thetas`` releases one output per row of
    zs (T, d), trained on fixed plus that row, drawing row t's randomness
    through ``rngs[t].once()``, which spends rngs[t]; ``attack_fn(thetas)
    -> guesses`` (T, d); and ``error_fn(zs, guesses)`` pairs rows. Returns
    (rate, (lo, hi)) with a Wilson interval.
    """
    if n_trials < 100:
        raise ValueError("n_trials must be >= 100")
    fixed = np.atleast_2d(np.asarray(fixed, dtype=np.float64))
    root = Rng(seed)
    trials = [root.child(("trial", i)) for i in range(n_trials)]
    zs = prior.sample_each([trial.child("z") for trial in trials])
    rngs = [trial.child("mech") for trial in trials]
    guesses = attack_fn(mechanism(fixed, zs, rngs))
    successes = int(np.count_nonzero(error_fn(zs, guesses) <= eta))
    return successes / n_trials, wilson_interval(successes, n_trials)


def rero_soundness_grid(n_trials: int = 500, seed: int = 0):
    """Gaussian mean-release mechanism over a 3x3x3 grid; yields per-cell results."""
    g = np.random.default_rng(seed)
    fixed = g.uniform(0, 1, size=(9, 2))
    fixed_sum = fixed.sum(axis=0)[None, :]
    n = fixed.shape[0] + 1
    priors = [
        FiniteDiscretePrior(g.uniform(0, 1, size=(5, 2)), g.dirichlet(np.ones(5)))
        for _ in range(3)
    ]
    etas = (0.05, 0.15, 0.4)
    # per prior, and per (prior, eta): the same in every noise level's cells
    diams = [max(float(np.linalg.norm(a - b)) for a in prior.points for b in prior.points)
             for prior in priors]
    kappas = {(pi, eta): kappa_monte_carlo(prior, l2_error, eta, prior.points)[0]
              for pi, prior in enumerate(priors) for eta in etas}
    for noise in (0.02, 0.05, 0.15):

        def mechanism(_fixed, zs, rngs, noise=noise):
            # row t is rngs[t]'s normal(0.0, noise, size=d) plus the mean:
            # numpy draws that as 0.0 + noise * g, and the 0.0 only turns a
            # -0.0 into 0.0, which adding the mean erases. (fixed_sum + z) / n
            # is bitwise vstack([fixed, z]).mean(axis=0): numpy reduces axis
            # 0 row by row, in the same order
            draws = np.empty(zs.shape)
            for row, rng in zip(draws, rngs):
                rng.once().standard_normal(out=row)
            draws *= noise
            draws += (fixed_sum + zs) / n
            return draws

        def likelihood(thetas, zs, noise=noise):
            mu = (fixed_sum + zs) / n
            sq = ((thetas[:, None, :] - mu) ** 2).sum(axis=2)
            return np.exp(-sq / (2 * noise ** 2))

        for eta in etas:
            for pi, prior in enumerate(priors):
                rho = gaussian_mechanism_zcdp(diams[pi] / n, noise)
                kappa = kappas[pi, eta]
                gamma = 1.0 if kappa >= 1.0 else zcdp_to_rero(rho, kappa, eta).gamma

                def attack_fn(thetas, prior=prior, eta=eta, likelihood=likelihood):
                    return map_attack_finite(prior, likelihood, thetas, l2_error, eta)

                rate, (lo, hi) = empirical_rero(
                    mechanism, prior, attack_fn, fixed, l2_error, eta,
                    n_trials=n_trials, seed=_derive(seed, ("cell", noise, eta, pi)),
                )
                ci_half = max(0.0, hi - rate)
                yield {
                    "noise": noise,
                    "eta": eta,
                    "prior": pi,
                    "kappa": kappa,
                    "gamma": gamma,
                    "rate": rate,
                    "ci_half": ci_half,
                    "sound": rate <= gamma + 3 * ci_half + 1e-12,
                }
