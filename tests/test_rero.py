import math

import numpy as np
import pytest

from reconlab import rero
from reconlab.rng import Rng, _derive


# ---------------------------------------------------------------- priors

def test_uniform_ball_samples_inside():
    s = rero.UniformBallPrior(5).sample(Rng(0), 2000)
    assert s.shape == (2000, 5)
    assert np.all(np.linalg.norm(s, axis=1) <= 1.0 + 1e-12)


def test_finite_prior_validation():
    with pytest.raises(ValueError):
        rero.FiniteDiscretePrior(np.zeros((2, 3)), np.array([0.7, 0.7]))


def test_finite_prior_rejects_non_finite_masses():
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5, -np.inf]):
        with pytest.raises(ValueError):
            rero.FiniteDiscretePrior(np.zeros((3, 1)), np.array(bad))


@pytest.mark.parametrize("d", [0, -2, 2.0, 1.5, "3", None, True])
def test_uniform_ball_prior_rejects_d_that_is_not_a_positive_int(d):
    with pytest.raises(ValueError, match="d must be an int >= 1"):
        rero.UniformBallPrior(d)


def test_uniform_ball_prior_takes_numpy_ints():
    assert rero.UniformBallPrior(np.int64(3)).sample(Rng(0), 4).shape == (4, 3)


def test_priors_compare_and_hash_by_identity():
    points, masses = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
    a = rero.FiniteDiscretePrior(points, masses)
    b = rero.FiniteDiscretePrior(points, masses)
    assert a == a and a != b
    assert len({a: 0, b: 1}) == 2


@pytest.mark.parametrize("masses", [
    [0.2, 0.3, 0.5],
    [0.0, 0.3, 0.0, 0.5, 0.2, 0.0],
    [1.0, 0.0],
    np.random.default_rng(0).dirichlet(np.ones(5)),
])
@pytest.mark.parametrize("key", [0, 1, 2 ** 64 - 1])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_finite_prior_sample_equals_generator_choice(masses, key, n):
    masses = np.asarray(masses, dtype=np.float64)
    m = len(masses)
    prior = rero.FiniteDiscretePrior(np.arange(m, dtype=np.float64)[:, None], masses)
    want = np.random.Generator(np.random.Philox(key=key)).choice(m, size=n, p=masses)
    got = prior.sample(Rng(key), n)
    assert got.shape == (n, 1)
    assert np.array_equal(got[:, 0], want)


def test_error_fns():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    b = np.zeros(2)
    assert np.allclose(rero.l2_error(a, b), [0.0, 5.0])
    # a (n, d) b pairs rows
    b2 = np.array([[0.0, 1.0], [3.0, 4.0]])
    assert np.allclose(rero.l2_error(a, b2), [1.0, 0.0])


# ---------------------------------------------------------------- kappas

def test_kappa_uniform_ball_values():
    kappa, degenerate = rero.kappa_uniform_ball(0.5, 1)
    assert kappa == 0.5 and not degenerate
    kappa, _ = rero.kappa_uniform_ball(0.5, 10)
    assert abs(kappa - 0.5 ** 10) < 1e-15
    kappa, degenerate = rero.kappa_uniform_ball(1.5, 3)
    assert kappa == 1.0 and degenerate


def test_kappa_uniform_ball_matches_monte_carlo():
    for d in range(1, 6):
        prior = rero.UniformBallPrior(d)
        est, (lo, hi) = rero.kappa_monte_carlo(
            prior, rero.l2_error, 0.5, [np.zeros(d)], seed=d
        )
        exact = 0.5 ** d
        half = hi - est
        assert abs(est - exact) <= 3 * max(half, 1e-6), (d, est, exact)


def test_kappa_gaussian_bound_boundary_and_bound():
    # q = 1 boundary gives exponent 0
    assert rero.kappa_gaussian_bound(1.0, 0.5, 4) == 1.0
    # sigma = 2 eta / sqrt(d) means q = 1/4; bound decays like e^(-0.318 d)
    for d in (1, 2, 5, 20):
        sigma = 2 * 0.5 / math.sqrt(d)
        b = rero.kappa_gaussian_bound(0.5, sigma, d)
        assert b < math.exp(-0.3 * d)


@pytest.mark.parametrize("kappa", [
    lambda nan: rero.kappa_uniform_ball(nan, 3),
    lambda nan: rero.kappa_gaussian_bound(nan, 1.0, 3),
    lambda nan: rero.kappa_gaussian_bound(0.5, nan, 3),
    lambda nan: rero.kappa_uniform_ball(0.5, nan),
    lambda nan: rero.kappa_gaussian_bound(0.5, 1.0, nan),
])
def test_kappas_reject_nan_eta_sigma_and_d(kappa):
    # "<= 0" and "< 1" are false for NaN, which let it through as a NaN kappa
    with pytest.raises(ValueError, match="positive|d must be >= 1"):
        kappa(math.nan)


def test_kappa_gaussian_bound_dominates_exact():
    # the exact kappa of N(c, sigma^2 I_d) is Pr[chi2_d <= (eta/sigma)^2]
    from scipy import stats
    for d in (1, 3, 10):
        for eta, sigma in ((0.5, 1.0), (0.3, 0.5), (1.0, 2.0)):
            assert stats.chi2.cdf((eta / sigma) ** 2, df=d) <= \
                rero.kappa_gaussian_bound(eta, sigma, d) + 1e-15


def test_kappa_gaussian_bound_dominates_simulation():
    # 10^6-sample chi-squared simulation of the in-ball probability
    d, sigma, eta = 3, 1.0, 0.5
    g = np.random.default_rng(0)
    r2 = (g.normal(0, sigma, size=(1_000_000, d)) ** 2).sum(axis=1)
    est = float((r2 <= eta ** 2).mean())
    lo, hi = rero.wilson_interval(int((r2 <= eta ** 2).sum()), 1_000_000)
    assert rero.kappa_gaussian_bound(eta, sigma, d) >= est - 3 * (est - lo)


def test_kappa_two_point():
    assert rero.kappa_two_point(0.5) == 0.5
    assert rero.kappa_two_point(0.2) == rero.kappa_two_point(0.8) == 0.8


def test_kappa_monte_carlo_finite_exact():
    prior = rero.FiniteDiscretePrior(
        np.array([[0.0], [1.0], [2.0]]), np.array([0.2, 0.3, 0.5])
    )
    kappa, (lo, hi) = rero.kappa_monte_carlo(prior, rero.l2_error, 0.5, prior.points)
    assert kappa == 0.5  # each 0.5-ball holds exactly one atom; the heaviest wins
    assert lo == hi == kappa


def test_kappa_monte_carlo_far_candidate_zero():
    prior = rero.FiniteDiscretePrior(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    kappa, _ = rero.kappa_monte_carlo(prior, rero.l2_error, 0.1, [np.array([50.0])])
    assert kappa == 0.0


# --------------------------------------------------------- bound calculus

def test_cor1_example():
    b = rero.puredp_to_rero(math.log(10.0), 0.01, 0.3)
    assert abs(b.gamma - 0.1) < 1e-12
    assert rero.puredp_to_rero(0.0, 0.3, 0.1).gamma == 0.3


def test_thm2_eps_zero_exceeds_kappa():
    for alpha in (1.5, 2.0, 8.0):
        b = rero.rdp_to_rero(alpha, 0.0, 0.2, 0.1)
        assert abs(b.gamma - 0.2 ** ((alpha - 1) / alpha)) < 1e-15
        assert b.gamma >= 0.2


def test_cor1_is_large_alpha_limit_of_thm2():
    kappa, eps = 0.03, 1.2
    lim = rero.rdp_to_rero(1e9, eps, kappa, 0.1).gamma
    direct = rero.puredp_to_rero(eps, kappa, 0.1).gamma
    assert abs(lim - direct) / direct <= 1e-6


def test_cor2_is_alpha_minimized_thm2():
    # under rho-zCDP every alpha gives (alpha, alpha*rho)-RDP; Cor 2 is the
    # minimum of the Thm 2 bound over alpha
    for rho, kappa in ((0.1, 0.01), (0.5, 0.001), (1.0, 1e-6)):
        direct = rero.zcdp_to_rero(rho, kappa, 0.1).gamma
        alphas = 1.0 + np.logspace(-6, 6, 400_001)
        scan = math.exp(((alphas - 1) / alphas * (math.log(kappa) + alphas * rho)).min())
        assert abs(direct - scan) <= 1e-9


def test_cor2_vacuous_branch():
    b = rero.zcdp_to_rero(5.0, 0.5, 0.1)
    assert b.gamma == 1.0 and b.degenerate


def test_gamma_monotone_in_privacy_and_kappa():
    gs = [rero.puredp_to_rero(e, 0.01, 0.1).gamma for e in (0.1, 0.5, 1.0, 2.0)]
    assert gs == sorted(gs)
    gs = [rero.zcdp_to_rero(r, 0.01, 0.1).gamma for r in (0.01, 0.1, 0.5, 1.0)]
    assert gs == sorted(gs)
    gs = [rero.zcdp_to_rero(0.1, k, 0.1).gamma for k in (1e-6, 1e-4, 1e-2)]
    assert gs == sorted(gs)


def test_gamma_monotone_and_clamped_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.floats(1e-12, 1.0, exclude_max=True)
    nonneg = st.floats(0.0, 20.0)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(k=st.tuples(unit, unit), e=st.tuples(nonneg, nonneg),
                      alpha=st.floats(1.0, 1e6, exclude_min=True))
    def check(k, e, alpha):
        (k0, k1), (e0, e1) = sorted(k), sorted(e)
        pairs = [
            (rero.puredp_to_rero(e0, k0, 0.1), rero.puredp_to_rero(e1, k0, 0.1)),
            (rero.puredp_to_rero(e0, k0, 0.1), rero.puredp_to_rero(e0, k1, 0.1)),
            (rero.rdp_to_rero(alpha, e0, k0, 0.1), rero.rdp_to_rero(alpha, e1, k0, 0.1)),
            (rero.rdp_to_rero(alpha, e0, k0, 0.1), rero.rdp_to_rero(alpha, e0, k1, 0.1)),
            (rero.zcdp_to_rero(e0, k0, 0.1), rero.zcdp_to_rero(e1, k0, 0.1)),
            (rero.zcdp_to_rero(e0, k0, 0.1), rero.zcdp_to_rero(e0, k1, 0.1)),
        ]
        for lo, hi in pairs:
            assert 0.0 <= lo.gamma <= hi.gamma <= 1.0, (lo, hi)

    check()


def test_thm2_tends_to_cor1_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(kappa=st.floats(1e-6, 1.0), eps=st.floats(0.0, 10.0))
    def check(kappa, eps):
        lim = rero.rdp_to_rero(1e8, eps, kappa, 0.1).gamma
        direct = rero.puredp_to_rero(eps, kappa, 0.1).gamma
        assert abs(lim - direct) <= 1e-6 * direct

    check()


def test_thm3_examples():
    assert rero.rero_to_dp(0.0, 0.75) == 0.5
    assert rero.rero_to_dp(1.0, 1.0) == 1.0
    # no-information attack: gamma = max(p, 1-p) with p = 1/(e^eps+1)
    for eps in (0.0, 0.5, 2.0):
        p = 1.0 / (math.exp(eps) + 1.0)
        assert abs(rero.rero_to_dp(eps, rero.kappa_two_point(p))) < 1e-12


@pytest.mark.parametrize("convert", [
    lambda nan: rero.rdp_to_rero(2.0, nan, 0.1, 0.5),
    lambda nan: rero.rdp_to_rero(nan, 1.0, 0.1, 0.5),
    lambda nan: rero.puredp_to_rero(nan, 0.1, 0.5),
    lambda nan: rero.zcdp_to_rero(nan, 0.1, 0.5),
    lambda nan: rero.rero_to_dp(nan, 0.5),
    lambda nan: rero.prop_gamma(10, 0.5, {"eps": nan}, "uniform_ball"),
])
def test_converters_reject_nan_privacy(convert):
    # a NaN comparison is false, so a "< 0" check let NaN through as gamma = 0
    with pytest.raises(ValueError):
        convert(math.nan)


@pytest.mark.parametrize("convert, name", [
    (lambda inf: rero.rdp_to_rero(inf, 1.0, 0.1, 0.5), "alpha"),
    (lambda inf: rero.rdp_to_rero(2.0, inf, 0.1, 0.5), "eps"),
    (lambda inf: rero.puredp_to_rero(inf, 0.0, 0.5), "eps"),
    (lambda inf: rero.rero_to_dp(inf, 1.0), "eps"),
    (lambda inf: rero.prop_gamma(100_000, 0.5, {"eps": inf}, "uniform_ball"), "eps"),
])
def test_converters_reject_infinite_privacy(convert, name):
    # (alpha - 1) / alpha, 0 * e^eps and e^eps - e^eps are NaN at inf, and the
    # clamp read NaN as gamma = 0 or delta = 0: no attack could succeed
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        convert(math.inf)


def test_prop_gamma_uniform_ball():
    b = rero.prop_gamma(10, 0.5, {"eps": 1.0}, "uniform_ball")
    assert abs(b.gamma - 0.5 ** 10 * math.e) < 1e-12
    assert b.source == "prop1"


def test_prop_gamma_gaussian_sigma_check():
    d, eta = 16, 0.5
    sigma = 2 * eta / math.sqrt(d)
    b = rero.prop_gamma(d, eta, {"rho": 0.0}, "gaussian", sigma=sigma)
    assert abs(b.gamma - rero.kappa_gaussian_bound(eta, sigma, d)) < 1e-12
    with pytest.raises(ValueError):
        rero.prop_gamma(d, eta, {"rho": 0.0}, "gaussian", sigma=0.5 * sigma)


# --------------------------------------------------------------- attacks

def test_map_attack_point_mass():
    prior = rero.FiniteDiscretePrior(np.array([[0.3, 0.7]]), np.array([1.0]))
    out = rero.map_attack_finite(prior, lambda t, zs: np.ones(1), None,
                                 rero.l2_error, 0.1)
    assert np.array_equal(out, [0.3, 0.7])


def test_map_attack_two_point_gaussian_posterior():
    # mean release with Gaussian noise: the likelihood ratio favors the
    # candidate whose dataset mean is closer to theta
    fixed = np.zeros((4, 1))
    z0, z1 = np.array([0.0]), np.array([1.0])
    prior = rero.FiniteDiscretePrior(np.stack([z0, z1]), np.array([0.5, 0.5]))
    noise = 0.1
    n = 5

    def likelihood(theta, zs):
        mu = (fixed.sum(axis=0)[None, :] + zs) / n
        return np.exp(-((theta - mu) ** 2).sum(axis=1) / (2 * noise ** 2))

    theta_near_z1 = np.array([0.19])
    out = rero.map_attack_finite(prior, likelihood, theta_near_z1, rero.l2_error, 0.01)
    assert np.array_equal(out, z1)
    theta_near_z0 = np.array([0.01])
    out = rero.map_attack_finite(prior, likelihood, theta_near_z0, rero.l2_error, 0.01)
    assert np.array_equal(out, z0)


def _brute_force_map(prior, lik, error_fn, eta):
    post = prior.masses * lik
    post = post / post.sum()
    scores = [post[error_fn(prior.points, c) <= eta].sum() for c in prior.points]
    return prior.points[int(np.argmax(scores))]


def _zero_one_error(a, b):
    """0 where a row of a equals b (or b's matching row), else 1."""
    return np.any(np.atleast_2d(a) != np.asarray(b), axis=1).astype(np.float64)


def _linf_error(a, b):
    return np.abs(np.atleast_2d(a) - np.asarray(b)[None, :]).max(axis=1)


def test_map_attack_ties_break_to_lowest_index():
    prior = rero.FiniteDiscretePrior(np.array([[0.0], [5.0], [10.0], [15.0]]),
                                     np.array([0.1, 0.4, 0.1, 0.4]))
    out = rero.map_attack_finite(prior, lambda t, zs: np.ones(4), None, rero.l2_error, 0.5)
    assert np.array_equal(out, [5.0])
    flat = rero.FiniteDiscretePrior(prior.points, np.full(4, 0.25))
    out = rero.map_attack_finite(flat, lambda t, zs: np.ones(4), None, rero.l2_error, 0.5)
    assert np.array_equal(out, [0.0])


def test_map_attack_ball_cache_keyed_by_eta_and_error_fn():
    # eta 0.5 keeps every ball a singleton (masses decide, tie to index 0);
    # eta 1.5 under l2 puts three points in the ball around 1.0; under the
    # 0/1 error every ball holds all points. A cache that ignored eta or
    # error_fn would return a stale answer somewhere in this sequence.
    prior = rero.FiniteDiscretePrior(np.array([[0.0], [1.0], [2.0], [10.0]]),
                                     np.array([0.3, 0.2, 0.2, 0.3]))
    lik = np.ones(4)

    def likelihood(theta, zs):
        return lik

    queries = [
        (rero.l2_error, 0.5, 0.0),
        (rero.l2_error, 1.5, 1.0),
        (_zero_one_error, 1.5, 0.0),
        (rero.l2_error, 1.5, 1.0),
        (rero.l2_error, 0.5, 0.0),
    ]
    for error_fn, eta, want in queries:
        out = rero.map_attack_finite(prior, likelihood, None, error_fn, eta)
        assert np.array_equal(out, [want])
        assert np.array_equal(out, _brute_force_map(prior, lik, error_fn, eta))
    # fresh function objects, each dropped after use, may reuse a freed id
    for scale, want in ((1.0, 1.0), (100.0, 0.0), (1.0, 1.0), (100.0, 0.0)):
        out = rero.map_attack_finite(prior, likelihood, None,
                                     lambda a, b, s=scale: s * rero.l2_error(a, b), 1.5)
        assert np.array_equal(out, [want])


def test_map_attack_matches_brute_force_on_random_priors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    error_fns = [rero.l2_error, _zero_one_error, _linf_error]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        m=st.integers(1, 12),
        d=st.integers(1, 3),
        data=st.data(),
    )
    def check(m, d, data):
        # small integer coordinates and weights make exact ties and
        # duplicate points common
        coords = data.draw(st.lists(st.integers(0, 3), min_size=m * d, max_size=m * d))
        weights = np.array(data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)),
                           dtype=np.float64)
        lik = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
                       dtype=np.float64)
        hypothesis.assume((weights * lik).sum() > 0)
        prior = rero.FiniteDiscretePrior(np.array(coords, dtype=np.float64).reshape(m, d),
                                         weights / weights.sum())
        queries = data.draw(st.lists(
            st.tuples(st.sampled_from(error_fns), st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])),
            min_size=1, max_size=6))
        for error_fn, eta in queries:
            out = rero.map_attack_finite(prior, lambda t, zs: lik, None, error_fn, eta)
            assert np.array_equal(out, _brute_force_map(prior, lik, error_fn, eta))

    check()


def test_map_attack_batch_row_equals_single_release_on_near_tie():
    # the balls around 1 and 2 both hold 12/18 of the mass; summed in
    # different orders, a batch row once broke the tie apart from the same
    # release attacked alone
    points = np.array([[0.0], [3], [0], [0], [0], [2], [0], [1], [1], [1], [1], [3]])
    weights = np.array([1.0, 4, 1, 1, 1, 1, 2, 1, 1, 2, 1, 2])
    prior = rero.FiniteDiscretePrior(points, weights / weights.sum())
    lik = np.ones((2, 12))
    batch = rero.map_attack_finite(prior, lambda th, zs: lik[th], np.arange(2), rero.l2_error, 1.0)
    for i in range(2):
        one = rero.map_attack_finite(prior, lambda th, zs: lik[th], i, rero.l2_error, 1.0)
        assert one.tobytes() == batch[i].tobytes()
        assert np.array_equal(one, _brute_force_map(prior, lik[i], rero.l2_error, 1.0))


def test_map_attack_batch_equals_loop_of_single_releases():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    error_fns = [rero.l2_error, _zero_one_error, _linf_error]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        m=st.integers(1, 12),
        d=st.integers(1, 3),
        t=st.integers(1, 6),
        error_fn=st.sampled_from(error_fns),
        eta=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
        data=st.data(),
    )
    def check(m, d, t, error_fn, eta, data):
        # small integers give exact ties in masses, likelihoods and scores
        coords = data.draw(st.lists(st.integers(0, 3), min_size=m * d, max_size=m * d))
        weights = np.array(data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)),
                           dtype=np.float64)
        lik = np.array(data.draw(st.lists(st.lists(st.integers(1, 3), min_size=m, max_size=m),
                                          min_size=t, max_size=t)), dtype=np.float64)
        prior = rero.FiniteDiscretePrior(np.array(coords, dtype=np.float64).reshape(m, d),
                                         weights / weights.sum())
        batch = rero.map_attack_finite(prior, lambda th, zs: lik[th], np.arange(t),
                                       error_fn, eta)
        assert batch.shape == (t, d)
        for i in range(t):
            one = rero.map_attack_finite(prior, lambda th, zs: lik[th], i, error_fn, eta)
            assert one.shape == (d,)
            assert one.tobytes() == batch[i].tobytes()
            assert np.array_equal(one, _brute_force_map(prior, lik[i], error_fn, eta))

    check()


def test_map_attack_batch_rejects_a_zero_mass_row():
    prior = rero.FiniteDiscretePrior(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    lik = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        rero.map_attack_finite(prior, lambda t, zs: lik, None, rero.l2_error, 0.5)


def test_empirical_rero_perfect_mechanism():
    # the mechanism reveals z and the attack inverts it: rate 1
    prior = rero.FiniteDiscretePrior(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    rate, _ = rero.empirical_rero(
        mechanism=lambda fixed, zs, rngs: zs,
        prior=prior,
        attack_fn=lambda thetas: thetas,
        fixed=np.zeros((3, 1)),
        error_fn=rero.l2_error,
        eta=0.01,
        n_trials=200,
        seed=1,
    )
    assert rate == 1.0


def test_empirical_rero_oblivious_attack_near_kappa():
    prior = rero.FiniteDiscretePrior(
        np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 0.3, 0.2])
    )
    best = prior.points[0]  # mass 0.5 within eta = 0.1
    rate, (lo, hi) = rero.empirical_rero(
        mechanism=lambda fixed, zs, rngs: np.zeros((len(zs), 1)),
        prior=prior,
        attack_fn=lambda thetas: np.broadcast_to(best, thetas.shape),
        fixed=np.zeros((3, 1)),
        error_fn=rero.l2_error,
        eta=0.1,
        n_trials=2000,
        seed=2,
    )
    assert lo <= 0.5 <= hi


def test_empirical_rero_reproducible():
    prior = rero.UniformBallPrior(2)

    def mechanism(fixed, zs, rngs):
        noise = np.stack([r.once().normal(0, 0.1, size=2) for r in rngs])
        return (fixed.sum(axis=0) + zs) / (len(fixed) + 1) + noise

    kwargs = dict(
        mechanism=mechanism,
        prior=prior,
        attack_fn=lambda thetas: thetas,
        fixed=np.zeros((3, 2)),
        error_fn=rero.l2_error,
        eta=0.5,
        n_trials=300,
        seed=7,
    )
    assert rero.empirical_rero(**kwargs) == rero.empirical_rero(**kwargs)


@pytest.mark.parametrize("prior", [
    rero.UniformBallPrior(3),
    rero.FiniteDiscretePrior(np.arange(12, dtype=np.float64).reshape(4, 3),
                             np.array([0.1, 0.2, 0.3, 0.4])),
], ids=["uniform_ball", "finite"])
def test_empirical_rero_hands_mechanism_the_trial_streams(prior):
    # trial i's target is what prior.sample draws from child ("trial", i) ->
    # "z" of the seed's stream, and row i of the mechanism's streams is the
    # same trial's "mech"
    seen = {}

    def mechanism(fixed, zs, rngs):
        seen["fixed"], seen["zs"] = fixed, zs
        seen["seeds"] = [r.seed for r in rngs]
        return zs

    rero.empirical_rero(mechanism, prior, lambda thetas: thetas, np.ones((4, 3)),
                        rero.l2_error, 0.1, n_trials=100, seed=5)
    root = Rng(5)
    want_zs = np.concatenate([prior.sample(root.child(("trial", i)).child("z"), 1)
                              for i in range(100)])
    assert seen["fixed"].shape == (4, 3)
    assert seen["zs"].tobytes() == want_zs.tobytes()
    assert seen["seeds"] == [root.child(("trial", i)).child("mech").seed for i in range(100)]


@pytest.mark.parametrize("prior", [
    rero.UniformBallPrior(1),
    rero.UniformBallPrior(20),
    rero.FiniteDiscretePrior(np.arange(6, dtype=np.float64)[:, None],
                             np.array([0.0, 0.3, 0.0, 0.5, 0.2, 0.0])),
], ids=["ball_d1", "ball_d20", "finite_zero_masses"])
@pytest.mark.parametrize("n", [0, 1, 257])
def test_sample_each_row_equals_one_sample_per_stream(prior, n):
    streams = [Rng(2 ** 64 - 1 - t) for t in range(n)]
    got = prior.sample_each(streams)
    want = [prior.sample(Rng(2 ** 64 - 1 - t), 1) for t in range(n)]
    assert got.shape == (n, prior.d)
    assert got.tobytes() == (np.concatenate(want).tobytes() if n else b"")
    if n:  # every stream is spent
        with pytest.raises(RuntimeError):
            streams[-1].once()


def _grid_rates_per_trial(n_trials, seed):
    """The soundness grid as one trial at a time: vstack + mean, Generator.choice,
    a 1-D likelihood and a 1-D MAP guess per trial."""
    g = np.random.default_rng(seed)
    fixed = g.uniform(0, 1, size=(9, 2))
    n = fixed.shape[0] + 1
    priors = [(g.uniform(0, 1, size=(5, 2)), g.dirichlet(np.ones(5))) for _ in range(3)]
    rates = []
    for noise in (0.02, 0.05, 0.15):
        for eta in (0.05, 0.15, 0.4):
            for pi, (points, masses) in enumerate(priors):
                root = Rng(_derive(seed, ("cell", noise, eta, pi)))
                successes = 0
                for i in range(n_trials):
                    trial = root.child(("trial", i))
                    z = points[trial.child("z").once().choice(5, size=1, p=masses)][0]
                    theta = (np.vstack([fixed, z[None, :]]).mean(axis=0)
                             + trial.child("mech").once().normal(0.0, noise, size=2))
                    mu = (fixed.sum(axis=0)[None, :] + points) / n
                    lik = np.exp(-((theta[None, :] - mu) ** 2).sum(axis=1) / (2 * noise ** 2))
                    post = masses * lik
                    post /= post.sum()
                    scores = [post[rero.l2_error(points, c) <= eta].sum() for c in points]
                    guess = points[int(np.argmax(scores))]
                    successes += float(np.linalg.norm(z - guess)) <= eta
                rates.append(successes / n_trials)
    return rates


def test_soundness_grid_rates_match_per_trial_reference():
    got = [c["rate"] for c in rero.rero_soundness_grid(n_trials=100, seed=3)]
    assert got == _grid_rates_per_trial(100, 3)


def test_wilson_interval_sane():
    lo, hi = rero.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = rero.wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = rero.wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0


def _wilson_norm_ppf(successes, trials, confidence):
    """The interval as computed before scipy.stats left the import path."""
    from scipy import stats
    z = stats.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@pytest.mark.parametrize("confidence", [0.99])
@pytest.mark.parametrize("trials", [100, 200, 1000, 10 ** 6])
def test_wilson_interval_bitwise_equals_norm_ppf_formula(trials, confidence):
    for successes in sorted({0, 1, 7, trials // 3, trials // 2, trials - 1, trials}):
        got = rero.wilson_interval(successes, trials)
        want = _wilson_norm_ppf(successes, trials, confidence)
        assert np.array(got).tobytes() == np.array(want).tobytes(), successes


def test_wilson_z_table_equals_ndtri_bitwise():
    from scipy.special import ndtri
    assert rero.WILSON_Z.tobytes() == ndtri(0.5 + 0.99 / 2.0).tobytes()
