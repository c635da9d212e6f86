"""Statistical machinery: special functions, posteriors, tables, caches."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import betaincc, logsumexp

from bayeslsh.inference import (
    UNIFORM_PRIOR,
    BetaParams,
    ConcentrationCache,
    build_minmatch_table,
    c2r,
    cosine_concentration_prob,
    cosine_map,
    cosine_prune_prob,
    fit_beta_mom,
    jaccard_concentration_prob,
    jaccard_map,
    jaccard_prune_prob,
    ml_estimate,
    posterior_for_measure,
    power_law_posterior_grid,
    r2c,
    required_hashes,
    _binom_logpmf,
    _log_upper_mass,
)
from oracles import (
    binomial_coverage_oracle,
    cosine_concentration_oracle,
    cosine_prune_oracle,
    jaccard_concentration_oracle,
    jaccard_prune_oracle,
    min_matches_linear,
)


class TestRegIncBeta:
    """Posterior tails, which are regularized incomplete beta values.

    With m = n = 0 the jaccard prune probability is the prior's own upper
    tail, Pr[S >= t] = I_{1-t}(beta, alpha). The cosine tails are checked
    where they underflow a float.
    """

    @pytest.mark.parametrize("a, b", [(1, 1), (0.5, 3), (7, 2.5), (40, 60)])
    def test_boundaries(self, a, b):
        assert jaccard_prune_prob(BetaParams(a, b), 0, 0, 1.0) == 0.0
        assert jaccard_prune_prob(BetaParams(a, b), 0, 0, 0.0) == 1.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 7.0])
    def test_symmetric_midpoint(self, a):
        assert jaccard_prune_prob(BetaParams(a, a), 0, 0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_cdf(self):
        for t in np.linspace(0.05, 0.95, 10):
            assert jaccard_prune_prob(UNIFORM_PRIOR, 0, 0, float(t)) == pytest.approx(
                1.0 - t, abs=1e-12
            )

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = float(rng.uniform(0.5, 8.0))
            b = float(rng.uniform(0.5, 8.0))
            t = float(rng.uniform(0.0, 1.0))
            assert jaccard_prune_prob(BetaParams(a, b), 0, 0, t) == pytest.approx(
                jaccard_prune_oracle(a, b, 0, 0, t), abs=1e-8
            )

    def test_log_variant_matches_closed_form_deep_tail(self):
        # m = 0: Pr[R >= x] = (1 - x)^(n+1), so the ratio of tails is
        # (2 (1 - r_t))^(n+1); at n = 4096 both tails underflow a float
        for n in (128, 1024, 4096):
            for t in (0.01, 0.05):
                assert cosine_prune_prob(0, n, t) == pytest.approx(
                    (2.0 * (1.0 - c2r(t))) ** (n + 1), rel=1e-11
                )

    def test_nonpositive_shapes_rejected(self):
        # a match count outside [0, n] can leave a posterior shape at or below 0
        with pytest.raises(ValueError):
            cosine_prune_prob(-1, 4, 0.7)
        with pytest.raises(ValueError):
            cosine_concentration_prob(5, 4, 0.9, 0.05)
        with pytest.raises(ValueError):
            jaccard_prune_prob(UNIFORM_PRIOR, 6, 4, 0.7)
        with pytest.raises(ValueError):
            jaccard_concentration_prob(UNIFORM_PRIOR, 6, 4, 0.9, 0.05)

    def test_log_variant_consistent_where_representable(self):
        # the identity the underflow fallback sums in logs:
        # Pr[R >= x] = Pr[Binomial(a + b - 1, x) <= a - 1]
        for x, a, b in [(0.3, 2, 5), (0.8, 6, 2), (0.5, 10, 10), (0.6, 300, 200)]:
            expected = math.log(float(betaincc(a, b, x)))
            assert _log_upper_mass(x, a, b) == expected
            summed = float(logsumexp(_binom_logpmf(np.arange(a), a + b - 1, x)))
            assert summed == pytest.approx(expected, rel=1e-10)


class TestFrequentistEstimator:
    def test_ml_estimate_pins(self):
        assert ml_estimate(0, 10) == 0.0
        assert ml_estimate(10, 10) == 1.0
        assert ml_estimate(350, 700) == 0.5

    def test_ml_estimate_validates(self):
        with pytest.raises(ValueError):
            ml_estimate(3, 0)
        with pytest.raises(ValueError):
            ml_estimate(5, 4)

    @staticmethod
    def _outward_coverage(s, n, d):
        return binomial_coverage_oracle(
            s, n, math.floor((s - d) * n), math.ceil((s + d) * n)
        )

    def test_required_hashes_grid_boundary(self):
        for s, grid in [(0.5, 16), (0.8, 16), (0.5, 4)]:
            n = required_hashes(s, 0.05, 0.05, grid=grid)
            assert n % grid == 0
            # n satisfies the target; the previous grid point does not
            assert self._outward_coverage(s, n, 0.05) >= 0.95
            if n > grid:
                assert self._outward_coverage(s, n - grid, 0.05) < 0.95

    def test_required_hashes_decreases_toward_extremes(self):
        ns = [required_hashes(s, 0.05, 0.05) for s in (0.5, 0.7, 0.9, 0.95)]
        assert ns[0] >= ns[1] >= ns[2] >= ns[3]


class TestBetaPrior:
    def test_mom_formula_example(self):
        assert fit_beta_mom([0.2, 0.4, 0.6, 0.8] * 5) == BetaParams(2.0, 2.0)

    def test_zero_variance_falls_back(self):
        assert fit_beta_mom([0.4] * 100) == UNIFORM_PRIOR

    def test_small_sample_falls_back(self):
        assert fit_beta_mom([0.2, 0.9]) == UNIFORM_PRIOR

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(8)
        fitted = fit_beta_mom(rng.beta(2.0, 5.0, size=100_000))
        assert fitted.alpha == pytest.approx(2.0, rel=0.05)
        assert fitted.beta == pytest.approx(5.0, rel=0.05)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)


class TestJaccardPosterior:
    def test_prune_density_2s(self):
        # posterior after (1,1): density 2s; Pr[S >= .5] = 1 - .25
        assert jaccard_prune_prob(UNIFORM_PRIOR, 1, 1, 0.5) == pytest.approx(0.75)

    def test_prune_deep_tail_closed_form(self):
        n = 128
        got = jaccard_prune_prob(UNIFORM_PRIOR, 0, n, 0.5)
        assert got < 1e-30
        assert got == pytest.approx(0.5 ** (n + 1), rel=1e-9)

    def test_prune_monotone_in_m_and_t(self):
        probs = [jaccard_prune_prob(UNIFORM_PRIOR, m, 32, 0.6) for m in range(33)]
        assert all(x <= y for x, y in zip(probs, probs[1:]))
        over_t = [jaccard_prune_prob(UNIFORM_PRIOR, 20, 32, t) for t in (0.3, 0.5, 0.8)]
        assert all(x >= y for x, y in zip(over_t, over_t[1:]))

    def test_map_printed_formula(self):
        assert jaccard_map(BetaParams(2.0, 2.0), 3, 4) == pytest.approx(4 / 7)
        assert jaccard_map(UNIFORM_PRIOR, 3, 6) == pytest.approx(3 / 7)

    def test_map_boundary_modes(self):
        assert jaccard_map(UNIFORM_PRIOR, 5, 5) == 1.0
        assert jaccard_map(UNIFORM_PRIOR, 0, 5) == 0.0

    def test_map_consistency_large_n(self):
        n = 10_000
        m = int(0.37 * n)
        assert abs(jaccard_map(UNIFORM_PRIOR, m, n) - 0.37) < 0.01

    def test_concentration_full_width(self):
        assert jaccard_concentration_prob(UNIFORM_PRIOR, 3, 7, 0.5, 1.0) == 1.0

    def test_concentration_cdf_pin(self):
        # posterior Beta(2,1): cdf s^2; I_1 - I_0.9 = 1 - 0.81
        assert jaccard_concentration_prob(
            UNIFORM_PRIOR, 1, 1, 1.0, 0.1
        ) == pytest.approx(0.19)

    def test_prune_and_concentration_vs_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            prior = BetaParams(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
            n = int(rng.integers(1, 300))
            m = int(rng.integers(0, n + 1))
            t = float(rng.uniform(0.1, 0.9))
            d = float(rng.uniform(0.01, 0.3))
            assert jaccard_prune_prob(prior, m, n, t) == pytest.approx(
                jaccard_prune_oracle(prior.alpha, prior.beta, m, n, t), abs=1e-8
            )
            est = jaccard_map(prior, m, n)
            assert jaccard_concentration_prob(prior, m, n, est, d) == pytest.approx(
                jaccard_concentration_oracle(prior.alpha, prior.beta, m, n, est, d),
                abs=1e-8,
            )


class TestCosinePosterior:
    def test_r2c_c2r_pins(self):
        assert r2c(0.5) == pytest.approx(0.0, abs=1e-12)
        assert r2c(1.0) == 1.0
        assert c2r(0.5) == pytest.approx(2 / 3)
        for r in np.linspace(0.5, 1.0, 21):
            assert c2r(r2c(float(r))) == pytest.approx(float(r), abs=1e-12)

    def test_prune_uniform_prior_mass(self):
        for t in (0.3, 0.5, 0.9):
            assert cosine_prune_prob(0, 0, t) == pytest.approx(
                (1.0 - c2r(t)) / 0.5, rel=1e-12
            )

    def test_prune_appendix_scenario_vs_oracle(self):
        assert cosine_prune_prob(24, 32, 0.7) == pytest.approx(
            cosine_prune_oracle(24, 32, 0.7), abs=1e-8
        )

    def test_prune_all_matches_closed_form(self):
        n = 256
        t = 0.9
        got = cosine_prune_prob(n, n, t)
        assert got >= 0.99
        tr = c2r(t)
        assert got == pytest.approx(
            (1 - tr ** (n + 1)) / (1 - 0.5 ** (n + 1)), rel=1e-9
        )

    def test_prune_monotone(self):
        probs = [cosine_prune_prob(m, 64, 0.6) for m in range(0, 65, 4)]
        assert all(x <= y for x, y in zip(probs, probs[1:]))

    def test_map_pins(self):
        assert cosine_map(8, 8) == 1.0
        assert cosine_map(3, 4) == pytest.approx(math.cos(math.pi / 4))
        assert cosine_map(1, 4) == pytest.approx(0.0, abs=1e-12)

    def test_map_consistency_large_n(self):
        n = 10_000
        m = int(0.8 * n)
        assert abs(cosine_map(m, n) - r2c(0.8)) < 0.01

    def test_concentration_full_width(self):
        assert cosine_concentration_prob(10, 32, 0.5, 1.0) == 1.0

    def test_concentration_sharpens_with_n(self):
        vals = [
            cosine_concentration_prob(int(0.8 * n), n, cosine_map(int(0.8 * n), n), 0.05)
            for n in (64, 256, 1024)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_low_estimate_clamps_to_support_edge(self):
        est = cosine_map(2, 64)  # m/n far below 0.5 -> estimate 0
        got = cosine_concentration_prob(2, 64, est, 0.05)
        assert got == pytest.approx(
            cosine_concentration_oracle(2, 64, est, 0.05), abs=1e-8
        )

    def test_prune_and_concentration_vs_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            m = int(rng.integers(0, n + 1))
            t = float(rng.uniform(0.1, 0.9))
            d = float(rng.uniform(0.01, 0.3))
            assert cosine_prune_prob(m, n, t) == pytest.approx(
                cosine_prune_oracle(m, n, t), abs=1e-8
            )
            est = cosine_map(m, n)
            assert cosine_concentration_prob(m, n, est, d) == pytest.approx(
                cosine_concentration_oracle(m, n, est, d), abs=1e-8
            )

    def test_deep_tail_vs_oracle(self):
        # m <= n/3 puts the posterior far below r = 0.5; the normalizer
        # Pr[R >= 0.5] drops below the smallest normal float at m = 0 and
        # at m = n/8, n/5 for n = 4096, where the log-space fallback runs
        for n in (1024, 2048, 4096):
            for m in (0, n // 8, n // 5, n // 3):
                for t in (0.01, 0.05):
                    assert cosine_prune_prob(m, n, t) == pytest.approx(
                        cosine_prune_oracle(m, n, t), abs=1e-8
                    ), (m, n, t)
                est = cosine_map(m, n)
                for d in (0.01, 0.05):
                    assert cosine_concentration_prob(m, n, est, d) == pytest.approx(
                        cosine_concentration_oracle(m, n, est, d), abs=1e-8
                    ), (m, n, d)


class TestPosteriorCalibration:
    """Frequency of {S >= t} must track the computed posterior probability."""

    def test_jaccard_deciles(self):
        rng = np.random.default_rng(100)
        n, t, draws = 64, 0.5, 50_000
        sims = rng.uniform(0.0, 1.0, size=draws)  # Beta(1,1) prior
        matches = rng.binomial(n, sims)
        table = np.array(
            [jaccard_prune_prob(UNIFORM_PRIOR, m, n, t) for m in range(n + 1)]
        )
        probs = table[matches]
        hits = sims >= t
        self._check_deciles(probs, hits)

    def test_cosine_deciles(self):
        rng = np.random.default_rng(101)
        n, t, draws = 64, 0.6, 50_000
        rs = rng.uniform(0.5, 1.0, size=draws)  # the fixed uniform prior on r
        matches = rng.binomial(n, rs)
        table = np.array([cosine_prune_prob(m, n, t) for m in range(n + 1)])
        probs = table[matches]
        hits = rs >= c2r(t)
        self._check_deciles(probs, hits)

    @staticmethod
    def _check_deciles(probs, hits):
        order = np.argsort(probs)
        for block in np.array_split(order, 10):
            assert abs(float(hits[block].mean()) - float(probs[block].mean())) <= 0.02


class TestPosteriorWrappers:
    def test_measure_tags_and_dispatch(self):
        jac = posterior_for_measure("jaccard", BetaParams(2, 3))
        cos = posterior_for_measure("cosine")
        assert jac.measure == "jaccard"
        assert cos.measure == "cosine"
        assert jac.prune_prob(5, 16, 0.4) == jaccard_prune_prob(BetaParams(2, 3), 5, 16, 0.4)
        assert cos.map_estimate(12, 16) == cosine_map(12, 16)
        with pytest.raises(ValueError):
            posterior_for_measure("euclidean")

    def test_cosine_rejects_prior(self):
        with pytest.raises(ValueError):
            posterior_for_measure("cosine", BetaParams(2, 2))


class TestMinMatchTable:
    def test_tiny_epsilon_never_prunes(self):
        # prune prob at m=0 is (1-t)^(n+1); stays above 1e-12 throughout here
        post = posterior_for_measure("jaccard")
        table = build_minmatch_table(post, 0.1, 1e-12, 32, 128)
        assert [m for _, m in table.items()] == [0, 0, 0, 0]

    @pytest.mark.parametrize("measure", ["jaccard", "cosine"])
    def test_boundary_and_monotone(self, measure):
        post = posterior_for_measure(measure)
        table = build_minmatch_table(post, 0.5, 0.03, 32, 512)
        prev = 0
        for n, mm in table.items():
            assert mm >= prev
            prev = mm
            if mm <= n:
                assert post.prune_prob(mm, n, 0.5) >= 0.03
                if mm > 0:
                    assert post.prune_prob(mm - 1, n, 0.5) < 0.03

    def test_matches_linear_scan(self):
        post = posterior_for_measure("cosine")
        table = build_minmatch_table(post, 0.5, 0.03, 32, 128)
        for n, mm in table.items():
            assert mm == min_matches_linear(post, 0.5, 0.03, n)

    def test_sentinel_when_all_matches_insufficient(self):
        post = posterior_for_measure("jaccard")
        table = build_minmatch_table(post, 0.9999, 0.03, 32, 64)
        assert table[32] == 33
        assert table[64] == 65

    def test_unaligned_lookup_names_batch(self):
        post = posterior_for_measure("jaccard")
        table = build_minmatch_table(post, 0.5, 0.03, 32, 128)
        with pytest.raises(KeyError):
            table[40]


class TestConcentrationCache:
    def test_lookup_equals_fresh_computation(self):
        post = posterior_for_measure("cosine")
        cache = ConcentrationCache(post, delta=0.05, gamma=0.03)
        for m, n in [(10, 32), (30, 32), (200, 256)]:
            conc, est = cache.lookup(m, n)
            fresh_est = post.map_estimate(m, n)
            assert est == fresh_est
            assert conc == (post.concentration_prob(m, n, fresh_est, 0.05) >= 0.97)
            assert cache.lookup(m, n) == (conc, est)
        assert len(cache) == 3

    def test_concurrent_lookups_idempotent(self):
        post = posterior_for_measure("jaccard")
        cache = ConcentrationCache(post, delta=0.05, gamma=0.03)
        keys = [(m, 64) for m in range(40, 60)] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda k: cache.lookup(*k), keys))
        baseline = {k: cache.lookup(*k) for k in set(keys)}
        assert all(results[i] == baseline[keys[i]] for i in range(len(keys)))
        assert len(cache) == 20


class TestPowerLawGrid:
    def test_normalizes(self):
        for expo, m, n in [(-3, 0, 0), (0, 24, 32), (3, 96, 128)]:
            r, d = power_law_posterior_grid(expo, m, n)
            assert float(np.trapezoid(d, r)) == pytest.approx(1.0, abs=1e-6)

    def test_exponent_zero_matches_posterior_shape(self):
        m, n = 24, 32
        r, d = power_law_posterior_grid(0.0, m, n, gridpoints=501)
        interior = (r > 0.5) & (r < 1.0)
        ri, di = r[interior], d[interior]
        expected = ri**m * (1 - ri) ** (n - m)
        ratio = di / expected
        assert float(ratio.max() / ratio.min()) == pytest.approx(1.0, rel=1e-9)

    def test_prior_influence_shrinks_with_data(self):
        def gap(m, n):
            _, lo = power_law_posterior_grid(-3.0, m, n)
            _, hi = power_law_posterior_grid(3.0, m, n)
            return float(np.abs(lo - hi).max())

        assert gap(24, 32) < gap(0, 0)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            power_law_posterior_grid(0.0, 1, 2, gridpoints=2)
