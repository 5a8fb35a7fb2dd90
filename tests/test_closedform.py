import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sint, special

import augquant as aq
from augquant.closedform import (_grand_mean_cov, average_ci, chisq_ci, f2_variance,
                                 grand_mean_law, repeated_toy_covariance, theta_ratio_general,
                                 theta_theory, toy_ridge_variance, v_curve)
from augquant.errors import ContractError, NumericalError
from augquant.quantiles import normal_quantile


class TestVCurve:
    def test_zero(self):
        assert v_curve(0.0) == 0.0

    def test_reference_value(self):
        assert v_curve(1.0) == pytest.approx(5**-0.5 - 1 / 3, rel=1e-14)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(21)
        for s in (0.3, 0.8, 1.5, 3.0, 6.0):
            f = np.exp(-(s * rng.standard_normal(1_000_000)) ** 2)
            se = np.var(f, ddof=1) * np.sqrt(2.0 / f.shape[0]) * 3  # inflate for kurtosis
            assert abs(np.var(f, ddof=1) - v_curve(s)) <= 4 * se

    def test_non_monotone_with_interior_peak(self):
        # rises from zero to a maximum at s* = sqrt(u*) ~ 1.6159, where
        # (1 + 2 u*)^2 = (1 + 4 u*)^(3/2), then decays toward zero
        grid = np.linspace(0.0, 20.0, 2001)
        vals = np.array([v_curve(s) for s in grid])
        peak = grid[np.argmax(vals)]
        assert abs(peak - 1.6159) <= 0.01
        assert v_curve(peak) > v_curve(0.05)
        assert v_curve(peak) > v_curve(5.0)
        assert v_curve(0.5) > v_curve(0.05)
        assert v_curve(100.0) < 0.005  # slow ~1/(2s) decay back toward zero


class TestChisqCi:
    def test_degenerate_sigma(self):
        iv = chisq_ci(0.0, 0.05)
        assert iv.lo == iv.hi == 1.0
        assert iv.width == 0.0

    def test_endpoints_sorted_and_width_positive(self):
        for s in (0.2, 1.0, 4.0):
            iv = chisq_ci(s, 0.05)
            assert 0.0 < iv.lo < iv.hi <= 1.0
            assert iv.width > 0.0

    def test_alpha_domain(self):
        with pytest.raises(ContractError):
            chisq_ci(1.0, 0.0)
        with pytest.raises(ContractError):
            chisq_ci(1.0, 1.0)

    def test_width_curve_eventually_decays(self):
        # like the variance curve, the width rises and then falls back to zero
        assert chisq_ci(1.0, 0.05).width > chisq_ci(0.1, 0.05).width
        assert chisq_ci(60.0, 0.05).width < chisq_ci(15.0, 0.05).width


def _iid_theta(family, source, k):
    """iid_aug's theta_theory for the grand mean, as predict theta writes it."""
    return theta_theory(aq.average_statistic(source.dim), family, source, "iid_aug", 1, k, 0.0)


class TestThetaRatio:
    def test_equal_arguments(self):
        assert theta_ratio_general(0.7, 0.7) == 1.0

    def test_monotone_in_denominator(self):
        assert theta_ratio_general(1.0, 0.5) > theta_ratio_general(1.0, 1.0) \
            > theta_ratio_general(1.0, 2.0)

    def test_zero_denominator_sentinel(self):
        assert theta_ratio_general(1.0, 0.0) == math.inf

    def test_identity_family_is_one(self):
        src = aq.gaussian_source([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]])
        for k in (1, 3, 10):
            assert _iid_theta(aq.identity_family(2), src, k) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_k_growth_when_cross_covariance_vanishes(self):
        # zero-mean sign flips kill the cross-copy covariance entirely
        src, fam = aq.gaussian_source([0.0], [[2.0]]), aq.sign_flip_family(1, 0.5)
        m = aq.estimate_moments(fam, src)
        assert np.allclose(m.sigma12, 0.0, atol=1e-14)
        for k in (10, 100, 1000):
            assert _iid_theta(fam, src, k) == pytest.approx(math.sqrt(k), rel=1e-12)

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_copy_rejected(self, k):
        src, fam = aq.gaussian_source([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]]), aq.swap_family()
        m = aq.estimate_moments(fam, src)
        with pytest.raises(ContractError, match="at least 1"):
            _iid_theta(fam, src, k)
        with pytest.raises(ContractError, match="at least 1"):
            _grand_mean_cov(m.sigma11, m.sigma12, k)

    def test_unknown_protocol_rejected(self):
        src = aq.gaussian_source([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(ContractError, match="unknown protocol 'iid-aug'"):
            grand_mean_law(aq.swap_family(), src, "iid-aug", 10, 2, 0.0)
        with pytest.raises(ContractError, match="unknown protocol 'repeated'"):
            theta_theory(aq.average_statistic(2), aq.swap_family(), src, "repeated", 10, 2, 0.0)

    def test_averaged_covariance_never_exceeds_marginal(self):
        cases = [
            (aq.swap_family(), aq.gaussian_source([0, 0], [[1, -0.5], [-0.5, 1]])),
            (aq.random_crop_family(2), aq.gaussian_source([1, 1], [[1, 0.5], [0.5, 1]])),
            (aq.cyclic_rotation_family(4), aq.gaussian_source([2] * 4, np.eye(4))),
            (aq.sign_flip_family(1, 0.65), aq.gaussian_source([0.0], [[25.0]])),
        ]
        for fam, src in cases:
            m = aq.estimate_moments(fam, src)
            for k in (1, 2, 5, 50):
                mixed = m.sigma11 / k + (k - 1) / k * m.sigma12
                assert np.linalg.norm(mixed) <= np.linalg.norm(m.sigma11) + 1e-12


class TestAverageCi:
    def test_identity_family_intervals_coincide(self):
        # the identity family's moments give the unaugmented interval mu +- z sqrt(Sigma / n)
        src = aq.gaussian_source([0.4], [[1.7]])
        m = aq.estimate_moments(aq.identity_family(1), src)
        half = normal_quantile(0.975) * math.sqrt(1.7 / 50)
        for k in (1, 3, 10):
            iv = average_ci(m.mean_phi_x, _grand_mean_cov(m.sigma11, m.sigma12, k), 50, 0.05)
            np.testing.assert_array_max_ulp(iv.lo, 0.4 - half, maxulp=4)
            np.testing.assert_array_max_ulp(iv.hi, 0.4 + half, maxulp=4)

    def test_half_width_uses_normal_quantile(self):
        iv = average_ci([0.0], [[1.0]], 100, 0.05)
        assert iv.hi == pytest.approx(1.959963984540054 / 10, rel=1e-10)

    def test_negative_correlation_swap_narrows(self):
        # a mean-zero sign-flip family with partial flip probability shrinks the
        # averaged covariance, so the augmented interval is strictly narrower
        src = aq.gaussian_source([0.0], [[1.0]])
        a, u = (average_ci(m.mean_phi_x, _grand_mean_cov(m.sigma11, m.sigma12, 4), 50, 0.05)
                for m in (aq.estimate_moments(fam, src)
                          for fam in (aq.sign_flip_family(1, 0.5), aq.identity_family(1))))
        assert a.width < u.width

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ContractError, match="alpha"):
            average_ci([0.0], [[1.0]], 10, alpha)

    def test_dimension_restriction(self):
        with pytest.raises(ContractError):
            average_ci([0.0, 0.0], np.eye(2), 10, 0.05)


class TestF2Variance:
    def test_zero_scale(self):
        assert f2_variance(-0.5, 0.0) == 0.0

    def test_reference_value(self):
        assert f2_variance(-0.5, 1.0) == pytest.approx(4 / math.sqrt(2) - 8 / 3, rel=1e-14)

    def test_reduction_to_v_curve(self):
        for rho in (-0.9, -0.5, 0.0, 0.4, 0.9):
            for sigma in np.linspace(0.0, 5.0, 100):
                lhs = f2_variance(rho, sigma)
                rhs = 4.0 * v_curve(sigma * math.sqrt((1 + rho) / 2))
                assert abs(lhs - rhs) <= 1e-12

    def test_monte_carlo_oracle(self):
        # surrogate rows: both coordinates and all copies share one N(0, u) draw
        rho, sigma = -0.5, 1.0
        u = (1 + rho) * sigma * sigma / 2
        rng = np.random.default_rng(22)
        a = math.sqrt(u) * rng.standard_normal(1_000_000)
        f2 = 2.0 * np.exp(-a * a)
        se = np.var(f2, ddof=1) * np.sqrt(2.0 / f2.shape[0]) * 3
        assert abs(np.var(f2, ddof=1) - f2_variance(rho, sigma)) <= 4 * se


def test_curves_nonnegative_where_their_terms_cancel():
    # both curves difference two terms near 1; around s = 1e-8 that rounds below zero
    grid = np.logspace(-10.0, 0.0, 1001)
    assert min(v_curve(s) for s in grid) >= 0.0
    for rho in (-0.5, 0.0, 0.5):
        assert min(f2_variance(rho, s) for s in grid) >= 0.0


class TestToyRidgeVariance:
    def test_centered_closed_form(self):
        for n in (5, 10, 100):
            assert toy_ridge_variance(n, 0.0, 1.0, 1.0, 0.0) == pytest.approx(
                n / (n - 2.0) ** 2, rel=1e-12)

    def test_series_matches_external_integrator(self):
        for n, mu, sigma in ((5, 1.0, 0.5), (20, 2.0, 1.0), (100, 1.0, 1.0), (3, 1.0, 2.0)):
            rate = n * mu * mu / (2 * sigma * sigma)
            ref, _ = sint.quad(lambda t: math.exp(-rate * t) * (1 - t) ** (n / 2 - 2),
                               0, 1, epsabs=1e-13, epsrel=1e-13)
            expected = n / (2 * (n - 2) * sigma * sigma) * ref
            assert toy_ridge_variance(n, mu, sigma, 1.0, 0.0) == pytest.approx(expected,
                                                                               rel=1e-12)

    @pytest.mark.parametrize("n,mu,sigma", [
        (3, 1.0, 2.0), (4, 0.5, 1.0), (10, 2.0, 0.3), (1000, 0.2, 0.05),
        # the integrand's mass sits in a sliver at t = 0, narrower than a coarse grid's step
        (100, 1.0, 0.1), (10**4, 1.0, 1.0), (10**5, 0.1, 100.0), (100, 3.0, 0.25)])
    def test_matches_kummer_function(self, n, mu, sigma):
        # int_0^1 exp(-r t) (1 - t)^(n/2 - 2) dt = 1F1(1; n/2; -r) / (n/2 - 1), r <= 1e4
        rate = n * mu * mu / (2 * sigma * sigma)
        assert rate <= 1e4
        expected = (n / (2 * (n - 2) * sigma * sigma)
                    * special.hyp1f1(1.0, n / 2, -rate) / (n / 2 - 1))
        assert toy_ridge_variance(n, mu, sigma, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e76, 1e150])
    def test_large_mean_reaches_its_limit(self, mu):
        # c^2 / ((n - 2) mu^2) to first order in 1 / r, where powers of r overflow
        assert toy_ridge_variance(100, mu, 1.0, 1.0, 0.0) == pytest.approx(
            1.0 / (98.0 * mu * mu), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu", [math.nan, 1e155])
    def test_rate_out_of_range_raises(self, mu):
        # mu^2 is nan or overflows, so the Poisson rate is not a finite number
        with pytest.raises(NumericalError, match="floating-point range"):
            toy_ridge_variance(100, mu, 1.0, 1.0, 0.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.floats(math.log(3.0), math.log(1e7)), st.floats(-1e3, 1e3),
           st.floats(math.log(1e-4), math.log(1e4)), st.floats(0.1, 10.0))
    def test_within_jensen_bracket(self, log_n, mu, log_sigma, c):
        # E[1 / (a + K)] for K ~ Poisson(r) lies in [1 / (a + r), 1 / a], a = n/2 - 1
        n, sigma = max(3, round(math.exp(log_n))), math.exp(log_sigma)
        s = n * c * c / (2 * (n - 2) * sigma * sigma)
        a, r = n / 2 - 1, n * mu * mu / (2 * sigma * sigma)
        v = toy_ridge_variance(n, mu, sigma, c, 0.0)
        assert s / (a + r) * (1 - 1e-12) <= v <= s / a * (1 + 1e-12)

    def test_small_sigma_limit_branch(self):
        assert toy_ridge_variance(100, 1.0, 0.01, 1.0, 4.0) == pytest.approx(1 / 2500)

    def test_small_n_rejected_without_penalty(self):
        with pytest.raises(ContractError):
            toy_ridge_variance(2, 1.0, 1.0, 1.0, 0.0)

    def test_noise_scale_enters_quadratically(self):
        base = toy_ridge_variance(50, 1.0, 1.0, 1.0, 0.0)
        assert toy_ridge_variance(50, 1.0, 1.0, 2.0, 0.0) == pytest.approx(4 * base, rel=1e-10)


class TestRepeatedToyCovariance:
    def test_zero_mean(self):
        assert repeated_toy_covariance(aq.swap_family(), [0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_point_mass(self):
        fam = aq.TransformationFamily([[[0.0, 1.0], [1.0, 0.0]]])
        assert repeated_toy_covariance(fam, [1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_two_point_value(self):
        assert repeated_toy_covariance(aq.swap_family(), [1.0, 0.0], [1.0, 0.0]) == \
            pytest.approx(0.25)

    def test_projects_before_the_variance(self):
        # the exact value is 0; w^T (sigma11 - E[A Sigma A^T]) w reads 5.8e-11 here, its
        # entries of about 2e5 cancelling in the final sum, so the projection stays its own
        fam = aq.swap_family([0.3, 0.7])
        assert abs(repeated_toy_covariance(fam, [1000.0, 2.0], [1.0, 1.0])) <= 1e-20

    def test_offsets_rejected(self):
        fam = aq.TransformationFamily([np.eye(2)], [[1.0, 0.0]])
        with pytest.raises(ContractError):
            repeated_toy_covariance(fam, [1.0, 0.0], [1.0, 0.0])
