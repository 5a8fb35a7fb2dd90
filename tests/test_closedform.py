import math

import numpy as np
import pytest
from scipy import integrate as sint

import augquant as aq
from augquant.closedform import (average_ci, chisq_ci, ci_width_curve, f2_variance,
                                 repeated_toy_covariance, theta_ratio_average,
                                 theta_ratio_general, toy_ridge_variance, v_curve)
from augquant.errors import ContractError
from augquant.quadrature import integrate


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
        # rises from zero to a maximum near s = 1.55, then decays toward zero
        grid = np.linspace(0.0, 20.0, 2001)
        vals = np.array([v_curve(s) for s in grid])
        peak = grid[np.argmax(vals)]
        assert 1.4 < peak < 1.7
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
            assert ci_width_curve(s, 0.05) == pytest.approx(iv.hi - iv.lo)

    def test_alpha_domain(self):
        with pytest.raises(ContractError):
            chisq_ci(1.0, 0.0)
        with pytest.raises(ContractError):
            chisq_ci(1.0, 1.0)

    def test_width_curve_eventually_decays(self):
        # like the variance curve, the width rises and then falls back to zero
        assert ci_width_curve(1.0, 0.05) > ci_width_curve(0.1, 0.05)
        assert ci_width_curve(60.0, 0.05) < ci_width_curve(15.0, 0.05)


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
        m = aq.estimate_moments(aq.identity_family(2), src)
        for k in (1, 3, 10):
            assert theta_ratio_average(m, src, k) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_k_growth_when_cross_covariance_vanishes(self):
        # zero-mean sign flips kill the cross-copy covariance entirely
        src = aq.gaussian_source([0.0], [[2.0]])
        m = aq.estimate_moments(aq.sign_flip_family(1, 0.5), src)
        assert np.allclose(m.sigma12, 0.0, atol=1e-14)
        for k in (10, 100, 1000):
            assert theta_ratio_average(m, src, k) == pytest.approx(math.sqrt(k), rel=1e-12)

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_copy_rejected(self, k):
        src = aq.gaussian_source([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]])
        m = aq.estimate_moments(aq.swap_family(), src)
        with pytest.raises(ContractError, match="at least 1"):
            theta_ratio_average(m, src, k)
        one = aq.gaussian_source([0.0], [[1.0]])
        with pytest.raises(ContractError, match="at least 1"):
            average_ci(aq.estimate_moments(aq.identity_family(1), one), one, 10, k, 0.05,
                       "augmented")

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
        src = aq.gaussian_source([0.4], [[1.7]])
        m = aq.estimate_moments(aq.identity_family(1), src)
        a = average_ci(m, src, 50, 3, 0.05, "augmented")
        u = average_ci(m, src, 50, 3, 0.05, "unaugmented")
        assert a.lo == pytest.approx(u.lo) and a.hi == pytest.approx(u.hi)

    def test_half_width_uses_normal_quantile(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        m = aq.estimate_moments(aq.identity_family(1), src)
        iv = average_ci(m, src, 100, 1, 0.05, "unaugmented")
        assert iv.hi == pytest.approx(1.959963984540054 / 10, rel=1e-10)

    def test_negative_correlation_swap_narrows(self):
        # a mean-zero sign-flip family with partial flip probability shrinks the
        # averaged covariance, so the augmented interval is strictly narrower
        src = aq.gaussian_source([0.0], [[1.0]])
        m = aq.estimate_moments(aq.sign_flip_family(1, 0.5), src)
        a = average_ci(m, src, 50, 4, 0.05, "augmented")
        u = average_ci(m, src, 50, 4, 0.05, "unaugmented")
        assert a.width < u.width

    def test_dimension_restriction(self):
        src = aq.gaussian_source([0.0, 0.0], np.eye(2))
        m = aq.estimate_moments(aq.identity_family(2), src)
        with pytest.raises(ContractError):
            average_ci(m, src, 10, 2, 0.05, "augmented")


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

    def test_quadrature_matches_external_integrator(self):
        for n, mu, sigma in ((5, 1.0, 0.5), (20, 2.0, 1.0), (100, 1.0, 1.0), (3, 1.0, 2.0)):
            rate = n * mu * mu / (2 * sigma * sigma)
            ref, _ = sint.quad(lambda t: math.exp(-rate * t) * (1 - t) ** (n / 2 - 2),
                               0, 1, epsabs=1e-13, epsrel=1e-13)
            expected = n / (2 * (n - 2) * sigma * sigma) * ref
            tol = 1e-8 if n >= 5 else 1e-6  # n=3 has an integrable endpoint singularity
            assert toy_ridge_variance(n, mu, sigma, 1.0, 0.0) == pytest.approx(expected, rel=tol)

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
        fam = aq.finite_uniform_family([[[0.0, 1.0], [1.0, 0.0]]])
        assert repeated_toy_covariance(fam, [1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_two_point_value(self):
        assert repeated_toy_covariance(aq.swap_family(), [1.0, 0.0], [1.0, 0.0]) == \
            pytest.approx(0.25)

    def test_offsets_rejected(self):
        fam = aq.finite_uniform_family([np.eye(2)], [[1.0, 0.0]])
        with pytest.raises(ContractError):
            repeated_toy_covariance(fam, [1.0, 0.0], [1.0, 0.0])


class TestQuadrature:
    def test_polynomial_exact(self):
        assert integrate(lambda t: 3 * t * t, 0.0, 2.0) == pytest.approx(8.0, abs=1e-12)

    def test_oscillatory_against_scipy(self):
        f = lambda t: math.exp(-3 * t) * math.cos(12 * t)
        ref, _ = sint.quad(f, 0.0, 1.0, epsabs=1e-13)
        assert integrate(f, 0.0, 1.0) == pytest.approx(ref, abs=1e-10)

    def test_endpoint_half_power(self):
        assert integrate(lambda t: math.sqrt(1 - t), 0.0, 1.0) == pytest.approx(2 / 3, abs=1e-9)

    def test_budget_exhaustion_raises(self):
        from augquant.errors import NumericalError
        with pytest.raises(NumericalError):
            integrate(lambda t: (1 - t) ** -0.5 if t < 1 else 0.0, 0.0, 1.0,
                      abs_tol=1e-13, max_intervals=8)
