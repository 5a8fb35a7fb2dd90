"""Closed-form predictions: variance curves, confidence intervals, benefit ratios.

Everything here is an analytic counterpart to a quantity the simulation engine
can estimate, so each function has a Monte Carlo oracle in the test suite.
``_grand_mean_cov`` is the one formula for the covariance of the scaled grand mean of
k copies, Sigma_k = s11 / k + (k - 1) / k * s12; ``montecarlo._grand_mean_law`` builds
each protocol's law from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .quadrature import integrate
from .quantiles import chisq1_quantile, normal_quantile


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ContractError("interval endpoints out of order")

    @property
    def width(self):
        return self.hi - self.lo


def v_curve(s):
    """Variance of exp(-G^2) for G ~ N(0, s^2).

    V(s) = (1 + 4 s^2)^{-1/2} - (1 + 2 s^2)^{-1}; zero at s = 0, rises to an
    interior maximum near s = 1.55 and decays back to zero as s grows.
    """
    if s < 0:
        raise ContractError("s must be nonnegative")
    s = float(s)  # a Python float overflows to inf without a numpy warning
    s2 = s * s
    # the two terms cancel for s near 1e-8 and their difference can round below zero
    return max((1.0 + 4.0 * s2) ** -0.5 - 1.0 / (1.0 + 2.0 * s2), 0.0)


def chisq_ci(sigma, alpha):
    """Confidence interval for exp(-G^2), G ~ N(0, sigma^2), at level 1 - alpha.

    The endpoints are exp(-sigma^2 q) at the alpha/2 and 1 - alpha/2 quantiles
    q of chi-squared(1), sorted ascending.
    """
    if sigma < 0:
        raise ContractError("sigma must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise ContractError("alpha must lie in (0, 1)")
    sigma = float(sigma)  # as in v_curve
    pi_l = chisq1_quantile(alpha / 2.0)
    pi_u = chisq1_quantile(1.0 - alpha / 2.0)
    lo, hi = sorted((math.exp(-sigma * sigma * pi_u), math.exp(-sigma * sigma * pi_l)))
    return Interval(lo=lo, hi=hi)


def theta_ratio_general(var_unaug_norm, var_aug_norm):
    """sqrt(unaugmented variance norm / augmented variance norm); > 1 is a win."""
    if var_unaug_norm < 0 or var_aug_norm < 0:
        raise ContractError("variance norms must be nonnegative")
    if var_aug_norm == 0.0:
        return math.inf
    return math.sqrt(var_unaug_norm / var_aug_norm)


def _grand_mean_cov(s11, s12, k):
    """Sigma_k = s11 / k + (k - 1) / k * s12: the covariance of the scaled grand mean
    when each row carries k >= 1 copies, each of covariance s11 and every two of
    covariance s12."""
    if k < 1:
        raise ContractError(f"the number of copies k must be at least 1, got {k}")
    return s11 / k + (k - 1) / k * s12


def theta_ratio_average(moments, source, k):
    """Benefit ratio for the scaled grand mean at a fixed number of copies k >= 1: the
    ratio of the Frobenius norms of its unaugmented and augmented surrogate covariances."""
    return theta_ratio_general(
        float(np.linalg.norm(source.joint_cov())),
        float(np.linalg.norm(_grand_mean_cov(moments.sigma11, moments.sigma12, k))))


def average_ci(mean, cov, n, alpha):
    """Confidence interval at level 1 - alpha for the plain grand mean of n rows whose
    scaled grand mean has the 1-d law (mean, cov): mean +- z * sqrt(cov / n)."""
    mean, cov = np.ravel(mean), np.ravel(cov)
    if mean.size != 1 or cov.size != 1:
        raise ContractError("confidence intervals are implemented for dimension 1 only")
    if not 0.0 < alpha < 1.0:
        raise ContractError("alpha must lie in (0, 1)")
    z = normal_quantile(1.0 - alpha / 2.0)
    center = float(mean[0])
    half = z * math.sqrt(max(float(cov[0]), 0.0) / n)
    return Interval(lo=center - half, hi=center + half)


def f2_variance(rho, sigma):
    """Surrogate variance of the two-coordinate exponential statistic.

    For the uniform identity/swap family on an exchangeable source with
    correlation rho and scale sigma: 4 (1 + 2 (1+rho) sigma^2)^{-1/2}
    - 4 (1 + (1+rho) sigma^2)^{-1}, which is 4 * v_curve applied at
    sigma * sqrt((1 + rho) / 2).
    """
    if not -1.0 < rho < 1.0:
        raise ContractError("rho must lie strictly inside (-1, 1)")
    if sigma < 0:
        raise ContractError("sigma must be nonnegative")
    return 4.0 * v_curve(float(sigma) * math.sqrt((1.0 + float(rho)) / 2.0))


def toy_ridge_variance(n, mu, sigma, c, lam):
    """Variance of the 1-d ridge coefficient in the untransformed toy model.

    Exact branch (lam = 0, n > 2, sigma > 0):

        n c^2 / (2 (n - 2) sigma^2) * int_0^1 exp(-n mu^2 t / (2 sigma^2))
                                               (1 - t)^{n/2 - 2} dt

    evaluated by adaptive quadrature to absolute tolerance 1e-10; the
    integrand's endpoint power is negative for n = 3, so n in {3, 4} carries
    reduced accuracy.  For mu = 0 the closed form n c^2 / ((n-2)^2 sigma^2) is
    returned directly.

    Limit branch (lam > 0): the small-sigma limit mu^2 c^2 / (n (lam + mu^2)^2).

    Both branches need n >= 1.  A variance that floating point cannot hold,
    for example when sigma^2 underflows to zero, raises NumericalError.
    """
    if n < 1:
        raise ContractError("the toy ridge variance requires n >= 1")
    try:
        # Python floats, so that a division by zero or an overflow raises, not warns
        value = _toy_ridge_variance(n, float(mu), float(sigma), float(c), float(lam))
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise NumericalError(f"the toy ridge variance at n={n}, mu={mu:g}, sigma={sigma:g}, "
                             f"c={c:g}, lambda={lam:g} is out of floating-point range")
    return value


def _toy_ridge_variance(n, mu, sigma, c, lam):
    if lam < 0:
        raise ContractError("lam must be nonnegative")
    if lam > 0:
        return mu * mu * c * c / (n * (lam + mu * mu) ** 2)
    if n <= 2:
        raise ContractError("the exact variance requires n > 2 at lam = 0")
    if sigma <= 0:
        raise ContractError("the exact branch requires sigma > 0")
    if mu == 0.0:
        return n * c * c / ((n - 2.0) ** 2 * sigma * sigma)
    rate = n * mu * mu / (2.0 * sigma * sigma)
    power = 0.5 * n - 2.0

    def integrand(t):
        u = 1.0 - t
        if u <= 0.0:
            # quadrature nodes can round onto the endpoint; for n < 4 the
            # integrand diverges there (integrably), so report the limit 0
            # contribution and let refinement resolve the shrinking sliver
            return 0.0
        return math.exp(-rate * t) * u**power

    val = integrate(integrand, 0.0, 1.0, abs_tol=1e-10, max_intervals=4000)
    return n * c * c / (2.0 * (n - 2.0) * sigma * sigma) * val


def repeated_toy_covariance(family, mu, w):
    """Variance over the family of w . (map applied to mu), for zero-offset maps.

    This is the extra covariance that sharing one transformation across two
    observations injects into (or removes from) sums and differences.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    if mu.shape[0] != family.dim or w.shape[0] != family.dim:
        raise ContractError("mu and w must match the family dimension")
    if np.any(family.offsets != 0.0):
        raise ContractError("this identity holds for zero-offset (linear) maps only")
    vals = (family.matrices @ mu) @ w
    mean = float(family.weights @ vals)
    return float(family.weights @ (vals - mean) ** 2)

