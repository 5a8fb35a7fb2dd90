"""Closed-form predictions: variance curves, confidence intervals, benefit ratios.

Everything here is an analytic counterpart to a quantity the simulation engine
can estimate, so each function has a Monte Carlo oracle in the test suite.
``_grand_mean_cov`` is the one formula for the covariance of the scaled grand mean of
k copies, Sigma_k = s11 / k + (k - 1) / k * s12; ``grand_mean_law`` builds each
protocol's law from it, and ``theta_theory``, the benefit ratio that ``compare`` and
``predict theta`` both write, reads that law.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .quantiles import chisq1_quantile, normal_quantile
from .surrogate import build_surrogate, estimate_moments

# every protocol that ExperimentConfig runs and grand_mean_law gives the law of
PROTOCOLS = ("iid_aug", "repeated_aug", "unaugmented", "surrogate", "repeated_surrogate")


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
    interior maximum at s* = sqrt(u*) ~ 1.6159, where (1 + 2 u*)^2 = (1 + 4 u*)^{3/2},
    and decays back to zero as s grows.
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


def grand_mean_law(family, source, protocol, n, k, delta):
    """(mean, Sigma) of the scaled grand mean sum_ij cell_ij / (sqrt(n) k) of n rows of k
    cells under protocol, mean being that of one cell; ``iid_aug`` reads neither n nor
    delta.  The repeated protocols share one set of k maps among all n rows: given the
    maps, each copy has covariance E[A Sigma A^T], and the spread of the maps' means,
    Var(A mu + a) = sigma11 - E[A Sigma A^T], enters n / k times."""
    if protocol not in PROTOCOLS:
        raise ContractError(f"unknown protocol {protocol!r}")
    if protocol == "unaugmented":
        return source.joint_mean(), source.joint_cov()
    m = estimate_moments(family, source)
    if protocol.startswith("repeated"):
        return m.mean_phi_x, (_grand_mean_cov(m.mean_var_given_map, m.sigma12, k)
                              + n / k * (m.sigma11 - m.mean_var_given_map))
    s11 = m.sigma11 if protocol == "iid_aug" else build_surrogate(m, n, k, delta).diag_block
    return m.mean_phi_x, _grand_mean_cov(s11, m.sigma12, k)


def theta_theory(kind, family, source, protocol, n, k, delta):
    """theta of protocol against unaugmented from their grand-mean laws, or None where no
    closed form holds: the exponential's v_curve needs a centred 1-d Gaussian grand mean
    on both sides, and shared maps make the repeated protocols' a mixture."""
    if kind.name not in ("average", "expnegchisq"):
        return None
    (mean, cov), (mean_un, cov_un) = (grand_mean_law(family, source, p, n, k, delta)
                                      for p in (protocol, "unaugmented"))
    if kind.name == "average":
        return theta_ratio_general(float(np.linalg.norm(cov_un)), float(np.linalg.norm(cov)))
    if kind.d == 1 and not protocol.startswith("repeated") and not (
            np.any(mean) or np.any(mean_un)):
        s, s_un = (math.sqrt(max(float(c[0, 0]), 0.0)) for c in (cov, cov_un))
        return theta_ratio_general(v_curve(s_un), v_curve(s))
    return None


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

        n c^2 / (2 (n - 2) sigma^2) * int_0^1 exp(-r t) (1 - t)^{n/2 - 2} dt,

    with r = n mu^2 / (2 sigma^2).  Term by term in exp(r (1 - t)), the integral is
    E[1 / (n/2 - 1 + K)], K ~ Poisson(r): Kummer's 1F1(1; n/2; -r) / (n/2 - 1).

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
    rate = n * mu * mu / (2.0 * sigma * sigma)
    return (n * c * c / (2.0 * (n - 2.0) * sigma * sigma)
            * _poisson_inverse_mean(rate, 0.5 * n - 1.0))


def _poisson_inverse_mean(r, a):
    """E[1 / (a + K)] for K ~ Poisson(r), r >= 0 and a > 0.  Up to r = 1e6 it sums the
    k within 12 sqrt(r) + 40 of floor(r), all but about e^-50 of the mass, with weights
    relative to the first from cumulative sums of log r - log j; beyond, the
    central-moment expansion in t = 1 / (a + r) and q = r t is exact to rounding and,
    unlike powers of a + r, stays in range."""
    if r == 0.0:
        return 1.0 / a
    if not r <= 1e6:  # a nan rate too, so that it comes out nan
        t = 1.0 / (a + r)
        q = r * t
        return t * (1.0 + q * t - q * t * t + 3.0 * q * q * t * t + q * t ** 3)
    mode = math.floor(r)
    width = int(12.0 * math.sqrt(r)) + 40
    k = np.arange(max(mode - width, 0), mode + width + 1, dtype=float)
    log_w = np.concatenate(([0.0], np.cumsum(math.log(r) - np.log(k[1:]))))
    w = np.exp(log_w - log_w.max())
    return float(w @ (1.0 / (a + k)) / w.sum())


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

