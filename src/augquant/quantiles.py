"""Standard normal and chi-squared(1) quantiles.

The normal quantile is the standard library's ``NormalDist.inv_cdf``, which
implements Wichura's AS241 (PPND16, about 1 part in 1e16).  Confidence-interval
endpoints are acceptance-tested, so the quantile tests still pin its accuracy
against scipy, which only the tests use: the package itself needs numpy and
the standard library alone.  The chi-squared(1) quantile follows from the
square relationship with the standard normal, equivalent to inverting the
regularized incomplete gamma of shape 1/2.
"""

from statistics import NormalDist

from .errors import ContractError

_STANDARD_NORMAL = NormalDist()


def normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ContractError("quantile level must lie strictly inside (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(p)


def chisq1_quantile(p):
    """Inverse CDF of chi-squared with one degree of freedom on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ContractError("quantile level must lie strictly inside (0, 1)")
    z = normal_quantile(0.5 * (1.0 + p))
    return z * z
