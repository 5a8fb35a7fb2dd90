import numpy as np
import pytest
from scipy import stats as sps

from augquant.errors import ContractError
from augquant.quantiles import chisq1_quantile, normal_quantile


def test_reference_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)
    assert chisq1_quantile(0.025) == pytest.approx(0.000982069117175247, abs=1e-12)
    assert chisq1_quantile(0.975) == pytest.approx(5.023886187314888, abs=1e-9)


def test_accuracy_against_scipy():
    ps = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 501), [1e-10, 1 - 1e-10]])
    for p in ps:
        assert normal_quantile(p) == pytest.approx(sps.norm.ppf(p), abs=1e-10)
        assert chisq1_quantile(p) == pytest.approx(sps.chi2.ppf(p, df=1), rel=1e-10, abs=1e-12)


def test_round_trip_below_target_accuracy():
    for p in np.linspace(0.001, 0.999, 199):
        assert abs(sps.norm.cdf(normal_quantile(p)) - p) < 1e-13
        assert abs(sps.chi2.cdf(chisq1_quantile(p), df=1) - p) < 1e-13


def test_monte_carlo_quantile_oracle():
    z = np.random.default_rng(123).standard_normal(10_000_000)
    q = z * z
    for p in (0.025, 0.5, 0.975):
        emp = np.quantile(q, p)
        # SE of an empirical quantile: sqrt(p (1-p) / N) / pdf(q_p)
        qp = chisq1_quantile(p)
        pdf = sps.chi2.pdf(qp, df=1)
        se = np.sqrt(p * (1 - p) / q.shape[0]) / pdf
        assert abs(emp - qp) <= 4 * se


def test_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ContractError):
            normal_quantile(bad)
        with pytest.raises(ContractError):
            chisq1_quantile(bad)

