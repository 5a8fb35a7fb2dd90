import itertools
import math
from statistics import NormalDist

import numpy as np
import pytest

import augquant as aq
from augquant.closedform import f2_variance, v_curve
from augquant import cli, closedform
from augquant.config import experiment_from_config, parse_config_text
from augquant.errors import ConfigError
from augquant.montecarlo import _jackknife_var_norm_se


def _exchangeable_source(rho=-0.5, sigma=1.0):
    return aq.gaussian_source([0.0, 0.0], sigma**2 * np.array([[1.0, rho], [rho, 1.0]]))


class TestRunExperiment:
    def test_constant_statistic(self):
        src = aq.gaussian_source([2.0], [[0.0]])  # point mass
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="iid_aug", statistic=aq.average_statistic(1),
                                  n=4, k=2, replicates=50, seed=0)
        res = aq.run_experiment(cfg)
        assert np.allclose(res.covariance, 0.0, atol=1e-20)
        assert res.empirical_ci_width == 0.0
        assert res.var_norm == 0.0

    def test_average_identity_matches_source_variance(self):
        src = aq.gaussian_source([0.0], [[1.7]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="iid_aug", statistic=aq.average_statistic(1),
                                  n=30, k=3, replicates=10_000, seed=1)
        res = aq.run_experiment(cfg)
        assert abs(res.var_norm - 1.7) <= 4 * res.se_of_variance

    def test_exp_neg_chisq_surrogate_matches_curve(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="surrogate", statistic=aq.exp_neg_chisq_statistic(),
                                  n=50, k=2, replicates=10_000, seed=2, delta=1.0)
        res = aq.run_experiment(cfg)
        assert abs(res.var_norm - v_curve(1.0)) <= 4 * res.se_of_variance

    def test_average_surrogate_matches_mixed_covariance(self):
        # the average's surrogate covariance is sigma11/k + (k-1)/k sigma12
        src = _exchangeable_source()
        fam = aq.swap_family()
        k = 4
        m = aq.estimate_moments(fam, src)
        theory = float(np.linalg.norm(m.sigma11 / k + (k - 1) / k * m.sigma12))
        cfg = aq.ExperimentConfig(source=src, family=fam, protocol="surrogate",
                                  statistic=aq.average_statistic(2), n=25, k=k,
                                  replicates=10_000, seed=21, delta=0.0)
        res = aq.run_experiment(cfg)
        assert abs(res.var_norm - theory) <= 4 * res.se_of_variance

    def test_f2_surrogate_matches_closed_form(self):
        src = _exchangeable_source()
        cfg = aq.ExperimentConfig(source=src, family=aq.swap_family(),
                                  protocol="surrogate",
                                  statistic=aq.exp_neg_chisq_statistic(2),
                                  n=40, k=3, replicates=10_000, seed=3, delta=1.0)
        res = aq.run_experiment(cfg)
        assert abs(res.var_norm - f2_variance(-0.5, 1.0)) <= 4 * res.se_of_variance

    def test_dimension_mismatch_rejected_before_sampling(self):
        src = aq.gaussian_source([0.0, 0.0], np.eye(2))
        with pytest.raises(ConfigError):
            aq.ExperimentConfig(source=src, family=aq.identity_family(2),
                                protocol="iid_aug", statistic=aq.average_statistic(3),
                                n=2, k=1, replicates=10, seed=0)

    def test_bad_protocol_rejected(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        with pytest.raises(ConfigError):
            aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                protocol="bootstrap", statistic=aq.average_statistic(1),
                                n=2, k=1, replicates=10, seed=0)


class TestDeterminism:
    def _config(self):
        return aq.ExperimentConfig(source=_exchangeable_source(), family=aq.swap_family(),
                                   protocol="iid_aug",
                                   statistic=aq.exp_neg_chisq_statistic(2),
                                   n=20, k=3, replicates=400, seed=77)

    def test_same_seed_bitwise(self):
        a = aq.run_experiment(self._config())
        b = aq.run_experiment(self._config())
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_worker_counts_bitwise(self):
        serial = aq.run_experiment(self._config(), workers=1)
        for workers in (2, 4, 8):
            parallel = aq.run_experiment(self._config(), workers=workers)
            assert serial.samples.tobytes() == parallel.samples.tobytes()

    def test_all_protocols_deterministic(self):
        src = _exchangeable_source()
        for proto in ("iid_aug", "repeated_aug", "unaugmented", "surrogate",
                      "repeated_surrogate"):
            cfg = aq.ExperimentConfig(source=src, family=aq.swap_family(),
                                      protocol=proto, statistic=aq.average_statistic(2),
                                      n=5, k=2, replicates=50, seed=11)
            a = aq.run_experiment(cfg)
            b = aq.run_experiment(cfg, workers=3)
            assert a.samples.tobytes() == b.samples.tobytes()


class TestJackknife:
    def test_matches_direct_recompute(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((150, 3))
        se_norm, se_first = _jackknife_var_norm_se(samples)
        loo_norm, loo_first = [], []
        for r in range(samples.shape[0]):
            rest = np.delete(samples, r, axis=0)
            c = np.cov(rest, rowvar=False, ddof=1)
            loo_norm.append(np.linalg.norm(c))
            loo_first.append(c[0, 0])
        n = samples.shape[0]
        ref_norm = math.sqrt((n - 1) / n * np.sum((np.array(loo_norm) - np.mean(loo_norm))**2))
        ref_first = math.sqrt((n - 1) / n * np.sum((np.array(loo_first) - np.mean(loo_first))**2))
        assert se_norm == pytest.approx(ref_norm, rel=1e-9)
        assert se_first == pytest.approx(ref_first, rel=1e-9)

    def test_scalar_case_consistency(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((400, 1))
        se_norm, se_first = _jackknife_var_norm_se(samples)
        assert se_norm == pytest.approx(se_first, rel=1e-12)


class TestCompareProtocols:
    def test_identity_family_ratio_is_one(self):
        src = aq.gaussian_source([0.0, 0.0], np.eye(2))
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(2),
                                  protocol="iid_aug", statistic=aq.average_statistic(2),
                                  n=20, k=2, replicates=4000, seed=6)
        rep = aq.compare_protocols(cfg, ["iid_aug", "unaugmented"])
        assert abs(rep.theta_hat - 1.0) <= 3 * rep.theta_se
        assert rep.theta_theory == pytest.approx(1.0, rel=1e-12)

    def test_swap_ratio_matches_closed_form(self):
        src = _exchangeable_source()
        cfg = aq.ExperimentConfig(source=src, family=aq.swap_family(),
                                  protocol="iid_aug", statistic=aq.average_statistic(2),
                                  n=50, k=5, replicates=6000, seed=7)
        rep = aq.compare_protocols(cfg, ["iid_aug", "unaugmented"])
        assert abs(rep.theta_hat - rep.theta_theory) <= 3 * rep.theta_se

    def test_missing_baseline_rejected(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="iid_aug", statistic=aq.average_statistic(1),
                                  n=5, k=1, replicates=10, seed=0)
        with pytest.raises(ConfigError):
            aq.compare_protocols(cfg, ["iid_aug", "surrogate"])

    @pytest.mark.parametrize("protocols,needle", [
        (["unaugmented"], "augmented protocol"),
        (["unaugmented", "unaugmented"], "augmented protocol"),
        (["iid_aug", "unaugmented", "iid_aug"], "twice"),
        (["iid_aug", "unaugmented", "unaugmented"], "twice")])
    def test_protocol_list_rejected_before_any_run(self, monkeypatch, protocols, needle):
        from augquant import montecarlo
        monkeypatch.setattr(montecarlo, "run_experiment", None)  # any run would raise
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="iid_aug", statistic=aq.average_statistic(1),
                                  n=5, k=1, replicates=10, seed=0)
        with pytest.raises(ConfigError, match=needle):
            aq.compare_protocols(cfg, protocols)

    def test_degenerate_denominator(self):
        src = aq.gaussian_source([2.0], [[0.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="iid_aug", statistic=aq.average_statistic(1),
                                  n=5, k=1, replicates=10, seed=0)
        rep = aq.compare_protocols(cfg, ["iid_aug", "unaugmented"])
        assert rep.degenerate and rep.theta_hat == math.inf and math.isnan(rep.theta_se)

    def test_ratio_is_the_closed_form_ratio_of_the_variance_norms(self):
        cfg = aq.ExperimentConfig(source=_exchangeable_source(), family=aq.swap_family(),
                                  protocol="iid_aug", statistic=aq.average_statistic(2),
                                  n=10, k=3, replicates=200, seed=4)
        rep = aq.compare_protocols(cfg, ["iid_aug", "unaugmented"])
        want = closedform.theta_ratio_general(rep.results["unaugmented"].var_norm,
                                              rep.results["iid_aug"].var_norm)
        assert rep.theta_hat == want and not rep.degenerate

    @pytest.mark.parametrize("k", [3, 10])
    def test_exponential_theory_follows_the_number_of_copies(self, k):
        # sign flips keep 30% of the time: the grand mean's variance is 1/k + (k-1)/k * 0.16
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.sign_flip_family(1, 0.3),
                                  protocol="iid_aug", statistic=aq.exp_neg_chisq_statistic(),
                                  n=100, k=k, replicates=4000, seed=11)
        rep = aq.compare_protocols(cfg, ["iid_aug", "unaugmented"])
        s = math.sqrt(1.0 / k + (k - 1) / k * 0.16)
        assert rep.theta_theory == pytest.approx(math.sqrt(v_curve(1.0) / v_curve(s)), rel=1e-12)
        assert abs(rep.theta_hat - rep.theta_theory) <= 3 * rep.theta_se


    def test_surrogate_theory_reads_delta(self):
        # the ratio's protocol is the list's first augmented entry; at delta = 1 its Sigma_k
        # is sigma12 = 0.16 Var X, so theta = sqrt(1 / 0.16)
        cfg = aq.ExperimentConfig(source=aq.gaussian_source([1.0], [[1.0]]),
                                  family=aq.sign_flip_family(1, 0.3), protocol="iid_aug",
                                  statistic=aq.average_statistic(1), n=20, k=4,
                                  replicates=4000, seed=5, delta=1.0)
        rep = aq.compare_protocols(cfg, ["surrogate", "unaugmented"])
        assert rep.theta_theory == pytest.approx(2.5, rel=1e-12)
        assert abs(rep.theta_hat - rep.theta_theory) <= 3 * rep.theta_se

    @pytest.mark.parametrize("protocol", ["repeated_aug", "repeated_surrogate"])
    def test_repeated_theory_is_the_shared_map_law(self, protocol):
        # sign flips keeping 30% of the time on N(1, 1): E[A^2] = 1, sigma12 = 0.16 and
        # Var(A mu) = 0.84, so at n = 20, k = 2 Sigma = 1 / 2 + 0.16 / 2 + 10 * 0.84
        cfg = aq.ExperimentConfig(source=aq.gaussian_source([1.0], [[1.0]]),
                                  family=aq.sign_flip_family(1, 0.3), protocol="iid_aug",
                                  statistic=aq.average_statistic(1), n=20, k=2,
                                  replicates=50, seed=5)
        rep = aq.compare_protocols(cfg, [protocol, "unaugmented"])
        assert rep.theta_theory == pytest.approx(math.sqrt(1.0 / 8.98), rel=1e-12)

    @pytest.mark.parametrize("mean,family,protocol,statistic", [
        (0.0, aq.TransformationFamily([[[1.0]], [[-0.5]]], [[0.2], [1.0]], [0.6, 0.4]),
         "iid_aug", aq.exp_neg_chisq_statistic()),
        (1.0, aq.sign_flip_family(1, 0.5), "iid_aug", aq.exp_neg_chisq_statistic()),
        (0.0, aq.sign_flip_family(1, 0.3), "repeated_aug", aq.exp_neg_chisq_statistic()),
    ], ids=["offset_exp", "uncentred_source_exp", "repeated_exp"])
    def test_no_theory_without_a_closed_form(self, mean, family, protocol, statistic):
        cfg = aq.ExperimentConfig(source=aq.gaussian_source([mean], [[1.0]]), family=family,
                                  protocol="iid_aug", statistic=statistic, n=20, k=2,
                                  replicates=50, seed=5)
        assert aq.compare_protocols(cfg, [protocol, "unaugmented"]).theta_theory is None


def _jackknife_cov_se(samples):
    """Delete-one jackknife SE of every entry of the sample covariance of (R, q) samples."""
    r = len(samples)
    dev = samples - samples.mean(axis=0)
    loo = (dev.T @ dev - r / (r - 1.0) * dev[:, :, None] * dev[:, None, :]) / (r - 2.0)
    return np.sqrt((r - 1.0) / r * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))


class TestRepeatedLaw:
    """The repeated protocols' grand-mean covariance against repeated_aug's sample covariance
    of the average.  In every case the maps move the mean, so the n / k term carries most
    of Sigma.  R = 100000 puts each entry's jackknife SE near 0.4% of its value, so that
    sigma11 in place of E[A Sigma A^T] in the 1 / k term would lie 5 SE or more away."""

    CASES = {
        "sign_flip": (aq.gaussian_source([1.0], [[1.0]]), aq.sign_flip_family(1, 0.3), 20, 4),
        "swap": (aq.gaussian_source([1.0, -2.0], [[1.0, -0.5], [-0.5, 1.0]]),
                 aq.swap_family(), 50, 5),
        "offset_maps": (aq.gaussian_source([1.0, -3.0], [[1.0, 0.9], [0.9, 1.0]]),
                        aq.TransformationFamily(
                            [[[0.3, -1.2], [0.8, 2.5]], [[1.0, 0.0], [0.0, -1.0]]],
                            [[1.0, 0.0], [-0.5, 2.0]], [0.3, 0.7]), 30, 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_sample_covariance(self, case):
        src, fam, n, k = self.CASES[case]
        cfg = aq.ExperimentConfig(source=src, family=fam, protocol="repeated_aug",
                                  statistic=aq.average_statistic(src.dim), n=n, k=k,
                                  replicates=100_000, seed=11)
        mean, sigma = closedform.grand_mean_law(fam, src, "repeated_aug", n, k, 0.0)
        samples = aq.run_experiment(cfg).samples
        z = (np.cov(samples, rowvar=False).reshape(sigma.shape) - sigma) \
            / _jackknife_cov_se(samples)
        assert np.all(np.abs(z) <= 4.0), z
        assert np.array_equal(mean, aq.estimate_moments(fam, src).mean_phi_x)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_repeated_surrogate_has_the_same_law(self, case):
        src, fam, n, k = self.CASES[case]
        aug, sur = (closedform.grand_mean_law(fam, src, p, n, k, 0.0)
                    for p in ("repeated_aug", "repeated_surrogate"))
        assert all(np.array_equal(a, b) for a, b in zip(aug, sur))


class TestOneRowLaw:
    """The average's samples against ``closedform.grand_mean_law`` under every protocol, each
    drawing one row per replicate for the mean statistics.  The source is not centred and
    the maps carry offsets, so the row's shift of sqrt(n) - 1 times each cell's mean moves
    the sample mean (and, through the shared member counts, the repeated protocols'
    covariance): a shift of 0 or of n - 1 lies far outside 4 SE at n = 2 and n = 400.
    Under ``iid_aug`` the row is drawn from the member-count Gram, whose column sums carry
    the offsets and the mean."""

    SOURCE = aq.gaussian_source([1.0, -3.0], [[1.0, 0.9], [0.9, 1.0]])
    FAMILY = aq.TransformationFamily([[[0.3, -1.2], [0.8, 2.5]], [[1.0, 0.0], [0.0, -1.0]]],
                                     [[1.0, 0.0], [-0.5, 2.0]], [0.3, 0.7])
    RUNS = (("unaugmented", 0.0), ("surrogate", 0.0), ("surrogate", 1.0),
            ("repeated_aug", 0.0), ("repeated_surrogate", 0.0))

    def _check(self, protocol, delta, n, k, seed):
        r = 20_000
        cfg = aq.ExperimentConfig(source=self.SOURCE, family=self.FAMILY, protocol=protocol,
                                  statistic=aq.average_statistic(2), n=n, k=k, replicates=r,
                                  seed=seed, delta=delta)
        mean, sigma = closedform.grand_mean_law(self.FAMILY, self.SOURCE, protocol, n, k,
                                                delta)
        samples = aq.run_experiment(cfg).samples
        z_mean = (samples.mean(axis=0) - math.sqrt(n) * mean) \
            / (samples.std(axis=0, ddof=1) / math.sqrt(r))
        assert np.all(np.abs(z_mean) <= 4.0), z_mean
        z_cov = (np.cov(samples, rowvar=False) - sigma) / _jackknife_cov_se(samples)
        assert np.all(np.abs(z_cov) <= 4.0), z_cov

    @pytest.mark.parametrize("n", [1, 2, 400])
    @pytest.mark.parametrize("protocol, delta", RUNS)
    def test_matches_the_grand_mean_law(self, protocol, delta, n):
        self._check(protocol, delta, n, 3, 600 + 10 * self.RUNS.index((protocol, delta)) + n)

    @pytest.mark.parametrize("n", [1, 2, 400])
    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_iid_aug_matches_the_grand_mean_law(self, k, n):
        self._check("iid_aug", 0.0, n, k, 700 + 100 * (1, 3, 50).index(k) + n)


class TestIidAugMixtureLaw:
    """The ``iid_aug`` average's law, not just its second moments: given the rows' member
    counts the grand sum is Gaussian, so the average is a Gaussian mixture over the count
    patterns, and its empirical CDF must match the mixture's within 4 binomial SE.  The two
    maps x -> x + 2 and x -> 3 x - 2 are far apart, so the mixture is far from Gaussian: a
    draw from the expected count Gram E[G] in place of G has the same first two moments
    but misses the CDF by many SE."""

    MU, VAR, WEIGHTS = 0.5, 1.0, (0.4, 0.6)
    SCALES, OFFSETS = (1.0, 3.0), (2.0, -2.0)

    def _mixture_cdf(self, n, k):
        """The exact CDF of the average over every count pattern of the n rows."""
        rows = []  # per row: (probability, sum_m c_m A_m, sum_m c_m a_m) per count vector
        for c0 in range(k + 1):
            c = (c0, k - c0)
            rows.append((math.comb(k, c0) * self.WEIGHTS[0] ** c0 * self.WEIGHTS[1] ** c[1],
                         c[0] * self.SCALES[0] + c[1] * self.SCALES[1],
                         c[0] * self.OFFSETS[0] + c[1] * self.OFFSETS[1]))
        parts = []
        for pattern in itertools.product(rows, repeat=n):
            prob = math.prod(p for p, _, _ in pattern)
            mean = sum(a * self.MU + b for _, a, b in pattern)
            sd = math.sqrt(sum(a * a for _, a, _ in pattern) * self.VAR)
            parts.append((prob, NormalDist(mean, sd)))
        scale = math.sqrt(n) * k  # the average is the grand sum over sqrt(n) k
        return lambda t: sum(p * law.cdf(t * scale) for p, law in parts)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_empirical_cdf_matches_the_mixture(self, k, n):
        r = 20_000
        family = aq.TransformationFamily([[[a]] for a in self.SCALES],
                                         [[b] for b in self.OFFSETS], self.WEIGHTS)
        cfg = aq.ExperimentConfig(source=aq.gaussian_source([self.MU], [[self.VAR]]),
                                  family=family, protocol="iid_aug",
                                  statistic=aq.average_statistic(1), n=n, k=k, replicates=r,
                                  seed=900 + 10 * k + n)
        samples = aq.run_experiment(cfg).samples[:, 0]
        cdf = self._mixture_cdf(n, k)
        for t in np.linspace(-2.0, 3.0, 11) * math.sqrt(n):
            p = cdf(t)
            se = math.sqrt(p * (1.0 - p) / r)
            assert abs(np.mean(samples <= t) - p) <= 4.0 * se, (t, np.mean(samples <= t), p)


class TestCoverage:
    def test_nominal_95_on_surrogate_draws(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="surrogate", statistic=aq.exp_neg_chisq_statistic(),
                                  n=50, k=1, replicates=2000, seed=14, alpha=0.05, delta=1.0)
        p, se, _ = aq.coverage_check(cfg)
        assert 0.935 <= p <= 0.965

    def test_nominal_half_level(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="unaugmented", statistic=aq.average_statistic(1),
                                  n=50, k=2, replicates=2000, seed=8, alpha=0.5)
        p, se, _ = aq.coverage_check(cfg)
        assert 0.46 <= p <= 0.54

    def test_degenerate_interval_covers_point_mass(self):
        src = aq.gaussian_source([0.0], [[0.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="surrogate", statistic=aq.exp_neg_chisq_statistic(),
                                  n=10, k=1, replicates=100, seed=9)
        p, se, interval = aq.coverage_check(cfg)
        assert p == 1.0 and interval.lo == interval.hi == 1.0

    def test_repeated_protocols_have_no_interval(self):
        # rows that share their maps are not the i.i.d. law whose interval Sigma_k gives
        src = aq.gaussian_source([0.0], [[1.0]])
        fam = aq.TransformationFamily([[[1.0]], [[1.0]]], [[1.0], [-1.0]], [0.8, 0.2])
        for proto in ("repeated_aug", "repeated_surrogate"):
            cfg = aq.ExperimentConfig(source=src, family=fam, protocol=proto,
                                      statistic=aq.average_statistic(1), n=50, k=4,
                                      replicates=20, seed=15)
            with pytest.raises(ConfigError, match=proto):
                aq.coverage_check(cfg)

    def test_surrogate_interval_reads_delta(self):
        # at delta = 1 the surrogate's diagonal block is sigma12, so Sigma_k is sigma12
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.sign_flip_family(1, 0.3),
                                  protocol="surrogate", statistic=aq.average_statistic(1),
                                  n=20, k=2, replicates=2000, seed=3, delta=1.0)
        p, se, interval = aq.coverage_check(cfg)
        assert interval.hi == pytest.approx(1.959963984540054 * math.sqrt(0.16 / 20), rel=1e-9)
        assert abs(p - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / 2000)

    def test_chisq_interval_needs_a_centred_law(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        fam = aq.TransformationFamily([[[1.0]], [[-0.5]]], [[0.2], [1.0]], [0.6, 0.4])
        cfg = aq.ExperimentConfig(source=src, family=fam, protocol="iid_aug",
                                  statistic=aq.exp_neg_chisq_statistic(), n=20, k=2,
                                  replicates=20, seed=3)
        with pytest.raises(ConfigError, match="centred"):
            aq.coverage_check(cfg)

    def test_chisq_interval_needs_one_coordinate(self):
        cfg = aq.ExperimentConfig(source=_exchangeable_source(), family=aq.swap_family(),
                                  protocol="iid_aug", statistic=aq.exp_neg_chisq_statistic(2),
                                  n=20, k=2, replicates=20, seed=3)
        with pytest.raises(ConfigError, match="1-d exponential"):
            aq.coverage_check(cfg)
        assert aq.compare_protocols(cfg, ["iid_aug", "unaugmented"]).theta_theory is None

    def test_statistic_without_interval_is_refused(self):
        # the interval is read from the statistic, so one without a closed form has none
        src = aq.gaussian_source([0.0], [[1.0]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="surrogate", statistic=aq.hard_max_statistic(1),
                                  n=10, k=1, replicates=50, seed=10)
        with pytest.raises(ConfigError, match="hardmax"):
            aq.coverage_check(cfg)


def test_clt_sanity_for_augmented_average():
    src = aq.gaussian_source([0.0], [[1.0]])
    cfg = aq.ExperimentConfig(source=src, family=aq.sign_flip_family(1, 0.8),
                              protocol="iid_aug", statistic=aq.average_statistic(1),
                              n=200, k=2, replicates=10_000, seed=12)
    res = aq.run_experiment(cfg)
    x = res.samples[:, 0]
    z = (x - x.mean()) / x.std(ddof=1)
    r = len(x)
    skew = np.mean(z**3)
    ex_kurt = np.mean(z**4) - 3.0
    assert abs(skew) <= 4 * math.sqrt(6.0 / r)
    assert abs(ex_kurt) <= 4 * math.sqrt(24.0 / r)


def _reload_result(text):
    """The samples, the '# name = value' summary and the rebuilt config echo of a result.csv.

    The echo lines are config-file lines behind a '# config.' prefix, so the
    config parser and builder read them back.
    """
    lines = text.splitlines()
    samples = np.array([[float(v) for v in line.split(",")]
                        for line in lines[1:] if not line.startswith("#")])
    echo = "\n".join(line[len("# config."):] for line in lines if line.startswith("# config."))
    summary = {}
    for line in lines:
        if line.startswith("# ") and not line.startswith("# config."):
            name, raw = line[2:].split(" = ", 1)
            summary[name] = np.array([float(v) for v in raw.strip("[]").split(",")])
    return samples, summary, experiment_from_config(parse_config_text(echo))


# the run's own keys, then one family per case: config text of a source, family and statistic
_RUN = "protocol = surrogate\nn = 6\nk = 2\nreplicates = 25\nseed = 13\nalpha = 0.1\ndelta = 0.5\n"
_REGRESSION = ("source.kind = regression\nsource.mean = {mean}\nsource.cov = {cov}\n"
               "source.noise_scale = 0.5\nfamily.paired = true\n")
_ECHO_CASES = {
    "identity_paired": _REGRESSION.format(mean="[0.5]", cov="[1.0]")
    + "family.kind = identity\nfamily.dim = 1\nstatistic.kind = average\nstatistic.d = 2\n",
    "random_crop_paired": _REGRESSION.format(mean="[0.5, -1.0]", cov="[1.0, 0.3, 0.3, 2.0]")
    + "family.kind = random_crop\nfamily.dim = 2\nstatistic.kind = average\nstatistic.d = 4\n",
    "cyclic_rotation_paired": _REGRESSION.format(mean="[0.5, -1.0]", cov="[1.0, 0.3, 0.3, 2.0]")
    + "family.kind = cyclic_rotation\nfamily.dim = 2\nstatistic.kind = average\n"
      "statistic.d = 4\n",
    "finite_uniform": "source.kind = gaussian\nsource.mean = [0.0, 0.0]\n"
    "source.cov = [1.0, -0.5, -0.5, 1.0]\nfamily.kind = finite_uniform\n"
    "family.weights = [0.25, 0.75]\nfamily.member0.matrix = [1.0, 0.0, 0.0, 1.0]\n"
    "family.member1.matrix = [0.0, 1.0, 1.0, 0.0]\nfamily.member1.offset = [0.5, -0.25]\n"
    "statistic.kind = average\nstatistic.d = 2\n",
}


@pytest.mark.parametrize("case", sorted(_ECHO_CASES))
def test_result_round_trip_through_csv(tmp_path, case):
    (tmp_path / "run.cfg").write_text(_RUN + _ECHO_CASES[case])
    assert cli.main(["simulate", "--config", str(tmp_path / "run.cfg"), "--out",
                     str(tmp_path / "out"), "--seed", "99"]) == 0
    ran = experiment_from_config(parse_config_text(_RUN + _ECHO_CASES[case]), seed_override=99)
    res = aq.run_experiment(ran)
    text = (tmp_path / "out" / "result.csv").read_text()
    assert "# config.seed = 99" in text.splitlines()  # the override, not the config's 13
    samples, back, echo = _reload_result(text)
    assert np.array_equal(samples, res.samples)
    assert np.array_equal(back["mean"], res.mean)
    assert np.array_equal(back["covariance"].reshape(res.covariance.shape), res.covariance)
    assert back["var_norm"] == res.var_norm
    assert back["std_of_first_coord"] == res.std_of_first_coord
    assert back["se_of_variance"] == res.se_of_variance
    assert back["empirical_ci_width"] == res.empirical_ci_width
    assert (echo.protocol, echo.n, echo.k, echo.replicates, echo.seed,
            echo.alpha, echo.delta) == ("surrogate", 6, 2, 25, 99, 0.1, 0.5)
    assert np.array_equal(echo.source.cov, ran.source.cov)
    assert np.array_equal(echo.family.matrices, ran.family.matrices)
    assert np.array_equal(echo.family.offsets, ran.family.offsets)
    assert np.array_equal(echo.family.weights, ran.family.weights)
    rerun = aq.run_experiment(echo)
    assert rerun.samples.tobytes() == res.samples.tobytes()
