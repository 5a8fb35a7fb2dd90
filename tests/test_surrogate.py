import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import augquant as aq
from augquant.errors import ContractError, NumericalError
from augquant.rng import substream
from augquant.surrogate import (AugmentationMoments, _member_moments, psd_factor,
                                sample_surrogate_cells, sample_surrogate_rows)

EXCHANGEABLE = np.array([[1.0, -0.5], [-0.5, 1.0]])


def monte_carlo_moments(family, source, num_samples, seed):
    """The sampled reference for the closed-form moments: each field of
    ``AugmentationMoments`` from ``num_samples`` transformed pairs, both
    conditional variances estimated directly rather than as differences."""
    rng = substream(seed)
    x = source.sample(num_samples, rng)
    idx1 = family.sample_indices(num_samples, rng)
    idx2 = family.sample_indices(num_samples, rng)
    d = x.shape[1]
    images = family.images(x)
    rows = np.arange(num_samples)
    y1, y2 = images[rows, idx1], images[rows, idx2]
    mean = y1.mean(axis=0)
    sigma11 = np.cov(y1, rowvar=False, ddof=1).reshape(d, d)
    c = (y1 - mean).T @ (y2 - y2.mean(axis=0)) / (num_samples - 1)
    # E Var(phi X | X): the spread of each map around the mean map at the same X
    dev = y1 - family.weights @ images
    # E Var(phi X | phi): the spread of the image around its map's mean
    resid1 = y1 - _member_moments(family, source)[0][idx1]
    return SimpleNamespace(
        mean_phi_x=mean, sigma11=sigma11, sigma12=0.5 * (c + c.T),
        mean_cond_var=dev.T @ dev / num_samples,
        mean_var_given_map=resid1.T @ resid1 / num_samples,
        sixth_moment=float(np.mean(np.sum(y1 * y1, axis=1) ** 3)))


def _swap_setup(rho=-0.5, sigma=1.0):
    src = aq.gaussian_source([0.0, 0.0], sigma * sigma * np.array([[1.0, rho], [rho, 1.0]]))
    return aq.swap_family(), src


class TestExactMoments:
    def test_identity_family(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        src = aq.gaussian_source([0.5, -1.0], cov)
        m = aq.estimate_moments(aq.identity_family(2), src)
        assert np.allclose(m.mean_phi_x, [0.5, -1.0])
        assert np.allclose(m.sigma11, cov)
        assert np.allclose(m.sigma12, cov)
        assert np.allclose(m.mean_cond_var, 0.0, atol=1e-14)

    @pytest.mark.parametrize("mean,cov", [([1e8], [[1.0]]),
                                          ([3.3e7, -3.3e7], [[1.0, 0.3], [0.3, 2.0]])])
    def test_identity_family_is_exact_at_a_large_mean(self, mean, cov):
        # a raw second moment minus the mean's outer product cancels Sigma away at these means
        src = aq.gaussian_source(mean, cov)
        m = aq.estimate_moments(aq.identity_family(len(mean)), src)
        assert m.sigma11.tobytes() == src.joint_cov().tobytes()
        assert m.sigma12.tobytes() == src.joint_cov().tobytes()
        assert np.all(m.mean_cond_var == 0.0)

    def test_swap_cross_covariance(self):
        fam, src = _swap_setup()
        m = aq.estimate_moments(fam, src)
        # (1 + rho) sigma^2 / 2 = 0.25 at rho = -0.5, sigma = 1
        assert np.allclose(m.sigma12, 0.25 * np.ones((2, 2)), atol=1e-14)
        assert np.allclose(m.sigma11, EXCHANGEABLE, atol=1e-14)

    def test_sixth_moment_standard_normal(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        m = aq.estimate_moments(aq.identity_family(1), src)
        assert m.sixth_moment == pytest.approx(15.0, rel=1e-12)

    def test_monte_carlo_matches_exact(self):
        fam, src = _swap_setup()
        exact = aq.estimate_moments(fam, src)
        n_mc = 200_000
        mc = monte_carlo_moments(fam, src, num_samples=n_mc, seed=7)

        # independent oracle for the entrywise SE: draw fresh transformed pairs
        # and take the SD of the cross products
        rng = np.random.default_rng(1234)
        x = src.sample(n_mc, rng)
        i1 = fam.sample_indices(n_mc, rng)
        i2 = fam.sample_indices(n_mc, rng)
        mats = fam.matrices
        y1 = np.einsum("nij,nj->ni", mats[i1], x)
        y2 = np.einsum("nij,nj->ni", mats[i2], x)
        prods = (y1 - y1.mean(0))[:, :, None] * (y2 - y2.mean(0))[:, None, :]
        se = prods.std(axis=0) / np.sqrt(n_mc)
        assert np.all(np.abs(mc.sigma12 - exact.sigma12) <= 4 * se)
        assert abs(mc.sixth_moment - exact.sixth_moment) <= \
            4 * np.std(np.sum(y1 * y1, 1) ** 3) / np.sqrt(n_mc)

    def test_cross_covariance_equals_variance_of_conditional_mean(self):
        # two Monte Carlo routes to the same matrix agree within joint error
        fam, src = _swap_setup()
        n_mc = 100_000
        rng = np.random.default_rng(5)
        x = src.sample(n_mc, rng)
        mats = fam.matrices
        i1, i2 = fam.sample_indices(n_mc, rng), fam.sample_indices(n_mc, rng)
        y1 = np.einsum("nij,nj->ni", mats[i1], x)
        y2 = np.einsum("nij,nj->ni", mats[i2], x)
        cross = np.cov(np.concatenate([y1, y2], 1), rowvar=False)[:2, 2:]
        cond_mean = x @ (0.5 * (mats[0] + mats[1])).T
        var_cond = np.cov(cond_mean, rowvar=False)
        prods = (y1 - y1.mean(0))[:, :, None] * (y2 - y2.mean(0))[:, None, :]
        se = prods.std(axis=0) / np.sqrt(n_mc)
        assert np.all(np.abs(cross - var_cond) <= 4 * 2 * se)


class TestCovarianceOrdering:
    @pytest.mark.parametrize("family,source", [
        (aq.swap_family(), aq.gaussian_source([0.0, 0.0], EXCHANGEABLE)),
        (aq.random_crop_family(2), aq.gaussian_source([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])),
        (aq.cyclic_rotation_family(4), aq.gaussian_source([2.0] * 4, np.eye(4))),
        (aq.sign_flip_family(1, 0.7), aq.gaussian_source([0.2], [[1.5]])),
    ])
    def test_loewner_sandwich(self, family, source):
        m = aq.estimate_moments(family, source)
        w1 = np.linalg.eigvalsh(m.sigma11 - m.mean_var_given_map)
        w2 = np.linalg.eigvalsh(m.mean_var_given_map - m.sigma12)
        assert w1.min() >= -1e-8
        assert w2.min() >= -1e-8


class TestBuildSurrogate:
    def test_delta_zero_and_one(self):
        fam, src = _swap_setup()
        m = aq.estimate_moments(fam, src)
        s0 = aq.build_surrogate(m, n=10, k=3, delta=0.0)
        s1 = aq.build_surrogate(m, n=10, k=3, delta=1.0)
        assert np.allclose(s0.diag_block, m.sigma11)
        assert np.allclose(s1.diag_block, m.sigma12)
        assert np.allclose(s1.full_covariance(), np.tile(m.sigma12, (3, 3)))

    def test_delta_interpolation_exact(self):
        fam, src = _swap_setup()
        m = aq.estimate_moments(fam, src)
        c0 = aq.build_surrogate(m, 5, 2, 0.0).full_covariance()
        c1 = aq.build_surrogate(m, 5, 2, 1.0).full_covariance()
        for delta in (0.25, 0.5, 0.9):
            cd = aq.build_surrogate(m, 5, 2, delta).full_covariance()
            assert np.allclose(cd, (1 - delta) * c0 + delta * c1, atol=1e-14)

    def test_identity_family_equals_replicate_spec(self):
        src = aq.gaussian_source([0.3, -0.2], EXCHANGEABLE)
        m = aq.estimate_moments(aq.identity_family(2), src)
        for delta in (0.0, 0.5, 1.0):
            spec = aq.build_surrogate(m, 4, 3, delta)
            assert np.allclose(spec.diag_block, src.joint_cov())
            assert np.allclose(spec.offdiag_block, src.joint_cov())
            assert np.allclose(spec.mean_block, src.joint_mean())

    # a single map A gives sigma11 = sigma12 = A Sigma A^T bitwise, so the residual
    # block diag - offdiag is exactly 0 at every delta, not rounding noise
    @pytest.mark.parametrize("family,source", [
        (aq.identity_family(1), aq.gaussian_source([0.5], [[2.0]])),
        (aq.identity_family(2), aq.gaussian_source([1.0, -3.0], [[1.0, 0.9], [0.9, 1.0]])),
        (aq.identity_family(2).paired(),
         aq.regression_source([1.0, 2.0], [[1.0, 0.3], [0.3, 2.0]], 0.7)),
        (aq.TransformationFamily([[[0.3, -1.2], [0.8, 2.5]]], [[1.0, -2.0]]),
         aq.gaussian_source([4.0, 1e3], [[3.0, -1.1], [-1.1, 0.6]])),
    ], ids=["identity_1d", "identity_2d", "paired_identity", "one_member_finite_uniform"])
    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
    def test_one_member_family_builds_at_every_delta(self, family, source, delta):
        m = aq.estimate_moments(family, source)
        spec = aq.build_surrogate(m, 10, 5, delta)
        assert np.array_equal(spec.diag_block, m.sigma12)
        assert np.array_equal(spec.diag_block - spec.offdiag_block, np.zeros_like(m.sigma12))

    # a family that lists one map twice: sigma11 - sigma12 is a sum of PSD spreads that
    # vanish for repeated maps, so the residual block is 0, not indefinite rounding noise
    @pytest.mark.parametrize("matrix", [np.eye(2), np.array([[0.3, -1.2], [0.8, 2.5]])],
                             ids=["identity", "dense"])
    @pytest.mark.parametrize("weights", [[0.3, 0.7], [0.1, 0.9], [1 / 3, 2 / 3], [0.25, 0.75]])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_repeated_map_family_builds_at_every_delta(self, matrix, weights, delta):
        fam = aq.TransformationFamily([matrix, matrix], weights=weights)
        m = aq.estimate_moments(fam, aq.gaussian_source([1.0, -3.0], [[1.0, 0.9], [0.9, 1.0]]))
        spec = aq.build_surrogate(m, 10, 5, delta)
        assert np.array_equal(spec.diag_block - spec.offdiag_block, np.zeros((2, 2)))

    def test_ordering_violation_rejected(self):
        bad = AugmentationMoments(
            mean_phi_x=np.zeros(1), sigma11=np.array([[1.0]]),
            sigma12=np.array([[2.0]]),  # exceeds the marginal variance
            mean_var_given_map=np.array([[1.0]]), sixth_moment=15.0)
        with pytest.raises(NumericalError):
            aq.build_surrogate(bad, 2, 2, 0.0)


class TestSampleSurrogate:
    def test_perfect_replication_when_blocks_equal(self):
        spec = aq.SurrogateSpec(n=100, k=4, delta=0.0, mean_block=np.array([1.0, 2.0]),
                                diag_block=EXCHANGEABLE, offdiag_block=EXCHANGEABLE)
        rows = aq.sample_surrogate(spec, seed=3).reshape(100, 4, 2)
        for j in range(1, 4):
            assert np.allclose(rows[:, j, :], rows[:, 0, :], atol=1e-12)

    def test_independent_slots_when_offdiag_zero(self):
        m = AugmentationMoments(
            mean_phi_x=np.zeros(1), sigma11=np.array([[1.0]]),
            sigma12=np.array([[0.0]]), mean_var_given_map=np.array([[1.0]]),
            sixth_moment=15.0)
        spec = aq.build_surrogate(m, n=50_000, k=3, delta=0.0)
        rows = aq.sample_surrogate(spec, seed=4).reshape(-1, 3)
        c = np.cov(rows, rowvar=False)
        se = np.sqrt((c[0, 0] * c[1, 1]) / rows.shape[0])
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) <= 4 * se)

    def test_full_covariance_reconstruction(self):
        fam, src = _swap_setup()
        m = aq.estimate_moments(fam, src)
        spec = aq.build_surrogate(m, n=1, k=3, delta=0.0)
        n_rows = 100_000
        rows = sample_surrogate_rows(spec, n_rows, seed=11)
        emp = np.cov(rows, rowvar=False)
        theory = spec.full_covariance()
        diag = np.diag(theory)
        se = np.sqrt((np.outer(diag, diag) + theory**2) / n_rows)
        assert np.all(np.abs(emp - theory) <= 4 * se)
        mean_se = np.sqrt(diag / n_rows)
        assert np.all(np.abs(rows.mean(axis=0) - spec.full_mean()) <= 4 * mean_se)

    def test_determinism(self):
        fam, src = _swap_setup()
        spec = aq.build_surrogate(aq.estimate_moments(fam, src), 20, 2, 0.5)
        assert aq.sample_surrogate(spec, 9).tobytes() == aq.sample_surrogate(spec, 9).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_cells_match_the_stacked_product(self, shape, k, d):
        # the reference multiplies with a stacked matmul and adds by broadcasting; its bits
        # may differ from the one 2-D product (a vector-matrix product at k = 1, d = 4)
        def stacked(spec, shape, rng):
            l_shared, l_resid = spec._factors
            a = rng.standard_normal((*shape, spec.d)) @ l_shared.T
            cells = rng.standard_normal((*shape, spec.k, spec.d)) @ l_resid.T
            cells += spec.mean_block
            cells += a[..., None, :]
            return cells

        g = np.random.default_rng(100 * k + d).standard_normal((2, d, d))
        offdiag = g[0] @ g[0].T
        spec = aq.SurrogateSpec(n=1, k=k, delta=0.0, mean_block=np.linspace(1.0, -2.0, d),
                                diag_block=offdiag + g[1] @ g[1].T, offdiag_block=offdiag)
        got_rng, want_rng = substream(5), substream(5)
        got = sample_surrogate_cells(spec, shape, got_rng)
        want = stacked(spec, shape, want_rng)
        assert got.shape == want.shape == (*shape, k, d)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert got_rng.random() == want_rng.random()  # the stream is consumed as before


class TestRepeatedSurrogate:
    def test_point_mass_family(self):
        fam = aq.TransformationFamily([[[2.0, 0.0], [0.0, 0.5]]], [[1.0, -1.0]])
        src = aq.gaussian_source([0.0, 0.0], np.eye(2))
        rows = aq.sample_repeated_surrogate(fam, src, n=50_000, k=2, seed=6).reshape(-1, 2, 2)
        # both slots carry the same map, hence identical values
        assert np.allclose(rows[:, 0, :], rows[:, 1, :])
        got_mean = rows[:, 0, :].mean(axis=0)
        assert np.all(np.abs(got_mean - [1.0, -1.0]) <= 4 * np.array([2.0, 0.5]) / np.sqrt(50_000))

    def test_unconditional_slot_mean_matches_tower_property(self):
        fam, src = _swap_setup()
        src = aq.gaussian_source([0.5, -0.5], EXCHANGEABLE)
        m = aq.estimate_moments(fam, src)
        vals = []
        for rep in range(200):
            rows = aq.sample_repeated_surrogate(fam, src, n=50, k=3, seed=rep)
            vals.append(rows.reshape(-1, 2).mean(axis=0))
        vals = np.asarray(vals)
        se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
        assert np.all(np.abs(vals.mean(axis=0) - m.mean_phi_x) <= 4 * se)

    def test_exchangeable_source_sum_variance_matches_iid(self):
        # identity/swap on an exchangeable source: the conditional law of the
        # slot sum does not depend on the drawn maps
        fam, src = _swap_setup()
        k, n = 3, 40
        sums_rep, sums_iid = [], []
        spec = aq.build_surrogate(aq.estimate_moments(fam, src), n, k, 0.0)
        for rep in range(400):
            r1 = aq.sample_repeated_surrogate(fam, src, n, k, seed=rep)
            sums_rep.append(r1.sum())
            sums_iid.append(sample_surrogate_rows(spec, n, seed=10_000 + rep).sum())
        v1, v2 = np.var(sums_rep, ddof=1), np.var(sums_iid, ddof=1)
        se = np.sqrt(2.0 / 400) * max(v1, v2)
        assert abs(v1 - v2) <= 4 * np.sqrt(2) * se


class TestPsdPolicy:
    def test_small_negative_eigenvalue_tolerated(self):
        m = np.array([[1.0, 0.0], [0.0, -1e-9]])
        fac = psd_factor(m, "test", NumericalError)
        assert np.allclose(fac @ fac.T, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-8)

    def test_large_violation_fails(self):
        with pytest.raises(NumericalError):
            psd_factor(np.array([[1.0, 0.0], [0.0, -1e-3]]), "test", NumericalError)

    def test_zero_matrix_factors(self):
        fac = psd_factor(np.zeros((3, 3)), "test", NumericalError)
        assert np.allclose(fac, 0.0)

    def test_a_stack_factors_each_matrix_alike(self):
        # integer count Grams, singular ones among them: a one-hot row, a zero-count member
        counts = np.random.default_rng(5).multinomial(3, [0.5, 0.5, 0.0], size=(6, 4))
        counts[0] = [[3, 0, 0]] * 4
        grams = counts.transpose(0, 2, 1) @ counts
        stack = psd_factor(grams, "test", NumericalError)
        assert stack.shape == (6, 3, 3)
        for gram, fac in zip(grams, stack):
            assert fac.tobytes() == psd_factor(gram, "test", NumericalError).tobytes()
            assert np.abs(fac @ fac.T - gram).max() <= 1e-14 * gram.max()

    def test_a_stack_is_refused_by_its_worst_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.diag([1.0, -1e-12])])
        with pytest.raises(NumericalError, match=r"stack is not positive semidefinite "
                                                 r"\(eigmin=-0\.001\)"):
            psd_factor(stack, "stack", NumericalError)
        with pytest.raises(NumericalError, match="stack must be square"):
            psd_factor(np.zeros((4, 2, 3)), "stack", NumericalError)
        with pytest.raises(NumericalError, match="stack must be symmetric"):
            psd_factor(np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]), "stack", NumericalError)

    # one rule at every scale of the covariance: lambda_min >= -1e-8 max|lambda|; a
    # non-finite mean or cov entry is refused by name, before anything can warn
    @pytest.mark.parametrize("cov,refused,mean", [
        ([[1.0, 0.0], [0.0, -1e-9]], None, None),
        ([[0.0, 0.0], [0.0, 0.0]], None, None),
        ([[1.0, 0.0], [0.0, -1e-7]], "cov", None),
        ([[1e-6, 0.0], [0.0, -5e-9]], "cov", None),
        ([[1e-3, 0.0], [0.0, -5e-11]], "cov", None),
        ([[1.0, 0.5], [0.4, 1.0]], "cov", None),
        ([[1.0, 0.0]], "cov", None),
        ([[1.0, 0.0], [0.0, np.inf]], "cov", None),
        ([[1.0, np.inf], [np.inf, 1.0]], "cov", None),
        ([[np.nan, 0.0], [0.0, 1.0]], "cov", None),
        (np.eye(2), "mean", [np.inf, 0.0]),
        (np.eye(2), "mean", [0.0, np.nan]),
    ], ids=["1,-1e-9", "zero", "1,-1e-7", "1e-6,-5e-9", "1e-3,-5e-11", "asymmetric",
            "not_square", "inf_diagonal", "inf_off_diagonal", "nan_diagonal", "inf_mean",
            "nan_mean"])
    def test_source_cov_checked_at_construction(self, cov, refused, mean):
        mean = [0.0, 0.0] if mean is None else mean
        for make in (aq.gaussian_source, lambda m, c: aq.regression_source(m, c, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if refused:
                    with pytest.raises(ContractError, match=f"^{refused} "):
                        make(mean, cov)
                else:
                    fac = make(mean, cov)._factor
                    assert np.allclose(fac @ fac.T, np.clip(cov, 0.0, None), atol=1e-8)

    @pytest.mark.parametrize("sigma12,block", [
        ([[1.0, 0.0], [0.0, -1e-3]], "offdiag_block"),
        ([[1.0, 0.0], [0.0, 1.5]], "diag_block - offdiag_block"),
    ], ids=["offdiag", "gap"])
    def test_surrogate_blocks_checked_at_build(self, sigma12, block):
        bad = AugmentationMoments(mean_phi_x=np.zeros(2), sigma11=np.eye(2),
                                  sigma12=np.array(sigma12), mean_var_given_map=np.eye(2),
                                  sixth_moment=1.0)
        with pytest.raises(NumericalError, match=block):
            aq.build_surrogate(bad, 2, 2, 0.0)


def _readme_swap_residual():
    """diag_block - offdiag_block of the README's swap surrogate (n 100, k 5, delta 0)."""
    spec = aq.build_surrogate(aq.estimate_moments(*_swap_setup()), 100, 5, 0.0)
    return spec.diag_block - spec.offdiag_block


class TestSingularFactors:
    # the factor is the symmetric square root from one eigh, so a singular block is
    # reproduced to rounding and the factor equals its transpose
    @pytest.mark.parametrize("m", [
        np.ones((2, 2)),
        np.zeros((3, 3)),
        _readme_swap_residual(),
    ], ids=["ones", "zero", "readme_swap_residual"])
    def test_singular_block_reproduced_to_rounding(self, m):
        fac = psd_factor(m, "test", NumericalError)
        scale = np.abs(m).max()
        assert np.abs(fac @ fac.T - m).max() <= 1e-14 * scale
        assert np.abs(fac - fac.T).max() <= 1e-14 * scale
