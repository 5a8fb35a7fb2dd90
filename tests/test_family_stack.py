"""The stacked family: map application, lifting, and the moments read from the
stack, on a family whose members have dense non-orthogonal matrices, nonzero
offsets and unequal weights."""

import numpy as np
import pytest

import augquant as aq
from augquant import bounds as bd
from augquant import surrogate as sg
from augquant.rng import substream
from test_surrogate import EXCHANGEABLE, monte_carlo_moments

WEIGHTS = [0.2, 0.3, 0.5]


def _dense_family(d=3):
    rng = np.random.default_rng(11)
    maps = [(rng.normal(size=(d, d)) + 0.5 * np.eye(d), rng.normal(size=d)) for _ in WEIGHTS]
    return aq.TransformationFamily(*zip(*maps), WEIGHTS)


def _dense_source(d=3):
    rng = np.random.default_rng(12)
    f = rng.normal(size=(d, d))
    return aq.gaussian_source(rng.normal(size=d), f @ f.T + 0.3 * np.eye(d))


def _setups():
    fam = _dense_family(2).paired()
    reg = aq.regression_source([0.7, -1.2], [[1.5, 0.4], [0.4, 0.8]], 0.6)
    return [(_dense_family(), _dense_source()), (fam, reg)]


# ---------------------------------------------------------------------------
# the per-member formulas the stacked code replaced, kept as the reference
# ---------------------------------------------------------------------------

def _ref_sixth(m, c):
    c2 = c @ c
    c3 = c2 @ c
    k1 = np.trace(c) + m @ m
    k2 = 2.0 * np.trace(c2) + 4.0 * (m @ c @ m)
    k3 = 8.0 * np.trace(c3) + 24.0 * (m @ c2 @ m)
    return k3 + 3.0 * k1 * k2 + k1**3


def _ref_exact_moments(family, source):
    mu, sigma = source.joint_mean(), source.joint_cov()
    w = family.weights
    mats, offs = family.matrices, family.offsets
    a_bar = sum(wi * a for wi, a in zip(w, mats))
    mean = a_bar @ mu + sum(wi * o for wi, o in zip(w, offs))
    s_raw = sigma + np.outer(mu, mu)
    second = np.zeros_like(sigma)
    var_given_map = np.zeros_like(sigma)
    sixth = 0.0
    for wi, a, o in zip(w, mats, offs):
        am = a @ mu
        second += wi * (a @ s_raw @ a.T + np.outer(am, o) + np.outer(o, am) + np.outer(o, o))
        var_given_map += wi * (a @ sigma @ a.T)
        sixth += wi * _ref_sixth(am + o, a @ sigma @ a.T)
    sigma11 = second - np.outer(mean, mean)
    sigma12 = a_bar @ sigma @ a_bar.T
    sigma11 = 0.5 * (sigma11 + sigma11.T)
    sigma12 = 0.5 * (sigma12 + sigma12.T)
    return dict(mean_phi_x=mean, sigma11=sigma11, sigma12=sigma12,
                mean_cond_var=sigma11 - sigma12, mean_var_given_map=var_given_map,
                sixth_moment=sixth)


def _ref_repeated_constants(family, source):
    mu, sigma = source.joint_mean(), source.joint_cov()
    s_raw = sigma + np.outer(mu, mu)
    w = family.weights
    maps = list(zip(family.matrices, family.offsets))
    cond_means = np.array([a @ mu + o for a, o in maps])
    mean_of_means = w @ cond_means
    var_mean = ((cond_means - mean_of_means).T * w) @ (cond_means - mean_of_means)
    m1 = float(np.sqrt(2.0 * np.trace(var_mean)))
    g = np.array([a @ s_raw @ a.T + np.outer(a @ mu, o) + np.outer(o, a @ mu) + np.outer(o, o)
                  for a, o in maps])
    g_mean = np.tensordot(w, g, axes=1)
    m2 = float(np.sqrt(np.sum(((g - g_mean) ** 2 * w[:, None, None]).sum(axis=0)) / 2.0))
    pair_vals = np.array([[a @ s_raw @ b.T + np.outer(a @ mu, q) + np.outer(o, b @ mu)
                           + np.outer(o, q) for b, q in maps] for a, o in maps])
    pw = np.outer(w, w)
    h_mean = np.tensordot(pw, pair_vals, axes=2)
    dev2 = ((pair_vals - h_mean) ** 2 * pw[:, :, None, None]).sum(axis=(0, 1))
    m3 = float(np.sqrt(dev2.sum() / 6.0))
    return m1, m2, m3


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _apply(family, m, x):
    """Member m's map on a point or a batch of row vectors, one member at a time."""
    return x @ family.matrices[m].T + family.offsets[m]


def _members(family, data, rows):
    """Each cell's member, shape (n, k), for (n, k*d) rows or (n, k, d) cells:
    the one member m whose reference image ``_apply(family, m, x)`` of the
    cell's observation x the cell matches, which must be the only one within 1e-9."""
    n, d = data.shape
    ref = np.stack([_apply(family, m, data) for m in range(len(family.weights))], axis=1)
    dist = np.abs(rows.reshape(n, -1, 1, d) - ref[:, None]).max(axis=-1)
    assert np.all((dist <= 1e-9).sum(axis=-1) == 1)
    return dist.argmin(axis=-1)


# ---------------------------------------------------------------------------

class TestStack:
    def test_images(self):
        fam = _dense_family()
        x = np.random.default_rng(1).normal(size=(7, 3))
        img = fam.images(x)
        assert img.shape == (7, 3, 3)
        for m in range(3):
            _close(img[:, m], _apply(fam, m, x))

    def test_augment_iid_cells(self):
        fam = _dense_family()
        data = np.random.default_rng(2).normal(size=(40, 3))
        cells = aq.augment_iid(data, fam, k=6, seed=3).reshape(40, 6, 3)
        members = _members(fam, data, cells)
        assert set(np.unique(members)) == {0, 1, 2}
        for i in range(40):
            for j in range(6):
                _close(cells[i, j], _apply(fam, members[i, j], data[i]))

    def test_augment_repeated_cells(self):
        fam = _dense_family()
        data = np.random.default_rng(4).normal(size=(9, 3))
        cells = aq.augment_repeated(data, fam, k=12, seed=5).reshape(9, 12, 3)
        members = _members(fam, data, cells)
        assert set(np.unique(members[0])) == {0, 1, 2}
        assert np.all(members == members[0])
        for j in range(12):
            _close(cells[:, j], _apply(fam, members[0, j], data))

    def test_paired_keeps_offsets(self):
        fam = _dense_family()
        lifted = fam.paired()
        assert np.array_equal(lifted.weights, fam.weights)
        assert lifted.matrices.shape == (3, 6, 6) and lifted.offsets.shape == (3, 6)
        for m in range(3):
            want = np.zeros((6, 6))
            want[:3, :3] = want[3:, 3:] = fam.matrices[m]
            assert np.array_equal(lifted.matrices[m], want)
            assert np.array_equal(lifted.offsets[m], np.concatenate([fam.offsets[m]] * 2))


class TestMomentsFromStack:
    @pytest.mark.parametrize("family,source", _setups())
    def test_exact_moments_match_per_member_formulas(self, family, source):
        got = aq.estimate_moments(family, source)
        for key, want in _ref_exact_moments(family, source).items():
            _close(getattr(got, key), want)

    @pytest.mark.parametrize("family,source", [
        (aq.swap_family(), aq.gaussian_source([0.0, 0.0], EXCHANGEABLE)),
        (aq.random_crop_family(2), aq.gaussian_source([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])),
        (aq.cyclic_rotation_family(4), aq.gaussian_source([2.0] * 4, np.eye(4))),
        (aq.sign_flip_family(1, 0.7), aq.gaussian_source([0.2], [[1.5]])),
        (aq.TransformationFamily([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]],
                                 [[0.0, 0.0], [0.5, -0.25]], [0.25, 0.75]),
         aq.gaussian_source([0.0, 0.0], EXCHANGEABLE)),
    ], ids=["swap", "crop", "rotation", "sign_flip", "finite_uniform_offsets"])
    def test_centred_sigma11_matches_the_raw_second_moment(self, family, source):
        # the reference takes the raw second moment minus the mean's outer product
        want = _ref_exact_moments(family, source)["sigma11"]
        got = aq.estimate_moments(family, source).sigma11
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("family,source", _setups())
    def test_repeated_constants_match_per_member_formulas(self, family, source):
        _close(bd.repeated_constants(family, source), _ref_repeated_constants(family, source))

    def test_monte_carlo_conditional_variances(self):
        # both conditional variances are unbiased averages; compare their mean
        # over independent seeds with the exact values at 4 standard errors
        fam, src = _dense_family(), _dense_source()
        exact = aq.estimate_moments(fam, src)
        runs = [monte_carlo_moments(fam, src, num_samples=5000, seed=s) for s in range(20)]
        for key in ("mean_cond_var", "mean_var_given_map"):
            vals = np.array([getattr(r, key) for r in runs])
            se = vals.std(axis=0, ddof=1) / np.sqrt(len(runs))
            assert np.all(np.abs(vals.mean(axis=0) - getattr(exact, key)) <= 4 * se + 1e-12)


class TestRepeatedSurrogateFromStack:
    @pytest.mark.parametrize("family,source", _setups())
    def test_rows_gather_images_of_source_draws(self, family, source):
        n, k, seed = 8, 10, 21
        rows = aq.sample_repeated_surrogate(family, source, n, k, seed)
        rng = substream(seed)
        idx = family.sample_indices((k,), rng)
        x = source.sample(n, rng)
        cells = rows.reshape(n, k, family.dim)
        for j in range(k):
            _close(cells[:, j], _apply(family, idx[j], x))

    def test_no_covariance_factor_per_call(self, monkeypatch):
        fam, src = _dense_family(), _dense_source()
        aq.sample_repeated_surrogate(fam, src, 5, 2, seed=1)  # caches the source factor
        calls = []
        monkeypatch.setattr(sg, "psd_factor", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr("augquant.core.psd_factor", lambda *a, **kw: calls.append(a))
        aq.sample_repeated_surrogate(fam, src, 5, 2, seed=2)
        assert calls == []
