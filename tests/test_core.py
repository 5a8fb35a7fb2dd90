import numpy as np
import pytest

import augquant as aq
from augquant import surrogate as sg
from augquant.errors import ContractError
from test_family_stack import _members


class TestDraws:
    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5],
                                         [0.1, 0.05, 0.2, 0.15, 0.1, 0.3, 0.1]])
    @pytest.mark.parametrize("shape", [7, (5,), (3, 4), (2, 3, 2)])
    def test_index_draw_is_generator_choice(self, weights, shape):
        fam = aq.TransformationFamily([[[float(i)]] for i in range(len(weights))],
                                      weights=weights)
        for seed in range(20):
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = fam.sample_indices(shape, rng_got)
            want = rng_want.choice(len(weights), size=shape, p=fam.weights)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # both draws leave the stream at the same position
            assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("source", [
        aq.gaussian_source([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]]),
        aq.regression_source([1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]], 0.7)])
    def test_sample_of_a_shape_is_the_flat_draw(self, source):
        got = source.sample((3, 4), np.random.default_rng(2))
        want = source.sample(12, np.random.default_rng(2))
        assert got.shape == (3, 4, source.dim)
        assert np.array_equal(got.reshape(12, source.dim), want)

    def test_noise_scale_with_overflowing_square_rejected(self):
        with pytest.raises(ContractError, match="noise_scale"):
            aq.regression_source([0.0], [[1.0]], 1e300)


class TestAugmentIid:
    def test_identity_blocks(self):
        data = np.arange(6.0).reshape(3, 2)
        aug = aq.augment_iid(data, aq.identity_family(2), k=4, seed=0)
        assert aug.shape == (3, 8)
        for j in range(4):
            assert np.array_equal(aug.reshape(3, 4, 2)[:, j, :], data)

    def test_support_enumeration(self):
        support = {(1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 1, 2, 1)}
        for seed in range(20):
            aug = aq.augment_iid(np.array([[1.0, 2.0]]), aq.swap_family(), k=2, seed=seed)
            assert tuple(aug[0]) in support

    def test_swap_frequency(self):
        # 1e5 cells at weight 1/2; tolerance 0.005 is ~3 binomial SEs.  On the row
        # (0, 1) a swapped cell is (1, 0), so its first coordinate counts the swaps.
        aug = aq.augment_iid(np.tile([0.0, 1.0], (1000, 1)), aq.swap_family(), k=100, seed=5)
        freq = np.mean(aug.reshape(1000, 100, 2)[:, :, 0] == 1.0)
        assert abs(freq - 0.5) <= 0.005

    def test_determinism(self):
        data = np.random.default_rng(1).standard_normal((10, 2))
        a = aq.augment_iid(data, aq.swap_family(), k=3, seed=99)
        b = aq.augment_iid(data, aq.swap_family(), k=3, seed=99)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(_members(aq.swap_family(), data, a),
                              _members(aq.swap_family(), data, b))

    def test_empty_data_rejected(self):
        with pytest.raises(ContractError):
            aq.augment_iid(np.zeros((0, 2)), aq.identity_family(2), k=1, seed=0)

    def test_family_dim_mismatch(self):
        with pytest.raises(ContractError):
            aq.augment_iid(np.zeros((2, 3)), aq.identity_family(2), k=1, seed=0)


class TestAugmentRepeated:
    def test_identity_matches_iid(self):
        data = np.random.default_rng(2).standard_normal((5, 2))
        rep = aq.augment_repeated(data, aq.identity_family(2), k=3, seed=1)
        iid = aq.augment_iid(data, aq.identity_family(2), k=3, seed=1)
        assert np.array_equal(rep, iid)

    def test_rows_coupled_at_k1(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for seed in range(10):
            aug = aq.augment_repeated(data, aq.swap_family(), k=1, seed=seed)
            members = _members(aq.swap_family(), data, aug)
            label = members[0, 0]
            assert np.all(members == label)
            expected = data if label == 0 else data @ swap.T
            assert np.array_equal(aug, expected)

    def test_column_labels_shared_across_rows(self):
        # distinct coordinates, so every row's swap image differs from its identity image
        data = np.arange(8.0).reshape(4, 2)
        for seed in range(1000):
            aug = aq.augment_repeated(data, aq.swap_family(), k=3, seed=seed)
            members = _members(aq.swap_family(), data, aug)
            assert np.all(members == members[0])


class TestReplicate:
    def test_k1_unchanged(self):
        data = np.array([[1.0, 2.0]])
        assert np.array_equal(aq.replicate_unaugmented(data, 1), data)

    def test_k3_scalar(self):
        out = aq.replicate_unaugmented(np.array([[5.0]]), 3)
        assert np.array_equal(out, [[5.0, 5.0, 5.0]])

    def test_matches_identity_augment(self):
        data = np.random.default_rng(3).standard_normal((6, 3))
        rep = aq.replicate_unaugmented(data, 4)
        iid = aq.augment_iid(data, aq.identity_family(3), k=4, seed=0)
        assert np.array_equal(rep, iid)

    def test_average_identity(self):
        # the scaled grand mean of a replicate equals sqrt(n) times the plain mean
        data = np.random.default_rng(4).standard_normal((7, 2))
        rep = aq.replicate_unaugmented(data, 5)
        got = aq.evaluate(aq.average_statistic(2), rep, 5)
        assert np.allclose(got, np.sqrt(7) * data.mean(axis=0), atol=1e-12)


_SOURCE = aq.gaussian_source([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]])
_SPEC = aq.build_surrogate(aq.estimate_moments(aq.swap_family(), _SOURCE), n=6, k=4, delta=0.0)
_DATA = np.random.default_rng(6).standard_normal((6, 2))


@pytest.mark.parametrize("sampler", [
    lambda: aq.augment_iid(_DATA, aq.swap_family(), 4, seed=1),
    lambda: aq.augment_repeated(_DATA, aq.swap_family(), 4, seed=1),
    lambda: aq.replicate_unaugmented(_DATA, 4),
    lambda: aq.sample_surrogate(_SPEC, seed=1),
    lambda: sg.sample_surrogate_rows(_SPEC, 6, seed=1),
    lambda: aq.sample_repeated_surrogate(aq.swap_family(), _SOURCE, 6, 4, seed=1),
], ids=["augment_iid", "augment_repeated", "replicate_unaugmented", "sample_surrogate",
        "sample_surrogate_rows", "sample_repeated_surrogate"])
def test_per_dataset_samplers_return_rows(sampler):
    # every per-dataset sampler returns plain (n, k*d) float rows that evaluate reads
    rows = sampler()
    assert type(rows) is np.ndarray and rows.dtype == np.float64 and rows.shape == (6, 8)
    got = aq.evaluate(aq.average_statistic(2), rows, 4)
    want = rows.reshape(6, 4, 2).mean(axis=1).sum(axis=0) / np.sqrt(6)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_point_mass_protocols_agree_in_distribution():
    # any fixed transformation: per-cell marginals of both protocols coincide
    fam = aq.TransformationFamily([[[0.5, 0.2], [0.0, 1.5]]], [[0.3, -0.1]])
    rng = np.random.default_rng(8)
    data = rng.standard_normal((50_000, 2))
    a = aq.augment_iid(data, fam, k=2, seed=1).reshape(-1, 2)
    b = aq.augment_repeated(data, fam, k=2, seed=2).reshape(-1, 2)
    n_cells = a.shape[0]
    se_mean = a.std(axis=0) / np.sqrt(n_cells)
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * 2 * se_mean)
    se_var = a.var(axis=0) * np.sqrt(2.0 / n_cells)
    assert np.all(np.abs(a.var(axis=0) - b.var(axis=0)) <= 4 * 2 * se_var)


def test_weights_must_sum_to_one():
    with pytest.raises(ContractError):
        aq.TransformationFamily([np.eye(2)], weights=[0.5])
    with pytest.raises(ContractError):
        aq.TransformationFamily([np.eye(2), np.eye(2)], weights=[0.6, 0.5])


@pytest.mark.parametrize("matrices,offsets,weights,needle", [
    (np.eye(2), None, None, "stack of square maps"),
    (np.zeros((0, 2, 2)), None, None, "stack of square maps"),
    (np.zeros((1, 0, 0)), None, None, "stack of square maps"),
    (np.ones((2, 2, 3)), None, None, "stack of square maps"),
    ([np.eye(2)], [[1.0, 0.0, 0.0]], None, "offsets must have shape"),
    ([np.eye(2), np.eye(2)], [1.0, 0.0], None, "offsets must have shape"),
    ([np.eye(2), np.eye(2)], None, [1.0], "2 entries"),
], ids=["one-matrix", "no-maps", "zero-dim", "not-square", "long-offset", "flat-offsets",
        "short-weights"])
def test_stack_shapes_validated(matrices, offsets, weights, needle):
    with pytest.raises(ContractError, match=needle):
        aq.TransformationFamily(matrices, offsets, weights)


@pytest.mark.parametrize("d", [0, -1])
def test_sign_flip_needs_a_positive_dimension(d):
    with pytest.raises(ContractError, match="dimension must be positive"):
        aq.sign_flip_family(d, 0.5)


def test_stack_is_a_copy():
    mats, offs = np.stack([np.eye(2), -np.eye(2)]), np.ones((2, 2))
    fam = aq.TransformationFamily(mats, offs)
    mats[0, 0, 0] = offs[0, 0] = 7.0
    assert fam.matrices[0, 0, 0] == 1.0 and fam.offsets[0, 0] == 1.0


def test_cyclic_rotation_members():
    fam = aq.cyclic_rotation_family(4)
    assert fam.matrices.shape == (4, 4, 4) and fam.offsets.shape == (4, 4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    shifted = fam.images(x[None])[0, 1]
    assert np.array_equal(shifted, [4.0, 1.0, 2.0, 3.0])


def test_paired_family_acts_jointly():
    fam = aq.random_crop_family(2).paired()
    out = fam.images(np.array([[3.0, 4.0, 5.0, 6.0]]))[0, 0]
    assert np.array_equal(out, [0.0, 4.0, 0.0, 6.0])


def test_regression_source_concatenates_response():
    src = aq.regression_source([1.0, 2.0], np.eye(2), 0.0)
    rng = np.random.default_rng(0)
    x = src.sample(100, rng)
    assert x.shape == (100, 4)
    # zero noise: responses equal covariates exactly
    assert np.allclose(x[:, :2], x[:, 2:])
    joint = src.joint_cov()
    assert np.allclose(joint, np.tile(np.eye(2), (2, 2)))


def test_array_records_compare_by_identity():
    f, g = aq.swap_family(), aq.swap_family()
    assert (f == g) is False and f == f
    src = aq.gaussian_source([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]])
    assert src._factor is src._factor  # factored once

    def config(family):
        return aq.ExperimentConfig(source=src, family=family, protocol="iid_aug",
                                   statistic=aq.average_statistic(2), n=10, k=2,
                                   replicates=2, seed=7)

    a, b = config(f), config(f)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert config(g) != a  # an equal-valued but separate family is another family
