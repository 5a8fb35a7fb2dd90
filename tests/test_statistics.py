import numpy as np
import pytest

import augquant as aq
from augquant import statistics as st
from augquant.config import statistic_from_config
from augquant.errors import ContractError, NumericalError


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name,build", [
    ("average", st.average_statistic), ("expnegchisq", st.exp_neg_chisq_statistic),
    ("hardmax", st.hard_max_statistic), ("smoothmax", lambda d: st.smooth_max_statistic(d, 1)),
], ids=["average", "expnegchisq", "hardmax", "smoothmax"])
def test_constructor_matches_config(name, build, d):
    # each statistic has one constructor, sized by the d that statistic.d sets
    cfg = {"statistic.kind": name, "statistic.d": d, "statistic.t": 1}
    source = aq.gaussian_source(np.zeros(d), np.eye(d))
    assert statistic_from_config(cfg, source) == build(d)


class TestAverage:
    def test_single_cell(self):
        assert aq.evaluate(aq.average_statistic(1), np.array([[3.0]]), 1)[0] == 3.0

    def test_constant_cells(self):
        vals = np.ones((4, 2))
        assert aq.evaluate(aq.average_statistic(1), vals, 2)[0] == pytest.approx(2.0)

    def test_brute_force_sum_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((5, 6))  # n=5, k=3, d=2
        got = aq.evaluate(aq.average_statistic(2), vals, 3)
        total = np.zeros(2)
        for i in range(5):
            for j in range(3):
                total += vals[i, 2 * j:2 * j + 2]
        assert np.array_equal(got, total / (np.sqrt(5) * 3))


class TestExpNegChisq:
    def test_zero_data(self):
        assert aq.evaluate(aq.exp_neg_chisq_statistic(), np.zeros((3, 2)), 2)[0] == 1.0
        assert aq.evaluate(aq.exp_neg_chisq_statistic(2), np.zeros((3, 4)), 2)[0] == 2.0

    def test_single_point(self):
        assert aq.evaluate(aq.exp_neg_chisq_statistic(), np.array([[1.0]]), 1)[0] == pytest.approx(
            0.36787944117144233)

    def test_composition_oracle(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((4, 3))
        g = aq.evaluate(aq.average_statistic(1), vals, 3)[0]
        assert aq.evaluate(aq.exp_neg_chisq_statistic(), vals, 3)[0] == pytest.approx(
            np.exp(-g * g), rel=1e-15)
        vals2 = rng.standard_normal((4, 6))
        g2 = aq.evaluate(aq.average_statistic(2), vals2, 3)
        assert aq.evaluate(aq.exp_neg_chisq_statistic(2), vals2, 3)[0] == pytest.approx(
            float(np.exp(-g2 * g2).sum()), rel=1e-15)

    def test_size_is_the_slot_dimension(self):
        # one name at every size: d sizes the slots, 2 for the two-coordinate statistic
        assert aq.exp_neg_chisq_statistic(2) == st.StatisticKind("expnegchisq", d=2)
        kind = st.StatisticKind("expnegchisq", d=5)
        assert kind.slot_dim == 5 and kind.output_dim == 1
        vals = np.random.default_rng(3).standard_normal((4, 10))  # n=4, k=2, d=5
        g = aq.evaluate(aq.average_statistic(5), vals, 2)
        assert aq.evaluate(kind, vals, 2)[0] == pytest.approx(float(np.exp(-g * g).sum()),
                                                              rel=1e-15)
        with pytest.raises(ContractError, match="slot dimension"):
            aq.evaluate(kind, np.zeros((4, 2)), 2)


class TestMax:
    def test_single_coordinate_exact(self):
        vals = np.random.default_rng(2).standard_normal((3, 4))  # k=4, d_n=1
        for t in (0.5, 1.0, 100.0):
            assert (aq.evaluate(aq.smooth_max_statistic(1, t), vals, 4)[0]
                    == aq.evaluate(aq.hard_max_statistic(1), vals, 4)[0])

    def test_gap_bounded_by_inverse_temperature(self):
        vals = np.array([[0.1, 0.9]])  # n=1, k=1, d_n=2 -> means (0.1, 0.9)
        assert aq.evaluate(aq.hard_max_statistic(2), vals, 1)[0] == pytest.approx(0.9)
        for t in (1.0, 10.0, 100.0):
            assert abs(aq.evaluate(aq.smooth_max_statistic(2, t), vals, 1)[0] - 0.9) <= 1.0 / t

    def test_sandwich_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d_n = int(rng.integers(2, 65))
            n, k = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            vals = rng.standard_normal((n, k * d_n))
            hard = aq.evaluate(aq.hard_max_statistic(d_n), vals, k)[0]
            for t in (1.0, 10.0, 100.0):
                smooth = aq.evaluate(aq.smooth_max_statistic(d_n, t), vals, k)[0]
                assert 0.0 <= smooth - hard <= 1.0 / t + 1e-12


class TestRidgeFit:
    def test_hand_case(self):
        vals = np.array([[1.0, 2.0]])  # n=k=1, d=b=1, v=1, y=2
        assert aq.evaluate(aq.ridge_statistic(1, 1, 1.0), vals, 1)[0] == pytest.approx(1.0)

    def test_zero_response(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((5, 2))
        vals = np.concatenate([v, np.zeros((5, 2))], axis=1)
        assert np.allclose(aq.evaluate(aq.ridge_statistic(2, 2, 0.5), vals, 1), 0.0)

    def test_norm_decreasing_in_penalty(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((8, 2 * 4))  # n=8, k=2, d=b=2
        norms = [np.linalg.norm(aq.evaluate(aq.ridge_statistic(2, 2, lam), vals, 2))
                 for lam in (1.0, 10.0, 100.0)]
        assert norms[0] > norms[1] > norms[2]

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((10, 3 * 5))  # n=10, k=3, d=3, b=2
        d, b, lam = 3, 2, 0.7
        bh = aq.evaluate(aq.ridge_statistic(d, b, lam), vals, 3).reshape(d, b)
        cells = vals.reshape(10, 3, 5)
        v = cells[:, :, :d].reshape(-1, d)
        y = cells[:, :, d:].reshape(-1, b)
        gram, cross = v.T @ v, v.T @ y
        resid = (gram + 10 * 3 * lam * np.eye(d)) @ bh - cross
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(cross)

    def test_singular_at_zero_penalty(self):
        vals = np.zeros((2, 4))  # rank-0 Gram
        with pytest.raises(NumericalError):
            aq.evaluate(aq.ridge_statistic(2, 2, 0.0), vals, 1)

    @pytest.mark.parametrize("col", [0, 3])  # a covariate, a response
    def test_nan_in_data_is_numerical_error(self, col):
        vals = np.random.default_rng(7).standard_normal((6, 4))
        vals[2, col] = np.nan
        with pytest.raises(NumericalError):
            aq.evaluate(aq.ridge_statistic(2, 2, 1.0), vals, 1)

    def test_nan_penalty_is_numerical_error(self):
        vals = np.random.default_rng(8).standard_normal((6, 4))
        with pytest.raises(NumericalError):
            aq.evaluate(aq.ridge_statistic(2, 2, float("nan")), vals, 1)


class TestRidgeRisk:
    def test_zero_estimate_returns_response_moment(self):
        rm = st.RiskMoments(sigma_y=2.5, sigma_yv=np.zeros((2, 2)), sigma_v=np.eye(2))
        assert st._risks(np.zeros((2, 2))[None], rm)[0] == 2.5

    def test_scalar_arithmetic(self):
        rm = st.RiskMoments(sigma_y=2.0, sigma_yv=np.array([[1.0]]), sigma_v=np.array([[1.0]]))
        assert st._risks(np.array([[1.0]])[None], rm)[0] == pytest.approx(1.0)

    def test_monte_carlo_risk_oracle(self):
        src = aq.regression_source([1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]], 0.7)
        rm = st.risk_moments_from_source(src)
        b_hat = np.array([[0.9, 0.1], [-0.2, 0.5]])
        rng = np.random.default_rng(7)
        n_mc = 100_000
        draws = src.sample(n_mc, rng)
        v, y = draws[:, :2], draws[:, 2:]
        errs = np.sum((y - v @ b_hat) ** 2, axis=1)
        se = errs.std(ddof=1) / np.sqrt(n_mc)
        assert abs(st._risks(b_hat[None], rm)[0] - errs.mean()) <= 4 * se

    def test_dimension_mismatch(self):
        rm = st.RiskMoments(sigma_y=1.0, sigma_yv=np.zeros((2, 3)), sigma_v=np.eye(3))
        with pytest.raises(ContractError):
            st._risks(np.zeros((2, 2))[None], rm)

    def test_statistic_without_risk_moments_refused(self):
        with pytest.raises(ContractError, match="risk moments"):
            aq.ridge_risk_statistic(2, 2, 1.0, None)


class TestRidgeDerivatives:
    def test_hand_case_first_order(self):
        vals = np.array([[1.0, 2.0]])
        d = aq.ridge_derivative(vals, 1, 1, 1, 1.0, "dY", 0, (0,), (0,))
        assert d[0, 0] == pytest.approx(0.5)

    def test_response_second_derivative_vanishes(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((3, 2 * 4))
        out = aq.ridge_derivative(vals, 2, 2, 2, 1.0, "dYdY", 1, (0, 1), (0, 1))
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_index_out_of_range(self):
        vals = np.zeros((2, 4))
        with pytest.raises(ContractError):
            aq.ridge_derivative(vals, 1, 2, 2, 1.0, "dY", 0, (1,), (0,))
        with pytest.raises(ContractError):
            aq.ridge_derivative(vals, 1, 2, 2, 1.0, "dV", 2, (0,), (0,))

    @pytest.mark.parametrize("i, slots, coords", [(1.5, (0,), (0,)), (0, (0.5,), (0,)),
                                                  (0, (0,), (0.5,)), (np.float64(0), (0,), (0,))])
    def test_non_integer_index_refused(self, i, slots, coords):
        with pytest.raises(ContractError, match="must be integers"):
            aq.ridge_derivative(np.ones((2, 4)), 1, 2, 2, 1.0, "dY", i, slots, coords)

    def test_numpy_integer_indices_accepted(self):
        vals = np.random.default_rng(3).standard_normal((3, 8))
        want = aq.ridge_derivative(vals, 2, 2, 2, 1.0, "dYdV", 1, (0, 1), (1, 0))
        got = aq.ridge_derivative(vals, 2, 2, 2, 1.0, "dYdV", np.int64(1),
                                  (np.int32(0), np.int64(1)), (np.int64(1), np.int8(0)))
        assert np.array_equal(got, want)

    def test_requires_positive_penalty(self):
        with pytest.raises(ContractError):
            aq.ridge_derivative(np.ones((2, 4)), 1, 2, 2, 0.0, "dY", 0, (0,), (0,))


def test_permutation_invariance_of_all_statistics():
    rng = np.random.default_rng(9)
    n, k = 4, 3
    cases = [
        (st.average_statistic(2), 2),
        (st.exp_neg_chisq_statistic(), 1),
        (st.exp_neg_chisq_statistic(2), 2),
        (st.smooth_max_statistic(5, 2.0), 5),
        (st.hard_max_statistic(5), 5),
        (st.ridge_statistic(2, 2, 1.0), 4),
        (st.ridge_risk_statistic(2, 2, 1.0, st.RiskMoments(1.0, 0.5 * np.eye(2), np.eye(2))), 4),
    ]
    for kind, d in cases:
        vals = rng.standard_normal((n, k * d))
        base = st.evaluate(kind, vals, k)
        cells = vals.reshape(n, k, d).copy()
        for i in range(n):
            cells[i] = cells[i, rng.permutation(k), :]
        shuffled = st.evaluate(kind, cells.reshape(n, k * d), k)
        # permutation changes float summation order, so match to 1e-12 instead
        # of bitwise
        np.testing.assert_allclose(shuffled, base, rtol=1e-12, atol=1e-14,
                                   err_msg=kind.name)


def test_average_derivative_norms_by_finite_differences():
    # first derivative norm is the constant sqrt(d)/sqrt(n k); higher orders vanish
    rng = np.random.default_rng(10)
    n, k, d = 4, 3, 2
    vals = rng.standard_normal((n, k * d))
    avg = aq.average_statistic(d)
    h = 1e-3
    grads = []
    for col in range(k * d):
        vp, vm = vals.copy(), vals.copy()
        vp[1, col] += h
        vm[1, col] -= h
        grads.append((aq.evaluate(avg, vp, k) - aq.evaluate(avg, vm, k)) / (2 * h))
    g = np.asarray(grads)
    expected = np.sqrt(d) / np.sqrt(n * k)
    assert np.linalg.norm(g) == pytest.approx(expected, rel=1e-12)
    second = []
    for col in range(k * d):
        vp, vm = vals.copy(), vals.copy()
        vp[1, col] += h
        vm[1, col] -= h
        second.append((aq.evaluate(avg, vp, k) - 2 * aq.evaluate(avg, vals, k)
                       + aq.evaluate(avg, vm, k)) / (h * h))
    assert np.linalg.norm(np.asarray(second)) <= 1e-8


def test_statistic_dispatch_shapes():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((3, 8))
    assert st.evaluate(st.average_statistic(4), vals, 2).shape == (4,)
    assert st.evaluate(st.ridge_statistic(2, 2, 1.0), vals, 2).shape == (4,)
    assert st.evaluate(st.smooth_max_statistic(4, 1.0), vals, 2).shape == (1,)
