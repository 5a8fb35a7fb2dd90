"""The block engine against the per-replicate sampler it replaced.

``reference_samples`` is that sampler: replicate r draws from the stream
(seed, r), materializes its k cells per row through the augmentation
protocols and evaluates them with ``evaluate``.  The engine draws blocks of
replicates on another stream layout and weights member images by counts, so
the two agree in law, not in bytes.
"""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as sps

import augquant as aq
from augquant import statistics as st
from augquant.core import augment_iid, augment_repeated, replicate_unaugmented
from augquant.errors import ConfigError, ContractError
from augquant.montecarlo import (CELL_BUDGET, PROTOCOLS, _binomial_cdf, _block_cells,
                                  _block_size, _count_vectors, _draws_histogram, _gram_cells,
                                  _histogram_table, _jackknife_var_norm_se, _member_counts)
from augquant.rng import child_seed, substream
from augquant.surrogate import build_surrogate, estimate_moments, sample_surrogate_rows


def _replicate_sampler(config):
    """A function mapping a replicate index to the statistic's value."""
    src, fam, k, n = config.source, config.family, config.k, config.n
    kind, seed = config.statistic, config.seed
    if config.protocol == "surrogate":
        spec = build_surrogate(estimate_moments(fam, src), n, k, config.delta)
        return lambda r: st.evaluate(
            kind, sample_surrogate_rows(spec, n, child_seed(seed, r)), k)
    if config.protocol == "repeated_surrogate":
        return lambda r: st.evaluate(
            kind, aq.sample_repeated_surrogate(fam, src, n, k, child_seed(seed, r)), k)

    def run(r):
        rng = substream(seed, r)
        data = src.sample(n, rng)
        if config.protocol == "unaugmented":
            return st.evaluate(kind, replicate_unaugmented(data, k), k)
        augment = augment_iid if config.protocol == "iid_aug" else augment_repeated
        return st.evaluate(kind, augment(data, fam, k, int(rng.integers(2**63))), k)
    return run


def reference_samples(config):
    run = _replicate_sampler(config)
    return np.array([run(r) for r in range(config.replicates)])


def _gaussian_setup(d):
    """A correlated Gaussian source on R^d and a weighted affine family with offsets."""
    cov = 0.4 * np.ones((d, d)) + 0.6 * np.eye(d)
    source = aq.gaussian_source(np.linspace(0.3, -0.2, d), cov)
    shift = np.roll(np.eye(d), 1, axis=0)
    family = aq.TransformationFamily([np.eye(d), shift, -np.eye(d)],
                                     [np.zeros(d), np.full(d, 0.5), np.zeros(d)],
                                     [0.5, 0.3, 0.2])
    return source, family


def _regression_setup():
    source = aq.regression_source([1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]], 0.7)
    return source, aq.random_crop_family(2).paired()


# one case per statistic, and the exponential at d = 2 besides; a case's index seeds it
CASES = ("average", "expnegchisq", "expnegchisq2d", "smoothmax", "hardmax", "ridge", "ridgerisk")


def test_cases_cover_every_statistic():
    assert set(st.CANONICAL_NAMES) <= set(CASES)


def _setup(name):
    """(source, family, statistic) for each case."""
    if name in ("ridge", "ridgerisk"):
        source, family = _regression_setup()
        if name == "ridge":
            return source, family, aq.ridge_statistic(2, 2, 0.5)
        return source, family, aq.ridge_risk_statistic(
            2, 2, 0.5, aq.risk_moments_from_source(source))
    kind = {"average": aq.average_statistic(2), "expnegchisq": aq.exp_neg_chisq_statistic(),
            "expnegchisq2d": aq.exp_neg_chisq_statistic(2),
            "smoothmax": aq.smooth_max_statistic(3, 2.0),
            "hardmax": aq.hard_max_statistic(3)}[name]
    return (*_gaussian_setup(kind.slot_dim), kind)


@pytest.mark.parametrize("statistic", CASES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_engine_matches_reference_sampler_in_law(protocol, statistic):
    source, family, kind = _setup(statistic)
    seed = 1000 + 10 * PROTOCOLS.index(protocol) + CASES.index(statistic)
    config = aq.ExperimentConfig(source=source, family=family, protocol=protocol,
                                 statistic=kind, n=6, k=3, replicates=4000, seed=seed)
    engine = aq.run_experiment(config).samples
    reference = reference_samples(config)
    r = config.replicates
    for j in range(engine.shape[1]):
        se = math.sqrt((engine[:, j].var(ddof=1) + reference[:, j].var(ddof=1)) / r)
        assert abs(engine[:, j].mean() - reference[:, j].mean()) <= 4 * se, j
    se = math.hypot(_jackknife_var_norm_se(engine)[1], _jackknife_var_norm_se(reference)[1])
    assert abs(engine[:, 0].var(ddof=1) - reference[:, 0].var(ddof=1)) <= 4 * se


@pytest.mark.parametrize("statistic", CASES)
def test_member_counts_match_materialized_cells(statistic):
    source, family, kind = _setup(statistic)
    n, k, batch = 7, 5, 3
    rng = np.random.default_rng(CASES.index(statistic))
    x = source.sample((batch, n), rng)
    counts = rng.multinomial(k, family.weights, size=(batch, n))
    images = family.images(x.reshape(batch * n, -1)).reshape(batch, n, *family.offsets.shape)
    got = st.evaluate_batch(kind, images, counts, k)
    for b in range(batch):
        cells = np.stack([np.repeat(images[b, i], counts[b, i], axis=0) for i in range(n)])
        want = st.evaluate(kind, cells.reshape(n, -1), k)
        np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("statistic", CASES)
@pytest.mark.parametrize("protocol", ["iid_aug", "repeated_aug"])
def test_block_weights_are_float_counts(protocol, statistic):
    source, family, kind = _setup(statistic)
    n, k, batch = 7, 5, 3
    config = aq.ExperimentConfig(source=source, family=family, protocol=protocol,
                                 statistic=kind, n=n, k=k, replicates=batch, seed=4)
    points, weights = _block_cells(config, batch, substream(4, 0), None,
                                   _binomial_cdf(k, family.weights[0]), False, None)
    assert weights.dtype == np.float64 and weights.flags.c_contiguous
    assert weights.shape == (batch, n, len(family.weights))
    # int64 member counts, one vector per row (iid) or broadcast over the rows (repeated)
    rows = n if protocol == "iid_aug" else 1
    counts = np.random.default_rng(9).multinomial(k, family.weights, size=(batch, rows))
    counts = np.broadcast_to(counts, weights.shape)
    as_int = st.evaluate_batch(kind, points, counts, k)
    as_float = st.evaluate_batch(kind, points, counts.astype(float), k)
    if protocol == "iid_aug":
        assert as_int.tobytes() == as_float.tobytes()
    else:  # the stride-0 int64 sum may run in another order
        np.testing.assert_allclose(as_float, as_int, rtol=1e-12, atol=0)


@pytest.mark.parametrize("pair", [("ridge", "ridgerisk"), ("average", "expnegchisq"),
                                  ("average", "ridge")])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_simulate_gives_each_kind_its_own_run(protocol, pair):
    if pair[0] == "ridge":
        source, family, first = _setup("ridge")
        second = _setup("ridgerisk")[2]
    elif pair[1] == "ridge":  # one kind per block layout, on one regression source
        source, family, second = _setup("ridge")
        first = aq.average_statistic(source.dim)
    else:  # the one-coordinate average, whose slot dimension is the exponential's
        source, family = _gaussian_setup(1)
        first, second = aq.average_statistic(1), aq.exp_neg_chisq_statistic()
    n, k = 40, 40
    r = 2 * (CELL_BUDGET // (n * k)) + 1  # three blocks, the last one short
    config = aq.ExperimentConfig(source=source, family=family, protocol=protocol,
                                 statistic=first, n=n, k=k, replicates=r, seed=77)
    results = aq.simulate(config, (second, first))
    for kind, result in zip((second, first), results):
        alone = aq.run_experiment(replace(config, statistic=kind))
        assert result.samples.tobytes() == alone.samples.tobytes(), kind.name


def test_simulate_refuses_a_kind_of_another_slot_dimension():
    source, family = _gaussian_setup(1)
    config = aq.ExperimentConfig(source=source, family=family, protocol="iid_aug",
                                 statistic=aq.average_statistic(1), n=4, k=2, replicates=3,
                                 seed=1)
    with pytest.raises(ConfigError, match="slot dimension 2"):
        aq.simulate(config, (aq.average_statistic(1), aq.average_statistic(2)))


def _assert_iid_aug_mean_run_is_bounded(n, k):
    """tracemalloc's peak over an iid_aug average run of 200 replicates of the 3-member
    family stays within 8 x 8 x CELL_BUDGET bytes."""
    source, family = _gaussian_setup(1)
    config = aq.ExperimentConfig(source=source, family=family, protocol="iid_aug",
                                 statistic=aq.average_statistic(1), n=n, k=k,
                                 replicates=200, seed=3)
    limit = 8 * 8 * CELL_BUDGET
    aq.run_experiment(replace(config, replicates=2))  # one-time allocations
    tracemalloc.start()
    try:
        aq.run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, f"peak {peak / 1e6:.2f} MB over {limit / 1e6:.2f} MB"


def test_iid_aug_one_row_blocks_bound_their_member_counts():
    # an iid_aug mean-statistic block holds M min(V, n) member counts per replicate, here
    # a histogram over V = 3 count vectors: B = CELL_BUDGET // k would draw 200 x 20000 x 3
    # int64 count rows
    assert _draws_histogram(20_000, 1, 3)
    _assert_iid_aug_mean_run_is_bounded(20_000, 1)


def test_iid_aug_row_side_blocks_bound_their_member_counts():
    # k = 199 gives V = 20100 > n count vectors, so each replicate draws its n count rows
    # and a block holds one replicate's (n, M) counts
    assert not _draws_histogram(20_000, 199, 3)
    _assert_iid_aug_mean_run_is_bounded(20_000, 199)


@pytest.mark.parametrize("n, k, m", [(5, 3, 2), (5, 4, 2), (5, 10, 2), (50, 5, 3), (50, 12, 3),
                                     (20_000, 1, 3), (20_000, 199, 3), (7, 30, 1)])
def test_block_sizes_follow_the_readme_rule(n, k, m):
    # B = max(1, 2^16 // (M min(V, n))) for iid_aug's one-row blocks, whose member counts
    # are a histogram over the V count vectors or n count rows, and B = max(1, 2^16 //
    # (rows k)) for every other layout; blocks fix the streams, so B fixes every output
    source, _ = _regression_setup()
    family = aq.TransformationFamily([np.eye(source.dim)] * m)
    kinds = (aq.ridge_statistic(2, 2, 0.5), aq.average_statistic(source.dim))
    v = math.comb(k + m - 1, m - 1)
    for protocol in PROTOCOLS:
        config = aq.ExperimentConfig(source=source, family=family, protocol=protocol,
                                     statistic=kinds[0], n=n, k=k, replicates=2, seed=0)
        histogram = _histogram_table(config, kinds)
        assert (histogram is not None) == (protocol == "iid_aug" and v <= n)
        assert _block_size(config, False, histogram) == max(1, CELL_BUDGET // (n * k))
        want = m * min(v, n) if protocol == "iid_aug" else k
        assert _block_size(config, True, histogram) == max(1, CELL_BUDGET // want)


def test_gram_cells_draw_one_law_from_histograms_and_from_rows():
    # the 3-member family with an offset at n = 12, k = 3 (V = 10 count vectors): the
    # histogram draw and the n-row draw give the average the same law
    source, family = _gaussian_setup(2)
    kind, n, k, r = aq.average_statistic(2), 12, 3, 20_000
    config = aq.ExperimentConfig(source=source, family=family, protocol="iid_aug",
                                 statistic=kind, n=n, k=k, replicates=r, seed=0)
    table = _binomial_cdf(k, family.weights[0])
    hist, rows = (st.evaluate_batch(kind, *_gram_cells(config, r, np.random.default_rng(seed),
                                                       table, histogram), k)
                  for histogram, seed in ((_count_vectors(k, family.weights), 41), (None, 42)))
    for j in range(hist.shape[1]):
        se = math.sqrt((hist[:, j].var(ddof=1) + rows[:, j].var(ddof=1)) / r)
        assert abs(hist[:, j].mean() - rows[:, j].mean()) <= 4 * se, j
        assert sps.ks_2samp(hist[:, j], rows[:, j]).pvalue > 1e-3, j
    se = math.hypot(_jackknife_var_norm_se(hist)[1], _jackknife_var_norm_se(rows)[1])
    assert abs(hist[:, 0].var(ddof=1) - rows[:, 0].var(ddof=1)) <= 4 * se


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**64 + 3, 1.5, np.float64(2.0), True, "3"])
def test_a_seed_outside_the_stream_key_range_is_refused(seed):
    source, family = _gaussian_setup(1)
    with pytest.raises(ConfigError, match="seed"):
        aq.ExperimentConfig(source=source, family=family, protocol="iid_aug",
                            statistic=aq.average_statistic(1), n=4, k=2, replicates=3,
                            seed=seed)
    for draw in (lambda: substream(seed), lambda: substream(seed, 0), lambda: child_seed(seed, 1),
                 lambda: augment_iid(np.zeros((3, 1)), family, 2, seed)):
        with pytest.raises(ContractError, match="seed"):
            draw()


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
def test_every_seed_in_the_stream_key_range_runs(seed):
    source, family = _gaussian_setup(1)
    config = aq.ExperimentConfig(source=source, family=family, protocol="iid_aug",
                                 statistic=aq.average_statistic(1), n=4, k=2, replicates=3,
                                 seed=seed)
    report = aq.compare_protocols(config, ["iid_aug", "unaugmented"])
    assert report.results["iid_aug"].samples.tobytes() == aq.run_experiment(
        replace(config, seed=child_seed(seed, 0))).samples.tobytes()
    assert substream(seed).random() == substream(int(seed)).random()


def _chi_square_p(counts, k, weights):
    """Chi-square p-value of (N, M) count rows against Multinomial(k, weights), every
    outcome whose expected count is below 5 pooled into one bin."""
    m = len(weights)
    head = np.array([c for c in itertools.product(range(k + 1), repeat=m - 1) if sum(c) <= k],
                    dtype=np.int64).reshape(-1, m - 1)
    outcomes = np.column_stack([head, k - head.sum(axis=1)])
    expected = len(counts) * sps.multinomial.pmf(outcomes, k, weights)
    shape = (k + 1,) * (m - 1)
    seen = np.bincount(np.ravel_multi_index(counts[:, :-1].T, shape),
                       minlength=(k + 1) ** (m - 1))
    observed = seen[np.ravel_multi_index(head.T, shape)]
    assert observed.sum() == len(counts)
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    stat = np.sum((observed - expected) ** 2 / expected)
    return sps.chi2.sf(stat, len(expected) - 1)


MULTINOMIAL_CASES = [*((k, (w, 1.0 - w)) for w in (0.5, 0.3, 0.7) for k in (5, 50, 200)),
                     (10, (0.5, 0.3, 0.2)), (50, (0.25, 0.25, 0.25, 0.25))]


@pytest.mark.parametrize("k, weights", MULTINOMIAL_CASES)
def test_member_counts_follow_the_multinomial_law(k, weights):
    weights = np.array(weights)
    seed = 31 + k + int(100 * weights[0]) + len(weights)
    shape = (500, 200)
    counts = _member_counts(np.random.default_rng(seed), k, weights,
                            _binomial_cdf(k, weights[0]), shape)
    assert counts.shape == (*shape, len(weights)) and counts.dtype == np.int64
    assert np.all(counts.sum(axis=-1) == k) and counts.min() >= 0
    assert _chi_square_p(counts.reshape(-1, len(weights)), k, weights) > 1e-3


@pytest.mark.parametrize("weights, want", [
    ((1.0, 0.0), (7, 0)), ((0.0, 1.0), (0, 7)), ((1.0,), (7,)), ((0.0, 0.0, 1.0), (0, 0, 7))])
def test_member_counts_of_a_degenerate_family_are_exact(weights, want):
    weights = np.array(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _member_counts(np.random.default_rng(3), 7, weights,
                                _binomial_cdf(7, weights[0]), (4, 5))
    assert counts.shape == (4, 5, len(weights))
    assert np.all(counts == want)


def test_member_counts_skip_a_zero_weight_member():
    weights = np.array([0.5, 0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _member_counts(np.random.default_rng(4), 9, weights,
                                _binomial_cdf(9, 0.5), (50, 40))
    assert np.all(counts[..., 1] == 0) and np.all(counts.sum(axis=-1) == 9)
    assert _chi_square_p(counts[..., ::2].reshape(-1, 2), 9, np.array([0.5, 0.5])) > 1e-3


@pytest.mark.parametrize("k, weights", MULTINOMIAL_CASES)
def test_count_vectors_list_every_composition_once_with_its_exact_pmf(k, weights):
    m = len(weights)
    vectors, pmf = _count_vectors(k, np.array(weights))
    # compositions of k into m parts, from the m - 1 bars' places among k + m - 1 slots
    want = {tuple(np.diff((-1, *bars, k + m - 1)) - 1)
            for bars in itertools.combinations(range(k + m - 1), m - 1)}
    assert vectors.dtype == np.int64 and vectors.shape == (len(want), m) == pmf.shape + (m,)
    assert {tuple(v) for v in vectors.tolist()} == want
    scale = [Fraction(w) for w in weights]
    for v, p in zip(vectors.tolist(), pmf):
        exact = math.factorial(k) // math.prod(map(math.factorial, v)) * math.prod(
            w**c for w, c in zip(scale, v))
        assert abs(Fraction(p) - exact) <= 1e-13 * exact, v


@pytest.mark.parametrize("weights", [(0.5, 0.0, 0.5), (1.0, 0.0), (0.5, 0.5, 0.0),
                                     (0.0, 0.7, 0.3), (0.2, 0.0, 0.0, 0.8)])
def test_count_vectors_of_a_zero_weight_member_have_pmf_exactly_zero(weights):
    # (0.5, 0.5, 0.0) has a stage of 1 before its last member, (0.0, 0.7, 0.3) a zero first
    # stage and (0.2, 0.0, 0.0, 0.8) two zero stages in a row
    weights = np.array(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vectors, pmf = _count_vectors(9, weights)
        hist = np.random.default_rng(6).multinomial(40, pmf, size=50)
    zero = np.any(vectors[:, weights == 0] > 0, axis=1)
    assert np.all(pmf[zero] == 0.0) and np.all(pmf[~zero] > 0.0)
    assert np.all(hist[:, zero] == 0) and np.all(hist.sum(axis=1) == 40)
    # what is left is Binomial(9, w_a / (w_a + w_b)) in the first member a of positive
    # weight, with b the other, or certain at 9 when a is the only one
    a = np.flatnonzero(weights)[0]
    share = weights[a] / weights[weights > 0].sum()
    np.testing.assert_allclose(pmf[~zero], sps.binom.pmf(vectors[~zero, a], 9, share),
                               rtol=1e-13, atol=0)


def test_count_vectors_pmf_at_large_k_is_exact_where_it_does_not_underflow():
    k, weights = 2000, np.array([0.3, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vectors, pmf = _count_vectors(k, weights)
        np.random.default_rng(8).multinomial(500, pmf, size=3)
    # the exact Multinomial(k, weights) pmf, each entry rounded once: with the weights
    # a / d and b / d, p(x) = C(k, x) a^x b^(k - x) / (a + b)^k, term by term in integers
    (a, d), (b, e) = (Fraction(w).as_integer_ratio() for w in weights)
    a, b = a * e, b * d
    term, total, exact = b**k, (a + b) ** k, []
    for x in range(k + 1):
        exact.append(term / total)
        term = term * (k - x) * a // ((x + 1) * b)
    exact = np.array(exact)
    assert np.array_equal(vectors[:, 0], np.arange(k + 1))
    big = exact > 1e-300
    np.testing.assert_allclose(pmf[big], exact[big], rtol=1e-13, atol=0)
    # the upper tail underflows: where the exact entry rounds to 0, so does the pmf's
    assert np.any(exact == 0) and np.all(pmf[exact == 0] == 0.0)


@pytest.mark.parametrize("protocol", ["iid_aug", "repeated_aug"])
def test_a_one_member_family_weights_every_row_by_k(protocol):
    source = aq.gaussian_source([0.0, 1.0], np.eye(2))
    config = aq.ExperimentConfig(source=source, family=aq.identity_family(2), protocol=protocol,
                                 statistic=aq.average_statistic(2), n=6, k=4, replicates=3,
                                 seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, weights = _block_cells(config, 3, substream(2, 0), None,
                                  _binomial_cdf(4, config.family.weights[0]), False,
                                  None)
    assert weights.shape == (3, 6, 1) and np.all(weights == 4.0)


@pytest.mark.parametrize("w", [0.5, 0.3, 0.7, 1e-3])
@pytest.mark.parametrize("k", [1, 5, 50, 200])
def test_binomial_cdf_table_matches_exact_arithmetic(k, w):
    table = _binomial_cdf(k, w)
    p = Fraction(w)
    exact = np.array([float(v) for v in itertools.accumulate(
        math.comb(k, x) * p**x * (1 - p) ** (k - x) for x in range(k))])
    assert table.shape == (k,)
    assert np.max(np.abs(table - exact)) <= 1e-13
    assert np.all(np.diff(table) >= 0)


def test_binomial_cdf_table_tails_underflow_to_zero_and_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _binomial_cdf(2000, 0.5)
    assert table[0] == 0.0 and table[-1] == 1.0
    assert np.all(np.diff(table) >= 0)
