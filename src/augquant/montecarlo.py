"""Seeded block engine: simulate, summarize, compare, check coverage.

Block b holds replicates [bB, (b+1)B), B = max(1, CELL_BUDGET // (rows k)), and draws
everything from the stream (seed, b): source normals of shape (B, rows, .), then regression
noise, then the augmentation draw.  A replicate has rows = n rows for ridge and ridge risk,
which read their cells; a statistic that reads only the grand mean draws one row.  Under
the four protocols whose n rows are i.i.d. Gaussian given the replicate's shared draw (all
but ``iid_aug``) the n rows sum to n mu + sqrt(n) (r - mu) in law for one row r, so that
row, each cell shifted by sqrt(n) - 1 times its mean, has the n rows' scaled grand mean.
Under ``iid_aug`` the replicate draws M centred source rows, then its count Gram, and the
row's M cells are the member sums over the Gram's factor (``_gram_cells``).  The Gram reads
the n rows' member counts only through how many rows drew each of the V = C(k + M - 1,
M - 1) count vectors, so when V <= n the replicate draws that histogram, one
Multinomial(n, pmf) draw, and otherwise its n count rows; there B = max(1, CELL_BUDGET //
(M min(V, n))), which bounds the (B, V) histograms and the (B, n, M) counts.  Blocks depend
on (n, k, R) and that layout only, so results are bitwise identical across reruns and
worker counts; ``manifest.txt`` records the layout's version, ``STREAM``.  A block is one
``statistics.evaluate_batch`` call per statistic on weighted cells: an
``iid_aug`` row's k member draws become its member counts, Multinomial(k,
weights), of the same law, and a ``repeated_aug`` replicate draws one count
vector for all rows.  Counts are drawn member by member over all rows: member
0's from one uniform per row in the CDF table of Binomial(k, w_0) that
``simulate`` builds once, members 1..M-2 by one binomial each on what is left,
the last member the rest.  On n rows they reach ``evaluate_batch`` as one C-contiguous
float64 (B, rows, M) array, repeated counts copied to every row.  ``simulate``
evaluates several statistics on one draw, one draw per layout: the kinds of each layout
share its blocks, drawn from the same streams (seed, b) as the other layout's, so each
kind's samples are those of its lone run; ``run_experiment`` is its one-statistic call.
Summaries come from the sample matrix in fixed order; variance SEs
from delete-one jackknife closed forms, vectorized over replicates.  The grand-mean laws
and theta_theory that the engine is checked against are ``closedform``'s.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closedform
from . import statistics as stats
from .closedform import PROTOCOLS
from .errors import ConfigError, NumericalError
from .linalg import psd_factor
from .rng import child_seed, is_seed, substream
from .surrogate import build_surrogate, estimate_moments, sample_surrogate_cells

STREAM = 6
CELL_BUDGET = 2**16  # entries per block, B times ``_block_size``'s divisor, unless B = 1


@dataclass(frozen=True)
class ExperimentConfig:
    source: object
    family: object
    protocol: str
    statistic: stats.StatisticKind
    n: int
    k: int
    replicates: int
    seed: int
    alpha: float = 0.05
    delta: float = 0.0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}")
        if not is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.n < 1 or self.k < 1:
            raise ConfigError("n and k must be positive")
        if self.replicates < 2:
            raise ConfigError("need at least 2 replicates")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError("delta must lie in [0, 1]")
        if self.source.dim != self.statistic.slot_dim:
            raise ConfigError(
                f"source dimension {self.source.dim} does not match the statistic's "
                f"slot dimension {self.statistic.slot_dim}")
        if self.family.dim != self.source.dim:
            raise ConfigError("family and source dimensions disagree")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    samples: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    var_norm: float
    std_of_first_coord: float
    se_of_variance: float
    se_of_first_coord_var: float
    empirical_ci_width: float


def _jackknife_var_norm_se(samples):
    """Delete-one jackknife SEs for ||cov||_F and for cov[0, 0].

    Uses the rank-one downdate of the deviation outer-product sum, so the whole
    computation is O(R q^2) and exactly matches recomputing each leave-one-out
    covariance.
    """
    r, q = samples.shape
    if r < 3:
        return 0.0, 0.0
    mean = samples.mean(axis=0)
    dev = samples - mean
    s = dev.T @ dev
    scale = r / (r - 1.0)
    sdev = dev @ s
    quad = np.einsum("ij,ij->i", dev, sdev)
    norms2 = np.einsum("ij,ij->i", dev, dev)
    s_norm2 = float(np.sum(s * s))
    loo_norm2 = s_norm2 - 2.0 * scale * quad + scale**2 * norms2**2
    loo_var_norm = np.sqrt(np.maximum(loo_norm2, 0.0)) / (r - 2.0)
    se_norm = math.sqrt((r - 1.0) / r * np.sum((loo_var_norm - loo_var_norm.mean()) ** 2))
    loo_first = (s[0, 0] - scale * dev[:, 0] ** 2) / (r - 2.0)
    se_first = math.sqrt((r - 1.0) / r * np.sum((loo_first - loo_first.mean()) ** 2))
    return se_norm, se_first


def _binomial_pmf(k, w):
    """The Binomial(k, w) pmf at x = 0..k, normalized, and its mode: the ratio recurrence
    walked out from the mode (nothing overflows; w = 0 or 1 divides by nothing)."""
    x, mode = np.arange(k + 1.0), min(int((k + 1) * w), k)
    pmf = np.ones(k + 1)
    if mode < k:  # p(x) / p(x - 1) = (k - x + 1) w / (x (1 - w))
        pmf[mode + 1:] = np.cumprod((k - x[mode:k]) * w / (x[mode + 1:] * (1 - w)))
    if mode > 0:  # p(x) / p(x + 1) = (x + 1) (1 - w) / ((k - x) w)
        pmf[mode - 1::-1] = np.cumprod(x[mode:0:-1] * (1 - w) / ((k - x[mode - 1::-1]) * w))
    return pmf / pmf.sum(), mode


def _binomial_cdf(k, w):
    """P(X <= x), X ~ Binomial(k, w), at x = 0..k-1: ``_binomial_pmf`` with each tail
    summed from its end (a tail that underflows reads exactly 0 or 1)."""
    pmf, mode = _binomial_pmf(k, w)
    return np.concatenate([np.cumsum(pmf[:mode]), 1.0 - np.cumsum(pmf[:mode:-1])[::-1]])


def _stages(weights):
    """The member-by-member count draw's stages: member j takes Binomial(left, stage_j) of
    the counts left to members j.., stage_j = w_j / sum_{i >= j} w_i, 0 where that is 0."""
    tail = np.cumsum(weights[::-1])[::-1]
    return np.divide(weights, tail, out=np.zeros(len(weights)), where=tail > 0)


def _count_vectors(k, weights):
    """The V = C(k + M - 1, M - 1) count vectors of k draws from M members, (V, M) int64 in
    lexicographic order, and their Multinomial(k, weights) pmf: each prefix with ``left``
    counts still to place is extended by c = 0..left, its pmf times
    ``_binomial_pmf(left, stage_j)[c]`` (``_stages``; one table per distinct ``left``), and
    the last member takes the rest.  A zero stage gives c = 0 and a stage of 1 c = left, so
    a member of weight 0 gives its vectors pmf exactly 0; the pmf is normalized, so
    ``rng.multinomial`` never finds it summing past 1."""
    vectors, pmf = np.zeros((1, 0), dtype=np.int64), np.ones(1)
    for stage in _stages(weights)[:-1]:
        left = k - vectors.sum(axis=1)
        tables = {x: _binomial_pmf(x, stage)[0] for x in np.unique(left).tolist()}
        starts = np.repeat(np.cumsum(left + 1) - left - 1, left + 1)
        pmf = np.repeat(pmf, left + 1) * np.concatenate([tables[x] for x in left.tolist()])
        vectors = np.column_stack([np.repeat(vectors, left + 1, axis=0),
                                   np.arange(len(starts)) - starts])
    return np.column_stack([vectors, k - vectors.sum(axis=1)]), pmf / pmf.sum()


def _draws_histogram(n, k, m):
    """Whether ``_gram_cells`` draws each replicate's count histogram over the V count
    vectors (V <= n) rather than its n count rows: the smaller of the two draws."""
    return math.comb(k + m - 1, m - 1) <= n


def _member_counts(rng, k, weights, table, shape):
    """Multinomial(k, weights) counts, (*shape, M): member 0's is one uniform per row looked
    up in ``table``, ``_binomial_cdf(k, w_0)``; member j < M - 1 draws Binomial(left,
    stage_j) on the count left (``_stages``), and the last member takes the rest."""
    m, stage = len(weights), _stages(weights)
    counts = np.empty((*shape, m), dtype=np.int64)
    counts[..., 0] = np.searchsorted(table, rng.random(shape), side="right")
    left = k - counts[..., 0]
    for j in range(1, m):
        counts[..., j] = rng.binomial(left, stage[j]) if j < m - 1 else left
        left -= counts[..., j]
    return counts


def _block_cells(config, size, rng, spec, table, one_row, histogram):
    """``size`` replicates as ``evaluate_batch`` points and weights, ``table`` the member-0
    count CDF and ``histogram`` ``_histogram_table``'s pair or None; ``repeated_surrogate``
    has the law of ``repeated_aug`` for every supported (Gaussian) source, so is drawn alike.

    ``one_row`` (for a kind that reads only the grand mean) draws one row per replicate.
    Under ``iid_aug`` that row is ``_gram_cells``'.  Under the other protocols the n rows
    are i.i.d. Gaussian given the replicate's shared draw, and the row is one of them with
    each cell shifted by sqrt(n) - 1 times its mean: n i.i.d. rows of law N(mu, S) sum to
    n mu + sqrt(n) (r - mu), r ~ N(mu, S), so that row's grand sum over k has the law of
    the n rows' over sqrt(n) k, the scaled grand mean."""
    n, k, fam = config.n, config.k, config.family
    rows, shift = (1 if one_row else n), math.sqrt(n) - 1.0
    if config.protocol == "surrogate":
        cells = sample_surrogate_cells(spec, (size, rows), rng)
        if one_row:
            cells += shift * spec.mean_block
        return cells, np.broadcast_to(1.0, (size, rows, k))
    if one_row and config.protocol == "iid_aug":
        return _gram_cells(config, size, rng, table, histogram)
    x = config.source.sample((size, rows), rng)
    if config.protocol == "unaugmented":
        if one_row:
            x += shift * config.source.joint_mean()
        return x[:, :, None], np.broadcast_to(float(k), (size, rows, 1))
    counts = _member_counts(rng, k, fam.weights, table,
                            (size, rows if config.protocol == "iid_aug" else 1))
    images = fam.images(x.reshape(size * rows, -1)).reshape(size, rows, *fam.offsets.shape)
    if one_row:
        images += shift * fam.images(config.source.joint_mean()[None])
    weights = np.broadcast_to(counts, (size, rows, len(fam.weights)))
    # one C-contiguous float64 array, which einsum's grand sum reads without a cast buffer
    return images, weights.astype(float, order="C")


def _gram_cells(config, size, rng, table, histogram):
    """``size`` ``iid_aug`` replicates as one row of M cells each, with unit weights, of the
    law of the replicate's grand sum over sqrt(n).

    Given the n count rows C (n, M), the grand sum is sum_m A_m y_m + s_m a_m, with
    y_m = sum_i c_im x_i and s the column sums of C.  The y_m are jointly Gaussian with
    means s_m mu and cross-covariances G_mm' S, G = C^T C, and s = G 1 / k since every
    count row sums to k.  So with G = L L^T and M centred source rows R, y = s mu + L R,
    and cell m is (A_m y_m + s_m a_m) / sqrt(n).  Draws R, then the counts.

    G = sum_v N_v v v^T and s = sum_v N_v v read the rows only through how many drew each
    count vector v, (N_v) ~ Multinomial(n, pmf) over ``histogram``'s (vectors, pmf).  With
    a histogram (V <= n) that is the one draw per replicate; without, the n count rows are
    drawn one by one, member by member (``_member_counts``)."""
    n, k, fam, src = config.n, config.k, config.family, config.source
    m = len(fam.weights)
    centred = src.sample((size, m), rng, centred=True)
    if histogram is None:
        counts = _member_counts(rng, k, fam.weights, table, (size, n))
        gram = counts.transpose(0, 2, 1) @ counts
        sums = gram.sum(axis=-1) // k
    else:
        vectors, pmf = histogram
        hist = rng.multinomial(n, pmf, size=size)
        outer = vectors[:, :, None] * vectors[:, None, :]
        gram = (hist @ outer.reshape(len(vectors), m * m)).reshape(size, m, m)
        sums = hist @ vectors
    y = psd_factor(gram, "the member-count Gram", NumericalError) @ centred
    y += sums[..., None] * src.joint_mean()
    cells = (y[:, :, None] @ fam.matrices.transpose(0, 2, 1))[:, :, 0]
    cells += sums[..., None] * fam.offsets
    cells /= math.sqrt(n)
    return cells[:, None], np.broadcast_to(1.0, (size, 1, m))


def _summarize(config, samples):
    """The SimulationResult of config's statistic from its (R, q) samples."""
    mean = samples.mean(axis=0)
    cov = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    se_norm, se_first = _jackknife_var_norm_se(samples)
    lo_q, hi_q = np.quantile(samples[:, 0], [config.alpha / 2, 1 - config.alpha / 2])
    if not all(np.isfinite(v).all() for v in (samples, mean, cov, se_norm, se_first, lo_q, hi_q)):
        raise NumericalError(f"the {config.statistic.name} statistic or its summaries (mean, "
                             "covariance, jackknife SEs, quantiles) are not finite in "
                             "floating point")
    return SimulationResult(
        samples=samples, mean=mean, covariance=cov, var_norm=float(np.linalg.norm(cov)),
        std_of_first_coord=float(np.sqrt(max(cov[0, 0], 0.0))), se_of_variance=se_norm,
        se_of_first_coord_var=se_first, empirical_ci_width=float(hi_q - lo_q))


def _block_size(config, one_row, histogram):
    """Replicates per block: CELL_BUDGET over a replicate's cells, rows k, or, when
    ``_gram_cells`` draws them, over its member counts: M min(V, n) entries, the V count
    vectors of ``histogram`` (``_histogram_table``'s pair) or else n count rows."""
    if one_row and config.protocol == "iid_aug":
        rows = config.n if histogram is None else len(histogram[0])
        return max(1, CELL_BUDGET // (len(config.family.weights) * rows))
    return max(1, CELL_BUDGET // ((1 if one_row else config.n) * config.k))


def _histogram_table(config, kinds):
    """``_gram_cells``' (vectors, pmf) pair when one of ``kinds`` takes its histogram side,
    else None.  The histogram's int64 Gram entries reach n k^2, so a run where that passes
    2^63 is refused before anything is drawn."""
    n, k, weights = config.n, config.k, config.family.weights
    if (config.protocol != "iid_aug" or all(kind.reads_cells for kind in kinds)
            or not _draws_histogram(n, k, len(weights))):
        return None
    if n * k * k >= 2**63:
        raise NumericalError(f"n = {n} is too large for k = {k}: the member-count Gram "
                             f"entries reach n k^2 = {n * k * k}, past the int64 range")
    return _count_vectors(k, weights)


def simulate(config, kinds):
    """Each statistic in ``kinds`` on one draw of config's replicates: one SimulationResult per
    kind, in order.  The kinds of one layout (one row iff the kind does not read its cells)
    share each block's draw; the two layouts draw their own blocks from the same streams, so
    every kind's samples are those of its lone run.  A kind that does not fit the source
    raises ConfigError before anything is drawn."""
    configs = [replace(config, statistic=kind) for kind in kinds]
    samples = [np.empty((config.replicates, kind.output_dim)) for kind in kinds]
    spec = build_surrogate(estimate_moments(config.family, config.source), config.n, config.k,
                           config.delta) if config.protocol == "surrogate" else None
    table = _binomial_cdf(config.k, config.family.weights[0])
    histogram = _histogram_table(config, kinds)
    # an overflow shows as a non-finite value in a summary, reported once, not as warnings
    with np.errstate(all="ignore"):
        for one_row in (False, True):
            group = [(kind, out) for kind, out in zip(kinds, samples)
                     if kind.reads_cells != one_row]
            if not group:
                continue
            size = _block_size(config, one_row, histogram)
            for block, lo in enumerate(range(0, config.replicates, size)):
                hi = min(lo + size, config.replicates)
                points, weights = _block_cells(config, hi - lo, substream(config.seed, block),
                                               spec, table, one_row, histogram)
                for kind, out in group:
                    out[lo:hi] = stats.evaluate_batch(kind, points, weights, config.k)
        return [_summarize(cfg, out) for cfg, out in zip(configs, samples)]


def run_experiment(config, workers=1):
    """``simulate`` of the config's own statistic.  The run is serial; ``workers`` is
    accepted for interface stability, and the result never depended on it."""
    return simulate(config, (config.statistic,))[0]


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    results: dict
    theta_hat: float
    theta_se: float
    theta_theory: float = None

    @property
    def degenerate(self):
        return math.isinf(self.theta_hat)  # zero augmented variance


def compare_protocols(config_base, protocols):
    """Run the same statistic under several protocols and report the benefit ratio.

    The ratio is sqrt(unaugmented variance norm / augmented variance norm),
    with a delta-method standard error from the two jackknife variance SEs.
    Protocol list must contain "unaugmented" plus at least one augmented
    protocol (the first non-baseline entry is the ratio's denominator), each
    once.  The i-th protocol runs on the root seed ``child_seed(seed, i)``.
    """
    if "unaugmented" not in protocols:
        raise ConfigError("comparison needs the unaugmented baseline protocol")
    if all(p == "unaugmented" for p in protocols):
        raise ConfigError("comparison needs an augmented protocol besides unaugmented")
    if len(set(protocols)) != len(protocols):
        raise ConfigError(f"comparison lists a protocol twice: {list(protocols)}")
    results = {}
    for idx, proto in enumerate(protocols):
        cfg = replace(config_base, protocol=proto, seed=child_seed(config_base.seed, idx))
        results[proto] = run_experiment(cfg)
    aug_protocol = next(p for p in protocols if p != "unaugmented")
    aug, unaug = results[aug_protocol], results["unaugmented"]
    va, vu = aug.var_norm, unaug.var_norm
    theta = closedform.theta_ratio_general(vu, va)
    if va == 0.0:
        se = math.nan
    else:
        rel = (unaug.se_of_variance / vu) ** 2 + (aug.se_of_variance / va) ** 2 if vu > 0 else 0.0
        se = 0.5 * theta * math.sqrt(rel)
    theory = closedform.theta_theory(config_base.statistic, config_base.family,
                                     config_base.source, aug_protocol, config_base.n,
                                     config_base.k, config_base.delta)
    return ComparisonReport(results=results, theta_hat=theta, theta_se=se, theta_theory=theory)


def coverage_check(config):
    """Empirical coverage over replicates of the closed-form interval of config's statistic.

    The interval reads config's ``closedform.grand_mean_law``: the d=1 average's plain grand
    mean (the scaled statistic over sqrt(n)) has its normal interval, and the 1-d exponential
    of a centred law its chi-squared quantile interval.  Any other statistic is refused, as
    is a repeated protocol, whose grand mean is a mixture over the shared maps.  Returns
    (coverage, binomial SE, interval).
    """
    kind = config.statistic
    if config.protocol.startswith("repeated"):
        raise ConfigError(f"no closed-form interval for {config.protocol}: its rows share maps")
    mean, cov = closedform.grand_mean_law(config.family, config.source, config.protocol,
                                          config.n, config.k, config.delta)
    if kind.name == "average" and kind.d == 1:
        interval = closedform.average_ci(mean, cov, config.n, config.alpha)
        scale = 1.0 / math.sqrt(config.n)
    elif kind.name == "expnegchisq" and kind.d == 1 and not np.any(mean):
        interval = closedform.chisq_ci(math.sqrt(max(float(cov[0, 0]), 0.0)), config.alpha)
        scale = 1.0
    else:
        raise ConfigError(f"no closed-form interval for the {kind.name} statistic with "
                          f"d={kind.d} under this law: only the d=1 average and the 1-d "
                          "exponential of a centred law have one")

    result = run_experiment(config)
    vals = result.samples[:, 0] * scale
    hits = (vals >= interval.lo) & (vals <= interval.hi)
    p = float(hits.mean())
    se = math.sqrt(max(p * (1 - p), 0.0) / config.replicates)
    return p, se, interval
