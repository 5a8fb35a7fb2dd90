"""Seeded block engine: simulate, summarize, compare, check coverage.

Block b holds replicates [bB, (b+1)B), B = max(1, CELL_BUDGET // (n k)), and
draws everything from the stream (seed, b): source normals of shape (B, n, .),
then regression noise, then the augmentation draw.  Blocks depend on (n, k, R)
only, so results are bitwise identical across reruns and worker counts;
``manifest.txt`` records the layout's version, ``STREAM``.  A block is one
``statistics.evaluate_batch`` call on weighted cells: an ``iid_aug`` row's k
member draws become its member counts, Multinomial(k, weights), of the same
law, and a ``repeated_aug`` replicate draws one count vector for all rows.
Summaries come from the sample matrix in fixed order; variance SEs from
delete-one jackknife closed forms, vectorized over replicates.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closedform
from . import statistics as stats
from .errors import ConfigError, NumericalError
from .rng import substream
from .surrogate import build_surrogate, estimate_moments, sample_surrogate_cells

STREAM = 2
CELL_BUDGET = 2**16  # cells per block: B * n * k <= CELL_BUDGET unless B = 1
PROTOCOLS = ("iid_aug", "repeated_aug", "unaugmented", "surrogate", "repeated_surrogate")


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
    config_echo: ExperimentConfig


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


def _block_cells(config, size, rng, spec):
    """``size`` replicates as ``evaluate_batch`` points and weights; ``repeated_surrogate``
    has the law of ``repeated_aug`` for every supported (Gaussian) source, so is drawn alike."""
    n, k, fam = config.n, config.k, config.family
    if config.protocol == "surrogate":
        return sample_surrogate_cells(spec, (size, n), rng), np.broadcast_to(1.0, (size, n, k))
    x = config.source.sample((size, n), rng)
    if config.protocol == "unaugmented":
        return x[:, :, None], np.broadcast_to(float(k), (size, n, 1))
    rows = n if config.protocol == "iid_aug" else 1
    counts = rng.multinomial(k, fam.weights, size=(size, rows))
    images = fam.images(x.reshape(size * n, -1)).reshape(size, n, *fam.offsets.shape)
    return images, np.broadcast_to(counts, (size, n, len(fam.weights)))


def _sub(seed, r):
    # the integer seed of stream (seed, r): a comparison's r-th protocol runs on it
    return int(np.random.SeedSequence([int(seed), int(r)]).generate_state(1, np.uint64)[0])


def run_experiment(config, workers=1):
    """Run all replicates block by block and summarize; deterministic given config.seed.

    The run is serial; ``workers`` is accepted for interface stability, and
    the result never depended on it.
    """
    r_total, kind = config.replicates, config.statistic
    samples = np.empty((r_total, kind.output_dim))
    spec = build_surrogate(estimate_moments(config.family, config.source), config.n, config.k,
                           config.delta) if config.protocol == "surrogate" else None
    size = max(1, CELL_BUDGET // (config.n * config.k))
    # an overflow shows as a non-finite value below, reported once, not as warnings
    with np.errstate(all="ignore"):
        for block, lo in enumerate(range(0, r_total, size)):
            hi = min(lo + size, r_total)
            points, weights = _block_cells(config, hi - lo, substream(config.seed, block), spec)
            samples[lo:hi] = stats.evaluate_batch(kind, points, weights, config.k)
        mean = samples.mean(axis=0)
        cov = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
        se_norm, se_first = _jackknife_var_norm_se(samples)
        lo_q, hi_q = np.quantile(samples[:, 0], [config.alpha / 2, 1 - config.alpha / 2])
    if not all(np.isfinite(v).all() for v in (samples, mean, cov, se_norm, se_first, lo_q, hi_q)):
        raise NumericalError(f"the {kind.name} statistic or its summaries (mean, covariance, "
                             "jackknife SEs, quantiles) are not finite in floating point")
    return SimulationResult(
        samples=samples, mean=mean, covariance=cov,
        var_norm=float(np.linalg.norm(cov)),
        std_of_first_coord=float(np.sqrt(max(cov[0, 0], 0.0))),
        se_of_variance=se_norm, se_of_first_coord_var=se_first,
        empirical_ci_width=float(hi_q - lo_q),
        config_echo=config)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    results: dict
    theta_hat: float
    theta_se: float
    theta_theory: float = None
    degenerate: bool = False


def _theory_theta(config):
    kind = config.statistic
    if kind.name == "average":
        moments = estimate_moments(config.family, config.source)
        return closedform.theta_ratio_average(moments, config.source, config.k)
    if kind.name == "expnegchisq":
        s_aug, s_un = closedform.exp_neg_chisq_sigmas(config.family, config.source)
        return closedform.theta_ratio_general(closedform.v_curve(s_un), closedform.v_curve(s_aug))
    return None


def compare_protocols(config_base, protocols):
    """Run the same statistic under several protocols and report the benefit ratio.

    The ratio is sqrt(unaugmented variance norm / augmented variance norm),
    with a delta-method standard error from the two jackknife variance SEs.
    Protocol list must contain "unaugmented" plus at least one augmented
    protocol (the first non-baseline entry is the ratio's denominator), each
    once.
    """
    if "unaugmented" not in protocols:
        raise ConfigError("comparison needs the unaugmented baseline protocol")
    if all(p == "unaugmented" for p in protocols):
        raise ConfigError("comparison needs an augmented protocol besides unaugmented")
    if len(set(protocols)) != len(protocols):
        raise ConfigError(f"comparison lists a protocol twice: {list(protocols)}")
    results = {}
    for idx, proto in enumerate(protocols):
        cfg = replace(config_base, protocol=proto,
                      seed=_sub(config_base.seed, idx))
        results[proto] = run_experiment(cfg)
    aug_name = next(p for p in protocols if p != "unaugmented")
    va = results[aug_name].var_norm
    vu = results["unaugmented"].var_norm
    if va == 0.0:
        return ComparisonReport(results=results, theta_hat=math.inf, theta_se=float("nan"),
                                theta_theory=_theory_theta(config_base), degenerate=True)
    theta = math.sqrt(vu / va)
    sa = results[aug_name].se_of_variance
    su = results["unaugmented"].se_of_variance
    rel = 0.0
    if vu > 0:
        rel = (su / vu) ** 2 + (sa / va) ** 2
    se = 0.5 * theta * math.sqrt(rel)
    return ComparisonReport(results=results, theta_hat=theta, theta_se=se,
                            theta_theory=_theory_theta(config_base))


def coverage_check(config, interval_rule):
    """Empirical coverage of a fixed closed-form interval over replicates.

    ``interval_rule="average_ci"`` checks the plain grand mean (the scaled
    statistic divided by sqrt(n)) against the d=1 interval for the config's
    protocol; ``"chisq_ci"`` checks the exponential statistic against its
    quantile interval.  Returns (coverage, binomial SE, interval).
    """
    kind = config.statistic
    moments = estimate_moments(config.family, config.source)
    if interval_rule == "average_ci":
        if kind.name != "average" or kind.d != 1:
            raise ConfigError("average interval rule applies to the d=1 average statistic")
        proto = "unaugmented" if config.protocol == "unaugmented" else "augmented"
        interval = closedform.average_ci(moments, config.source, config.n, config.k,
                                         config.alpha, proto)
        scale = 1.0 / math.sqrt(config.n)
    elif interval_rule == "chisq_ci":
        if kind.name != "expnegchisq":
            raise ConfigError("chi-squared interval rule applies to the 1-d exponential statistic")
        if config.protocol in ("unaugmented",):
            sigma = math.sqrt(float(config.source.joint_cov()[0, 0]))
        else:
            sigma = math.sqrt(max(float(moments.sigma12[0, 0]), 0.0))
        interval = closedform.chisq_ci(sigma, config.alpha)
        scale = 1.0
    else:
        raise ConfigError(f"unknown interval rule {interval_rule!r}")

    result = run_experiment(config)
    vals = result.samples[:, 0] * scale
    hits = (vals >= interval.lo) & (vals <= interval.hi)
    p = float(hits.mean())
    se = math.sqrt(max(p * (1 - p), 0.0) / config.replicates)
    return p, se, interval
