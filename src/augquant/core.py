"""Data sources, affine transformation families, and augmentation protocols.

An augmented dataset holds ``n`` rows of ``k`` transformed copies of each
observation, laid out row-major: row ``i`` is the concatenation
``(t_i1(x_i), ..., t_ik(x_i))`` with the coordinate index innermost.  The
protocols and surrogate samplers write it, ``statistics.evaluate`` and the
bound's derivative adapters read it; the Monte Carlo engine does not (below).

Transformations are restricted to affine maps ``x -> A x + a``.  All built-in
families (identity, coordinate swaps, coordinate-zeroing crops, cyclic
coordinate rotations) are affine, and affinity keeps every conditional moment
used by the surrogate construction available in closed form.

A family is its stack of maps, ``matrices`` (M, D, D) and ``offsets`` (M, D),
with their ``weights``; ``TransformationFamily.images`` maps every row under
every member in one product, and each protocol gathers its cells from that by
member index.
The Monte Carlo engine does not gather: it weights each row's M images by the
row's member counts, Multinomial(k, weights), the law of k member draws.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError
from .linalg import psd_factor
from .rng import substream


def _check_cov(cov):
    """The source covariance as a float array, refused unless square, symmetric and PSD."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ContractError(f"cov must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ContractError("cov must be symmetric")
    w = np.linalg.eigvalsh(cov)
    scale = max(abs(w).max(), 1.0)
    if w.min() < -1e-8 * scale:
        raise ContractError(f"cov is not positive semidefinite (eigmin={w.min():g})")
    return cov


@dataclass(frozen=True, eq=False)
class DataSource:
    """A Gaussian data-generating distribution on R^dim.

    ``kind == "gaussian"``: observations are N(mean, cov) in R^dim.

    ``kind == "regression"``: observations are concatenated covariate/response
    pairs (v, y) with v ~ N(mean, cov) in R^d and y = v + eps,
    eps ~ N(0, noise_scale^2 I), d = ``mean.size``.  The pair is stored as a
    single 2d-vector, so ``dim = 2 d`` and transformation families must act on
    the concatenated vector (see ``TransformationFamily.paired``).
    """

    kind: str
    mean: np.ndarray
    cov: np.ndarray
    noise_scale: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(-1))
        object.__setattr__(self, "cov", _check_cov(self.cov))
        if self.kind not in ("gaussian", "regression"):
            raise ContractError(f"unknown source kind {self.kind!r}")
        if self.mean.shape[0] != self.cov.shape[0]:
            raise ContractError("mean and cov dimensions disagree")
        if self.kind == "regression":
            if not (self.noise_scale >= 0 and np.isfinite(self.noise_scale * self.noise_scale)):
                raise ContractError("noise_scale must be nonnegative with a finite square")

    @property
    def dim(self):
        if self.kind == "regression":
            return 2 * self.mean.size
        return self.mean.size

    def joint_mean(self):
        """Mean of the full observation vector (covariates stacked with responses)."""
        if self.kind == "gaussian":
            return self.mean.copy()
        return np.concatenate([self.mean, self.mean])

    def joint_cov(self):
        """Covariance of the full observation vector."""
        if self.kind == "gaussian":
            return self.cov.copy()
        d = self.mean.size
        out = np.empty((2 * d, 2 * d))
        out[:d, :d] = self.cov
        out[:d, d:] = self.cov
        out[d:, :d] = self.cov
        out[d:, d:] = self.cov + self.noise_scale**2 * np.eye(d)
        return out

    @cached_property
    def _factor(self):
        return psd_factor(self.cov, "source covariance")

    def sample(self, n, rng):
        """Draw ``n`` i.i.d. observations as an (n, dim) array; a shape tuple ``n``
        gives an (*n, dim) array.  The covariate normals come first, then the noise."""
        shape = n if isinstance(n, tuple) else (n,)
        base = self.mean + rng.standard_normal((*shape, self.mean.shape[0])) @ self._factor.T
        if self.kind == "gaussian":
            return base
        eps = self.noise_scale * rng.standard_normal((*shape, self.mean.size))
        return np.concatenate([base, base + eps], axis=-1)


def gaussian_source(mean, cov):
    return DataSource(kind="gaussian", mean=mean, cov=cov)


def regression_source(mean, cov, noise_scale):
    return DataSource(kind="regression", mean=mean, cov=cov, noise_scale=float(noise_scale))


@dataclass(frozen=True, eq=False)
class TransformationFamily:
    """A finite distribution over the affine maps x -> A_m x + a_m of R^dim.

    ``matrices`` (M, D, D) and ``offsets`` (M, D) stack the maps in member
    order (zero offsets when none are given), and ``weights`` holds their
    probabilities (uniform when none are given; must sum to one within
    1e-12).  ``kind`` names the constructor that produced the family;
    ``config.experiment_to_dict`` writes it back as ``family.kind``, with a
    ``_paired`` suffix as ``family.paired``.  ``cdf`` is the normalized
    cumulative weight that ``sample_indices`` inverts.
    """

    kind: str
    matrices: np.ndarray
    offsets: np.ndarray = None
    weights: np.ndarray = None

    def __post_init__(self):
        a = np.array(self.matrices, dtype=float)
        if a.ndim != 3 or a.shape[0] < 1 or a.shape[1] != a.shape[2]:
            raise ContractError(f"matrices must be a nonempty (M, D, D) stack of square maps, "
                                f"got shape {a.shape}")
        m, d = a.shape[:2]
        off = np.zeros((m, d)) if self.offsets is None else np.array(self.offsets, dtype=float)
        if off.shape != (m, d):
            raise ContractError(f"offsets must have shape {(m, d)}, got {off.shape}")
        w = np.full(m, 1.0 / m) if self.weights is None else np.array(self.weights, dtype=float)
        if w.shape != (m,):
            raise ContractError(f"weights must have {m} entries, one per map, got shape {w.shape}")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ContractError("weights must be a probability vector (sum 1 within 1e-12)")
        object.__setattr__(self, "matrices", a)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)

    @cached_property
    def cdf(self):
        return self.weights.cumsum() / self.weights.cumsum()[-1]

    @property
    def dim(self):
        return self.matrices.shape[1]

    def images(self, x):
        """Every row of ``x`` (rows, D) under every member, shape (rows, M, D)."""
        m, d = self.offsets.shape
        return (x @ self.matrices.reshape(m * d, d).T).reshape(len(x), m, d) + self.offsets

    def sample_indices(self, shape, rng):
        """Member indices of the given shape: ``rng.choice(M, shape, p=weights)``,
        the same draw and bytes, without its per-call validation."""
        if len(self.weights) == 1:
            return np.zeros(shape, dtype=np.intp)
        return self.cdf.searchsorted(rng.random(shape), side="right")

    def paired(self, d_resp):
        """Lift the family to concatenated (covariate, response) vectors.

        Each member A becomes blockdiag(A, A), i.e. the same map is applied to
        the covariate and the response blocks simultaneously.  Requires the
        response dimension to equal the family's dimension.
        """
        d = self.dim
        if d_resp != d:
            raise ContractError("paired family requires response dim equal to covariate dim")
        mats = np.zeros((len(self.weights), 2 * d, 2 * d))
        mats[:, :d, :d] = mats[:, d:, d:] = self.matrices
        return TransformationFamily(self.kind + "_paired", mats,
                                    np.concatenate([self.offsets, self.offsets], axis=1),
                                    self.weights)


def identity_family(d):
    """Point mass at the identity map of R^d."""
    if d < 1:
        raise ContractError("dimension must be positive")
    return TransformationFamily("identity", np.eye(d)[None])


def finite_uniform_family(matrices, offsets=None, weights=None):
    """The maps x -> matrices[m] x + offsets[m], drawn with probabilities ``weights``
    (uniform when omitted); offsets default to zero."""
    return TransformationFamily("finite_uniform", matrices, offsets, weights)


def swap_family(weights=None):
    """Uniform (or reweighted) choice between the identity and the coordinate swap on R^2."""
    return TransformationFamily("finite_uniform", [np.eye(2), [[0.0, 1.0], [1.0, 0.0]]],
                                weights=weights)


def random_crop_family(d):
    """Equal-probability choice of the two projections zeroing coordinate 0 or 1."""
    if d < 2:
        raise ContractError("random crop needs dimension at least 2")
    mats = np.stack([np.eye(d), np.eye(d)])
    mats[0, 0, 0] = mats[1, 1, 1] = 0.0
    return TransformationFamily("random_crop", mats)


def cyclic_rotation_family(d):
    """Uniform choice among the d cyclic coordinate shifts of R^d; shift s maps
    coordinate i to (i + s) mod d."""
    if d < 1:
        raise ContractError("dimension must be positive")
    return TransformationFamily("cyclic_rotation",
                                [np.roll(np.eye(d), s, axis=0) for s in range(d)])


def sign_flip_family(d, p_keep):
    """Identity with probability ``p_keep``, global sign flip otherwise.

    A one-parameter knob for the cross-copy covariance: the mean map is
    (2 p_keep - 1) I, so the between-copy covariance shrinks by that factor
    squared while the per-copy marginal is untouched.
    """
    if not 0.0 <= p_keep <= 1.0:
        raise ContractError("p_keep must lie in [0, 1]")
    return TransformationFamily("finite_uniform", [np.eye(d), -np.eye(d)],
                                weights=[p_keep, 1.0 - p_keep])


@dataclass(frozen=True, eq=False)
class AugmentedDataset:
    """n rows of k transformed copies, values shape (n, k*d), row-major.

    ``labels`` records, when available, which family member produced each of
    the n*k cells; it is bookkeeping for diagnostics and tests, not part of
    the wire layout.
    """

    n: int
    k: int
    d: int
    values: np.ndarray
    labels: np.ndarray = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n, self.k * self.d):
            raise ContractError(f"values shape {v.shape} does not match (n, k*d)="
                                f"({self.n}, {self.k * self.d})")
        object.__setattr__(self, "values", v)

    def cells(self):
        """View of values with shape (n, k, d)."""
        return self.values.reshape(self.n, self.k, self.d)


def _validate_data(data, k, family=None):
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ContractError("data must be a nonempty (n, d) array")
    if k < 1:
        raise ContractError("k must be at least 1")
    if family is not None and family.dim != data.shape[1]:
        raise ContractError(f"family dimension {family.dim} does not match data "
                            f"dimension {data.shape[1]}")
    return data


def augment_iid(data, family, k, seed):
    """Augment each observation with k independently drawn transformations.

    Every one of the n*k cells receives its own draw from the family,
    independent across cells.  Deterministic given ``seed``.
    """
    data = _validate_data(data, k, family)
    n, d = data.shape
    idx = family.sample_indices((n, k), substream(seed))
    out = family.images(data)[np.arange(n)[:, None], idx]
    return AugmentedDataset(n=n, k=k, d=d, values=out.reshape(n, k * d), labels=idx)


def augment_repeated(data, family, k, seed):
    """Augment with k transformations drawn once and applied to every row.

    Slot j of every row carries the same transformation, which couples rows:
    distinct observations are no longer independent after augmentation.
    """
    data = _validate_data(data, k, family)
    n, d = data.shape
    idx_k = family.sample_indices((k,), substream(seed))
    out = family.images(data)[:, idx_k]
    labels = np.broadcast_to(idx_k, (n, k)).copy()
    return AugmentedDataset(n=n, k=k, d=d, values=out.reshape(n, k * d), labels=labels)


def replicate_unaugmented(data, k):
    """The k-fold replicate baseline: row i is (x_i, ..., x_i), k copies."""
    data = _validate_data(data, k)
    n, d = data.shape
    values = np.tile(data, (1, k))
    return AugmentedDataset(n=n, k=k, d=d, values=values, labels=None)
