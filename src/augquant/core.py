"""Data sources, affine transformation families, and augmentation protocols.

An augmented dataset is a plain (n, k*d) float array: ``n`` rows of ``k``
transformed copies of each observation, laid out row-major, so row ``i`` is the
concatenation ``(t_i1(x_i), ..., t_ik(x_i))`` with the coordinate index
innermost.  The protocols and surrogate samplers return it and
``statistics.evaluate`` reads it; ``reshape(n, k, d)`` gives the cells.
The bound's derivative adapters read its rows as (rows, k, d) stacks of cells,
and the Monte Carlo engine does not read it (below).

Transformations are restricted to affine maps ``x -> A x + a``.  All built-in
families (identity, coordinate swaps, coordinate-zeroing crops, cyclic
coordinate rotations) are affine, and affinity keeps every conditional moment
used by the surrogate construction available in closed form.

A family is its stack of maps, ``matrices`` (M, D, D) and ``offsets`` (M, D),
with their ``weights``; ``TransformationFamily.images`` maps every row under
every member in one product, and each protocol gathers its cells from that by
member index.
The Monte Carlo engine does not gather: it weights each row's M images by the
row's member counts, Multinomial(k, weights), the law of k member draws; a mean
statistic under ``iid_aug`` draws its grand sum from the rows' M x M count Gram.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError
from .linalg import psd_factor
from .rng import substream


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
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if not np.isfinite(self.mean).all():
            raise ContractError("mean must be finite")
        self._factor  # the factorization refuses a cov that is not square, symmetric and PSD
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
        return psd_factor(self.cov, "cov", ContractError)

    def sample(self, n, rng, centred=False):
        """Draw ``n`` i.i.d. observations as an (n, dim) array; a shape tuple ``n``
        gives an (*n, dim) array.  The covariate normals come first, then the noise.
        ``centred`` draws the same normals but leaves out the mean, so the draw has
        mean 0 and the same covariance as ``sample``."""
        shape = n if isinstance(n, tuple) else (n,)
        base = rng.standard_normal((*shape, self.mean.shape[0])) @ self._factor.T
        if not centred:
            base += self.mean  # the same bytes as mean + base: float addition commutes
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
    1e-12).  The constructors below build the common stacks.
    """

    matrices: np.ndarray
    offsets: np.ndarray = None
    weights: np.ndarray = None

    def __post_init__(self):
        a = np.array(self.matrices, dtype=float)
        if a.ndim != 3 or 0 in a.shape or a.shape[1] != a.shape[2]:
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

    @property
    def dim(self):
        return self.matrices.shape[1]

    def images(self, x):
        """Every row of ``x`` (rows, D) under every member, shape (rows, M, D): one
        (rows, D) @ (D, M D) product, with the offsets added on its flat rows."""
        m, d = self.offsets.shape
        out = x @ self.matrices.reshape(m * d, d).T
        out += self.offsets.reshape(-1)
        return out.reshape(len(x), m, d)

    def sample_indices(self, shape, rng):
        """Member indices of the given shape, drawn with probabilities ``weights``."""
        return rng.choice(len(self.weights), shape, p=self.weights)

    def paired(self):
        """Lift the family to concatenated (covariate, response) vectors.

        Each member A becomes blockdiag(A, A), i.e. the same map is applied to
        the covariate and the response blocks simultaneously.
        """
        d = self.dim
        mats = np.zeros((len(self.weights), 2 * d, 2 * d))
        mats[:, :d, :d] = mats[:, d:, d:] = self.matrices
        return TransformationFamily(mats, np.concatenate([self.offsets, self.offsets], axis=1),
                                    self.weights)


def identity_family(d):
    """Point mass at the identity map of R^d."""
    if d < 1:
        raise ContractError("dimension must be positive")
    return TransformationFamily(np.eye(d)[None])


def swap_family(weights=None):
    """Uniform (or reweighted) choice between the identity and the coordinate swap on R^2."""
    return TransformationFamily([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]], weights=weights)


def random_crop_family(d):
    """Equal-probability choice of the two projections zeroing coordinate 0 or 1."""
    if d < 2:
        raise ContractError("random crop needs dimension at least 2")
    mats = np.stack([np.eye(d), np.eye(d)])
    mats[0, 0, 0] = mats[1, 1, 1] = 0.0
    return TransformationFamily(mats)


def cyclic_rotation_family(d):
    """Uniform choice among the d cyclic coordinate shifts of R^d; shift s maps
    coordinate i to (i + s) mod d."""
    if d < 1:
        raise ContractError("dimension must be positive")
    return TransformationFamily([np.roll(np.eye(d), s, axis=0) for s in range(d)])


def sign_flip_family(d, p_keep):
    """Identity with probability ``p_keep``, global sign flip otherwise.

    A one-parameter knob for the cross-copy covariance: the mean map is
    (2 p_keep - 1) I, so the between-copy covariance shrinks by that factor
    squared while the per-copy marginal is untouched.
    """
    if d < 1:
        raise ContractError("dimension must be positive")
    if not 0.0 <= p_keep <= 1.0:
        raise ContractError("p_keep must lie in [0, 1]")
    return TransformationFamily([np.eye(d), -np.eye(d)], weights=[p_keep, 1.0 - p_keep])


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
    return family.images(data)[np.arange(n)[:, None], idx].reshape(n, k * d)


def augment_repeated(data, family, k, seed):
    """Augment with k transformations drawn once and applied to every row.

    Slot j of every row carries the same transformation, which couples rows:
    distinct observations are no longer independent after augmentation.
    """
    data = _validate_data(data, k, family)
    n, d = data.shape
    idx_k = family.sample_indices((k,), substream(seed))
    return family.images(data)[:, idx_k].reshape(n, k * d)


def replicate_unaugmented(data, k):
    """The k-fold replicate baseline: row i is (x_i, ..., x_i), k copies."""
    return np.tile(_validate_data(data, k), (1, k))
