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

A family stacks its members once, as ``matrices`` (M, D, D) and ``offsets``
(M, D); ``TransformationFamily.images`` maps every row under every member in
one product, and each protocol gathers its cells from that by member index.
The Monte Carlo engine does not gather: it weights each row's M images by the
row's member counts, Multinomial(k, weights), the law of k member draws.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .linalg import psd_factor
from .rng import substream


def _as_matrix(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_psd(cov, name="cov", tol=1e-8):
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ContractError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(cov)
    scale = max(abs(w).max(), 1.0)
    if w.min() < -tol * scale:
        raise ContractError(f"{name} is not positive semidefinite (eigmin={w.min():g})")
    return cov


@dataclass(frozen=True)
class DataSource:
    """A Gaussian data-generating distribution on R^dim.

    ``kind == "gaussian"``: observations are N(mean, cov) in R^dim.

    ``kind == "regression"``: observations are concatenated covariate/response
    pairs (v, y) with v ~ N(mean, cov) in R^d_cov and y = v + eps,
    eps ~ N(0, noise_scale^2 I).  The pair is stored as a single
    (d_cov + d_resp)-vector, so ``dim = d_cov + d_resp`` and transformation
    families must act on the concatenated vector (see
    ``TransformationFamily.paired``).
    """

    kind: str
    mean: np.ndarray
    cov: np.ndarray
    noise_scale: float = 0.0
    d_cov: int = 0
    d_resp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(-1))
        object.__setattr__(self, "cov", _check_psd(_as_matrix(self.cov, "cov")))
        if self.kind not in ("gaussian", "regression"):
            raise ContractError(f"unknown source kind {self.kind!r}")
        if self.mean.shape[0] != self.cov.shape[0]:
            raise ContractError("mean and cov dimensions disagree")
        if self.kind == "regression":
            if self.d_cov < 1 or self.d_resp < 1:
                raise ContractError("regression source needs positive covariate/response dims")
            if self.d_cov != self.d_resp:
                raise ContractError("responses are covariate + noise, so d_resp must equal d_cov")
            if self.mean.shape[0] != self.d_cov:
                raise ContractError("regression mean/cov describe the covariate block only")
            if not (self.noise_scale >= 0 and np.isfinite(self.noise_scale * self.noise_scale)):
                raise ContractError("noise_scale must be nonnegative with a finite square")

    @property
    def dim(self):
        if self.kind == "regression":
            return self.d_cov + self.d_resp
        return self.mean.shape[0]

    def joint_mean(self):
        """Mean of the full observation vector (covariates stacked with responses)."""
        if self.kind == "gaussian":
            return self.mean.copy()
        return np.concatenate([self.mean, self.mean])

    def joint_cov(self):
        """Covariance of the full observation vector."""
        if self.kind == "gaussian":
            return self.cov.copy()
        d = self.d_cov
        out = np.empty((2 * d, 2 * d))
        out[:d, :d] = self.cov
        out[:d, d:] = self.cov
        out[d:, :d] = self.cov
        out[d:, d:] = self.cov + self.noise_scale**2 * np.eye(d)
        return out

    def _factor(self):
        cached = getattr(self, "_cov_factor", None)
        if cached is None:
            cached = psd_factor(self.cov, "source covariance")
            object.__setattr__(self, "_cov_factor", cached)
        return cached

    def sample(self, n, rng):
        """Draw ``n`` i.i.d. observations as an (n, dim) array; a shape tuple ``n``
        gives an (*n, dim) array.  The covariate normals come first, then the noise."""
        shape = n if isinstance(n, tuple) else (n,)
        base = self.mean + rng.standard_normal((*shape, self.mean.shape[0])) @ self._factor().T
        if self.kind == "gaussian":
            return base
        eps = self.noise_scale * rng.standard_normal((*shape, self.d_resp))
        return np.concatenate([base, base + eps], axis=-1)


def gaussian_source(mean, cov):
    return DataSource(kind="gaussian", mean=mean, cov=cov)


def regression_source(mean, cov, noise_scale, d_cov=None, d_resp=None):
    mean = np.asarray(mean, dtype=float).reshape(-1)
    d = mean.shape[0] if d_cov is None else d_cov
    b = d if d_resp is None else d_resp
    return DataSource(kind="regression", mean=mean, cov=cov,
                      noise_scale=float(noise_scale), d_cov=d, d_resp=b)


@dataclass(frozen=True)
class Transformation:
    """An affine map x -> matrix @ x + offset on R^d."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        off = np.zeros(m.shape[0]) if self.offset is None else np.asarray(self.offset, dtype=float).reshape(-1)
        if off.shape[0] != m.shape[0]:
            raise ContractError("offset dimension does not match matrix")
        object.__setattr__(self, "offset", off)

    @property
    def dim(self):
        return self.matrix.shape[0]


def affine(matrix, offset=None):
    matrix = _as_matrix(matrix)
    if offset is None:
        offset = np.zeros(matrix.shape[0])
    return Transformation(matrix=matrix, offset=offset)


def apply_transformation(t, x):
    """Apply the affine map ``t`` to a single point or a batch of row vectors."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != t.dim:
        raise ContractError(f"point dimension {x.shape[-1]} does not match map dimension {t.dim}")
    return x @ t.matrix.T + t.offset


@dataclass(frozen=True)
class TransformationFamily:
    """A finite distribution over affine maps of R^dim.

    ``members`` lists the support, ``weights`` the probabilities (must sum to
    one within 1e-12).  ``kind`` records which built-in constructor produced
    the family; it is informational only.  ``matrices`` (M, D, D) and
    ``offsets`` (M, D) stack the members' maps in order; ``cdf`` is the
    normalized cumulative weight that ``sample_indices`` inverts.
    """

    kind: str
    members: tuple
    weights: np.ndarray = field(default=None)
    matrices: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ContractError("family needs at least one member")
        dims = {t.dim for t in self.members}
        if len(dims) != 1:
            raise ContractError("all members must act on the same dimension")
        w = self.weights
        if w is None:
            w = np.full(len(self.members), 1.0 / len(self.members))
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.shape[0] != len(self.members):
            raise ContractError("weights and members disagree in length")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ContractError("weights must be a probability vector (sum 1 within 1e-12)")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "matrices", np.stack([t.matrix for t in self.members]))
        object.__setattr__(self, "offsets", np.stack([t.offset for t in self.members]))
        object.__setattr__(self, "cdf", w.cumsum() / w.cumsum()[-1])

    @property
    def dim(self):
        return self.members[0].dim

    @property
    def is_point_mass(self):
        return len(self.members) == 1

    def images(self, x):
        """Every row of ``x`` (rows, D) under every member, shape (rows, M, D)."""
        m, d = self.offsets.shape
        return (x @ self.matrices.reshape(m * d, d).T).reshape(len(x), m, d) + self.offsets

    def sample_indices(self, shape, rng):
        """Member indices of the given shape: ``rng.choice(M, shape, p=weights)``,
        the same draw and bytes, without its per-call validation."""
        if self.is_point_mass:
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
        mats = np.zeros((len(self.members), 2 * d, 2 * d))
        mats[:, :d, :d] = mats[:, d:, d:] = self.matrices
        offs = np.concatenate([self.offsets, self.offsets], axis=1)
        return TransformationFamily(kind=self.kind + "_paired",
                                    members=tuple(map(affine, mats, offs)),
                                    weights=self.weights.copy())


def identity_family(d):
    """Point mass at the identity map of R^d."""
    if d < 1:
        raise ContractError("dimension must be positive")
    return TransformationFamily(kind="identity", members=(affine(np.eye(d)),))


def finite_uniform_family(members, weights=None):
    return TransformationFamily(kind="finite_uniform", members=tuple(members), weights=weights)


def swap_family(weights=None):
    """Uniform (or reweighted) choice between the identity and the coordinate swap on R^2."""
    swap = affine(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return TransformationFamily(kind="finite_uniform",
                                members=(affine(np.eye(2)), swap), weights=weights)


def random_crop_family(d):
    """Equal-probability choice of the two projections zeroing coordinate 0 or 1."""
    if d < 2:
        raise ContractError("random crop needs dimension at least 2")
    members = []
    for c in (0, 1):
        m = np.eye(d)
        m[c, c] = 0.0
        members.append(affine(m))
    return TransformationFamily(kind="random_crop", members=tuple(members))


def cyclic_rotation_family(d):
    """Uniform choice among the d cyclic coordinate shifts of R^d."""
    if d < 1:
        raise ContractError("dimension must be positive")
    members = []
    for s in range(d):
        m = np.zeros((d, d))
        for i in range(d):
            m[(i + s) % d, i] = 1.0
        members.append(affine(m))
    return TransformationFamily(kind="cyclic_rotation", members=tuple(members))


def sign_flip_family(d, p_keep):
    """Identity with probability ``p_keep``, global sign flip otherwise.

    A one-parameter knob for the cross-copy covariance: the mean map is
    (2 p_keep - 1) I, so the between-copy covariance shrinks by that factor
    squared while the per-copy marginal is untouched.
    """
    if not 0.0 <= p_keep <= 1.0:
        raise ContractError("p_keep must lie in [0, 1]")
    return TransformationFamily(kind="finite_uniform",
                                members=(affine(np.eye(d)), affine(-np.eye(d))),
                                weights=np.array([p_keep, 1.0 - p_keep]))


@dataclass(frozen=True)
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
