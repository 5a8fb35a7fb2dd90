"""Augmentation moments and the Gaussian surrogate laws.

The surrogate for i.i.d. augmentation is a block Gaussian: row i of a sampled
matrix has mean ``1_k (x) mean_block`` and covariance
``I_k (x) diag_block + (1_{kxk} - I_k) (x) offdiag_block`` with

    diag_block    = (1 - delta) * S11 + delta * S12,
    offdiag_block = S12,

where S11 is the marginal covariance of a transformed observation and S12 the
covariance between two independently transformed copies of the same
observation, both closed forms in the family's maps and the source's mean and
covariance (:func:`estimate_moments`).  Sampling uses the additive decomposition

    row_i = (A_i + B_i1, ..., A_i + B_ik),
    A_i ~ N(0, offdiag_block),  B_ij ~ N(mean_block, diag_block - offdiag_block),

which factorizes two d x d matrices instead of one kd x kd matrix and encodes
the block structure by construction.

For repeated augmentation the surrogate is conditionally Gaussian given one
draw of k maps; see :func:`sample_repeated_surrogate`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, NumericalError
from .linalg import check_psd, psd_factor
from .rng import substream


@dataclass(frozen=True, eq=False)
class AugmentationMoments:
    """All moments of a (family, source) pair that the surrogate laws consume.

    mean_phi_x     : mean of a transformed observation
    sigma11        : covariance of a transformed observation
    sigma12        : covariance between two independently transformed copies
    mean_cond_var  : expected conditional covariance given the observation,
                     sigma11 - sigma12 by the law of total variance
    mean_var_given_map : expected conditional covariance given the map;
                     sandwiched between sigma11 and sigma12 in the Loewner order
    sixth_moment   : E ||transformed observation||^6
    """

    mean_phi_x: np.ndarray
    sigma11: np.ndarray
    sigma12: np.ndarray
    mean_var_given_map: np.ndarray
    sixth_moment: float

    @property
    def dim(self):
        return self.mean_phi_x.shape[0]

    @property
    def mean_cond_var(self):
        return self.sigma11 - self.sigma12


def _gaussian_sixth_moment(mean, cov):
    """E ||Y||^6 for Y ~ N(mean, cov), via cumulants of the quadratic form Y^T Y,
    for stacks of means (..., D) and covariances (..., D, D)."""
    m = np.asarray(mean, dtype=float)[..., None, :]
    mt = m.swapaxes(-1, -2)
    c = np.asarray(cov, dtype=float)
    c2 = c @ c
    c3 = c2 @ c
    k1 = np.trace(c, axis1=-2, axis2=-1) + (m @ mt)[..., 0, 0]
    k2 = 2.0 * np.trace(c2, axis1=-2, axis2=-1) + 4.0 * (m @ c @ mt)[..., 0, 0]
    k3 = 8.0 * np.trace(c3, axis1=-2, axis2=-1) + 24.0 * (m @ c2 @ mt)[..., 0, 0]
    return k3 + 3.0 * k1 * k2 + k1**3


def _member_moments(family, source):
    """For X ~ N(mu, Sigma): the member means A_i mu + a_i, (M, D), and the
    cross-covariances Cov(A_i X + a_i, A_j X + a_j) = A_i Sigma A_j^T, (M, M, D, D)."""
    mu, sigma = source.joint_mean(), source.joint_cov()
    if family.dim != mu.shape[0]:
        raise ContractError(f"family dim {family.dim} does not match source dim {mu.shape[0]}")
    mats = family.matrices
    means = mats @ mu + family.offsets
    cross = (mats @ sigma)[:, None] @ mats.transpose(0, 2, 1)[None]
    return means, cross


def estimate_moments(family, source):
    """Closed-form moments of the augmented observation for a finite affine
    family on a Gaussian source, the only pairs the package accepts.

    Raises NumericalError when a moment is not finite in floating point (a
    source mean near 1e155 overflows the second and sixth moments)."""
    w = family.weights
    with np.errstate(all="ignore"):
        means, cross = _member_moments(family, source)
        own = np.einsum("iiab->iab", cross)  # A_i Sigma A_i^T
        mean = w @ means
        var_given_map = np.tensordot(w, own, axes=1)
        # second moment of A X + a, averaged over the family, minus mean outer product
        second = var_given_map + np.tensordot(w, means[:, :, None] * means[:, None, :], axes=1)
        sigma11 = second - np.outer(mean, mean)
        sigma12 = np.tensordot(np.outer(w, w), cross, axes=2)  # Cov(A_1 X + a_1, A_2 X + a_2)
        sigma11 = 0.5 * (sigma11 + sigma11.T)
        sigma12 = 0.5 * (sigma12 + sigma12.T)
        sixth = w @ _gaussian_sixth_moment(means, own)
    moments = AugmentationMoments(mean_phi_x=mean, sigma11=sigma11, sigma12=sigma12,
                                  mean_var_given_map=var_given_map, sixth_moment=float(sixth))
    bad = [name for name, value in vars(moments).items() if not np.all(np.isfinite(value))]
    if bad:
        raise NumericalError(f"the augmentation moments {', '.join(bad)} are not finite in "
                             f"floating point; the source mean or covariance is too large")
    return moments


@dataclass(frozen=True, eq=False)
class SurrogateSpec:
    """The law of one surrogate row: block mean and the two covariance blocks."""

    n: int
    k: int
    d: int
    delta: float
    mean_block: np.ndarray
    diag_block: np.ndarray
    offdiag_block: np.ndarray

    def full_mean(self):
        return np.tile(self.mean_block, self.k)

    def full_covariance(self):
        """Assemble the kd x kd covariance I_k (x) diag + (1 - I_k) (x) offdiag."""
        k, d = self.k, self.d
        out = np.tile(self.offdiag_block, (k, k))
        for j in range(k):
            out[j * d:(j + 1) * d, j * d:(j + 1) * d] = self.diag_block
        return out

    @cached_property
    def _factors(self):
        # computed once per spec and shared read-only
        return (psd_factor(self.offdiag_block, "offdiag_block"),
                psd_factor(self.diag_block - self.offdiag_block, "diag_block - offdiag_block"))


def build_surrogate(moments, n, k, delta):
    """Surrogate spec for i.i.d. augmentation at interpolation parameter delta."""
    if not 0.0 <= delta <= 1.0:
        raise ContractError("delta must lie in [0, 1]")
    if n < 1 or k < 1:
        raise ContractError("n and k must be positive")
    diag = (1.0 - delta) * moments.sigma11 + delta * moments.sigma12
    off = moments.sigma12
    check_psd(diag - off, "diag_block - offdiag_block (within-row covariance gap)")
    check_psd(off, "offdiag_block (cross-copy covariance)")
    return SurrogateSpec(n=n, k=k, d=moments.dim, delta=float(delta),
                         mean_block=moments.mean_phi_x.copy(),
                         diag_block=diag, offdiag_block=off)


def build_unaugmented_surrogate(source, n, k):
    """Surrogate for the k-fold replicate baseline: both blocks equal Var X.

    Rows are exact k-fold replicates of one Gaussian draw, matching the
    replicate construction the downstream variance formulas rely on.
    """
    if n < 1 or k < 1:
        raise ContractError("n and k must be positive")
    cov = source.joint_cov()
    return SurrogateSpec(n=n, k=k, d=cov.shape[0], delta=0.0,
                         mean_block=source.joint_mean(),
                         diag_block=cov, offdiag_block=cov.copy())


def sample_surrogate(spec, seed):
    """Draw n i.i.d. surrogate rows as an (n, k*d) matrix; deterministic given seed."""
    return sample_surrogate_rows(spec, spec.n, seed)


def sample_repeated_surrogate(family, source, n, k, seed):
    """Draw n rows of the conditionally Gaussian repeated-augmentation surrogate.

    One set of k maps is drawn and fixed; conditionally on it, each row is a
    Gaussian whose mean stacks the per-map transformed source means and whose
    covariance blocks are Cov(map_j1 X, map_j2 X) for a single X.  For affine
    maps that law is realized exactly by drawing the k member indices, then n
    fresh observations through ``source.sample``, and gathering each row's k
    cells from the family's images of its observation.
    """
    if n < 1 or k < 1:
        raise ContractError("n and k must be positive")
    if family.dim != source.dim:
        raise ContractError("family and source dimensions disagree")
    rng = substream(seed)
    idx_k = family.sample_indices((k,), rng)
    x = source.sample(n, rng)
    return family.images(x)[:, idx_k].reshape(n, k * family.dim)


def sample_surrogate_rows(spec, n_rows, seed):
    """Like :func:`sample_surrogate` but for an explicit number of rows."""
    return sample_surrogate_cells(spec, (n_rows,), substream(seed)).reshape(n_rows, spec.k * spec.d)


def sample_surrogate_cells(spec, shape, rng):
    """Surrogate rows of leading shape ``shape`` drawn from ``rng``, as (*shape, k, d) cells."""
    l_shared, l_resid = spec._factors
    a = rng.standard_normal((*shape, spec.d)) @ l_shared.T
    cells = rng.standard_normal((*shape, spec.k, spec.d)) @ l_resid.T
    cells += spec.mean_block
    cells += a[..., None, :]
    return cells
