"""Augmentation moments and the Gaussian surrogate laws.

The surrogate for i.i.d. augmentation is a block Gaussian: row i of a sampled
matrix has mean ``1_k (x) mean_block`` and covariance
``I_k (x) diag_block + (1_{kxk} - I_k) (x) offdiag_block`` with

    diag_block    = S12 + (1 - delta) * (S11 - S12),
    offdiag_block = S12,

where S11 is the marginal covariance of a transformed observation and S12 the
covariance between two independently transformed copies of the same
observation, both closed forms in the family's maps and the source's mean and
covariance (:func:`estimate_moments`).  Sampling uses the additive decomposition

    row_i = (A_i + B_i1, ..., A_i + B_ik),
    A_i ~ N(0, offdiag_block),  B_ij ~ N(mean_block, diag_block - offdiag_block),

which factorizes two d x d matrices instead of one kd x kd matrix and encodes
the block structure by construction; a family of one map, listed once or more
(S11 = S12), has B's covariance exactly 0 at every delta.

For repeated augmentation the surrogate is conditionally Gaussian given one
draw of k maps; see :func:`sample_repeated_surrogate`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, NumericalError
from .linalg import psd_factor
from .rng import substream


@dataclass(frozen=True, eq=False)
class AugmentationMoments:
    """The moments of a (family, source) pair.

    mean_phi_x     : mean of a transformed observation
    sigma11        : covariance of a transformed observation
    sigma12        : covariance between two independently transformed copies
    mean_cond_var  : expected conditional covariance given the observation,
                     sigma11 - sigma12 by the law of total variance
    mean_var_given_map : E[A Sigma A^T], between sigma11 and sigma12 in the Loewner
                     order; the covariance of a copy given its map, which the
                     repeated protocols' grand-mean law reads
    sixth_moment   : E ||transformed observation||^6
    """

    mean_phi_x: np.ndarray
    sigma11: np.ndarray
    sigma12: np.ndarray
    mean_var_given_map: np.ndarray
    sixth_moment: float

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
    """For X ~ N(mu, Sigma): the member means A_i mu + a_i, (M, D), and the left
    products A_i Sigma, (M, D, D), so Cov(A_i X + a_i, A_j X + a_j) = (A_i Sigma) A_j^T."""
    mu, sigma = source.joint_mean(), source.joint_cov()
    if family.dim != mu.shape[0]:
        raise ContractError(f"family dim {family.dim} does not match source dim {mu.shape[0]}")
    return family.matrices @ mu + family.offsets, family.matrices @ sigma


def estimate_moments(family, source):
    """Closed-form moments of the augmented observation for a finite affine
    family on a Gaussian source, the only pairs the package accepts.

    sigma11 = sigma12 + two PSD spreads (of the maps and of the member means), so
    sigma11 - sigma12 is exactly 0 for a family that repeats one map at any weights.

    Raises NumericalError when a moment is not finite in floating point (a
    source mean near 1e155 overflows the second and sixth moments)."""
    w, sigma = family.weights, source.joint_cov()
    with np.errstate(all="ignore"):
        means, left = _member_moments(family, source)
        own = left @ family.matrices.transpose(0, 2, 1)  # A_i Sigma A_i^T
        mean = w @ means
        a_bar = np.tensordot(w, family.matrices, axes=1)
        sigma12 = a_bar @ sigma @ a_bar.T  # Cov(A_1 X + a_1, A_2 X + a_2)
        sigma12 = 0.5 * (sigma12 + sigma12.T)
        # E[A Sigma A^T] = A_bar Sigma A_bar^T + E[(A - A_bar) Sigma (A - A_bar)^T]
        dev = family.matrices - a_bar
        var_given_map = sigma12 + np.tensordot(w, dev @ sigma @ dev.transpose(0, 2, 1), axes=1)
        # total variance: E[A Sigma A^T] plus the weighted spread of the centred member means
        spread = means - mean
        sigma11 = var_given_map + (spread.T * w) @ spread
        sigma11 = 0.5 * (sigma11 + sigma11.T)
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
    delta: float
    mean_block: np.ndarray
    diag_block: np.ndarray
    offdiag_block: np.ndarray

    @property
    def d(self):
        return self.mean_block.size

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
        # computed once per spec, when build_surrogate validates it, and shared read-only
        return (psd_factor(self.offdiag_block, "offdiag_block", NumericalError),
                psd_factor(self.diag_block - self.offdiag_block, "diag_block - offdiag_block",
                           NumericalError))


def build_surrogate(moments, n, k, delta):
    """Surrogate spec for i.i.d. augmentation at interpolation parameter delta."""
    if not 0.0 <= delta <= 1.0:
        raise ContractError("delta must lie in [0, 1]")
    if n < 1 or k < 1:
        raise ContractError("n and k must be positive")
    spec = SurrogateSpec(n=n, k=k, delta=float(delta), mean_block=moments.mean_phi_x.copy(),
                         diag_block=moments.sigma12 + (1.0 - delta) * moments.mean_cond_var,
                         offdiag_block=moments.sigma12)
    spec._factors  # factoring refuses blocks that are not PSD, with NumericalError
    return spec


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
    """Surrogate rows of leading shape ``shape`` drawn from ``rng``, as (*shape, k, d) cells.

    The shared normals (*shape, d) and then the residual normals (*shape, k, d) are drawn
    from ``rng``, in that order.  The residual factor multiplies all residual normals as
    one (rows k, d) @ (d, d) product; the tiled mean is added on the flat (rows, k d)
    view, and the shared draw, broadcast over the k copies, on the (rows, k, d) view."""
    l_shared, l_resid = spec._factors
    k, d = spec.k, spec.d
    a = rng.standard_normal((*shape, d)) @ l_shared.T
    cells = (rng.standard_normal((*shape, k, d)).reshape(-1, d) @ l_resid.T).reshape(-1, k * d)
    cells += np.tile(spec.mean_block, k)
    cells = cells.reshape(-1, k, d)
    cells += a.reshape(-1, 1, d)
    return cells.reshape(*shape, k, d)
