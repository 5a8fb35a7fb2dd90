"""The one PSD rule and the one factorization behind every Gaussian draw.

Rule: ``psd_factor`` refuses a matrix that is not square, not finite, not symmetric
(``np.allclose(m, m.T, atol=1e-10)``), or whose smallest eigenvalue is below
-EIG_FAIL times its largest absolute eigenvalue, with the error class its caller
names: ContractError from ``DataSource`` (the covariance is an input) and
NumericalError from ``build_surrogate`` (the moment identities make its blocks
PSD, so a violation is an estimation bug, not rounding noise) and from the Monte
Carlo engine's ``iid_aug`` count Grams (exact integer Grams).  A passing matrix
is symmetrized and eigendecomposed once; the factor is its symmetric square root,
with the eigenvalues the rule lets through in [-EIG_FAIL max|w|, 0) clipped to 0.
A (..., D, D) stack is factored matrix by matrix under the same rule, in one call.
"""

import numpy as np

EIG_FAIL = 1e-8


def psd_factor(m, name, error):
    """The symmetric square root F of ``m``, so F F^T = m, from one ``eigh``; or
    ``error`` naming ``name`` when ``m`` fails the rule.  Singular matrices such as a
    zero matrix or a residual block of repeated maps are reproduced to rounding.  A
    (..., D, D) stack gives the stack of its matrices' factors."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise error(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error(f"{name} must be finite")
    mt = m.swapaxes(-1, -2)
    if not np.allclose(m, mt, atol=1e-10):
        raise error(f"{name} must be symmetric")
    w, v = np.linalg.eigh(0.5 * (m + mt))
    low = w.min(axis=-1)
    bad = low < -EIG_FAIL * abs(w).max(axis=-1)
    if bad.any():
        eigmin = np.asarray(low)[bad].min()
        raise error(f"{name} is not positive semidefinite (eigmin={eigmin:g})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.swapaxes(-1, -2)
