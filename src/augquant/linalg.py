"""The one PSD rule and the one factorization behind every Gaussian draw.

Rule: ``psd_factor`` refuses a matrix that is not square, not finite, not symmetric
(``np.allclose(m, m.T, atol=1e-10)``), or whose smallest eigenvalue is below
-EIG_FAIL times its largest absolute eigenvalue, with the error class its caller
names: ContractError from ``DataSource`` (the covariance is an input) and
NumericalError from ``build_surrogate`` (the moment identities make its blocks
PSD, so a violation is an estimation bug, not rounding noise).  A passing matrix
is symmetrized and eigendecomposed once; the factor is its symmetric square root,
with the eigenvalues the rule lets through in [-EIG_FAIL max|w|, 0) clipped to 0.
"""

import numpy as np

EIG_FAIL = 1e-8


def psd_factor(m, name, error):
    """The symmetric square root F of ``m``, so F F^T = m, from one ``eigh``; or
    ``error`` naming ``name`` when ``m`` fails the rule.  Singular matrices such as a
    zero matrix or a residual block of repeated maps are reproduced to rounding."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error(f"{name} must be finite")
    if not np.allclose(m, m.T, atol=1e-10):
        raise error(f"{name} must be symmetric")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if w.min() < -EIG_FAIL * abs(w).max():
        raise error(f"{name} is not positive semidefinite (eigmin={w.min():g})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
