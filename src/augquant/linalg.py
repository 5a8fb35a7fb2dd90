"""The one PSD rule and the one factorization behind every Gaussian draw.

Rule: ``psd_factor`` refuses a matrix that is not square, not finite, not symmetric
(``np.allclose(m, m.T, atol=1e-10)``), or whose smallest eigenvalue is below
-EIG_FAIL times its largest absolute eigenvalue, with the error class its caller
names: ContractError from ``DataSource`` (the covariance is an input) and
NumericalError from ``build_surrogate`` (the moment identities make its blocks
PSD, so a violation is an estimation bug, not rounding noise).  A passing matrix
is symmetrized and factored by Cholesky after a jitter of PSD_JITTER * (trace/d);
only here does a failed Cholesky fall back to a clipped eigendecomposition.
"""

import numpy as np

PSD_JITTER = 1e-10
EIG_FAIL = 1e-8


def psd_factor(m, name, error):
    """L with L L^T = m (+ tiny jitter), or ``error`` naming ``name`` when ``m`` fails the
    rule; the clipped fallback covers rank-deficient covariances such as a zero matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error(f"{name} must be finite")
    if not np.allclose(m, m.T, atol=1e-10):
        raise error(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    w = np.linalg.eigvalsh(m)
    if w.min() < -EIG_FAIL * abs(w).max():
        raise error(f"{name} is not positive semidefinite (eigmin={w.min():g})")
    jitter = PSD_JITTER * (np.trace(m) / m.shape[0])  # exactly 0 for a zero matrix
    try:
        return np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)
