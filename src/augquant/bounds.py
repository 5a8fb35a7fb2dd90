"""Noise-stability estimation and evaluable error-bound assembly.

The central object is the array alpha[r][m]: the L_m norm (over fresh draws)
of the supremum, along the segment from zero to a row's value, of the norm of
the r-th derivative of the statistic with respect to that row.  The row's
neighbours are held at augmented data (rows before) and surrogate draws (rows
after), and the larger of the data-endpoint and surrogate-endpoint branches is
reported.

The segment supremum has no computable closed form in general; it is proxied
by a uniform grid (default 17 points including both endpoints), which makes
the estimates lower bounds on the true suprema.  Derivatives are analytic for
every differentiable statistic: the average, the exponential statistics, the
smooth max, the ridge estimate and the ridge risk.  The hard max has none.
"""

from dataclasses import dataclass

import numpy as np

from . import statistics as stats
from .core import augment_iid
from .errors import ContractError, NumericalError
from .rng import substream
from .surrogate import _member_moments, estimate_moments, sample_surrogate_rows

ORDERS = (0, 1, 2, 3)
MOMENTS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class AlphaEstimates:
    """alpha[r][m-1] for derivative orders r in 0..3 and moments m in 1..6."""

    alpha: np.ndarray
    n: int
    k: int
    num_outer: int
    num_grid: int
    seed: int

    def __getitem__(self, rm):
        r, m = rm
        return float(self.alpha[r, m - 1])


@dataclass(frozen=True)
class BoundReport:
    statistic: str
    n: int
    k: int
    delta: float
    lambda1: float
    lambda2: float
    c1: float
    c2: float
    c3: float
    rhs_iid: float
    gamma3_h: float = 1.0
    eta2_h: float = 1.0
    eta1_h: float = 1.0
    omega1: float = None
    omega2: float = None
    m1: float = None
    m2: float = None
    m3: float = None
    rhs_repeated: float = None


# ---------------------------------------------------------------------------
# Per-statistic derivative norms at a point.  Each adapter reports
# (||f||, ||D^1||, ||D^2||, ||D^3||) for the block of one row.
# ---------------------------------------------------------------------------

class _AverageDerivs:
    def __init__(self, d, n, k):
        self.d, self.n, self.k = d, n, k
        self.d1 = np.sqrt(d) / np.sqrt(n * k)

    def norms(self, w, i):
        f = stats.eval_average(w, self.k)
        return float(np.linalg.norm(f)), self.d1, 0.0, 0.0


class _ExpNegDerivs:
    """Analytic chain-rule norms for exp(-(scaled grand mean)^2), 1 or 2 coords."""

    def __init__(self, n_coords, n, k):
        self.n_coords, self.n, self.k = n_coords, n, k

    def norms(self, w, i):
        n, k = self.n, self.k
        m = stats.eval_average(w, k)  # per-coordinate scaled grand means
        f = np.exp(-m * m)
        u = 2.0 * m / (np.sqrt(n) * k)
        c = 2.0 / (n * k * k)
        d1 = np.sqrt(k * np.sum(f * f * u * u))
        d2 = k * np.sqrt(np.sum((f * (u * u - c)) ** 2))
        d3 = k**1.5 * np.sqrt(np.sum((f * (3.0 * c * u - u**3)) ** 2))
        return float(np.abs(f.sum() if self.n_coords == 2 else f[0])), float(d1), float(d2), float(d3)


class _SmoothMaxDerivs:
    """Softmax-weight norms for the log-sum-exp relaxation of the coordinate max."""

    def __init__(self, d_n, t, n, k):
        self.d_n, self.t, self.n, self.k = d_n, t, n, k

    def norms(self, w, i):
        n, k, d_n = self.n, self.k, self.d_n
        m = stats.eval_average(w, k)
        val = stats.eval_smooth_max(w, k, d_n, self.t)
        if d_n == 1:
            return abs(val), 1.0 / np.sqrt(n * k), 0.0, 0.0
        tau = self.t * np.log(d_n)
        z = tau * (m - m.max())
        omega = np.exp(z)
        omega /= omega.sum()
        d1 = np.sqrt(np.sum(omega * omega) / (n * k))
        h = np.diag(omega) - np.outer(omega, omega)
        d2 = tau / (n * k) * np.linalg.norm(h)
        g = 2.0 * omega[:, None, None] * omega[None, :, None] * omega[None, None, :]
        idx = np.arange(d_n)
        g[:, idx, idx] -= omega[:, None] * omega[None, :]
        g[idx, :, idx] -= (omega[:, None] * omega[None, :]).T
        g[idx, idx, :] -= omega[:, None] * omega[None, :]
        g[idx, idx, idx] += omega
        d3 = (tau * tau) / (n * k) ** 1.5 * np.linalg.norm(g.reshape(-1))
        return abs(val), float(d1), float(d2), float(d3)


class _RidgeDerivs:
    """Frobenius norms of the ridge estimate's block derivative tensors, or,
    given ``risk_moments``, of the ridge risk's.

    The tensors come from ``statistics._RidgeBlocks``, the same ones that
    ``ridge_derivative`` reads entry by entry.

    The risk R(B) = sigma_y - 2 tr(Sigma_yv B) + tr(B^T Sigma_v B) is quadratic
    in B, so with H = Sigma_v B - Sigma_yv^T and <X, Y> = sum X * Y:

        R_a   = 2 <H, B_a>
        R_ab  = 2 <H, B_ab> + 2 <B_a, Sigma_v B_b>
        R_abc = 2 <H, B_abc> + 2 (<B_ab, Sigma_v B_c> + <B_ac, Sigma_v B_b>
                                  + <B_bc, Sigma_v B_a>)

    The third order is summed one first-index slice at a time, so memory stays
    O(W^2 d b).  The estimate keeps the positive-penalty contract of
    ``ridge_derivative``; the risk, like ``ridge_fit``, accepts lam = 0 when
    the Gram matrix is invertible.
    """

    def __init__(self, d, b, lam, k, risk_moments=None):
        if risk_moments is None and lam <= 0:
            raise ContractError("derivative formulas require a positive ridge penalty")
        self.d, self.b, self.lam, self.k = d, b, lam, k
        self.risk_moments = risk_moments

    def norms(self, w, i):
        p = stats._RidgeBlocks(w, i, self.k, self.d, self.b, self.lam)
        width = p.d1.shape[0]
        if self.risk_moments is None:
            s3 = sum(np.sum(p.d3(a) ** 2) for a in range(width))
            return (float(np.linalg.norm(p.fit)), float(np.linalg.norm(p.d1)),
                    float(np.linalg.norm(p.d2)), float(np.sqrt(s3)))
        rm = self.risk_moments
        sv = np.asarray(rm.sigma_v, dtype=float)
        f = stats.ridge_risk(p.fit, rm)
        h = sv @ p.fit - np.asarray(rm.sigma_yv, dtype=float).T
        sv_d1 = sv @ p.d1
        r1 = 2.0 * np.einsum("apr,pr->a", p.d1, h)
        r2 = 2.0 * (np.einsum("abpr,pr->ab", p.d2, h)
                    + np.einsum("apr,bpr->ab", p.d1, sv_d1))
        s3 = 0.0
        for a in range(width):
            q = np.einsum("bpr,cpr->bc", p.d2[a], sv_d1)
            r3 = 2.0 * (np.einsum("bcpr,pr->bc", p.d3(a), h) + q + q.T
                        + np.einsum("bcpr,pr->bc", p.d2, sv_d1[a]))
            s3 += np.sum(r3 * r3)
        return abs(f), float(np.linalg.norm(r1)), float(np.linalg.norm(r2)), float(np.sqrt(s3))


def derivative_adapter(kind, n, k):
    """Pick the analytic derivative-norm evaluator for a statistic."""
    if kind.name == "average":
        return _AverageDerivs(kind.d, n, k)
    if kind.name == "expnegchisq":
        return _ExpNegDerivs(1, n, k)
    if kind.name == "expnegchisq2d":
        return _ExpNegDerivs(2, n, k)
    if kind.name == "smoothmax":
        return _SmoothMaxDerivs(kind.d_n, kind.t, n, k)
    if kind.name == "ridge":
        return _RidgeDerivs(kind.d, kind.b, kind.lam, k)
    if kind.name == "ridgerisk":
        if kind.risk_moments is None:
            raise ContractError("ridge risk statistic needs risk moments")
        return _RidgeDerivs(kind.d, kind.b, kind.lam, k, kind.risk_moments)
    if kind.name == "hardmax":
        raise ContractError("the hard max is not differentiable; use its smooth relaxation")
    raise ContractError(f"no derivative adapter for statistic {kind.name!r}")


def estimate_alpha(stat, family, source, surrogate_spec, i=None, n=None, k=None,
                   num_outer=64, num_grid=17, seed=0, adapter=None):
    """Estimate alpha[r][m] for a statistic under a (family, source) pair.

    For each outer draw the rows before ``i`` are freshly augmented data, the
    rows after ``i`` are surrogate draws, and the segment endpoint is either a
    fresh augmented row or a fresh surrogate row (two branches).  ``i=None``
    maximizes over every row index.
    """
    if num_grid < 2:
        raise ContractError("num_grid must be at least 2")
    if num_outer < 1:
        raise ContractError("num_outer must be at least 1")
    n = surrogate_spec.n if n is None else n
    k = surrogate_spec.k if k is None else k
    adapter = derivative_adapter(stat, n, k) if adapter is None else adapter
    rows = range(n) if i is None else [int(i)]
    slot = stat.slot_dim
    if surrogate_spec.d != slot or family.dim != slot:
        raise ContractError("statistic slot dimension does not match the family/surrogate")

    fracs = np.linspace(0.0, 1.0, num_grid)
    sups = np.zeros((2, len(ORDERS), num_outer))
    alpha = np.zeros((len(ORDERS), len(MOMENTS)))
    for row_pos, i0 in enumerate(rows):
        for outer in range(num_outer):
            rng = substream(seed, row_pos, outer)
            w = np.empty((n, k * slot))
            if i0 > 0:
                data = source.sample(i0, rng)
                aug = augment_iid(data, family, k, rng.integers(2**63))
                w[:i0] = aug.values
            if i0 < n - 1:
                w[i0 + 1:] = sample_surrogate_rows(surrogate_spec, n - 1 - i0,
                                                   rng.integers(2**63))
            end_data = augment_iid(source.sample(1, rng), family, k,
                                   rng.integers(2**63)).values[0]
            end_surr = sample_surrogate_rows(surrogate_spec, 1, rng.integers(2**63))[0]
            for bi, endpoint in enumerate((end_data, end_surr)):
                best = np.zeros(len(ORDERS))
                for s in fracs:
                    w[i0] = s * endpoint
                    vals = np.asarray(adapter.norms(w, i0))
                    if not np.all(np.isfinite(vals)):
                        raise NumericalError(
                            f"non-finite derivative at row {i0}, segment fraction {s:g}")
                    np.maximum(best, vals, out=best)
                sups[bi, :, outer] = best
        for r in ORDERS:
            for mi, m in enumerate(MOMENTS):
                lm = np.max([np.mean(sups[bi, r] ** m) ** (1.0 / m) for bi in (0, 1)])
                alpha[r, mi] = max(alpha[r, mi], lm)
    return AlphaEstimates(alpha=alpha, n=n, k=k, num_outer=num_outer,
                          num_grid=num_grid, seed=int(seed))


def assemble_lambdas(alphas, gamma3_h=1.0, eta2_h=1.0, eta1_h=1.0):
    """The two printed smoothness combinations for the i.i.d. bound."""
    a = alphas
    lam1 = (gamma3_h * (a[0, 3] * a[1, 3] ** 2 + a[0, 3] ** 2 * a[2, 3])
            + eta2_h * (a[1, 2] ** 2 + a[0, 2] * a[2, 2])
            + eta1_h * a[2, 1])
    lam2 = (gamma3_h * (a[1, 6] ** 3 + 3.0 * a[0, 6] * a[1, 6] * a[2, 6]
                        + a[0, 6] ** 2 * a[3, 6])
            + eta2_h * (3.0 * a[1, 4] * a[2, 4] + a[0, 4] * a[3, 4])
            + eta1_h * a[3, 2])
    return float(lam1), float(lam2)


def assemble_omegas(alphas, gamma3_h=1.0, eta2_h=1.0, eta1_h=1.0):
    """The two extra smoothness combinations for the repeated-augmentation bound."""
    a = alphas
    om1 = gamma3_h * a[1, 2] ** 2 + eta2_h * a[1, 2] + eta1_h * a[1, 1]
    om2 = (gamma3_h * (a[0, 6] * a[1, 6] ** 2 + a[0, 6] ** 2 * a[2, 6])
           + eta2_h * (a[1, 4] ** 2 + a[0, 4] * a[2, 4])
           + eta1_h * a[2, 2])
    return float(om1), float(om2)


def moment_constants(moments, spec, num_rows=100_000, seed=0):
    """(c1, c2, c3): conditional-variance, sixth-moment, and surrogate-row constants.

    c3 averages ((sum_j ||row_j||^2) / k)^3 over sampled surrogate rows; the
    other two are exact functions of the supplied moments.
    """
    c1 = 0.5 * float(np.linalg.norm(moments.mean_cond_var))
    c2 = float(np.sqrt(moments.sixth_moment)) / 6.0
    rows = sample_surrogate_rows(spec, num_rows, seed).reshape(num_rows, spec.k, spec.d)
    per_row = np.sum(rows * rows, axis=(1, 2)) / spec.k
    c3 = float(np.sqrt(np.mean(per_row**3))) / 6.0
    return c1, c2, c3


def repeated_constants(family, source):
    """(m1, m2, m3): map-conditional moment spreads, exact for finite affine families."""
    w = family.weights
    cond_means, cross = _member_moments(family, source)
    mean_of_means = w @ cond_means
    var_mean = ((cond_means - mean_of_means).T * w) @ (cond_means - mean_of_means)
    m1 = float(np.sqrt(2.0 * np.trace(var_mean)))

    # E (A_i X + a_i)(A_j X + a_j)^T for every ordered pair of members
    pair_vals = cross + cond_means[:, None, :, None] * cond_means[None, :, None, :]
    g = np.einsum("iiab->iab", pair_vals)
    g_mean = np.tensordot(w, g, axes=1)
    m2 = float(np.sqrt(np.sum(((g - g_mean) ** 2 * w[:, None, None]).sum(axis=0)) / 2.0))

    pw = np.outer(w, w)
    h_mean = np.tensordot(pw, pair_vals, axes=2)
    dev2 = ((pair_vals - h_mean) ** 2 * pw[:, :, None, None]).sum(axis=(0, 1))
    m3 = float(np.sqrt(dev2.sum() / 6.0))
    return m1, m2, m3


def theorem_rhs(n, k, delta, *, lambda1=0.0, lambda2=0.0, c1=0.0, c2=0.0, c3=0.0,
                omega1=0.0, omega2=0.0, m1=0.0, m2=0.0, m3=0.0, variant="iid"):
    """Evaluate the right-hand side of the surrogate-approximation bound.

    variant="iid":      n k^{1/2} lambda1 delta c1 + n k^{3/2} lambda2 (c2 + c3)
    variant="repeated": n omega1 m1 + n omega2 (m2 + m3) + n k^{3/2} lambda2 (c2 + c3)
    """
    tail = n * k**1.5 * lambda2 * (c2 + c3)
    if variant == "iid":
        return float(n * np.sqrt(k) * lambda1 * delta * c1 + tail)
    if variant == "repeated":
        return float(n * omega1 * m1 + n * omega2 * (m2 + m3) + tail)
    raise ContractError(f"unknown variant {variant!r}")


def bound_report(stat, family, source, spec, *, delta=None, num_outer=64,
                 num_grid=17, seed=0, gamma3_h=1.0, eta2_h=1.0, eta1_h=1.0,
                 moments=None, include_repeated=False):
    """Assemble a full evaluable bound for one statistic/configuration."""
    delta = spec.delta if delta is None else delta
    moments = estimate_moments(family, source) if moments is None else moments
    alphas = estimate_alpha(stat, family, source, spec, i=0, num_outer=num_outer,
                            num_grid=num_grid, seed=seed)
    lam1, lam2 = assemble_lambdas(alphas, gamma3_h, eta2_h, eta1_h)
    c1, c2, c3 = moment_constants(moments, spec, seed=seed)
    rhs = theorem_rhs(spec.n, spec.k, delta, lambda1=lam1, lambda2=lam2,
                      c1=c1, c2=c2, c3=c3, variant="iid")
    extra = {}
    if include_repeated:
        om1, om2 = assemble_omegas(alphas, gamma3_h, eta2_h, eta1_h)
        m1, m2, m3 = repeated_constants(family, source)
        extra = dict(omega1=om1, omega2=om2, m1=m1, m2=m2, m3=m3,
                     rhs_repeated=theorem_rhs(spec.n, spec.k, delta, lambda2=lam2,
                                              c2=c2, c3=c3, omega1=om1, omega2=om2,
                                              m1=m1, m2=m2, m3=m3, variant="repeated"))
    return BoundReport(statistic=stat.name, n=spec.n, k=spec.k, delta=delta,
                       lambda1=lam1, lambda2=lam2, c1=c1, c2=c2, c3=c3, rhs_iid=rhs,
                       gamma3_h=gamma3_h, eta2_h=eta2_h, eta1_h=eta1_h, **extra)
