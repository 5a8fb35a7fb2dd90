"""Noise-stability estimation and evaluable error-bound assembly.

The bound has two kinds of inputs.  The moment constants c1, c2 and c3 are
moments of the augmentation and of the Gaussian surrogate law, computed
exactly.  The noise-stability array alpha[r][m] is the one sampled input: the
L_m norm (over fresh draws) of the supremum, along the segment from zero to a
row's value, of the norm of the r-th derivative of the statistic with respect
to that row.  The row's neighbours are held at augmented data (rows before)
and surrogate draws (rows after), and the larger of the data-endpoint and
surrogate-endpoint branches is reported.

The segment supremum has no computable closed form in general; it is proxied
by a uniform grid (default 17 points including both endpoints), which makes
the estimates lower bounds on the true suprema.  Derivatives are analytic:
one chain rule through the scaled grand mean serves the average, exponential
and smooth-max statistics; ridge and ridge risk have their own tensors.  The
hard max has none.
"""

from dataclasses import dataclass

import numpy as np

from . import statistics as stats
from .errors import ContractError, NumericalError
from .rng import substream
from .surrogate import (_gaussian_sixth_moment, _member_moments, estimate_moments,
                        sample_surrogate_cells)

ORDERS = (0, 1, 2, 3)
MOMENTS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True, eq=False)
class AlphaEstimates:
    """alpha[r][m-1] for derivative orders r in 0..3 and moments m in 1..6."""

    alpha: np.ndarray

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

class _MeanDerivs:
    """Norms for the statistics that read the data only through the scaled
    grand mean m = sum(cells) / (sqrt(n) k).  Every entry of row i moves m by
    e_l / (sqrt(n) k), whatever its slot, so ||D^r f|| = (nk)^(-r/2) ||grad^r f(m)||
    and each statistic supplies only the norms of its derivative tensors at m.
    """

    def __init__(self, kind, n, k):
        self.kind, self.n, self.k = kind, n, k

    def norms(self, w, i):
        m = stats.eval_average(w, self.k)
        value = np.linalg.norm(stats.evaluate(self.kind, w, self.k))
        scale = 1.0 / np.sqrt(self.n * self.k)
        grads = self._gradient_norms(m)
        return (float(value),) + tuple(float(g * scale**r) for r, g in enumerate(grads, 1))

    def _gradient_norms(self, m):
        """(||grad f||, ||grad^2 f||, ||grad^3 f||) at the scaled mean m."""
        if self.kind.name == "average":
            return np.sqrt(m.size), 0.0, 0.0
        if self.kind.name in ("expnegchisq", "expnegchisq2d"):
            # f = sum_l exp(-m_l^2): every derivative tensor is diagonal
            e = np.exp(-m * m)
            return (np.linalg.norm(2.0 * m * e), np.linalg.norm((4.0 * m * m - 2.0) * e),
                    np.linalg.norm((12.0 * m - 8.0 * m**3) * e))
        # smooth max: the softmax weights and their derivatives; at d_n = 1
        # tau = t log 1 = 0 makes the second and third tensors vanish
        tau = self.kind.t * np.log(self.kind.d_n)
        omega = np.exp(tau * (m - m.max()))
        omega /= omega.sum()
        h = np.diag(omega) - np.outer(omega, omega)
        g = 2.0 * omega[:, None, None] * omega[None, :, None] * omega[None, None, :]
        idx = np.arange(omega.size)
        g[:, idx, idx] -= omega[:, None] * omega[None, :]
        g[idx, :, idx] -= (omega[:, None] * omega[None, :]).T
        g[idx, idx, :] -= omega[:, None] * omega[None, :]
        g[idx, idx, idx] += omega
        return np.linalg.norm(omega), tau * np.linalg.norm(h), tau * tau * np.linalg.norm(g)


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
    if kind.name in ("average", "expnegchisq", "expnegchisq2d", "smoothmax"):
        return _MeanDerivs(kind, n, k)
    if kind.name == "ridge":
        return _RidgeDerivs(kind.d, kind.b, kind.lam, k)
    if kind.name == "ridgerisk":
        if kind.risk_moments is None:
            raise ContractError("ridge risk statistic needs risk moments")
        return _RidgeDerivs(kind.d, kind.b, kind.lam, k, kind.risk_moments)
    if kind.name == "hardmax":
        raise ContractError("the hard max is not differentiable; use its smooth relaxation")
    raise ContractError(f"no derivative adapter for statistic {kind.name!r}")


def estimate_alpha(stat, family, source, surrogate_spec, i=0, num_outer=64,
                   num_grid=17, seed=0, adapter=None):
    """Estimate alpha[r][m] at row ``i`` for a statistic under a (family, source) pair.

    This is the only sampled input of the bound.  For each outer draw the rows
    before ``i`` are freshly augmented data, the rows after ``i`` are
    surrogate draws, and the segment endpoint is either a fresh augmented row
    or a fresh surrogate row (two branches).  n and k come from the spec.
    """
    if num_grid < 2:
        raise ContractError("num_grid must be at least 2")
    if num_outer < 1:
        raise ContractError("num_outer must be at least 1")
    n, k = surrogate_spec.n, surrogate_spec.k
    if not isinstance(i, (int, np.integer)) or not 0 <= i < n:
        raise ContractError(f"row index must be an integer in [0, {n}), got {i!r}")
    adapter = derivative_adapter(stat, n, k) if adapter is None else adapter
    slot = stat.slot_dim
    if surrogate_spec.d != slot or family.dim != slot:
        raise ContractError("statistic slot dimension does not match the family/surrogate")

    fracs = np.linspace(0.0, 1.0, num_grid)
    sups = np.zeros((2, len(ORDERS), num_outer))
    rows = np.arange(i + 1)[:, None]
    for outer in range(num_outer):
        # i + 1 augmented rows, the last the data endpoint, then n - i surrogate
        # rows, the first the surrogate endpoint, all from one stream
        rng = substream(seed, 0, outer)
        x = source.sample(i + 1, rng)
        data = family.images(x)[rows, family.sample_indices((i + 1, k), rng)]
        surr = sample_surrogate_cells(surrogate_spec, (n - i,), rng)
        w = np.concatenate([data[:i], surr]).reshape(n, k * slot)
        end_data, end_surr = data[i].reshape(-1), surr[0].reshape(-1)
        for bi, endpoint in enumerate((end_data, end_surr)):
            best = np.zeros(len(ORDERS))
            for s in fracs:
                w[i] = s * endpoint
                with np.errstate(all="ignore"):  # an overflow fails the check below
                    vals = np.asarray(adapter.norms(w, i))
                if not np.all(np.isfinite(vals)):
                    raise NumericalError(
                        f"non-finite derivative at row {i}, segment fraction {s:g}")
                np.maximum(best, vals, out=best)
            sups[bi, :, outer] = best
    alpha = np.array([[max(np.mean(sups[bi, r] ** m) ** (1.0 / m) for bi in (0, 1))
                       for m in MOMENTS] for r in ORDERS])
    return AlphaEstimates(alpha=alpha)


def assemble_lambdas(alphas):
    """The two printed smoothness combinations for the i.i.d. bound.

    Each sums its third-, second- and first-order groups, in that order."""
    a = alphas
    lam1 = (a[0, 3] * a[1, 3] ** 2 + a[0, 3] ** 2 * a[2, 3]
            + (a[1, 2] ** 2 + a[0, 2] * a[2, 2])
            + a[2, 1])
    lam2 = (a[1, 6] ** 3 + 3.0 * a[0, 6] * a[1, 6] * a[2, 6] + a[0, 6] ** 2 * a[3, 6]
            + (3.0 * a[1, 4] * a[2, 4] + a[0, 4] * a[3, 4])
            + a[3, 2])
    return float(lam1), float(lam2)


def assemble_omegas(alphas):
    """The two extra smoothness combinations for the repeated-augmentation bound."""
    a = alphas
    om1 = a[1, 2] ** 2 + a[1, 2] + a[1, 1]
    om2 = (a[0, 6] * a[1, 6] ** 2 + a[0, 6] ** 2 * a[2, 6]
           + (a[1, 4] ** 2 + a[0, 4] * a[2, 4])
           + a[2, 2])
    return float(om1), float(om2)


def moment_constants(moments, spec):
    """(c1, c2, c3): conditional-variance, sixth-moment and surrogate-row constants.

    All three are exact functions of the moments.  c3 = sqrt(E ||R||^6 / k^3) / 6
    for a surrogate row R ~ N(spec.full_mean(), spec.full_covariance()), whose
    sixth moment has the same cumulant closed form as c2's.
    """
    c1 = 0.5 * float(np.linalg.norm(moments.mean_cond_var))
    c2 = float(np.sqrt(moments.sixth_moment)) / 6.0
    sixth = _gaussian_sixth_moment(spec.full_mean(), spec.full_covariance())
    c3 = float(np.sqrt(sixth / spec.k**3)) / 6.0
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
                 num_grid=17, seed=0, moments=None, include_repeated=False):
    """Assemble a full evaluable bound for one statistic/configuration."""
    delta = spec.delta if delta is None else delta
    moments = estimate_moments(family, source) if moments is None else moments
    alphas = estimate_alpha(stat, family, source, spec, num_outer=num_outer,
                            num_grid=num_grid, seed=seed)
    lam1, lam2 = assemble_lambdas(alphas)
    c1, c2, c3 = moment_constants(moments, spec)
    rhs = theorem_rhs(spec.n, spec.k, delta, lambda1=lam1, lambda2=lam2,
                      c1=c1, c2=c2, c3=c3, variant="iid")
    extra = {}
    if include_repeated:
        om1, om2 = assemble_omegas(alphas)
        m1, m2, m3 = repeated_constants(family, source)
        extra = dict(omega1=om1, omega2=om2, m1=m1, m2=m2, m3=m3,
                     rhs_repeated=theorem_rhs(spec.n, spec.k, delta, lambda2=lam2,
                                              c2=c2, c3=c3, omega1=om1, omega2=om2,
                                              m1=m1, m2=m2, m3=m3, variant="repeated"))
    return BoundReport(statistic=stat.name, n=spec.n, k=spec.k, delta=delta,
                       lambda1=lam1, lambda2=lam2, c1=c1, c2=c2, c3=c3, rhs_iid=rhs, **extra)
