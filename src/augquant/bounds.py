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

import itertools
from dataclasses import dataclass

import numpy as np

from . import statistics as stats
from .errors import ContractError, NumericalError
from .rng import substream
from .surrogate import (_gaussian_sixth_moment, _member_moments, estimate_moments,
                        sample_surrogate_cells)

ORDERS = (0, 1, 2, 3)
MOMENTS = (1, 2, 3, 4, 5, 6)
# entries in one norms call's largest array (the cells, or a ridge call's (W d, W d)
# products P and N or the risk's (W, W, 2db) rows X), unless the call reads one point
NORMS_BUDGET = 2**16


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
# Per-statistic derivative norms along a segment.  Rows reach an adapter only through its
# linear ``reduce(cells)``, once per outer draw: the n - 1 fixed rows, and each endpoint
# as a (1, k, D) stack.  ``norms(rest, rows, n, k, i)`` maps S reduced draws and S rows,
# each s times a reduced endpoint, to (S, 4), (||f||, ||D^1||, ||D^2||, ||D^3||) each.
# ---------------------------------------------------------------------------

def _frobenius(x):
    """The Frobenius norm of each element of a stack, summed as ``np.linalg.norm``
    sums one element's (a dot product)."""
    flat = x.reshape(len(x), 1, -1)
    return np.sqrt((flat @ flat.swapaxes(1, 2))[:, 0, 0])


class _MeanDerivs:
    """Norms for the statistics that read the data only through the scaled
    grand mean m = sum(cells) / (sqrt(n) k).  Every entry of row i moves m by
    e_l / (sqrt(n) k), whatever its slot, so ||D^r f|| = (nk)^(-r/2) ||grad^r f(m)||
    and each statistic supplies only the norms of its derivative tensors at m.

    The smooth max's gradient is its softmax weights omega, and its second and
    third derivatives are tau and tau^2 times the second and third cumulants of
    the one-hot vector e_J, J ~ omega.  With the Gram G = I - omega 1^T
    - 1 omega^T + (omega^T omega) 1 1^T of the centred vectors e_j - omega, the
    r-th cumulant's squared Frobenius norm is sum_ij omega_i omega_j G_ij^r, so
    no d^3 tensor is formed.
    """

    def __init__(self, kind):
        self.kind = kind

    def reduce(self, cells):
        return cells.sum(axis=(0, 1))  # a stack's grand sum, a D-vector

    def norms(self, rest, rows, n, k, i):
        m = (rest + rows) / (np.sqrt(n) * k)
        # the statistic of a one-cell dataset at k = 1 is the statistic at m
        value = _frobenius(stats.evaluate_batch(self.kind, m[:, None, None],
                                                np.ones((len(m), 1, 1)), 1))
        scale = 1.0 / np.sqrt(n * k)
        grads = self._gradient_norms(m)
        return np.stack([value] + [g * scale**r for r, g in enumerate(grads, 1)], axis=1)

    def _gradient_norms(self, m):
        """(||grad f||, ||grad^2 f||, ||grad^3 f||) at each of the (S, D) scaled means."""
        if self.kind.name == "average":
            zero = np.zeros(len(m))
            return np.full(len(m), np.sqrt(m.shape[1])), zero, zero
        if self.kind.name == "expnegchisq":
            # f = sum_l exp(-m_l^2): every derivative tensor is diagonal
            e = np.exp(-m * m)
            return (_frobenius(2.0 * m * e), _frobenius((4.0 * m * m - 2.0) * e),
                    _frobenius((12.0 * m - 8.0 * m**3) * e))
        # smooth max: the softmax weights omega and the Gram of e_j - omega; at
        # d = 1 tau = 0 makes the second and third tensors vanish
        tau = self.kind.tau
        omega = np.exp(tau * (m - m.max(axis=1, keepdims=True)))
        omega /= omega.sum(axis=1, keepdims=True)
        row, col = omega[:, None, :], omega[:, :, None]
        g = np.eye(m.shape[1]) - row - col + row @ col
        return (_frobenius(omega), tau * np.sqrt((row @ g**2 @ col)[:, 0, 0]),
                tau * tau * np.sqrt(np.maximum((row @ g**3 @ col)[:, 0, 0], 0.0)))


class _RidgeDerivs:
    """Frobenius norms of the ridge estimate's block derivative tensors, or,
    for the ridge risk statistic, of the risk's.

    The first and second tensors come from ``statistics._RidgeBlocks``, the
    same ones that ``ridge_derivative`` reads entry by entry.  The third is
    never formed: its squared norm is contracted from the blocks' G, M_a, M_ab,
    B, B_a and B_ab, so a call on S points holds O(S W^2 max(2db, d^2)) entries,
    the size ``estimate_alpha``'s chunk rule bounds.  Sums run over every
    entry index, <X, Y> = sum X * Y, and M_a and M_ab are symmetric, as are
    M_ab and B_ab in (a, b).

    Ridge.  With H = G^T G, B_abc = -G T_abc for T_abc = M_ab B_c + M_ac B_b
    + M_bc B_a + M_a B_bc + M_b B_ac + M_c B_ab, and relabelling the indices
    collapses the 36 products of sum ||B_abc||^2 = sum <T_abc, H T_abc> to six:

        sum ||B_abc||^2 = 3 UU0 + 6 UU1 + 3 VV0 + 6 VV1 + 12 UVa + 6 UVc
        UU0 = sum <M_ab B_c, H M_ab B_c>    UU1 = sum <M_ab B_c, H M_ac B_b>
        VV0 = sum <M_a B_bc, H M_a B_bc>    VV1 = sum <M_a B_bc, H M_b B_ac>
        UVa = sum <M_ab B_c, H M_a B_bc>    UVc = sum <M_ab B_c, H M_c B_ab>

    Each is a batched GEMM on (W d)-sized unfoldings; the largest is
    P = D D^T for the (W d, W b) unfolding D of B_ab, which VV1 pairs with
    N = A H A^T, A the (W d, d) unfolding of M_a, under a partial transpose.

    Ridge risk.  R(B) = sigma_y - 2 tr(Sigma_yv B) + tr(B^T Sigma_v B) is
    quadratic in B, so with E = Sigma_v B - Sigma_yv^T:

        R_a   = 2 <E, B_a>
        R_ab  = 2 <E, B_ab> + 2 <B_a, Sigma_v B_b>
        R_abc = 2 (psi_abc + psi_acb + psi_bca)
        psi_abc = <B_ab, Sigma_v B_c - M_c Q> - <M_ab Q, B_c>,  Q = G^T E

    psi = X Y^T for the rows X_ab = [B_ab, -M_ab Q] and Y_c = [Sigma_v B_c
    - M_c Q, B_c] of 2db columns each, so only Gram matrices are needed:

        sum R_abc^2 = 12 <X^T X, Y^T Y> + 24 sum_a tr((Y^T X_a)^2)

    Both terms are read through the thin QR factorization Y = Q_Y R_Y, as
    12 ||X R_Y^T||^2 + 24 sum_a tr((Q_Y^T X_a R_Y^T)^2): the plain Gram
    products lose digits where the rows of X lie nearly orthogonal to those
    of Y, and the first term stays a sum of squares.  The two terms can still
    cancel: at d = 3, b = 2 and cond(M) = 3.8e3 they read 5.952e9 and -5.941e9,
    and on that case's rows scaled by 1 + 4e-16 N(0, 1) ``_risk_third`` strays up
    to 1.2e-11 relative (median 3.3e-13) from a long-double slice sum on the same
    blocks, where the float64 slice sum stays within 4.6e-14.  So ``reduce`` keeps
    the rows: a Gram summed as fixed rows plus row i moves the norm there by 2e-11.

    The estimate keeps the positive-penalty contract of ``ridge_derivative``;
    the risk norms, like ``evaluate``, accept lam = 0 when M is invertible.
    """

    def __init__(self, kind):
        if kind.name == "ridge" and kind.lam <= 0:
            raise ContractError("derivative formulas require a positive ridge penalty")
        self.kind = kind

    def reduce(self, cells):
        return cells  # the rows stay, for the accuracy of the risk's third order

    def norms(self, rest, rows, n, k, i):
        kind = self.kind
        points = np.concatenate([rest[:, :i], rows, rest[:, i:]], axis=1)
        p = stats._RidgeBlocks(points, i, kind.d, kind.b, kind.lam)
        if kind.name == "ridge":
            return np.stack([_frobenius(p.fit), _frobenius(p.d1), _frobenius(p.d2),
                             np.sqrt(_ridge_third(p))], axis=1)
        rm = kind.risk_moments
        sv = np.asarray(rm.sigma_v, dtype=float)
        f = stats._risks(p.fit, rm)
        e = sv @ p.fit - np.asarray(rm.sigma_yv, dtype=float).T
        sv_d1 = sv @ p.d1
        r1 = 2.0 * np.einsum("sapr,spr->sa", p.d1, e)
        r2 = 2.0 * (np.einsum("sabpr,spr->sab", p.d2, e)
                    + np.einsum("sapr,sbpr->sab", p.d1, sv_d1))
        return np.stack([np.abs(f), _frobenius(r1), _frobenius(r2),
                         np.sqrt(_risk_third(p, p.g.swapaxes(1, 2) @ e, sv_d1))], axis=1)


def _ridge_third(p):
    """sum_abc ||B_abc||^2 for each point of a ``_RidgeBlocks`` stack, by the
    six-term identity of ``_RidgeDerivs``.  In the comments a, b, c index row
    entries, p, q, t, u covariates and r responses."""
    size, width, d, b = p.d1.shape
    h = p.g.swapaxes(1, 2) @ p.g
    m2 = p.m2  # (W, W, d, d), the same for every point
    # D[(b, q), (c, r)] = B_bc[q, r] and P = D D^T; A[(a, q), p] = M_a[p, q]
    dmat = p.d2.transpose(0, 1, 3, 2, 4).reshape(size, width * d, width * b)
    pmat = (dmat @ dmat.swapaxes(1, 2)).reshape(size, width, d, width, d)
    amat = p.m1.swapaxes(2, 3).reshape(size, width * d, d)
    ah = amat @ h  # [(a, q), u] = (M_a^T H)[q, u]
    nmat = (ah @ amat.swapaxes(1, 2)).reshape(size, width, d, width, d)
    vv1 = np.einsum("saqbt,sbqat->s", nmat, pmat)
    # sum_c B_c B_c^T pairs with sum_ab M_ab (x) M_ab, and sum_bc B_bc B_bc^T, the
    # diagonal blocks of P, with those of N, sum_a M_a^T H M_a
    mflat = m2.reshape(width * width, d * d)
    phi = (mflat.T @ mflat).reshape(d, d, d, d)
    uu0 = np.einsum("pqut,spu,sqt->s", phi, h, np.einsum("scqr,sctr->sqt", p.d1, p.d1))
    vv0 = np.einsum("sqt,sqt->s", np.einsum("saqat->sqt", nmat), np.einsum("sbqbt->sqt", pmat))
    # S_a[p, q, t, r] = sum_b M_ab[p, q] B_b[t, r]
    sa = (m2.transpose(0, 2, 3, 1).reshape(width * d * d, width)
          @ p.d1.reshape(size, width, d * b)).reshape(size, width, d, d, d, b)
    uu1 = np.einsum("sapqtr,sautqr,spu->s", sa, sa, h)
    # F_b[q, t] = sum_c B_c[q, r] B_bc[t, r], then Z[a, p, t] = sum_b M_ab[p, q] F_b[q, t]
    fmat = (dmat @ p.d1.swapaxes(2, 3).reshape(size, width * b, d)).reshape(size, width, d, d)
    mblock = m2.transpose(0, 2, 1, 3).reshape(width * d, width * d)  # [(a, p), (b, q)]
    z = (mblock @ fmat.swapaxes(2, 3).reshape(size, width * d, d)).reshape(size, width, d, d)
    uva = np.einsum("sapt,satp->s", z, ah.reshape(size, width, d, d))  # (H M_a)^T = M_a^T H
    # sum_ab M_ab[p, q] B_ab[t, r] and sum_c B_c[q, r] M_c[u, t]
    e_ab = mflat.T @ p.d2.reshape(size, width * width, d * b)
    c_c = p.d1.reshape(size, width, d * b).swapaxes(1, 2) @ p.m1.reshape(size, width, d * d)
    uvc = np.einsum("spqtr,spu,sqrut->s", e_ab.reshape(size, d, d, d, b), h,
                    c_c.reshape(size, d, b, d, d))
    s3 = 3.0 * uu0 + 6.0 * uu1 + 3.0 * vv0 + 6.0 * vv1 + 12.0 * uva + 6.0 * uvc
    return np.maximum(s3, 0.0)  # a vanishing tensor may round below zero


def _risk_third(p, q, sv_d1):
    """sum_abc R_abc^2 for each point of a ``_RidgeBlocks`` stack, by the Gram
    form of ``_RidgeDerivs`` through the QR factors of Y, given Q = G^T E and
    Sigma_v B_a."""
    size, width, d, b = p.d1.shape
    mq = (p.m2.reshape(width * width * d, d) @ q).reshape(size, width, width, d, b)
    x = np.concatenate([p.d2, -mq], axis=4).reshape(size, width, width, 2 * d * b)
    m1q = (p.m1.reshape(size, width * d, d) @ q).reshape(size, width, d, b)
    y = np.concatenate([sv_d1 - m1q, p.d1], axis=3).reshape(size, width, 2 * d * b)
    qy, ry = np.linalg.qr(y)
    xr = x @ ry.swapaxes(1, 2)[:, None]  # X_a R^T, so psi_a = X_a R^T Q_Y^T
    z = qy.swapaxes(1, 2)[:, None] @ xr  # Q_Y^T X_a R^T
    s3 = 12.0 * np.einsum("sabj,sabj->s", xr, xr) + 24.0 * np.einsum("saij,saji->s", z, z)
    return np.maximum(s3, 0.0)


def derivative_adapter(kind):
    """Pick the analytic derivative-norm evaluator for a statistic."""
    if kind.name == "hardmax":
        raise ContractError("the hard max is not differentiable; use its smooth relaxation")
    if kind.reads_cells:
        return _RidgeDerivs(kind)
    return _MeanDerivs(kind)  # every other canonical name reads the scaled grand mean


def _point_entries(stat, n, k):
    """Entries that one point adds to a norms call's largest array: the smooth max's
    (d, d) Gram, or for ridge and ridge risk the largest of its (n, k, D) cells, the
    (W d, W d) products P and N and the risk's (W, W, 2db) rows X."""
    if not stat.reads_cells:
        return stat.d * stat.d
    width = k * stat.slot_dim
    return max(n * width, width * width * max(2 * stat.d * stat.b, stat.d * stat.d))


def estimate_alpha(stat, family, source, surrogate_spec, i=0, num_outer=64,
                   num_grid=17, seed=0, adapter=None):
    """Estimate alpha[r][m] at row ``i`` for a statistic under a (family, source) pair.

    This is the only sampled input of the bound.  For each outer draw the rows
    before ``i`` are freshly augmented data, the rows after ``i`` are
    surrogate draws, and the segment endpoint is either a fresh augmented row
    or a fresh surrogate row (two branches).  n and k come from the spec.

    Each outer draw is drawn once, from ``substream(seed, 0, outer)``, and ``adapter.reduce``
    reads its n - 1 fixed rows and two endpoints once.  Draws are stacked once per group of
    max(1, NORMS_BUDGET // entries of a reduced draw).  A group's (outer draw, branch, grid
    point) points, row ``i`` at s times the reduced endpoint, are read in that order in chunks
    of max(1, NORMS_BUDGET // entries per point), one ``adapter.norms(rest, rows, n, k, i)``
    call per chunk; a chunk may split an outer draw's grid.
    """
    if num_grid < 2:
        raise ContractError("num_grid must be at least 2")
    if num_outer < 1:
        raise ContractError("num_outer must be at least 1")
    n, k = surrogate_spec.n, surrogate_spec.k
    if not isinstance(i, (int, np.integer)) or not 0 <= i < n:
        raise ContractError(f"row index must be an integer in [0, {n}), got {i!r}")
    adapter = derivative_adapter(stat) if adapter is None else adapter
    if {surrogate_spec.d, family.dim, source.dim} != {stat.slot_dim}:
        raise ContractError("statistic slot dimension does not match the family/surrogate/source")

    fracs = np.linspace(0.0, 1.0, num_grid)

    def draw(outer):
        # i + 1 augmented rows, the last the data endpoint, then n - i surrogate
        # rows, the first the surrogate endpoint, all from one stream
        rng = substream(seed, 0, outer)
        x = source.sample(i + 1, rng)
        data = family.images(x)[np.arange(i + 1)[:, None], family.sample_indices((i + 1, k), rng)]
        surr = sample_surrogate_cells(surrogate_spec, (n - i,), rng)
        return (adapter.reduce(np.concatenate([data[:i], surr[1:]])),
                np.stack([adapter.reduce(data[i:]), adapter.reduce(surr[:1])]))

    first = draw(0)
    per_group = max(1, NORMS_BUDGET // max(1, np.size(first[0])))  # at n = 1 rest is empty
    draws = itertools.chain([first], map(draw, range(1, num_outer)))
    per_draw = 2 * num_grid
    chunk = max(1, NORMS_BUDGET // _point_entries(stat, n, k))
    sups = np.zeros((2, len(ORDERS), num_outer))  # [branch, order, outer]: grid maxima
    for lo in range(0, num_outer, per_group):
        rest, ends = map(np.stack, zip(*itertools.islice(draws, per_group)))
        total = len(rest) * per_draw
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))
            outer, branch, grid = idx // per_draw, idx // num_grid % 2, idx % num_grid
            with np.errstate(all="ignore"):  # an overflow fails the check below
                rows = ends[outer, branch] * fracs[grid].reshape(-1, *(1,) * (ends.ndim - 2))
                vals = np.asarray(adapter.norms(rest[outer], rows, n, k, i))
            bad = ~np.isfinite(vals).all(axis=1)
            if bad.any():
                raise NumericalError(f"non-finite derivative at row {i}, "
                                     f"segment fraction {fracs[grid[bad.argmax()]]:g}")
            np.maximum.at(sups, (branch, slice(None), lo + outer), vals)
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
    cond_means, left = _member_moments(family, source)
    cross = left[:, None] @ family.matrices.transpose(0, 2, 1)[None]  # A_i Sigma A_j^T
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
