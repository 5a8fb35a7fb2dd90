"""Statistics evaluated on augmented datasets, plus exact ridge derivatives.

Every statistic consumes the row-major augmented layout (n rows, k slots of d
coordinates each) and is invariant under permuting the k slots within a row.
``evaluate_batch`` is the one implementation of each statistic: it evaluates
B datasets at once, each row given as cells with multiplicities, and
``evaluate`` calls it with a batch of one.
The ridge derivative tensors within one row are built together, from a stack
of (n, k, d + b) cells and one factorization of each regularized Gram matrix,
by ``_RidgeBlocks``; the single-entry ``ridge_derivative`` reads a stack of
one, and the analytic noise-stability path in ``bounds`` reads whole stacks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

CANONICAL_NAMES = ("average", "expnegchisq", "smoothmax", "hardmax", "ridge", "ridgerisk")


@dataclass(frozen=True, eq=False)
class RiskMoments:
    """Second moments of a fresh (covariate, response) pair for the risk form.

    sigma_y  : E ||Y||^2           (scalar)
    sigma_yv : E Y V^T             (b x d)
    sigma_v  : E V V^T             (d x d)
    """

    sigma_y: float
    sigma_yv: np.ndarray
    sigma_v: np.ndarray


def risk_moments_from_source(source):
    """Closed-form risk moments for a regression source: the blocks of the second moment
    E[(V, Y)(V, Y)^T] of its observation vector."""
    if source.kind != "regression":
        raise ContractError("risk moments require a regression source")
    d, mu = source.mean.size, source.joint_mean()
    with np.errstate(all="ignore"):  # a non-finite moment is refused where it is read
        second = source.joint_cov() + np.outer(mu, mu)
    return RiskMoments(sigma_y=float(np.trace(second[d:, d:])), sigma_yv=second[d:, :d].copy(),
                       sigma_v=second[:d, :d].copy())


@dataclass(frozen=True)
class StatisticKind:
    """Tagged description of a statistic; ``name`` is the CLI-facing label."""

    name: str
    d: int = 1
    b: int = 1
    t: float = 1.0
    lam: float = 0.0
    risk_moments: RiskMoments = None

    def __post_init__(self):
        if self.name not in CANONICAL_NAMES:
            raise ContractError(f"unknown statistic {self.name!r}; expected one of {CANONICAL_NAMES}")
        if self.lam < 0:
            raise ContractError("ridge penalty must be nonnegative")
        if self.name == "smoothmax" and self.t <= 0:
            raise ContractError("smooth max temperature parameter must be positive")
        if self.name == "ridgerisk" and self.risk_moments is None:
            raise ContractError("ridge risk statistic needs risk moments")

    @property
    def reads_cells(self):
        """Whether the statistic reads its cells beyond their grand sum: ridge and ridge risk
        read their Gram and cross moments; every other kind is a function of the scaled
        grand mean."""
        return self.name in ("ridge", "ridgerisk")

    @property
    def slot_dim(self):
        """Dimension each augmented cell must have for this statistic."""
        return self.d + self.b if self.reads_cells else self.d

    @property
    def tau(self):
        """The smooth max's temperature t log d; 0 at d = 1."""
        return self.t * np.log(self.d)

    @property
    def output_dim(self):
        if self.name == "average":
            return self.d
        if self.name == "ridge":
            return self.d * self.b
        return 1


def average_statistic(d):
    return StatisticKind(name="average", d=d)


def exp_neg_chisq_statistic(d=1):
    return StatisticKind(name="expnegchisq", d=d)


def smooth_max_statistic(d, t):
    """Log-sum-exp relaxation of the coordinatewise max of the scaled grand means.

    The temperature ``StatisticKind.tau`` = t * log(d) caps the gap to the
    hard max at 1/t.  For d = 1 the relaxation is exact and the degenerate
    temperature is bypassed.
    """
    return StatisticKind(name="smoothmax", d=d, t=float(t))


def hard_max_statistic(d):
    return StatisticKind(name="hardmax", d=d)


def ridge_statistic(d, b, lam):
    return StatisticKind(name="ridge", d=d, b=b, lam=float(lam))


def ridge_risk_statistic(d, b, lam, risk_moments):
    return StatisticKind(name="ridgerisk", d=d, b=b, lam=float(lam),
                         risk_moments=risk_moments)


def _cells(data, k):
    """View an (n, k*d) array of augmented rows as (n, k, d) cells."""
    values = np.asarray(data, dtype=float)
    if values.ndim != 2:
        raise ContractError("expected a 2-d augmented layout")
    n, cols = values.shape
    if k < 1 or cols % k != 0:
        raise ContractError(f"column count {cols} is not a multiple of k={k}")
    return values.reshape(n, k, cols // k)


def evaluate_batch(kind, points, weights, k):
    """The statistic on B datasets at once, as a (B, output_dim) array.

    Dataset b has n rows; row i holds the cells ``points[b, i, j]`` (J cells of
    dimension D) with multiplicities ``weights[b, i, j]``, k in all, so that
    repeating each cell by its multiplicity gives the (n, k*D) layout that
    ``evaluate`` reads.  Every statistic reads the cells only through weighted
    sums: the grand sum, or for ridge the Gram and cross moments.
    """
    if points.shape[-1] != kind.slot_dim:
        raise ContractError(f"slot dimension {points.shape[-1]} does not match the "
                            f"{kind.name} statistic's {kind.slot_dim}")
    if kind.reads_cells:
        g, cross = _ridge_system(points, weights, k, kind.d, kind.b, kind.lam)
        fit = g @ cross
        if kind.name == "ridge":
            return fit.reshape(len(fit), -1)
        return _risks(fit, kind.risk_moments)[:, None]
    m = np.einsum("bnj,bnjd->bd", weights, points) / (np.sqrt(points.shape[1]) * k)
    if kind.name == "average":
        return m
    if kind.name == "expnegchisq":
        return np.exp(-m * m).sum(axis=1, keepdims=True)
    shift = m.max(axis=1, keepdims=True)
    if kind.name == "hardmax" or kind.d == 1:
        return shift  # the log-sum-exp relaxation is exact for one coordinate
    tau = kind.tau
    return shift + np.log(np.exp(tau * (m - shift)).sum(axis=1, keepdims=True)) / tau


def evaluate(kind, data, k):
    """Dispatch a StatisticKind on an augmented layout; returns a 1-d array."""
    cells = _cells(data, k)
    return evaluate_batch(kind, cells[None], np.ones((1, *cells.shape[:2])), k)[0]


def _split_vy(cells, d, b):
    if cells.shape[-1] != d + b:
        raise ContractError(f"slot dimension {cells.shape[-1]} does not match d+b={d + b}")
    return cells[..., :d], cells[..., d:]


def _ridge_system(points, weights, k, d, b, lam):
    """Per dataset of ``evaluate_batch``'s layout: G = M^{-1} for the weighted
    M = sum w v v^T + n k lam I, via its Cholesky factor, and the cross
    moments sum w v y^T; shapes (B, d, d) and (B, d, b)."""
    size, n = points.shape[:2]
    v, y = _split_vy(points, d, b)
    v = v.reshape(size, -1, d)
    vw = (v * weights.reshape(size, -1, 1)).swapaxes(1, 2)
    m = vw @ v + n * k * lam * np.eye(d)
    cross = vw @ y.reshape(size, -1, b)
    if not (np.isfinite(m).all() and np.isfinite(cross).all()):
        raise NumericalError(f"ridge system has non-finite entries (lam={lam:g})")
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"regularized Gram matrix is singular (rank deficiency at lam={lam:g})") from exc
    return l_inv.swapaxes(1, 2) @ l_inv, cross


def _risks(b_hats, rm):
    """The risk of each estimate in a (B, d, b) stack, shape (B,)."""
    syv = np.asarray(rm.sigma_yv, dtype=float)
    sv = np.asarray(rm.sigma_v, dtype=float)
    d, b = b_hats.shape[1:]
    if syv.shape != (b, d) or sv.shape != (d, d):
        raise ContractError("risk moment dimensions do not match the estimate")
    return (rm.sigma_y - 2.0 * np.trace(syv @ b_hats, axis1=1, axis2=2)
            + np.trace(b_hats.swapaxes(1, 2) @ sv @ b_hats, axis1=1, axis2=2))


class _RidgeBlocks:
    """The ridge estimate and its derivative tensors within one row, for a
    stack of datasets, one factorization each.

    With M = sum v v^T + n k lam I, G = M^{-1} and B = G C for C = sum v y^T,
    differentiating M B = C gives, for row entries a, b, c (M and C are
    quadratic in the row, so their third derivatives vanish):

        B_a   = G (C_a - M_a B)
        B_ab  = G (C_ab - M_ab B - M_a B_b - M_b B_a)
        B_abc = -G (M_ab B_c + M_ac B_b + M_bc B_a + M_a B_bc + M_b B_ac + M_c B_ab)

    M_ab and C_ab vanish unless both entries lie in the same slot.  The data
    are an (S, n, k, d + b) stack of cells, and entries follow row i's cells
    flattened (slot-major, covariates before responses), so with W = k (d + b):
    ``fit`` is (S, d, b), ``d1`` is (S, W, d, b), ``d2`` is (S, W, W, d, b), and
    ``d3(a)`` is the (S, W, W, d, b) slice of the third tensor at first index a.
    ``d3`` is read only by ``ridge_derivative`` and the tests; the bound path
    contracts the third order from the first two (``bounds._RidgeDerivs``).
    """

    def __init__(self, cells, i, d, b, lam):
        k = cells.shape[2]
        v, y = _split_vy(cells, d, b)
        g, cross = _ridge_system(cells, np.ones(cells.shape[:3]), k, d, b, lam)
        self.g, self.fit = g, g @ cross
        # derivative of the slot's covariate / response with respect to each entry
        ev = np.tile(np.eye(d + b, d), (k, 1))
        ey = np.tile(np.eye(d + b, b, -d), (k, 1))
        vj = np.repeat(v[:, i], d + b, axis=1)
        yj = np.repeat(y[:, i], d + b, axis=1)
        same = np.kron(np.eye(k), np.ones((d + b, d + b)))[:, :, None, None]
        m1 = ev[:, :, None] * vj[:, :, None, :]
        self.m1 = m1 + m1.swapaxes(2, 3)
        c1 = ev[:, :, None] * yj[:, :, None, :] + vj[..., None] * ey[:, None, :]
        evev = ev[:, None, :, None] * ev[None, :, None, :]
        self.m2 = same * (evev + evev.transpose(1, 0, 2, 3))
        c2 = same * (ev[:, None, :, None] * ey[None, :, None, :]
                     + ev[None, :, :, None] * ey[:, None, None, :])
        self.d1 = g[:, None] @ (c1 - self.m1 @ self.fit[:, None])
        mb = self.m1[:, :, None] @ self.d1[:, None]
        self.d2 = g[:, None, None] @ (c2 - self.m2 @ self.fit[:, None, None]
                                      - mb - mb.swapaxes(1, 2))

    def d3(self, a):
        m1, d1, d2 = self.m1, self.d1, self.d2
        s = self.m2[a][:, None] @ d1[:, None]
        s += m1[:, :, None] @ d2[:, a][:, None]
        s = s + s.swapaxes(1, 2)
        s += self.m2 @ d1[:, a][:, None, None]
        s += m1[:, a][:, None, None] @ d2
        return -(self.g[:, None, None] @ s)


# the block ("v" covariate, "y" response) of each differentiated entry, in order
_SELECTOR_BLOCKS = {"dY": "y", "dV": "v", "dYdY": "yy", "dYdV": "vy", "dVdV": "vv",
                    "dYdVdV": "vvy", "dVdVdV": "vvv"}


def ridge_derivative(data, k, d, b, lam, which, i, slots, coords):
    """Exact derivative tensors of the ridge estimate within row ``i``.

    ``slots`` and ``coords`` give the differentiated cells: one (slot, coord)
    pair per derivative order.  ``which`` selects the block pattern:

    - "dY", "dV": first order with respect to a response / covariate entry;
    - "dYdY": identically zero (the estimate is affine in the responses);
    - "dYdV": second order, first pair indexes the covariate entry, second the
      response entry;
    - "dVdV": second order in two covariate entries;
    - "dYdVdV": third order, first two pairs covariate, last pair response;
    - "dVdVdV": third order in three covariate entries.

    Returns a (d, b) matrix (the derivative of the matrix-valued estimate with
    respect to the chosen scalar entries), read from the ``_RidgeBlocks``
    tensors at the entries' row positions.
    """
    if lam <= 0:
        raise ContractError("derivative formulas require a positive ridge penalty")
    if which not in _SELECTOR_BLOCKS:
        raise ContractError(f"unknown derivative selector {which!r}")
    blocks = _SELECTOR_BLOCKS[which]
    if len(slots) != len(blocks) or len(coords) != len(blocks):
        raise ContractError(f"selector {which!r} takes {len(blocks)} slots and coordinates")
    if not all(isinstance(x, (int, np.integer)) for x in (i, *slots, *coords)):
        raise ContractError(f"row, slot and coordinate indices must be integers, got i={i!r}, "
                            f"slots={tuple(slots)!r}, coords={tuple(coords)!r}")
    cells = _cells(data, k)
    if not 0 <= i < cells.shape[0]:
        raise ContractError(f"row index {i} out of range")
    entries = []
    for j, l, block in zip(slots, coords, blocks):
        j, l = int(j), int(l)
        if not 0 <= j < k:
            raise ContractError(f"slot index {j} out of range")
        if not 0 <= l < (d if block == "v" else b):
            raise ContractError(f"coordinate index {l} out of range for {block}-block")
        entries.append(j * (d + b) + (l if block == "v" else d + l))
    p = _RidgeBlocks(cells[None], i, d, b, lam)
    if len(entries) == 1:
        return p.d1[0, entries[0]]
    if len(entries) == 2:
        return p.d2[0, entries[0], entries[1]]
    return p.d3(entries[0])[0, entries[1], entries[2]]
