import itertools
import math
import tracemalloc

import numpy as np
import pytest

import augquant as aq
from augquant import bounds as bd
from augquant import cli
from augquant import statistics as stats
from augquant.config import experiment_from_config
from augquant.errors import ContractError, NumericalError
from augquant.rng import substream
from augquant.surrogate import sample_surrogate_cells, sample_surrogate_rows


def _dataset_norms(adapter, points, i):
    """``adapter.norms`` on whole (..., n, k, D) datasets, as (..., 4): each
    dataset's rows other than i, and its row i as a one-row stack, go through
    ``adapter.reduce``, then both through ``norms``."""
    *lead, n, k, slot = points.shape
    flat = points.reshape(-1, n, k, slot)
    rest = np.stack([adapter.reduce(np.delete(cells, i, axis=0)) for cells in flat])
    rows = np.stack([adapter.reduce(cells[i:i + 1]) for cells in flat])
    return adapter.norms(rest, rows, n, k, i).reshape(*lead, 4)


def _average_setup(n=6, k=3, d=2):
    src = aq.gaussian_source([0.0] * d, np.eye(d))
    fam = aq.identity_family(d)
    spec = aq.build_surrogate(aq.estimate_moments(fam, src), n, k, 0.0)
    return aq.average_statistic(d), fam, src, spec


class TestEstimateAlpha:
    def test_average_is_exact(self):
        stat, fam, src, spec = _average_setup()
        al = aq.estimate_alpha(stat, fam, src, spec, i=0, num_outer=4, num_grid=3, seed=2)
        expected = math.sqrt(2) / math.sqrt(6 * 3)
        for m in range(1, 7):
            assert al[1, m] == pytest.approx(expected, rel=1e-12)
            assert al[2, m] <= 1e-12
            assert al[3, m] <= 1e-12

    def test_moment_monotonicity(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        fam = aq.sign_flip_family(1, 0.7)
        spec = aq.build_surrogate(aq.estimate_moments(fam, src), 5, 2, 1.0)
        al = aq.estimate_alpha(aq.exp_neg_chisq_statistic(), fam, src, spec,
                               i=2, num_outer=64, num_grid=9, seed=3)
        for r in range(4):
            row = al.alpha[r]
            assert np.all(np.diff(row) >= -1e-12)

    def test_value_moments_stable_under_doubling(self):
        stat, fam, src, spec = _average_setup()
        a1 = aq.estimate_alpha(stat, fam, src, spec, i=0, num_outer=128, num_grid=5, seed=4)
        a2 = aq.estimate_alpha(stat, fam, src, spec, i=0, num_outer=256, num_grid=5, seed=4)
        for m in range(1, 7):
            assert np.isfinite(a1[0, m])
            assert abs(a1[0, m] - a2[0, m]) <= 0.05 * max(a1[0, m], a2[0, m])

    def test_grid_refinement_consistency(self):
        # a 10x finer segment grid moves the estimate by less than 3 combined SEs
        src = aq.gaussian_source([0.0], [[1.0]])
        fam = aq.identity_family(1)
        spec = aq.build_surrogate(aq.estimate_moments(fam, src), 1, 1, 1.0)
        stat = aq.exp_neg_chisq_statistic()
        coarse = aq.estimate_alpha(stat, fam, src, spec, i=0, num_outer=256,
                                   num_grid=17, seed=5)
        fine = aq.estimate_alpha(stat, fam, src, spec, i=0, num_outer=256,
                                 num_grid=170, seed=5)
        se_proxy = coarse[2, 2] / math.sqrt(256)
        assert abs(coarse[2, 1] - fine[2, 1]) <= 3 * se_proxy + 0.02 * fine[2, 1]

    def test_scaling_identity(self):
        stat, fam, src, spec = _average_setup(n=4, k=2, d=1)
        base = aq.estimate_alpha(aq.average_statistic(1), fam, src, spec,
                                 i=1, num_outer=16, num_grid=5, seed=6)

        class Scaled:
            def __init__(self, inner, a):
                self.inner, self.a = inner, a

            def reduce(self, cells):
                return self.inner.reduce(cells)

            def norms(self, rest, rows, n, k, i):
                return self.a * self.inner.norms(rest, rows, n, k, i)

        scaled = aq.estimate_alpha(aq.average_statistic(1), fam, src, spec,
                                   i=1, num_outer=16, num_grid=5, seed=6,
                                   adapter=Scaled(bd.derivative_adapter(
                                       aq.average_statistic(1)), 2.5))
        assert np.allclose(scaled.alpha, 2.5 * base.alpha, rtol=1e-12)

    def test_adapter_reads_cells_along_the_segment(self):
        # reduce gets, once per draw, its n - 1 other rows and then its two
        # endpoints as one-row stacks, and each norms call a stack of reduced
        # draws and rows i in (outer draw, branch, grid point) order; put back
        # in place, within one branch row i walks the grid s * endpoint and
        # every other row stays put
        n, k, d, i, num_grid = 5, 3, 2, 2, 4
        stat, fam, src, spec = _average_setup(n=n, k=k, d=d)

        class Recording:
            def __init__(self):
                self.calls, self.reduced = [], []

            def reduce(self, cells):
                self.reduced.append(cells.shape)
                return cells

            def norms(self, rest, rows, size, width, row):
                assert row == i and size == n and width == k
                self.calls.append(np.concatenate([rest[:, :i], rows, rest[:, i:]], axis=1))
                return np.tile([1.0, 0.0, 0.0, 0.0], (len(rows), 1))

        rec = Recording()
        aq.estimate_alpha(stat, fam, src, spec, i=i, num_outer=3, num_grid=num_grid,
                          seed=8, adapter=rec)
        assert rec.reduced == [(n - 1, k, d), (1, k, d), (1, k, d)] * 3
        datasets = np.concatenate(rec.calls)
        assert len(datasets) == 3 * 2 * num_grid
        fracs = np.linspace(0.0, 1.0, num_grid)
        others = np.arange(n) != i
        for start in range(0, len(datasets), num_grid):
            branch = datasets[start:start + num_grid]
            endpoint = branch[-1][i]
            for s, cells in zip(fracs, branch):
                assert cells.shape == (n, k, d)
                assert np.array_equal(cells[i], s * endpoint)
                assert np.array_equal(cells[others], branch[0][others])

    def test_grid_too_small(self):
        stat, fam, src, spec = _average_setup()
        with pytest.raises(ContractError):
            aq.estimate_alpha(stat, fam, src, spec, i=0, num_grid=1)

    @pytest.mark.parametrize("i", [-1, 6, 1.0, "0"])
    def test_row_index_outside_the_rows_rejected(self, i):
        stat, fam, src, spec = _average_setup()
        with pytest.raises(ContractError, match="row index"):
            aq.estimate_alpha(stat, fam, src, spec, i=i, num_outer=1, num_grid=2)

    def test_source_dimension_must_match_the_slot(self):
        # a 2-d swap family and spec, but a 3-d source
        fam = aq.swap_family()
        spec = aq.build_surrogate(aq.estimate_moments(fam, aq.gaussian_source([0.0] * 2, np.eye(2))),
                                  4, 2, 0.0)
        src = aq.gaussian_source([0.0] * 3, np.eye(3))
        with pytest.raises(ContractError, match="slot dimension"):
            aq.estimate_alpha(aq.exp_neg_chisq_statistic(2), fam, src, spec, i=0,
                              num_outer=1, num_grid=2)

    def test_hard_max_rejected(self):
        src = aq.gaussian_source([0.0] * 3, np.eye(3))
        fam = aq.identity_family(3)
        spec = aq.build_surrogate(aq.estimate_moments(fam, src), 2, 1, 0.0)
        with pytest.raises(ContractError):
            aq.estimate_alpha(aq.hard_max_statistic(3), fam, src, spec, i=0)


def _reference_alpha(stat, family, source, spec, i, num_outer, num_grid, seed):
    """estimate_alpha as one ``norms`` call per grid point, branch and outer draw:
    the reference that the stacked chunks are held to."""
    adapter = bd.derivative_adapter(stat)
    n, k = spec.n, spec.k
    fracs = np.linspace(0.0, 1.0, num_grid)
    sups = np.zeros((2, len(bd.ORDERS), num_outer))
    rows = np.arange(i + 1)[:, None]
    for outer in range(num_outer):
        rng = substream(seed, 0, outer)
        x = source.sample(i + 1, rng)
        data = family.images(x)[rows, family.sample_indices((i + 1, k), rng)]
        surr = sample_surrogate_cells(spec, (n - i,), rng)
        w = np.concatenate([data[:i], surr])
        for bi, endpoint in enumerate((data[i], surr[0])):
            best = np.zeros(len(bd.ORDERS))
            for s in fracs:
                w[i] = s * endpoint
                np.maximum(best, _dataset_norms(adapter, w, i), out=best)
            sups[bi, :, outer] = best
    return np.array([[max(np.mean(sups[bi, r] ** m) ** (1.0 / m) for bi in (0, 1))
                      for m in bd.MOMENTS] for r in bd.ORDERS])


def _crop_cell(kind, n, k):
    """fig4's paired crop source and family with a ridge-type statistic at lambda 1."""
    config = experiment_from_config({**cli.CROP, "statistic.kind": kind, "statistic.lambda": 1.0,
                                     "protocol": "iid_aug", "n": n, "k": k, "replicates": 2,
                                     "seed": 1})
    spec = aq.build_surrogate(aq.estimate_moments(config.family, config.source), n, k, 0.0)
    return config.statistic, config.family, config.source, spec


def _fig3_cell(k):
    """fig3's swap family on its correlated source, n = 100, with the
    two-coordinate exponential statistic."""
    src = aq.gaussian_source([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]])
    fam = aq.swap_family()
    spec = aq.build_surrogate(aq.estimate_moments(fam, src), 100, k, 0.0)
    return aq.exp_neg_chisq_statistic(2), fam, src, spec


_RISK_MOMENTS = aq.RiskMoments(1.5, np.array([[0.3, -0.2]]), np.array([[1.0, 0.2], [0.2, 0.8]]))


def _reference_third(kind, points, i):
    """The squared Frobenius norm of the third-order block tensor of a ridge or
    ridge risk statistic, summed one first-index slice ``_RidgeBlocks.d3(a)`` at
    a time: the reference that the contracted norms are held to."""
    *lead, n, k, slot = points.shape
    p = stats._RidgeBlocks(points.reshape(-1, n, k, slot), i, kind.d, kind.b, kind.lam)
    width = k * slot
    if kind.name == "ridge":
        s3 = sum((p.d3(a) ** 2).sum(axis=(1, 2, 3, 4)) for a in range(width))
        return s3.reshape(lead)
    rm = kind.risk_moments
    sv = np.asarray(rm.sigma_v, dtype=float)
    h = sv @ p.fit - np.asarray(rm.sigma_yv, dtype=float).T
    sv_d1 = sv @ p.d1
    s3 = 0.0
    for a in range(width):
        q = np.einsum("sbpr,scpr->sbc", p.d2[:, a], sv_d1)
        r3 = 2.0 * (np.einsum("sbcpr,spr->sbc", p.d3(a), h) + q + q.swapaxes(1, 2)
                    + np.einsum("sbcpr,spr->sbc", p.d2, sv_d1[:, a]))
        s3 = s3 + (r3 * r3).sum(axis=(1, 2))
    return s3.reshape(lead)


def _ridge_kinds(d, b, rng):
    """The ridge estimate at a positive penalty and the ridge risk at lam = 0,
    with risk moments drawn from rng."""
    root = rng.standard_normal((d, d))
    rm = aq.RiskMoments(1.5, rng.standard_normal((b, d)), root @ root.T + 0.1 * np.eye(d))
    return aq.ridge_statistic(d, b, 0.7), aq.ridge_risk_statistic(d, b, 0.0, rm)


class TestThirdOrderContraction:
    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_matches_the_slice_reference(self, k, lead):
        n, i = 3, 1
        rng = np.random.default_rng(100 + k)
        for d, b in itertools.product((1, 2, 3), repeat=2):
            for kind in _ridge_kinds(d, b, rng):
                points = rng.standard_normal((*lead, n, k, d + b))
                got = _dataset_norms(bd.derivative_adapter(kind), points, i)[..., 3]
                want = np.sqrt(_reference_third(kind, points, i))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                           err_msg=f"{kind.name} d={d} b={b}")

    def test_bound_path_reads_no_third_order_slice(self, monkeypatch):
        def refuse(self, a):
            raise AssertionError("the bound path formed a third-order slice")

        monkeypatch.setattr(stats._RidgeBlocks, "d3", refuse)
        rng = np.random.default_rng(7)
        for kind in _ridge_kinds(2, 2, rng):
            points = rng.standard_normal((5, 3, 2, 4))
            out = _dataset_norms(bd.derivative_adapter(kind), points, 1)
            assert out.shape == (5, 4) and np.isfinite(out).all()


class TestStackedNorms:
    @pytest.mark.parametrize("kind", [
        aq.average_statistic(2),
        aq.exp_neg_chisq_statistic(1),
        aq.exp_neg_chisq_statistic(2),
        aq.smooth_max_statistic(3, 2.0),
        aq.ridge_statistic(2, 1, 0.7),
        aq.ridge_risk_statistic(2, 1, 0.0, _RISK_MOMENTS),
    ], ids=lambda kind: f"{kind.name}-d{kind.d}-lam{kind.lam:g}")
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_stack_matches_each_point(self, kind, lead):
        n, k, i = 3, 2, 1
        points = np.random.default_rng(13).standard_normal((*lead, n, k, kind.slot_dim))
        adapter = bd.derivative_adapter(kind)
        stacked = _dataset_norms(adapter, points, i)
        assert stacked.shape == (*lead, 4)
        for idx in np.ndindex(*lead):
            np.testing.assert_allclose(stacked[idx], _dataset_norms(adapter, points[idx], i),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("setup,num_grid", [
        *((setup, 3) for setup in ("average", "expnegchisq", "smoothmax", "ridge", "ridgerisk")),
        *((setup, 4) for setup in ("average", "expnegchisq", "smoothmax")),
    ])
    def test_estimate_alpha_matches_per_point_reference(self, setup, num_grid, monkeypatch):
        # chunks of 5 points against draws of 2 * 3 or 2 * 4: boundaries fall mid-draw.
        # At 4 points the fractions 1/3 and 2/3 are not dyadic, so s times the reduced
        # endpoint and the reference's reduced s * endpoint may round apart
        num_outer, chunk = 3, 5
        if setup in ("ridge", "ridgerisk"):
            stat, fam, src, spec = _crop_cell(setup, 4, 2)
        else:
            src = aq.gaussian_source([0.2, -0.1], [[1.0, -0.5], [-0.5, 1.0]])
            fam = aq.swap_family()
            spec = aq.build_surrogate(aq.estimate_moments(fam, src), 4, 3, 1.0)
            stat = {"average": aq.average_statistic(2),
                    "expnegchisq": aq.exp_neg_chisq_statistic(2),
                    "smoothmax": aq.smooth_max_statistic(2, 1.5)}[setup]
        monkeypatch.setattr(bd, "NORMS_BUDGET", chunk * bd._point_entries(stat, spec.n, spec.k))
        sizes = []
        inner = bd.derivative_adapter(stat)

        class Counting:
            def reduce(self, cells):
                return inner.reduce(cells)

            def norms(self, rest, rows, n, k, row):
                sizes.append(len(rows))
                return inner.norms(rest, rows, n, k, row)

        got = aq.estimate_alpha(stat, fam, src, spec, i=1, num_outer=num_outer,
                                num_grid=num_grid, seed=9, adapter=Counting())
        assert sizes == ([5, 5, 5, 3] if num_grid == 3 else [5, 5, 5, 5, 4])
        want = _reference_alpha(stat, fam, src, spec, 1, num_outer, num_grid, 9)
        np.testing.assert_allclose(got.alpha, want, rtol=1e-12, atol=0.0)

    def test_groups_draw_each_outer_draw_once(self, monkeypatch):
        # a budget of two reduced draws holds 5 draws in groups of 2, 2 and 1, one
        # point per norms call; each draw's stream is derived once, in order, and the
        # groups change no estimate
        stat, fam, src, spec = _crop_cell("ridge", 4, 2)
        monkeypatch.setattr(bd, "NORMS_BUDGET", 2 * (spec.n - 1) * spec.k * stat.slot_dim)
        streams = []

        def counting_substream(*key):
            streams.append(key)
            return substream(*key)

        monkeypatch.setattr(bd, "substream", counting_substream)
        got = aq.estimate_alpha(stat, fam, src, spec, i=1, num_outer=5, num_grid=2, seed=4)
        assert streams == [(4, 0, outer) for outer in range(5)]
        want = _reference_alpha(stat, fam, src, spec, 1, 5, 2, 4)
        np.testing.assert_allclose(got.alpha, want, rtol=1e-12, atol=0.0)

    def test_non_finite_norm_names_its_segment_fraction(self, monkeypatch):
        # datasets 13 and 15 are inf, both in the chunk [12, 16): outer draw 1's data
        # branch at s = 0.75 comes first, its surrogate branch at s = 0 next
        num_grid, i = 5, 1
        stat, fam, src, spec = _average_setup(n=4, k=2, d=1)
        monkeypatch.setattr(bd, "NORMS_BUDGET", 4 * bd._point_entries(stat, spec.n, spec.k))

        class Overflowing:
            seen = 0

            def reduce(self, cells):
                return cells

            def norms(self, rest, rows, n, k, row):
                out = np.ones((len(rows), 4))
                out[np.isin(np.arange(self.seen, self.seen + len(rows)), [13, 15]), 2] = np.inf
                self.seen += len(rows)
                return out

        with pytest.raises(NumericalError) as err:
            aq.estimate_alpha(stat, fam, src, spec, i=i, num_outer=3, num_grid=num_grid,
                              seed=2, adapter=Overflowing())
        assert str(err.value) == f"non-finite derivative at row {i}, segment fraction 0.75"

    @pytest.mark.parametrize("cell,n,k,num_outer,num_grid", [
        ("crop", 20, 2, 2, 4097), ("crop", 20, 16, 1, 17), ("fig3", 100, 50, 2, 4097),
        ("crop", 200, 8, 64, 2),
    ], ids=["2-2-4097", "16-1-17", "fig3-50-2-4097", "n200-8-64-2"])
    def test_peak_memory_is_bounded_by_the_chunk(self, cell, n, k, num_outer, num_grid):
        # a few MB, set by the chunk constant: every array of a norms call, and each
        # group of held outer draws, holds at most NORMS_BUDGET entries, and a handful
        # of them are alive at once; fig4's crop ridge cell at n = 20 and 200 (where
        # 64 draws span seven groups) and fig3's exponential cell at n = 100
        limit = 8 * 8 * bd.NORMS_BUDGET
        args = _crop_cell("ridge", n, k) if cell == "crop" else _fig3_cell(k)
        aq.estimate_alpha(*args, num_outer=1, num_grid=2)  # one-time allocations
        tracemalloc.start()
        try:
            aq.estimate_alpha(*args, num_outer=num_outer, num_grid=num_grid, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"peak {peak / 1e6:.2f} MB over {limit / 1e6:.2f} MB"


class _FiniteDifferenceDerivs:
    """Central finite differences on one row's block: the reference that the
    tests hold the analytic adapters to.  ``derivative_adapter`` never returns
    it.

    The base step is 1e-5 relative to the block scale; second and third
    differences widen it (1e-4, 1e-3) because the rounding noise of an order-r
    stencil grows like eps / h^r and would otherwise swamp the estimate.
    """

    def __init__(self, kind, n, k, rel_steps=(1e-5, 1e-4, 1e-3)):
        self.kind, self.n, self.k, self.rel_steps = kind, n, k, rel_steps

    def norms(self, w, i):
        k = self.k
        base = w[i].copy()
        width = base.shape[0]
        scale = 1.0 + np.linalg.norm(base)
        h1, h2, h3 = (r * scale for r in self.rel_steps)

        def f_at(row):
            w[i] = row
            out = stats.evaluate(self.kind, w, k)
            w[i] = base
            return out

        f0 = f_at(base)

        def shifted(h, *pairs):
            row = base.copy()
            for idx, sgn in pairs:
                row[idx] += sgn * h
            return f_at(row)

        d1 = np.empty((f0.shape[0], width))
        for a in range(width):
            d1[:, a] = (shifted(h1, (a, +1)) - shifted(h1, (a, -1))) / (2 * h1)
        s2 = 0.0
        for a in range(width):
            for c in range(a, width):
                if a == c:
                    t = (shifted(h2, (a, +1)) - 2 * f0 + shifted(h2, (a, -1))) / (h2 * h2)
                else:
                    t = (shifted(h2, (a, +1), (c, +1)) - shifted(h2, (a, +1), (c, -1))
                         - shifted(h2, (a, -1), (c, +1))
                         + shifted(h2, (a, -1), (c, -1))) / (4 * h2 * h2)
                s2 += (1 if a == c else 2) * np.sum(t * t)
        s3 = 0.0
        for combo in itertools.combinations_with_replacement(range(width), 3):
            t = _fd_third(shifted, *combo, h3)
            counts = {}
            for c in combo:
                counts[c] = counts.get(c, 0) + 1
            mult = 6
            for v in counts.values():
                for fac in range(2, v + 1):
                    mult //= fac
            s3 += mult * np.sum(t * t)
        return (float(np.linalg.norm(f0)), float(np.linalg.norm(d1)),
                float(np.sqrt(s2)), float(np.sqrt(s3)))


def _fd_third(shifted, a, c, e, h):
    if a == c == e:
        return (shifted(h, (a, +2)) - 2 * shifted(h, (a, +1))
                + 2 * shifted(h, (a, -1)) - shifted(h, (a, -2))) / (2 * h**3)
    if a == c or c == e:
        rep, single = (a, e) if a == c else (c, a)
        return (shifted(h, (rep, +1), (single, +1)) - 2 * shifted(h, (single, +1))
                + shifted(h, (rep, -1), (single, +1))
                - shifted(h, (rep, +1), (single, -1)) + 2 * shifted(h, (single, -1))
                - shifted(h, (rep, -1), (single, -1))) / (2 * h**3)
    return (shifted(h, (a, +1), (c, +1), (e, +1)) - shifted(h, (a, +1), (c, +1), (e, -1))
            - shifted(h, (a, +1), (c, -1), (e, +1)) + shifted(h, (a, +1), (c, -1), (e, -1))
            - shifted(h, (a, -1), (c, +1), (e, +1)) + shifted(h, (a, -1), (c, +1), (e, -1))
            + shifted(h, (a, -1), (c, -1), (e, +1))
            - shifted(h, (a, -1), (c, -1), (e, -1))) / (8 * h**3)


class TestAnalyticAdaptersAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind,d", [
        (aq.exp_neg_chisq_statistic(), 1),
        (aq.exp_neg_chisq_statistic(2), 2),
        (aq.smooth_max_statistic(3, 2.0), 3),
        (aq.average_statistic(2), 2),
        (aq.smooth_max_statistic(1, 2.0), 1),
    ])
    def test_chain_rule_norms(self, kind, d):
        n, k = 3, 2
        rng = np.random.default_rng(10)
        w = rng.standard_normal((n, k * d))
        analytic = _dataset_norms(bd.derivative_adapter(kind), w.reshape(n, k, -1), 1)
        fd = _FiniteDifferenceDerivs(kind, n, k).norms(w, 1)
        for a, f, tol in zip(analytic, fd, (1e-12, 1e-7, 1e-5, 1e-3)):
            assert a == pytest.approx(f, rel=tol, abs=tol)

    @pytest.mark.parametrize("k,d,b", [(2, 2, 1), (3, 1, 2), (2, 3, 1)])
    def test_ridge_norms(self, k, d, b):
        n = 3
        kind = aq.ridge_statistic(d, b, 1.0)
        rng = np.random.default_rng(11)
        w = rng.standard_normal((n, k * (d + b)))
        analytic = _dataset_norms(bd.derivative_adapter(kind), w.reshape(n, k, -1), 0)
        fd = _FiniteDifferenceDerivs(kind, n, k).norms(w, 0)
        for a, f, tol in zip(analytic, fd, (1e-12, 1e-7, 1e-5, 1e-3)):
            assert a == pytest.approx(f, rel=tol, abs=tol)

    @pytest.mark.parametrize("k,d,b,rm", [
        (2, 2, 1, _RISK_MOMENTS),
        (3, 1, 2, aq.RiskMoments(1.5, np.array([[0.3], [-0.2]]), np.array([[0.9]]))),
        (2, 3, 1, aq.RiskMoments(1.5, np.array([[0.3, -0.2, 0.1]]),
                                 np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.2]]))),
    ])
    def test_ridgerisk_norms(self, k, d, b, rm):
        n = 3
        kind = aq.ridge_risk_statistic(d, b, 1.0, rm)
        rng = np.random.default_rng(11)
        w = rng.standard_normal((n, k * (d + b)))
        analytic = _dataset_norms(bd.derivative_adapter(kind), w.reshape(n, k, -1), 0)
        fd = _FiniteDifferenceDerivs(kind, n, k).norms(w, 0)
        for a, f, tol in zip(analytic, fd, (1e-12, 1e-7, 1e-5, 1e-3)):
            assert a == pytest.approx(f, rel=tol, abs=tol)


def test_ridge_blocks_match_central_differences():
    # every entry of the three tensors against central differences of
    # the ridge estimate, with the steps and tolerance of acceptance criterion 06
    n, k, d, b, lam, i = 3, 2, 2, 2, 0.7, 1
    rng = np.random.default_rng(12)
    w = rng.standard_normal((n, k * (d + b)))
    blocks = stats._RidgeBlocks(w.reshape(1, n, k, -1), i, d, b, lam)
    kind = aq.ridge_statistic(d, b, lam)
    width = k * (d + b)

    def fd(*entries):
        h = (1e-6, 1e-4, 2e-3)[len(entries) - 1]
        total = np.zeros((d, b))
        for signs in itertools.product((1.0, -1.0), repeat=len(entries)):
            pert = w.copy()
            for a, sgn in zip(entries, signs):
                pert[i, a] += sgn * h
            total += np.prod(signs) * aq.evaluate(kind, pert, k).reshape(d, b)
        return total / (2 * h) ** len(entries)

    def check(analytic, *entries):
        numeric = fd(*entries)
        scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) <= 1e-5 * scale + 1e-7, entries

    np.testing.assert_allclose(blocks.fit[0], aq.evaluate(kind, w, k).reshape(d, b),
                               rtol=1e-12, atol=1e-12)
    for a in range(width):
        check(blocks.d1[0, a], a)
        d3 = blocks.d3(a)[0]
        for c in range(width):
            check(blocks.d2[0, a, c], a, c)
            for e in range(width):
                check(d3[c, e], a, c, e)


class TestAssembly:
    def test_all_zero_alphas(self):
        al = bd.AlphaEstimates(alpha=np.zeros((4, 6)))
        assert bd.assemble_lambdas(al) == (0.0, 0.0)
        assert bd.assemble_omegas(al) == (0.0, 0.0)

    def test_single_surviving_term(self):
        a = np.zeros((4, 6))
        a[1, 5] = 0.3  # only the sixth-moment first-derivative entry
        al = bd.AlphaEstimates(alpha=a)
        lam1, lam2 = bd.assemble_lambdas(al)
        assert lam2 == pytest.approx(0.3**3)
        assert lam1 == 0.0

    def test_average_hand_expansion(self):
        # exact average alphas: alpha[1][m] = sqrt(d/(nk)) =: a, orders 2 and 3
        # vanish, so only the first-derivative products survive each combination
        n, k, d = 100, 4, 1
        a = math.sqrt(d / (n * k))
        v = 1.23  # value-moment entries; enter only multiplied by higher orders
        arr = np.zeros((4, 6))
        arr[0, :] = v
        arr[1, :] = a
        al = bd.AlphaEstimates(alpha=arr)
        lam1, lam2 = bd.assemble_lambdas(al)
        assert lam2 == pytest.approx(a**3)
        assert lam1 == pytest.approx(v * a**2 + a**2)
        om1, om2 = bd.assemble_omegas(al)
        assert om1 == pytest.approx(a**2 + a + a)
        assert om2 == pytest.approx(v * a**2 + a**2)


def _sampled_c3(spec, num_rows, seed):
    """c3 averaged over sampled surrogate rows, as the bound once computed it,
    with its delta-method standard error."""
    rows = sample_surrogate_rows(spec, num_rows, seed).reshape(num_rows, spec.k, spec.d)
    cubes = (np.sum(rows * rows, axis=(1, 2)) / spec.k) ** 3
    mean = cubes.mean()
    se = cubes.std(ddof=1) / math.sqrt(num_rows) / (12.0 * math.sqrt(mean))
    return math.sqrt(mean) / 6.0, se


class TestMomentConstants:
    def test_identity_family_has_zero_conditional_variance(self):
        src = aq.gaussian_source([0.0, 0.0], np.eye(2))
        m = aq.estimate_moments(aq.identity_family(2), src)
        spec = aq.build_surrogate(m, 3, 2, 0.0)
        c1, c2, c3 = bd.moment_constants(m, spec)
        assert c1 == 0.0
        assert c2 > 0 and c3 > 0

    def test_standard_normal_sixth_moment_constant(self):
        src = aq.gaussian_source([0.0], [[1.0]])
        m = aq.estimate_moments(aq.identity_family(1), src)
        spec = aq.build_surrogate(m, 3, 1, 0.0)
        c1, c2, c3 = bd.moment_constants(m, spec)
        assert c2 == pytest.approx(math.sqrt(15) / 6, rel=1e-12)
        # at k=1 the surrogate row norm is the same chi-squared functional, so
        # c3 is the same constant
        assert c3 == pytest.approx(c2, rel=1e-12)

    @pytest.mark.parametrize("fam,mean,cov,k,delta", [
        (aq.swap_family(), [1.0, -0.5], [[1.0, 0.3], [0.3, 2.0]], 3, 0.5),
        (aq.sign_flip_family(1, 0.7), [0.5], [[1.0]], 4, 1.0),
        (aq.random_crop_family(3), [0.2, 0.0, -0.4], np.eye(3), 2, 0.0),
    ])
    def test_exact_c3_matches_sampled_rows(self, fam, mean, cov, k, delta):
        src = aq.gaussian_source(mean, cov)
        m = aq.estimate_moments(fam, src)
        spec = aq.build_surrogate(m, 3, k, delta)
        exact = bd.moment_constants(m, spec)[2]
        sampled, se = _sampled_c3(spec, 200_000, seed=7)
        assert abs(exact - sampled) <= 4 * se

    @pytest.mark.parametrize("fam", [aq.identity_family(1), aq.sign_flip_family(1, 0.95)])
    def test_c3_stable_in_k(self, fam):
        # the normalized row-norm moment stays of constant order as the number
        # of copies grows (factor-2 band holds for families whose cross-copy
        # covariance stays close to the marginal; it is not universal)
        src = aq.gaussian_source([0.0], [[1.0]])
        m = aq.estimate_moments(fam, src)
        vals = []
        for k in (1, 4, 16):
            spec = aq.build_surrogate(m, 3, k, 0.0)
            vals.append(bd.moment_constants(m, spec)[2])
        assert max(vals) <= 2.0 * min(vals)
        assert max(vals) <= 1.0  # O(1) for a unit-scale source


class TestRepeatedConstants:
    def test_point_mass_family(self):
        fam = aq.TransformationFamily([[[0.0, 1.0], [1.0, 0.0]]])
        src = aq.gaussian_source([1.0, 0.0], np.eye(2))
        m1, m2, m3 = bd.repeated_constants(fam, src)
        assert m1 == m2 == m3 == 0.0

    def test_swap_on_unit_mean(self):
        fam = aq.swap_family()
        src = aq.gaussian_source([1.0, 0.0], np.eye(2))
        m1, _, _ = bd.repeated_constants(fam, src)
        assert m1 == pytest.approx(1.0, rel=1e-12)

    def test_monte_carlo_oracle_for_m2(self):
        fam = aq.swap_family()
        src = aq.gaussian_source([1.0, 0.0], [[1.0, 0.3], [0.3, 2.0]])
        _, m2, _ = bd.repeated_constants(fam, src)
        rng = np.random.default_rng(3)
        n_mc = 200_000
        x = src.sample(n_mc, rng)
        mats = fam.matrices
        # conditional second moments per member, estimated from the draws
        g_hat = []
        for a in mats:
            y = x @ a.T
            g_hat.append(y[:, :, None] * y[:, None, :])
        g_hat = np.stack(g_hat)  # (2, N, d, d)
        per_member = g_hat.mean(axis=1)
        mean_g = per_member.mean(axis=0)
        var_entries = ((per_member - mean_g) ** 2).mean(axis=0)
        m2_hat = math.sqrt(var_entries.sum() / 2.0)
        se = 4 * m2 / math.sqrt(n_mc) * 10
        assert m2_hat == pytest.approx(m2, abs=max(se, 0.02))


class TestRhs:
    def test_zero_inputs(self):
        assert bd.theorem_rhs(10, 3, 0.5) == 0.0

    def test_delta_zero_kills_first_term(self):
        with_delta = bd.theorem_rhs(10, 3, 1.0, lambda1=2.0, c1=1.0)
        without = bd.theorem_rhs(10, 3, 0.0, lambda1=2.0, c1=1.0)
        assert without == 0.0
        assert with_delta == pytest.approx(10 * math.sqrt(3) * 2.0)

    def test_repeated_variant_shape(self):
        got = bd.theorem_rhs(5, 4, 0.0, lambda2=0.1, c2=1.0, c3=2.0,
                             omega1=0.5, omega2=0.25, m1=1.0, m2=2.0, m3=3.0,
                             variant="repeated")
        assert got == pytest.approx(5 * 0.5 * 1.0 + 5 * 0.25 * 5.0 + 5 * 8 * 0.1 * 3.0)

    def test_bitwise_stable(self):
        args = dict(lambda1=0.123, lambda2=0.456, c1=0.7, c2=0.8, c3=0.9)
        a = bd.theorem_rhs(7, 2, 0.3, **args)
        b = bd.theorem_rhs(7, 2, 0.3, **args)
        assert a == b

    def test_average_rhs_decays_in_n(self):
        d, k = 1, 4
        src = aq.gaussian_source([0.0], [[1.0]])
        fam = aq.identity_family(1)
        m = aq.estimate_moments(fam, src)
        rhs = {}
        for n in (50, 100, 200):
            spec = aq.build_surrogate(m, n, k, 0.0)
            al = aq.estimate_alpha(aq.average_statistic(d), fam, src, spec, i=0,
                                   num_outer=2, num_grid=3, seed=0)
            lam1, lam2 = bd.assemble_lambdas(al)
            c1, c2, c3 = bd.moment_constants(m, spec)
            rhs[n] = bd.theorem_rhs(n, k, 0.0, lambda1=lam1, lambda2=lam2,
                                    c1=c1, c2=c2, c3=c3)
        assert rhs[100] < rhs[50]
        assert rhs[200] < rhs[100]
        assert rhs[100] / rhs[50] == pytest.approx(1 / math.sqrt(2), rel=1e-6)


def test_bound_report_assembles_consistently():
    stat, fam, src, spec = _average_setup(n=8, k=2, d=1)
    rep = bd.bound_report(stat, fam, src, spec, num_outer=4, num_grid=3, seed=1,
                          include_repeated=True)
    assert rep.rhs_iid == pytest.approx(
        bd.theorem_rhs(8, 2, 0.0, lambda1=rep.lambda1, lambda2=rep.lambda2,
                       c1=rep.c1, c2=rep.c2, c3=rep.c3))
    assert rep.rhs_repeated == pytest.approx(
        bd.theorem_rhs(8, 2, 0.0, lambda2=rep.lambda2, c2=rep.c2, c3=rep.c3,
                       omega1=rep.omega1, omega2=rep.omega2, m1=rep.m1,
                       m2=rep.m2, m3=rep.m3, variant="repeated"))
    # identity family: no map randomness, so the repeated extras vanish
    assert rep.m1 == rep.m2 == rep.m3 == 0.0
