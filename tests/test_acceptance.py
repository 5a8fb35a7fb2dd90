"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line (visible with -s or in
captured output) after its assertions succeed.  Tolerances are pinned here:
Monte Carlo comparisons use 4 jackknife standard errors unless the criterion
states otherwise, coverage bands use the stated interval, significance claims
use 3 standard errors.
"""

import math

import numpy as np
import pytest

import augquant as aq
from augquant import statistics as st
from augquant.closedform import f2_variance, toy_ridge_variance, v_curve
from augquant.core import augment_iid, augment_repeated
from augquant.montecarlo import _jackknife_var_norm_se
from augquant.rng import substream

EXCHANGEABLE = np.array([[1.0, -0.5], [-0.5, 1.0]])


def _report(num, detail):
    print(f"[criterion {num:02d}] PASS - {detail}")


def _std_se(result):
    std = result.std_of_first_coord
    return std, (result.se_of_first_coord_var / (2 * std) if std > 0 else 0.0)


def test_criterion_01_surrogate_law():
    src = aq.gaussian_source([0.0, 0.0], EXCHANGEABLE)
    fam = aq.swap_family()
    moments = aq.estimate_moments(fam, src)
    spec = aq.build_surrogate(moments, n=1, k=3, delta=0.0)
    n_rows = 100_000
    rows = aq.sample_surrogate(
        aq.SurrogateSpec(n=n_rows, k=3, d=2, delta=0.0, mean_block=spec.mean_block,
                         diag_block=spec.diag_block, offdiag_block=spec.offdiag_block),
        seed=20_101)
    theory_cov = spec.full_covariance()
    emp_cov = np.cov(rows, rowvar=False)
    diag = np.diag(theory_cov)
    cov_se = np.sqrt((np.outer(diag, diag) + theory_cov**2) / n_rows)
    assert np.all(np.abs(emp_cov - theory_cov) <= 4 * cov_se)
    mean_se = np.sqrt(diag / n_rows)
    assert np.all(np.abs(rows.mean(axis=0) - spec.full_mean()) <= 4 * mean_se)

    w_hi = np.linalg.eigvalsh(moments.sigma11 - moments.mean_var_given_map)
    w_lo = np.linalg.eigvalsh(moments.mean_var_given_map - moments.sigma12)
    assert w_hi.min() >= -1e-8 and w_lo.min() >= -1e-8
    _report(1, f"6x6 block covariance within 4 SE at {n_rows} rows; "
               f"ordering eigmins {w_hi.min():.2e}, {w_lo.min():.2e}")


def test_criterion_02_variance_curve():
    worst = 0.0
    for i, s in enumerate((0.25, 0.5, 1.0, 2.0)):
        src = aq.gaussian_source([0.0], [[s * s]])
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(1),
                                  protocol="surrogate",
                                  statistic=aq.exp_neg_chisq_statistic(),
                                  n=50, k=1, replicates=10_000, seed=20_200 + i,
                                  delta=1.0)
        res = aq.run_experiment(cfg)
        z = abs(res.var_norm - v_curve(s)) / res.se_of_variance
        worst = max(worst, z)
        assert z <= 4.0
    # non-monotone shape of the curve itself: rises from zero to an interior
    # peak near s = 1.55, then decays (the stated grid {0.25, 0.5, 1, 2} lies on
    # the rising flank, so the peak must be bracketed more widely)
    grid = np.linspace(0.0, 20.0, 4001)
    vals = np.array([v_curve(s) for s in grid])
    peak = float(grid[np.argmax(vals)])
    assert 0.0 < peak < 20.0
    assert v_curve(peak) > v_curve(0.25)
    assert v_curve(peak) > v_curve(5.0) > v_curve(50.0)
    _report(2, f"simulated variance matches the curve at 4 scales (worst z={worst:.2f}); "
               f"interior maximum at s={peak:.2f} confirms non-monotonicity")


def test_criterion_03_detrimental_augmentation():
    # closed-form grid search for a pair with smaller augmented scale but
    # larger augmented variance
    grid = np.linspace(0.05, 8.0, 160)
    vv = np.array([v_curve(s) for s in grid])
    found = None
    for ia in range(len(grid)):
        for iu in range(ia + 1, len(grid)):
            if vv[ia] > vv[iu]:
                found = (grid[ia], grid[iu])
                break
        if found:
            break
    assert found is not None
    s_aug, s_un = 1.5, 5.0
    assert s_aug < s_un and v_curve(s_aug) > v_curve(s_un)

    # realize the pair: sign flips with keep-probability p give a cross-copy
    # scale of |2p-1| times the marginal scale
    p_keep = 0.5 * (1.0 + s_aug / s_un)
    src = aq.gaussian_source([0.0], [[s_un**2]])
    fam = aq.sign_flip_family(1, p_keep)
    m = aq.estimate_moments(fam, src)
    assert math.sqrt(m.sigma12[0, 0]) == pytest.approx(s_aug, rel=1e-12)
    cfg = aq.ExperimentConfig(source=src, family=fam, protocol="surrogate",
                              statistic=aq.exp_neg_chisq_statistic(), n=50, k=2,
                              replicates=10_000, seed=20_300, delta=1.0)
    rep = aq.compare_protocols(cfg, ["surrogate", "unaugmented"])
    assert rep.theta_hat + 3 * rep.theta_se < 1.0
    _report(3, f"sigma_aug={s_aug} < sigma_unaug={s_un} yet V larger; "
               f"theta_hat={rep.theta_hat:.4f} (se {rep.theta_se:.4f}) below 1 at 3 SE")


def test_criterion_04_two_coordinate_curve():
    rho, sigma, n = -0.5, 1.0, 100
    std_theory = math.sqrt(f2_variance(rho, sigma))
    assert std_theory == pytest.approx(0.402195, abs=5e-7)
    src = aq.gaussian_source([0.0, 0.0], sigma**2 * np.array([[1, rho], [rho, 1]]))
    fam = aq.swap_family()
    gaps, last = {}, None
    for i, k in enumerate((1, 5, 20, 50)):
        cfg = aq.ExperimentConfig(source=src, family=fam, protocol="iid_aug",
                                  statistic=aq.exp_neg_chisq_2d_statistic(),
                                  n=n, k=k, replicates=2000, seed=20_400 + i)
        res = aq.run_experiment(cfg)
        std, se = _std_se(res)
        gaps[k] = abs(std - std_theory)
        last = (std, se)
    assert gaps[50] <= 4 * last[1]
    assert gaps[1] > gaps[50]
    _report(4, f"std at k=50 is {last[0]:.4f} vs theory {std_theory:.4f} "
               f"(4 SE = {4 * last[1]:.4f}); gap shrinks from {gaps[1]:.4f} at k=1")


def test_criterion_05_average_confidence_intervals():
    # coverage of both interval rules at nominal 95%
    src = aq.gaussian_source([0.3], [[1.3]])
    fam = aq.sign_flip_family(1, 0.9)
    coverages = {}
    for i, proto in enumerate(("iid_aug", "unaugmented")):
        cfg = aq.ExperimentConfig(source=src, family=fam, protocol=proto,
                                  statistic=aq.average_statistic(1), n=50, k=3,
                                  replicates=2000, seed=20_500 + i, alpha=0.05)
        p, se, _ = aq.coverage_check(cfg, "average_ci")
        coverages[proto] = p
        assert 0.935 <= p <= 0.965

    # benefit ratio for the identity/swap family on the negatively correlated
    # source matches the closed form and shows the shrinkage direction
    src2 = aq.gaussian_source([0.0, 0.0], EXCHANGEABLE)
    cfg2 = aq.ExperimentConfig(source=src2, family=aq.swap_family(),
                               protocol="iid_aug", statistic=aq.average_statistic(2),
                               n=100, k=5, replicates=10_000, seed=20_510)
    rep = aq.compare_protocols(cfg2, ["iid_aug", "unaugmented"])
    assert abs(rep.theta_hat - rep.theta_theory) <= 3 * rep.theta_se
    assert rep.theta_hat - 3 * rep.theta_se > 1.0
    _report(5, f"coverage {coverages['iid_aug']:.3f}/{coverages['unaugmented']:.3f} in "
               f"[0.935, 0.965]; theta_hat={rep.theta_hat:.3f} matches "
               f"{rep.theta_theory:.3f} within 3 SE and exceeds 1")


def test_criterion_06_ridge_derivative_formulas():
    n, k, d, b, lam = 3, 2, 2, 2, 1.0
    h1, h2, h3 = 1e-6, 1e-4, 2e-3
    rng = np.random.default_rng(20_600)
    rel_tol = 1e-5

    def col(j, c, block):
        return j * (d + b) + (c if block == "v" else d + c)

    def fd(vals, i, entries):
        # central difference of the full estimate along the listed entries
        order = len(entries)
        h = (h1, h2, h3)[order - 1]
        total = np.zeros((d, b))
        for signs in np.ndindex(*(2,) * order):
            pert = vals.copy()
            coeff = 1.0
            for (j, c, block), sgn in zip(entries, signs):
                delta = h if sgn == 0 else -h
                coeff *= 1.0 if sgn == 0 else -1.0
                pert[i, col(j, c, block)] += delta
            total += coeff * aq.ridge_fit(pert, k, d, b, lam)
        return total / (2 * h) ** order

    checked = 0
    for inst in range(20):
        vals = rng.standard_normal((n, k * (d + b)))
        i = int(rng.integers(n))
        j1, j2, j3 = (int(rng.integers(k)) for _ in range(3))
        l1, l2, l3 = (int(rng.integers(d)) for _ in range(3))
        ly = int(rng.integers(b))
        cases = [
            ("dY", (j1,), (ly,), [(j1, ly, "y")]),
            ("dV", (j1,), (l1,), [(j1, l1, "v")]),
            ("dYdY", (j1, j2), (ly, l1 % b), [(j1, ly, "y"), (j2, l1 % b, "y")]),
            ("dYdV", (j1, j2), (l1, ly), [(j1, l1, "v"), (j2, ly, "y")]),
            ("dVdV", (j1, j2), (l1, l2), [(j1, l1, "v"), (j2, l2, "v")]),
            ("dYdVdV", (j1, j2, j3), (l1, l2, ly),
             [(j1, l1, "v"), (j2, l2, "v"), (j3, ly, "y")]),
            ("dVdVdV", (j1, j2, j3), (l1, l2, l3),
             [(j1, l1, "v"), (j2, l2, "v"), (j3, l3, "v")]),
        ]
        for which, slots, coords, entries in cases:
            analytic = aq.ridge_derivative(vals, k, d, b, lam, which, i, slots, coords)
            numeric = fd(vals, i, entries)
            scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
            # absolute floor covers identically-zero tensors, where the central
            # difference returns pure rounding noise (~1e-9)
            assert np.linalg.norm(analytic - numeric) <= rel_tol * scale + 1e-7, which
            checked += 1
    _report(6, f"{checked} derivative tensors across 20 instances match central "
               f"differences at relative {rel_tol:g}")


def test_criterion_07_toy_ridge_variance():
    n, mu, c = 100, 1.0, 1.0
    worst = 0.0
    for i, sigma in enumerate((0.5, 1.0, 2.0)):
        src = aq.regression_source([mu], [[sigma**2]], c)
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(2),
                                  protocol="iid_aug", statistic=aq.ridge_statistic(1, 1, 0.0),
                                  n=n, k=1, replicates=10_000, seed=20_700 + i)
        res = aq.run_experiment(cfg)
        theory = toy_ridge_variance(n, mu, sigma, c, 0.0)
        z = abs(res.var_norm - theory) / res.se_of_variance
        worst = max(worst, z)
        assert z <= 4.0

    src = aq.regression_source([mu], [[0.01**2]], c)
    cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(2),
                              protocol="iid_aug", statistic=aq.ridge_statistic(1, 1, 4.0),
                              n=n, k=1, replicates=10_000, seed=20_710)
    res = aq.run_experiment(cfg)
    limit = mu**2 * c**2 / (n * (4.0 + mu**2) ** 2)
    assert abs(res.var_norm - limit) <= 4 * res.se_of_variance

    def sim_var(sigma, seed):
        src = aq.regression_source([mu], [[sigma**2]], c)
        cfg = aq.ExperimentConfig(source=src, family=aq.identity_family(2),
                                  protocol="iid_aug", statistic=aq.ridge_statistic(1, 1, 0.0),
                                  n=n, k=1, replicates=10_000, seed=seed)
        return aq.run_experiment(cfg).var_norm

    v1, v10 = sim_var(1.0, 20_720), sim_var(10.0, 20_721)
    assert v10 < v1
    _report(7, f"quadrature matched at 3 scales (worst z={worst:.2f}); small-scale "
               f"limit {limit:g} matched; decay direction {v1:.2e} -> {v10:.2e}")


def test_criterion_08_opposite_effects_for_ridge():
    lam, n, reps = 1.0, 200, 4000
    src = aq.regression_source([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]], 1.0)
    fam = aq.random_crop_family(2).paired(2)
    rm = st.risk_moments_from_source(src)
    summary = {}
    for name, kind in (("estimator", aq.ridge_statistic(2, 2, lam)),
                       ("risk", aq.ridge_risk_statistic(2, 2, lam, rm))):
        runs = {}
        for proto, k, seed in (("iid_aug", 1, 20_800), ("iid_aug", 50, 20_801),
                               ("unaugmented", 1, 20_802)):
            cfg = aq.ExperimentConfig(source=src, family=fam, protocol=proto,
                                      statistic=kind, n=n, k=k, replicates=reps,
                                      seed=seed)
            runs[(proto, k)] = _std_se(aq.run_experiment(cfg))
        summary[name] = runs

    # each k-trend sign is significant at 3 SE (both slopes are negative here:
    # averaging over more copies concentrates the augmented objective)
    trends = {}
    for name, runs in summary.items():
        (s1, e1), (s50, e50) = runs[("iid_aug", 1)], runs[("iid_aug", 50)]
        diff = s50 - s1
        se = math.hypot(e1, e50)
        assert abs(diff) > 3 * se
        trends[name] = diff

    # the opposite effects of augmenting at k=50, relative to not augmenting:
    # the estimator's spread shrinks while the risk's spread inflates
    (eu, eeu), (ea, eea) = summary["estimator"][("unaugmented", 1)], \
        summary["estimator"][("iid_aug", 50)]
    (ru, reu), (ra, rea) = summary["risk"][("unaugmented", 1)], \
        summary["risk"][("iid_aug", 50)]
    est_effect = ea - eu
    risk_effect = ra - ru
    assert est_effect < -3 * math.hypot(eeu, eea)
    assert risk_effect > 3 * math.hypot(reu, rea)
    _report(8, f"k-trends significant (est {trends['estimator']:+.4f}, risk "
               f"{trends['risk']:+.4f}); augmentation shifts estimator spread "
               f"{est_effect:+.4f} and risk spread {risk_effect:+.4f} in opposite directions")


def test_criterion_09_repeated_augmentation_shift():
    mu = np.array([1.0, 0.0])
    w_dir = np.array([1.0, 0.0])
    fam = aq.swap_family()
    src = aq.gaussian_source(mu, np.eye(2))
    shift = aq.repeated_toy_covariance(fam, mu, w_dir)
    assert shift == pytest.approx(0.25)
    reps = 10_000

    def simulated_variance(repeated, sign, seed):
        vals = np.empty((reps, 1))
        augment = augment_repeated if repeated else augment_iid
        for r in range(reps):
            rng = substream(seed, r)
            data = src.sample(2, rng)
            aug = augment(data, fam, 1, int(rng.integers(2**63)))
            cells = aug.cells()
            vals[r, 0] = (cells[0, 0] + sign * cells[1, 0]) @ w_dir
        var = float(np.var(vals[:, 0], ddof=1))
        se = _jackknife_var_norm_se(vals)[1]
        return var, se

    details = []
    for sign, label in ((1.0, "sum"), (-1.0, "difference")):
        v_iid, se_iid = simulated_variance(False, sign, 20_900)
        v_rep, se_rep = simulated_variance(True, sign, 20_901)
        delta = v_rep - v_iid
        expected = 2.0 * shift * sign
        assert abs(delta - expected) <= 4 * math.hypot(se_iid, se_rep)
        details.append(f"{label}: {delta:+.3f} vs {expected:+.3f}")
    _report(9, "; ".join(details))


def test_criterion_10_smooth_max_sandwich():
    rng = np.random.default_rng(21_000)
    checked = 0
    for d_n in (2, 16, 64):
        for _ in range(1000):
            n, k = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            vals = 2.0 * rng.standard_normal((n, k * d_n))
            hard = aq.eval_hard_max(vals, k, d_n)
            for t in (1.0, 10.0, 100.0):
                smooth = aq.eval_smooth_max(vals, k, d_n, t)
                assert 0.0 <= smooth - hard <= 1.0 / t + 1e-12
                checked += 1
    _report(10, f"{checked} relaxation gaps inside [0, 1/t]")


def test_criterion_11_noise_stability_exactness():
    d, k = 2, 4
    src = aq.gaussian_source([0.0] * d, np.eye(d))
    fam = aq.identity_family(d)
    m = aq.estimate_moments(fam, src)
    stat = aq.average_statistic(d)
    rhs = {}
    for n in (50, 100):
        spec = aq.build_surrogate(m, n, k, 0.0)
        al = aq.estimate_alpha(stat, fam, src, spec, i=0, num_outer=8,
                               num_grid=5, seed=21_100)
        expected = math.sqrt(d) / math.sqrt(n * k)
        for mm in range(1, 7):
            assert al[1, mm] == pytest.approx(expected, rel=1e-10)
            assert al[2, mm] <= 1e-8 and al[3, mm] <= 1e-8
        lam1, lam2 = aq.assemble_lambdas(al)
        c1, c2, c3 = aq.moment_constants(m, spec)
        rhs[n] = aq.theorem_rhs(n, k, 0.0, lambda1=lam1, lambda2=lam2,
                                c1=c1, c2=c2, c3=c3)
    assert rhs[100] < rhs[50]
    _report(11, f"first-derivative moments exact to 1e-10; bound decreases "
                f"{rhs[50]:.4f} -> {rhs[100]:.4f} when n doubles")


def test_criterion_12_determinism():
    src = aq.gaussian_source([0.0, 0.0], EXCHANGEABLE)
    fam = aq.swap_family()

    checks = []
    for proto in ("iid_aug", "surrogate", "repeated_aug"):
        cfg = aq.ExperimentConfig(source=src, family=fam, protocol=proto,
                                  statistic=aq.average_statistic(2), n=10, k=3,
                                  replicates=300, seed=21_200, delta=0.5)
        base = aq.run_experiment(cfg, workers=1).samples.tobytes()
        assert aq.run_experiment(cfg, workers=1).samples.tobytes() == base
        assert aq.run_experiment(cfg, workers=4).samples.tobytes() == base
        checks.append(proto)

    spec = aq.build_surrogate(aq.estimate_moments(fam, src), 6, 2, 0.0)
    assert aq.sample_surrogate(spec, 7).tobytes() == aq.sample_surrogate(spec, 7).tobytes()
    a1 = aq.estimate_alpha(aq.average_statistic(2), fam, src, spec, i=0,
                           num_outer=4, num_grid=3, seed=3)
    a2 = aq.estimate_alpha(aq.average_statistic(2), fam, src, spec, i=0,
                           num_outer=4, num_grid=3, seed=3)
    assert a1.alpha.tobytes() == a2.alpha.tobytes()

    cfg = aq.ExperimentConfig(source=aq.gaussian_source([0.0], [[1.0]]),
                              family=aq.identity_family(1), protocol="surrogate",
                              statistic=aq.exp_neg_chisq_statistic(), n=20, k=1,
                              replicates=500, seed=21_201)
    p1 = aq.coverage_check(cfg, "chisq_ci")
    p2 = aq.coverage_check(cfg, "chisq_ci")
    assert p1[0] == p2[0]
    _report(12, f"bitwise-identical reruns across worker counts for {checks}, "
                "surrogate sampling, stability estimates, and coverage checks")
