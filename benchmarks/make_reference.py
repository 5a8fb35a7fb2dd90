"""Regenerate benchmarks/reference.json, the stored oracle references.

    python3 benchmarks/make_reference.py

mc_ridge: mean, Frobenius covariance norm and covariance[0, 0] of the ridge
estimate from one long run of the workload's law, with their standard errors.

bounds: for each bounds.csv value of each bounds run, its value over
BOUND_SEEDS seeds disjoint from the benchmark's.  Values that are exact
functions of the moments (c1, c2, m1..m3) are stored as they are.  For the
Monte Carlo values the median and the standard deviation of the log over
those seeds are stored, the latter widened by the median's own standard
error; the oracle allows Z_LIMIT of them.
"""

import dataclasses
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from augquant import bounds, config, montecarlo, surrogate  # noqa: E402

EXACT = ("c1", "c2", "m1", "m2", "m3")
MONTE_CARLO = ("lambda1", "lambda2", "c3", "omega1", "omega2")
BOUND_SEEDS = 60
RIDGE_REPLICATES = 20_000


def ridge_reference(replicates):
    inv = wl.mc_ridge(0, 1).invocations[0]
    cfg = config.parse_config_text(inv.config)
    exp = config.experiment_from_config(cfg, seed_override=wl.derive_seed("reference",
                                                                          "mc_ridge", 0))
    exp = dataclasses.replace(exp, replicates=replicates)
    res = montecarlo.run_experiment(exp, workers=1)
    cov = res.covariance
    return {"replicates": replicates,
            "mean": [float(v) for v in res.mean],
            "mean_se": [float(math.sqrt(cov[j, j] / replicates)) for j in range(4)],
            "var_norm": float(res.var_norm), "var_norm_se": float(res.se_of_variance),
            "cov00": float(cov[0, 0]), "cov00_se": float(res.se_of_first_coord_var)}


def bound_values(inv, seed):
    cfg = config.parse_config_text(inv.config)
    exp = config.experiment_from_config(cfg, seed_override=seed)
    moments = surrogate.estimate_moments(exp.family, exp.source)
    spec = surrogate.build_surrogate(moments, exp.n, exp.k, exp.delta)
    rep = bounds.bound_report(exp.statistic, exp.family, exp.source, spec, delta=exp.delta,
                              num_outer=inv.params["num_outer"], num_grid=wl.BOUNDS_GRID,
                              seed=exp.seed, moments=moments, include_repeated=True)
    return {key: float(getattr(rep, key)) for key in EXACT + MONTE_CARLO}


def bounds_reference(num_seeds):
    out = {}
    for inv in wl.bounds(0, 1).invocations:
        runs = [bound_values(inv, wl.derive_seed("reference", inv.name, s))
                for s in range(num_seeds)]
        exact, monte_carlo, worst = {}, {}, {}
        for key in EXACT:
            exact[key] = statistics.median(r[key] for r in runs)
        for key in MONTE_CARLO:
            logs = [math.log(r[key]) for r in runs]
            sd = statistics.stdev(logs)
            # the median's standard error is about 1.25 sd / sqrt(N)
            log_sd = math.hypot(sd, 1.2533 * sd / math.sqrt(num_seeds))
            median = math.exp(statistics.median(logs))
            monte_carlo[key] = [median, log_sd]
            worst[key] = max(abs(v - math.log(median)) for v in logs) / log_sd
        out[inv.params["statistic"]] = {"exact": exact, "monte_carlo": monte_carlo,
                                        "worst_z_over_seeds": worst}
    return out


def main():
    ref = {"mc_ridge": ridge_reference(RIDGE_REPLICATES),
           "bounds": bounds_reference(BOUND_SEEDS),
           "bounds_seeds": BOUND_SEEDS}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
