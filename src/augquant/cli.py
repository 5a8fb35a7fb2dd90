"""Config-driven command line: closed-form curves, simulations, comparisons,
bound tables, and the CSV bundles behind the reference figures.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

import argparse
import dataclasses
import functools
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import closedform, config as cfgmod, montecarlo
from .errors import ConfigError, ContractError, NumericalError
from .rng import child_seed
from .statistics import average_statistic
from .surrogate import build_surrogate, estimate_moments

DESK = "desk"
PAPER = "paper"
# how numpy's ValueError starts when it refuses to allocate an array
TOO_BIG = ("array is too big", "Maximum allowed")


def _stage(out_dir):
    """A new temp directory in out_dir, or in its nearest existing ancestor when absent.

    main writes a run's files here and moves them into out_dir only on success,
    so a failed run leaves out_dir as it found it, or absent.
    """
    where = os.path.abspath(out_dir)
    while not os.path.isdir(where):
        if os.path.exists(where):
            raise ConfigError(f"--out {out_dir}: {where} exists and is not a directory")
        where = os.path.dirname(where)
    return tempfile.mkdtemp(prefix=".augquant-stage-", dir=where)


def _publish(stage, out_dir):
    """Move every staged file into out_dir, made if absent, and remove the stage."""
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(os.listdir(stage)):
        os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    os.rmdir(stage)


def _manifest(command, cfg, seed, workers, scale=None):
    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"config_hash = {cfgmod.config_hash(cfg)}",
        f"seed = {seed}",
        f"workers = {workers}",
        f"stream = {montecarlo.STREAM}",
    ]
    if scale is not None:
        lines.append(f"scale = {scale}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# predict: closed-form curves on user grids
# ---------------------------------------------------------------------------

def _cmd_predict(cfg):
    curve, grid, alpha = cfgmod.read(cfg, "predict.curve", "predict.grid", "predict.alpha")
    if curve == "vcurve":
        header = ["s", "variance"]
        rows = [(float(s), closedform.v_curve(s)) for s in grid]
    elif curve == "dwidth":
        header = ["s", f"ci_width_alpha_{alpha:g}"]
        rows = [(float(s), closedform.chisq_ci(s, alpha).width) for s in grid]
    elif curve == "f2var":
        rho = cfgmod.read(cfg, "predict.rho")
        header = ["sigma", f"f2_variance_rho_{rho:g}"]
        rows = [(float(s), closedform.f2_variance(rho, s)) for s in grid]
    elif curve == "toyridge":
        n, mu, c, lam = cfgmod.read(cfg, "predict.n", "predict.mu", "predict.c",
                                    "predict.lambda")
        header = ["sigma", f"toy_ridge_variance_n_{n}_mu_{mu:g}_c_{c:g}_lambda_{lam:g}"]
        rows = [(float(s), closedform.toy_ridge_variance(n, mu, s, c, lam)) for s in grid]
    elif curve == "theta":
        source = cfgmod.source_from_config(cfg)
        family = cfgmod.family_from_config(cfg)
        header = ["k", "theta_average"]
        if not all(g.is_integer() and g >= 1 for g in grid):
            raise ConfigError(f"predict.grid must list integers k at least 1, got {grid.tolist()}")
        # the iid_aug law reads neither n nor delta, so n = 1 and delta = 0 change no row
        kind = average_statistic(source.dim)
        rows = [(k, closedform.theta_theory(kind, family, source, "iid_aug", 1, k, 0.0))
                for k in map(int, grid)]
    else:
        raise ConfigError(f"unknown predict.curve {curve!r}")
    return {f"predict_{curve}.csv": cfgmod.csv_text(header, rows)}


# ---------------------------------------------------------------------------
# simulate / compare / bounds: thin wrappers over the engine
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg):
    result = montecarlo.run_experiment(cfgmod.experiment_from_config(cfg))
    return {"result.csv": cfgmod.result_csv_text(result, cfg)}


def _cmd_compare(cfg):
    protocols = [p.strip() for p in cfgmod.read(cfg, "compare.protocols").split(",")
                 if p.strip()]
    config = cfgmod.experiment_from_config(cfg)
    report = montecarlo.compare_protocols(config, protocols)
    rows = []
    for proto, res in report.results.items():
        rows.append((proto, float(res.var_norm), float(res.se_of_variance),
                     float(res.std_of_first_coord), float(res.empirical_ci_width)))
    footer = [f"theta_hat = {cfgmod.fmt(report.theta_hat)}",
              f"theta_se = {cfgmod.fmt(report.theta_se)}"]
    if report.theta_theory is not None:
        footer.append(f"theta_theory = {cfgmod.fmt(report.theta_theory)}")
    if report.degenerate:
        footer.append("degenerate = true  # zero augmented variance")
    return {"compare.csv": cfgmod.csv_text(
        ["protocol", "var_norm", "var_norm_se", "std_first_coord", "ci_width"], rows, footer)}


def _cmd_bounds(cfg):
    config = cfgmod.experiment_from_config(cfg)
    moments = estimate_moments(config.family, config.source)
    spec = build_surrogate(moments, config.n, config.k, config.delta)
    num_outer, num_grid, include_repeated = cfgmod.read(
        cfg, "bounds.num_outer", "bounds.num_grid", "bounds.include_repeated")
    report = bounds_mod.bound_report(
        config.statistic, config.family, config.source, spec, num_outer=num_outer,
        num_grid=num_grid, seed=config.seed, moments=moments, include_repeated=include_repeated)
    # BoundReport's fields: the i.i.d. bound's are the row, rhs_iid as rhs, and the repeated
    # bound's, which default to None (set only with include_repeated), footer lines
    fields = dataclasses.fields(report)
    header = ["rhs" if f.name == "rhs_iid" else f.name for f in fields if f.default is not None]
    row = [getattr(report, f.name) for f in fields if f.default is not None]
    footer = [f"{f.name} = {cfgmod.fmt(getattr(report, f.name))}" for f in fields
              if f.default is None and getattr(report, f.name) is not None]
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join((v if isinstance(v, str) else format(v, ".6g")).ljust(w)
                    for v, w in zip(row, widths)))
    return {"bounds.csv": cfgmod.csv_text(header, [tuple(row)], footer)}


# ---------------------------------------------------------------------------
# figure: CSV bundles behind the reference figures, each cell a config run by _run_cells
# ---------------------------------------------------------------------------

# the regression setups of fig1 and fig4: a source and its paired family, as config keys
CROP = {"source.kind": "regression", "source.mean": [1.0, 1.0],
        "source.cov": [1.0, 0.5, 0.5, 1.0], "source.noise_scale": 1.0,
        "family.kind": "random_crop", "family.dim": 2, "family.paired": True}
ROTATION = {"source.kind": "regression", "source.mean": [2.0] * 4,
            "source.cov": np.kron(np.eye(2), [[1.0, 0.9], [0.9, 1.0]]).ravel().tolist(),
            "source.noise_scale": 1.0, "family.kind": "cyclic_rotation", "family.dim": 4,
            "family.paired": True}


def _run_cells(seed, cells, names):
    """Each statistic in names on one draw of each cell, a config without seed or
    statistic.kind: one list of results per cell, in the order of names, and the
    text of cells.txt.

    Cell c, in run order, runs on the seed child_seed(seed, c).  cells.txt echoes
    every cell as a ``# cell c`` line and then its config with that seed and
    statistic.kind names[0]; ``augquant simulate`` on a block, with statistic.kind
    set to a row's statistic, reruns that row's draw."""
    results, echo = [], []
    for c, cell in enumerate(cells):
        cell = {**cell, "seed": child_seed(seed, c), "statistic.kind": names[0]}
        config = cfgmod.experiment_from_config(cell)
        kinds = [cfgmod.statistic_from_config({**cell, "statistic.kind": name}, config.source)
                 for name in names]
        results.append(montecarlo.simulate(config, kinds))
        echo.append(f"# cell {c}\n" + cfgmod.config_text(cell))
    return results, "".join(echo)


def _std_with_se(result):
    std = result.std_of_first_coord
    se = result.se_of_first_coord_var / (2 * std) if std > 0 else 0.0
    return std, se


def _fig1(scale, seed):
    points = 500 if scale == DESK else 2000
    protocols = ("iid_aug", "unaugmented")
    results, cells = _run_cells(seed, [
        {**CROP, "protocol": proto, "n": 200, "k": 50, "replicates": points,
         "statistic.d": 4, "statistic.lambda": 1.0} for proto in protocols], ("average", "ridge"))
    rows_avg, rows_ridge = [], []
    for proto, (average, ridge) in zip(protocols, results):
        rows_avg.extend((proto, float(row[0]), float(row[1])) for row in average.samples)
        # ridge scatter uses the two diagonal entries of the estimate: cropping zeroes
        # every off-diagonal entry identically, which would degenerate the cloud
        rows_ridge.extend((proto, float(row[0]), float(row[3])) for row in ridge.samples)
    header = ["protocol", "coord1", "coord2"]
    return {"cells.txt": cells, "fig1_average.csv": cfgmod.csv_text(header, rows_avg),
            "fig1_ridge.csv": cfgmod.csv_text(header, rows_ridge)}


def _fig2(scale, seed):
    reps = 2000 if scale == DESK else 10_000
    grid = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    results, cells = _run_cells(seed, [
        {"source.kind": "gaussian", "source.mean": [0.0], "source.cov": [s * s],
         "family.kind": "identity", "family.dim": 1, "protocol": "surrogate", "delta": 1.0,
         "n": 50, "k": 1, "replicates": reps} for s in grid], ("expnegchisq",))
    rows = [(float(s), *_std_with_se(res), math.sqrt(closedform.v_curve(s)),
             res.empirical_ci_width, closedform.chisq_ci(s, 0.05).width)
            for s, (res,) in zip(grid, results)]
    return {"cells.txt": cells, "fig2.csv": cfgmod.csv_text(
        ["s", "std_sim", "std_se", "std_theory", "width_sim", "width_theory"],
        rows, [f"replicates = {reps}"])}


def _fig3(scale, seed):
    reps = 2000 if scale == DESK else 10_000
    rho, sigma = -0.5, 1.0
    ks = (1, 5, 20, 50)
    # the swap family: the identity or the coordinate swap, with equal weights
    results, cells = _run_cells(seed, [
        {"source.kind": "gaussian", "source.mean": [0.0, 0.0],
         "source.cov": [sigma * sigma * v for v in (1.0, rho, rho, 1.0)],
         "family.kind": "finite_uniform", "family.member0.matrix": [1.0, 0.0, 0.0, 1.0],
         "family.member1.matrix": [0.0, 1.0, 1.0, 0.0], "protocol": "iid_aug", "n": 100,
         "k": k, "replicates": reps, "statistic.d": 2} for k in ks], ("expnegchisq",))
    std_theory = math.sqrt(closedform.f2_variance(rho, sigma))
    rows = [(k, *_std_with_se(res), std_theory) for k, (res,) in zip(ks, results)]
    return {"cells.txt": cells, "fig3.csv": cfgmod.csv_text(
        ["k", "std_sim", "std_se", "std_theory"], rows, [f"replicates = {reps}"])}


def _fig4(scale, seed):
    reps = 2000 if scale == DESK else 10_000
    lam = 1.0
    runs = [(fam_name, setup, proto, k)
            for fam_name, setup in (("cropping", CROP), ("rotation", ROTATION))
            for proto, ks in (("unaugmented", (1,)), ("iid_aug", (1, 2, 5, 10, 20, 50)))
            for k in ks]
    results, cells = _run_cells(seed, [
        {**setup, "protocol": proto, "n": 200, "k": k, "replicates": reps,
         "statistic.lambda": lam} for _, setup, proto, k in runs], ("ridge", "ridgerisk"))
    # one draw per cell gives both quantities; each family lists its estimator rows first
    rows = [(fam_name, quantity, proto, k, *_std_with_se(res[j]))
            for fam_name in ("cropping", "rotation")
            for j, quantity in enumerate(("estimator", "risk"))
            for (cell_fam, _, proto, k), res in zip(runs, results) if cell_fam == fam_name]
    return {"cells.txt": cells, "fig4.csv": cfgmod.csv_text(
        ["family", "quantity", "protocol", "k", "std_sim", "std_se"],
        rows, [f"replicates = {reps}", f"lambda = {lam:g}"])}


def _fig5(scale, seed):
    reps = 2000 if scale == DESK else 10_000
    n, mu, c, lam = 100, 1.0, 1.0, 4.0
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    results, cells = _run_cells(seed, [
        {"source.kind": "regression", "source.mean": [mu], "source.cov": [s * s],
         "source.noise_scale": c, "family.kind": "identity", "family.dim": 2,
         "protocol": "iid_aug", "n": n, "k": 1, "replicates": reps, "statistic.lambda": lam}
        for s in grid], ("ridge", "ridgerisk"))
    rows = [(float(s), math.sqrt(closedform.toy_ridge_variance(n, mu, s, c, 0.0)),
             *_std_with_se(est), *_std_with_se(risk)) for s, (est, risk) in zip(grid, results)]
    return {"cells.txt": cells, "fig5.csv": cfgmod.csv_text(
        ["sigma", "std_theory_lam0", "std_sim_lam4", "std_se_lam4", "risk_std_sim_lam4",
         "risk_std_se_lam4"],
        rows, [f"replicates = {reps}", f"n = {n}", f"mu = {mu:g}", f"c = {c:g}",
               f"lambda = {lam:g}"])}


FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}
# command -> what runs it: a function from the config to its files, {name: text}, or FIGURES
COMMANDS = {"predict": _cmd_predict, "simulate": _cmd_simulate, "compare": _cmd_compare,
            "bounds": _cmd_bounds, "figure": FIGURES}


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="augquant",
        description="Quantify how data augmentation changes estimator mean, variance, "
                    "and confidence regions: closed forms, Gaussian surrogates, and "
                    "seeded Monte Carlo verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in COMMANDS.items():
        p = sub.add_parser(name)
        if run is not FIGURES:
            p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=20240 if run is FIGURES else None,
                       help="seed override")
        p.add_argument("--workers", type=int, default=1,
                       help="worker count, recorded in manifest.txt (default: 1)")
        if run is FIGURES:
            p.add_argument("--name", required=True, choices=FIGURES)
            p.add_argument("--scale", choices=(DESK, PAPER), default=DESK)
    return parser


@functools.cache
def _parser():
    """``build_parser()``, built on the first ``main`` call and reused by every later one."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    stage = None
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        run, scale = COMMANDS[args.command], getattr(args, "scale", None)
        if run is FIGURES:  # argparse has checked the name against FIGURES
            command, cfg = f"{args.command}:{args.name}", {"figure.name": args.name}
            run = lambda run_cfg: FIGURES[args.name](scale, run_cfg["seed"])
        else:
            command, cfg = args.command, cfgmod.read_config(args.config)
        # --seed when given (a figure's has a default), else the config's: an int in the
        # stream-key range; a config without one (predict draws nothing) records seed 0
        given = cfg if args.seed is None else {"seed": args.seed}
        seed = cfgmod.read({"seed": 0, **given}, "seed")
        stage = _stage(args.out)  # made first: a bad --out is refused before any computing
        files = run({**cfg, "seed": seed} if "seed" in given else cfg)
        files["manifest.txt"] = _manifest(command, cfg, seed, args.workers, scale)
        for name, text in files.items():
            cfgmod.atomic_write(os.path.join(stage, name), text)
        _publish(stage, args.out)
        return 0
    except (ConfigError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(TOO_BIG):
            raise
        print(f"numerical failure: the run's arrays cannot be allocated: {exc}", file=sys.stderr)
        return 3
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
