"""Benchmark workloads: seeded config generation and output oracles.

Each workload is a list of CLI invocations.  Its config files are generated
from the benchmark's seed argument; the program sees only those files.  The
oracles depend on the law of the outputs, never on the order in which the
program consumes its random streams, so they keep holding when the engine is
restructured (batched replicates, another stream layout).
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# mc_small: the README's 2-d Gaussian under the coordinate swap
SMALL_RHO = -0.5
SMALL_N, SMALL_K, SMALL_R = 100, 5, 2000
SMALL_PROTOCOLS = ("iid_aug", "repeated_aug", "surrogate", "repeated_surrogate", "unaugmented")
# fig5's exact toy-ridge variance (lambda = 0), the one path through quadrature
TOY_N, TOY_MU, TOY_C = 100, 1.0, 1.0
TOY_SIGMAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
TOY_REL_TOL = 1e-8

# mc_ridge: desk fig4's heaviest cell (paired random crop, ridge, k=50)
RIDGE_N, RIDGE_K, RIDGE_R, RIDGE_LAMBDA = 200, 50, 1000, 1.0

# bounds: the noise-stability bound path, no Monte Carlo engine; runs are
# (statistic, k, num_outer), with enough outer draws that a factor-2 error in
# a Monte Carlo term lies well outside Z_LIMIT of its sampling spread
BOUNDS_N, BOUNDS_GRID = 20, 2
BOUNDS_RUNS = (("ridge", 2, 32), ("ridgerisk", 1, 32))

# z-score limit of every statistical oracle
Z_LIMIT = 4.0


class OracleFailure(Exception):
    """An output broke a correctness check."""


@dataclass
class Invocation:
    name: str
    command: str
    config: str
    work: int
    outputs: tuple
    oracle: object
    extra_args: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    work_unit: str
    invocations: list


def derive_seed(workload, invocation, seed):
    """Config seed for one invocation, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{invocation}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _fmt(x):
    return format(float(x), ".17g")


def _config_text(entries):
    lines = []
    for key, value in entries:
        if isinstance(value, (list, tuple)):
            value = "[" + ", ".join(_fmt(v) for v in value) + "]"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _crop_source_entries():
    return [("source.kind", "regression"), ("source.mean", [1.0, 1.0]),
            ("source.cov", [1.0, 0.5, 0.5, 1.0]), ("source.noise_scale", 1.0),
            ("family.kind", "random_crop"), ("family.dim", 2), ("family.paired", True)]


def _load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output parsing (plain text, independent of the program's own readers)
# ---------------------------------------------------------------------------

def _parse_csv(text):
    header, rows, footer = None, [], {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].split("#", 1)[0]
            if "=" in body:
                key, raw = body.split("=", 1)
                footer[key.strip()] = raw.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise OracleFailure("no header row")
    return header, rows, footer


def _number(raw, what):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise OracleFailure(f"{what} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise OracleFailure(f"{what} is not finite: {raw!r}")
    return value


def _vector(raw, what):
    raw = (raw or "").strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise OracleFailure(f"{what} is not a bracketed list: {raw!r}")
    return np.array([_number(v, what) for v in raw[1:-1].split(",")])


def _footer(footer, key):
    if key not in footer:
        raise OracleFailure(f"footer lacks {key}")
    return _number(footer[key], key)


def _close(value, expected, rel, what):
    if not abs(value - expected) <= rel * max(abs(expected), 1e-300):
        raise OracleFailure(f"{what} = {value!r}, expected {expected!r} (rel tol {rel:g})")


def _within_z(value, expected, se, what):
    if not se > 0 or abs(value - expected) > Z_LIMIT * se:
        raise OracleFailure(f"{what} = {value:.6g} is {abs(value - expected) / se:.2f} SE "
                            f"from {expected:.6g} (SE {se:.3g}, limit {Z_LIMIT:g})"
                            if se > 0 else f"{what}: nonpositive SE {se!r}")


# ---------------------------------------------------------------------------
# mc_small
# ---------------------------------------------------------------------------

def small_exact_variance_norms(rho=SMALL_RHO, k=SMALL_K):
    """Exact Frobenius norms of Var(scaled grand mean) per protocol law.

    Source N(0, S) with unit variances and correlation rho; the family picks
    the identity or the coordinate swap P with probability 1/2 each.
    """
    s = np.array([[1.0, rho], [rho, 1.0]])
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    s11 = 0.5 * s + 0.5 * p @ s @ p
    mean_map = 0.5 * (np.eye(2) + p)
    s12 = mean_map @ s @ mean_map.T
    iid = s11 / k + (k - 1) / k * s12
    # repeated: one draw of k maps for all rows; A = (m I + (k - m) P) / k
    repeated = np.zeros((2, 2))
    for m in range(k + 1):
        a = (m * np.eye(2) + (k - m) * p) / k
        repeated += math.comb(k, m) * 0.5**k * a @ s @ a.T
    norm = np.linalg.norm
    return {"iid_aug": norm(iid), "surrogate": norm(iid), "repeated_aug": norm(repeated),
            "repeated_surrogate": norm(repeated), "unaugmented": norm(s)}


def check_small(files, params):
    header, rows, footer = _parse_csv(files["compare.csv"])
    if header != ["protocol", "var_norm", "var_norm_se", "std_first_coord", "ci_width"]:
        raise OracleFailure(f"unexpected compare.csv header {header}")
    names = tuple(r[0] for r in rows)
    if names != SMALL_PROTOCOLS:
        raise OracleFailure(f"protocols {names}, expected {SMALL_PROTOCOLS}")
    exact = small_exact_variance_norms()
    var = {}
    for row in rows:
        proto = row[0]
        vals = [_number(v, f"{proto} column") for v in row[1:]]
        if min(vals) <= 0:
            raise OracleFailure(f"{proto}: nonpositive summary {vals}")
        var[proto] = vals[0]
        _within_z(vals[0], exact[proto], vals[1], f"{proto} var_norm")
    theta_hat = _footer(footer, "theta_hat")
    theta_se = _footer(footer, "theta_se")
    theta_theory = _footer(footer, "theta_theory")
    expected_theory = math.sqrt(exact["unaugmented"] / exact["iid_aug"])
    _close(theta_theory, expected_theory, 1e-9, "theta_theory")
    _close(theta_hat, math.sqrt(var["unaugmented"] / var["iid_aug"]), 1e-12, "theta_hat")
    _within_z(theta_hat, theta_theory, theta_se, "theta_hat")


def toy_ridge_exact(n, mu, sigma, c):
    """fig5's lambda=0 toy-ridge variance through Kummer's function.

    int_0^1 exp(-a t) (1 - t)^b dt = 1F1(1; b + 2; -a) / (b + 1), so no
    quadrature is involved.
    """
    from scipy.special import hyp1f1
    a, b = n * mu * mu / (2.0 * sigma * sigma), 0.5 * n - 2.0
    return n * c * c / (2.0 * (n - 2.0) * sigma * sigma) * hyp1f1(1.0, b + 2.0, -a) / (b + 1.0)


def check_toy_ridge(files, params):
    header, rows, _ = _parse_csv(files["predict_toyridge.csv"])
    if len(header) != 2 or header[0] != "sigma" or len(rows) != len(params["sigmas"]):
        raise OracleFailure(f"unexpected predict_toyridge.csv layout, header {header}")
    for row, sigma in zip(rows, params["sigmas"]):
        _close(_number(row[0], "sigma"), sigma, 0.0, "sigma")
        _close(_number(row[1], f"variance at sigma {sigma:g}"),
               toy_ridge_exact(TOY_N, TOY_MU, sigma, TOY_C), TOY_REL_TOL,
               f"toy-ridge variance at sigma {sigma:g}")


def mc_small(seed, workers):
    entries = [("source.kind", "gaussian"), ("source.mean", [0.0, 0.0]),
               ("source.cov", [1.0, SMALL_RHO, SMALL_RHO, 1.0]),
               ("family.kind", "finite_uniform"), ("family.weights", [0.5, 0.5]),
               ("family.member0.matrix", [1.0, 0.0, 0.0, 1.0]),
               ("family.member1.matrix", [0.0, 1.0, 1.0, 0.0]),
               ("statistic.kind", "average"), ("statistic.d", 2),
               ("protocol", "iid_aug"), ("compare.protocols", ",".join(SMALL_PROTOCOLS)),
               ("n", SMALL_N), ("k", SMALL_K), ("replicates", SMALL_R),
               ("seed", derive_seed("mc_small", "compare", seed))]
    inv = Invocation(name="compare", command="compare", config=_config_text(entries),
                     work=SMALL_R * len(SMALL_PROTOCOLS),
                     outputs=("manifest.txt", "compare.csv"), oracle=check_small,
                     extra_args=("--workers", "1"))
    toy = Invocation(name="toyridge", command="predict",
                     config=_config_text([("predict.curve", "toyridge"),
                                          ("predict.grid", TOY_SIGMAS), ("predict.n", TOY_N),
                                          ("predict.mu", TOY_MU), ("predict.c", TOY_C),
                                          ("predict.lambda", 0.0)]),
                     work=0, outputs=("manifest.txt", "predict_toyridge.csv"),
                     oracle=check_toy_ridge, params={"sigmas": TOY_SIGMAS})
    return Workload(
        name="mc_small",
        why="compare on the README 2-d Gaussian swap/average, n=100 k=5, five protocols at "
            "R=2000 each: per-replicate fixed costs (substream, dispatch) dominate; plus "
            "fig5's toy-ridge curve, the only caller of quadrature",
        work_unit="replicates", invocations=[inv, toy])


# ---------------------------------------------------------------------------
# mc_ridge
# ---------------------------------------------------------------------------

def check_ridge(files, params):
    header, rows, footer = _parse_csv(files["result.csv"])
    if header != [f"sample_{j}" for j in range(4)]:
        raise OracleFailure(f"unexpected result.csv header {header}")
    if len(rows) != params["replicates"]:
        raise OracleFailure(f"{len(rows)} sample rows, expected {params['replicates']}")
    try:
        samples = np.array(rows, dtype=float)
    except ValueError as exc:
        raise OracleFailure(f"unparsable sample row: {exc}") from None
    if samples.shape[1] != 4 or not np.all(np.isfinite(samples)):
        raise OracleFailure("samples are not a finite 4-column matrix")
    # a crop zeroes one coordinate of both blocks, so every augmented Gram is
    # diagonal and the ridge estimate's off-diagonal entries vanish exactly
    if np.any(samples[:, 1] != 0.0) or np.any(samples[:, 2] != 0.0):
        raise OracleFailure("cropped off-diagonal ridge entries are not exactly 0")
    mean = _vector(footer.get("mean"), "mean")
    cov = _vector(footer.get("covariance"), "covariance")
    if mean.shape != (4,) or cov.shape != (16,):
        raise OracleFailure("summary mean/covariance have the wrong size")
    cov = cov.reshape(4, 4)
    if not np.allclose(mean, samples.mean(axis=0), rtol=1e-12, atol=1e-14):
        raise OracleFailure("summary mean disagrees with the samples")
    if not np.allclose(cov, np.cov(samples, rowvar=False), rtol=1e-9, atol=1e-14):
        raise OracleFailure("summary covariance disagrees with the samples")
    var_norm = _footer(footer, "var_norm")
    _close(var_norm, float(np.linalg.norm(cov)), 1e-12, "var_norm")
    ref = _load_reference()["mc_ridge"]
    r = samples.shape[0]
    for j in (0, 3):
        se = math.sqrt(cov[j, j] / r + ref["mean_se"][j] ** 2)
        _within_z(mean[j], ref["mean"][j], se, f"mean[{j}]")
    se = math.hypot(_footer(footer, "se_of_variance"), ref["var_norm_se"])
    _within_z(var_norm, ref["var_norm"], se, "var_norm")
    se = math.hypot(_footer(footer, "se_of_first_coord_var"), ref["cov00_se"])
    _within_z(cov[0, 0], ref["cov00"], se, "covariance[0,0]")


def mc_ridge(seed, workers):
    entries = _crop_source_entries() + [
        ("statistic.kind", "ridge"), ("statistic.lambda", RIDGE_LAMBDA),
        ("protocol", "iid_aug"), ("n", RIDGE_N), ("k", RIDGE_K),
        ("replicates", RIDGE_R), ("seed", derive_seed("mc_ridge", "simulate", seed))]
    inv = Invocation(name="simulate", command="simulate", config=_config_text(entries),
                     work=RIDGE_R, outputs=("manifest.txt", "result.csv"),
                     oracle=check_ridge, extra_args=("--workers", str(workers)),
                     params={"replicates": RIDGE_R})
    return Workload(
        name="mc_ridge",
        why="simulate ridge on fig4's crop cell, n=200 k=50, R=1000 at --workers 2: "
            "map application and the Gram dominate, per-replicate overhead is small",
        work_unit="replicates", invocations=[inv])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BOUNDS_HEADER = ["statistic", "n", "k", "delta", "lambda1", "lambda2", "c1", "c2", "c3", "rhs"]
BOUNDS_FOOTER = ("omega1", "omega2", "m1", "m2", "m3", "rhs_repeated")


def _parse_bounds(text):
    """bounds.csv as a dict of its named values."""
    header, rows, footer = _parse_csv(text)
    if header != BOUNDS_HEADER or len(rows) != 1 or len(rows[0]) != len(header):
        raise OracleFailure("unexpected bounds.csv layout")
    row = rows[0]
    out = {"statistic": row[0]}
    for key, raw in zip(header[1:], row[1:]):
        out[key] = _number(raw, key)
    for key in BOUNDS_FOOTER:
        out[key] = _footer(footer, key)
    return out


def check_bounds(files, params):
    got = _parse_bounds(files["bounds.csv"])
    stat, k = params["statistic"], params["k"]
    if got["statistic"] != stat or got["n"] != BOUNDS_N or got["k"] != k or got["delta"] != 0:
        raise OracleFailure(f"bounds.csv describes {got['statistic']} n={got['n']} "
                            f"k={got['k']} delta={got['delta']}")
    n = BOUNDS_N
    tail = n * k**1.5 * got["lambda2"] * (got["c2"] + got["c3"])
    _close(got["rhs"], n * math.sqrt(k) * got["lambda1"] * got["delta"] * got["c1"] + tail,
           1e-9, "rhs")
    _close(got["rhs_repeated"], n * got["omega1"] * got["m1"]
           + n * got["omega2"] * (got["m2"] + got["m3"]) + tail, 1e-9, "rhs_repeated")
    ref = _load_reference()["bounds"][stat]
    for key, expected in ref["exact"].items():
        _close(got[key], expected, 1e-9, key)
    # Monte Carlo terms are compared on the log scale, where their spread
    # over seeds is close to normal
    for key, (median, log_sd) in ref["monte_carlo"].items():
        if not got[key] > 0:
            raise OracleFailure(f"{key} = {got[key]!r} is not positive")
        _within_z(math.log(got[key]), math.log(median), log_sd, f"log {key}")


def bounds(seed, workers):
    invs = []
    for stat, k, outer in BOUNDS_RUNS:
        entries = _crop_source_entries() + [
            ("statistic.kind", stat), ("statistic.lambda", RIDGE_LAMBDA),
            ("protocol", "iid_aug"), ("n", BOUNDS_N), ("k", k), ("replicates", 2),
            ("seed", derive_seed("bounds", stat, seed)),
            ("bounds.num_outer", outer), ("bounds.num_grid", BOUNDS_GRID),
            ("bounds.include_repeated", True)]
        invs.append(Invocation(name=stat, command="bounds", config=_config_text(entries),
                               work=2 * outer * BOUNDS_GRID,
                               outputs=("manifest.txt", "bounds.csv"), oracle=check_bounds,
                               params={"statistic": stat, "k": k, "num_outer": outer}))
    return Workload(
        name="bounds",
        why="bounds for ridge (k=2) and ridge risk (k=1), n=20, 32 outer draws each: all "
            "time in estimate_alpha and the derivative adapters, no Monte Carlo engine",
        work_unit="derivative-norm evaluations (2 x num_outer x num_grid per invocation)",
        invocations=invs)


WORKLOADS = {"mc_small": mc_small, "mc_ridge": mc_ridge, "bounds": bounds}
