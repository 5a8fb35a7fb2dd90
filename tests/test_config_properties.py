"""Property tests of the config format: a config with one key mutated runs or is
refused, never crashes, and a simulate that runs draws the same samples again
from the config its result.csv echoes; a valid config drawn over every
statistic, family kind, protocol and source kind runs under simulate, compare,
bounds and every predict curve whenever its numbers are tame.

Each property runs a fixed, derandomized set of examples, so the suite stays
deterministic.
"""

import contextlib
import io
import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augquant import cli
from augquant.config import KEYS
from augquant.montecarlo import PROTOCOLS


def _fixed(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


# small, fast base configs, one per command
SWAP = """source.kind = gaussian
source.mean = [0.0, 0.0]
source.cov = [1.0, -0.5, -0.5, 1.0]
family.kind = finite_uniform
family.weights = [0.5, 0.5]
family.member0.matrix = [1.0, 0.0, 0.0, 1.0]
family.member1.matrix = [0.0, 1.0, 1.0, 0.0]
family.member1.offset = [0.5, 0.0]
statistic.kind = average
statistic.d = 2
protocol = iid_aug
n = 6
k = 2
replicates = 4
seed = 3
"""
RIDGE = """source.kind = regression
source.mean = [1.0]
source.cov = [1.0]
source.noise_scale = 1.0
family.kind = identity
family.dim = 1
family.paired = true
statistic.kind = ridge
statistic.lambda = 1.0
protocol = iid_aug
n = 6
k = 2
replicates = 4
seed = 3
"""
BASES = [
    ("simulate", SWAP),
    ("simulate", RIDGE),
    ("compare", SWAP + "compare.protocols = iid_aug,unaugmented\n"),
    ("bounds", RIDGE + "bounds.num_outer = 2\nbounds.num_grid = 2\n"
                       "bounds.include_repeated = true\n"),
    ("predict", "predict.curve = toyridge\npredict.grid = [0.5, 1.0]\npredict.n = 10\n"),
    ("predict", SWAP + "predict.curve = theta\npredict.grid = [1, 2]\n"),
]

KNOWN = sorted(key.replace("<N>", str(i)) for key in KEYS for i in range(3))
NAMES = st.one_of(st.sampled_from(KNOWN), st.sampled_from(KNOWN).map(lambda k: k + "x"),
                  st.text(string.ascii_lowercase + "._", min_size=1, max_size=12))
# every value the bases use, so that a replacement is often valid for its key
PLAUSIBLE = sorted({line.split(" = ", 1)[1] for _, text in BASES for line in text.splitlines()})
VALUES = st.one_of(
    st.sampled_from(PLAUSIBLE),
    st.sampled_from(["abc", "true", "false", "no", "", "[]", "[0]", "[0, 1]", "[-1.0]",
                     "[0.5, 0.5]", "[1, 0, 0, 1]", "nan", "-inf", "1e-300", "unaugmented",
                     "iid_aug,iid_aug", "unaugmented,iid_aug", "repeated_aug,unaugmented",
                     "surrogate", "repeated_surrogate", "expnegchisq", "smoothmax",
                     "hardmax", "ridgerisk", "vcurve", "dwidth", "f2var", "cyclic_rotation",
                     "random_crop"]),
    st.integers(-3, 6).map(str),
    st.floats(-3, 6, allow_nan=False).map(repr),
    st.text(string.ascii_letters + string.digits + "[],.-_# =", max_size=10))


@st.composite
def mutated_configs(draw):
    command, text = draw(st.sampled_from(BASES))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key, value = lines[i].split(" = ", 1)
    # most mutations replace a value, so that many mutated configs still run
    how = draw(st.sampled_from(["rename", "duplicate", "replace", "replace", "replace"]))
    if how == "rename":
        lines[i] = f"{draw(NAMES)} = {value}"
    elif how == "duplicate":
        lines.insert(i + 1, f"{key} = {draw(st.one_of(st.just(value), VALUES))}")
    else:
        lines[i] = f"{key} = {draw(VALUES)}"
    return command, "\n".join(lines) + "\n"


def _vector(values):
    return "[" + ", ".join(repr(float(v)) for v in np.ravel(values)) + "]"


# interior deltas at which (1 - delta) S + delta S rounds away from S, besides the whole range
DELTAS = st.one_of(st.sampled_from([0.3, 0.7]), st.floats(0.0, 1.0))


# one number of each closed-form curve from an extreme set: (key, value), a grid value
# replacing the grid's first
WILD_CURVE_KEYS = {
    "vcurve": [("predict.grid", -1.0), ("predict.grid", 1e300)],
    "dwidth": [("predict.grid", -1.0), ("predict.grid", 1e300), ("predict.alpha", 1.0),
               ("predict.alpha", 1e-300)],
    "f2var": [("predict.grid", -1.0), ("predict.grid", 1e300), ("predict.rho", 1.0),
              ("predict.rho", -1.0)],
    "toyridge": [("predict.grid", 0.0), ("predict.grid", 1e-160), ("predict.n", 2),
                 ("predict.mu", 1e155), ("predict.lambda", -1.0)],
}


COMMANDS = [("simulate", None), ("compare", None), ("bounds", None)] + [
    ("predict", curve) for curve in ["theta", *WILD_CURVE_KEYS]]


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def curve_keys(draw, curve, wild):
    """The keys of ``predict.curve = curve`` but the curve's own: tame, or with one
    number from ``WILD_CURVE_KEYS`` when ``wild``.  Tame toyridge configs span
    log-uniform n in [3, 1e7] and sigma in [1e-4, 1e4] with |mu| <= 1e3."""
    if curve == "theta":
        return ["predict.grid = [1, 3]"]
    keys, scales = {}, st.floats(0.0, 10.0)
    if curve == "dwidth":
        keys["predict.alpha"] = draw(st.floats(0.01, 0.5))
    elif curve == "f2var":
        keys["predict.rho"] = draw(st.floats(-0.99, 0.99))
    elif curve == "toyridge":
        keys["predict.n"] = max(3, round(draw(_log_uniform(3.0, 1e7))))
        keys["predict.mu"] = draw(st.floats(-1e3, 1e3))
        keys["predict.c"] = draw(st.floats(0.1, 10.0))
        keys["predict.lambda"] = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
        scales = _log_uniform(1e-4, 1e4)
    grid = draw(st.lists(scales, min_size=1, max_size=4))
    if wild:
        key, value = draw(st.sampled_from(WILD_CURVE_KEYS[curve]))
        if key == "predict.grid":
            grid[0] = value
        else:
            keys[key] = value
    return [f"predict.grid = {_vector(grid)}"] + [f"{key} = {value!r}"
                                                  for key, value in keys.items()]


@st.composite
def valid_configs(draw):
    """(command, config text, tame): a config every key of which is valid, for simulate,
    compare, bounds or one predict curve.  It is tame
    when the covariance's eigenvalues lie in [0.1, 10], |mean| <= 10, the ridge penalty
    is positive and the smooth max's t is at least 0.1; otherwise one of those numbers
    is drawn from an extreme set, and the run may be refused (2) or fail (3).  A predict
    curve other than theta reads none of those numbers and draws one of its own from an
    extreme set instead."""
    wild = draw(st.sampled_from([None, None, None, "eig", "mean", "lambda", "t"]))
    kind = draw(st.sampled_from(["gaussian", "regression"]))
    d = draw(st.integers(1, 3 if kind == "gaussian" else 2))
    dim = d if kind == "gaussian" else 2 * d  # the dimension of a source row
    eig = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
    if wild == "eig":
        eig[0] = draw(st.sampled_from([-1e-3, 0.0, 1e-12, 1e-4, 1e3, 1e12]))
    q = np.linalg.qr(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                                            max_size=d * d))).reshape(d, d) + 3 * np.eye(d))[0]
    cov = q @ np.diag(eig) @ q.T
    mean = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    if wild == "mean":
        mean[0] = draw(st.sampled_from([1e155, 1e4, -1e8]))
    lines = [f"source.kind = {kind}", f"source.mean = {_vector(mean)}",
             f"source.cov = {_vector(0.5 * (cov + cov.T))}"]
    if kind == "regression":
        lines.append(f"source.noise_scale = {draw(st.floats(0.0, 2.0))!r}")
    # a regression source's family acts on (covariate, response) pairs, lifted or whole
    paired = kind == "regression" and draw(st.booleans())
    fam_dim = d if paired else dim
    family = draw(st.sampled_from(["finite_uniform"] + ["random_crop"] * (fam_dim >= 2)
                                  + ["cyclic_rotation", "identity"]))
    lines += [f"family.kind = {family}", f"family.dim = {fam_dim}",
              f"family.paired = {str(paired).lower()}"]
    if family == "finite_uniform":
        members = draw(st.integers(1, 3))
        entries = st.floats(-2.0, 2.0)
        for m in range(members):
            matrix = draw(st.lists(entries, min_size=fam_dim ** 2, max_size=fam_dim ** 2))
            lines.append(f"family.member{m}.matrix = {_vector(matrix)}")
            if draw(st.booleans()):
                offset = draw(st.lists(entries, min_size=fam_dim, max_size=fam_dim))
                lines.append(f"family.member{m}.offset = {_vector(offset)}")
        if draw(st.booleans()):
            w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=members,
                                       max_size=members)))
            lines.append(f"family.weights = {_vector(w / w.sum())}")
    statistics = ["ridge", "ridgerisk"] if kind == "regression" else []
    statistics += ["expnegchisq", "smoothmax", "hardmax", "average"]
    stat = draw(st.sampled_from(statistics))
    lines.append(f"statistic.kind = {stat}")
    if not stat.startswith("ridge"):
        lines.append(f"statistic.d = {dim}")
    if stat == "smoothmax":
        t = draw(st.sampled_from([1e-3, 1e-300])) if wild == "t" else draw(st.floats(0.1, 5.0))
        lines.append(f"statistic.t = {t!r}")
    if stat.startswith("ridge"):
        lam = 0.0 if wild == "lambda" else draw(st.floats(0.01, 5.0))
        lines.append(f"statistic.lambda = {lam!r}")
    protocol = draw(st.sampled_from(sorted(PROTOCOLS, key=lambda p: p != "surrogate")))
    lines += [f"protocol = {protocol}", f"delta = {draw(DELTAS)!r}",
              f"n = {draw(st.integers(1, 6))}", f"k = {draw(st.integers(1, 4))}",
              f"replicates = {draw(st.integers(2, 5))}",
              f"seed = {draw(st.integers(0, 2**64 - 1))}"]
    command, curve = draw(st.sampled_from(COMMANDS))
    if command == "compare":
        others = draw(st.lists(st.sampled_from([p for p in PROTOCOLS if p != "unaugmented"]),
                               min_size=1, max_size=4, unique=True))
        order = draw(st.permutations(others + ["unaugmented"]))
        lines.append(f"compare.protocols = {', '.join(order)}")
    elif command == "bounds":
        lines += ["bounds.num_outer = 2", "bounds.num_grid = 2",
                  f"bounds.include_repeated = {str(draw(st.booleans())).lower()}"]
    elif command == "predict":
        lines += [f"predict.curve = {curve}"] + draw(curve_keys(curve, wild is not None))
    tame = wild is None or (wild == "t" and stat != "smoothmax") or (
        wild == "lambda" and not stat.startswith("ridge"))
    if command == "predict" and curve != "theta":
        tame = wild is None
    # the hard max has no derivatives, so bounds refuses it (exit 2) by design
    tame = tame and not (command == "bounds" and stat == "hardmax")
    return command, "\n".join(lines) + "\n", tame


@pytest.mark.parametrize("command,text", BASES)
def test_base_configs_run(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(tmp, command, text)[0] == 0


def _run(tmp, command, text, out="out"):
    """The exit code and the stderr text of one run on ``text``."""
    cfg = os.path.join(tmp, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", cfg, "--out", os.path.join(tmp, out)])
    return code, err.getvalue()


def _result_lines(tmp, out):
    with open(os.path.join(tmp, out, "result.csv"), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _check_run(tmp, command, text):
    """Run ``text``: it exits 0, or exits 2 or 3 with one stderr line and writes nothing;
    a simulate that runs draws the same sample rows again from its echo.  The exit code."""
    code, err = _run(tmp, command, text)
    assert code in (0, 2, 3)
    if code != 0:
        assert len(err.strip().splitlines()) == 1, err
        assert os.listdir(tmp) == ["run.cfg"]
    elif command == "simulate":
        # the echo is the config that ran: rerun on it, the sample rows come back
        lines = _result_lines(tmp, "out")
        echo = "".join(line[len("# config."):] + "\n" for line in lines
                       if line.startswith("# config."))
        assert _run(tmp, "simulate", echo, out="rerun")[0] == 0
        rows = [line for line in lines if not line.startswith("#")]
        assert [line for line in _result_lines(tmp, "rerun")
                if not line.startswith("#")] == rows
    return code


@_fixed(300)
@given(mutated_configs())
def test_mutated_config_runs_or_is_refused(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        _check_run(tmp, command, text)


def test_valid_configs_run_when_tame():
    codes, reached = [], set()

    @_fixed(150)
    @given(valid_configs())
    def run(case):
        command, text, tame = case
        with tempfile.TemporaryDirectory() as tmp:
            code = _check_run(tmp, command, text)
        assert code == 0 or not tame, text
        codes.append(code)
        if code == 0:
            reached.add((command, next((line.split(" = ")[1] for line in text.splitlines()
                                        if line.startswith("predict.curve")), None)))

    run()
    assert sum(code == 0 for code in codes) >= len(codes) / 2, codes
    assert reached == set(COMMANDS), reached  # every command and curve runs
