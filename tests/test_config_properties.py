"""Property tests of the config format: experiments round-trip through config
text, and a config with one key mutated runs or is refused, never crashes.

Both properties run a fixed, derandomized set of examples, so the suite stays
deterministic.
"""

import contextlib
import dataclasses
import io
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import augquant as aq
from augquant import cli
from augquant.config import (KEYS, config_text, experiment_from_config, experiment_to_dict,
                             parse_config_text)
from augquant.montecarlo import PROTOCOLS


def _fixed(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


def _state(x):
    """x with every dataclass, tuple and array unfolded into plain comparable values."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple((f.name, _state(getattr(x, f.name)))
                                       for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.shape, x.tolist()
    if isinstance(x, (tuple, list)):
        return tuple(map(_state, x))
    return x


def _numbers(lo, hi, size):
    return st.lists(st.floats(lo, hi, allow_nan=False, allow_infinity=False),
                    min_size=size, max_size=size)


@st.composite
def experiments(draw):
    regression = draw(st.booleans())
    d = draw(st.integers(1, 2))
    mean = draw(_numbers(-4, 4, d))
    scales = np.array(draw(_numbers(0.1, 3, d)))
    rho = draw(st.floats(-0.9, 0.9))
    cov = np.outer(scales, scales) * np.array([[1.0, rho], [rho, 1.0]])[:d, :d]
    if regression:
        source = aq.regression_source(mean, cov, draw(st.floats(0, 3)))
    else:
        source = aq.gaussian_source(mean, cov)

    kind = draw(st.sampled_from(["identity", "cyclic_rotation", "finite_uniform"]
                                + (["random_crop"] if d == 2 else [])))
    if kind == "finite_uniform":
        m = draw(st.integers(1, 3))
        maps = [(np.reshape(draw(_numbers(-2, 2, d * d)), (d, d)), draw(_numbers(-2, 2, d)))
                for _ in range(m)]
        raw = np.array(draw(_numbers(0.1, 1, m)))
        family = aq.finite_uniform_family(*zip(*maps), raw / raw.sum())
    else:
        family = {"identity": aq.identity_family, "cyclic_rotation": aq.cyclic_rotation_family,
                  "random_crop": aq.random_crop_family}[kind](d)
    if regression:
        family = family.paired(d)

    slot = source.dim
    choices = [aq.average_statistic(slot)]
    if regression:
        lam = draw(st.floats(0, 5))
        choices += [aq.ridge_statistic(d, d, lam),
                    aq.ridge_risk_statistic(d, d, lam, aq.risk_moments_from_source(source))]
    else:
        choices += [aq.smooth_max_statistic(slot, draw(st.floats(0.1, 5))),
                    aq.hard_max_statistic(slot),
                    aq.exp_neg_chisq_statistic() if d == 1 else aq.exp_neg_chisq_2d_statistic()]
    return aq.ExperimentConfig(
        source=source, family=family, statistic=draw(st.sampled_from(choices)),
        protocol=draw(st.sampled_from(PROTOCOLS)), n=draw(st.integers(1, 500)),
        k=draw(st.integers(1, 64)), replicates=draw(st.integers(2, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        alpha=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        delta=draw(st.floats(0, 1)))


@_fixed(60)
@given(experiments())
def test_experiment_round_trips_through_config_text(experiment):
    text = config_text(experiment_to_dict(experiment))
    assert _state(experiment_from_config(parse_config_text(text))) == _state(experiment)


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


@pytest.mark.parametrize("command,text", BASES)
def test_base_configs_run(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(tmp, command, text) == 0


def _run(tmp, command, text):
    cfg = os.path.join(tmp, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return cli.main([command, "--config", cfg, "--out", os.path.join(tmp, "out")])


@_fixed(300)
@given(mutated_configs())
def test_mutated_config_runs_or_is_refused(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(tmp, command, text)
        assert code in (0, 2, 3)
        if code != 0:
            assert os.listdir(tmp) == ["run.cfg"]
