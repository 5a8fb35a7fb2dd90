"""Property tests of the config format: a config with one key mutated runs or is
refused, never crashes, and a simulate that runs draws the same samples again
from the config its result.csv echoes.

The property runs a fixed, derandomized set of examples, so the suite stays
deterministic.
"""

import contextlib
import io
import os
import string
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from augquant import cli
from augquant.config import KEYS


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


@pytest.mark.parametrize("command,text", BASES)
def test_base_configs_run(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(tmp, command, text) == 0


def _run(tmp, command, text, out="out"):
    cfg = os.path.join(tmp, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return cli.main([command, "--config", cfg, "--out", os.path.join(tmp, out)])


def _result_lines(tmp, out):
    with open(os.path.join(tmp, out, "result.csv"), encoding="utf-8") as fh:
        return fh.read().splitlines()


@_fixed(300)
@given(mutated_configs())
def test_mutated_config_runs_or_is_refused(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(tmp, command, text)
        assert code in (0, 2, 3)
        if code != 0:
            assert os.listdir(tmp) == ["run.cfg"]
        elif command == "simulate":
            # the echo is the config that ran: rerun on it, the sample rows come back
            lines = _result_lines(tmp, "out")
            echo = "".join(line[len("# config."):] + "\n" for line in lines
                           if line.startswith("# config."))
            assert _run(tmp, "simulate", echo, out="rerun") == 0
            rows = [line for line in lines if not line.startswith("#")]
            assert [line for line in _result_lines(tmp, "rerun")
                    if not line.startswith("#")] == rows
