import itertools
import math
import os
import pathlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import augquant as aq
from augquant import bounds as bd
from augquant import cli
from augquant.config import (config_hash, config_text, experiment_from_config,
                             family_from_config, fmt, parse_config_text, read_config,
                             source_from_config)
from augquant.rng import child_seed

GAUSSIAN_1D = """
source.kind = gaussian
source.mean = [0.0]
source.cov = [1.0]
family.kind = identity
family.dim = 1
statistic.kind = average
statistic.d = 1
protocol = iid_aug
n = 10
k = 2
replicates = 2
seed = 3
"""


# one observation with two covariates: the unpenalized Gram is rank
# deficient, so the solve must fail with the numerical exit code
RANK_DEFICIENT = """
source.kind = regression
source.mean = [1.0, 1.0]
source.cov = [1.0, 0.0, 0.0, 1.0]
source.noise_scale = 1.0
family.kind = identity
family.dim = 4
statistic.kind = ridge
statistic.lambda = 0.0
protocol = iid_aug
n = 1
k = 1
replicates = 2
seed = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _cell_blocks(path):
    """The config text of each ``# cell c`` block of a figure's cells.txt, in cell order."""
    blocks = _read_lines(path)
    starts = [i for i, line in enumerate(blocks) if line.startswith("# cell ")]
    assert [blocks[i] for i in starts] == [f"# cell {c}" for c in range(len(starts))]
    return ["\n".join(blocks[i + 1:j]) for i, j in zip(starts, starts[1:] + [len(blocks)])]


class TestConfigFormat:
    def test_round_trip(self):
        cfg = parse_config_text(GAUSSIAN_1D)
        again = parse_config_text(config_text(cfg))
        assert again == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# comment\n\nn = 5  # trailing\n")
        assert cfg == {"n": 5}

    def test_malformed_line(self):
        from augquant.errors import ConfigError
        with pytest.raises(ConfigError):
            parse_config_text("this is not a key value pair\n")

    def test_list_values(self):
        cfg = parse_config_text("source.cov = [1.0, 0.5, 0.5, 1.0]\n")
        assert cfg["source.cov"] == [1.0, 0.5, 0.5, 1.0]


class TestPredict:
    def test_vcurve_rows(self, tmp_path):
        cfgp = _write(tmp_path, "predict.curve = vcurve\npredict.grid = [0.0, 1.0]\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "predict_vcurve.csv")
        assert lines[0] == "s,variance"
        assert lines[1].startswith("0,0")
        s, v = lines[2].split(",")
        assert float(s) == 1.0
        assert float(v) == pytest.approx(0.11388026216662461)

    def test_empty_grid_header_only(self, tmp_path):
        cfgp = _write(tmp_path, "predict.curve = vcurve\npredict.grid = []\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        assert _read_lines(tmp_path / "predict_vcurve.csv") == ["s,variance"]

    def test_unknown_curve_exits_2(self, tmp_path, capsys):
        cfgp = _write(tmp_path, "predict.curve = mystery\npredict.grid = [1.0]\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_toyridge_curve(self, tmp_path):
        cfgp = _write(tmp_path, "predict.curve = toyridge\npredict.grid = [1.0]\n"
                                "predict.n = 100\npredict.mu = 1.0\npredict.c = 1.0\n"
                                "predict.lambda = 0.0\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "predict_toyridge.csv")
        assert float(lines[1].split(",")[1]) == pytest.approx(0.005180003817526732)

    def test_width_and_f2_curves(self, tmp_path):
        from augquant.closedform import chisq_ci, f2_variance
        cfgp = _write(tmp_path, "predict.curve = dwidth\npredict.grid = [0.5, 2.0]\n"
                                "predict.alpha = 0.05\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "predict_dwidth.csv")
        assert float(lines[1].split(",")[1]) == pytest.approx(chisq_ci(0.5, 0.05).width)
        cfgp = _write(tmp_path, "predict.curve = f2var\npredict.grid = [1.0]\n"
                                "predict.rho = -0.5\n", name="f2.cfg")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "predict_f2var.csv")
        assert float(lines[1].split(",")[1]) == pytest.approx(f2_variance(-0.5, 1.0))

    def test_theta_curve_uses_family_and_source(self, tmp_path):
        text = """
predict.curve = theta
predict.grid = [1, 5]
source.kind = gaussian
source.mean = [0.0, 0.0]
source.cov = [1.0, -0.5, -0.5, 1.0]
family.kind = finite_uniform
family.weights = [0.5, 0.5]
family.member0.matrix = [1.0, 0.0, 0.0, 1.0]
family.member1.matrix = [0.0, 1.0, 1.0, 0.0]
"""
        cfgp = _write(tmp_path, text)
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "predict_theta.csv")
        import augquant as aq
        src = aq.gaussian_source([0, 0], [[1, -0.5], [-0.5, 1]])
        theta = aq.theta_theory(aq.average_statistic(2), aq.swap_family(), src, "iid_aug", 1, 5,
                                0.0)
        assert float(lines[2].split(",")[1]) == pytest.approx(theta)


def _average_setup(name):
    """The README's swap config ("swap") or fig1's paired regression crop ("crop"), with
    the average statistic and 20 replicates, since theta_theory reads no replicate."""
    if name == "swap":
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        (text,) = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
        text = _set(text, "statistic.kind", "average")
    else:
        text = config_text({**cli.CROP, "statistic.kind": "average", "statistic.d": 4,
                            "protocol": "iid_aug", "n": 200, "k": 1, "seed": 7})
    return _set(text, "replicates", 20)


class TestPredictMatchesCompare:
    """predict theta and compare read one law: predict's row at k is compare's
    theta_theory for iid_aug against unaugmented at that k."""

    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("setup", ["swap", "crop"])
    def test_theta_row_is_compare_theta_theory(self, tmp_path, setup, k):
        text = _set(_average_setup(setup), "k", k) + (
            f"predict.curve = theta\npredict.grid = [{k}]\n"
            "compare.protocols = iid_aug, unaugmented\n")
        cfgp = _write(tmp_path, text)
        for command in ("predict", "compare"):
            assert cli.main([command, "--config", cfgp, "--out", str(tmp_path)]) == 0
        (row,) = _read_lines(tmp_path / "predict_theta.csv")[1:]
        row_k, theta = row.split(",")
        assert row_k == str(k)
        assert f"# theta_theory = {theta}" in _read_lines(tmp_path / "compare.csv")

    @pytest.mark.parametrize("setup", ["swap", "crop"])
    def test_iid_law_reads_neither_n_nor_delta(self, setup):
        # so predict's n = 1 and delta = 0 cannot change its rows
        cfg = parse_config_text(_average_setup(setup))
        source, family = source_from_config(cfg), family_from_config(cfg)
        for k in (1, 5, 20):
            law = aq.grand_mean_law(family, source, "iid_aug", 1, k, 0.0)
            for n, delta in itertools.product((1, 50), (0.0, 0.7)):
                other = aq.grand_mean_law(family, source, "iid_aug", n, k, delta)
                assert [a.tobytes() for a in other] == [a.tobytes() for a in law]


class TestSimulate:
    def test_two_replicates(self, tmp_path):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "result.csv")
        data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("sample")]
        assert len(data_rows) == 2

    def test_result_reloads(self, tmp_path):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path)])
        lines = _read_lines(tmp_path / "result.csv")
        samples = np.array([[float(v) for v in line.split(",")]
                            for line in lines[1:] if not line.startswith("#")])
        echo = experiment_from_config(parse_config_text("\n".join(
            line[len("# config."):] for line in lines if line.startswith("# config."))))
        assert samples.shape == (2, 1)
        assert echo.n == 10

    def test_missing_fields_exit_2(self, tmp_path, capsys):
        cfgp = _write(tmp_path, "protocol = iid_aug\n")
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        # every missing field is named
        for field in ("n", "k", "replicates", "seed"):
            assert field in err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        cfgp = _write(tmp_path, RANK_DEFICIENT)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 3
        assert "rank" in capsys.readouterr().err

    def test_surrogate_at_a_large_source_mean(self, tmp_path, capsys):
        # the identity family's sigma11 is Sigma itself at mean 1e8, not a cancelled 0
        text = _set(_set(GAUSSIAN_1D, "source.mean", "[1e8]"), "protocol", "surrogate")
        cfgp = _write(tmp_path, text)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        cfgp = _write(tmp_path, GAUSSIAN_1D.replace("replicates = 2", "replicates = 40"))
        out1, out2, out3 = (tmp_path / s for s in ("a", "b", "c"))
        cli.main(["simulate", "--config", cfgp, "--out", str(out1), "--workers", "1"])
        cli.main(["simulate", "--config", cfgp, "--out", str(out2), "--workers", "1"])
        cli.main(["simulate", "--config", cfgp, "--out", str(out3), "--workers", "4"])
        b1 = (out1 / "result.csv").read_bytes()
        assert b1 == (out2 / "result.csv").read_bytes()
        assert b1 == (out3 / "result.csv").read_bytes()
        assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
        assert "stream = 5\n" in (out1 / "manifest.txt").read_text()


class TestCompare:
    def test_identity_ratio_near_one(self, tmp_path):
        text = GAUSSIAN_1D.replace("replicates = 2", "replicates = 2000") + \
            "compare.protocols = iid_aug,unaugmented\n"
        cfgp = _write(tmp_path, text)
        assert cli.main(["compare", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "compare.csv")
        theta = float(next(l for l in lines if "theta_hat" in l).split("=")[1])
        se = float(next(l for l in lines if "theta_se" in l).split("=")[1])
        assert abs(theta - 1.0) <= 4 * se

    def test_near_cancelling_sign_flip_theory_is_inf(self, tmp_path):
        # at k = 2 the even sign flip gives sigma_aug = sqrt(1e-16 / 2) ~ 7.1e-9, where
        # v_curve's two terms cancel to -1.1e-16, and sigma_unaug = 1e-8, where they cancel to 0
        text = """
source.kind = gaussian
source.mean = [0.0]
source.cov = [1e-16]
family.kind = finite_uniform
family.weights = [0.5, 0.5]
family.member0.matrix = [1.0]
family.member1.matrix = [-1.0]
statistic.kind = expnegchisq
protocol = iid_aug
n = 10
k = 2
replicates = 50
seed = 3
compare.protocols = iid_aug,unaugmented
"""
        cfgp = _write(tmp_path, text)
        assert cli.main(["compare", "--config", cfgp, "--out", str(tmp_path)]) == 0
        assert "# theta_theory = inf" in _read_lines(tmp_path / "compare.csv")

    def test_repeated_theory_is_written(self, tmp_path):
        # sign flips keeping 30% of the time on N(1, 1): E[A^2] = 1, sigma12 = 0.16 and
        # Var(A mu) = 0.84, so at n = 20, k = 4 Sigma = 1 / 4 + 3 / 4 * 0.16 + 5 * 0.84
        text = """
source.kind = gaussian
source.mean = [1.0]
source.cov = [1.0]
family.kind = finite_uniform
family.weights = [0.3, 0.7]
family.member0.matrix = [1.0]
family.member1.matrix = [-1.0]
statistic.kind = average
protocol = iid_aug
n = 20
k = 4
replicates = 4000
seed = 5
compare.protocols = repeated_aug, unaugmented
"""
        cfgp = _write(tmp_path, text)
        assert cli.main(["compare", "--config", cfgp, "--out", str(tmp_path)]) == 0
        footer = dict(line[2:].split(" = ") for line in _read_lines(tmp_path / "compare.csv")
                      if line.startswith("# "))
        theory, theta, se = (float(footer[key]) for key in ("theta_theory", "theta_hat",
                                                             "theta_se"))
        assert theory == pytest.approx(math.sqrt(1.0 / 4.57), rel=1e-12)
        assert abs(theta - theory) <= 3 * se

    def test_exponential_theory_at_one_copy_is_one(self, tmp_path):
        # one sign-flipped copy has the law of the observation itself
        text = """
source.kind = gaussian
source.mean = [0.0]
source.cov = [1.0]
family.kind = finite_uniform
family.weights = [0.3, 0.7]
family.member0.matrix = [1.0]
family.member1.matrix = [-1.0]
statistic.kind = expnegchisq
protocol = iid_aug
n = 100
k = 1
replicates = 100
seed = 7
compare.protocols = iid_aug,unaugmented
"""
        cfgp = _write(tmp_path, text)
        assert cli.main(["compare", "--config", cfgp, "--out", str(tmp_path)]) == 0
        assert "# theta_theory = 1" in _read_lines(tmp_path / "compare.csv")


class TestBounds:
    def test_table_matches_direct_assembly(self, tmp_path):
        text = GAUSSIAN_1D + "bounds.num_outer = 4\nbounds.num_grid = 3\n"
        cfgp = _write(tmp_path, text)
        assert cli.main(["bounds", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "bounds.csv")
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))

        import augquant as aq
        cfg = read_config(cfgp)
        from augquant.config import experiment_from_config
        config = experiment_from_config(cfg)
        moments = aq.estimate_moments(config.family, config.source)
        spec = aq.build_surrogate(moments, config.n, config.k, config.delta)
        alphas = aq.estimate_alpha(config.statistic, config.family, config.source,
                                   spec, i=0, num_outer=4, num_grid=3, seed=config.seed)
        lam1, lam2 = bd.assemble_lambdas(alphas)
        assert float(values["lambda1"]) == lam1
        assert float(values["lambda2"]) == lam2


REGRESSION_BOUNDS = """
source.kind = regression
source.mean = [1.0, 1.0]
source.cov = [1.0, 0.5, 0.5, 1.0]
source.noise_scale = 1.0
family.kind = identity
family.dim = 4
statistic.kind = {kind}
statistic.lambda = {lam}
protocol = iid_aug
n = 6
k = 1
replicates = 2
seed = 3
bounds.num_outer = 2
bounds.num_grid = 2
"""


class TestRidgeBounds:
    def test_ridgerisk_at_zero_penalty_runs(self, tmp_path):
        cfgp = _write(tmp_path, REGRESSION_BOUNDS.format(kind="ridgerisk", lam=0.0))
        assert cli.main(["bounds", "--config", cfgp, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "bounds.csv").exists()

    def test_ridge_at_zero_penalty_exits_2(self, tmp_path, capsys):
        cfgp = _write(tmp_path, REGRESSION_BOUNDS.format(kind="ridge", lam=0.0))
        assert cli.main(["bounds", "--config", cfgp, "--out", str(tmp_path)]) == 2
        assert "positive ridge penalty" in capsys.readouterr().err

    def test_missing_risk_moments_exits_2(self, tmp_path, monkeypatch, capsys):
        from augquant import config as cfgmod
        monkeypatch.setattr(cfgmod.stats, "risk_moments_from_source", lambda source: None)
        cfgp = _write(tmp_path, REGRESSION_BOUNDS.format(kind="ridgerisk", lam=1.0))
        assert cli.main(["bounds", "--config", cfgp, "--out", str(tmp_path)]) == 2
        assert "risk moments" in capsys.readouterr().err


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, seed):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out), "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and len(err.strip().splitlines()) == 1
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_config_key_exits_2(self, tmp_path, capsys, seed):
        cfgp = _write(tmp_path, GAUSSIAN_1D.replace("seed = 3", f"seed = {seed}"))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_out_of_range_override_is_refused_not_truncated(self, seed):
        from augquant.errors import ConfigError
        with pytest.raises(ConfigError, match="seed"):
            experiment_from_config(parse_config_text(GAUSSIAN_1D), seed_override=seed)

    @pytest.mark.parametrize("command,output", [("simulate", "result.csv"),
                                                ("compare", "compare.csv"),
                                                ("bounds", "bounds.csv")])
    def test_flag_stands_in_for_an_absent_seed_key(self, tmp_path, command, output):
        cfgp = _write(tmp_path, SWAP_SMALL.replace("seed = 7\n", ""))
        assert "seed" not in read_config(cfgp)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfgp, "--out", str(out), "--seed", "3"]) == 0
        assert (out / output).exists()
        manifest = (out / "manifest.txt").read_text()
        assert "seed = 3\n" in manifest
        assert f"config_hash = {config_hash(read_config(cfgp))}\n" in manifest
        if command == "simulate":
            assert "# config.seed = 3" in _read_lines(out / output)

    def test_largest_seed_runs(self, tmp_path):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path),
                         "--seed", str(2**64 - 1)]) == 0


class TestIntegerInputs:
    @pytest.mark.parametrize("key,value", [("replicates", "20.5"), ("n", "10.5"),
                                           ("k", "2.5")])
    def test_non_integral_count_exits_2(self, tmp_path, capsys, key, value):
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in GAUSSIAN_1D.splitlines())
        cfgp = _write(tmp_path, text)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "result.csv").exists()

    def test_integral_float_count_runs(self, tmp_path):
        cfgp = _write(tmp_path, GAUSSIAN_1D.replace("replicates = 2", "replicates = 2.0"))
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_exit_2(self, tmp_path, capsys, workers):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out),
                         "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "workers" in err and len(err.strip().splitlines()) == 1
        assert not (out / "manifest.txt").exists()


SWAP_2D = """
source.kind = gaussian
source.mean = [0.0, 0.0]
source.cov = [1.0, -0.5, -0.5, 1.0]
family.kind = finite_uniform
family.weights = [0.5, 0.5]
family.member0.matrix = [1.0, 0.0, 0.0, 1.0]
family.member1.matrix = [0.0, 1.0, 1.0, 0.0]
statistic.kind = average
statistic.d = 2
protocol = iid_aug
n = 10
k = 2
replicates = 2
seed = 3
bounds.num_outer = 2
bounds.num_grid = 2
"""

RIDGE_1D = """
source.kind = regression
source.mean = [1.0]
source.cov = [1.0]
source.noise_scale = 1.0
family.kind = identity
family.dim = 2
statistic.kind = ridge
statistic.lambda = 1.0
protocol = iid_aug
n = 10
k = 2
replicates = 2
seed = 3
"""

# a one-member family: sigma11 = sigma12, so the surrogate's residual block is exactly 0
ONE_MEMBER_SURROGATE = """
source.kind = gaussian
source.mean = [0.0, 0.0]
source.cov = [1.0, 0.9, 0.9, 1.0]
family.kind = identity
family.dim = 2
statistic.kind = average
statistic.d = 2
protocol = surrogate
delta = 0.7
n = 10
k = 5
replicates = 20
seed = 3
compare.protocols = surrogate, unaugmented
"""

TOYRIDGE = "predict.curve = toyridge\npredict.grid = [0.5, 1.0]\npredict.n = 10\n"
THETA = SWAP_2D + "predict.curve = theta\npredict.grid = [1, 2]\n"


def _set(text, key, value):
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestNumericInputs:
    CASES = [
        ("simulate", GAUSSIAN_1D, "alpha", "abc"),
        ("simulate", GAUSSIAN_1D, "alpha", "[0.1]"),
        ("simulate", GAUSSIAN_1D, "source.mean", "abc"),
        ("simulate", SWAP_2D, "family.weights", "abc"),
        ("simulate", SWAP_2D, "family.member1.matrix", "foo"),
        ("bounds", SWAP_2D, "bounds.num_outer", "abc"),
        ("simulate", GAUSSIAN_1D, "seed", "7.5"),
        ("simulate", GAUSSIAN_1D, "statistic.d", "2.5"),
        ("simulate", GAUSSIAN_1D, "family.dim", "2.7"),
        ("bounds", SWAP_2D, "bounds.num_outer", "2.5"),
        ("bounds", SWAP_2D, "bounds.num_grid", "2.5"),
        ("predict", TOYRIDGE, "predict.n", "2.5"),
        ("predict", THETA, "predict.grid", "[1, 2.5]"),
    ]
    NON_FINITE = [
        ("simulate", RIDGE_1D, "statistic.lambda", "nan"),
        ("simulate", RIDGE_1D, "source.noise_scale", "inf"),
        ("simulate", GAUSSIAN_1D, "source.mean", "[nan]"),
        ("simulate", GAUSSIAN_1D, "alpha", "-inf"),
    ]

    @pytest.mark.parametrize("command,base", [("simulate", GAUSSIAN_1D), ("simulate", RIDGE_1D),
                                              ("bounds", SWAP_2D), ("predict", TOYRIDGE),
                                              ("predict", THETA),
                                              ("simulate", ONE_MEMBER_SURROGATE),
                                              ("compare", ONE_MEMBER_SURROGATE)],
                             ids=["gaussian", "ridge", "bounds", "toyridge", "theta",
                                  "one_member_surrogate", "one_member_compare"])
    def test_base_configs_run(self, tmp_path, command, base):
        cfgp = _write(tmp_path, base)
        assert cli.main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command,base,key,value", CASES + NON_FINITE,
                             ids=[f"{c[2]}={c[3]}" for c in CASES + NON_FINITE])
    def test_bad_number_exits_2(self, tmp_path, capsys, command, base, key, value):
        cfgp = _write(tmp_path, _set(base, key, value))
        assert cli.main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command,base,key,value", NON_FINITE,
                             ids=[f"{c[2]}={c[3]}" for c in NON_FINITE])
    def test_non_finite_rejected_before_writing(self, tmp_path, capsys, command, base, key,
                                                value):
        cfgp = _write(tmp_path, _set(base, key, value))
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 2
        assert "line" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_integral_float_seed_runs(self, tmp_path):
        for written, seed in (("3.0", "3"), ("1e17", "100000000000000000")):
            cfgp = _write(tmp_path, _set(GAUSSIAN_1D, "seed", written))
            out = tmp_path / written
            assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
            assert f"seed = {seed}\n" in (out / "manifest.txt").read_text()
            # result.csv echoes the typed seed, so the echo reruns as written
            assert f"# config.seed = {seed}" in _read_lines(out / "result.csv")


class TestHugeNumbers:
    """Numbers too large for an int64, an array or a square exit 2 or 3 with one line,
    writing nothing and warning nothing."""

    @pytest.mark.parametrize("command,base,key,value,code", [
        ("simulate", GAUSSIAN_1D, "n", "1e300", 2),
        ("simulate", GAUSSIAN_1D, "k", "1e300", 2),
        ("simulate", GAUSSIAN_1D, "replicates", "1e300", 2),
        ("simulate", GAUSSIAN_1D, "n", str(2**62), 3),
        ("bounds", SWAP_2D, "bounds.num_grid", "1e300", 2),
        ("bounds", RIDGE_1D, "source.noise_scale", "1e300", 2),
        ("simulate", RIDGE_1D, "source.noise_scale", "1e200", 2),
    ], ids=["n=1e300", "k=1e300", "replicates=1e300", "n=2**62", "num_grid=1e300",
            "noise_scale=1e300", "simulate-noise_scale=1e200"])
    def test_exits_cleanly(self, tmp_path, capsys, command, base, key, value, code):
        cfgp = _write(tmp_path, _set(base, key, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _exits_cleanly(tmp_path, capsys, [command, "--config", cfgp], code)
        assert key.split(".")[-1] in err or "allocate" in err



class TestToyRidgeInputs:
    """A toy-ridge input with no finite variance exits 2 or 3 with one line, writing nothing."""

    @pytest.mark.parametrize("body,code,needle", [
        ("predict.grid = [0.5]\npredict.n = 0\npredict.lambda = 1\n", 2, "n >= 1"),
        ("predict.grid = [0.5]\npredict.n = -5\n", 2, "n >= 1"),
        ("predict.grid = [1e-200]\npredict.lambda = 0\n", 3, "floating-point range"),
    ], ids=["n=0,lambda=1", "n=-5", "sigma=1e-200,lambda=0"])
    def test_exits_cleanly(self, tmp_path, capsys, body, code, needle):
        cfgp = _write(tmp_path, "predict.curve = toyridge\n" + body)
        err = _exits_cleanly(tmp_path, capsys, ["predict", "--config", cfgp], code)
        assert needle in err


# the README swap family and average at n = 5, k = 3, R = 20
SWAP_SMALL = """
source.kind = gaussian
source.mean = [0.0, 0.0]
source.cov = [1.0, -0.5, -0.5, 1.0]
family.kind = finite_uniform
family.weights = [0.5, 0.5]
family.member0.matrix = [1.0, 0.0, 0.0, 1.0]
family.member1.matrix = [0.0, 1.0, 1.0, 0.0]
statistic.kind = average
statistic.d = 2
protocol = iid_aug
compare.protocols = iid_aug,unaugmented
n = 5
k = 3
replicates = 20
seed = 7
bounds.num_outer = 2
bounds.num_grid = 2
"""
# a smooth-max temperature so small that the statistic's values lie near the float limit
SMOOTHMAX = _set(SWAP_SMALL, "statistic.kind", "smoothmax")  # statistic.d = 2 sizes it
TINY_T = SMOOTHMAX + "statistic.t = 1e-300\n"
HUGE_MEAN = _set(SWAP_SMALL, "source.mean", "[1e155, 1e155]")
# the risk moments' outer product and mu @ mu overflow at this mean
HUGE_RISK_MEAN = """
source.kind = regression
source.mean = [1e+155, 0.45]
source.cov = [1.0, 0.0, 0.0, 1.0]
source.noise_scale = 1.0
family.kind = identity
family.dim = 4
statistic.kind = ridgerisk
protocol = repeated_surrogate
n = 1
k = 1
replicates = 4
seed = 1
"""

# fig4's paired crop source at one row of one copy: the crop zeroes a covariate, so the
# unpenalized Gram matrix of the ridge fit is singular
CROP_ONE_ROW = """
source.kind = regression
source.mean = [1.0, 1.0]
source.cov = [1.0, 0.5, 0.5, 1.0]
source.noise_scale = 1.0
family.kind = random_crop
family.dim = 2
family.paired = true
statistic.kind = ridge
statistic.lambda = 0.0
protocol = iid_aug
n = 1
k = 1
replicates = 4
seed = 3
bounds.num_outer = 2
bounds.num_grid = 2
"""


class TestStatisticSize:
    """statistic.d is the one size key of every statistic but the ridge kinds."""

    @pytest.mark.parametrize("command", ["simulate", "compare", "bounds"])
    def test_smoothmax_is_sized_by_statistic_d(self, tmp_path, command):
        cfgp = _write(tmp_path, SMOOTHMAX)
        assert cli.main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 0

    def test_two_coordinate_exponential_is_sized_by_statistic_d(self, tmp_path):
        cfgp = _write(tmp_path, _set(SWAP_SMALL, "statistic.kind", "expnegchisq"))
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
        assert "# config.statistic.d = 2" in _read_lines(tmp_path / "out" / "result.csv")


class TestNonFiniteRuns:
    """A run whose statistic or summaries leave floating point, or whose ridge system is
    singular, exits 3 with one line, writes nothing and warns nothing."""

    @pytest.mark.parametrize("command,text,needle", [
        ("simulate", TINY_T, "summaries"),
        ("simulate", HUGE_MEAN, "summaries"),
        ("compare", HUGE_MEAN, "summaries"),
        ("bounds", TINY_T, "non-finite derivative"),
        # the centred sigma11 stays finite at mean 1e155; the sixth moment overflows
        ("bounds", HUGE_MEAN, "moments sixth_moment are not finite"),
        ("simulate", _set(HUGE_MEAN, "protocol", "surrogate"),
         "moments sixth_moment are not finite"),
        ("simulate", HUGE_RISK_MEAN, "ridge system has non-finite entries"),
        ("simulate", CROP_ONE_ROW, "regularized Gram matrix is singular"),
        ("bounds", _set(CROP_ONE_ROW, "statistic.kind", "ridgerisk"),
         "regularized Gram matrix is singular"),
    ], ids=["simulate-tiny-t", "simulate-huge-mean", "compare-huge-mean", "bounds-tiny-t",
            "bounds-huge-mean", "surrogate-huge-mean", "ridgerisk-huge-mean",
            "ridge-singular-gram", "bounds-ridgerisk-singular-gram"])
    def test_exits_3(self, tmp_path, capsys, command, text, needle):
        cfgp = _write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _exits_cleanly(tmp_path, capsys, [command, "--config", cfgp], 3)
        assert needle in err

    @pytest.mark.parametrize("curve", ["vcurve", "dwidth", "f2var"])
    def test_huge_predict_grid_writes_the_limit(self, tmp_path, capsys, curve):
        # 1e300 squared overflows to inf, where each curve reaches its limit 0
        cfgp = _write(tmp_path, f"predict.curve = {curve}\npredict.grid = [1e300]\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["predict", "--config", cfgp, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert float(_read_lines(out / f"predict_{curve}.csv")[1].split(",")[1]) == 0.0

    def test_non_finite_sample_rejected(self, monkeypatch):
        from augquant import montecarlo
        from augquant.errors import NumericalError
        config = experiment_from_config(parse_config_text(SWAP_2D))
        monkeypatch.setattr(montecarlo.stats, "evaluate_batch",
                            lambda kind, points, weights, k: np.full((len(points), 2), np.nan))
        with pytest.raises(NumericalError, match="average statistic or its summaries"):
            montecarlo.run_experiment(config)


def _tree(path):
    """Every file under path, by relative name, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


def _exits_cleanly(tmp_path, capsys, argv, code):
    """Run argv twice, into an absent --out and into a filled one; check both fail alike."""
    absent, filled = tmp_path / "absent", tmp_path / "filled"
    filled.mkdir()
    (filled / "manifest.txt").write_text("an earlier run\n")
    (filled / "result.csv").write_text("sample_0\n1\n")
    before = _tree(filled)
    for out in (absent, filled):
        assert cli.main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
    assert not absent.exists()
    assert _tree(filled) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["filled", *(p.name for p in tmp_path.glob("*.cfg"))])
    return err


class TestConfigKeys:
    def test_unknown_key_names_line(self):
        from augquant.errors import ConfigError
        with pytest.raises(ConfigError, match="line 2: unknown key 'alpah'"):
            parse_config_text("n = 5\nalpah = 0.5\n")

    @pytest.mark.parametrize("key", ["family.member01.matrix", "family.member<N>.matrix",
                                     "family.member0.scale", "surrogate.n"])
    def test_malformed_keys_unknown(self, key):
        from augquant.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = [1.0]\n")

    def test_duplicate_key_names_line(self):
        from augquant.errors import ConfigError
        with pytest.raises(ConfigError, match="line 3: duplicate key 'n'"):
            parse_config_text("n = 5\nk = 2\nn = 6\n")

    def test_every_table_key_parses(self):
        from augquant.config import KEYS
        text = "".join(f"{key.replace('<N>', '3')} = 1\n" for key in KEYS)
        assert len(parse_config_text(text)) == len(KEYS)

    def test_read_defaults_and_missing(self):
        from augquant.config import read
        from augquant.errors import ConfigError
        assert read({}, "alpha") == 0.05
        assert read({"n": 4.0}, "n", "bounds.num_grid") == (4, 17)
        assert read({}, "family.weights") is None
        with pytest.raises(ConfigError, match=r"\['n', 'seed'\]"):
            read({"k": 2}, "n", "k", "seed")

    @pytest.mark.parametrize("value,expected", [("true", True), ("false", False),
                                                ("True", True)])
    def test_boolean_spellings(self, value, expected):
        from augquant.config import read
        assert read(parse_config_text(f"family.paired = {value}\n"), "family.paired") is expected


BAD_CONFIGS = [
    ("simulate", GAUSSIAN_1D + "alpah = 0.5\n", "alpah"),
    ("simulate", GAUSSIAN_1D + "n = 11\n", "duplicate"),
    ("simulate", RIDGE_1D.replace("family.dim = 2", "family.dim = 1") + "family.paired = abc\n",
     "family.paired"),
    ("bounds", SWAP_2D + "bounds.include_repeated = no\n", "bounds.include_repeated"),
    ("simulate", SWAP_2D.replace("member1.matrix", "member2.matrix"), "family.member2.matrix"),
    ("simulate", SWAP_2D + "family.member5.offset = [1.0, 1.0]\n", "family.member5.offset"),
    ("simulate", _set(SWAP_2D, "family.member1.matrix", "[0, 1, 0, 1, 0, 0, 0, 0, 1]"),
     "family.member1.matrix is 3x3"),
    ("simulate", SWAP_2D + "family.member0.offset = [1.0, 0.0, 0.0]\n",
     "family.member0.offset has 3 entries"),
    ("simulate", GAUSSIAN_1D.replace(
        "family.kind = identity\nfamily.dim = 1",
        "family.kind = finite_uniform\nfamily.weights = [1.0]\nfamily.member0.matrix = []"),
     "stack of square maps"),
    ("simulate", _set(GAUSSIAN_1D, "alpha", "abc"), "alpha"),
    ("compare", GAUSSIAN_1D + "compare.protocols = unaugmented\n", "augmented protocol"),
    ("compare", GAUSSIAN_1D + "compare.protocols = iid_aug,unaugmented,iid_aug\n", "twice"),
    ("predict", THETA.replace("[1, 2]", "[0, 1]"), "at least 1"),
    # below -1e-8 max|lambda|: a source covariance is an input, refused when read
    ("simulate", _set(SWAP_2D, "source.cov", "[1e-6, 0.0, 0.0, -5e-9]"), "cov"),
    ("simulate", _set(_set(SWAP_2D, "source.cov", "[1e-6, 0.0, 0.0, -5e-9]"),
                      "protocol", "surrogate"), "cov"),
    ("bounds", _set(SWAP_2D, "source.cov", "[1e-6, 0.0, 0.0, -5e-9]"), "cov"),
    ("simulate", _set(SWAP_2D, "source.cov", "[1e-3, 0.0, 0.0, -5e-11]"), "cov"),
    ("simulate", SMOOTHMAX.replace("statistic.d = 2", "statistic.d_n = 2"),
     "unknown key 'statistic.d_n'"),
]


class TestRefusedInput:
    @pytest.mark.parametrize("command,text,needle", BAD_CONFIGS,
                             ids=["misspelled", "duplicate", "paired_abc", "repeated_no",
                                  "member_gap", "orphan_offset", "member_3x3_beside_2x2",
                                  "offset_longer_than_matrix", "member_0x0", "alpha_abc",
                                  "no_augmented", "protocol_twice", "theta_k0",
                                  "cov_not_psd", "cov_not_psd_surrogate", "cov_not_psd_bounds",
                                  "cov_not_psd_small_scale", "size_key_d_n"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, text, needle):
        cfgp = _write(tmp_path, text)
        assert needle in _exits_cleanly(tmp_path, capsys, [command, "--config", cfgp], 2)

    def test_numerical_failure_writes_nothing(self, tmp_path, capsys):
        cfgp = _write(tmp_path, RANK_DEFICIENT)
        assert "rank" in _exits_cleanly(tmp_path, capsys, ["simulate", "--config", cfgp], 3)

    def test_member_offsets_and_pairing_run(self, tmp_path):
        text = SWAP_2D + "family.member1.offset = [0.5, -0.5]\nfamily.paired = false\n"
        cfgp = _write(tmp_path, text)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("flag,has_repeated", [("true", True), ("false", False)])
    def test_include_repeated_flag(self, tmp_path, flag, has_repeated):
        cfgp = _write(tmp_path, SWAP_2D + f"bounds.include_repeated = {flag}\n")
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", cfgp, "--out", str(out)]) == 0
        assert ("rhs_repeated" in (out / "bounds.csv").read_text()) == has_repeated

    def test_nested_out_made_only_on_success(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "out"
        bad = _write(tmp_path, _set(GAUSSIAN_1D, "alpha", "abc"))
        assert cli.main(["simulate", "--config", bad, "--out", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
        good = _write(tmp_path, GAUSSIAN_1D, name="good.cfg")
        assert cli.main(["simulate", "--config", good, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "result.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "good.cfg", "run.cfg"]

    def test_success_replaces_only_its_own_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        (out / "result.csv").write_text("stale\n")
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "notes.txt",
                                                         "result.csv"]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert (out / "result.csv").read_text().startswith("sample_0\n")


class TestFileErrors:
    def _one_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_out_is_a_file(self, tmp_path, capsys):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        taken = tmp_path / "taken"
        taken.write_text("x\n")
        assert cli.main(["simulate", "--config", cfgp, "--out", str(taken)]) == 2
        self._one_line(capsys)
        assert taken.read_text() == "x\n"

    def test_out_below_a_file(self, tmp_path, capsys):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        taken = tmp_path / "taken"
        taken.write_text("x\n")
        assert cli.main(["simulate", "--config", cfgp, "--out", str(taken / "out")]) == 2
        self._one_line(capsys)
        assert taken.read_text() == "x\n"

    def test_config_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(tmp_path), "--out", str(out)]) == 2
        self._one_line(capsys)
        assert not out.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfgp = tmp_path / "latin1.cfg"
        cfgp.write_bytes(GAUSSIAN_1D.encode() + "# caf\xe9\n".encode("latin-1"))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 2
        self._one_line(capsys)
        assert not out.exists()


class TestOneWriter:
    """main writes every published file once, into the run's stage, which it publishes
    only when the run has succeeded."""

    @staticmethod
    def _record(monkeypatch, fail_at=None):
        """Wrap config.atomic_write to record the paths it writes; call number fail_at,
        counted from 1, raises a full disk instead of writing."""
        from augquant import config as cfgmod
        write, paths = cfgmod.atomic_write, []

        def record(path, text):
            paths.append(path)
            if len(paths) == fail_at:
                raise OSError(28, "No space left on device")
            write(path, text)
        monkeypatch.setattr(cfgmod, "atomic_write", record)
        return paths

    @pytest.mark.parametrize("existing", [False, True], ids=["absent-out", "existing-out"])
    def test_failed_write_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys, existing):
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept\n")
            (out / "result.csv").write_text("stale\n")
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        paths = self._record(monkeypatch, fail_at=2)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "No space left on device" in err and len(paths) == 2
        if existing:
            assert _tree(out) == {"notes.txt": b"kept\n", "result.csv": b"stale\n"}
        else:
            assert not out.exists()
        assert not list(tmp_path.rglob(".augquant-stage-*"))

    @pytest.mark.parametrize("argv,text", [
        (["predict"], "predict.curve = vcurve\npredict.grid = [0.5, 1.0]\n"),
        (["simulate"], SWAP_SMALL), (["compare"], SWAP_SMALL), (["bounds"], SWAP_SMALL),
        (["figure", "--name", "fig2"], None),
    ], ids=["predict", "simulate", "compare", "bounds", "figure-fig2"])
    def test_every_file_is_written_once_into_the_stage(self, tmp_path, monkeypatch, argv,
                                                        text):
        if text is not None:
            argv = [*argv, "--config", _write(tmp_path, text)]
        out = tmp_path / "out"
        paths = self._record(monkeypatch)
        assert cli.main([*argv, "--out", str(out)]) == 0
        (stage,) = {os.path.dirname(path) for path in paths}
        # out is absent, so the stage is made in its nearest existing ancestor
        assert os.path.dirname(stage) == str(tmp_path)
        assert os.path.basename(stage).startswith(".augquant-stage-")
        assert not os.path.exists(stage)
        assert sorted(map(os.path.basename, paths)) == sorted(p.name for p in out.iterdir())

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask-022", "umask-027"])
    def test_published_files_follow_the_umask(self, tmp_path, umask):
        cfgp = _write(tmp_path, GAUSSIAN_1D)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"manifest.txt": 0o666 & ~umask, "result.csv": 0o666 & ~umask}


class TestFigure:
    def test_fig2_bundle(self, tmp_path, monkeypatch):
        # shrink the grid indirectly by checking only structure; desk scale runs fast
        assert cli.main(["figure", "--name", "fig2", "--out", str(tmp_path),
                         "--scale", "desk", "--seed", "5"]) == 0
        lines = _read_lines(tmp_path / "fig2.csv")
        assert lines[0] == "s,std_sim,std_se,std_theory,width_sim,width_theory"
        rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 8
        for row in rows:
            s, std_sim, std_se, std_theory, _, _ = map(float, row.split(","))
            assert abs(std_sim - std_theory) <= 6 * max(std_se, 1e-4)

    def test_fig3_at_largest_seed(self, tmp_path):
        # the cell seeds child_seed(seed, i) are hashed from the largest root seed
        # into the stream-key range
        assert cli.main(["figure", "--name", "fig3", "--out", str(tmp_path),
                         "--seed", str(2**64 - 1)]) == 0
        assert (tmp_path / "fig3.csv").exists()

    def test_fig1_rows_are_the_lone_runs(self, tmp_path):
        # both clouds come from one draw per protocol; each must be its statistic's own run
        # of the cell that cells.txt echoes
        assert cli.main(["figure", "--name", "fig1", "--out", str(tmp_path), "--seed", "5"]) == 0
        cells = _cell_blocks(tmp_path / "cells.txt")
        for name, (c1, c2) in (("average", (0, 1)), ("ridge", (0, 3))):
            want = ["protocol,coord1,coord2"]
            for c, proto in enumerate(("iid_aug", "unaugmented")):
                cell = parse_config_text(cells[c])
                assert cell["protocol"] == proto
                config = experiment_from_config({**cell, "statistic.kind": name})
                want += [f"{proto},{fmt(float(row[c1]))},{fmt(float(row[c2]))}"
                         for row in aq.run_experiment(config).samples]
            assert _read_lines(tmp_path / f"fig1_{name}.csv") == want, name

    def test_fig5_rows_are_the_lone_runs(self, tmp_path):
        # the estimate and its risk share one draw per cell; each column pair must be
        # that statistic's own run at the cell's seed
        assert cli.main(["figure", "--name", "fig5", "--out", str(tmp_path), "--seed", "5"]) == 0
        rows = [line.split(",") for line in _read_lines(tmp_path / "fig5.csv")[1:]
                if not line.startswith("#")]
        grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        assert [float(row[0]) for row in rows] == grid
        for i, (s, row) in enumerate(zip(grid, rows)):
            source = aq.regression_source([1.0], [[s * s]], 1.0)
            risk = aq.ridge_risk_statistic(1, 1, 4.0, aq.risk_moments_from_source(source))
            for kind, cols in ((aq.ridge_statistic(1, 1, 4.0), slice(2, 4)), (risk, slice(4, 6))):
                config = aq.ExperimentConfig(source=source, family=aq.identity_family(2),
                                             protocol="iid_aug", statistic=kind, n=100, k=1,
                                             replicates=2000, seed=child_seed(5, i))
                std, se = cli._std_with_se(aq.run_experiment(config))
                assert row[cols] == [fmt(std), fmt(se)], (s, kind.name)

    def test_no_two_cells_share_a_seed(self, tmp_path, monkeypatch):
        # an engine stub records each cell's seed; within a figure, the cells of the runs
        # at seeds 5 and 6 must all run on distinct seeds
        seeds = []
        fake = SimpleNamespace(samples=np.zeros((1, 4)), std_of_first_coord=1.0,
                               se_of_first_coord_var=0.0, empirical_ci_width=0.0)

        def simulate(config, kinds):
            seeds.append(config.seed)
            return [fake] * len(kinds)
        monkeypatch.setattr(cli.montecarlo, "simulate", simulate)
        monkeypatch.setattr(cli.montecarlo, "run_experiment", lambda config: simulate(
            config, (config.statistic,))[0])
        for name, cells in (("fig1", 2), ("fig2", 8), ("fig3", 4), ("fig4", 14), ("fig5", 6)):
            seeds.clear()
            for seed in ("5", "6"):
                assert cli.main(["figure", "--name", name, "--seed", seed,
                                 "--out", str(tmp_path / name / seed)]) == 0
                # cells.txt holds one block per cell, each with the seed its cell ran on
                blocks = _cell_blocks(tmp_path / name / seed / "cells.txt")
                assert len(blocks) == cells, name
                assert [parse_config_text(b)["seed"] for b in blocks] == seeds[-cells:], name
            assert len(seeds) == 2 * cells, name
            assert len(set(seeds)) == len(seeds), name

    @pytest.mark.parametrize("name, cell, columns", [
        ("fig2", 2, {"expnegchisq": 1}),
        ("fig5", 4, {"ridge": 2, "ridgerisk": 4}),
    ])
    def test_simulate_on_an_echoed_cell_gives_its_std(self, tmp_path, name, cell, columns):
        # row c of fig2 and fig5 is cell c; its std_sim columns are simulate's
        # std_of_first_coord on the cell, with statistic.kind set to each statistic
        fig = tmp_path / name
        assert cli.main(["figure", "--name", name, "--out", str(fig)]) == 0
        cfg = parse_config_text(_cell_blocks(fig / "cells.txt")[cell])
        fields = _read_lines(fig / f"{name}.csv")[1 + cell].split(",")
        for kind, column in columns.items():
            out = tmp_path / kind
            path = _write(tmp_path, config_text({**cfg, "statistic.kind": kind}), f"{kind}.cfg")
            assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
            assert f"# std_of_first_coord = {fields[column]}" in _read_lines(out / "result.csv")

    def test_unknown_figure_exit_2(self, tmp_path):
        assert cli.main(["figure", "--name", "fig9", "--out", str(tmp_path)]) == 2

    def test_workers_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUGQUANT_WORKERS", "3")
        cfgp = _write(tmp_path, "predict.curve = vcurve\npredict.grid = [1.0]\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
        assert "workers = 1\n" in (tmp_path / "out" / "manifest.txt").read_text()
