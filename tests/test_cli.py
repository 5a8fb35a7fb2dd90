import os
import warnings

import numpy as np
import pytest

from augquant import bounds as bd
from augquant import cli
from augquant.config import (config_text, experiment_from_config, parse_config_text,
                             read_config)

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
        from augquant.closedform import ci_width_curve, f2_variance
        cfgp = _write(tmp_path, "predict.curve = dwidth\npredict.grid = [0.5, 2.0]\n"
                                "predict.alpha = 0.05\n")
        assert cli.main(["predict", "--config", cfgp, "--out", str(tmp_path)]) == 0
        lines = _read_lines(tmp_path / "predict_dwidth.csv")
        assert float(lines[1].split(",")[1]) == pytest.approx(ci_width_curve(0.5, 0.05))
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
        import numpy as np
        src = aq.gaussian_source([0, 0], [[1, -0.5], [-0.5, 1]])
        m = aq.estimate_moments(aq.swap_family(), src)
        from augquant.closedform import theta_ratio_average
        assert float(lines[2].split(",")[1]) == pytest.approx(theta_ratio_average(m, src, 5))


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
        assert "stream = 2\n" in (out1 / "manifest.txt").read_text()


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
        # sigma_aug = |2 p - 1| ~ 1e-8, where v_curve's two terms cancel to -1.1e-16
        text = """
source.kind = gaussian
source.mean = [0.0]
source.cov = [1.0]
family.kind = finite_uniform
family.weights = [0.5000000052857143, 0.4999999947142857]
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
                                              ("predict", THETA)],
                             ids=["gaussian", "ridge", "bounds", "toyridge", "theta"])
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
        cfgp = _write(tmp_path, _set(GAUSSIAN_1D, "seed", "3.0"))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert "seed = 3\n" in (out / "manifest.txt").read_text()


class TestHugeNumbers:
    """Numbers too large for an int64 or an array exit 2 or 3 with one line, writing nothing."""

    @pytest.mark.parametrize("command,base,key,value,code", [
        ("simulate", GAUSSIAN_1D, "n", "1e300", 2),
        ("simulate", GAUSSIAN_1D, "k", "1e300", 2),
        ("simulate", GAUSSIAN_1D, "replicates", "1e300", 2),
        ("simulate", GAUSSIAN_1D, "n", str(2**62), 3),
        ("bounds", SWAP_2D, "bounds.num_grid", "1e300", 2),
        ("bounds", RIDGE_1D, "source.noise_scale", "1e300", 2),
    ], ids=["n=1e300", "k=1e300", "replicates=1e300", "n=2**62", "num_grid=1e300",
            "noise_scale=1e300"])
    def test_exits_cleanly(self, tmp_path, capsys, command, base, key, value, code):
        cfgp = _write(tmp_path, _set(base, key, value))
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
TINY_T = (_set(SWAP_SMALL, "statistic.kind", "smoothmax")
          + "statistic.d_n = 2\nstatistic.t = 1e-300\n")
HUGE_MEAN = _set(SWAP_SMALL, "source.mean", "[1e155, 1e155]")


class TestNonFiniteRuns:
    """A run whose statistic or summaries leave floating point exits 3 with one line,
    writes nothing and warns nothing."""

    @pytest.mark.parametrize("command,text,needle", [
        ("simulate", TINY_T, "summaries"),
        ("simulate", HUGE_MEAN, "summaries"),
        ("compare", HUGE_MEAN, "summaries"),
        ("bounds", TINY_T, "non-finite derivative"),
        ("bounds", HUGE_MEAN, "moments sigma11, sixth_moment are not finite"),
        ("simulate", _set(HUGE_MEAN, "protocol", "surrogate"), "moments sigma11"),
    ], ids=["simulate-tiny-t", "simulate-huge-mean", "compare-huge-mean", "bounds-tiny-t",
            "bounds-huge-mean", "surrogate-huge-mean"])
    def test_exits_3(self, tmp_path, capsys, command, text, needle):
        cfgp = _write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = _exits_cleanly(tmp_path, capsys, [command, "--config", cfgp], 3)
        assert needle in err

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
    ("simulate", _set(GAUSSIAN_1D, "alpha", "abc"), "alpha"),
    ("compare", GAUSSIAN_1D + "compare.protocols = unaugmented\n", "augmented protocol"),
    ("compare", GAUSSIAN_1D + "compare.protocols = iid_aug,unaugmented,iid_aug\n", "twice"),
    ("predict", THETA.replace("[1, 2]", "[0, 1]"), "at least 1"),
]


class TestRefusedInput:
    @pytest.mark.parametrize("command,text,needle", BAD_CONFIGS,
                             ids=["misspelled", "duplicate", "paired_abc", "repeated_no",
                                  "member_gap", "orphan_offset", "member_3x3_beside_2x2",
                                  "offset_longer_than_matrix", "alpha_abc",
                                  "no_augmented", "protocol_twice", "theta_k0"])
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
        # the cell seeds (seed + i) mod 2**64 stay inside the stream-key range
        assert cli.main(["figure", "--name", "fig3", "--out", str(tmp_path),
                         "--seed", str(2**64 - 1)]) == 0
        assert (tmp_path / "fig3.csv").exists()

    def test_unknown_figure_exit_2(self, tmp_path):
        assert cli.main(["figure", "--name", "fig9", "--out", str(tmp_path)]) == 2

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUGQUANT_WORKERS", "2")
        assert cli._workers_default() == 2
        monkeypatch.setenv("AUGQUANT_WORKERS", "junk")
        assert cli._workers_default() == 1
