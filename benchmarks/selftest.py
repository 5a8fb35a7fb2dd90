"""Self-tests of the benchmark: its checks catch bad outputs, its tracer reaches
nested calls.

    python3 benchmarks/selftest.py

Exits 0 when every test passes.  Takes about half a minute.
"""

import math
import os
import re
import shutil
import sys
import traceback
import unittest.mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TESTS = []


def test(fn):
    TESTS.append(fn)
    return fn


def _plan(name, seed=3):
    import workloads
    run_dir = os.path.join(run.WORK, f"selftest-{name}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload = workloads.WORKLOADS[name](seed, run.compute_threads())
    return run.write_configs(workload, run_dir)


def _problems(plan, calls, reference):
    return [p for inv in run.check_pass(plan, calls, reference)[1] for p in inv]


def _rewrite(path, pattern, repl):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    new = re.sub(pattern, repl, text, count=1, flags=re.M)
    assert new != text, f"pattern {pattern!r} not found in {path}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def _corruption_is_caught(name, output, pattern, repl, index=0, expect="oracle"):
    """Corrupt one output of a clean pass; the oracle, the byte check, the
    missing-file check and the exit-code check must each flag it."""
    cli = run.import_program().cli
    plan = _plan(name)
    _, _, calls = run.run_pass(cli, plan)
    reference, problems = run.check_pass(plan, calls, None)
    assert not any(problems), f"clean {name} output failed: {problems}"
    _, _, out_dir = plan[index]
    _rewrite(os.path.join(out_dir, output), pattern, repl)
    found = _problems(plan, calls, None)
    assert any(expect in p for p in found), f"no {expect!r} failure for {output}: {found}"
    found = _problems(plan, calls, reference)
    assert any("differ in bytes" in p for p in found), "byte check missed the change"
    os.remove(os.path.join(out_dir, output))
    assert any(f"missing {output}" in p for p in _problems(plan, calls, None))
    assert any("exit 3" in p for p in _problems(plan, [(3, "numerical failure")] + calls[1:],
                                                    None))


@test
def shifted_theta_hat_fails_mc_small():
    def shift(m):
        return f"# theta_hat = {float(m.group(1)) + 0.5!r}"
    _corruption_is_caught("mc_small", "compare.csv", r"^# theta_hat = (\S+)", shift)


@test
def nonzero_cropped_entry_fails_mc_ridge():
    _corruption_is_caught("mc_ridge", "result.csv", r"^([^,#\n]+),0,", r"\1,1e-300,")


@test
def shifted_toy_ridge_value_fails_mc_small():
    def shift(m):
        return f"{m.group(1)}{float(m.group(2)) * (1 + 1e-6)!r}"
    _corruption_is_caught("mc_small", "predict_toyridge.csv", r"^(1,)(\S+)$", shift, index=1,
                          expect="toy-ridge variance at sigma 1")


def _scale_bounds_term(key, factor):
    """A bounds.csv rewrite that scales one Monte Carlo term and keeps rhs and
    rhs_repeated consistent with it, as a wrong derivative adapter would."""
    import workloads

    def rewrite(m):
        text = m.group(0)
        got = workloads._parse_bounds(text)
        got[key] *= factor
        n, k = got["n"], got["k"]
        tail = n * k**1.5 * got["lambda2"] * (got["c2"] + got["c3"])
        got["rhs"] = n * math.sqrt(k) * got["lambda1"] * got["delta"] * got["c1"] + tail
        got["rhs_repeated"] = (n * got["omega1"] * got["m1"]
                               + n * got["omega2"] * (got["m2"] + got["m3"]) + tail)
        row = [got["statistic"]] + [repr(got[h]) for h in workloads.BOUNDS_HEADER[1:]]
        return "\n".join([",".join(workloads.BOUNDS_HEADER), ",".join(row)]
                         + [f"# {f} = {got[f]!r}" for f in workloads.BOUNDS_FOOTER]) + "\n"
    return rewrite


def _bounds_term_error_is_caught(index, key):
    for factor in (2.0, 0.5):
        _corruption_is_caught("bounds", "bounds.csv", r"\A(?s:.*)\Z",
                              _scale_bounds_term(key, factor), index=index,
                              expect=f"oracle: log {key} =")


@test
def doubled_or_halved_lambda2_fails_bounds_ridge():
    _bounds_term_error_is_caught(0, "lambda2")


@test
def doubled_or_halved_lambda1_fails_bounds_ridgerisk():
    _bounds_term_error_is_caught(1, "lambda1")


@test
def consistent_rewrite_of_bounds_passes():
    """The rewrite the two tests above use, with factor 1, passes the oracle,
    so what they catch is the scaled term alone."""
    cli = run.import_program().cli
    plan = _plan("bounds")
    _, _, calls = run.run_pass(cli, plan)
    for index, (_, _, out_dir) in enumerate(plan):
        path = os.path.join(out_dir, "bounds.csv")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(re.sub(r"\A(?s:.*)\Z", _scale_bounds_term("lambda1", 1.0), text))
    assert not _problems(plan, calls, None), _problems(plan, calls, None)


@test
def corrupted_run_reports_failures():
    """A whole run whose outputs are wrong reports them in failed/attempted."""
    augquant = run.import_program()
    real = augquant.montecarlo.compare_protocols

    def biased(*args, **kwargs):
        report = real(*args, **kwargs)
        return report.__class__(**{**report.__dict__,
                                   "theta_hat": report.theta_hat + 10 * report.theta_se})
    with unittest.mock.patch.object(augquant.montecarlo, "compare_protocols", biased):
        result = run.run_workload("mc_small", 3, 1.0, 0, None)
    # every compare invocation fails; the toy-ridge predict beside it does not
    assert result["attempted"] >= 4 and result["failed"] == result["attempted"] // 2, result
    assert result["correct"] is False


@test
def substream_twice_per_iid_replicate():
    """Both substream calls of an iid_aug replicate are traced, the nested one
    inside augment_iid included."""
    import tracer
    cli = run.import_program().cli
    plan = _plan("mc_small")
    tr = tracer.Tracer()
    tr.install()
    try:
        run.run_pass(cli, plan)
    finally:
        tr.uninstall()
    assert not tr.absent, tr.absent
    per_layer, reps, substream = tracer.aggregate(tr.take_spans(), tr.layers)
    assert substream["iid_aug"] == 2 * reps["iid_aug"], (substream, reps)
    assert per_layer["bounds.estimate_alpha"]["calls"] == 0
    assert per_layer["statistics.ridge_derivative"]["calls"] == 0
    augmented = reps["iid_aug"] + reps["repeated_aug"] + reps["unaugmented"]
    assert per_layer["core.augment"]["count"] == augmented * 100 * 5, per_layer["core.augment"]
    assert per_layer["quadrature.integrate"]["calls"] > 0, per_layer["quadrature.integrate"]


@test
def uninstall_restores_every_binding():
    import tracer
    augquant = run.import_program()
    before = augquant.montecarlo.substream, augquant.core.DataSource.sample
    tr = tracer.Tracer()
    tr.install()
    assert augquant.montecarlo.substream is not before[0]
    assert augquant.core.substream is augquant.montecarlo.substream
    tr.uninstall()
    assert (augquant.montecarlo.substream, augquant.core.DataSource.sample) == before


@test
def missing_layer_is_absent_not_fatal():
    import tracer
    run.import_program()
    layers = {**tracer.LAYERS, "gone": ["augquant.core:no_such_function"]}
    tr = tracer.Tracer(layers)
    tr.install()
    tr.uninstall()
    assert tr.absent == ["gone"] and len(tr.missing) == 1, (tr.absent, tr.missing)


def main():
    os.environ.update(run.BLAS_PIN)
    failures = 0
    for fn in TESTS:
        try:
            fn()
        except Exception:  # report every failing test, then exit nonzero
            failures += 1
            print(f"FAIL {fn.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {fn.__name__}")
    for name in os.listdir(run.WORK):
        if name.startswith("selftest-"):
            shutil.rmtree(os.path.join(run.WORK, name), ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
