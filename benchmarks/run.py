"""Layered benchmark of the augquant command line.

    python3 benchmarks/run.py --workload mc_small --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Each workload is a set of CLI invocations (``augquant.cli.main``) on config
files generated from ``--seed``.  A run makes one untimed warm-up pass, then
timed passes until ``--seconds`` of passes have been measured, all in this
process with BLAS threads pinned to 1; between the timed passes it measures
set-up in fresh processes.  Every
invocation's outputs are checked by the workload's oracle and must match the
warm-up's bytes.

``--trace 0`` reports the end-to-end metrics: the mean pass wall and CPU
seconds (``wall_s``, ``cpu_s``), work per wall second (``work_per_s``),
fresh-process ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans of
the traced ones (see tracer.py).  The last stdout line is one JSON object with
keys correct, attempted, failed and metrics.  ``--workload all`` runs every
workload both ways in child processes and writes a BENCH_<date>_<sha>.json
record into benchmarks/results/.
"""

import argparse
import contextlib
import datetime
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("mc_small", "mc_ridge", "bounds")
BLAS_PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "cpu_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_METRICS = {"core.augment.cells": ("core.augment", "count"),
                 "config.atomic_write.bytes": ("config.atomic_write", "bytes")}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, a probe failed)."""


def compute_threads():
    return min(2, len(os.sched_getaffinity(0)))


def import_program():
    """Import augquant from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "augquant", "__init__.py")):
        raise BenchError(f"no program source at {os.path.relpath(SRC, ROOT)}/augquant")
    sys.path.insert(0, SRC)
    import augquant
    import augquant.cli
    where = os.path.dirname(os.path.abspath(augquant.__file__))
    if os.path.dirname(where) != SRC:
        raise BenchError(f"augquant was imported from {where}, not from this checkout")
    return augquant


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "compute_threads": compute_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
            "machine": platform.machine(), "git_sha": git_sha()}


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def write_configs(workload, run_dir):
    """Write each invocation's config; return [(invocation, argv, out_dir)]."""
    plan = []
    for inv in workload.invocations:
        cfg_path = os.path.join(run_dir, f"{inv.name}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(inv.config)
        out_dir = os.path.join(run_dir, f"out_{inv.name}")
        argv = [inv.command, "--config", cfg_path, "--out", out_dir, *inv.extra_args]
        plan.append((inv, argv, out_dir))
    return plan


def measure_setup(workload_name, run_dir):
    """Seconds, in a fresh process, to import augquant and build the workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", run_dir,
           "--workload", workload_name]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_probe(run_dir):
    """Child side of measure_setup: time import plus config/moment/spec builds."""
    t0 = time.perf_counter()
    import_program()
    from augquant import config, surrogate
    for name in sorted(os.listdir(run_dir)):
        if not name.endswith(".cfg"):
            continue
        cfg = config.read_config(os.path.join(run_dir, name))
        if "predict.curve" in cfg:  # a closed-form curve has no experiment to build
            continue
        exp = config.experiment_from_config(cfg)
        moments = surrogate.estimate_moments(exp.family, exp.source)
        surrogate.build_surrogate(moments, exp.n, exp.k, exp.delta)
    print(repr(time.perf_counter() - t0))


def call_cli(cli, argv):
    """Run one CLI invocation in process; return (exit code or None, diagnostics)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # an uncaught traceback is a failed invocation; keep measuring
        return None, traceback.format_exc()
    return rc, err.getvalue()


def run_pass(cli, plan):
    for _, _, out_dir in plan:
        shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    calls = [call_cli(cli, argv) for _, argv, _ in plan]
    return time.perf_counter() - t0, time.process_time() - c0, calls


def check_pass(plan, calls, reference):
    """Check every invocation of a pass; return (outputs, problems per invocation)."""
    from workloads import OracleFailure
    outputs, problems = [], []
    for i, ((inv, _, out_dir), (rc, diag)) in enumerate(zip(plan, calls)):
        files, bad = {}, []
        if rc != 0:
            bad.append(f"exit {rc}: {diag.strip()[-300:]}")
        for name in inv.outputs:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
            else:
                bad.append(f"missing {name}")
        if not bad:
            try:
                inv.oracle({k: v.decode("utf-8") for k, v in files.items()}, inv.params)
            except (OracleFailure, UnicodeDecodeError) as exc:
                bad.append(f"oracle: {exc}")
        if reference is not None and files != reference[i]:
            bad.append("outputs differ in bytes from the warm-up pass")
        outputs.append(files)
        problems.append([f"{inv.name}: {p}" for p in bad])
    return outputs, problems


class Tally:
    """Attempted and failed CLI invocations, with the first failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []

    def add(self, problems):
        self.attempted += len(problems)
        for found in problems:
            if found:
                self.failed += 1
                self.failures.extend(found)


def measure_passes(cli, plan, seconds, tr, tally, reference, probe=None):
    """Timed passes until ``seconds`` of pass time.

    With a tracer, untraced and traced passes alternate, at least one of each.
    Without one, ``probe`` (a set-up measurement) runs SETUP_PROBES times
    between the passes, spread evenly over the run, so that the set-up times
    see the same drift in machine speed as the passes do.
    """
    import tracer
    walls, cpus, traced, aggregates, spans, setups = [], [], [], [], [], []
    measured = 0.0
    while measured < seconds or (tr is not None and not traced):
        if tr is not None and len(walls) > len(traced):
            tr.install()
            try:
                wall, _, calls = run_pass(cli, plan)
            finally:
                tr.uninstall()
            spans = tr.take_spans()
            aggregates.append(tracer.aggregate(spans, tr.layers))
            traced.append(wall)
        else:
            wall, cpu, calls = run_pass(cli, plan)
            walls.append(wall)
            cpus.append(cpu)
        measured += wall
        tally.add(check_pass(plan, calls, reference)[1])
        due = round(SETUP_PROBES * min(measured / seconds, 1.0)) if probe else 0
        while len(setups) < due:
            setups.append(probe())
    return walls, cpus, traced, aggregates, spans, setups


def layer_metrics(per_layer, reps):
    """Flatten one traced pass's aggregate into per-layer metrics."""
    metrics = {}
    for layer, agg in per_layer.items():
        metrics[f"{layer}.calls"] = (agg["calls"], "count")
        metrics[f"{layer}.self_s"] = (agg["self_s"], "s")
    for name, (layer, unit) in COUNT_METRICS.items():
        metrics[name] = (per_layer[layer]["count"], unit)
    substream = per_layer["rng.substream"]["calls"]
    metrics["rng.substream.calls_per_rep"] = (substream / reps if reps else 0.0, "calls/rep")
    return metrics


def traced_metrics(tr, aggregates, traced, median_untraced):
    """Per-layer metrics, each the median of its value over the traced passes.

    trace.accounted_share is the layers' summed self time over the traced
    pass's wall time, trace.busy_threads their summed thread-seconds over it,
    and trace.overhead_s the traced minus the untraced median wall time.
    """
    per_pass = [layer_metrics(per_layer, sum(reps.values()))
                for per_layer, reps, _ in aggregates]
    metrics = {key: (statistics.median(m[key][0] for m in per_pass), unit)
               for key, (_, unit) in per_pass[0].items()}

    def share(field):
        return statistics.median(sum(agg[field] for agg in per_layer.values()) / wall
                                 for (per_layer, _, _), wall in zip(aggregates, traced))
    median_traced = statistics.median(traced)
    metrics["trace.wall_s"] = (median_traced, "s")
    metrics["trace.accounted_share"] = (share("self_s"), "ratio")
    metrics["trace.busy_threads"] = (share("thread_s"), "threads")
    metrics["trace.overhead_s"] = (median_traced - median_untraced, "s")
    metrics["trace.absent_layers"] = (len(tr.absent), "count")
    return metrics


def run_workload(name, seed, seconds, trace, detail_path):
    augquant = import_program()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name](seed, compute_threads())
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        plan = write_configs(workload, run_dir)
        facts = machine_facts()
        print("facts: " + json.dumps(facts, sort_keys=True))
        tally = Tally()
        _, _, calls = run_pass(augquant.cli, plan)  # warm-up, untimed
        reference, problems = check_pass(plan, calls, None)
        tally.add(problems)
        tr = tracer.Tracer() if trace else None
        probe = None if trace else functools.partial(measure_setup, name, run_dir)
        walls, cpus, traced, aggregates, spans, setups = measure_passes(
            augquant.cli, plan, seconds, tr, tally, reference, probe)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    work_per_pass = sum(inv.work for inv in workload.invocations)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "why": workload.why, "work_unit": workload.work_unit,
              "work_per_pass": work_per_pass, "facts": facts,
              "invocations": [argv[0] + " " + inv.name for inv, argv, _ in plan],
              "untraced_walls_s": walls, "untraced_cpu_s": cpus,
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_rate": tally.failed / tally.attempted, "failures": tally.failures[:20]}
    if trace:
        metrics = traced_metrics(tr, aggregates, traced, statistics.median(walls))
        _, reps, substream = aggregates[-1]
        detail.update(traced_walls_s=traced, absent_layers=tr.absent,
                      missing_targets=tr.missing, replicates_by_protocol=reps,
                      substream_calls_per_rep_by_protocol={
                          str(k): substream.get(k, 0) / r for k, r in reps.items() if r})
        spans_path = os.path.join(WORK, f"spans-{name}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": tr.layers, "spans": tracer.spans_as_rows(spans, tr.layers)}, fh)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
        for why in tr.missing:
            print(f"not traced: {why}", file=sys.stderr)
    else:
        # Means, not medians: on a shared VM the same pass runs in a fast or a
        # slow machine state that lasts seconds, so pass times are bimodal and a
        # median jumps between the modes from run to run, while the mean moves
        # only in proportion to the share of slow passes.
        wall = statistics.fmean(walls)
        metrics = {"wall_s": wall, "work_per_s": work_per_pass / wall,
                   "cpu_s": statistics.fmean(cpus), "setup_s": statistics.median(setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        detail["setup_probes_s"] = setups
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    for k, (v, u) in metrics.items():
        print(f"{name} {k} = {v:.6g} {u}")
    print(f"{name} fail_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted} invocations)")
    for found in tally.failures[:5]:
        print(f"failure: {found}", file=sys.stderr)
    detail_path = detail_path or os.path.join(WORK, f"detail-{name}-trace{trace}-seed{seed}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": detail["metrics"]}


# ---------------------------------------------------------------------------
# all workloads, both ways, with a BENCH record
# ---------------------------------------------------------------------------

def run_all(seed, seconds):
    os.makedirs(WORK, exist_ok=True)
    record = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
              "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            detail_path = os.path.join(WORK, f"all-{name}-trace{trace}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--detail", detail_path]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                  cwd=ROOT)
            sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]
                                     if not line.startswith("facts: ")))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{name} --trace {trace} exited {proc.returncode}")
            with open(detail_path, encoding="utf-8") as fh:
                detail = json.load(fh)
            record["facts"] = detail.pop("facts")
            ok = ok and detail["failed"] == 0
            entry["end_to_end" if trace == 0 else "per_layer"] = detail
        record["workloads"][name] = entry
    os.makedirs(RESULTS, exist_ok=True)
    day = record["date"][:10]
    path = os.path.join(RESULTS, f"BENCH_{day}_{record['facts']['git_sha'][:8]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="where to write the run's detail JSON")
    parser.add_argument("--setup-probe", metavar="RUN_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path.insert(0, HERE)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds) else 1
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.detail)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
