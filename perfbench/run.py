#!/usr/bin/env python3
"""Layered benchmark of the gridpi command-line tool.

    python3 perfbench/run.py --workload paper_scenarios --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is used from src/.
One process starts `python -m gridpi.cli ...` child processes one at a
time (a closed loop with a single client).  A workload is a fixed list of
ops; they run in turn, cycling, until the next op would end after
--seconds, and every op runs at least once.  Wall time and peak RSS of
each child come from os.wait4.  Every op's output is checked (see
checks.py); a failed check counts against `failed`.

--trace 0 reports the end-to-end metrics; --trace 1 runs each op untraced
and then traced and reports per-layer spans and counts (see tracer.py)
plus the tracing overhead.  Human-readable lines come first; the last
line of stdout is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS/OpenMP threads of every child: at most nproc, and 1 keeps the
# numbers steady on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0

COMMAND_METRICS = (("simulate_s", "simulate"), ("gamma_bound_s", "gamma-bound"),
                   ("analyze_s", "analyze"))
MB = 1024.0 * 1024.0


@dataclasses.dataclass
class Op:
    name: str
    command: str          # gridpi subcommand
    argv: list            # arguments after `gridpi`
    check: object         # check(exit_code, stdout) -> [problems]
    csv: str = None       # CSV the op writes, if any


@dataclasses.dataclass
class OpResult:
    op: Op
    wall_s: float
    rss_mb: float
    exit_code: int
    problems: list
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _gains(values):
    return ",".join("%.9g" % v for v in values)


def declared_metrics():
    """(end_to_end, per_layer) lists of (name, unit), as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def _simulate_op(name, scn_path, csv_path, scenario_mod):
    scn = scenario_mod.load_scenario(scn_path)
    ref = checks.Reference(scn)
    positive = scn.kind != "dec_pi"  # swing networks always fail the rank test
    return Op(name, "simulate", ["simulate", scn_path, "--output", csv_path],
              lambda code, out: checks.check_simulate(ref, code, out, csv_path, positive),
              csv=csv_path)


def build_ops(workload, seed, work_dir):
    """Generate the workload's inputs from the seed and list its ops."""
    from gridpi import scenario as scenario_mod

    inputs = gen.generate(workload, seed, os.path.join(work_dir, "inputs"))
    out = os.path.join(work_dir, "out")
    os.makedirs(out, exist_ok=True)
    ops = []
    if workload == "paper_scenarios":
        data = os.path.join(SRC, "gridpi", "data")
        for name in ("ring_share", "dist30_step", "dec30_bias"):
            ops.append(_simulate_op(name, os.path.join(data, name + ".scn"),
                                    os.path.join(out, name + ".csv"), scenario_mod))
    elif workload == "design_sweep":
        for name, meta in inputs.items():
            n = meta["n"]
            ops.append(Op(f"{name}:rank-test", "rank-test",
                          ["rank-test", meta["grid"], "--ki", _gains(meta["ki"])],
                          lambda code, o, n=n: checks.check_rank_test(code, o, n)))
            ops.append(Op(f"{name}:gamma-bound", "gamma-bound",
                          ["gamma-bound", meta["grid"], "--spectral",
                           "--kp", _gains(meta["kp"]), "--ki", _gains(meta["ki"])],
                          checks.check_gamma_bound))
            ops.append(Op(f"{name}:analyze", "analyze", ["analyze", meta["scn"]],
                          checks.check_analyze))
    elif workload == "event_storm":
        for name, meta in inputs.items():
            ops.append(_simulate_op(name, meta["scn"], os.path.join(out, name + ".csv"),
                                    scenario_mod))
    return ops


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GRIDPI_LOG", "GRIDPI_DISABLE_NUMBA")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def run_child(cmd, env, stdout_path, stderr_path, deadline):
    """Run cmd to completion; (wall_s, peak_rss_mb, exit_code).

    The child is reaped with os.wait4, which gives its own peak RSS.  A
    child still running at the deadline is killed and reaped, and
    TimeoutError is raised.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)  # at once, so a late alarm cannot fire
        except BaseException:  # the deadline, an interrupt or SIGTERM: stop the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _read(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def run_op(op, env, work_dir, deadline, spans_path=None):
    stdout_path = os.path.join(work_dir, "stdout.txt")
    stderr_path = os.path.join(work_dir, "stderr.txt")
    if op.csv and os.path.exists(op.csv):
        os.unlink(op.csv)
    if spans_path is None:
        cmd = [sys.executable, "-m", "gridpi.cli"] + op.argv
    else:
        cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "tracer.py"),
               spans_path, "--"] + op.argv
    wall, rss, code = run_child(cmd, env, stdout_path, stderr_path, deadline)
    stdout, stderr = _read(stdout_path), _read(stderr_path)
    try:
        problems = op.check(code, stdout)
    except (OSError, ValueError) as exc:
        problems = [f"check raised {exc!r}"]
    return OpResult(op, wall, rss, code, problems, stdout, stderr)


def setup_sample(env, work_dir, deadline):
    """Wall time of a fresh interpreter that only imports gridpi.cli."""
    out, err = os.path.join(work_dir, "setup.out"), os.path.join(work_dir, "setup.err")
    wall, _, code = run_child([sys.executable, "-c", "import gridpi.cli"], env, out, err, deadline)
    if code != 0:
        raise RuntimeError(f"importing gridpi.cli failed: {_read(err).strip()}")
    return wall


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(doc, stderr):
    """Per-layer values of one traced op from its spans and -X importtime lines."""
    spans = doc["spans"]
    durations = [end - start for _, start, end, _ in spans]
    child_sum = [0.0] * len(spans)
    for k, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += durations[k]

    def ancestors(k):
        parent = spans[k][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    def total(name):
        return sum(d for (n, *_), d in zip(spans, durations) if n == name)

    def self_time(name):
        return sum(d - c for (n, *_), d, c in zip(spans, durations, child_sum) if n == name)

    def calls(name):
        return sum(1 for n, *_ in spans if n == name)

    def outermost(names):
        return sum(d for k, ((n, *_), d) in enumerate(zip(spans, durations))
                   if n in names and not any(a in names for a in ancestors(k)))

    def under(name, ancestor):
        return [k for k, (n, *_) in enumerate(spans) if n == name and ancestor in ancestors(k)]

    imports = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                imports[fields[2].strip()] = int(fields[1]) * 1e-6

    searches = calls("analysis.gamma_star_search")
    counts = doc["counts"]
    csv_rows = csv_bytes = 0
    for path in counts["csv_files"]:
        with open(path, "rb") as fh:
            csv_rows += sum(1 for _ in fh) - 1
        csv_bytes += os.path.getsize(path)
    search_spans = under("analysis.output_stability_check", "analysis.gamma_star_search")
    values = {
        "numerics.integrate_s": total("numerics.integrate_rk4"),
        "numerics.rk4_steps": counts["rk4_steps"],
        "numerics.trace_mb": counts["trace_bytes"] / MB,
        "scenario.csv_s": total("scenario.write_trace_csv"),
        "scenario.csv_mb": csv_bytes / MB,
        "sysmodel.close_loop_s": total("sysmodel.close_loop"),
        "sysmodel.close_loop_calls": calls("sysmodel.close_loop"),
        "sysmodel.swing_to_lti_calls": calls("sysmodel.swing_to_lti"),
        "graph.laplacian_calls": calls("graph.laplacian"),
        "graph.laplacian_s": total("graph.laplacian"),
        "sysmodel.simulate_self_s": self_time("sysmodel.simulate_schedule")
                                    + self_time("sysmodel.simulate"),
        "scenario.run_self_s": self_time("scenario.run_scenario"),
        "numerics.eigen_s": total("numerics.eigen"),
        "numerics.eigen_calls": calls("numerics.eigen"),
        "analysis.unobservable_s": total("analysis.unobservable_subspace"),
        "analysis.stability_check_s": total("analysis.output_stability_check"),
        "analysis.stability_checks": calls("analysis.output_stability_check"),
        "analysis.gamma_search_s": total("analysis.gamma_star_search"),
        "analysis.gamma_bar_s": total("analysis.gamma_bar"),
        "analysis.rank_test_s": total("analysis.xi_rank_test"),
        "numerics.rank_s": total("numerics.numerical_rank"),
        "analysis.predict_s": total("analysis.predict_steady_state"),
        "scenario.load_s": outermost({"scenario.load_scenario", "scenario.load_network"}),
        "scenario.analyze_s": total("scenario.analyze_scenario"),
        "cli.import_s": imports.get("gridpi.cli", 0.0),
        "numerics.import_s": imports.get("gridpi.numerics", 0.0),
        "cli.self_s": doc["main_s"] - sum(d for (_, _, _, p), d in zip(spans, durations) if p < 0),
    }
    extra = {
        "csv_rows": csv_rows,
        "integrated_rows": counts["integrated_rows"],
        "searches": searches,
        "search_checks": len(search_spans),
        "search_eig_unobs_s": sum(durations[k] for k in
                                  under("numerics.eigen", "analysis.gamma_star_search")
                                  + under("analysis.unobservable_subspace",
                                          "analysis.gamma_star_search")),
        "stages": counts["stages"],
        "stage_loops": sum(1 for n, _, _, p in spans
                           if n == "sysmodel.close_loop" and p >= 0
                           and spans[p][0] == "scenario.run_scenario"),
    }
    return values, extra


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD commit read from .git files (no git process, nothing outside the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            return _read(ref_path).strip()
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "blas_threads": {key: str(BLAS_THREADS) for key in BLAS_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def measure(ops, env, work_dir, seconds, traced, deadline):
    """Run the ops in turn, cycling, until the next op would end after `seconds`.

    Every op runs at least once.  With traced set, each op runs untraced
    and then traced.  Setup is sampled three times before the first op and
    once after every second op.  Returns
    (plain, traced_runs, setup): per op a list of OpResult, per op a list
    of (OpResult, values, extra), and the setup samples.
    """
    setup_sample(env, work_dir, deadline)  # writes the bytecode cache; not timed
    setup = [setup_sample(env, work_dir, deadline) for _ in range(MIN_SETUP_SAMPLES)]
    plain = [[] for _ in ops]
    traced_runs = [[] for _ in ops]
    start = time.monotonic()
    count = 0
    while True:
        k = count % len(ops)
        plain[k].append(run_op(ops[k], env, work_dir, deadline))
        if traced:
            spans = os.path.join(work_dir, "spans.json")
            res = run_op(ops[k], env, work_dir, deadline, spans)
            with open(spans, "r", encoding="utf-8") as fh:
                traced_runs[k].append((res,) + layer_metrics(json.load(fh), res.stderr))
        count += 1
        if count % 2 == 0:
            setup.append(setup_sample(env, work_dir, deadline))
        if count < len(ops):
            continue
        now = time.monotonic()
        expected = _median([r.wall_s for r in plain[count % len(ops)]]) * (2 if traced else 1)
        if now + expected - start > seconds or now + expected > deadline:
            return plain, traced_runs, setup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gridpi", "cli.py")):
        print(f"error: no gridpi sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    end_to_end, per_layer = declared_metrics()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))  # clean up on the way out
    deadline = time.monotonic() + RUN_DEADLINE_S

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        env = child_env()
        ops = build_ops(args.workload, args.seed, work_dir)
        plain, traced_runs, setup = measure(ops, env, work_dir, args.seconds,
                                            bool(args.trace), deadline)
    except TimeoutError:
        print("error: an op did not finish before the run's deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    results = [r for runs in plain for r in runs] + [t[0] for runs in traced_runs for t in runs]
    failed = [r for r in results if r.problems]
    for res in failed[:10]:
        print(f"FAILED {res.op.name} (exit {res.exit_code}): {'; '.join(res.problems)}")
        if res.stderr.strip() and not args.trace:
            print("  stderr: " + res.stderr.strip().splitlines()[-1])

    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload: {args.workload}")
    counts = sorted({len(runs) for runs in plain})
    print(f"ops: {len(ops)}, samples per op: {'-'.join(map(str, counts))}"
          + (" (each also traced)" if args.trace else ""))

    walls = [_median([r.wall_s for r in runs]) for runs in plain]
    values = {"setup_s": _median(setup), "wall_s": sum(walls),
              "peak_rss_mb": max(r.rss_mb for r in results)}
    samples = {"setup_s": len(setup), "wall_s": len(results) - sum(map(len, traced_runs)),
               "peak_rss_mb": len(results)}
    units = dict(end_to_end)
    for name, command in COMMAND_METRICS:
        picked = [w for w, op in zip(walls, ops) if op.command == command]
        units[name] = "s"
        if picked:
            values[name] = sum(picked)
            samples[name] = sum(len(runs) for runs, op in zip(plain, ops) if op.command == command)
    values["op_fail_rate"] = len(failed) / len(results)
    samples["op_fail_rate"] = len(results)
    units["op_fail_rate"] = "fraction"
    for name in ("setup_s", "wall_s", "simulate_s", "gamma_bound_s", "analyze_s",
                 "peak_rss_mb", "op_fail_rate"):
        if name in values:
            print(f"  {name:<16} {values[name]:12.6g} {units[name]:<8} (n={samples[name]})")
        else:
            print(f"  {name:<16} {'n/a':>12} {units[name]:<8} (no {name[:-2].replace('_', '-')} ops)")
    print(f"  failed ops: {len(failed)} of {len(results)} attempted")

    if args.trace:
        metrics = traced_report(ops, plain, traced_runs, values["setup_s"], per_layer)
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def traced_report(ops, plain, traced_runs, setup_s, per_layer):
    """Per-layer metrics and the coverage lines.

    A time is the sum over ops of the op's median over its traced runs; a
    count is the sum over ops of one traced run (counts repeat exactly).
    """
    values = {name: sum(_median([t[1][name] for t in runs]) for runs in traced_runs)
              for name in traced_runs[0][0][1]}
    extra = {key: sum(runs[0][2][key] for runs in traced_runs) for key in traced_runs[0][0][2]}
    values["scenario.kept_ratio"] = (extra["csv_rows"] / extra["integrated_rows"]
                                     if extra["integrated_rows"] else 0.0)
    values["analysis.checks_per_search"] = (extra["search_checks"] / extra["searches"]
                                            if extra["searches"] else 0.0)
    values["trace.overhead_s"] = sum(
        _median([t[0].wall_s for t in traced]) - _median([r.wall_s for r in runs])
        for runs, traced in zip(plain, traced_runs))
    n = min(len(runs) for runs in traced_runs)
    for name, unit in per_layer:
        print(f"  {name:<28} {values[name]:12.6g} {unit} (n={n} per op)")

    # Same-process ratio: the traced ops' own wall time, so that machine
    # noise between the untraced and traced samples does not enter.
    sim = sum(_median([t[0].wall_s for t in runs]) - setup_s
              for runs, op in zip(traced_runs, ops) if op.command == "simulate")
    if sim > 0:
        share = values["numerics.integrate_s"] / sim
        print(f"coverage: numerics.integrate_s is {share:.1%} of the traced simulate ops' "
              "wall time minus setup_s per op")
    if extra["searches"]:
        inside = sum(_median([t[2]["search_eig_unobs_s"] for t in runs]) for runs in traced_runs)
        share = inside / values["analysis.gamma_search_s"]
        print(f"coverage: eigen + unobservable inside the gamma search is {share:.1%} of it")
    for op, runs in zip(ops, traced_runs):
        if runs[0][2]["stages"]:
            print(f"stages: {op.name}: {runs[0][2]['stages']} load stages, "
                  f"{runs[0][2]['stage_loops']} stage loops closed by run_scenario, "
                  f"{runs[0][1]['sysmodel.close_loop_calls']} close_loop calls in all")
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer}


if __name__ == "__main__":
    sys.exit(main())
