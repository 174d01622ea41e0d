"""cptlaws benchmark: time to solution of the CLI on seeded inputs, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the harness measures the code under
``<checkout>/src``.  Set-up generates the workload's inputs from the seed with
the library's public API, several times, and reports the median as
``setup_s``.  The measured phase then runs passes of the workload's command
sequence (``workloads.py``) until ``--seconds`` have passed, always at least
one.  Every command runs in a fresh process through ``child.py``, which calls
``cptlaws.cli:main`` as the console script does, in the user's environment
(no thread variables are set or cleared).

With ``--trace 0`` the last line of output is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` one traced pass
runs instead: each child puts spans around the cptlaws import and every
public cptlaws call, and the metrics are the per-layer ones.  The spans are
written to ``.perfbench_work/spans/<workload>-s<seed>.jsonl``.  ``--smoke``
shrinks every input and the fitter's start grid; the harness's own test uses
it.

The lines before the result give the environment record, a table with every
metric by name and unit, and any failed command or check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

#: A run sets up at least SETUP_REPEATS times and for at least SETUP_MIN_S
#: seconds, at most SETUP_MAX_REPEATS times; ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25
#: A run stops starting passes, and kills a command, this long after it began.
RUN_DEADLINE_S = 170.0
WORKLOAD_NAMES = ("replica-twostage", "noisy-compare", "analysis-cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "cmd_p50_s": "s",
}
#: Commands whose median wall time the table also shows, when the workload runs them.
COMMAND_METRICS = {
    "fit_scratch_s": ("fit-scratch",), "fit_cpt_s": ("fit-cpt",),
    "compare_laws_s": ("compare-laws",), "frontier_s": ("frontier-fixed", "frontier-free"),
    "isoloss_s": ("isoloss",),
}


def _median(values):
    return statistics.median(values) if values else float("nan")


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it; else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return ordered[math.ceil(p * n / 100) - 1], f"p{p} of {n}"
    return ordered[-1], f"max of {n}"


# -- environment record -----------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "cptlaws").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- running commands -------------------------------------------------------

@dataclass
class Result:
    """Outcome of one command: wall time, child CPU and peak RSS, and any failure."""

    command: object
    wall: float
    cpu: float
    rss_kb: int
    error: str | None


def run_command(command, logs: Path, deadline: float, child_opts=()) -> Result:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(CHILD), *child_opts, "--", *command.argv]
    with open(logs / f"{command.label}.out", "w") as out, \
            open(logs / f"{command.label}.err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=logs)
        timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}: {stderr.strip()[-400:]}"
    return Result(command, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, error)


def run_pass(commands, logs: Path, deadline: float, rec=None, spans_path=None, small=False):
    """Run the commands in order.  Returns (wall, results); the outputs are not checked yet."""
    results = []
    small_opts = ("--small-grid",) if small else ()
    start = time.perf_counter()
    for command in commands:
        if rec is None:
            results.append(run_command(command, logs, deadline, small_opts))
            continue
        with rec.span(f"cmd.{command.label}") as span_id:
            opts = ("--spans", str(spans_path), "--run", rec.run_id, "--parent", span_id)
            results.append(run_command(command, logs, deadline, opts + small_opts))
    return time.perf_counter() - start, results


def check(results) -> None:
    """Check the outputs of a pass; a failed check marks its command failed."""
    for result in results:
        if result.error is None:
            try:
                result.command.check()
            except Exception as exc:  # noqa: BLE001 - any failed check counts as a failed operation
                result.error = f"check failed: {type(exc).__name__}: {exc}"


# -- set-up -----------------------------------------------------------------

def set_up(workload, inputs: Path, seed: int, small: bool, rec):
    """Generate the inputs repeatedly; return (state, set-up times, set-up span ids)."""
    times, span_ids, state = [], [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        with rec.span("bench.setup") as span_id:
            start = time.perf_counter()
            state = workload.generate(inputs, seed, small, rec)
            times.append(time.perf_counter() - start)
        span_ids.append(span_id)
    return state, times, span_ids


# -- per-layer metrics ------------------------------------------------------

def _time_call(fn, min_batch_s: float = 0.02, batches: int = 5) -> float:
    """Median seconds per call of ``fn()`` over several batches of calls."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    loops = max(1, int(min_batch_s / max(once, 1e-9)))
    if once > 0.1:
        batches = 3
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        per_call.append((time.perf_counter() - start) / loops)
    return statistics.median(per_call)


def layer_microbenchmarks(scratch: Path) -> dict[str, float]:
    """Per-call times of public functions on fixed inputs, the same on every workload.

    The inputs are the noise-free replica logs (840 records each), the
    reference laws, and a paired pt/CPT run; they do not depend on the seed.
    """
    import numpy as np

    import cptlaws
    import workloads
    from cptlaws import REFERENCE_CPT_LAW as CPT
    from cptlaws import REFERENCE_SCRATCH_LAW as SCRATCH
    from cptlaws.allocator import export_isoloss_csv

    data = cptlaws.generate_runset(cptlaws.paper_replica_config("scratch"))
    theta = (math.log(SCRATCH.A), math.log(SCRATCH.B), math.log(SCRATCH.E),
             SCRATCH.alpha, SCRATCH.beta)
    points = cptlaws.extract_compute_frontier(data)
    n = np.array([float(run.param_count) for run in data for _ in run.records])
    d = np.array([float(rec.tokens) for run in data for rec in run.records])
    pair = [cptlaws.generate_runset(cptlaws.SynthConfig(
        law=law, param_sizes=(workloads.PAIR_PARAMS,), records_per_run=48)).runs[0]
        for law in (SCRATCH, CPT)]
    replay = workloads.replay_runs(spans.Recorder("microbench"), 0, small=False)
    coeffs = cptlaws.allocation_coefficients(CPT)
    grid = cptlaws.isoloss_grid(CPT, (1e8, 1e11), (1e9, 1e12), workloads.ISOLOSS_RESOLUTION)
    level = float(cptlaws.eval_law(CPT, 1e9, 1e10))
    csv_path = scratch / "microbench-isoloss.csv"

    return {
        "fitter.objective_s": _time_call(lambda: cptlaws.objective_scratch(theta, data)),
        "fitter.extract_frontier_s": _time_call(lambda: cptlaws.extract_compute_frontier(data)),
        "fitter.fit_frontier_s": _time_call(lambda: cptlaws.fit_frontier(points)),
        "fitter.fit_frontier_free_s": _time_call(
            lambda: cptlaws.fit_frontier(points, fix_offset_zero=False)),
        "laws.eval_law_s": _time_call(lambda: cptlaws.eval_law(SCRATCH, n, d)),
        "laws.solve_tokens_s": _time_call(lambda: cptlaws.solve_tokens_for_loss(CPT, 1e9, level)),
        "allocator.optimal_allocation_s": _time_call(
            lambda: cptlaws.optimal_allocation(coeffs, 1e21, CPT)),
        "allocator.numeric_optimal_params_s": _time_call(
            lambda: cptlaws.numeric_optimal_params(CPT, 1e21)),
        "allocator.isoloss_grid_s": _time_call(
            lambda: cptlaws.isoloss_grid(CPT, (1e8, 1e11), (1e9, 1e12),
                                         workloads.ISOLOSS_RESOLUTION)),
        "allocator.export_csv_s": _time_call(lambda: export_isoloss_csv(grid, CPT, csv_path)),
        "transfer.empirical_s": _time_call(lambda: cptlaws.empirical_transfer(*pair, 32)),
        "transfer.parametric_s": _time_call(
            lambda: cptlaws.parametric_transfer(SCRATCH, CPT, 1e9, 1e9)),
        "transfer.forgetting_curves_s": _time_call(lambda: cptlaws.forgetting_curves(replay)),
    }


def fitter_counters(pass_spans: list[dict]) -> dict[str, float]:
    """Local-search counters of the pass, read from the ``fitter.local_search`` spans.

    A start is one L-BFGS-B search plus its Nelder-Mead fallback, if any.
    Objective evaluations are ``nfev + 2*k*njev`` for L-BFGS-B (k free
    coordinates: each gradient is a central difference) plus ``nfev`` for
    Nelder-Mead.  A start is in the best basin when its objective is within
    1e-3 relative (1e-12 absolute) of the best start of the same multistart.
    """
    searches = sorted((s for s in pass_spans if s["name"] == "fitter.local_search"),
                      key=lambda s: (s["pid"], s["start"]))
    starts = []  # [parent, duration, objective, ok]
    evals = nit = fallbacks = 0
    for s in searches:
        a = s["attrs"]
        nit += a["nit"]
        if a["method"] == "L-BFGS-B":
            evals += a["nfev"] + 2 * a["k"] * a["njev"]
            starts.append([s["parent"], s["end"] - s["start"], a["fun"],
                           a["success"] and math.isfinite(a["fun"])])
        else:
            evals += a["nfev"]
            fallbacks += 1
            starts[-1][1] += s["end"] - s["start"]
            starts[-1][2:] = [a["fun"], a["success"] and math.isfinite(a["fun"])]
    best: dict[str, float] = {}
    for parent, _, fun, ok in starts:
        if ok:
            best[parent] = min(fun, best.get(parent, math.inf))
    in_basin = sum(1 for parent, _, fun, ok in starts
                   if ok and fun - best[parent] <= 1e-3 * best[parent] + 1e-12)
    return {
        "fitter.starts": len(starts),
        "fitter.objective_evals": evals,
        "fitter.nit": nit,
        "fitter.nm_fallbacks": fallbacks,
        "fitter.failed_starts": sum(1 for *_, ok in starts if not ok),
        "fitter.local_search_p50_s": _median([duration for _, duration, *_ in starts]),
        "fitter.best_basin_share": in_basin / len(starts) if starts else float("nan"),
    }


def per_layer(records: list[dict], pass_id: str, setup_ids: list[str], results) -> dict:
    """Per-layer metrics and the full self-time tables of one traced run."""
    self_time = spans.self_times(records)
    pass_spans = spans.subtree(records, pass_id)
    layers: dict[str, float] = {}
    functions: dict[str, list[float]] = {}
    for s in pass_spans:
        layer = "bench" if s["name"] == "bench.pass" else (
            "process" if s["name"].startswith("cmd.") else s["name"].split(".", 1)[0])
        layers[layer] = layers.get(layer, 0.0) + self_time[s["id"]]
        functions.setdefault(s["name"], []).append(s["end"] - s["start"])
    wall = next(s["end"] - s["start"] for s in pass_spans if s["id"] == pass_id)

    def setup_total(name):
        return _median([sum(s["end"] - s["start"] for s in spans.subtree(records, sid)
                            if s["name"] == name) for sid in setup_ids])

    names = {s["id"]: s["name"] for s in pass_spans}
    by_entry: dict[str, list[dict]] = {}
    for s in pass_spans:
        if s["name"] == "fitter.local_search":
            by_entry.setdefault(names[s["parent"]], []).append(s)
    for entry, searches in sorted(by_entry.items()):
        counters = fitter_counters(searches)
        print(f"local searches under {entry}: " + ", ".join(
            f"{name.split('.', 1)[1]} {value:.6g}" for name, value in counters.items()))

    imports = functions.get("cli.import", [])
    shares = [i / r.wall for i, r in zip(imports, results)]
    parses = [s for s in pass_spans if s["name"] == "ingest.parse_runs"]
    metrics = {
        "trace.wall_s": wall,
        "trace.overhead_s": layers.get("trace", 0.0) + len(pass_spans) * spans.per_span_cost(),
        "process.self_s": layers.get("process", 0.0),
        "cli.import_s": _median(imports),
        "cli.startup_share": _median(shares),
        "cli.self_s": layers.get("cli", 0.0),
        "ingest.parse_s": sum(s["end"] - s["start"] for s in parses),
        "ingest.records": sum(s.get("attrs", {}).get("records", 0) for s in parses),
        "ingest.self_s": layers.get("ingest", 0.0),
        "fitter.self_s": layers.get("fitter", 0.0),
        "fitter.share": layers.get("fitter", 0.0) / wall,
        **fitter_counters(pass_spans),
        "synth.generate_s": setup_total("synth.generate_runset"),
        "ingest.serialize_s": setup_total("ingest.serialize_runs"),
    }
    return metrics, layers, {name: (len(v), sum(v)) for name, v in functions.items()}


# -- the run ----------------------------------------------------------------

PER_LAYER_UNITS = {
    "trace.wall_s": "s", "trace.overhead_s": "s", "process.self_s": "s",
    "cli.import_s": "s", "cli.startup_share": "fraction", "cli.self_s": "s",
    "ingest.parse_s": "s", "ingest.records": "count", "ingest.self_s": "s",
    "fitter.self_s": "s", "fitter.share": "fraction",
    "fitter.starts": "count", "fitter.objective_evals": "count", "fitter.nit": "count",
    "fitter.nm_fallbacks": "count", "fitter.failed_starts": "count",
    "fitter.local_search_p50_s": "s", "fitter.best_basin_share": "fraction",
    "synth.generate_s": "s", "ingest.serialize_s": "s",
    "fitter.objective_s": "s", "fitter.extract_frontier_s": "s", "fitter.fit_frontier_s": "s",
    "fitter.fit_frontier_free_s": "s", "laws.eval_law_s": "s", "laws.solve_tokens_s": "s",
    "allocator.optimal_allocation_s": "s", "allocator.numeric_optimal_params_s": "s",
    "allocator.isoloss_grid_s": "s", "allocator.export_csv_s": "s",
    "transfer.empirical_s": "s", "transfer.parametric_s": "s",
    "transfer.forgetting_curves_s": "s",
}


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit}")


def measure(args, workload, work: Path) -> dict:
    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S
    inputs, logs = work / "inputs", work / "logs"
    logs.mkdir(parents=True)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rec = spans.Recorder(run_id)

    state, setup_times, setup_ids = set_up(workload, inputs, args.seed, args.smoke, rec)
    commands = workload.commands(inputs, args.seed, state)
    del state

    passes = []
    if args.trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-s{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        with rec.span("bench.pass") as pass_id:
            passes.append(run_pass(commands, logs, deadline, rec, spans_path, args.smoke))
        check(passes[0][1])
    else:
        measure_start = time.perf_counter()
        while True:
            passes.append(run_pass(commands, logs, deadline, small=args.smoke))
            check(passes[-1][1])
            now = time.perf_counter()
            if now - measure_start >= args.seconds or now + passes[-1][0] > deadline:
                break

    results = [r for _, pass_results in passes for r in pass_results]
    failures = [r for r in results if r.error]
    outcome = {"attempted": len(results), "failed": len(failures)}
    print("env " + json.dumps(environment(args.seed)))
    for r in failures:
        print(f"FAILED {r.command.label}: {r.error}")

    if args.trace:
        rec.dump(spans_path)
        records = spans.load(spans_path)
        metrics, layers, functions = per_layer(records, pass_id, setup_ids, passes[0][1])
        metrics.update(layer_microbenchmarks(work))
        _print_table("self time per layer over the traced pass",
                     [(layer, t, "s") for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])])
        _print_table("inclusive time per function over the traced pass",
                     [(f"{name} x{count}", t, "s") for name, (count, t) in
                      sorted(functions.items(), key=lambda kv: -kv[1][1])])
        print(f"spans written to {spans_path}")
        units = PER_LAYER_UNITS
    else:
        short = [r.wall for r in results if not r.command.fit]
        tail_value, tail_label = tail(short)
        metrics = {
            "setup_s": _median(setup_times),
            "wall_s": _median([wall for wall, _ in passes]),
            "cpu_s": _median([sum(r.cpu for r in pass_results) for _, pass_results in passes]),
            "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
            "cmd_p50_s": _median(short),
        }
        extra = [(name, _median([r.wall for r in results if r.command.label in labels])
                  if any(r.command.label in labels for r in results) else None, "s")
                 for name, labels in COMMAND_METRICS.items()]
        _print_table(
            f"{args.workload}: {len(passes)} pass(es), {len(results)} commands, "
            f"{len(setup_times)} set-ups; cmd_tail_s is the {tail_label} short commands",
            [(name, value, END_TO_END_UNITS[name]) for name, value in metrics.items()]
            + [("cmd_tail_s", tail_value, "s")] + extra
            + [("error_rate", len(failures) / len(results), "fraction")])
        units = END_TO_END_UNITS
    print(f"run took {time.perf_counter() - run_start:.1f} s")
    return {"correct": not failures, **outcome,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and start grid")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "cptlaws" / "__init__.py").is_file():
        print(f"error: no cptlaws sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cptlaws

    if Path(cptlaws.__file__).resolve().parent != SRC / "cptlaws":
        print(f"error: imported cptlaws from {cptlaws.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args, workloads.WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
