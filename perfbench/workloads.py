"""The benchmark's workloads: seeded inputs, the cptlaws commands of one pass, and output checks.

Each workload is a closed loop with one client: a pass runs its commands one
after another, each in a fresh process, the way a user or a script drives the
CLI.  Inputs come only from the library's public API and the seed; the
program sees nothing but the generated files.

Tolerances are those of ``tests/test_acceptance.py``, copied unchanged.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cptlaws
from cptlaws import REFERENCE_CPT_LAW as CPT
from cptlaws import REFERENCE_SCRATCH_LAW as SCRATCH

#: Model size of the paired pt/CPT runs and the replay runs of ``analysis-cli``.
PAIR_PARAMS = 1_000_000_000
REPLAY_RATIOS = (0.0, 0.05, 0.1, 0.25, 0.5)
REPLAY_RECORDS = 40
TRANSFER_LEVELS = 32
ISOLOSS_RESOLUTION = 256
ALLOCATE_BUDGETS = (1e19, 1e21, 1e23)
#: Records per run of the large log that ``frontier`` parses (42 runs, about
#: 7 MB).  Set-up generates it three times per run, so its size is bounded by
#: the benchmark's total time budget.
LARGE_RECORDS_PER_RUN = 1000


class CheckFailed(Exception):
    """A command's output is missing, malformed or outside its tolerance."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass and the check on its output.

    ``fit`` marks the commands that run the multistart fit; the others are
    the short commands that ``cmd_p50_s`` and ``cmd_tail_s`` summarize.
    """

    label: str
    argv: tuple[str, ...]
    fit: bool
    check: Callable[[], None]


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _read_doc(path: Path, kind: str) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    _require(isinstance(doc, dict), f"{path.name}: not a JSON object")
    _require("schema_version" in doc, f"{path.name}: no schema_version")
    _require(doc.get("kind") == kind, f"{path.name}: kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


# -- set-up helpers: every call into the library gets a span ----------------

def _generate(rec, cfg):
    with rec.span("synth.generate_runset"):
        return cptlaws.generate_runset(cfg)


def _write_runs(rec, runset, path: Path) -> None:
    with rec.span("ingest.serialize_runs"):
        text = cptlaws.serialize_runs(runset)
    path.write_text(text, encoding="utf-8")


def _write_law(rec, law, path: Path) -> None:
    with rec.span("laws.law_to_dict"):
        doc = cptlaws.law_to_dict(law)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _replica_config(strategy: str, small: bool):
    cfg = cptlaws.paper_replica_config(strategy)
    if small:
        cfg = dataclasses.replace(cfg, param_sizes=cfg.param_sizes[::6], records_per_run=8)
    return cfg


# -- checks shared by several workloads -------------------------------------

def _check_allocation(path: Path) -> None:
    doc = _read_doc(path, "allocation_plan")
    deviation = abs(6.0 * doc["n_opt"] * doc["d_opt"] / doc["compute"] - 1.0)
    _require(deviation < 1e-9, f"{path.name}: |6ND/C - 1| = {deviation:.2e}")


def _check_parametric(path: Path, scratch, cpt, n: float, d: float) -> None:
    doc = _read_doc(path, "parametric_transfer")
    expected = cptlaws.parametric_transfer(scratch, cpt, n, d)
    moved = doc["transferred_tokens"]
    _require(abs(moved - expected) <= 1e-9 * abs(expected),
             f"{path.name}: transferred {moved!r}, library gives {expected!r}")
    _require(doc["d_pt"] == doc["d_cpt"] + moved, f"{path.name}: d_pt != d_cpt + transferred")


def _check_frontier(path: Path, expected_points, fixed: bool) -> None:
    doc = _read_doc(path, "frontier_fit")
    points = [tuple(p) for p in doc["points"]]
    _require(doc["n_points"] == len(points) == len(expected_points),
             f"{path.name}: {doc['n_points']} points, expected {len(expected_points)}")
    _require(points == [tuple(p) for p in expected_points],
             f"{path.name}: frontier points differ from the generated log's")
    params = doc["params"]
    _require(params["exponent"] > 0, f"{path.name}: exponent {params['exponent']!r}")
    if fixed:
        _require(params["offset"] == 0.0, f"{path.name}: offset {params['offset']!r}")
    else:
        min_loss = min(loss for _, loss in points)
        _require(0.0 <= params["offset"] <= min_loss, f"{path.name}: offset {params['offset']!r}")


# -- replica-twostage -------------------------------------------------------

def replica_generate(inputs: Path, seed: int, small: bool, rec) -> dict:
    """Noise-free replica logs (42 sizes x 20 records each); the seed does not change them."""
    for strategy in ("scratch", "cpt"):
        runs = _generate(rec, _replica_config(strategy, small))
        _write_runs(rec, runs, inputs / f"{strategy}.jsonl")
    return {}


def _check_scratch_fit(path: Path) -> None:
    """Criterion 6, from-scratch half."""
    p = _read_doc(path, "fit_report")["params"]
    for name in ("alpha", "beta"):
        _require(abs(p[name] - getattr(SCRATCH, name)) < 2e-2, f"{name} = {p[name]!r}")
    for name in ("E", "A", "B"):
        _require(abs(p[name] / getattr(SCRATCH, name) - 1) < 5e-2, f"{name} = {p[name]!r}")


def _check_cpt_fit(path: Path) -> None:
    """Criterion 6, CPT half."""
    p = _read_doc(path, "fit_report")["params"]
    for name in ("beta_prime", "gamma"):
        _require(abs(p[name] - getattr(CPT, name)) < 2e-2, f"{name} = {p[name]!r}")
    _require(abs(p["B_prime"] / CPT.B_prime - 1) < 5e-2, f"B_prime = {p['B_prime']!r}")


def _fitted_law(path: Path):
    return cptlaws.law_from_dict(json.loads(path.read_text(encoding="utf-8"))["params"])


def replica_commands(inputs: Path, seed: int, state: dict) -> list[Command]:
    """The two-stage fit, then short commands on the fitted laws.

    Three allocation budgets and two transfer points, all drawn from the seed,
    give ``cmd_p50_s`` five samples per pass.
    """
    rng = np.random.default_rng(seed)
    budgets = [float(_num(c)) for c in 10 ** rng.uniform(19, 23, size=3)]
    points = [tuple(float(_num(x)) for x in 10 ** rng.uniform(8.5, 9.5, size=2)) for _ in range(2)]
    scratch_fit, cpt_fit = inputs / "scratch_fit.json", inputs / "cpt_fit.json"
    return [
        Command("fit-scratch",
                ("fit", "--runs", str(inputs / "scratch.jsonl"), "--strategy", "scratch",
                 "--out", str(scratch_fit)),
                True, lambda: _check_scratch_fit(scratch_fit)),
        Command("fit-cpt",
                ("fit", "--runs", str(inputs / "cpt.jsonl"), "--strategy", "cpt",
                 "--fixed-from", str(scratch_fit), "--out", str(cpt_fit)),
                True, lambda: _check_cpt_fit(cpt_fit)),
    ] + [
        Command(f"allocate-{i}",
                ("allocate", "--fit", str(cpt_fit), "--compute", _num(compute),
                 "--out", str(inputs / f"allocation-{i}.json")),
                False, lambda p=inputs / f"allocation-{i}.json": _check_allocation(p))
        for i, compute in enumerate(budgets)
    ] + [
        Command(f"transfer-parametric-{i}",
                ("transfer", "--scratch-fit", str(scratch_fit), "--cpt-fit", str(cpt_fit),
                 "--n", _num(n), "--d", _num(d), "--out", str(inputs / f"transfer-{i}.json")),
                False,
                lambda p=inputs / f"transfer-{i}.json", n=n, d=d: _check_parametric(
                    p, _fitted_law(scratch_fit), _fitted_law(cpt_fit), n, d))
        for i, (n, d) in enumerate(points)
    ]


# -- noisy-compare ----------------------------------------------------------

def noisy_generate(inputs: Path, seed: int, small: bool, rec) -> dict:
    """The CPT replica log with seeded log-normal noise (sigma = 0.01)."""
    cfg = dataclasses.replace(_replica_config("cpt", small), noise_sigma=0.01, seed=seed)
    runs = _generate(rec, cfg)
    _write_runs(rec, runs, inputs / "noisy.jsonl")
    return {"runs": runs}


def _check_comparison(path: Path) -> None:
    """``extended_error <= chinchilla_error`` and criterion 8's gamma band."""
    doc = _read_doc(path, "model_comparison")
    _require(doc["extended_error"] <= doc["chinchilla_error"],
             f"extended {doc['extended_error']!r} > chinchilla {doc['chinchilla_error']!r}")
    _require(0.06 <= doc["gamma_fitted"] <= 0.10, f"gamma {doc['gamma_fitted']!r} outside [0.06, 0.10]")


def noisy_commands(inputs: Path, seed: int, state: dict) -> list[Command]:
    log = str(inputs / "noisy.jsonl")
    comparison, frontier = inputs / "comparison.json", inputs / "frontier.json"
    points = cptlaws.extract_compute_frontier(state["runs"])
    return [
        Command("compare-laws", ("compare-laws", "--runs", log, "--out", str(comparison)),
                True, lambda: _check_comparison(comparison)),
        Command("frontier-free",
                ("frontier", "--runs", log, "--no-fix-offset-zero", "--out", str(frontier)),
                False, lambda: _check_frontier(frontier, points, fixed=False)),
    ]


# -- analysis-cli -----------------------------------------------------------

def replay_runs(rec, seed: int, small: bool):
    """Replay runs whose records carry ``val_language`` tags: target "zh", source "en"."""
    records = 6 if small else REPLAY_RECORDS
    runs = []
    for k, ratio in enumerate(REPLAY_RATIOS):
        series = []
        for law, language, offset in ((CPT, "zh", 0), (SCRATCH, "en", 1)):
            cfg = cptlaws.SynthConfig(law=law, param_sizes=(PAIR_PARAMS,), records_per_run=records,
                                      noise_sigma=0.005, seed=seed * 16 + 2 * k + offset)
            run = _generate(rec, cfg).runs[0]
            series += [dataclasses.replace(r, val_language=language) for r in run.records]
        runs.append(cptlaws.TrainingRun(
            id=f"replay-{ratio}", strategy="cpt", language="zh", replay_ratio=ratio,
            param_count=PAIR_PARAMS, records=tuple(sorted(series, key=lambda r: r.tokens)),
        ))
    return cptlaws.RunSet(runs=tuple(runs))


def analysis_generate(inputs: Path, seed: int, small: bool, rec) -> dict:
    """Reference-law JSONs, a 42 x 1000-record log, a paired pt/CPT run and a replay log."""
    rng = np.random.default_rng(seed)
    _write_law(rec, SCRATCH, inputs / "scratch_law.json")
    _write_law(rec, CPT, inputs / "cpt_law.json")

    cfg = dataclasses.replace(cptlaws.paper_replica_config("cpt"), records_per_run=LARGE_RECORDS_PER_RUN,
                              token_multiple=float(rng.uniform(15.0, 25.0)))
    if small:
        cfg = dataclasses.replace(cfg, param_sizes=cfg.param_sizes[::6], records_per_run=50)
    large = _generate(rec, cfg)
    _write_runs(rec, large, inputs / "large.jsonl")

    for law, name in ((SCRATCH, "pt_run.jsonl"), (CPT, "cpt_run.jsonl")):
        cfg = cptlaws.SynthConfig(law=law, param_sizes=(PAIR_PARAMS,), records_per_run=48,
                                  noise_sigma=0.005, seed=seed)
        _write_runs(rec, _generate(rec, cfg), inputs / name)

    _write_runs(rec, replay_runs(rec, seed, small), inputs / "replay.jsonl")
    return {"large": large, "small": small}


def _check_isoloss(path: Path, resolution: int) -> None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    _require(rows[:1] == [["N", "D", "C", "loss", "is_frontier"]], f"{path.name}: bad header")
    body = rows[1:]
    frontier = [row for row in body if row[4] == "true"]
    _require(len(body) == resolution * resolution + resolution and len(frontier) == resolution,
             f"{path.name}: {len(body)} rows, {len(frontier)} frontier rows")
    _require(all(math.isfinite(float(v)) and float(v) > 0 for row in body for v in row[:4]),
             f"{path.name}: non-positive or non-finite value")


def _check_empirical(path: Path) -> None:
    doc = _read_doc(path, "transfer_report")
    keys = ("loss_levels", "d_pt", "d_cpt", "transferred_tokens", "flops_saved_fraction")
    _require(all(len(doc[k]) == TRANSFER_LEVELS for k in keys),
             f"{path.name}: expected {TRANSFER_LEVELS} levels")
    _require(all(f < 1.0 for f in doc["flops_saved_fraction"]), f"{path.name}: saving >= 1")


def _check_replay(path: Path, records: int) -> None:
    doc = _read_doc(path, "forgetting_curves")
    curves = doc["curves"]
    _require([c["replay_ratio"] for c in curves] == list(REPLAY_RATIOS),
             f"{path.name}: {len(curves)} curves")
    for c in curves:
        source = records if c["replay_ratio"] > 0 else 0
        _require(len(c["target_points"]) == records and len(c["source_points"]) == source,
                 f"{path.name}: curve {c['run_id']} has the wrong number of points")


def analysis_commands(inputs: Path, seed: int, state: dict) -> list[Command]:
    rng = np.random.default_rng(seed)
    n, d = (float(_num(x)) for x in 10 ** rng.uniform(8.5, 9.5, size=2))
    small = state["small"]
    resolution = 16 if small else ISOLOSS_RESOLUTION
    points = cptlaws.extract_compute_frontier(state["large"])
    law, scratch_law = str(inputs / "cpt_law.json"), str(inputs / "scratch_law.json")
    large = str(inputs / "large.jsonl")

    def out(name: str) -> Path:
        return inputs / name

    commands = [
        Command(f"allocate-{budget:.0e}",
                ("allocate", "--fit", law, "--compute", _num(budget),
                 "--out", str(out(f"allocate-{budget:.0e}.json"))),
                False, lambda p=out(f"allocate-{budget:.0e}.json"): _check_allocation(p))
        for budget in ALLOCATE_BUDGETS
    ]
    commands += [
        Command("isoloss",
                ("isoloss", "--fit", law, "--n-range", "1e8:1e11", "--d-range", "1e9:1e12",
                 "--resolution", str(resolution), "--out", str(out("isoloss.csv"))),
                False, lambda: _check_isoloss(out("isoloss.csv"), resolution)),
        Command("frontier-fixed",
                ("frontier", "--runs", large, "--out", str(out("frontier-fixed.json"))),
                False, lambda: _check_frontier(out("frontier-fixed.json"), points, fixed=True)),
        Command("frontier-free",
                ("frontier", "--runs", large, "--no-fix-offset-zero",
                 "--out", str(out("frontier-free.json"))),
                False, lambda: _check_frontier(out("frontier-free.json"), points, fixed=False)),
        Command("transfer-empirical",
                ("transfer", "--pt-run", str(out("pt_run.jsonl")),
                 "--cpt-run", str(out("cpt_run.jsonl")), "--levels", str(TRANSFER_LEVELS),
                 "--out", str(out("transfer-empirical.json"))),
                False, lambda: _check_empirical(out("transfer-empirical.json"))),
        Command("transfer-parametric",
                ("transfer", "--scratch-fit", scratch_law, "--cpt-fit", law,
                 "--n", _num(n), "--d", _num(d), "--out", str(out("transfer-parametric.json"))),
                False,
                lambda: _check_parametric(out("transfer-parametric.json"), SCRATCH, CPT, n, d)),
        Command("replay",
                ("replay", "--runs", str(out("replay.jsonl")), "--out", str(out("replay.json"))),
                False, lambda: _check_replay(out("replay.json"), 6 if small else REPLAY_RECORDS)),
    ]
    return commands


@dataclass(frozen=True)
class Workload:
    generate: Callable
    commands: Callable


WORKLOADS = {
    "replica-twostage": Workload(replica_generate, replica_commands),
    "noisy-compare": Workload(noisy_generate, noisy_commands),
    "analysis-cli": Workload(analysis_generate, analysis_commands),
}
