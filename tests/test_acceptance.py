"""Acceptance checks.

Each test exercises one numbered acceptance criterion end to end at its
stated tolerance and prints a single PASS/FAIL line (run with ``-s`` or
``-rA`` to see the lines for passing criteria).  Heavy fitting pipelines are
shared through module-scoped fixtures.
"""

import dataclasses
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cptlaws import (
    REFERENCE_CPT_FRONTIER,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_FRONTIER,
    REFERENCE_SCRATCH_LAW,
    allocation_coefficients,
    compare_laws,
    empirical_transfer,
    eval_frontier,
    eval_law,
    fit_cpt,
    fit_scratch,
    flops_saving_from_frontiers,
    frontier_crossover,
    generate_runset,
    numeric_optimal_params,
    optimal_allocation,
    paper_replica_config,
    parametric_transfer,
    solve_tokens_for_loss,
)
from cptlaws.ingest import LossRecord, TrainingRun

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def check_all(number: int, checks: dict[str, bool], detail: str = "") -> None:
    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    suffix = f"; failed: {', '.join(failed)}" if failed else ""
    report(number, ok, f"{detail}{suffix}")
    assert ok, f"criterion {number} failed checks: {failed}"


@pytest.fixture(scope="module")
def scratch_data():
    return generate_runset(paper_replica_config("scratch"))


@pytest.fixture(scope="module")
def cpt_data():
    return generate_runset(paper_replica_config("cpt"))


@pytest.fixture(scope="module")
def clean_pipeline(scratch_data, cpt_data):
    """Timed two-stage fit on the noise-free replica datasets."""
    start = time.perf_counter()
    scratch_report = fit_scratch(scratch_data)
    p = scratch_report.params
    cpt_report = fit_cpt(cpt_data, (p.E, p.A, p.alpha))
    elapsed = time.perf_counter() - start
    return scratch_report, cpt_report, elapsed


def test_criterion_01_allocation_coefficient_exponents():
    start = time.perf_counter()
    scratch = allocation_coefficients(SCRATCH)
    cpt = allocation_coefficients(CPT)
    elapsed = time.perf_counter() - start
    checks = {
        "scratch_a": abs(scratch.a - 0.4286) < 5e-4,
        "scratch_b": abs(scratch.b - 0.5714) < 5e-4,
        "cpt_a": abs(cpt.a - 0.3846) < 5e-4,
        "cpt_b": abs(cpt.b - 0.6154) < 5e-4,
        "runtime": elapsed < 1e-3,
    }
    check_all(
        1,
        checks,
        f"a/b scratch = {scratch.a:.4f}/{scratch.b:.4f}, "
        f"cpt = {cpt.a:.4f}/{cpt.b:.4f} ({elapsed * 1e6:.0f} us)",
    )


def test_criterion_02_allocation_prefactors():
    start = time.perf_counter()
    scratch = allocation_coefficients(SCRATCH)
    cpt = allocation_coefficients(CPT)
    elapsed = time.perf_counter() - start
    checks = {
        "scratch_k_N": abs(scratch.k_N / 0.324 - 1) < 1e-2,
        "scratch_k_D": abs(scratch.k_D / 0.514 - 1) < 1e-2,
        "cpt_k_N": abs(cpt.k_N / 4.79 - 1) < 1e-2,
        "cpt_k_D": abs(cpt.k_D / 0.035 - 1) < 1e-2,
        "runtime": elapsed < 1e-3,
    }
    check_all(
        2,
        checks,
        f"k_N/k_D scratch = {scratch.k_N:.4f}/{scratch.k_D:.4f}, "
        f"cpt = {cpt.k_N:.3f}/{cpt.k_D:.4f}",
    )


def test_criterion_03_allocation_consistency():
    start = time.perf_counter()
    worst_budget = 0.0
    worst_frontier = 0.0
    for law in (SCRATCH, CPT):
        coeffs = allocation_coefficients(law)
        for compute in np.geomspace(1e18, 1e23, 20):
            plan = optimal_allocation(coeffs, float(compute), law)
            worst_budget = max(
                worst_budget, abs(6.0 * plan.n_opt * plan.d_opt / compute - 1.0)
            )
            numeric = numeric_optimal_params(law, float(compute))
            worst_frontier = max(worst_frontier, abs(numeric / plan.n_opt - 1.0))
    elapsed = time.perf_counter() - start
    checks = {
        "budget_identity": worst_budget < 1e-9,
        "numeric_vs_closed_form": worst_frontier < 1e-2,
        "runtime": elapsed < 5.0,
    }
    check_all(
        3,
        checks,
        f"max 6ND/C deviation {worst_budget:.2e}, max argmin deviation "
        f"{worst_frontier:.2e} ({elapsed:.2f} s)",
    )


def test_criterion_04_frontier_fits():
    scratch_loss = eval_frontier(REFERENCE_SCRATCH_FRONTIER, 1e20)
    cpt_loss = eval_frontier(REFERENCE_CPT_FRONTIER, 1e20)
    crossover = frontier_crossover(REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER)
    checks = {
        # Stated target 2.3477 is not reproducible from the published
        # coefficients: 33.69907 * (1e20)^-0.0579 = 2.3422.  Asserted as
        # stated; see the decisions log for the analysis.
        "scratch_loss_at_1e20": abs(scratch_loss - 2.3477) < 1e-3,
        "cpt_loss_at_1e20": abs(cpt_loss - 2.2626) < 1e-3,
        "crossover_band": 1e56 < crossover < 1e59,
    }
    check_all(
        4,
        checks,
        f"L(1e20) scratch = {scratch_loss:.4f} (stated 2.3477), "
        f"cpt = {cpt_loss:.4f}, crossover = {crossover:.2e} FLOPs",
    )


def test_criterion_05_flops_saving_band():
    savings = [
        flops_saving_from_frontiers(
            REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER, float(level)
        )
        for level in np.linspace(2.1, 2.6, 26)
    ]
    at_2_3 = flops_saving_from_frontiers(
        REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER, 2.3
    )
    checks = {
        "band": all(0.25 < s < 0.55 for s in savings),
        "anchor_value": abs(at_2_3 - 0.45) < 5e-3,
    }
    check_all(
        5,
        checks,
        f"saving over L in [2.1, 2.6] spans [{min(savings):.3f}, {max(savings):.3f}], "
        f"saving(2.3) = {at_2_3:.4f}",
    )


def test_criterion_06_noise_free_round_trip(clean_pipeline):
    scratch_report, cpt_report, elapsed = clean_pipeline
    p, q = scratch_report.params, cpt_report.params
    checks = {
        "alpha": abs(p.alpha - SCRATCH.alpha) < 2e-2,
        "beta": abs(p.beta - SCRATCH.beta) < 2e-2,
        "beta_prime": abs(q.beta_prime - CPT.beta_prime) < 2e-2,
        "gamma": abs(q.gamma - CPT.gamma) < 2e-2,
        "E": abs(p.E / SCRATCH.E - 1) < 5e-2,
        "A": abs(p.A / SCRATCH.A - 1) < 5e-2,
        "B": abs(p.B / SCRATCH.B - 1) < 5e-2,
        "B_prime": abs(q.B_prime / CPT.B_prime - 1) < 5e-2,
        "runtime": elapsed < 60.0,
    }
    check_all(
        6,
        checks,
        f"alpha {p.alpha:.4f}, beta {p.beta:.4f}, beta' {q.beta_prime:.4f}, "
        f"gamma {q.gamma:.4f} ({elapsed:.1f} s)",
    )


def test_criterion_07_noisy_recovery():
    noisy_scratch = generate_runset(
        dataclasses.replace(paper_replica_config("scratch"), noise_sigma=0.01)
    )
    noisy_cpt = generate_runset(
        dataclasses.replace(paper_replica_config("cpt"), noise_sigma=0.01)
    )
    scratch_report = fit_scratch(noisy_scratch)
    p = scratch_report.params
    q = fit_cpt(noisy_cpt, (p.E, p.A, p.alpha)).params
    recovered = {
        "E": (p.E, SCRATCH.E),
        "A": (p.A, SCRATCH.A),
        "B": (p.B, SCRATCH.B),
        "alpha": (p.alpha, SCRATCH.alpha),
        "beta": (p.beta, SCRATCH.beta),
        "B_prime": (q.B_prime, CPT.B_prime),
        "beta_prime": (q.beta_prime, CPT.beta_prime),
        "gamma": (q.gamma, CPT.gamma),
    }
    checks = {
        name: abs(got / truth - 1) < 0.10 for name, (got, truth) in recovered.items()
    }
    worst = max(abs(got / truth - 1) for got, truth in recovered.values())
    check_all(7, checks, f"worst relative error {worst:.3%} at noise sigma 0.01")


def test_criterion_08_law_comparison_direction(scratch_data, cpt_data):
    on_extended = compare_laws(cpt_data)
    on_chinchilla = compare_laws(scratch_data)
    checks = {
        "extended_beats_chinchilla_on_cpt_data": (
            on_extended.extended_error < on_extended.chinchilla_error
        ),
        "gamma_recovered": 0.06 <= on_extended.gamma_fitted <= 0.10,
        "gamma_null_on_scratch_data": abs(on_chinchilla.gamma_fitted) < 2e-2,
    }
    check_all(
        8,
        checks,
        f"cpt data: errors {on_extended.chinchilla_error:.2e} vs "
        f"{on_extended.extended_error:.2e}, gamma {on_extended.gamma_fitted:.4f}; "
        f"scratch data: gamma {on_chinchilla.gamma_fitted:.4f}",
    )


def _bisect_scratch_tokens(level: float, n: float) -> float:
    lo, hi = 1e6, 1e15
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if eval_law(SCRATCH, n, mid) > level:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_criterion_09_transfer_oracle_agreement():
    moved = parametric_transfer(SCRATCH, CPT, 1e9, 1e9)
    level = eval_law(CPT, 1e9, 1e9)
    bisected = _bisect_scratch_tokens(level, 1e9) - 1e9

    d_values = np.geomspace(2e8, 2e9, 48).round().astype(int)
    def law_run(law, run_id, strategy):
        records = tuple(
            LossRecord(int(d), float(eval_law(law, 10**9, int(d)))) for d in d_values
        )
        return TrainingRun(
            id=run_id, strategy=strategy, language="zh", replay_ratio=0.0,
            param_count=10**9, records=records,
        )

    empirical = empirical_transfer(
        law_run(SCRATCH, "pt", "scratch"), law_run(CPT, "cpt", "cpt"), levels=16
    )
    worst_empirical = max(
        abs(
            got
            / parametric_transfer(SCRATCH, CPT, 1e9, solve_tokens_for_loss(CPT, 1e9, lvl))
            - 1
        )
        for lvl, got in zip(empirical.loss_levels, empirical.transferred_tokens)
    )
    checks = {
        "stated_value": abs(moved / 3.62e8 - 1) < 1e-2,
        "bisection_cross_check": abs(moved / bisected - 1) < 1e-6,
        "empirical_agreement": worst_empirical < 2e-2,
    }
    check_all(
        9,
        checks,
        f"parametric {moved:.6g} tokens (bisection {bisected:.6g}), "
        f"worst empirical deviation {worst_empirical:.3%}",
    )


def test_criterion_10_property_suites_single_command():
    root = Path(__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "property", "-q", "--no-header",
         "-p", "no:cacheprovider"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    checks = {
        "suite_green": proc.returncode == 0,
        "runtime": elapsed < 120.0,
    }
    check_all(10, checks, f"pytest -m property: {tail} ({elapsed:.1f} s)")
