import csv
import dataclasses
import json
import math
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cptlaws
from cptlaws import (
    DomainError,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_FRONTIER,
    REFERENCE_SCRATCH_LAW,
    FrontierParams,
    LossRecord,
    RunSet,
    SynthConfig,
    TrainingRun,
    dump_runs,
    eval_frontier,
    generate_runset,
    law_to_dict,
    load_runs,
    paper_replica_config,
)
from cptlaws import cli
from cptlaws.cli import main
from conftest import foreign_language_runset, law_run, law_runset, past_float_range_runset

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW
SIZES = tuple(int(x) for x in np.geomspace(5e7, 5e9, 4))


def write_law(tmp_path, law, name):
    path = tmp_path / name
    path.write_text(json.dumps(law_to_dict(law)))
    return str(path)


def read_doc(path, kind, keys):
    """The JSON document at ``path``; its top-level keys must be the ``kind`` envelope, then ``keys``."""
    doc = json.loads(Path(path).read_text())
    assert list(doc) == ["schema_version", "kind", *keys]
    assert (doc["schema_version"], doc["kind"]) == (1, kind)
    return doc


_FIT_REPORT_KEYS = ["params", "objective", "n_points", "chosen_init"]


def write_runs(tmp_path, law, name, strategy="scratch", records_per_run=8):
    path = tmp_path / name
    dump_runs(law_runset(law, SIZES, records_per_run=records_per_run, strategy=strategy), path)
    return str(path)


def write_paired_runs(tmp_path):
    """A pretraining run and a CPT run of one 1B model, exactly on the reference laws."""
    d_values = np.geomspace(2e8, 2e9, 24)
    pt_path, cpt_path = tmp_path / "pt.jsonl", tmp_path / "cpt.jsonl"
    dump_runs(RunSet(runs=(law_run(SCRATCH, 10**9, d_values, run_id="pt"),)), pt_path)
    dump_runs(
        RunSet(runs=(law_run(CPT, 10**9, d_values, run_id="cpt", strategy="cpt"),)), cpt_path
    )
    return str(pt_path), str(cpt_path)


def write_replay_runs(tmp_path):
    """Two CPT runs at replay ratios 0.1 and 0.5, each validated on zh and en."""
    lines = []
    for ratio, run_id in ((0.1, "a"), (0.5, "b")):
        for tokens in (10**9, 10**10):
            for lang, loss in (("zh", 3.0), ("en", 2.5)):
                lines.append(json.dumps({
                    "run_id": run_id, "strategy": "cpt", "language": "zh",
                    "replay_ratio": ratio, "param_count": 14 * 10**8,
                    "tokens": tokens, "loss": loss, "val_language": lang,
                }))
    path = tmp_path / "replay.jsonl"
    path.write_text("\n".join(lines))
    return str(path)


class TestSynthCommand:
    def test_preset_writes_full_run_log(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        assert main(["synth", "--preset", "paper-scratch", "--out", str(out)]) == 0
        runs = load_runs(out)
        assert len(runs) == 42
        assert sum(len(r.records) for r in runs) == 42 * 20
        assert "42 runs" in capsys.readouterr().out

    def test_preset_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["synth", "--preset", "paper-cpt", "--out", str(a)])
        main(["synth", "--preset", "paper-cpt", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_noisy_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["synth", "--preset", "paper-scratch", "--noise", "0.01", "--seed", "1",
              "--out", str(a)])
        main(["synth", "--preset", "paper-scratch", "--noise", "0.01", "--seed", "2",
              "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_custom_law_route(self, tmp_path):
        law_path = write_law(tmp_path, CPT, "law.json")
        out = tmp_path / "runs.jsonl"
        assert main(["synth", "--law", law_path, "--out", str(out)]) == 0
        assert {run.strategy for run in load_runs(out)} == {"cpt"}

    def test_requires_exactly_one_source(self, tmp_path):
        out = str(tmp_path / "x.jsonl")
        assert main(["synth", "--out", out]) == 2
        law_path = write_law(tmp_path, SCRATCH, "law.json")
        assert main(
            ["synth", "--preset", "paper-scratch", "--law", law_path, "--out", out]
        ) == 2

    def test_atomic_overwrite_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        main(["synth", "--preset", "paper-scratch", "--out", str(out)])
        main(["synth", "--preset", "paper-scratch", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]
        load_runs(out)


@pytest.mark.slow
class TestFitCommand:
    def test_scratch_then_cpt_pipeline(self, tmp_path, capsys):
        scratch_runs = write_runs(tmp_path, SCRATCH, "scratch.jsonl")
        cpt_runs = write_runs(tmp_path, CPT, "cpt.jsonl", strategy="cpt")
        scratch_fit = tmp_path / "scratch-fit.json"
        cpt_fit = tmp_path / "cpt-fit.json"

        assert main(["fit", "--runs", scratch_runs, "--strategy", "scratch",
                     "--out", str(scratch_fit)]) == 0
        doc = read_doc(scratch_fit, "fit_report", _FIT_REPORT_KEYS)
        assert doc["params"]["law_kind"] == "chinchilla"
        assert abs(doc["params"]["alpha"] - SCRATCH.alpha) < 2e-2

        # the CPT stage requires the scratch fit for its fixed values
        assert main(["fit", "--runs", cpt_runs, "--strategy", "cpt",
                     "--out", str(cpt_fit)]) == 2
        assert main(["fit", "--runs", cpt_runs, "--strategy", "cpt",
                     "--fixed-from", str(scratch_fit), "--out", str(cpt_fit)]) == 0
        doc = read_doc(cpt_fit, "fit_report", _FIT_REPORT_KEYS)
        assert doc["params"]["law_kind"] == "extended_cpt"
        assert abs(doc["params"]["gamma"] - CPT.gamma) < 2e-2
        assert doc["params"]["E"] == json.loads(scratch_fit.read_text())["params"]["E"]

    def test_fixed_from_rejected_for_scratch(self, tmp_path):
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl")
        law = write_law(tmp_path, SCRATCH, "law.json")
        assert main(["fit", "--runs", runs, "--strategy", "scratch",
                     "--fixed-from", law, "--out", str(tmp_path / "o.json")]) == 2

    def test_pairing_is_checked_before_the_log_is_read(self, tmp_path):
        # Neither the missing log nor the missing law is opened, and the
        # fitter is never imported.
        missing, out = str(tmp_path / "missing.jsonl"), str(tmp_path / "o.json")
        argvs = [["fit", "--runs", missing, "--strategy", "cpt", "--out", out],
                 ["fit", "--runs", missing, "--strategy", "scratch",
                  "--fixed-from", str(tmp_path / "missing.json"), "--out", out]]
        result = _run_startup_probe(argvs, module="cptlaws.fitter")
        assert result == {"codes": [2, 2], "after_import": False, "at_end": False}

    @staticmethod
    def small_log(law, noise_sigma=0.03) -> RunSet:
        """The four-size log, 8 records a run, that the invariance tests fit."""
        return generate_runset(SynthConfig(law=law, param_sizes=SIZES, records_per_run=8,
                                           noise_sigma=noise_sigma, seed=3))

    @pytest.mark.property
    def test_line_order_does_not_move_a_fit(self, tmp_path):
        # Three seeded shuffles of a four-size noisy log each give the fits of
        # the log in size order, to the last digit of their repr; the
        # free-offset frontier sorts its points by compute.
        def fits(scratch, cpt):
            first = cptlaws.fit_scratch(scratch)
            fixed = (first.params.E, first.params.A, first.params.alpha)
            frontier = cptlaws.fit_frontier(cptlaws.extract_compute_frontier(scratch),
                                            fix_offset_zero=False)
            return repr((first, cptlaws.fit_cpt(cpt, fixed), cptlaws.compare_laws(cpt), frontier))

        def command(argv, lines, name):
            (tmp_path / name).write_text("".join(lines))
            assert main([*argv, "--runs", str(tmp_path / name),
                         "--out", str(tmp_path / f"{name}.json")]) == 0
            return (tmp_path / f"{name}.json").read_bytes()

        scratch, cpt = self.small_log(SCRATCH), self.small_log(CPT)
        expected = fits(scratch, cpt)
        commands = [(["fit", "--strategy", "scratch"], scratch), (["compare-laws"], cpt)]
        logs = [(argv, cptlaws.serialize_runs(data).splitlines(keepends=True))
                for argv, data in commands]
        expected_docs = [command(argv, lines, f"log-{i}.jsonl")
                         for i, (argv, lines) in enumerate(logs)]
        rng = random.Random(0)
        for k in range(3):
            assert fits(*(RunSet(runs=tuple(rng.sample(data.runs, len(data))))
                          for data in (scratch, cpt))) == expected
            assert [command(argv, rng.sample(lines, len(lines)), f"shuffled-{k}-{i}.jsonl")
                    for i, (argv, lines) in enumerate(logs)] == expected_docs

    # The bound is the largest relative deviation seen on these two logs,
    # 3.3e-8 (sigma = 0.03, token counts scaled; 5.7e-14 without noise),
    # rounded up.
    @pytest.mark.property
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
    def test_units_do_not_move_a_fit(self, noise_sigma):
        # Counts in thousands of parameters or tokens give the same law once
        # A and B are mapped back by k^alpha and k^beta.
        k = 1000
        data = self.small_log(SCRATCH, noise_sigma)
        base = cptlaws.fit_scratch(data).params
        for n_unit, d_unit in ((k, 1), (1, k)):
            scaled = RunSet(runs=tuple(dataclasses.replace(
                run, param_count=run.param_count * n_unit,
                records=tuple(LossRecord(rec.tokens * d_unit, rec.loss) for rec in run.records))
                for run in data))
            p = cptlaws.fit_scratch(scaled).params
            mapped = {"E": p.E, "A": p.A / n_unit**p.alpha, "B": p.B / d_unit**p.beta,
                      "alpha": p.alpha, "beta": p.beta}
            for name, value in mapped.items():
                assert value == pytest.approx(getattr(base, name), rel=4e-8, abs=0), name


class TestAllocateCommand:
    def test_reference_budget(self, tmp_path, capsys):
        law = write_law(tmp_path, SCRATCH, "law.json")
        out = tmp_path / "plan.json"
        assert main(["allocate", "--fit", law, "--compute", "1e21",
                     "--out", str(out)]) == 0
        doc = read_doc(out, "allocation_plan",
                       ["coefficients", "compute", "n_opt", "d_opt", "predicted_loss"])
        assert list(doc["coefficients"]) == ["G", "a", "b", "k_N", "k_D"]
        assert doc["n_opt"] == pytest.approx(3.24e8, rel=1e-2)
        assert doc["d_opt"] == pytest.approx(5.14e11, rel=1e-2)
        printed = capsys.readouterr().out
        assert "N_opt" in printed and "D_opt" in printed

    def test_accepts_fit_report_documents(self, tmp_path):
        report_doc = {
            "schema_version": 1,
            "kind": "fit_report",
            "params": law_to_dict(CPT),
            "objective": 0.0,
            "n_points": 1,
            "chosen_init": [],
        }
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(report_doc))
        out = tmp_path / "plan.json"
        assert main(["allocate", "--fit", str(path), "--compute", "1e21",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_opt"] == pytest.approx(5.72e8, rel=1e-2)

    @pytest.mark.parametrize("envelope, message", [
        ({"schema_version": 99, "kind": "anything"}, "must be a fit_report, got kind 'anything'"),
        ({"schema_version": 99, "kind": "fit_report"}, "unsupported schema_version 99"),
        ({"schema_version": True, "kind": "fit_report"}, "unsupported schema_version True"),
        ({"kind": "fit_report"}, "unsupported schema_version None"),
        ({"schema_version": 1, "kind": "frontier_fit"}, "got kind 'frontier_fit'"),
        ({"schema_version": 1}, "got kind None"),
    ], ids=["tampered", "version-99", "bool-version", "no-version", "other-kind", "no-kind"])
    def test_rejects_a_report_that_is_not_a_fit_report(self, tmp_path, capsys, envelope, message):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({**envelope, "params": law_to_dict(CPT)}))
        assert main(["allocate", "--fit", str(path), "--compute", "1e21"]) == 3
        assert message in capsys.readouterr().err

    def test_frontier_document_rejected(self, tmp_path):
        law = write_law(tmp_path, REFERENCE_SCRATCH_FRONTIER, "frontier.json")
        assert main(["allocate", "--fit", law, "--compute", "1e21"]) == 3


class TestFrontierCommand:
    def test_extract_and_fit(self, tmp_path):
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl", records_per_run=12)
        out = tmp_path / "frontier.json"
        assert main(["frontier", "--runs", runs, "--out", str(out)]) == 0
        doc = read_doc(out, "frontier_fit", ["params", "n_points", "points"])
        assert doc["params"]["law_kind"] == "frontier"
        assert doc["params"]["offset"] == 0.0
        assert doc["params"]["exponent"] > 0
        assert doc["n_points"] == len(doc["points"])

    def test_free_offset_on_its_bound_warns(self, tmp_path, capsys):
        # Seeded noisy log whose free-offset fit ends with the offset on the
        # lowest frontier loss.
        sizes = tuple(int(x) for x in np.geomspace(5e7, 5e9, 42))
        cfg = SynthConfig(law=SCRATCH, param_sizes=sizes, records_per_run=200,
                          noise_sigma=0.01, seed=1)
        runs, out = tmp_path / "runs.jsonl", tmp_path / "frontier.json"
        dump_runs(generate_runset(cfg), runs)
        assert main(["frontier", "--runs", str(runs), "--no-fix-offset-zero",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["offset"] == min(loss for _, loss in doc["points"])
        assert "warning: the fitted offset" in capsys.readouterr().err

    def test_free_offset_inside_its_bound_is_quiet(self, tmp_path, capsys):
        # One run whose records lie exactly on L(C) = 1.2 + 20 C^-0.06.
        truth = FrontierParams(coefficient=20.0, exponent=0.06, offset=1.2)
        n = 10**9
        tokens = [int(c / (6 * n)) for c in np.geomspace(1e16, 1e22, 40)]
        records = tuple(LossRecord(d, eval_frontier(truth, 6.0 * n * d)) for d in tokens)
        run = TrainingRun(id="f", strategy="scratch", language="zh", replay_ratio=0.0,
                          param_count=n, records=records)
        runs, out = tmp_path / "runs.jsonl", tmp_path / "frontier.json"
        dump_runs(RunSet(runs=(run,)), runs)
        assert main(["frontier", "--runs", str(runs), "--no-fix-offset-zero",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["offset"] == pytest.approx(1.2, rel=1e-6)
        assert capsys.readouterr().err == ""


class TestIsolossCommand:
    def test_csv_output(self, tmp_path):
        law = write_law(tmp_path, SCRATCH, "law.json")
        out = tmp_path / "grid.csv"
        assert main(["isoloss", "--fit", law, "--n-range", "1e8:1e10",
                     "--d-range", "1e9:1e12", "--resolution", "5",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25 + 5
        # overwrite is atomic: same result, no temp droppings
        assert main(["isoloss", "--fit", law, "--n-range", "1e8:1e10",
                     "--d-range", "1e9:1e12", "--resolution", "5",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "law.json"]


class TestTransferCommand:
    def test_parametric_route(self, tmp_path):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        cpt = write_law(tmp_path, CPT, "cpt.json")
        out = tmp_path / "transfer.json"
        assert main(["transfer", "--scratch-fit", scratch, "--cpt-fit", cpt,
                     "--n", "1e9", "--d", "1e9", "--out", str(out)]) == 0
        doc = read_doc(out, "parametric_transfer",
                       ["n", "d_cpt", "loss", "d_pt", "transferred_tokens"])
        assert doc["transferred_tokens"] == pytest.approx(3.6188e8, rel=1e-3)
        assert doc["loss"] == pytest.approx(2.9640, abs=1e-3)

    def test_empirical_route(self, tmp_path):
        pt_path, cpt_path = write_paired_runs(tmp_path)
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--pt-run", pt_path, "--cpt-run", cpt_path,
                     "--levels", "8", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(float(row["flops_saved_fraction"]) > 0 for row in rows)

    def test_empirical_route_json(self, tmp_path):
        pt_path, cpt_path = write_paired_runs(tmp_path)
        out = tmp_path / "transfer.json"
        assert main(["transfer", "--pt-run", pt_path, "--cpt-run", cpt_path,
                     "--levels", "8", "--out", str(out)]) == 0
        keys = ["loss_levels", "d_pt", "d_cpt", "transferred_tokens", "flops_saved_fraction"]
        doc = read_doc(out, "transfer_report", keys)
        assert all(len(doc[key]) == 8 for key in keys)
        assert all(fraction > 0 for fraction in doc["flops_saved_fraction"])

    def test_json_suffix_in_any_case(self, tmp_path):
        pt_path, cpt_path = write_paired_runs(tmp_path)
        transfer_out, replay_out = tmp_path / "te.JSON", tmp_path / "x.Json"
        assert main(["transfer", "--pt-run", pt_path, "--cpt-run", cpt_path,
                     "--levels", "8", "--out", str(transfer_out)]) == 0
        assert main(["replay", "--runs", write_replay_runs(tmp_path),
                     "--out", str(replay_out)]) == 0
        read_doc(transfer_out, "transfer_report",
                 ["loss_levels", "d_pt", "d_cpt", "transferred_tokens", "flops_saved_fraction"])
        read_doc(replay_out, "forgetting_curves", ["curves"])

    def test_routes_are_mutually_exclusive(self, tmp_path):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        assert main(["transfer", "--scratch-fit", scratch, "--pt-run", "x.jsonl"]) == 2
        assert main(["transfer"]) == 2

    @pytest.mark.parametrize("flag", ["--pt-run", "--cpt-run", "--scratch-fit", "--cpt-fit"])
    def test_half_a_route_is_usage_error(self, tmp_path, capsys, flag):
        assert main(["transfer", flag, str(tmp_path / "unread.json")]) == 2
        assert "needs" in capsys.readouterr().err

    def test_run_log_of_several_runs_exits_3_naming_the_file(self, tmp_path, capsys):
        _, cpt_path = write_paired_runs(tmp_path)
        several = write_runs(tmp_path, SCRATCH, "several.jsonl")
        assert main(["transfer", "--pt-run", several, "--cpt-run", cpt_path]) == 3
        assert f"error: {several} must contain exactly one run, found 4" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_empirical_route_past_float_range_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                                         suffix):
        # At 10**300 parameters 6 N D is inf: the error names the run.
        d_values = np.geomspace(2e8, 2e9, 8)
        paths = [tmp_path / "pt.jsonl", tmp_path / "cpt.jsonl"]
        for path, scale in zip(paths, (1.0, 0.5)):
            dump_runs(RunSet((law_run(SCRATCH, 10**300, d_values * scale, run_id=path.stem),)), path)
        out = tmp_path / f"transfer.{suffix}"
        assert main(["transfer", "--pt-run", str(paths[0]), "--cpt-run", str(paths[1]),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: run 'pt': compute 6 N D at 2e+08 tokens is past float range\n")
        assert not out.exists()

    # At beta = 0.005 the from-scratch law needs e^4680 tokens for the CPT loss, with
    # or without --out.
    PAST_FLOAT_RANGE = ("error: CPT loss 2.9640443105735965 at N=1000000000.0, D=1000000000.0 "
                        "needs from-scratch tokens past float range\n")

    def _parametric_past_float_range(self, tmp_path, capsys, out):
        scratch = write_law(tmp_path, dataclasses.replace(SCRATCH, beta=0.005), "scratch.json")
        cpt = write_law(tmp_path, CPT, "cpt.json")
        assert main(["transfer", "--scratch-fit", scratch, "--cpt-fit", cpt,
                     "--n", "1e9", "--d", "1e9", *out]) == 3
        assert capsys.readouterr() == ("", self.PAST_FLOAT_RANGE)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cpt.json", "scratch.json"]

    def test_parametric_route_past_float_range_exits_3_and_writes_nothing(self, tmp_path, capsys):
        self._parametric_past_float_range(tmp_path, capsys, ["--out", str(tmp_path / "p.json")])

    def test_parametric_route_past_float_range_without_out_exits_3(self, tmp_path, capsys):
        self._parametric_past_float_range(tmp_path, capsys, [])

    def test_a_document_holding_nan_is_refused_and_not_written(self, tmp_path):
        with pytest.raises(DomainError,
                           match="^the plan document holds a value that is not finite$"):
            cli._write_doc(str(tmp_path / "doc.json"), "plan", {"loss": math.nan})
        assert list(tmp_path.iterdir()) == []


class TestReplayCommand:
    def test_forgetting_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["replay", "--runs", write_replay_runs(tmp_path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {row["replay_ratio"] for row in rows} == {"0.1", "0.5"}

    def test_forgetting_json(self, tmp_path):
        out = tmp_path / "curves.json"
        assert main(["replay", "--runs", write_replay_runs(tmp_path), "--out", str(out)]) == 0
        curves = read_doc(out, "forgetting_curves", ["curves"])["curves"]
        assert [list(curve) for curve in curves] == [[
            "run_id", "replay_ratio", "target_language", "source_language",
            "source_points", "target_points",
        ]] * 2
        assert [curve["replay_ratio"] for curve in curves] == [0.1, 0.5]
        assert [(curve["target_language"], curve["source_language"]) for curve in curves] == [
            ("zh", "en")] * 2
        assert all(len(point) == 2 for curve in curves for point in curve["source_points"])

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_compute_past_float_range_names_the_run(self, tmp_path, capsys, suffix):
        run = TrainingRun("huge", "cpt", "zh", 0.2, 10**300, (
            LossRecord(10**9, 3.0, "zh"), LossRecord(10**9, 2.5, "en")))
        runs, out = tmp_path / "replay.jsonl", tmp_path / f"curves.{suffix}"
        dump_runs(RunSet((run,)), runs)
        assert main(["replay", "--runs", str(runs), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: run 'huge': compute 6 N D at 1e+09 tokens is past float range\n")
        assert not out.exists()


@pytest.mark.slow
class TestCompareLawsCommand:
    def test_comparison_document(self, tmp_path):
        runs = write_runs(tmp_path, CPT, "runs.jsonl", strategy="cpt", records_per_run=6)
        out = tmp_path / "compare.json"
        assert main(["compare-laws", "--runs", runs, "--out", str(out)]) == 0
        doc = read_doc(out, "model_comparison",
                       ["chinchilla_error", "extended_error", "gamma_fitted"])
        assert doc["extended_error"] < doc["chinchilla_error"]
        assert doc["gamma_fitted"] > 0


class TestErrorPaths:
    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "run_id": "r", "strategy": "scratch", "language": "zh",
            "replay_ratio": 0.0, "param_count": 10**9, "tokens": 10, "loss": -1.0,
        }))
        assert main(["fit", "--runs", str(bad), "--strategy", "scratch",
                     "--out", str(tmp_path / "o.json")]) == 3

    def test_null_replay_ratio_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "run_id": "r", "strategy": "scratch", "language": "zh",
            "replay_ratio": None, "param_count": 10**9, "tokens": 10, "loss": 3.0,
        }))
        assert main(["fit", "--runs", str(bad), "--strategy", "scratch",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "line 1: run 'r': replay_ratio" in capsys.readouterr().err

    def test_integer_past_float_range_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "run_id": "r", "strategy": "scratch", "language": "zh",
            "replay_ratio": 0.0, "param_count": 10**9, "tokens": 10**400, "loss": 3.0,
        }))
        assert main(["fit", "--runs", str(bad), "--strategy", "scratch",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "line 1: tokens is too large" in capsys.readouterr().err

    def test_nan_delta_exit_code(self, tmp_path, capsys):
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl")
        assert main(["fit", "--runs", runs, "--strategy", "scratch", "--delta", "nan",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "delta" in capsys.readouterr().err

    def test_nan_noise_exit_code(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        assert main(["synth", "--preset", "paper-scratch", "--noise", "nan",
                     "--out", str(out)]) == 3
        assert "noise_sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_noise_exit_code(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        assert main(["synth", "--preset", "paper-scratch", "--noise", "1000",
                     "--out", str(out)]) == 3
        assert "noise_sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_error_exit_code(self, tmp_path, capsys):
        runs, out = tmp_path / "one-size.jsonl", tmp_path / "o.json"
        dump_runs(law_runset(SCRATCH, SIZES[:1]), runs)
        assert main(["fit", "--runs", str(runs), "--strategy", "scratch",
                     "--out", str(out)]) == 4
        assert "fit error:" in capsys.readouterr().err
        assert not out.exists()

    def test_coefficient_past_float_range_exit_code(self, tmp_path, capsys):
        runs, out = tmp_path / "huge-tokens.jsonl", tmp_path / "o.json"
        dump_runs(past_float_range_runset(), runs)
        assert main(["fit", "--runs", str(runs), "--strategy", "scratch",
                     "--out", str(out)]) == 4
        assert "fit error: fitted B = exp(816" in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_past_the_cap_exit_code(self, tmp_path, capsys):
        # sigma = 0.1, seed 11: the fit ends at log alpha = 65.9, past the cap
        # of 50 at which the kernel holds alpha and its slope.
        runs, out = tmp_path / "noisy.jsonl", tmp_path / "o.json"
        dump_runs(generate_runset(SynthConfig(
            law=SCRATCH, param_sizes=SIZES, records_per_run=8, noise_sigma=0.1, seed=11,
        )), runs)
        assert main(["fit", "--runs", str(runs), "--strategy", "scratch",
                     "--out", str(out)]) == 4
        assert "fit error: fitted alpha = exp(65.9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit", "--strategy", "scratch"], ["compare-laws"]],
                             ids=["fit", "compare-laws"])
    def test_no_usable_records_exit_code(self, tmp_path, capsys, command):
        runs, out = tmp_path / "foreign.jsonl", tmp_path / "o.json"
        dump_runs(foreign_language_runset(SCRATCH, SIZES), runs)
        assert main([*command, "--runs", str(runs), "--out", str(out)]) == 4
        assert "RunSet contains no usable records" in capsys.readouterr().err
        assert not out.exists()

    def test_frontier_without_own_language_records_exit_code(self, tmp_path, capsys):
        runs, out = tmp_path / "foreign.jsonl", tmp_path / "o.json"
        dump_runs(foreign_language_runset(SCRATCH, SIZES), runs)
        assert main(["frontier", "--runs", str(runs), "--out", str(out)]) == 3
        assert "no run has a record of its own language" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["fit", "--runs", str(tmp_path / "nope.jsonl"),
                     "--strategy", "scratch", "--out", str(tmp_path / "o.json")]) == 5

    def test_malformed_law_document_exit_code(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["allocate", "--fit", str(broken), "--compute", "1e21"]) == 3

    def test_non_finite_compute_exit_code(self, tmp_path, capsys):
        law = write_law(tmp_path, SCRATCH, "law.json")
        assert main(["allocate", "--fit", law, "--compute", "inf"]) == 3
        assert "compute must be positive and finite" in capsys.readouterr().err

    def test_bad_range_string_exit_code(self, tmp_path, capsys):
        law = write_law(tmp_path, SCRATCH, "law.json")
        for text in ("banana", "1e8", "1e8:abc", "1:2:3"):
            assert main(["isoloss", "--fit", law, "--n-range", text,
                         "--d-range", "1e9:1e12", "--resolution", "4",
                         "--out", str(tmp_path / "g.csv")]) == 3
            assert f"--n-range expects LO:HI, got {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_compute_past_float_range_exit_code(self, tmp_path, capsys):
        law = write_law(tmp_path, SCRATCH, "law.json")
        assert main(["isoloss", "--fit", law, "--n-range", "1e-200:1e9", "--d-range",
                     "1e-200:1e12", "--out", str(tmp_path / "g.csv")]) == 3
        assert "n_range (1e-200, 1000000000.0), d_range (1e-200, 1000000000000.0)" in (
            capsys.readouterr().err)

    def test_run_log_of_invalid_utf8_exit_code_names_the_file(self, tmp_path, capsys):
        runs = Path(write_runs(tmp_path, SCRATCH, "runs.jsonl"))
        runs.write_bytes(runs.read_bytes().replace(b'"synthetic"', b'"\xff"', 1))
        assert main(["frontier", "--runs", str(runs), "--out", str(tmp_path / "o.json")]) == 3
        assert f"error: {runs}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"schema_version": 1, "law_kind": "\xff"}', b'{"E": 1' + b"0" * 5000 + b"}",
        b"[" * 100_000,
    ], ids=["invalid-utf8", "integer-past-digit-limit", "nested-past-recursion-limit"])
    def test_undecodable_law_document_exit_code_names_the_file(self, tmp_path, capsys, text):
        law = tmp_path / "law.json"
        law.write_bytes(text)
        assert main(["allocate", "--fit", str(law), "--compute", "1e21"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {law}: ")

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--strategy", "scratch"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("field, value", [("strategy", "foo"), ("param_count", 0)])
    def test_run_field_out_of_range_exit_code(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "run_id": "r", "strategy": "scratch", "language": "zh",
            "replay_ratio": 0.0, "param_count": 10**9, "tokens": 10, "loss": 3.0, field: value,
        }))
        assert main(["frontier", "--runs", str(bad), "--out", str(tmp_path / "o.json")]) == 3
        assert f"error: line 1: run 'r': {field} must" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "law document must be a JSON object"),
        (json.dumps({**law_to_dict(SCRATCH), "extra": 1}),
         "bad chinchilla document: unknown field 'extra'"),
        (json.dumps({**law_to_dict(SCRATCH), "schema_version": True}),
         "unsupported schema_version True"),
        (json.dumps({**law_to_dict(SCRATCH), "law_kind": [1]}), "unknown law_kind [1]"),
        (json.dumps({**law_to_dict(SCRATCH), "E": -1}),
         "bad chinchilla document: E must be positive and finite, got -1.0"),
    ], ids=["array", "unknown-field", "bool-version", "list-kind", "negative-E"])
    def test_malformed_law_shape_exit_code(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["allocate", "--fit", str(bad), "--compute", "1e21"]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_zero_bins_and_levels_exit_code(self, tmp_path, capsys):
        pt_path, cpt_path = write_paired_runs(tmp_path)
        assert main(["frontier", "--runs", pt_path, "--bins-per-decade", "0",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "bins_per_decade must be at least 1, got 0" in capsys.readouterr().err
        assert main(["transfer", "--pt-run", pt_path, "--cpt-run", cpt_path, "--levels", "0"]) == 3
        assert "levels must be at least 1, got 0" in capsys.readouterr().err

    def test_unreachable_loss_maps_to_validation_exit(self, tmp_path):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        # a CPT law with a lower irreducible loss dips under the scratch
        # floor once the data term has decayed
        deep = type(CPT)(E=1.2, A=CPT.A, alpha=CPT.alpha, B_prime=CPT.B_prime,
                         beta_prime=CPT.beta_prime, gamma=CPT.gamma)
        cpt = write_law(tmp_path, deep, "cpt.json")
        assert main(["transfer", "--scratch-fit", scratch, "--cpt-fit", cpt,
                     "--n", "1e9", "--d", "1e15"]) == 3


# Each subcommand with one input slot that receives the bad file; the other
# inputs are valid, and {out} is a fresh output path.
_INPUT_SLOTS = {
    "fit-runs": ["fit", "--runs", "{bad}", "--strategy", "scratch", "--out", "{out}"],
    "fit-fixed-from": ["fit", "--runs", "{runs}", "--strategy", "cpt",
                       "--fixed-from", "{bad}", "--out", "{out}"],
    "frontier": ["frontier", "--runs", "{bad}", "--out", "{out}"],
    "allocate": ["allocate", "--fit", "{bad}", "--compute", "1e21"],
    "isoloss": ["isoloss", "--fit", "{bad}", "--n-range", "1e8:1e10",
                "--d-range", "1e9:1e12", "--resolution", "4", "--out", "{out}"],
    "transfer-empirical": ["transfer", "--pt-run", "{bad}", "--cpt-run", "{runs}"],
    "transfer-parametric": ["transfer", "--scratch-fit", "{bad}", "--cpt-fit", "{cpt}",
                            "--n", "1e9", "--d", "1e10"],
    "replay": ["replay", "--runs", "{bad}", "--out", "{out}"],
    "synth": ["synth", "--law", "{bad}", "--out", "{out}"],
    "compare-laws": ["compare-laws", "--runs", "{bad}"],
}


class TestExitCodeContract:
    @pytest.mark.parametrize("slot", sorted(_INPUT_SLOTS))
    @pytest.mark.parametrize(
        "bad_input", ["missing", "not-json", "wrong-kind-law", "bool-field", "huge-int-field"]
    )
    def test_bad_input_gives_documented_exit_code(self, tmp_path, capsys, slot, bad_input):
        bad = tmp_path / "bad.json"
        if bad_input == "not-json":
            bad.write_text("{not json\n")
        elif bad_input == "wrong-kind-law":
            bad.write_text(json.dumps(law_to_dict(REFERENCE_SCRATCH_FRONTIER)))
        elif bad_input in ("bool-field", "huge-int-field"):
            doc = law_to_dict(SCRATCH)
            doc["E"] = True if bad_input == "bool-field" else 10**400
            bad.write_text(json.dumps(doc))
        paths = {
            "bad": str(bad),
            "runs": write_runs(tmp_path, SCRATCH, "runs.jsonl"),
            "cpt": write_law(tmp_path, CPT, "cpt.json"),
            "out": str(tmp_path / "out.json"),
        }
        try:
            code = main([arg.format(**paths) for arg in _INPUT_SLOTS[slot]])
        except SystemExit as exc:
            code = exc.code
        assert code in (2, 3, 4, 5)
        assert "Traceback" not in capsys.readouterr().err


# Each law slot with a law of a kind it does not take, written to {wrong};
# the other inputs are valid.
_WRONG_KIND_SLOTS = {
    "fit-fixed-from": (CPT, ["fit", "--runs", "{runs}", "--strategy", "cpt",
                             "--fixed-from", "{wrong}", "--out", "{out}"]),
    "transfer-scratch-fit": (CPT, ["transfer", "--scratch-fit", "{wrong}", "--cpt-fit", "{cpt}",
                                   "--n", "1e9", "--d", "1e10", "--out", "{out}"]),
    "transfer-cpt-fit": (SCRATCH, ["transfer", "--scratch-fit", "{scratch}", "--cpt-fit",
                                   "{wrong}", "--n", "1e9", "--d", "1e10", "--out", "{out}"]),
    "allocate": (REFERENCE_SCRATCH_FRONTIER,
                 ["allocate", "--fit", "{wrong}", "--compute", "1e21", "--out", "{out}"]),
    "isoloss": (REFERENCE_SCRATCH_FRONTIER,
                ["isoloss", "--fit", "{wrong}", "--n-range", "1e8:1e10",
                 "--d-range", "1e9:1e12", "--out", "{out}"]),
    "synth": (REFERENCE_SCRATCH_FRONTIER, ["synth", "--law", "{wrong}", "--out", "{out}"]),
}


class TestWrongKindLaw:
    @pytest.mark.parametrize("slot", sorted(_WRONG_KIND_SLOTS))
    def test_exits_3_naming_the_file_and_writes_nothing(self, tmp_path, capsys, slot):
        law, argv = _WRONG_KIND_SLOTS[slot]
        paths = {
            "wrong": write_law(tmp_path, law, "wrong.json"),
            "runs": write_runs(tmp_path, CPT, "runs.jsonl", strategy="cpt"),
            "scratch": write_law(tmp_path, SCRATCH, "scratch.json"),
            "cpt": write_law(tmp_path, CPT, "cpt.json"),
            "out": str(tmp_path / "out"),
        }
        assert main([arg.format(**paths) for arg in argv]) == 3
        assert f"error: {paths['wrong']}: expected a" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOutputFiles:
    """Outputs are written like ``open(path, "w")`` would write them, but atomically."""

    @pytest.fixture(params=[(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"])
    def umask(self, request):
        mask, mode = request.param
        old = os.umask(mask)
        yield mode
        os.umask(old)

    @pytest.mark.parametrize("command", ["fit", "isoloss", "synth"])
    def test_new_output_takes_the_umask(self, tmp_path, umask, command):
        out = tmp_path / "out"
        argv = {
            "fit": ["fit", "--runs", write_runs(tmp_path, SCRATCH, "runs.jsonl"),
                    "--strategy", "scratch", "--out", f"{out}.json"],
            "isoloss": ["isoloss", "--fit", write_law(tmp_path, SCRATCH, "law.json"),
                        "--n-range", "1e8:1e10", "--d-range", "1e9:1e12", "--resolution", "4",
                        "--out", f"{out}.csv"],
            "synth": ["synth", "--preset", "paper-scratch", "--out", f"{out}.jsonl"],
        }[command]
        assert main(argv) == 0
        (written,) = tmp_path.glob("out.*")
        assert stat.S_IMODE(written.stat().st_mode) == umask

    def test_existing_output_keeps_its_mode(self, tmp_path, umask):
        out = tmp_path / "runs.jsonl"
        out.write_text("")
        out.chmod(0o640)
        assert main(["synth", "--preset", "paper-scratch", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert len(load_runs(out)) == 42

    @pytest.mark.parametrize("target_exists", [True, False], ids=["target", "dangling"])
    def test_output_through_a_symbolic_link_writes_its_target(self, tmp_path, target_exists):
        law = write_law(tmp_path, SCRATCH, "law.json")
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        if target_exists:
            target.write_text("old contents\n")
            target.chmod(0o640)
        link.symlink_to(target.name)
        assert main(["allocate", "--fit", law, "--compute", "1e21", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert json.loads(target.read_text())["kind"] == "allocation_plan"
        if target_exists:
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["law.json", "link.json",
                                                              "target.json"]

    def test_failed_writer_leaves_the_destination_and_no_temp_file(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_bytes(b"old contents\n")

        def writer(tmp):
            Path(tmp).write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(str(out), writer)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert out.read_bytes() == b"old contents\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan]],
                             ids=["nan", "inf", "minus-inf", "nan-in-list"])
    def test_document_is_strict_json(self, tmp_path, value):
        out = tmp_path / "out.json"
        with pytest.raises(DomainError, match="^the test_kind document holds a value that is not "
                                              "finite$"):
            cli._write_doc(str(out), "test_kind", {"value": value})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_exits_5(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runs.jsonl"
        out.write_bytes(b"old contents\n")

        def failing_dump(runs, path):
            Path(path).write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cptlaws.ingest, "dump_runs", failing_dump)
        assert main(["synth", "--preset", "paper-scratch", "--out", str(out)]) == 5
        assert "i/o error: disk full" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]
        assert out.read_bytes() == b"old contents\n"


class TestByteOrderMark:
    """Inputs that start with a UTF-8 byte-order mark read as they would without it."""

    @staticmethod
    def with_bom(path):
        path = Path(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return str(path)

    def test_frontier_on_a_marked_run_log(self, tmp_path):
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl")
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert main(["frontier", "--runs", runs, "--out", str(plain)]) == 0
        assert main(["frontier", "--runs", self.with_bom(runs), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_allocate_on_a_marked_law_document(self, tmp_path):
        law = write_law(tmp_path, SCRATCH, "law.json")
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert main(["allocate", "--fit", law, "--compute", "1e21", "--out", str(plain)]) == 0
        assert main(["allocate", "--fit", self.with_bom(law), "--compute", "1e21",
                     "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_marked_config_file(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resolution": 3}))
        monkeypatch.setenv("CPTLAWS_CONFIG", self.with_bom(config))
        out = tmp_path / "grid.csv"
        assert main(["isoloss", "--fit", write_law(tmp_path, SCRATCH, "law.json"),
                     "--n-range", "1e8:1e10", "--d-range", "1e9:1e12", "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 9 + 3


class TestEnvConfig:
    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"delta": None}, ["fit", "--runs", "r.jsonl", "--strategy", "scratch",
                               "--out", "o.json"]),
            ({"delta": [1]}, ["compare-laws", "--runs", "r.jsonl"]),
            ({"resolution": 3.5}, ["isoloss", "--fit", "f.json", "--n-range", "1:2",
                                   "--d-range", "1:2", "--out", "o.csv"]),
            ({"seed": 1.5}, ["synth", "--preset", "paper-scratch", "--out", "o.jsonl"]),
            ({"bins_per_decade": 2.5}, ["frontier", "--runs", "r.jsonl", "--out", "o.json"]),
        ],
        ids=["delta-null", "delta-list", "resolution-float", "seed-float", "bins-float"],
    )
    def test_mistyped_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                  config, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("CPTLAWS_CONFIG", str(path))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_seed_default_from_config_file(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv("CPTLAWS_CONFIG", str(config))
        from_env = tmp_path / "env.jsonl"
        main(["synth", "--preset", "paper-scratch", "--noise", "0.01",
              "--out", str(from_env)])
        monkeypatch.delenv("CPTLAWS_CONFIG")
        explicit = tmp_path / "explicit.jsonl"
        main(["synth", "--preset", "paper-scratch", "--noise", "0.01", "--seed", "5",
              "--out", str(explicit)])
        assert from_env.read_bytes() == explicit.read_bytes()

    def test_cli_flag_beats_config_default(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv("CPTLAWS_CONFIG", str(config))
        flagged = tmp_path / "flagged.jsonl"
        main(["synth", "--preset", "paper-scratch", "--noise", "0.01", "--seed", "9",
              "--out", str(flagged)])
        monkeypatch.delenv("CPTLAWS_CONFIG")
        explicit = tmp_path / "explicit.jsonl"
        main(["synth", "--preset", "paper-scratch", "--noise", "0.01", "--seed", "9",
              "--out", str(explicit)])
        assert flagged.read_bytes() == explicit.read_bytes()

    def test_config_that_is_not_an_object_is_io_error(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        monkeypatch.setenv("CPTLAWS_CONFIG", str(config))
        assert main(["synth", "--preset", "paper-scratch",
                     "--out", str(tmp_path / "x.jsonl")]) == 5
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("config", ["missing", "not-json"])
    def test_help_and_usage_errors_come_before_the_config(self, tmp_path, monkeypatch, config):
        path = tmp_path / "config.json"
        if config == "not-json":
            path.write_text("{not json")
        monkeypatch.setenv("CPTLAWS_CONFIG", str(path))
        for argv, code in ((["--help"], 0), (["fit", "--runs", "x"], 2)):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == code

    def test_unreadable_config_is_io_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CPTLAWS_CONFIG", str(tmp_path / "missing.json"))
        assert main(["synth", "--preset", "paper-scratch",
                     "--out", str(tmp_path / "x.jsonl")]) == 5


# Runs CLI commands in a fresh interpreter and reports, as its last output
# line, the exit codes, whether a module (argv[2]) was loaded after the
# import of cptlaws.cli and at the end, and the package's modules at the end.
_STARTUP_PROBE = """
import json, sys
module = sys.argv[2]
import cptlaws.cli
after_import = module in sys.modules
codes = [cptlaws.cli.main(argv) for argv in json.loads(sys.argv[1])]
package = sorted(name for name in sys.modules if name.split(".")[0] == "cptlaws")
print(json.dumps({"codes": codes, "after_import": after_import, "at_end": module in sys.modules,
                  "package": package}))
"""


def _run_python(*args, env_update=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's cptlaws.

    ``env_update`` maps variable names to the value they take in the child,
    or to None to unset them.
    """
    env = {k: v for k, v in os.environ.items() if k != "CPTLAWS_CONFIG"}
    for name, value in (env_update or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    src = str(Path(cptlaws.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def _run_startup_probe(argvs, module="scipy", package=False):
    """The probe's report on ``argvs``; with ``package``, the list of cptlaws modules too."""
    proc = _run_python("-c", _STARTUP_PROBE, json.dumps(argvs), module)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not package:
        del result["package"]
    return result


class TestStartup:
    """scipy is imported exactly when L-BFGS-B has an iteration to take, numpy when arrays are built.

    The commands that never fit do not load scipy, and neither does a fit
    whose best-basin starts all end the Newton finish converged.  The
    closed-form commands, isoloss, empirical transfer and the zero-offset
    frontier load neither.
    """

    # The package's modules each command loads beyond cptlaws, cptlaws.cli,
    # cptlaws.errors and cptlaws.laws: the layers it calls.
    @pytest.mark.parametrize("command, layers", [
        ("allocate", "allocator"),
        ("isoloss", "allocator"),
        ("transfer-parametric", "transfer"),
        ("transfer-empirical", "ingest transfer"),
        ("replay", "ingest transfer"),
        ("frontier", "ingest transfer"),
        ("frontier-free", "ingest transfer fitter"),
        ("fit", "ingest fitter"),
        ("compare-laws", "ingest fitter"),
        ("synth", "ingest synth"),
    ])
    def test_each_command_loads_only_the_layers_it_calls(self, tmp_path, command, layers):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        cpt = write_law(tmp_path, CPT, "cpt.json")
        pt_run, cpt_run = write_paired_runs(tmp_path)
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl")
        argv = {
            "allocate": ["allocate", "--fit", scratch, "--compute", "1e21"],
            "isoloss": ["isoloss", "--fit", cpt, "--n-range", "1e8:1e10", "--d-range",
                        "1e9:1e12", "--resolution", "4", "--out", str(tmp_path / "grid.csv")],
            "transfer-parametric": ["transfer", "--scratch-fit", scratch, "--cpt-fit", cpt,
                                    "--n", "1e9", "--d", "1e9"],
            "transfer-empirical": ["transfer", "--pt-run", pt_run, "--cpt-run", cpt_run],
            "replay": ["replay", "--runs", write_replay_runs(tmp_path),
                       "--out", str(tmp_path / "curves.csv")],
            "frontier": ["frontier", "--runs", runs, "--out", str(tmp_path / "frontier.json")],
            "frontier-free": ["frontier", "--runs", runs, "--no-fix-offset-zero",
                              "--out", str(tmp_path / "frontier.json")],
            "fit": ["fit", "--runs", runs, "--strategy", "scratch",
                    "--out", str(tmp_path / "fit.json")],
            "compare-laws": ["compare-laws", "--runs", runs],
            "synth": ["synth", "--law", scratch, "--out", str(tmp_path / "synth.jsonl")],
        }[command]
        result = _run_startup_probe([argv], package=True)
        assert result["codes"] == [0]
        loaded = {"cli", "errors", "laws", *layers.split()}
        assert result["package"] == sorted(["cptlaws", *(f"cptlaws.{name}" for name in loaded)])

    def test_package_import_loads_no_numpy(self):
        # The fitter's names are still exported: the first access loads them.
        proc = _run_python("-c", "import sys, cptlaws; assert 'numpy' not in sys.modules; "
                                 "cptlaws.fit_scratch; assert 'numpy' in sys.modules")
        assert proc.returncode == 0, proc.stderr
        result = _run_startup_probe([], module="numpy")
        assert result == {"codes": [], "after_import": False, "at_end": False}

    def test_every_exported_name_resolves(self):
        # The public API, pinned: an addition or a removal is an edit here.
        assert tuple(cptlaws.__all__) == (
            "AllocationCoefficients", "AllocationPlan", "AllocationRegimeError",
            "ChinchillaParams", "CptLawsError", "CurveInterpolator", "DomainError",
            "ExtendedCptParams", "FLOPS_PER_PARAM_TOKEN", "FitConfig", "FitError",
            "FitFailureError", "FitReport", "ForgettingCurve", "FrontierParams",
            "InterpolationRangeError", "IsoLossGrid", "LossRecord", "ModelComparison",
            "ModelSpec", "NoCrossoverError", "ParseError", "REFERENCE_CPT_FRONTIER",
            "REFERENCE_CPT_LAW", "REFERENCE_SCRATCH_FRONTIER", "REFERENCE_SCRATCH_LAW", "RunSet",
            "SynthConfig", "TrainingRun", "TransferReport", "UnidentifiableDataError",
            "UnreachableLossError", "ValidationError", "allocation_coefficients",
            "attribute_flops_by_language", "compare_laws", "dump_runs", "empirical_transfer",
            "eval_frontier", "eval_law", "extract_compute_frontier", "fit_cpt", "fit_frontier",
            "fit_scratch", "flops_saving_from_frontiers", "forgetting_curves",
            "frontier_crossover", "generate_runset", "interp_loss_curve",
            "isoloss_grid", "law_from_dict", "law_to_dict", "load_catalog", "load_runs",
            "loss_floor", "numeric_optimal_params", "objective_scratch", "optimal_allocation",
            "paper_replica_config", "parametric_transfer", "parse_runs", "serialize_runs",
            "solve_tokens_for_loss", "warmup_filter",
        )
        assert set(cptlaws.__all__) <= set(dir(cptlaws))
        for name in cptlaws.__all__:
            getattr(cptlaws, name)
        with pytest.raises(AttributeError):
            cptlaws.no_such_name

    def test_closed_form_commands_never_load_numpy(self, tmp_path):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        cpt = write_law(tmp_path, CPT, "cpt.json")
        pt_run, cpt_run = write_paired_runs(tmp_path)
        argvs = [
            ["allocate", "--fit", scratch, "--compute", "1e21",
             "--out", str(tmp_path / "plan.json")],
            ["isoloss", "--fit", cpt, "--n-range", "1e8:1e10", "--d-range", "1e9:1e12",
             "--resolution", "4", "--out", str(tmp_path / "grid.csv")],
            ["transfer", "--scratch-fit", scratch, "--cpt-fit", cpt, "--n", "1e9", "--d", "1e9",
             "--out", str(tmp_path / "transfer.json")],
            ["transfer", "--pt-run", pt_run, "--cpt-run", cpt_run,
             "--out", str(tmp_path / "empirical.json")],
            ["replay", "--runs", write_replay_runs(tmp_path),
             "--out", str(tmp_path / "curves.csv")],
            ["frontier", "--runs", write_runs(tmp_path, SCRATCH, "runs.jsonl"),
             "--out", str(tmp_path / "frontier.json")],
        ]
        result = _run_startup_probe(argvs, module="numpy")
        assert result == {"codes": [0] * len(argvs), "after_import": False, "at_end": False}

    @pytest.mark.parametrize("command", ["fit", "frontier-free", "compare-laws", "synth"])
    def test_array_commands_load_numpy(self, tmp_path, command):
        law = write_law(tmp_path, SCRATCH, "scratch.json")
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl")
        argv = {
            "fit": ["fit", "--runs", runs, "--strategy", "scratch",
                    "--out", str(tmp_path / "fit.json")],
            "frontier-free": ["frontier", "--runs", runs, "--no-fix-offset-zero",
                              "--out", str(tmp_path / "frontier.json")],
            "compare-laws": ["compare-laws", "--runs", runs],
            "synth": ["synth", "--law", law, "--out", str(tmp_path / "synth.jsonl")],
        }[command]
        result = _run_startup_probe([argv], module="numpy")
        assert result == {"codes": [0], "after_import": False, "at_end": True}

    def test_analysis_commands_never_load_scipy(self, tmp_path):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        cpt = write_law(tmp_path, CPT, "cpt.json")
        pt_run, cpt_run = write_paired_runs(tmp_path)
        argvs = [
            ["allocate", "--fit", scratch, "--compute", "1e21"],
            ["isoloss", "--fit", scratch, "--n-range", "1e8:1e10", "--d-range", "1e9:1e12",
             "--resolution", "4", "--out", str(tmp_path / "grid.csv")],
            ["transfer", "--scratch-fit", scratch, "--cpt-fit", cpt, "--n", "1e9", "--d", "1e9",
             "--out", str(tmp_path / "transfer.json")],
            ["transfer", "--pt-run", pt_run, "--cpt-run", cpt_run, "--levels", "4",
             "--out", str(tmp_path / "transfer.csv")],
            ["replay", "--runs", write_replay_runs(tmp_path),
             "--out", str(tmp_path / "curves.csv")],
            ["frontier", "--runs", write_runs(tmp_path, SCRATCH, "runs.jsonl"),
             "--out", str(tmp_path / "frontier.json")],
        ]
        result = _run_startup_probe(argvs)
        assert result == {"codes": [0] * len(argvs), "after_import": False, "at_end": False}

    def test_converged_fits_never_load_scipy(self, tmp_path):
        # The Newton finish converges the free-offset frontier, compare-laws
        # on the noise-free CPT replica, whose from-scratch stage used to hand
        # L-BFGS-B 67 starts, and this sigma = 0.01 CPT fit.
        replica, noisy = tmp_path / "replica.jsonl", tmp_path / "noisy.jsonl"
        dump_runs(generate_runset(paper_replica_config("cpt")), replica)
        dump_runs(generate_runset(SynthConfig(
            law=CPT, param_sizes=SIZES, records_per_run=8, noise_sigma=0.01, seed=1,
        )), noisy)
        argvs = [
            ["frontier", "--runs", write_runs(tmp_path, SCRATCH, "runs.jsonl"),
             "--no-fix-offset-zero", "--out", str(tmp_path / "frontier.json")],
            ["compare-laws", "--runs", str(replica), "--out", str(tmp_path / "comparison.json")],
            ["fit", "--runs", str(noisy), "--strategy", "cpt",
             "--fixed-from", write_law(tmp_path, SCRATCH, "law.json"),
             "--out", str(tmp_path / "fit.json")],
        ]
        result = _run_startup_probe(argvs)
        assert result == {"codes": [0] * len(argvs), "after_import": False, "at_end": False}

    @pytest.mark.parametrize("command", ["fit", "frontier-free", "compare-laws"])
    def test_fitting_commands_load_scipy(self, tmp_path, command):
        # Each data set leaves a best-basin start above gtol after the Newton
        # finish, so L-BFGS-B iterates it.
        runs = tmp_path / "runs.jsonl"
        if command == "fit":
            # sigma = 0.1, seed 6: the one finished start ends at projected
            # gradient 4.5e-7 and takes one iteration.
            dump_runs(generate_runset(SynthConfig(
                law=SCRATCH, param_sizes=SIZES, records_per_run=8, noise_sigma=0.1, seed=6,
            )), runs)
            argv = ["fit", "--runs", str(runs), "--strategy", "scratch",
                    "--out", str(tmp_path / "fit.json")]
        elif command == "frontier-free":
            # sigma = 0.1, seed 3: both finished starts end at projected
            # gradient about 2e-9 and take one iteration each.
            dump_runs(generate_runset(SynthConfig(
                law=SCRATCH, param_sizes=SIZES, records_per_run=8, noise_sigma=0.1, seed=3,
            )), runs)
            argv = ["frontier", "--runs", str(runs), "--no-fix-offset-zero",
                    "--out", str(tmp_path / "frontier.json")]
        else:
            # sigma = 0.03, seed 3: two of compare-laws' extended starts end at
            # projected gradient 1.9e-7 and take one iteration each.
            dump_runs(generate_runset(dataclasses.replace(
                paper_replica_config("cpt"), noise_sigma=0.03, seed=3)), runs)
            argv = ["compare-laws", "--runs", str(runs),
                    "--out", str(tmp_path / "comparison.json")]
        result = _run_startup_probe([argv])
        assert result == {"codes": [0], "after_import": False, "at_end": True}

    def test_fits_never_load_numpy_ma(self, tmp_path):
        # Under numpy 2, np.unique and np.median import numpy.ma on their
        # first call; numpy 1 imports it with numpy itself.
        bare = _run_python("-c", "import sys, numpy; print('numpy.ma' in sys.modules)")
        assert bare.returncode == 0, bare.stderr
        runs = write_runs(tmp_path, CPT, "runs.jsonl", strategy="cpt")
        argvs = [["fit", "--runs", runs, "--strategy", "scratch",
                  "--out", str(tmp_path / "fit.json")],
                 ["compare-laws", "--runs", runs]]
        result = _run_startup_probe(argvs, module="numpy.ma")
        assert result == {"codes": [0, 0], "after_import": False,
                          "at_end": bare.stdout.strip() == "True"}

    @pytest.mark.parametrize("preset, expected", [
        ({}, {"OPENBLAS_NUM_THREADS": "1"}),
        ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
        ({"MKL_NUM_THREADS": "2"}, {"MKL_NUM_THREADS": "2"}),
    ], ids=["unset", "omp", "openblas", "mkl"])
    def test_one_blas_thread_unless_the_environment_sets_a_count(self, tmp_path, preset,
                                                                 expected):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        probe = ("import json, os, sys, cptlaws.cli\n"
                 "assert cptlaws.cli.main(['synth', '--preset', 'paper-scratch', "
                 "'--out', sys.argv[1]]) == 0\n"
                 f"print(json.dumps({{k: os.environ[k] for k in {names!r} if k in os.environ}}))")
        proc = _run_python("-c", probe, str(tmp_path / "runs.jsonl"),
                           env_update={**dict.fromkeys(names), **preset})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == expected

    def test_converged_two_stage_fit_never_loads_scipy(self, tmp_path):
        scratch_fit = str(tmp_path / "scratch-fit.json")
        argvs = [
            ["fit", "--runs", write_runs(tmp_path, SCRATCH, "scratch.jsonl"),
             "--strategy", "scratch", "--out", scratch_fit],
            ["fit", "--runs", write_runs(tmp_path, CPT, "cpt.jsonl", strategy="cpt"),
             "--strategy", "cpt", "--fixed-from", scratch_fit,
             "--out", str(tmp_path / "cpt-fit.json")],
        ]
        result = _run_startup_probe(argvs)
        assert result == {"codes": [0, 0], "after_import": False, "at_end": False}


# Each mutation either drops a field (_DROP), sets it to a JSON value, or
# sets it to a string holding invalid UTF-8 (_BAD_UTF8).
_DROP, _BAD_UTF8 = object(), object()
_FUZZ_VALUES = (_DROP, None, True, "x", [1], {"a": 1}, 1e308, -1e308, 1e-308,
                float("nan"), float("inf"), float("-inf"), 10**400, 0, -1, _BAD_UTF8)


def _mutated_line(doc: dict, field: str, value) -> bytes:
    """``doc`` as one JSON line with ``field`` set to ``value`` (or dropped)."""
    doc = {k: v for k, v in doc.items() if k != field}
    if value is not _DROP:
        doc[field] = "\x00" if value is _BAD_UTF8 else value
    return json.dumps(doc).encode().replace(b'"\\u0000"', b'"\xff\xfe"')


@pytest.mark.property
class TestFuzzedInputs:
    """Every malformed law document or run log ends in a documented exit code.

    A case passes when ``main`` returns 0, 3, 4 or 5, or argparse exits 2;
    any other exception escaping ``main`` is a failure.  Law documents are
    mutated one field at a time over every field and value (240 documents,
    each fed to four slots, and the 215 that ``law_from_dict`` rejects also
    to ``fit --fixed-from``: 1,175 cases).  Run logs get 300 seeded
    single-field mutations of one line of the two-run replay log, each fed to
    ``frontier`` and ``replay``, and 300 of one line of the paired pre-training
    and CPT logs, fed to empirical ``transfer`` (900 cases).
    """

    @staticmethod
    def _escapes(cases, capsys) -> list[str]:
        """The cases that end in anything but a documented exit code."""
        escapes = []
        for name, argv in cases:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # what escapes main is the finding
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2, 3, 4, 5):
                escapes.append(f"{name}: {code}")
        capsys.readouterr()
        return escapes

    def test_law_documents(self, tmp_path, capsys):
        scratch, cpt = write_law(tmp_path, SCRATCH, "s.json"), write_law(tmp_path, CPT, "c.json")
        runs, out = write_runs(tmp_path, SCRATCH, "runs.jsonl"), str(tmp_path / "out")
        cases = []
        for law in (SCRATCH, CPT):
            doc = law_to_dict(law)
            for field in doc:
                for i, value in enumerate(_FUZZ_VALUES):
                    path = tmp_path / f"{doc['law_kind']}-{field}-{i}.json"
                    path.write_bytes(_mutated_line(doc, field, value))
                    name, bad = f"{doc['law_kind']}.{field}={value!r}", str(path)
                    cases += [
                        (f"allocate {name}", ["allocate", "--fit", bad, "--compute", "1e21"]),
                        (f"isoloss {name}", ["isoloss", "--fit", bad, "--n-range", "1e8:1e10",
                                             "--d-range", "1e9:1e12", "--resolution", "3",
                                             "--out", out]),
                        (f"transfer-scratch {name}", ["transfer", "--scratch-fit", bad,
                                                      "--cpt-fit", cpt, "--n", "1e9",
                                                      "--d", "1e10"]),
                        (f"transfer-cpt {name}", ["transfer", "--scratch-fit", scratch,
                                                  "--cpt-fit", bad, "--n", "1e9", "--d", "1e10"]),
                    ]
                    try:  # only a rejected document keeps fit from fitting
                        cptlaws.law_from_dict(json.loads(path.read_bytes()))
                    except Exception:
                        cases.append((f"fit {name}", ["fit", "--runs", runs, "--strategy", "cpt",
                                                      "--fixed-from", bad, "--out", out]))
        assert len(cases) == 1175
        assert self._escapes(cases, capsys) == []

    def test_run_logs(self, tmp_path, capsys):
        rng = random.Random(0)
        replay = Path(write_replay_runs(tmp_path)).read_text().splitlines()
        pt_path, cpt_path = write_paired_runs(tmp_path)
        paired = [Path(pt_path).read_text().splitlines(), Path(cpt_path).read_text().splitlines()]
        out = str(tmp_path / "out.json")
        fields = ("run_id", "strategy", "language", "replay_ratio", "param_count", "tokens",
                  "loss", "val_language")

        def mutate(lines, path):
            index = rng.randrange(len(lines))
            field, value = rng.choice(fields), rng.choice(_FUZZ_VALUES)
            mutated = [line.encode() for line in lines]
            mutated[index] = _mutated_line(json.loads(lines[index]), field, value)
            path.write_bytes(b"\n".join(mutated))
            return f"line {index + 1} {field}={value!r}"

        cases = []
        for i in range(300):
            log = tmp_path / f"replay-{i}.jsonl"
            name = mutate(replay, log)
            cases += [(f"frontier {name}", ["frontier", "--runs", str(log), "--out", out]),
                      (f"replay {name}", ["replay", "--runs", str(log), "--out", out])]
            side = rng.randrange(2)
            logs = [pt_path, cpt_path]
            logs[side] = str(tmp_path / f"paired-{i}.jsonl")
            name = mutate(paired[side], Path(logs[side]))
            cases.append((f"transfer {('pt', 'cpt')[side]} {name}",
                          ["transfer", "--pt-run", logs[0], "--cpt-run", logs[1], "--levels", "4"]))
        assert len(cases) == 900
        assert self._escapes(cases, capsys) == []
