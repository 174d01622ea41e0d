import csv
import json

import numpy as np
import pytest

from cptlaws import (
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_LAW,
    dump_runs,
    law_to_dict,
    load_runs,
)
from cptlaws.cli import main
from conftest import law_runset

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW
SIZES = tuple(int(x) for x in np.geomspace(5e7, 5e9, 4))


def write_law(tmp_path, law, name):
    path = tmp_path / name
    path.write_text(json.dumps(law_to_dict(law)))
    return str(path)


def write_runs(tmp_path, law, name, strategy="scratch", records_per_run=8):
    path = tmp_path / name
    dump_runs(law_runset(law, SIZES, records_per_run=records_per_run, strategy=strategy), path)
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
        doc = json.loads(scratch_fit.read_text())
        assert doc["kind"] == "fit_report"
        assert doc["params"]["law_kind"] == "chinchilla"
        assert abs(doc["params"]["alpha"] - SCRATCH.alpha) < 2e-2

        # the CPT stage requires the scratch fit for its fixed values
        assert main(["fit", "--runs", cpt_runs, "--strategy", "cpt",
                     "--out", str(cpt_fit)]) == 2
        assert main(["fit", "--runs", cpt_runs, "--strategy", "cpt",
                     "--fixed-from", str(scratch_fit), "--out", str(cpt_fit)]) == 0
        doc = json.loads(cpt_fit.read_text())
        assert doc["params"]["law_kind"] == "extended_cpt"
        assert abs(doc["params"]["gamma"] - CPT.gamma) < 2e-2
        assert doc["params"]["E"] == json.loads(scratch_fit.read_text())["params"]["E"]

    def test_fixed_from_rejected_for_scratch(self, tmp_path):
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl")
        law = write_law(tmp_path, SCRATCH, "law.json")
        assert main(["fit", "--runs", runs, "--strategy", "scratch",
                     "--fixed-from", law, "--out", str(tmp_path / "o.json")]) == 2


class TestAllocateCommand:
    def test_reference_budget(self, tmp_path, capsys):
        law = write_law(tmp_path, SCRATCH, "law.json")
        out = tmp_path / "plan.json"
        assert main(["allocate", "--fit", law, "--compute", "1e21",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
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

    def test_frontier_document_rejected(self, tmp_path):
        from cptlaws import REFERENCE_SCRATCH_FRONTIER

        law = write_law(tmp_path, REFERENCE_SCRATCH_FRONTIER, "frontier.json")
        assert main(["allocate", "--fit", law, "--compute", "1e21"]) == 3


class TestFrontierCommand:
    def test_extract_and_fit(self, tmp_path):
        runs = write_runs(tmp_path, SCRATCH, "runs.jsonl", records_per_run=12)
        out = tmp_path / "frontier.json"
        assert main(["frontier", "--runs", runs, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["law_kind"] == "frontier"
        assert doc["params"]["offset"] == 0.0
        assert doc["params"]["exponent"] > 0
        assert doc["n_points"] == len(doc["points"])


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
        doc = json.loads(out.read_text())
        assert doc["transferred_tokens"] == pytest.approx(3.6188e8, rel=1e-3)
        assert doc["loss"] == pytest.approx(2.9640, abs=1e-3)

    def test_empirical_route(self, tmp_path):
        d_values = np.geomspace(2e8, 2e9, 24)
        from conftest import law_run

        pt_path = tmp_path / "pt.jsonl"
        cpt_path = tmp_path / "cpt.jsonl"
        from cptlaws import RunSet

        dump_runs(RunSet(runs=(law_run(SCRATCH, 10**9, d_values, run_id="pt"),)), pt_path)
        dump_runs(
            RunSet(runs=(law_run(CPT, 10**9, d_values, run_id="cpt", strategy="cpt"),)),
            cpt_path,
        )
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--pt-run", str(pt_path), "--cpt-run", str(cpt_path),
                     "--levels", "8", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(float(row["flops_saved_fraction"]) > 0 for row in rows)

    def test_routes_are_mutually_exclusive(self, tmp_path):
        scratch = write_law(tmp_path, SCRATCH, "scratch.json")
        assert main(["transfer", "--scratch-fit", scratch, "--pt-run", "x.jsonl"]) == 2
        assert main(["transfer"]) == 2


class TestReplayCommand:
    def test_forgetting_csv(self, tmp_path):
        lines = []
        for ratio, run_id in ((0.1, "a"), (0.5, "b")):
            for tokens in (10**9, 10**10):
                for lang, loss in (("zh", 3.0), ("en", 2.5)):
                    lines.append(json.dumps({
                        "run_id": run_id, "strategy": "cpt", "language": "zh",
                        "replay_ratio": ratio, "param_count": 14 * 10**8,
                        "tokens": tokens, "loss": loss, "val_language": lang,
                    }))
        runs_path = tmp_path / "replay.jsonl"
        runs_path.write_text("\n".join(lines))
        out = tmp_path / "curves.csv"
        assert main(["replay", "--runs", str(runs_path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {row["replay_ratio"] for row in rows} == {"0.1", "0.5"}


@pytest.mark.slow
class TestCompareLawsCommand:
    def test_comparison_document(self, tmp_path):
        runs = write_runs(tmp_path, CPT, "runs.jsonl", strategy="cpt", records_per_run=6)
        out = tmp_path / "compare.json"
        assert main(["compare-laws", "--runs", runs, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
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
        assert "line 1: field 'replay_ratio'" in capsys.readouterr().err

    def test_integer_past_float_range_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "run_id": "r", "strategy": "scratch", "language": "zh",
            "replay_ratio": 0.0, "param_count": 10**9, "tokens": 10**400, "loss": 3.0,
        }))
        assert main(["fit", "--runs", str(bad), "--strategy", "scratch",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "line 1: field 'tokens'" in capsys.readouterr().err

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

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["fit", "--runs", str(tmp_path / "nope.jsonl"),
                     "--strategy", "scratch", "--out", str(tmp_path / "o.json")]) == 5

    def test_malformed_law_document_exit_code(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["allocate", "--fit", str(broken), "--compute", "1e21"]) == 3

    def test_bad_range_string_exit_code(self, tmp_path):
        law = write_law(tmp_path, SCRATCH, "law.json")
        assert main(["isoloss", "--fit", law, "--n-range", "banana",
                     "--d-range", "1e9:1e12", "--resolution", "4",
                     "--out", str(tmp_path / "g.csv")]) == 3

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--strategy", "scratch"])
        assert excinfo.value.code == 2

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
        from cptlaws import REFERENCE_SCRATCH_FRONTIER

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

    def test_unreadable_config_is_io_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CPTLAWS_CONFIG", str(tmp_path / "missing.json"))
        assert main(["synth", "--preset", "paper-scratch",
                     "--out", str(tmp_path / "x.jsonl")]) == 5
