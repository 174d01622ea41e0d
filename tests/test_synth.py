import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from cptlaws import (
    DomainError,
    ExtendedCptParams,
    LossRecord,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_LAW,
    RunSet,
    SynthConfig,
    TrainingRun,
    ValidationError,
    eval_law,
    generate_runset,
    load_catalog,
    objective_scratch,
    paper_replica_config,
    parse_runs,
    serialize_runs,
)

SIZES = (10**8, 10**9, 5 * 10**9)


class TestGenerateRunset:
    def test_noise_free_records_sit_on_the_law(self):
        # Each run's losses are one array evaluation of the law.  eval_law's
        # scalar path may differ in the last bit (it does on 16 of the CPT
        # replica's 840 records), and the generated logs keep the array bits.
        for cfg in (SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=10),
                    paper_replica_config("cpt")):
            for run in generate_runset(cfg):
                tokens = np.array([rec.tokens for rec in run.records], dtype=float)
                expected = eval_law(cfg.law, float(run.param_count), tokens)
                assert [rec.loss for rec in run.records] == expected.tolist()

    @pytest.mark.property
    def test_same_seed_is_bit_identical(self):
        cfg = SynthConfig(
            law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=10,
            noise_sigma=0.02, seed=11,
        )
        assert generate_runset(cfg) == generate_runset(cfg)

    @pytest.mark.property
    def test_seed_changes_losses_but_not_grid(self):
        base = SynthConfig(
            law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=10,
            noise_sigma=0.02, seed=0,
        )
        other = SynthConfig(
            law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=10,
            noise_sigma=0.02, seed=1,
        )
        rs_a, rs_b = generate_runset(base), generate_runset(other)
        for run_a, run_b in zip(rs_a, rs_b):
            tokens_a = [rec.tokens for rec in run_a.records]
            tokens_b = [rec.tokens for rec in run_b.records]
            assert tokens_a == tokens_b
            assert any(
                rec_a.loss != rec_b.loss
                for rec_a, rec_b in zip(run_a.records, run_b.records)
            )

    def test_token_grid_spans_one_percent_to_full_budget(self):
        cfg = SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(10**9,),
                          token_multiple=20.0, records_per_run=20)
        run = generate_runset(cfg).runs[0]
        budget = 20.0 * 10**9
        assert run.records[-1].tokens == round(budget)
        assert run.records[0].tokens == round(0.01 * budget)

    def test_strategy_follows_law_family(self):
        scratch = generate_runset(
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(10**8,))
        )
        cpt = generate_runset(SynthConfig(law=REFERENCE_CPT_LAW, param_sizes=(10**8,)))
        assert {run.strategy for run in scratch} == {"scratch"}
        assert {run.strategy for run in cpt} == {"cpt"}

    def test_noise_standard_deviation(self):
        # 10 runs x 1000 records, sigma = 0.01
        cfg = SynthConfig(
            law=REFERENCE_SCRATCH_LAW,
            param_sizes=tuple(int(x) for x in np.geomspace(1e8, 5e9, 10)),
            records_per_run=1000,
            noise_sigma=0.01,
            seed=4,
        )
        residuals = []
        for run in generate_runset(cfg):
            for rec in run.records:
                clean = float(eval_law(cfg.law, run.param_count, rec.tokens))
                residuals.append(math.log(rec.loss) - math.log(clean))
        assert len(residuals) == 10_000
        assert np.std(residuals) == pytest.approx(0.01, abs=1e-3)
        assert np.mean(residuals) == pytest.approx(0.0, abs=5e-4)

    def test_objective_is_zero_at_generating_parameters(self):
        cfg = SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES)
        theta = (
            math.log(cfg.law.A), math.log(cfg.law.B), math.log(cfg.law.E),
            cfg.law.alpha, cfg.law.beta,
        )
        assert objective_scratch(theta, generate_runset(cfg)) < 1e-20

    @pytest.mark.property
    def test_round_trips_through_run_log_format(self):
        cfg = SynthConfig(law=REFERENCE_CPT_LAW, param_sizes=SIZES, noise_sigma=0.01)
        rs = generate_runset(cfg)
        assert parse_runs(serialize_runs(rs)) == rs

    def test_grid_collision_rejected(self):
        with pytest.raises(DomainError, match="collapses"):
            generate_runset(
                SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(5,),
                            records_per_run=50)
            )

    # Runs are checked in order, each before the next: a fault names the first
    # run that has one, whatever a later run holds.
    def test_collapse_of_a_later_run_is_reported(self):
        with pytest.raises(DomainError, match="^token grid for N=5 collapses"):
            generate_runset(SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(10**9, 5),
                                        records_per_run=50))

    def test_noise_fault_of_an_earlier_run_comes_before_a_later_collapse(self):
        cfg = SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(10**9, 5),
                          records_per_run=50, noise_sigma=1e4, seed=0)
        with pytest.raises(DomainError, match=r"^noise_sigma 10000\.0 is too large: .* N=1000000000,"):
            generate_runset(cfg)

    # B' / (D^beta' N^gamma) at gamma = -40 passes float range at N = 10**9,
    # not at 10**6; numpy's overflow warning is not raised.
    def test_a_loss_past_float_range_names_its_first_run(self):
        cfg = SynthConfig(law=dataclasses.replace(REFERENCE_CPT_LAW, gamma=-40.0),
                          param_sizes=(10**6, 10**9, 10**10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^the law's loss at N=1000000000, "
                                                  r"D=200000000 is past float range$"):
                generate_runset(cfg)


def reference_generate(cfg):
    """generate_runset with each token count rounded on its own, by ``round``."""
    strategy = "cpt" if isinstance(cfg.law, ExtendedCptParams) else "scratch"
    width = len(str(len(cfg.param_sizes) - 1))
    runs = []
    for i, n in enumerate(cfg.param_sizes):
        budget = cfg.token_multiple * n
        grid = np.geomspace(0.01 * budget, budget, cfg.records_per_run)
        tokens = [max(1, int(round(d))) for d in grid]
        losses = eval_law(cfg.law, float(n), np.array(tokens, dtype=float)).tolist()
        records = []
        for j, (d, loss) in enumerate(zip(tokens, losses)):
            if cfg.noise_sigma > 0:
                rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i, j)))
                loss *= math.exp(float(rng.normal(0.0, cfg.noise_sigma)))
            records.append(LossRecord(tokens=d, loss=loss))
        runs.append(TrainingRun(id=f"{strategy}-{i:0{width}d}", strategy=strategy,
                                language="synthetic", replay_ratio=0.0, param_count=int(n),
                                records=tuple(records)))
    return RunSet(runs=tuple(runs))


@pytest.mark.property
@pytest.mark.parametrize("noise_sigma", [0.0, 0.01])
@pytest.mark.parametrize("cfg", [
    paper_replica_config("scratch"),
    paper_replica_config("cpt"),
    # Budgets of 250 and 2e19 tokens: the first grid point is 2.5, which
    # rounds half to even, and the last lies past 2**63.
    SynthConfig(law=REFERENCE_CPT_LAW, param_sizes=(125, 10**19),
                token_multiple=2.0, records_per_run=2),
    SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=1000),
    # The benchmark's small replica, and all 42 sizes x 1000 records.
    dataclasses.replace(paper_replica_config("cpt"),
                        param_sizes=paper_replica_config("cpt").param_sizes[::6], records_per_run=8),
    dataclasses.replace(paper_replica_config("cpt"), records_per_run=1000, token_multiple=17.3),
], ids=["replica-scratch", "replica-cpt", "half-even-and-past-int64", "1000-per-run",
        "small-replica", "42x1000"])
def test_generate_runset_matches_per_element_rounding(cfg, noise_sigma):
    cfg = dataclasses.replace(cfg, noise_sigma=noise_sigma, seed=7)
    runset = generate_runset(cfg)
    expected = reference_generate(cfg)
    assert runset == expected
    assert serialize_runs(runset) == serialize_runs(expected)


def _replay_tagged():
    zh, en = (generate_runset(SynthConfig(law=law, param_sizes=(10**9,), records_per_run=40,
                                          noise_sigma=0.005, seed=seed)).runs[0]
              for law, seed in ((REFERENCE_CPT_LAW, 1), (REFERENCE_SCRATCH_LAW, 2)))
    series = sorted([dataclasses.replace(r, val_language="zh") for r in zh.records]
                    + [dataclasses.replace(r, val_language="en") for r in en.records],
                    key=lambda r: r.tokens)
    return RunSet(runs=(TrainingRun(id="replay-0.25", strategy="cpt", language="zh",
                                    replay_ratio=0.25, param_count=10**9, records=tuple(series)),))


@pytest.mark.property
@pytest.mark.parametrize("make", [
    lambda: generate_runset(paper_replica_config("scratch")),
    lambda: generate_runset(dataclasses.replace(paper_replica_config("cpt"), noise_sigma=0.01,
                                                seed=3)),
    _replay_tagged,
    lambda: generate_runset(SynthConfig(law=REFERENCE_CPT_LAW, param_sizes=SIZES,
                                        records_per_run=1000, noise_sigma=0.01, seed=5)),
], ids=["replica", "noisy", "replay-tagged", "1000-per-run"])
def test_serialize_runs_writes_each_record_as_json_dumps(make):
    runset = make()
    expected = [
        json.dumps({"run_id": run.id, "strategy": run.strategy, "language": run.language,
                    "replay_ratio": run.replay_ratio, "param_count": run.param_count,
                    "tokens": rec.tokens, "loss": rec.loss,
                    **({} if rec.val_language is None else {"val_language": rec.val_language})})
        for run in runset for rec in run.records
    ]
    assert serialize_runs(runset) == "".join(line + "\n" for line in expected)


def test_token_grid_rounds_half_to_even_and_stays_exact_past_int64():
    cfg = SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(125, 10**19),
                      token_multiple=2.0, records_per_run=2)
    small, large = (run.records for run in generate_runset(cfg))
    assert [rec.tokens for rec in small] == [2, 250]
    assert large[-1].tokens == 2 * 10**19 and large[-1].tokens > 2**63


class TestConfigValidation:
    def test_rejects_empty_sizes(self):
        with pytest.raises(ValidationError):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=())

    def test_rejects_a_zero_size(self):
        with pytest.raises(ValidationError, match=r"^param_sizes\[1\] must be at least 1, got 0$"):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(10**8, 0))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="^seed must be at least 0, got -1$"):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, seed=-1)

    def test_rejects_single_record_runs(self):
        with pytest.raises(ValidationError):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValidationError):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, noise_sigma=-0.1)

    # A value of the wrong type, a size that is not an integer, and a budget
    # out of float range are each a ValidationError that names the field.
    @pytest.mark.parametrize("kwargs, field", [
        ({"param_sizes": 5}, "param_sizes"),
        ({"param_sizes": ("a",)}, r"param_sizes\[0\]"),
        ({"param_sizes": (10**9, None)}, r"param_sizes\[1\]"),
        ({"param_sizes": (True,)}, r"param_sizes\[0\]"),
        ({"param_sizes": (1e9 + 0.5,)}, r"param_sizes\[0\]"),
        ({"param_sizes": (10**400,)}, "param_sizes"),
        ({"token_multiple": math.inf}, "token_multiple"),
        ({"param_sizes": (1,), "token_multiple": 1e-323}, "token_multiple"),
        ({"token_multiple": "x"}, "token_multiple"),
        ({"records_per_run": 2.5}, "records_per_run"),
        ({"records_per_run": "3"}, "records_per_run"),
        ({"noise_sigma": "x"}, "noise_sigma"),
        ({"seed": 1.5, "noise_sigma": 0.01}, "seed"),
    ], ids=["sizes-not-a-sequence", "size-str", "size-none", "size-bool", "size-not-integral",
            "size-past-float-range", "budget-infinite", "budget-underflows", "multiple-str",
            "records-float", "records-str", "noise-str", "seed-float"])
    def test_rejects_a_value_of_the_wrong_type_or_range(self, kwargs, field):
        kwargs = {"param_sizes": SIZES, **kwargs}
        with pytest.raises(ValidationError, match=field):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, **kwargs)

    def test_an_integral_float_size_is_read_as_its_int(self):
        cfg = SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=(1e9, np.int64(5 * 10**9)))
        assert [(type(n), n) for n in cfg.param_sizes] == [(int, 10**9), (int, 5 * 10**9)]

    @pytest.mark.parametrize("field", ["noise_sigma", "token_multiple"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValidationError, match=field):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, **{field: math.nan})


class TestReplicaConfig:
    def test_scratch_preset(self):
        cfg = paper_replica_config("scratch")
        assert cfg.law == REFERENCE_SCRATCH_LAW
        assert (cfg.law.E, cfg.law.A, cfg.law.B) == (1.55, 420.0, 719.5)
        assert (cfg.law.alpha, cfg.law.beta) == (0.40, 0.30)
        assert cfg.token_multiple == 20.0
        assert cfg.noise_sigma == 0.0 and cfg.seed == 0

    def test_cpt_preset(self):
        cfg = paper_replica_config("cpt")
        assert cfg.law == REFERENCE_CPT_LAW
        assert (cfg.law.B_prime, cfg.law.beta_prime, cfg.law.gamma) == (433.3, 0.20, 0.08)

    @pytest.mark.parametrize("strategy", ["scratch", "cpt"])
    def test_one_run_per_catalog_row(self, strategy):
        cfg = paper_replica_config(strategy)
        runs = generate_runset(cfg)
        assert len(runs) == 42
        catalog_sizes = [spec.param_size_millions * 10**6 for spec in load_catalog()]
        assert list(cfg.param_sizes) == catalog_sizes

    def test_budget_respected_per_run(self):
        runs = generate_runset(paper_replica_config("scratch"))
        for run in runs:
            assert run.max_tokens <= 20 * run.param_count + 1

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            paper_replica_config("finetune")

    @pytest.mark.parametrize("strategy", [None, 1, ["cpt"], b"cpt", "paper-cpt", "Scratch"])
    def test_any_other_strategy_is_domain_error(self, strategy):
        with pytest.raises(DomainError, match="^strategy must be 'scratch' or 'cpt', got "):
            paper_replica_config(strategy)
