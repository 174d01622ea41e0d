import math

import numpy as np
import pytest

from cptlaws import (
    DomainError,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_LAW,
    SynthConfig,
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
        cfg = SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=10)
        for run in generate_runset(cfg):
            for rec in run.records:
                assert rec.loss == float(eval_law(cfg.law, run.param_count, rec.tokens))

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


class TestConfigValidation:
    def test_rejects_empty_sizes(self):
        with pytest.raises(ValidationError):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=())

    def test_rejects_single_record_runs(self):
        with pytest.raises(ValidationError):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, records_per_run=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValidationError):
            SynthConfig(law=REFERENCE_SCRATCH_LAW, param_sizes=SIZES, noise_sigma=-0.1)

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
