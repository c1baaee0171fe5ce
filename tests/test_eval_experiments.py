"""Integration tests for the per-artifact experiment drivers.

These run on the session-scoped small scenario; they assert structural
correctness and loose quality floors (the benchmark harness at full scale
asserts the paper-shaped numbers).
"""

import numpy as np
import pytest

from repro.core.pipeline import SegugioConfig
from repro.eval import experiments as E

FAST = SegugioConfig(n_estimators=15)


class TestTable1:
    def test_rows_cover_isps_and_days(self, scenario):
        rows = E.table1_dataset_summary(scenario, days_per_isp=2, gap=3)
        assert len(rows) == 4
        for row in rows:
            assert row["domains_total"] > 0
            assert row["domains_malware"] > 0
            assert row["machines_malware"] > 0
            assert row["edges"] >= row["domains_total"]

    def test_label_counts_consistent(self, scenario):
        row = E.table1_dataset_summary(scenario, days_per_isp=1)[0]
        assert (
            row["domains_benign"] + row["domains_malware"] <= row["domains_total"]
        )


class TestFig3:
    def test_distribution_shape(self, scenario):
        result = E.fig3_infection_behavior(scenario, "isp1", scenario.eval_day(1))
        assert result["n_infected"] > 0
        assert 0.2 <= result["frac_query_more_than_one"] <= 1.0
        assert sum(result["counts"].values()) == result["n_infected"]
        assert min(result["counts"]) >= 1


class TestPruning:
    def test_reductions_in_range(self, scenario):
        stats = E.pruning_statistics(scenario, days_per_isp=1)
        assert 0 < stats["avg_domains_removed_pct"] < 80
        assert 0 < stats["avg_machines_removed_pct"] < 80
        assert 0 < stats["avg_edges_removed_pct"] < 80


class TestFig6:
    def test_three_experiments_and_quality(self, scenario):
        results = E.fig6_cross_day_and_network(scenario, config=FAST, seed=2)
        assert set(results) == {"(a)", "(b)", "(c)"}
        for experiment in results.values():
            assert experiment.roc.auc() > 0.75


class TestFig7:
    def test_four_variants(self, scenario):
        results = E.fig7_feature_ablation(scenario, config=FAST, seed=2)
        assert set(results) == {"All features", "No machine", "No activity", "No IP"}
        # Each ablated model must still produce a valid ROC over the same split.
        sizes = {e.split.n_malware for e in results.values()}
        assert len(sizes) == 1

    def test_variants_keep_every_base_field(self, scenario, monkeypatch):
        # a variant differs from the base config in its feature columns only
        seen = []
        monkeypatch.setattr(
            E, "cross_day_experiment", lambda *args, config, **kw: seen.append(config)
        )
        base = SegugioConfig(filter_probes=True, n_jobs=2, n_estimators=15)
        E.fig7_feature_ablation(scenario, config=base)
        assert len(seen) == 4
        for variant in seen:
            assert variant.filter_probes and variant.n_jobs == 2
            assert variant.n_estimators == 15
        assert len({variant.feature_columns for variant in seen}) == 4


class TestFig8:
    def test_cross_family_pools_folds(self, scenario):
        result = E.fig8_cross_family(scenario, config=FAST, n_folds=3, seed=2)
        assert result.n_folds == 3
        assert len(result.per_fold) == 3
        assert result.y_true.sum() > 0
        assert result.roc.auc() > 0.6


class TestTable3:
    def test_fp_analysis_fields(self, scenario):
        experiment = E.cross_day_experiment(
            scenario.context("isp1", scenario.eval_day(0)),
            scenario.context("isp1", scenario.eval_day(13)),
            config=FAST,
            seed=2,
            keep_model=True,
        )
        analysis = E.table3_fp_analysis(
            scenario, experiment,
            scenario.context("isp1", scenario.eval_day(13)),
            fp_budget=0.01,
        )
        assert analysis["fp_fqds"] >= analysis["fp_e2lds"] >= 0
        assert 0 <= analysis["frac_past_abused_ips"] <= 1
        assert 0 <= analysis["frac_over_90pct_infected"] <= 1

    def test_requires_kept_model(self, scenario):
        experiment = E.cross_day_experiment(
            scenario.context("isp1", scenario.eval_day(0)),
            scenario.context("isp1", scenario.eval_day(13)),
            config=FAST,
            seed=2,
        )
        with pytest.raises(ValueError, match="keep_model"):
            E.table3_fp_analysis(
                scenario, experiment,
                scenario.context("isp1", scenario.eval_day(13)),
            )


class TestFig10AndCrossBlacklist:
    def test_public_blacklist_run(self, scenario):
        experiment = E.fig10_public_blacklist(scenario, config=FAST, seed=2)
        assert experiment.roc.auc() > 0.6

    def test_cross_blacklist_points(self, scenario):
        result = E.cross_blacklist_test(scenario, config=FAST, seed=2)
        assert result["n_public_only"] > 0
        assert result["n_public_matched"] >= result["n_public_only"]
        points = result["operating_points"]
        assert list(points) == [0.001, 0.005, 0.009]
        assert points[0.001] <= points[0.009] + 1e-9


class TestFig11:
    def test_early_detection_gaps(self, scenario):
        result = E.fig11_early_detection(
            scenario, isps=["isp1"], n_days=1, config=FAST
        )
        assert result["n_detections"] > 0
        for gap in result["gaps"]:
            assert 1 <= gap <= 35
        assert result["n_domains_later_blacklisted"] == len(result["gaps"])


class TestPerformance:
    def test_timing_fields(self, scenario):
        timing = E.performance_timing(scenario, n_days=1, config=FAST)
        assert timing["train_total"] > 0
        assert timing["test_total"] > 0
        assert timing["train_total"] > timing["test_total"]

    def test_learning_total_is_the_manifest_phase_list(self, scenario):
        # REPORT.md and `inspect --view cost` must add up the same phases,
        # probe filtering included when it runs
        import dataclasses

        from repro.obs.manifest import TEST_PHASES, TRAIN_PHASES

        config = dataclasses.replace(FAST, filter_probes=True)
        timing = E.performance_timing(scenario, n_days=1, config=config)
        assert timing["filter_probes"] > 0
        assert timing["train_total"] == sum(timing[p] for p in TRAIN_PHASES)
        assert timing["test_total"] == sum(timing[p] for p in TEST_PHASES)


class TestFig12:
    def test_notos_comparison(self, scenario):
        result = E.fig12_notos_comparison(
            scenario, isp="isp2", test_offset=24, config=FAST, seed=2
        )
        assert result.n_new_malware > 0
        assert result.n_benign > 0
        # Segugio must dominate Notos at low FP rates.
        assert result.segugio_roc.tpr_at(0.01) >= result.notos_roc.tpr_at(0.01)
        breakdown = result.notos_fp_breakdown
        assert sum(breakdown.values()) == result.notos_fp_total


class TestEdgeCases:
    def test_fig8_too_many_folds_rejected(self, scenario):
        with pytest.raises(ValueError, match="families"):
            E.fig8_cross_family(scenario, n_folds=500, config=FAST)

    def test_fig12_without_exposure_series(self, scenario):
        result = E.fig12_notos_comparison(
            scenario, isp="isp2", test_offset=24, config=FAST, seed=2,
            include_exposure=False,
        )
        assert result.exposure_roc is None

    def test_table1_day_selection(self, scenario):
        rows = E.table1_dataset_summary(scenario, days_per_isp=1, start_offset=3)
        day = scenario.eval_day(3)
        assert all(f"abs {day}" in row["source"] for row in rows)

    def test_fig11_zero_horizon_yields_no_gaps(self, scenario):
        result = E.fig11_early_detection(
            scenario, isps=["isp1"], n_days=1, config=FAST, horizon=0
        )
        assert result["gaps"] == []
        assert result["n_detections"] > 0


class TestGraphInference:
    def test_lbp_comparison(self, scenario):
        result = E.graph_inference_comparison(scenario, config=FAST, seed=2)
        curves = result["curves"]
        assert set(curves) == {"Segugio", "Loopy BP", "Co-occurrence"}
        # The accuracy ordering (Segugio above LBP at low FPR) is asserted
        # by the benchmark harness at full scale; the tiny test world has
        # too few hidden C&C domains for a stable comparison.  Here we only
        # require all scorers to be clearly better than chance.
        for curve in curves.values():
            assert curve.auc() > 0.7
