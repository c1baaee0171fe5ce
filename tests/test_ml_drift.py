"""Tests for score-drift monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.drift import (
    PSI_RETRAIN,
    ScoreDriftMonitor,
    feature_drift,
    ks_statistic,
    population_stability_index,
)


def psi_by_bincount(reference, current, n_bins=10):
    """PSI binned value by value: the reference the rank-based one must
    match bit for bit."""
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    edges = np.unique(np.quantile(reference, quantiles))
    ref_counts = np.bincount(
        np.searchsorted(edges, reference, side="left"),
        minlength=edges.size + 1,
    ).astype(np.float64)
    cur_counts = np.bincount(
        np.searchsorted(edges, current, side="left"),
        minlength=edges.size + 1,
    ).astype(np.float64)

    eps = 1e-6
    ref_frac = np.maximum(ref_counts / ref_counts.sum(), eps)
    cur_frac = np.maximum(cur_counts / cur_counts.sum(), eps)
    return float(np.sum((cur_frac - ref_frac) * np.log(cur_frac / ref_frac)))


class TestPsi:
    def test_identical_samples_near_zero(self):
        rng = np.random.default_rng(0)
        scores = rng.random(5000)
        assert population_stability_index(scores, scores) < 1e-6

    def test_same_distribution_small(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.3, 0.1, 5000)
        b = rng.normal(0.3, 0.1, 5000)
        assert population_stability_index(a, b) < 0.02

    def test_shifted_distribution_large(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.2, 0.05, 5000)
        b = rng.normal(0.6, 0.05, 5000)
        assert population_stability_index(a, b) > PSI_RETRAIN

    def test_symmetry_of_magnitude(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.3, 0.1, 4000)
        b = rng.normal(0.5, 0.1, 4000)
        forward = population_stability_index(a, b)
        backward = population_stability_index(b, a)
        assert forward > 0.1 and backward > 0.1

    def test_degenerate_reference_handled(self):
        a = np.full(100, 0.5)
        b = np.full(100, 0.9)
        psi = population_stability_index(a, b)
        assert np.isfinite(psi)
        assert psi > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            population_stability_index(np.array([]), np.array([0.5]))
        with pytest.raises(ValueError):
            population_stability_index(np.array([0.5]), np.array([0.1]), n_bins=1)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 1000),
        shift=st.floats(0, 0.5, allow_nan=False),
    )
    def test_property_psi_non_negative_and_monotone_ish(self, seed, shift):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.3, 0.1, 2000)
        b = rng.normal(0.3 + shift, 0.1, 2000)
        psi = population_stability_index(a, b)
        assert psi >= -1e-9


class TestKsStatistic:
    def test_identical_samples_zero(self):
        scores = np.random.default_rng(0).random(2000)
        assert ks_statistic(scores, scores) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_reach_one(self):
        a = np.linspace(0.0, 0.4, 500)
        b = np.linspace(0.6, 1.0, 500)
        assert ks_statistic(a, b) == pytest.approx(1.0)

    def test_known_small_case(self):
        # CDFs diverge maximally by 0.5 between the two middle points
        a = np.array([1.0, 2.0])
        b = np.array([1.5, 2.5])
        assert ks_statistic(a, b) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(0.3, 0.1, 1500), rng.normal(0.5, 0.1, 1500)
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))

    def test_bounded_and_shift_monotone_ish(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.3, 0.1, 2000)
        small = ks_statistic(a, rng.normal(0.32, 0.1, 2000))
        large = ks_statistic(a, rng.normal(0.7, 0.1, 2000))
        assert 0.0 <= small < large <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([0.5]))


class TestFeatureDrift:
    def test_per_feature_keys_and_stats(self):
        rng = np.random.default_rng(8)
        ref = rng.random((1000, 3))
        cur = np.column_stack(
            [ref[:, 0], ref[:, 1], ref[:, 2] + 2.0]  # only f2 shifts
        )
        out = feature_drift(ref, cur, ["f0", "f1", "f2"])
        assert list(out) == ["f0", "f1", "f2"]
        for stats in out.values():
            assert set(stats) == {"psi", "ks"}
        assert out["f0"]["psi"] < 0.01 and out["f0"]["ks"] < 0.01
        assert out["f2"]["psi"] > PSI_RETRAIN
        assert out["f2"]["ks"] == pytest.approx(1.0)

    def test_name_count_must_match_columns(self):
        ref = np.zeros((10, 2))
        with pytest.raises(ValueError):
            feature_drift(ref, ref, ["only_one"])

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            feature_drift(np.zeros(10), np.zeros(10), ["f"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feature_drift(np.zeros((0, 2)), np.zeros((3, 2)), ["a", "b"])

    @settings(deadline=None, max_examples=60)
    @given(
        shape=st.tuples(
            st.integers(1, 300), st.integers(1, 300), st.integers(1, 12)
        ),
        levels=st.sampled_from([2, 5, 0]),
        n_bins=st.sampled_from([2, 3, 10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_statistics_of_each_unsorted_column(
        self, shape, levels, n_bins, seed
    ):
        """Sorted columns, deciles taken for all columns at once and bin
        counts read off ranks change no bit of either statistic; ``levels``
        > 0 makes ties, 0 continuous values."""
        n_ref, n_cur, n_features = shape
        rng = np.random.default_rng(seed)

        def sample(n):
            if levels:
                return rng.integers(0, levels, size=(n, n_features)) * 0.1
            return rng.standard_normal((n, n_features))

        ref, cur = sample(n_ref), sample(n_cur)
        names = [f"f{j}" for j in range(n_features)]
        want = {
            name: {
                "psi": psi_by_bincount(ref[:, j], cur[:, j], n_bins),
                "ks": ks_statistic(ref[:, j], cur[:, j]),
            }
            for j, name in enumerate(names)
        }
        assert feature_drift(ref, cur, names, n_bins=n_bins) == want
        assert [
            population_stability_index(ref[:, j], cur[:, j], n_bins)
            for j in range(n_features)
        ] == [stats["psi"] for stats in want.values()]


class TestMonitor:
    def test_stable_then_drifting(self):
        rng = np.random.default_rng(4)
        reference = rng.normal(0.3, 0.1, 3000)
        monitor = ScoreDriftMonitor(reference)
        stable = monitor.check(1, rng.normal(0.3, 0.1, 3000))
        assert stable.status == "stable"
        drifted = monitor.check(2, rng.normal(0.7, 0.1, 3000))
        assert drifted.status == "retrain"
        assert monitor.needs_retraining()

    def test_trend_detection(self):
        rng = np.random.default_rng(5)
        reference = rng.normal(0.3, 0.1, 3000)
        monitor = ScoreDriftMonitor(reference)
        for day, mu in enumerate((0.32, 0.4, 0.5)):
            monitor.check(day, rng.normal(mu, 0.1, 3000))
        assert monitor.trend() == "rising"

    def test_trend_requires_history(self):
        monitor = ScoreDriftMonitor(np.random.default_rng(0).random(100))
        assert monitor.trend() is None

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            ScoreDriftMonitor(np.array([]))

    def test_on_segugio_scores(self, scenario, fitted_model, test_context):
        """Day-over-day drift of one model's *unknown-population* scores in
        a stable world stays below the retrain threshold (the reference
        must be the same population: unknowns vs unknowns, not the
        whitelisted training benign vs unknowns)."""
        reference_report = fitted_model.classify(
            scenario.context("isp1", scenario.eval_day(3))
        )
        monitor = ScoreDriftMonitor(reference_report.scores)
        current = fitted_model.classify(test_context)
        check = monitor.check(test_context.day, current.scores)
        assert check.psi < PSI_RETRAIN
