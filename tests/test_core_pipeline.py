"""Integration tests for the Segugio pipeline on the synthetic world."""

import numpy as np
import pytest

from repro.core.labeling import MALWARE, UNKNOWN, label_domains
from repro.core.graph import BehaviorGraph
from repro.core.pipeline import Segugio, SegugioConfig
from repro.obs.manifest import TRAIN_PHASES
from repro.obs.tracing import Tracer, use_tracer


class TestConfig:
    def test_default_columns_all(self):
        assert SegugioConfig().columns() == list(range(11))

    def test_restricted_columns(self):
        assert SegugioConfig(feature_columns=(1, 3)).columns() == [1, 3]

    def test_classifier_factory(self):
        from repro.ml.forest import RandomForestClassifier
        from repro.ml.logistic import LogisticRegression

        assert isinstance(SegugioConfig().make_classifier(), RandomForestClassifier)
        assert isinstance(
            SegugioConfig(classifier="logistic").make_classifier(),
            LogisticRegression,
        )
        with pytest.raises(ValueError):
            SegugioConfig(classifier="svm").make_classifier()


class TestFit:
    def test_fit_produces_training_set(self, fitted_model):
        ts = fitted_model.training_set_
        assert ts.n_malware > 0
        assert ts.n_benign > 0
        assert ts.X.shape[1] == 11

    def test_fit_records_stats_and_timings(self, fitted_model, train_context):
        assert fitted_model.train_stats_["n_train_malware"] > 0
        # the fit's phases are spans on the ambient tracer, in §IV-G order
        tracer = Tracer()
        with use_tracer(tracer):
            Segugio(SegugioConfig(n_estimators=4)).fit(train_context)
        totals = tracer.phase_totals()
        assert [name for name in totals if name in TRAIN_PHASES] == [
            name for name in TRAIN_PHASES if name != "filter_probes"
        ]
        assert totals["train_classifier"] > 0

    def test_classify_before_fit_raises(self, train_context):
        with pytest.raises(RuntimeError, match="fitted"):
            Segugio().classify(train_context)

    def test_exclusion_shrinks_training_set(self, scenario, train_context):
        full = Segugio().fit(train_context)
        some_malware = full.training_set_.domain_ids[
            full.training_set_.y == 1
        ][:3]
        reduced = Segugio().fit(train_context, exclude_domains=some_malware)
        assert reduced.training_set_.n_malware <= full.training_set_.n_malware - 3
        assert not np.isin(some_malware, reduced.training_set_.domain_ids).any()


class TestClassify:
    def test_scores_unknown_domains_only(self, scenario, fitted_model, test_context):
        report = fitted_model.classify(test_context)
        assert len(report) > 0
        assert (
            report.labels.domain_labels[report.domain_ids] == UNKNOWN
        ).all()
        assert (report.scores >= 0).all() and (report.scores <= 1).all()

    def test_hidden_domains_are_scored(self, scenario, fitted_model, test_context):
        graph = BehaviorGraph.from_trace(test_context.trace)
        dl = label_domains(
            graph, test_context.blacklist, test_context.whitelist,
            test_context.e2ld_index, as_of_day=test_context.day,
        )
        present = graph.domain_ids()
        degrees = graph.domain_degrees()
        known_malware = present[
            (dl[present] == MALWARE) & (degrees[present] >= 2)
        ][:5]
        assert known_malware.size > 0
        report = fitted_model.classify(test_context, hide_domains=known_malware)
        scored = set(int(d) for d in report.domain_ids)
        assert all(int(d) in scored for d in known_malware)

    def test_detections_sorted_and_thresholded(self, fitted_model, test_context):
        report = fitted_model.classify(test_context)
        detections = report.detections(threshold=0.5)
        scores = [s for _, s in detections]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= 0.5 for s in scores)

    def test_score_map_and_score_of(self, fitted_model, test_context):
        report = fitted_model.classify(test_context)
        name = report.graph.domains.name(int(report.domain_ids[0]))
        assert report.score_of(name) == pytest.approx(float(report.scores[0]))
        assert report.score_of("definitely-not-present.example") is None

    def test_infected_machines_enumerated(self, fitted_model, test_context):
        report = fitted_model.classify(test_context)
        threshold = 0.9
        machines = report.infected_machines(threshold)
        detected = report.detected_ids(threshold)
        if detected.size:
            assert machines, "detected domains must implicate machines"
        for machine in machines:
            assert test_context.trace.machines.lookup(machine) is not None


class TestDetectionQuality:
    def test_detects_true_malware_on_test_day(self, scenario, fitted_model, test_context):
        """Deployment smoke test: among the top-scored unknown domains, a
        clear majority must be genuinely malicious (synthetic oracle)."""
        report = fitted_model.classify(test_context)
        top = report.detections(threshold=0.0)[:10]
        truth = [scenario.is_true_malware(name) for name, _ in top]
        assert sum(truth) >= 6

    def test_benign_majority_scores_low(self, scenario, fitted_model, test_context):
        report = fitted_model.classify(test_context)
        names = [
            report.graph.domains.name(int(d)) for d in report.domain_ids
        ]
        benign_scores = np.asarray(
            [
                s
                for name, s in zip(names, report.scores)
                if not scenario.is_true_malware(name)
            ]
        )
        malware_scores = np.asarray(
            [
                s
                for name, s in zip(names, report.scores)
                if scenario.is_true_malware(name)
            ]
        )
        # Scores are a ranking, not calibrated probabilities: the benign
        # bulk must sit below the malware bulk, and almost no benign domain
        # may cross the high-score region.
        assert np.median(benign_scores) < np.median(malware_scores)
        assert float((benign_scores > 0.6).mean()) < 0.02

    def test_ablated_model_round_trip(self, scenario, train_context, test_context):
        model = Segugio(SegugioConfig(feature_columns=(0, 1, 2), n_estimators=10))
        model.fit(train_context)
        report = model.classify(test_context)
        assert len(report) > 0

    def test_logistic_classifier_round_trip(self, train_context, test_context):
        model = Segugio(SegugioConfig(classifier="logistic"))
        model.fit(train_context)
        report = model.classify(test_context)
        assert (report.scores >= 0).all() and (report.scores <= 1).all()

    def test_probe_filtering_removes_probe_labels(self, scenario, train_context):
        """With filter_probes on, the scanner archetype's machines carry no
        malware label (they are removed before labeling-derived features)."""
        from repro.synth.machines import ARCH_PROBE
        from repro.core.labeling import MALWARE

        model = Segugio(SegugioConfig(n_estimators=8, filter_probes=True))
        tracer = Tracer()
        with use_tracer(tracer):
            model.fit(train_context)
        graph = model.prepare_day(train_context).graph
        pop = scenario.populations["isp1"]
        for probe in pop.machines_of_archetype(ARCH_PROBE):
            assert graph.machine_degrees()[int(probe)] == 0
        assert tracer.phase_totals()["filter_probes"] > 0


class TestLeakFreedom:
    def test_hidden_labels_do_not_change_when_reclassified(
        self, scenario, train_context, test_context
    ):
        """Hiding a domain at classify time must not mutate the context."""
        model = Segugio(SegugioConfig(n_estimators=10)).fit(train_context)
        graph = BehaviorGraph.from_trace(test_context.trace)
        dl_before = label_domains(
            graph, test_context.blacklist, test_context.whitelist,
            test_context.e2ld_index, as_of_day=test_context.day,
        )
        some = graph.domain_ids()[:20]
        model.classify(test_context, hide_domains=some)
        dl_after = label_domains(
            graph, test_context.blacklist, test_context.whitelist,
            test_context.e2ld_index, as_of_day=test_context.day,
        )
        assert (dl_before == dl_after).all()

    def test_explain_api(self, fitted_model, test_context):
        report = fitted_model.classify(test_context)
        name, score = report.detections(0.0)[0]
        rows = fitted_model.explain(test_context, name)
        assert len(rows) == 11
        magnitudes = [abs(r["contribution"]) for r in rows]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert {r["feature"] for r in rows} == set(
            fitted_model.training_set_.feature_names
        )

    def test_explain_unknown_domain(self, fitted_model, test_context):
        with pytest.raises(KeyError):
            fitted_model.explain(test_context, "nope.invalid")

    def test_explain_before_fit(self, test_context):
        with pytest.raises(RuntimeError):
            Segugio().explain(test_context, "x.com")

    def test_with_feature_columns_returns_unfitted(self, fitted_model):
        fresh = fitted_model.with_feature_columns([0, 1])
        assert fresh.classifier_ is None
        assert fresh.config.feature_columns == (0, 1)
