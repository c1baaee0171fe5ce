"""One driver per table/figure of the paper's evaluation (§III-§V).

Every function takes a :class:`repro.synth.Scenario` (the synthetic world)
plus protocol parameters, runs the corresponding experiment with the same
ground-truth-hiding discipline as the paper, and returns plain data
structures that the benchmark harness renders next to the paper's reported
numbers (see EXPERIMENTS.md).

Index:

=============================  =====================================
paper artifact                 driver
=============================  =====================================
Table I                        :func:`table1_dataset_summary`
Fig. 3                         :func:`fig3_infection_behavior`
§III pruning stats             :func:`pruning_statistics`
Table II + Fig. 6              :func:`fig6_cross_day_and_network`
Fig. 7                         :func:`fig7_feature_ablation`
Fig. 8                         :func:`fig8_cross_family`
Table III                      :func:`table3_fp_analysis`
Fig. 10                        :func:`fig10_public_blacklist`
§IV-E cross-blacklist          :func:`cross_blacklist_test`
Fig. 11                        :func:`fig11_early_detection`
§IV-G efficiency               :func:`performance_timing`
Fig. 12 + Table IV             :func:`fig12_notos_comparison`
§I LBP pilot                   :func:`graph_inference_comparison`
=============================  =====================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.belief import LoopyBeliefPropagation
from repro.baselines.cooccurrence import CoOccurrenceScorer
from repro.baselines.notos import NotosReputation
from repro.core.graph import BehaviorGraph
from repro.core.labeling import (
    BENIGN,
    MALWARE,
    UNKNOWN,
    derive_machine_labels,
    label_domains,
    label_graph,
)
from repro.core.pipeline import ObservationContext, Segugio, SegugioConfig
from repro.core.pruning import prune_graph
from repro.core.tracker import calibrate_threshold
from repro.eval.harness import (
    MISS_SCORE,
    RocExperiment,
    TestSplit,
    cross_day_experiment,
    score_split,
)
from repro.ml.folds import family_balanced_folds
from repro.ml.metrics import RocCurve, roc_curve
from repro.obs.manifest import TEST_PHASES, TRAIN_PHASES
from repro.obs.tracing import Tracer, use_tracer
from repro.synth.scenario import Scenario

# --------------------------------------------------------------------- #
# Table I — dataset summary
# --------------------------------------------------------------------- #


def table1_dataset_summary(
    scenario: Scenario,
    days_per_isp: int = 4,
    start_offset: int = 0,
    gap: int = 5,
) -> List[Dict[str, object]]:
    """Per-(ISP, day) counts of domains/machines/edges before pruning."""
    rows: List[Dict[str, object]] = []
    for isp in scenario.populations:
        for i in range(days_per_isp):
            day = scenario.eval_day(start_offset + i * gap)
            context = scenario.context(isp, day)
            graph = BehaviorGraph.from_trace(context.trace)
            labels = label_graph(
                graph,
                context.blacklist,
                context.whitelist,
                context.e2ld_index,
                as_of_day=day,
            )
            counts = labels.counts(graph)
            rows.append(
                {
                    "source": f"{isp}, day {i + 1} (abs {day})",
                    "domains_total": counts["domains_total"],
                    "domains_benign": counts["domains_benign"],
                    "domains_malware": counts["domains_malware"],
                    "machines_total": counts["machines_total"],
                    "machines_malware": counts["machines_malware"],
                    "edges": graph.n_edges,
                }
            )
    return rows


# --------------------------------------------------------------------- #
# Fig. 3 — malware domains queried per infected machine
# --------------------------------------------------------------------- #


def fig3_infection_behavior(
    scenario: Scenario, isp: str, day: int
) -> Dict[str, object]:
    """Distribution of the number of known malware-control domains queried
    by each known-infected machine during one day of traffic."""
    context = scenario.context(isp, day)
    graph = BehaviorGraph.from_trace(context.trace)
    labels = label_graph(
        graph,
        context.blacklist,
        context.whitelist,
        context.e2ld_index,
        as_of_day=day,
    )
    infected = labels.machine_ids_with_label(MALWARE)
    counts = labels.machine_malware_degree[infected]
    distribution = Counter(int(c) for c in counts)
    total = max(int(infected.size), 1)
    return {
        "n_infected": int(infected.size),
        "counts": dict(sorted(distribution.items())),
        "frac_query_more_than_one": float(np.count_nonzero(counts > 1)) / total,
        "frac_query_more_than_twenty": float(np.count_nonzero(counts > 20)) / total,
        "max_domains": int(counts.max()) if counts.size else 0,
    }


# --------------------------------------------------------------------- #
# §III — pruning statistics
# --------------------------------------------------------------------- #


def pruning_statistics(
    scenario: Scenario,
    days_per_isp: int = 2,
    start_offset: int = 0,
    gap: int = 7,
    config: Optional[SegugioConfig] = None,
) -> Dict[str, float]:
    """Average percentage reduction of domains/machines/edges by R1-R4."""
    config = config if config is not None else SegugioConfig()
    domain_pcts, machine_pcts, edge_pcts = [], [], []
    for isp in scenario.populations:
        for i in range(days_per_isp):
            day = scenario.eval_day(start_offset + i * gap)
            context = scenario.context(isp, day)
            graph = BehaviorGraph.from_trace(context.trace)
            labels = label_graph(
                graph,
                context.blacklist,
                context.whitelist,
                context.e2ld_index,
                as_of_day=day,
            )
            result = prune_graph(graph, labels, context.e2ld_index, config.prune)
            domain_pcts.append(result.stats["domains_removed_pct"])
            machine_pcts.append(result.stats["machines_removed_pct"])
            edge_pcts.append(result.stats["edges_removed_pct"])
    return {
        "avg_domains_removed_pct": float(np.mean(domain_pcts)),
        "avg_machines_removed_pct": float(np.mean(machine_pcts)),
        "avg_edges_removed_pct": float(np.mean(edge_pcts)),
        "n_runs": float(len(domain_pcts)),
    }


# --------------------------------------------------------------------- #
# Table II + Fig. 6 — cross-day and cross-network ROC
# --------------------------------------------------------------------- #


def fig6_cross_day_and_network(
    scenario: Scenario,
    isp1: str = "isp1",
    isp2: str = "isp2",
    gap1: int = 13,
    gap2: int = 18,
    gap_xnet: int = 15,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
    keep_models: bool = False,
) -> Dict[str, RocExperiment]:
    """The three §IV-A experiments: two cross-day runs, one cross-network."""
    e1 = cross_day_experiment(
        scenario.context(isp1, scenario.eval_day(0)),
        scenario.context(isp1, scenario.eval_day(gap1)),
        name=f"{isp1} cross-day ({gap1} days gap)",
        config=config,
        seed=seed,
        keep_model=keep_models,
    )
    e2 = cross_day_experiment(
        scenario.context(isp2, scenario.eval_day(0)),
        scenario.context(isp2, scenario.eval_day(gap2)),
        name=f"{isp2} cross-day ({gap2} days gap)",
        config=config,
        seed=seed,
        keep_model=keep_models,
    )
    e3 = cross_day_experiment(
        scenario.context(isp1, scenario.eval_day(0)),
        scenario.context(isp2, scenario.eval_day(gap_xnet)),
        name=f"{isp1}->{isp2} cross-network ({gap_xnet} days gap)",
        config=config,
        seed=seed,
        keep_model=keep_models,
    )
    return {"(a)": e1, "(b)": e2, "(c)": e3}


# --------------------------------------------------------------------- #
# Fig. 7 — feature-group ablation
# --------------------------------------------------------------------- #

ABLATIONS: Dict[str, Optional[str]] = {
    "All features": None,
    "No machine": "machine",
    "No activity": "activity",
    "No IP": "ip",
}


def fig7_feature_ablation(
    scenario: Scenario,
    isp: str = "isp1",
    gap: int = 13,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
) -> Dict[str, RocExperiment]:
    """Retrain with one feature group removed at a time (same split)."""
    from repro.core.features import FeatureExtractor

    base = config if config is not None else SegugioConfig()
    train_ctx = scenario.context(isp, scenario.eval_day(0))
    test_ctx = scenario.context(isp, scenario.eval_day(gap))
    results: Dict[str, RocExperiment] = {}
    for label, excluded in ABLATIONS.items():
        columns = FeatureExtractor.columns_without_group(excluded)
        variant = SegugioConfig(
            activity_window=base.activity_window,
            pdns_window_days=base.pdns_window_days,
            prune=base.prune,
            classifier=base.classifier,
            n_estimators=base.n_estimators,
            max_depth=base.max_depth,
            max_bins=base.max_bins,
            feature_columns=tuple(columns),
            max_benign_train=base.max_benign_train,
            seed=base.seed,
        )
        results[label] = cross_day_experiment(
            train_ctx,
            test_ctx,
            name=f"{isp} {label}",
            config=variant,
            seed=seed,
        )
    return results


# --------------------------------------------------------------------- #
# Fig. 8 — cross-malware-family tests
# --------------------------------------------------------------------- #


@dataclass
class CrossFamilyResult:
    """Pooled scores over family-balanced folds."""

    roc: RocCurve
    y_true: np.ndarray
    scores: np.ndarray
    n_folds: int
    n_families: int
    per_fold: List[RocExperiment] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"cross-family ({self.n_folds} folds, {self.n_families} families): "
            f"AUC={self.roc.auc():.4f} TP@0.1%FP={self.roc.tpr_at(0.001):.3f}"
        )


def fig8_cross_family(
    scenario: Scenario,
    isp: str = "isp1",
    gap: int = 10,
    n_folds: int = 3,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
    min_degree: int = 2,
) -> CrossFamilyResult:
    """Split blacklisted domains by malware family: the families in the
    test fold are never represented in training (paper §IV-C)."""
    train_ctx = scenario.context(isp, scenario.eval_day(0))
    test_ctx = scenario.context(isp, scenario.eval_day(gap))
    rng = np.random.default_rng(seed)

    # Known (family-labeled) malware domains present in the test graph.
    test_graph = BehaviorGraph.from_trace(test_ctx.trace)
    test_labels = label_domains(
        test_graph,
        test_ctx.blacklist,
        test_ctx.whitelist,
        test_ctx.e2ld_index,
        as_of_day=test_ctx.day,
    )
    present = test_graph.domain_ids()
    degrees = test_graph.domain_degrees()
    eligible = present[
        (test_labels[present] == MALWARE) & (degrees[present] >= min_degree)
    ]
    families: List[str] = []
    candidate_ids: List[int] = []
    for domain_id in eligible:
        family = test_ctx.blacklist.family_of(test_graph.domains.name(int(domain_id)))
        if family is not None:
            families.append(family)
            candidate_ids.append(int(domain_id))
    candidate_ids_arr = np.asarray(candidate_ids, dtype=np.int64)
    distinct_families = sorted(set(families))
    if len(distinct_families) < n_folds:
        raise ValueError(
            f"need >= {n_folds} families in test traffic, got {len(distinct_families)}"
        )

    benign = present[
        (test_labels[present] == BENIGN) & (degrees[present] >= min_degree)
    ]
    folds = family_balanced_folds(families, n_folds, rng)

    all_y: List[np.ndarray] = []
    all_scores: List[np.ndarray] = []
    per_fold: List[RocExperiment] = []
    for fold_index, (_, test_idx) in enumerate(folds):
        fold_malware = candidate_ids_arr[test_idx]
        fold_benign = np.sort(
            rng.choice(benign, size=max(1, benign.size // n_folds), replace=False)
        )
        split = TestSplit(malware_ids=fold_malware, benign_ids=fold_benign)
        # Hide the *entire families* of the fold from training: every domain
        # (not just those in the test traffic) of a test family is excluded.
        fold_families = {families[i] for i in test_idx}
        family_domain_names = [
            name
            for family in fold_families
            for name in test_ctx.blacklist.domains_by_family().get(family, [])
        ]
        train_exclude = set(int(i) for i in train_ctx.domain_ids(family_domain_names))
        train_exclude.update(int(i) for i in split.benign_ids)
        test_hide = set(int(i) for i in test_ctx.domain_ids(family_domain_names))
        test_hide.update(int(i) for i in split.all_ids)

        model = Segugio(config)
        model.fit(train_ctx, exclude_domains=sorted(train_exclude))
        report = model.classify(test_ctx, hide_domains=sorted(test_hide))
        y_true, scores, miss_mal, miss_ben = score_split(report, split)
        all_y.append(y_true)
        all_scores.append(scores)
        per_fold.append(
            RocExperiment(
                name=f"fold {fold_index}",
                roc=roc_curve(y_true, scores),
                split=split,
                y_true=y_true,
                scores=scores,
                n_malware_missing=miss_mal,
                n_benign_missing=miss_ben,
            )
        )

    # Pool folds on *benign-calibrated ranks*: each fold trains its own
    # classifier, so raw scores are not on a common scale; a sample's
    # pooled score is minus the empirical FPR its raw score would incur
    # within its own fold's benign population.  (Naive raw-score pooling
    # destroys the low-FPR region of the combined curve.)
    calibrated: List[np.ndarray] = []
    for y_fold, s_fold in zip(all_y, all_scores):
        benign_sorted = np.sort(s_fold[y_fold == 0])
        ranks = np.searchsorted(benign_sorted, s_fold, side="left")
        calibrated.append(ranks / max(benign_sorted.size, 1) - 1.0)
    y = np.concatenate(all_y)
    scores = np.concatenate(calibrated)
    return CrossFamilyResult(
        roc=roc_curve(y, scores),
        y_true=y,
        scores=scores,
        n_folds=n_folds,
        n_families=len(distinct_families),
        per_fold=per_fold,
    )


# --------------------------------------------------------------------- #
# Table III — false-positive analysis
# --------------------------------------------------------------------- #


def table3_fp_analysis(
    scenario: Scenario,
    experiment: RocExperiment,
    test_context: ObservationContext,
    fp_budget: float = 0.0005,
) -> Dict[str, object]:
    """Characterize the benign test domains Segugio flags at a strict
    operating point (the paper uses 0.05% FPs / >90% TPs)."""
    if experiment.model is None:
        raise ValueError("experiment must be run with keep_model=True")
    threshold = experiment.roc.threshold_at(fp_budget)
    split = experiment.split
    score_map = experiment.report.score_map()

    fp_ids = [
        int(d)
        for d in split.benign_ids
        if score_map.get(int(d), MISS_SCORE) >= threshold
    ]
    domains = test_context.trace.domains
    fp_names = [domains.name(d) for d in fp_ids]
    e2lds = [scenario.e2ld_index.e2ld_of(d) for d in fp_ids]
    e2ld_counts = Counter(e2lds)
    top10 = sum(count for _, count in e2ld_counts.most_common(10))

    # Re-measure the FP domains' features under the same hiding.
    model = experiment.model
    extractor = model.prepare_day(
        test_context, hide_domains=split.all_ids
    ).extractor
    X = extractor.feature_matrix(np.asarray(fp_ids, dtype=np.int64))

    n_fp = len(fp_ids)
    frac = lambda mask: float(np.count_nonzero(mask)) / n_fp if n_fp else 0.0
    sandbox_hits = sum(
        scenario.sandbox.domain_queried_by_malware(name) for name in fp_names
    )
    truly_malware = sum(scenario.is_true_malware(name) for name in fp_names)
    detected_tp = int(
        np.count_nonzero(
            np.asarray(
                [score_map.get(int(d), MISS_SCORE) for d in split.malware_ids]
            )
            >= threshold
        )
    )
    return {
        "threshold": float(threshold),
        "tp_rate": detected_tp / max(split.n_malware, 1),
        "fp_fqds": n_fp,
        "fp_e2lds": len(e2ld_counts),
        "top10_e2ld_contribution": top10,
        "top10_e2ld_pct": 100.0 * top10 / n_fp if n_fp else 0.0,
        "frac_over_90pct_infected": frac(X[:, 0] > 0.9) if n_fp else 0.0,
        "frac_past_abused_ips": frac(X[:, 7] > 0) if n_fp else 0.0,
        "frac_active_3days_or_less": frac(X[:, 3] <= 3) if n_fp else 0.0,
        "frac_sandbox_queried": sandbox_hits / n_fp if n_fp else 0.0,
        "frac_actually_malware": truly_malware / n_fp if n_fp else 0.0,
        "example_fps": fp_names[:10],
    }


# --------------------------------------------------------------------- #
# Fig. 10 + §IV-E — public blacklists
# --------------------------------------------------------------------- #


def fig10_public_blacklist(
    scenario: Scenario,
    isp: str = "isp2",
    gap: int = 13,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
) -> RocExperiment:
    """Cross-day test with graphs labeled from public blacklists only."""
    train_ctx = scenario.context(
        isp, scenario.eval_day(0), blacklist=scenario.public_blacklist
    )
    test_ctx = scenario.context(
        isp, scenario.eval_day(gap), blacklist=scenario.public_blacklist
    )
    return cross_day_experiment(
        train_ctx,
        test_ctx,
        name=f"{isp} cross-day (public blacklists)",
        config=config,
        seed=seed,
    )


def cross_blacklist_test(
    scenario: Scenario,
    isp: str = "isp2",
    gap: int = 10,
    config: Optional[SegugioConfig] = None,
    fp_rates: Sequence[float] = (0.001, 0.005, 0.009),
    seed: int = 0,
    min_degree: int = 2,
) -> Dict[str, object]:
    """Train on the commercial blacklist; test on domains that appear only
    in the public blacklists (paper §IV-E, the 53-domain experiment)."""
    train_ctx = scenario.context(isp, scenario.eval_day(0))
    test_ctx = scenario.context(isp, scenario.eval_day(gap))

    graph = BehaviorGraph.from_trace(test_ctx.trace)
    present = set(int(d) for d in graph.domain_ids())
    degrees = graph.domain_degrees()

    public_only: List[int] = []
    matched = 0
    for name in scenario.public_blacklist.domains(as_of_day=test_ctx.day):
        domain_id = test_ctx.domain_id(name)
        if domain_id is None or int(domain_id) not in present:
            continue
        matched += 1
        if scenario.commercial_blacklist.contains(name):
            continue
        if degrees[domain_id] >= min_degree:
            public_only.append(int(domain_id))
    public_only_arr = np.asarray(sorted(public_only), dtype=np.int64)

    rng = np.random.default_rng(seed)
    labels = label_domains(
        graph,
        test_ctx.blacklist,
        test_ctx.whitelist,
        test_ctx.e2ld_index,
        as_of_day=test_ctx.day,
    )
    all_present = graph.domain_ids()
    benign = all_present[
        (labels[all_present] == BENIGN) & (degrees[all_present] >= min_degree)
    ]
    benign_test = np.sort(rng.choice(benign, size=benign.size // 2, replace=False))

    split = TestSplit(malware_ids=public_only_arr, benign_ids=benign_test)
    model = Segugio(config)
    model.fit(train_ctx, exclude_domains=benign_test)
    report = model.classify(test_ctx, hide_domains=split.all_ids)
    y_true, scores, _, _ = score_split(report, split)
    if public_only_arr.size == 0:
        raise ValueError("no public-only blacklisted domains in test traffic")
    roc = roc_curve(y_true, scores)
    return {
        "n_public_matched": matched,
        "n_public_only": int(public_only_arr.size),
        "operating_points": {
            fp: float(roc.tpr_at(fp)) for fp in fp_rates
        },
        "roc": roc,
    }


# --------------------------------------------------------------------- #
# Fig. 11 — early detection
# --------------------------------------------------------------------- #


def fig11_early_detection(
    scenario: Scenario,
    isps: Optional[Sequence[str]] = None,
    start_offset: int = 0,
    n_days: int = 4,
    fp_target: float = 0.001,
    horizon: int = 35,
    config: Optional[SegugioConfig] = None,
) -> Dict[str, object]:
    """Deployment mode: detect unknown domains day by day, then measure how
    much later each detected domain enters the blacklist (gap in days)."""
    isps = list(isps) if isps is not None else list(scenario.populations)
    gaps: List[int] = []
    detected_then_blacklisted: List[str] = []
    n_detections = 0
    for isp in isps:
        for i in range(n_days):
            day = scenario.eval_day(start_offset + i)
            context = scenario.context(isp, day)
            model = Segugio(config)
            prepared = model.prepare_day(context)
            model.fit(context, prepared=prepared)
            threshold = calibrate_threshold(model, fp_target)
            report = model.classify(context, prepared=prepared)
            detections = report.detections(threshold)
            n_detections += len(detections)
            for name, _score in detections:
                added = scenario.commercial_blacklist.added_day(name)
                if added is not None and day < added <= day + horizon:
                    gaps.append(added - day)
                    detected_then_blacklisted.append(name)
    return {
        "gaps": gaps,
        "n_domains_later_blacklisted": len(gaps),
        "n_detections": n_detections,
        "mean_gap_days": float(np.mean(gaps)) if gaps else 0.0,
        "median_gap_days": float(np.median(gaps)) if gaps else 0.0,
        "examples": detected_then_blacklisted[:10],
    }


# --------------------------------------------------------------------- #
# §IV-G — efficiency
# --------------------------------------------------------------------- #


def _phase_seconds(tracer: Tracer) -> Dict[str, float]:
    """Seconds per §IV-G phase span on *tracer*, in first-seen order."""
    phases = TRAIN_PHASES + TEST_PHASES
    return {
        name: seconds
        for name, seconds in tracer.phase_totals().items()
        if name in phases
    }


def performance_timing(
    scenario: Scenario,
    isp: str = "isp1",
    n_days: int = 2,
    config: Optional[SegugioConfig] = None,
) -> Dict[str, float]:
    """Average per-phase wall-clock cost of training and classification."""
    tracer = Tracer()
    with use_tracer(tracer):
        for i in range(n_days):
            day = scenario.eval_day(i)
            context = scenario.context(isp, day)
            model = Segugio(config)
            # The day is prepared once, as the tracker does it: graph,
            # labels, pruning and the abuse oracle are learning-phase cost
            # and are not repeated for classification.
            prepared = model.prepare_day(context)
            model.fit(context, prepared=prepared)
            model.classify(context, prepared=prepared)
    result = {
        name: seconds / n_days for name, seconds in _phase_seconds(tracer).items()
    }
    result["train_total"] = sum(result.get(p, 0.0) for p in TRAIN_PHASES)
    result["test_total"] = sum(result.get(p, 0.0) for p in TEST_PHASES)
    return result


# --------------------------------------------------------------------- #
# Fig. 12 + Table IV — comparison with Notos
# --------------------------------------------------------------------- #


@dataclass
class NotosComparison:
    """Per-ISP comparison: ROC curves plus the Notos FP breakdown.

    ``exposure_roc`` is an extra series (not in the paper's Fig. 12): the
    Exposure-style detector [4] on the same candidates, included because
    §I groups both reputation systems as machine-blind.
    """

    segugio_roc: RocCurve
    notos_roc: RocCurve
    exposure_roc: Optional[RocCurve]
    n_new_malware: int
    n_benign: int
    n_notos_rejected: int
    n_notos_rejected_positives: int
    notos_fp_breakdown: Dict[str, int]
    notos_fp_total: int

    @property
    def notos_max_classifiable_tpr(self) -> float:
        """Best TPR Notos can reach: rejected positives are undetectable
        (the reject option explains why Notos cannot reach 100% even at the
        highest FP rates, Fig. 12a)."""
        if self.n_new_malware == 0:
            return 0.0
        return 1.0 - self.n_notos_rejected_positives / self.n_new_malware

    def summary(self) -> str:
        return (
            f"new malware: {self.n_new_malware}; "
            f"Segugio TP@0.7%FP={self.segugio_roc.tpr_at(0.007):.3f}; "
            f"Notos TP@20%FP={self.notos_roc.tpr_at(0.2):.3f}, "
            f"max classifiable TP={self.notos_max_classifiable_tpr:.3f} "
            f"(rejected {self.n_notos_rejected})"
        )


def fig12_notos_comparison(
    scenario: Scenario,
    isp: str = "isp1",
    train_offset: int = 0,
    test_offset: int = 24,
    train_whitelist_fraction: float = 0.6,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
    min_degree: int = 2,
    include_exposure: bool = True,
) -> NotosComparison:
    """Train both systems at t_train with ground truth frozen to that day;
    evaluate on domains blacklisted in (t_train, t_test] (paper §V)."""
    t_train = scenario.eval_day(train_offset)
    t_test = scenario.eval_day(test_offset)

    frozen = scenario.commercial_blacklist.snapshot(t_train)
    # Emulate the top-100K training whitelist vs. the larger eval whitelist.
    all_e2lds = sorted(scenario.whitelist.e2lds)
    rng = np.random.default_rng(seed)
    rng.shuffle(all_e2lds)
    n_train_wl = max(1, int(round(train_whitelist_fraction * len(all_e2lds))))
    train_wl = scenario.whitelist.restrict_to(all_e2lds[:n_train_wl])
    eval_e2lds = set(all_e2lds[n_train_wl:])

    train_ctx = scenario.context(isp, t_train, blacklist=frozen, whitelist=train_wl)
    test_ctx = scenario.context(isp, t_test, blacklist=frozen, whitelist=train_wl)

    # Ground truth: domains newly blacklisted in (t_train, t_test], seen in
    # the test traffic; benign negatives from the held-out whitelist part.
    graph = BehaviorGraph.from_trace(test_ctx.trace)
    degrees = graph.domain_degrees()
    present = set(int(d) for d in graph.domain_ids())
    new_malware: List[int] = []
    for entry in scenario.commercial_blacklist:
        if not t_train < entry.added_day <= t_test:
            continue
        domain_id = test_ctx.domain_id(entry.domain)
        if (
            domain_id is not None
            and int(domain_id) in present
            and degrees[domain_id] >= min_degree
        ):
            new_malware.append(int(domain_id))
    new_malware_arr = np.asarray(sorted(set(new_malware)), dtype=np.int64)
    if new_malware_arr.size == 0:
        raise ValueError("no newly blacklisted domains appear in test traffic")

    benign_eval: List[int] = []
    for domain_id in graph.domain_ids():
        if degrees[domain_id] < min_degree:
            continue
        e2ld = scenario.e2ld_index.e2ld_of(int(domain_id))
        if e2ld in eval_e2lds:
            benign_eval.append(int(domain_id))
    benign_arr = np.asarray(sorted(benign_eval), dtype=np.int64)
    split = TestSplit(malware_ids=new_malware_arr, benign_ids=benign_arr)

    # --- Segugio ---
    model = Segugio(config)
    model.fit(train_ctx)
    report = model.classify(test_ctx, hide_domains=split.all_ids)
    y_true, seg_scores, _, _ = score_split(report, split)
    segugio_roc = roc_curve(y_true, seg_scores)

    # --- Notos ---
    notos = NotosReputation(
        pdns=scenario.pdns,
        domains=scenario.domains,
        e2ld_index=scenario.e2ld_index,
        sandbox=scenario.sandbox,
        seed=seed,
    )
    notos.fit(
        t_train,
        blacklist=frozen.union(scenario.public_blacklist.snapshot(t_train)),
        whitelist=train_wl,
        max_benign=4000,
    )
    candidate_ids = [int(d) for d in split.all_ids]
    raw = notos.score(candidate_ids, end_day=t_test)
    n_rejected = int(np.count_nonzero(np.isnan(raw)))
    n_rejected_pos = int(np.count_nonzero(np.isnan(raw[: new_malware_arr.size])))
    notos_scores = np.where(np.isnan(raw), MISS_SCORE, raw)
    notos_roc = roc_curve(y_true, notos_scores)

    # --- Exposure-style detector on the same candidates (extra series) ---
    exposure_roc: Optional[RocCurve] = None
    if include_exposure:
        from repro.baselines.exposure import ExposureDetector

        exposure = ExposureDetector(
            pdns=scenario.pdns,
            activity=scenario.fqd_activity,
            domains=scenario.domains,
            seed=seed,
        )
        exposure.fit(
            t_train,
            blacklist=frozen.union(scenario.public_blacklist.snapshot(t_train)),
            whitelist=train_wl,
            max_benign=4000,
        )
        exposure_scores = exposure.score(candidate_ids, end_day=t_test)
        exposure_roc = roc_curve(y_true, exposure_scores)

    # --- Table IV: break down Notos's FPs at a paper-like operating point
    # (§V lowers Notos's detection threshold until the newly blacklisted
    # domains are detected, reaching at best ~56% TPs; we place the
    # threshold at the median classifiable positive score, i.e. ~50% TP) ---
    positive_scores = notos_scores[: new_malware_arr.size]
    classified_pos = positive_scores[positive_scores > MISS_SCORE]
    if classified_pos.size:
        notos_threshold = float(np.median(classified_pos))
    else:
        notos_threshold = float("inf")
    benign_scores = notos_scores[new_malware_arr.size:]
    fp_mask = benign_scores >= notos_threshold
    fp_ids = benign_arr[fp_mask]
    breakdown = _notos_fp_breakdown(scenario, test_ctx, fp_ids)

    return NotosComparison(
        segugio_roc=segugio_roc,
        notos_roc=notos_roc,
        exposure_roc=exposure_roc,
        n_new_malware=int(new_malware_arr.size),
        n_benign=int(benign_arr.size),
        n_notos_rejected=n_rejected,
        n_notos_rejected_positives=n_rejected_pos,
        notos_fp_breakdown=breakdown,
        notos_fp_total=int(fp_ids.size),
    )


def _notos_fp_breakdown(
    scenario: Scenario, context: ObservationContext, fp_ids: np.ndarray
) -> Dict[str, int]:
    """Classify each Notos FP into the paper's evidence categories."""
    sandbox = scenario.sandbox
    breakdown = {
        "suspicious_content": 0,
        "queried_by_malware": 0,
        "ips_contacted_by_malware": 0,
        "slash24_used_by_malware": 0,
        "no_evidence": 0,
    }
    for domain_id in fp_ids:
        name = context.trace.domains.name(int(domain_id))
        ips = scenario.ips_of_global(int(domain_id))
        if scenario.kind_of(name) == "adult":
            breakdown["suspicious_content"] += 1
        elif sandbox.domain_queried_by_malware(name):
            breakdown["queried_by_malware"] += 1
        elif any(sandbox.ip_contacted_by_malware(int(ip)) for ip in ips):
            breakdown["ips_contacted_by_malware"] += 1
        elif any(sandbox.prefix24_contacted_by_malware(int(ip)) for ip in ips):
            breakdown["slash24_used_by_malware"] += 1
        else:
            breakdown["no_evidence"] += 1
    return breakdown


# --------------------------------------------------------------------- #
# §I pilot — graph-inference (LBP) and co-occurrence comparisons
# --------------------------------------------------------------------- #


def graph_inference_comparison(
    scenario: Scenario,
    isp: str = "isp1",
    gap: int = 13,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Segugio vs. loopy BP vs. co-occurrence on the identical test split."""
    tracer = Tracer()
    with use_tracer(tracer):
        segugio = cross_day_experiment(
            scenario.context(isp, scenario.eval_day(0)),
            scenario.context(isp, scenario.eval_day(gap)),
            name="Segugio",
            config=config,
            seed=seed,
            keep_model=True,
        )
    segugio_seconds = sum(_phase_seconds(tracer).values())
    split = segugio.split
    test_ctx = scenario.context(isp, scenario.eval_day(gap))
    graph = BehaviorGraph.from_trace(test_ctx.trace)
    domain_labels = label_domains(
        graph,
        test_ctx.blacklist,
        test_ctx.whitelist,
        test_ctx.e2ld_index,
        as_of_day=test_ctx.day,
    )
    domain_labels[split.all_ids] = UNKNOWN
    labels = derive_machine_labels(graph, domain_labels)

    # the baselines are timed on the same tracer as Segugio's phases
    with tracer.span("segugio_experiment_score_lbp") as lbp_span:
        lbp_scores = LoopyBeliefPropagation().score_domains(graph, labels)
    with tracer.span("segugio_experiment_score_cooccurrence") as cooc_span:
        cooc_scores = CoOccurrenceScorer().score_domains(graph, labels)

    y = segugio.y_true
    ids = split.all_ids
    curves = {
        "Segugio": segugio.roc,
        "Loopy BP": roc_curve(y, lbp_scores[ids]),
        "Co-occurrence": roc_curve(y, cooc_scores[ids]),
    }
    return {
        "curves": curves,
        "lbp_seconds": lbp_span.duration,
        "cooccurrence_seconds": cooc_span.duration,
        "segugio_seconds": segugio_seconds,
        "partial_auc_at_1pct": {
            name: curve.partial_auc(0.01) for name, curve in curves.items()
        },
    }
