"""The end-to-end Segugio system (paper Fig. 2).

:class:`ObservationContext` bundles everything Segugio can observe about one
network on one day: the day's DNS trace, the rolling activity indices, the
passive-DNS history, and the ground-truth feeds (blacklist + whitelist).

:class:`Segugio` is the deployable system:

* :meth:`Segugio.fit` — build the behavior graph for the training day, label
  and prune it, measure hidden-label features for every known domain, and
  train the malware-score classifier.
* :meth:`Segugio.classify` — build the graph for a (different) day and score
  all *unknown* domains, returning a :class:`DetectionReport`.
* :meth:`Segugio.prepare_day` — the graph -> label -> prune step both share,
  returned as a :class:`PreparedDay`; a day that is learned from *and*
  classified (the tracker's daily loop) passes it to both as ``prepared=``
  and is built once.

Evaluation protocols (cross-day, cross-network, cross-family, ...) layer on
top via the ``exclude_domains`` / ``hide_domains`` hooks, which implement the
paper's rigorous ground-truth hiding: held-out test domains are relabeled
*unknown* before machine labels, pruning, or features are computed, so their
ground truth can never leak into the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.features import (
    DEFAULT_ACTIVITY_WINDOW,
    FEATURE_NAMES,
    FeatureExtractor,
)
from repro.core.graph import BehaviorGraph
from repro.core.labeling import (
    BENIGN,
    MALWARE,
    UNKNOWN,
    GraphLabels,
    derive_machine_labels,
    label_domains,
)
from repro.core.pruning import (
    RULE_ABSENT,
    RULE_KEPT,
    RULE_NAMES,
    PruneConfig,
    PruneResult,
    prune_graph,
)
from repro.core.training import TrainingSet, build_training_set
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.obs.logs import get_logger
from repro.obs.provenance import (
    VOTE_BINS,
    DecisionBlock,
    current_decision_log,
)
from repro.obs.resources import (
    UNIT_DOMAINS_SCORED,
    UNIT_GRAPH_EDGES,
    UNIT_TRACE_ROWS,
    count_units,
)
from repro.obs.tracing import current_tracer
from repro.pdns.abuse import AbuseOracle
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.arrays import sorted_unique

DEFAULT_PDNS_WINDOW_DAYS = 150  # ~ the paper's five months

_log = get_logger("pipeline")

#: the decision ledger's words for a pruning-rule code (None: kept) and a
#: known label code; an unknown domain is sourced by the hidden mask
_LEDGER_RULES = {int(RULE_KEPT): None, **RULE_NAMES}
_LEDGER_LABELS = {MALWARE: ("malware", "blacklist"), BENIGN: ("benign", "whitelist")}


@dataclass
class ObservationContext:
    """One network, one observation day, and all side information."""

    day: int
    trace: DayTrace
    fqd_activity: ActivityIndex
    e2ld_activity: ActivityIndex
    e2ld_index: E2ldIndex
    pdns: PassiveDNSDatabase
    blacklist: CncBlacklist
    whitelist: DomainWhitelist

    def domain_id(self, name: str) -> Optional[int]:
        """Global id of a domain name in this network's id space."""
        return self.trace.domains.lookup(name)

    def domain_ids(self, names: Iterable[str]) -> np.ndarray:
        """Ids for the names known to this network (unknown names skipped)."""
        ids = [self.trace.domains.lookup(name) for name in names]
        return np.asarray(
            sorted(i for i in ids if i is not None), dtype=np.int64
        )


@dataclass(frozen=True)
class SegugioConfig:
    """Tunable knobs; defaults follow the paper's deployment."""

    activity_window: int = DEFAULT_ACTIVITY_WINDOW
    pdns_window_days: int = DEFAULT_PDNS_WINDOW_DAYS
    prune: PruneConfig = field(default_factory=PruneConfig)
    filter_probes: bool = False
    """Apply the §VI anomalous-client heuristics before pruning: machines
    that enumerate long lists of mostly-dead blacklisted domains (security
    probes/scanners) are removed from the graph so they neither pollute
    machine labels nor inflate F1 features."""

    classifier: str = "forest"  # "forest" | "logistic"
    n_estimators: int = 60
    max_depth: int = 14
    max_bins: int = 64
    feature_columns: Optional[Tuple[int, ...]] = None  # None = all 11
    max_benign_train: Optional[int] = None
    seed: int = 0
    n_jobs: int = 1
    """Validated, otherwise read by nothing, and starts no process: every
    day runs in one process.  The field stays only because existing
    checkpoints carry it (``config_from_dict`` rebuilds the config with
    ``SegugioConfig(**payload)``) and the benchmark harness still sets
    it; the benchmark's next revision removes it."""

    def __post_init__(self) -> None:
        if self.n_jobs < 1 and self.n_jobs != -1:
            raise ValueError(f"n_jobs must be >= 1 or -1, got {self.n_jobs}")

    def make_classifier(self) -> Union[RandomForestClassifier, LogisticRegression]:
        if self.classifier == "forest":
            return RandomForestClassifier(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                max_bins=self.max_bins,
                class_weight="balanced",
                random_state=self.seed,
            )
        if self.classifier == "logistic":
            return LogisticRegression(class_weight="balanced")
        raise ValueError(f"unknown classifier {self.classifier!r}")

    def columns(self) -> List[int]:
        if self.feature_columns is None:
            return list(range(len(FEATURE_NAMES)))
        return list(self.feature_columns)


def _hidden_ids(hide_domains: Optional[Iterable[int]]) -> np.ndarray:
    """Sorted, de-duplicated int64 ids from a hide/exclude argument.

    Consumes the iterable exactly once, so a generator is as good as a
    list; None and an empty iterable both give the empty array.
    """
    if hide_domains is None:
        return np.empty(0, dtype=np.int64)
    if not isinstance(hide_domains, np.ndarray):
        hide_domains = list(hide_domains)
    return sorted_unique(np.asarray(hide_domains, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class PreparedDay:
    """One day's labeled, pruned graph, built once and handed along.

    :meth:`Segugio.prepare_day` returns it; :meth:`Segugio.fit`,
    :meth:`Segugio.classify` and :meth:`Segugio.explain` take it as
    ``prepared=`` so a day that is both learned from and classified
    (the tracker's daily loop) is graphed, labeled and pruned once.
    """

    context: ObservationContext
    day: int
    """``context.day`` when the graph was built."""

    labels: GraphLabels
    extractor: FeatureExtractor
    prune: PruneResult
    """Pruned graph, per-rule attribution arrays and reduction stats."""

    hidden: np.ndarray
    """Sorted int64 ids relabeled UNKNOWN before anything was measured
    (§IV-A); empty in deployment."""

    @property
    def graph(self) -> BehaviorGraph:
        """The pruned behavior graph."""
        return self.prune.graph


@dataclass
class DetectionReport:
    """Scored unknown domains of one classified day."""

    day: int
    domain_ids: np.ndarray
    scores: np.ndarray
    graph: BehaviorGraph
    labels: GraphLabels
    features: Optional[np.ndarray] = None
    """Full 11-column feature matrix for ``domain_ids`` (pre column
    selection), kept for drift monitoring and decision provenance."""

    def score_map(self) -> Dict[int, float]:
        return {int(d): float(s) for d, s in zip(self.domain_ids, self.scores)}

    def score_of(self, domain_name: str) -> Optional[float]:
        domain_id = self.graph.domains.lookup(domain_name)
        if domain_id is None:
            return None
        hits = np.flatnonzero(self.domain_ids == domain_id)
        return float(self.scores[hits[0]]) if hits.size else None

    def detected_ids(self, threshold: float) -> np.ndarray:
        return self.domain_ids[self.scores >= threshold]

    def detections(self, threshold: float) -> List[Tuple[str, float]]:
        """(domain, score) pairs at/above threshold, highest score first."""
        mask = self.scores >= threshold
        ids = self.domain_ids[mask]
        scores = self.scores[mask]
        order = np.argsort(-scores)
        return [
            (self.graph.domains.name(int(ids[i])), float(scores[i]))
            for i in order
        ]

    def infected_machines(self, threshold: float) -> List[str]:
        """Machines querying any detected domain (paper §VI: Segugio
        "can detect both malware-control domains and the infected machines
        that query them at the same time")."""
        detected = self.detected_ids(threshold)
        if detected.size == 0:
            return []
        machines: set = set()
        for domain_id in detected:
            machines.update(
                int(m) for m in self.graph.machines_of_domain(int(domain_id))
            )
        return sorted(self.graph.machines.name(m) for m in machines)

    def __len__(self) -> int:
        return int(self.domain_ids.size)


class Segugio:
    """Behavior-based tracker of malware-control domains."""

    def __init__(self, config: Optional[SegugioConfig] = None) -> None:
        self.config = config if config is not None else SegugioConfig()
        self.classifier_ = None
        self.training_set_: Optional[TrainingSet] = None
        self.train_stats_: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # shared graph preparation
    # ------------------------------------------------------------------ #

    def prepare_day(
        self,
        context: ObservationContext,
        hide_domains: Optional[Iterable[int]] = None,
    ) -> PreparedDay:
        """Graph -> labels (with optional hiding) -> pruning -> extractor.

        ``hide_domains`` (global domain ids) are relabeled UNKNOWN before
        machine labels are derived, before pruning, and before any feature
        is measured — the paper's leak-free evaluation procedure (§IV-A).

        Pass the result as ``prepared=`` to :meth:`fit`, :meth:`classify`
        and :meth:`explain` when they run on this same day with this same
        hidden set, so the day is built once.
        """
        tracer = current_tracer()
        hidden = _hidden_ids(hide_domains)
        if getattr(context.trace, "is_sharded", False):
            if self.config.filter_probes:
                raise ValueError(
                    "filter_probes requires the in-memory path: the §VI "
                    "probe heuristics walk per-machine adjacency, which a "
                    "sharded trace never materializes — disable "
                    "filter_probes or load the day without --shards"
                )
            from repro.core.sharded import build_day_sharded

            result, labels, domain_labels = build_day_sharded(
                context,
                self.config,
                hidden=hidden,
            )
        else:
            with tracer.span("build_graph"):
                graph = BehaviorGraph.from_trace(context.trace)
            # Throughput numerators for the resource profile (--profile): one
            # build consumes the day's full trace and yields the raw graph, so
            # the counts accumulate once per prepare_day call — the same cadence
            # as the build_graph phase wall-clock they are divided by.  The
            # tracker prepares each day once, so per tracked day they count
            # the trace and the raw graph once.
            count_units(UNIT_TRACE_ROWS, int(context.trace.n_edges))
            count_units(UNIT_GRAPH_EDGES, int(graph.n_edges))
            with tracer.span("label_nodes"):
                domain_labels = label_domains(
                    graph,
                    context.blacklist,
                    context.whitelist,
                    context.e2ld_index,
                    as_of_day=context.day,
                )
                domain_labels[hidden] = UNKNOWN
                labels = derive_machine_labels(graph, domain_labels)
            if self.config.filter_probes:
                with tracer.span("filter_probes"):
                    from repro.core.anomalies import remove_probe_machines

                    graph = remove_probe_machines(
                        graph, labels, context.fqd_activity
                    )
                    labels = derive_machine_labels(graph, domain_labels)
            with tracer.span("prune_graph"):
                result = prune_graph(
                    graph, labels, context.e2ld_index, self.config.prune
                )
                # Degrees changed; rederive machine labels on the pruned graph.
                labels = derive_machine_labels(result.graph, domain_labels)
        pruned = result.graph
        with tracer.span("build_abuse_oracle"):
            known_malware = np.flatnonzero(domain_labels == MALWARE)
            known_benign = np.flatnonzero(domain_labels == BENIGN)
            oracle = AbuseOracle(
                context.pdns,
                end_day=context.day - 1,
                window_days=self.config.pdns_window_days,
                malware_domain_ids=known_malware,
                benign_domain_ids=known_benign,
            )
        extractor = FeatureExtractor(
            pruned,
            labels,
            context.fqd_activity,
            context.e2ld_activity,
            context.e2ld_index,
            oracle,
            activity_window=self.config.activity_window,
        )
        return PreparedDay(
            context=context,
            day=context.day,
            labels=labels,
            extractor=extractor,
            prune=result,
            hidden=hidden,
        )

    def _prepared_for(
        self,
        caller: str,
        context: ObservationContext,
        hide_domains: Optional[Iterable[int]],
        prepared: Optional[PreparedDay],
    ) -> PreparedDay:
        """The day *caller* works on: built here, or the checked hand-off.

        A handed-in :class:`PreparedDay` must come from this very context
        object and hide exactly the ids this call hides — otherwise a stale
        object would bypass the leak-free hiding of §IV-A.
        """
        if prepared is None:
            return self.prepare_day(context, hide_domains=hide_domains)
        if prepared.context is not context or prepared.day != context.day:
            raise ValueError(
                f"Segugio.{caller}: prepared= was built from another "
                f"observation context (day {prepared.day}) than the one "
                f"passed to this call (day {context.day}); prepare_day and "
                f"{caller} must get the same ObservationContext object"
            )
        hidden = _hidden_ids(hide_domains)
        if not np.array_equal(hidden, prepared.hidden):
            raise ValueError(
                f"Segugio.{caller}: prepared= hides {prepared.hidden.size} "
                f"domain ids but this call hides {hidden.size} "
                f"(day {context.day}); both must name the same set, or "
                "ground truth leaks past the hiding"
            )
        return prepared

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def fit(
        self,
        context: ObservationContext,
        exclude_domains: Optional[Iterable[int]] = None,
        prepared: Optional[PreparedDay] = None,
    ) -> "Segugio":
        """Train the malware-score classifier on one day of traffic.

        ``exclude_domains`` — global ids whose ground truth must not be used
        at all (the cross-day test sets): they are hidden before labeling,
        so they neither enter the training set nor influence machine labels.

        ``prepared`` — this day as :meth:`prepare_day` returned it for the
        same context and the same ``exclude_domains``; built here when None.
        """
        from repro.runtime.faults import maybe_fault

        maybe_fault("pipeline_fit", task=int(context.day))
        tracer = current_tracer()
        prepared = self._prepared_for("fit", context, exclude_domains, prepared)
        with tracer.span("measure_training_features"):
            rng = np.random.default_rng(self.config.seed)
            training = build_training_set(
                prepared.extractor,
                prepared.graph,
                prepared.labels,
                max_benign=self.config.max_benign_train,
                rng=rng,
            )
        columns = self.config.columns()
        training = training.select_columns(columns)
        with tracer.span("train_classifier"):
            classifier = self.config.make_classifier()
            classifier.fit(training.X, training.y)
        self.classifier_ = classifier
        self.training_set_ = training
        self.train_stats_ = dict(prepared.prune.stats)
        self.train_stats_.update(
            n_train_malware=float(training.n_malware),
            n_train_benign=float(training.n_benign),
        )
        _log.info(
            "fit_complete",
            day=context.day,
            n_train_malware=training.n_malware,
            n_train_benign=training.n_benign,
        )
        return self

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #

    def classify(
        self,
        context: ObservationContext,
        hide_domains: Optional[Iterable[int]] = None,
        prepared: Optional[PreparedDay] = None,
    ) -> DetectionReport:
        """Score every unknown domain in the day's pruned graph.

        ``hide_domains`` forces known test domains to be treated as unknown
        (evaluation mode); in deployment it is None and only genuinely
        unlabeled domains are scored.

        ``prepared`` — this day as :meth:`prepare_day` returned it for the
        same context and the same ``hide_domains``; built here when None.
        """
        if self.classifier_ is None:
            raise RuntimeError("Segugio must be fitted before classify()")
        from repro.runtime.faults import maybe_fault

        maybe_fault("pipeline_classify", task=int(context.day))
        tracer = current_tracer()
        prepared = self._prepared_for("classify", context, hide_domains, prepared)
        graph, labels = prepared.graph, prepared.labels
        with tracer.span("measure_test_features"):
            present = graph.domain_ids()
            unknown_ids = present[
                labels.domain_labels[present] == UNKNOWN
            ]
            X_full = prepared.extractor.feature_matrix(
                unknown_ids, hide_labels=False
            )
        with tracer.span("score_domains"):
            X = X_full[:, self.config.columns()]
            scores = (
                self.classifier_.predict_proba(X)
                if unknown_ids.size
                else np.empty(0, dtype=np.float64)
            )
        count_units(UNIT_DOMAINS_SCORED, int(unknown_ids.size))
        self._emit_decisions(prepared, unknown_ids, scores, X_full, X)
        _log.info(
            "classify_complete", day=context.day, n_scored=int(unknown_ids.size)
        )
        return DetectionReport(
            day=context.day,
            domain_ids=unknown_ids,
            scores=scores,
            graph=graph,
            labels=labels,
            features=X_full,
        )

    def _emit_decisions(
        self,
        prepared: PreparedDay,
        unknown_ids: np.ndarray,
        scores: np.ndarray,
        X_full: np.ndarray,
        X_selected: np.ndarray,
    ) -> None:
        """Hand the decision log one column block: a record per domain in
        the day's graph, written when the log flushes.

        No-op unless a :class:`repro.obs.provenance.DecisionLog` is active
        (i.e. the run asked for ``--telemetry-dir``).  Thresholds are
        stamped later by the caller via ``DecisionLog.finalize_day``.
        """
        log = current_decision_log()
        if not log.enabled:
            return
        present = np.flatnonzero(prepared.prune.domain_rule != RULE_ABSENT)
        with current_tracer().span(
            "segugio_decisions_emit", n_domains=int(present.size)
        ):
            # every scored domain is kept, so it is present
            score_rows = np.full(present.size, -1, dtype=np.int64)
            score_rows[np.searchsorted(present, unknown_ids)] = np.arange(
                unknown_ids.size
            )
            histograms = margins = None
            n_trees = 0
            if unknown_ids.size and hasattr(
                self.classifier_, "tree_vote_histogram"
            ):
                histograms, margins = self.classifier_.tree_vote_histogram(
                    X_selected, n_bins=VOTE_BINS
                )
                n_trees = len(self.classifier_.trees_)
            log.add_block(
                DecisionBlock(
                    day=prepared.day,
                    domain_ids=present,
                    names=prepared.graph.domains.names(present.tolist()),
                    rules=prepared.prune.domain_rule[present],
                    labels=prepared.labels.domain_labels[present],
                    hidden=np.isin(present, prepared.hidden),
                    score_rows=score_rows,
                    features=X_full,
                    scores=scores,
                    feature_names=FEATURE_NAMES,
                    rule_names=_LEDGER_RULES,
                    label_names=_LEDGER_LABELS,
                    histograms=histograms,
                    margins=margins,
                    n_trees=n_trees,
                )
            )

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def explain(
        self,
        context: ObservationContext,
        domain: str,
        hide_domains: Optional[Iterable[int]] = None,
        prepared: Optional[PreparedDay] = None,
    ) -> List[Dict[str, object]]:
        """Feature attribution for one domain's malware score.

        Measures the domain's features on *context* (with the same optional
        hiding used at classification time) and attributes the classifier's
        score to individual features by ablating each to the training-set
        median (see :func:`repro.ml.importance.local_attribution`).  Rows
        come back sorted by absolute contribution.  ``prepared`` is the day
        as :meth:`prepare_day` returned it for the same context and
        ``hide_domains``; built here when None.
        """
        if self.classifier_ is None or self.training_set_ is None:
            raise RuntimeError("Segugio must be fitted before explain()")
        domain_id = context.domain_id(domain)
        if domain_id is None:
            raise KeyError(f"unknown domain {domain!r} in this network")
        from repro.ml.importance import local_attribution

        prepared = self._prepared_for("explain", context, hide_domains, prepared)
        columns = self.config.columns()
        x = prepared.extractor.feature_matrix([domain_id])[0][columns]
        return local_attribution(
            self.classifier_,
            self.training_set_.X,
            x,
            feature_names=self.training_set_.feature_names,
        )

    def with_feature_columns(self, columns: Sequence[int]) -> "Segugio":
        """A fresh (unfitted) Segugio restricted to the given feature columns."""
        return Segugio(replace(self.config, feature_columns=tuple(columns)))

    def __repr__(self) -> str:
        fitted = self.classifier_ is not None
        return f"Segugio(classifier={self.config.classifier!r}, fitted={fitted})"
