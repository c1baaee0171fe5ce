"""The checker: output checks, the timing estimator, and per-layer sums.

Everything here runs in the parent, after the measured child has
exited, on what the child wrote (``result.json``, ``spans.jsonl``) and
on what the generator wrote for the checker alone (``truth.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
from statistics import median, quantiles
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: spans that only hold other spans: the harness's ``item`` and the
#: program's own orchestration.  What they spend outside the layers
#: wrapped beneath them is the part of an item the traced run does not
#: explain.
CONTAINERS = frozenset(
    (
        "item",
        "runtime.ingest.load_observation",
        "core.tracker.process_day",
        "core.pipeline.fit",
        "core.pipeline.classify",
    )
)

#: least share of the traced items' wall that wrapped layer calls must
#: explain, per workload; a traced run below it is void.  If a caller
#: stops resolving a layer through the name :data:`spans.TARGETS` wraps,
#: that layer's time falls into its container's self time and coverage
#: drops by the layer's share.  Each threshold sits a few points under
#: what the workload measures (0.92-0.93, 0.97-0.98, 0.99, 0.97).  ``disk-day`` is lowest because ``Segugio.classify`` emits
#: the decision records itself, record by record (6% of the item), and
#: no public call brackets that loop.
MIN_COVERAGE = {
    "disk-day": 0.88,
    "track-mem": 0.93,
    "bigday-sharded": 0.93,
    "small-fleet": 0.93,
}

#: per workload, the per-layer metrics the README marks as mattering
#: there; in a traced run each must read above zero
MATTERS = {
    "disk-day": (
        "runtime.ingest.load_observation_s",
        "dns.trace.load_s",
        "dns.trace.rows_per_s",
        "runtime.ingest.load_trace_lenient_s",
        "runtime.ingest.load_trace_to_store_s",
        "datasets.edgestore.finalize_s",
        "datasets.edgestore.bytes",
        "datasets.store.load_interners_s",
        "datasets.store.build_pdns_s",
        "datasets.store.build_activity_s",
        "dns.e2ld.index_build_s",
        "core.pipeline.self_s",
        "obs.provenance.ledger_s",
        "obs.provenance.flush_s",
        "obs.provenance.bytes_per_day",
        "ledger_mb_per_day",
        "runtime.checkpoint.save_s",
    ),
    "track-mem": (
        "core.graph.build_s",
        "core.graph.edges_per_s",
        "core.labeling.label_domains_s",
        "core.labeling.machine_labels_s",
        "core.pruning.prune_s",
        "core.pruning.edges_removed_ratio",
        "pdns.abuse.oracle_build_s",
        "core.training.build_s",
        "core.training.n_samples",
        "core.features.test_matrix_s",
        "core.features.domains_per_s",
        "ml.forest.fit_s",
        "ml.forest.n_nodes",
        "ml.forest.predict_s",
        "ml.forest.domains_scored_per_s",
    ),
    "bigday-sharded": (
        "datasets.edgestore.finalize_s",
        "datasets.edgestore.bytes",
        "core.sharded.build_day_s",
        "core.sharded.shard_skew",
        "ml.forest.fit_jobs2_s",
        "ml.forest.parallel_speedup",
    ),
    "small-fleet": (
        "pdns.abuse.oracle_build_s",
        "ml.forest.fit_s",
        "ml.forest.n_nodes",
        "core.tracker.calibrate_s",
        "core.tracker.self_s",
        "runtime.health.check_context_s",
    ),
}

#: a run whose tracker flags none of the day's new C&C domains, or flags
#: more than this share of the domains it scored without ground truth
#: behind it, is a failed run however fast it was
MAX_FALSE_FLAG_RATE = 0.2


# ---------------------------------------------------------------------- #
# estimator
# ---------------------------------------------------------------------- #


def per_item_min(rounds: Sequence[dict], key: str) -> List[float]:
    """Minimum over *rounds* of ``item[key]``, one value per item position.

    An item's work is deterministic and a co-tenant burst only ever adds
    time, so the minimum over rounds is the least-disturbed sample.
    """
    return [
        min(items)
        for items in zip(*([item[key] for item in r["items"]] for r in rounds))
    ]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``, defined for one sample too."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #


def verify(plan: dict, rounds: Sequence[dict]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, reasons)`` over every item of every round.

    An item fails when it raised, when the trace it ingested does not
    have the edge count the generator wrote, or when the tracker state
    after it differs from the first round's — across rounds, across
    traced and untraced, across ledger on and off, the same inputs must
    give the same bytes.  A round whose ``decisions.jsonl`` differs from
    the first ledger round's adds one more failure.
    """
    attempted = failed = 0
    reasons: List[str] = []
    reference = rounds[0]["items"]
    ledger_reference: Optional[dict] = None
    for index, summary in enumerate(rounds):
        for position, (item, expected, first) in enumerate(
            zip(summary["items"], plan["items"], reference)
        ):
            attempted += 1
            where = f"round {index} item {position}"
            if item["error"] is not None:
                reasons.append(f"{where}: raised {item['error']}")
            elif item["edges"] != expected["edges"]:
                reasons.append(
                    f"{where}: ingested {item['edges']} edges, generator "
                    f"wrote {expected['edges']}"
                )
            elif item["state_sha"] != first.get("state_sha"):
                reasons.append(f"{where}: tracker state differs from round 0")
            else:
                continue
            failed += 1
        if summary["ledger"]:
            if ledger_reference is None:
                ledger_reference = summary["decisions_sha"]
            elif summary["decisions_sha"] != ledger_reference:
                failed += 1
                reasons.append(f"round {index}: decisions.jsonl differs")
    return attempted, failed, reasons


def workload_digest(rounds: Sequence[dict]) -> str:
    """One digest over the first round's states and decision ledgers."""
    first = rounds[0]
    payload = [item.get("state_sha") for item in first["items"]]
    payload.append(first["decisions_sha"])
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def detection_quality(
    plan: dict, truth: dict, items: Sequence[dict]
) -> Tuple[float, float]:
    """``(detect_recall, false_flag_rate)`` summed over one round's items.

    Recall: ground-truth C&C domains queried on the day and not yet
    blacklisted that the tracker flagged, over all such domains.  False
    flags: flagged names that are not ground-truth malware, over the
    domains scored.  Both use only what ``DayReport`` exposes.
    """
    hit = wanted = false_flags = scored = 0
    for item, expected in zip(items, plan["items"]):
        if item["error"] is not None:
            continue
        targets = set(truth["targets"][f"{expected['network']}/{expected['day']}"])
        detected = set(item["detected"])
        hit += len(detected & targets)
        wanted += len(targets)
        false_flags += len(detected.difference(truth["malware"][expected["network"]]))
        scored += item["n_scored"]
    return (
        hit / wanted if wanted else 0.0,
        false_flags / scored if scored else 0.0,
    )


def quality_misses(recall: float, false_flag_rate: float) -> List[str]:
    """Why the detection quality of a run fails it; empty when it does not."""
    reasons = []
    if recall <= 0.0:
        reasons.append("detect_recall is 0: no new C&C domain was flagged")
    if false_flag_rate > MAX_FALSE_FLAG_RATE:
        reasons.append(
            f"false_flag_rate {false_flag_rate:.4f} is above {MAX_FALSE_FLAG_RATE}"
        )
    return reasons


# ---------------------------------------------------------------------- #
# per-layer sums over the traced run's spans
# ---------------------------------------------------------------------- #


def _layer(name: str, parent: str) -> str:
    """Split the spans whose meaning depends on who called them."""
    if name == "core.features.matrix":
        if parent == "core.pipeline.classify":
            return "core.features.test_matrix"
        return "core.features.train_matrix"
    if name in ("ml.forest.predict", "core.tracker.threshold"):
        if parent == "core.tracker.process_day":
            return "core.tracker.calibrate"
    return name


class ItemSpans:
    """One traced item: inclusive and exclusive seconds and counts per layer."""

    def __init__(self, counts: dict, wall: float) -> None:
        self.position = int(counts["item"])
        self.ledger = bool(counts["ledger"])
        self.wall = wall
        self.covered = 0.0
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, Dict[str, float]] = {}


def fold_spans(rows: Sequence[list]) -> Tuple[List[ItemSpans], Dict[str, list]]:
    """Group span rows by item; also return the spans outside any item."""
    children_s = [0.0] * len(rows)
    for name, parent, start, end, _counts in rows:
        if parent >= 0:
            children_s[parent] += end - start
    owner: List[Optional[ItemSpans]] = [None] * len(rows)
    items: List[ItemSpans] = []
    loose: Dict[str, list] = {}
    for index, (name, parent, start, end, counts) in enumerate(rows):
        duration = end - start
        if name == "item":
            owner[index] = ItemSpans(counts, duration)
            items.append(owner[index])
            continue
        item = owner[parent] if parent >= 0 else None
        owner[index] = item
        if item is None:
            # spans nested under a loose span stay reachable by name
            loose.setdefault(name, []).append((duration, counts))
            continue
        layer = _layer(name, rows[parent][0])
        self_s = duration - children_s[index]
        if name not in CONTAINERS:
            item.covered += self_s
        item.total[layer] = item.total.get(layer, 0.0) + duration
        item.self_time[layer] = item.self_time.get(layer, 0.0) + self_s
        bucket = item.counts.setdefault(layer, {})
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0.0) + value
    return items, loose


class LayerView:
    """The estimator applied to folded spans: min over rounds, median over items."""

    def __init__(self, items: Iterable[ItemSpans]) -> None:
        self.by_position: Dict[int, List[ItemSpans]] = {}
        for item in items:
            self.by_position.setdefault(item.position, []).append(item)

    def _best(self, layer: str, table: str) -> List[Tuple[float, ItemSpans]]:
        """Per position, the round where *layer* took least time."""
        best = []
        for _position, rounds in sorted(self.by_position.items()):
            seconds, item = min(
                ((getattr(r, table).get(layer, 0.0), r) for r in rounds),
                key=lambda pair: pair[0],
            )
            best.append((seconds, item))
        return best

    def seconds(self, *layers: str, table: str = "total") -> float:
        if not self.by_position:
            return 0.0
        per_layer = [self._best(layer, table) for layer in layers]
        return median(
            sum(seconds for seconds, _item in position)
            for position in zip(*per_layer)
        )

    def count(self, layer: str, key: str) -> float:
        """Median over items of a count (counts repeat exactly across rounds)."""
        if not self.by_position:
            return 0.0
        return median(
            rounds[0].counts.get(layer, {}).get(key, 0.0)
            for rounds in self.by_position.values()
        )

    def rate(self, layer: str, key: str) -> float:
        """Σ count ÷ Σ least seconds, over items."""
        best = self._best(layer, "total") if self.by_position else []
        seconds = sum(s for s, _item in best)
        units = sum(item.counts.get(layer, {}).get(key, 0.0) for _s, item in best)
        return units / seconds if seconds > 0 else 0.0

    def ratio(self, layer: str, numerator: str, denominator: str) -> float:
        top = bottom = 0.0
        for rounds in self.by_position.values():
            counts = rounds[0].counts.get(layer, {})
            top += counts.get(numerator, 0.0)
            bottom += counts.get(denominator, 0.0)
        return top / bottom if bottom else 0.0

    def coverage(self) -> float:
        """Share of the traced items' wall spent inside wrapped layer calls
        (self time of every span not in :data:`CONTAINERS`).

        Over all items together: a pause that lands in one 0.1 s item's
        container is noise, a layer that is no longer wrapped is missing
        from every item.
        """
        items = [r for rounds in self.by_position.values() for r in rounds]
        wall = sum(r.wall for r in items)
        return sum(r.covered for r in items) / wall if wall else 0.0

    def shares(self) -> List[Tuple[str, float]]:
        """Exclusive seconds per layer as a share of the item, largest first."""
        layers = {
            layer
            for rounds in self.by_position.values()
            for r in rounds
            for layer in r.self_time
        }
        wall = median(
            min(r.wall for r in rounds) for rounds in self.by_position.values()
        )
        rows = [
            (layer, self.seconds(layer, table="self_time") / wall) for layer in layers
        ]
        return sorted(rows, key=lambda row: -row[1])


def loose_seconds(loose: Dict[str, list], name: str) -> float:
    """Least duration among the spans of that name outside any item."""
    return min((duration for duration, _counts in loose.get(name, ())), default=0.0)


def loose_count(loose: Dict[str, list], name: str, key: str) -> float:
    spans = loose.get(name)
    return float(spans[-1][1].get(key, 0.0)) if spans else 0.0


def tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )
