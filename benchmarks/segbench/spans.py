"""In-memory span recorder and the table of layer boundaries it wraps.

The traced run executes the *real* ``DomainTracker.process_day`` /
``load_observation_checked`` with each layer's public function replaced,
in the namespace its caller resolves it from, by a wrapper that records
one span per call (name, parent, start, end, counts).  Nothing is
re-composed, so the traced run cannot drift from the program: it is the
program, plus two ``perf_counter`` reads per boundary.  The wrappers are
installed only inside :meth:`Recorder.patched` and removed on exit; the
untraced phase never sees them.

Span names are ``<layer module>.<call>``; a layer's metric is the span
name plus ``_s``.  Spans stay in memory and are written once, when the
child exits.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: counts read off a call's arguments/result, recorded on its span
Counter = Callable[[tuple, dict, object], Dict[str, float]]


def _n_edges(args, kwargs, result) -> Dict[str, float]:
    return {"edges": float(result.n_edges)}


def _prune_counts(args, kwargs, result) -> Dict[str, float]:
    return {
        "edges_in": float(args[0].n_edges),
        "edges_removed": float(args[0].n_edges - result.graph.n_edges),
    }


def _n_samples(args, kwargs, result) -> Dict[str, float]:
    return {"samples": float(result.n_samples)}


def _matrix_rows(args, kwargs, result) -> Dict[str, float]:
    return {"rows": float(result.shape[0])}


def _forest_nodes(args, kwargs, result) -> Dict[str, float]:
    return {
        "nodes": float(sum(tree.n_nodes for tree in result.trees_)),
        "samples": float(args[1].shape[0]),
    }


#: (module, class or None, attribute, span name, counter).  The module is
#: the namespace the *caller* looks the function up in: ``pipeline`` does
#: ``from repro.core.labeling import label_domains``, so the wrapper goes
#: on ``repro.core.pipeline.label_domains``.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Counter]], ...] = (
    ("repro.dns.trace", "DayTrace", "load", "dns.trace.load", _n_edges),
    ("repro.datasets.store", None, "load_interner", "datasets.store.load_interners", None),
    ("repro.datasets.store", None, "load_pdns_arrays", "datasets.store.build_pdns", None),
    ("repro.datasets.store", None, "build_pdns", "datasets.store.build_pdns", None),
    ("repro.datasets.store", None, "load_activity_arrays", "datasets.store.build_activity", None),
    ("repro.datasets.store", None, "build_activity_index", "datasets.store.build_activity", None),
    ("repro.dns.e2ld", "E2ldIndex", "__len__", "dns.e2ld.index_build", None),
    ("repro.datasets.edgestore", "EdgeStoreWriter", "finalize", "datasets.edgestore.finalize", None),
    ("repro.runtime.health", None, "check_context", "runtime.health.check_context", None),
    ("repro.core.pipeline", "Segugio", "fit", "core.pipeline.fit", None),
    ("repro.core.pipeline", "Segugio", "classify", "core.pipeline.classify", None),
    ("repro.core.graph", "BehaviorGraph", "from_trace", "core.graph.build", _n_edges),
    ("repro.core.pipeline", None, "label_domains", "core.labeling.label_domains", None),
    ("repro.core.pipeline", None, "derive_machine_labels", "core.labeling.machine_labels", None),
    ("repro.core.pipeline", None, "prune_graph", "core.pruning.prune", _prune_counts),
    ("repro.core.sharded", None, "build_day_sharded", "core.sharded.build_day", None),
    ("repro.core.pipeline", None, "AbuseOracle", "pdns.abuse.oracle_build", None),
    ("repro.core.pipeline", None, "build_training_set", "core.training.build", _n_samples),
    ("repro.core.features", "FeatureExtractor", "feature_matrix", "core.features.matrix", _matrix_rows),
    ("repro.ml.forest", "RandomForestClassifier", "fit", "ml.forest.fit", _forest_nodes),
    ("repro.ml.forest", "RandomForestClassifier", "predict_proba", "ml.forest.predict", _matrix_rows),
    ("repro.core.tracker", None, "threshold_for_fpr", "core.tracker.threshold", None),
    ("repro.obs.provenance", "DecisionLog", "finalize_day", "obs.provenance.finalize_day", None),
    ("repro.obs.provenance", "DecisionLog", "flush_pending", "obs.provenance.flush", None),
)


class Recorder:
    """Nested spans kept as flat rows ``[name, parent, start, end, counts]``."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[dict]:
        """Record one span; the yielded dict takes counts known only after."""
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        row = [name, parent, 0.0, 0.0, dict(counts)]
        self.rows.append(row)
        self._stack.append(index)
        row[2] = perf_counter()
        try:
            yield row[4]
        finally:
            row[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, counter: Optional[Counter]) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
                return result

        return wrapped

    @contextmanager
    def patched(self) -> Iterator["Recorder"]:
        """Install the :data:`TARGETS` wrappers; restore the originals on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for module_name, class_name, attr, name, counter in TARGETS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                # vars(), not getattr: a classmethod must be re-wrapped
                # as one, and getattr would hand back the bound method
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(
                        self._wrap(original.__func__, name, counter)
                    )
                else:
                    wrapper = self._wrap(original, name, counter)
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as stream:
            for row in self.rows:
                stream.write(json.dumps(row) + "\n")


def read_jsonl(path: str) -> List[list]:
    with open(path) as stream:
        return [json.loads(line) for line in stream]
