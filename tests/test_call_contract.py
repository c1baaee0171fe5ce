"""Python calls per tracked day as a contract: the day's cost scales with
the graph's arrays, not with a Python loop over its domains.

The count is cProfile's ``total_calls`` inside ``DomainTracker.process_day``
over two BigDay days, at N and 4N edges.  It is deterministic for a fixed
seed, so the contract holds on a noisy box where a stopwatch cannot; it
is asserted as a ratio, never as an absolute count, because Python
versions differ in what they count as a call.  A Python-level loop over
every present domain (a per-name lookup, a per-record ``json.dumps`` or
escape) makes calls grow with the edges and fails the bound; the message
names the functions whose counts grew most.

The forest fit has a contract of its own: Python calls per fitted node.
Grown node by node, with a dozen NumPy calls per candidate feature, a fit
costs about 75 calls per node; grown in lock-step it costs under 40.
"""

import cProfile
import pstats
from collections import Counter

import numpy as np
import pytest

from repro.core.features import N_FEATURES
from repro.core.pipeline import SegugioConfig
from repro.core.tracker import DomainTracker
from repro.ml.forest import RandomForestClassifier
from repro.obs.run import RunTelemetry
from repro.synth.bigday import BigDay, BigDayConfig

N_EDGES = 25_000
#: calls(4N) / calls(N) may not exceed this
MAX_GROWTH = 2.0
#: training rows of the smaller forest fit
FIT_ROWS = 600
#: Python calls inside ``RandomForestClassifier.fit`` per fitted node
MAX_CALLS_PER_NODE = 40


def calls_per_function(n_edges, ledger_dir=None):
    """Python calls per function inside ``process_day``, summed over two
    BigDay days; *ledger_dir* streams the decision ledger into it."""
    world = BigDay(BigDayConfig.for_edges(n_edges, seed=3, n_days=2))
    tracker = DomainTracker(config=SegugioConfig(n_jobs=1))
    if ledger_dir is not None:
        tracker.telemetry = RunTelemetry(command="test", run_id="calls")
        tracker.telemetry.stream_decisions(str(ledger_dir))
    calls = Counter()
    for offset in range(2):
        context = world.context(world.eval_day(offset))
        profile = cProfile.Profile()
        profile.enable()
        tracker.process_day(context)
        profile.disable()
        for (path, line, name), row in pstats.Stats(profile).stats.items():
            calls[f"{name} ({path}:{line})"] += row[1]
    if tracker.telemetry is not None:
        tracker.telemetry.write(str(ledger_dir))
    return calls


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """Calls per function at N and 4N edges, with the ledger off and on.

    A first day imports what ``process_day`` imports lazily; counting that
    into N alone would flatter every ratio, so it runs first, uncounted.
    """
    calls_per_function(N_EDGES, tmp_path_factory.mktemp("warm"))
    return {
        (ledger, n_edges): calls_per_function(
            n_edges, tmp_path_factory.mktemp("ledger") if ledger else None
        )
        for ledger in (False, True)
        for n_edges in (N_EDGES, 4 * N_EDGES)
    }


def assert_growth(small, large, what):
    growth = sum(large.values()) / sum(small.values())
    grew = sorted(
        ((large[name] - small[name], name) for name in large), reverse=True
    )[:5]
    assert growth <= MAX_GROWTH, (
        f"{what}: calls grew {growth:.2f}x for 4x the edges "
        f"({sum(small.values())} -> {sum(large.values())}); grew most: "
        + "; ".join(f"{name} +{delta}" for delta, name in grew)
    )


@pytest.mark.parametrize("ledger", [False, True], ids=["ledger-off", "ledger-on"])
def test_day_calls_at_most_double_for_four_times_the_edges(calls, ledger):
    assert_growth(calls[ledger, N_EDGES], calls[ledger, 4 * N_EDGES], "day")


def test_ledger_calls_at_most_double_for_four_times_the_edges(calls):
    """What the ledger adds to the day on its own: a single call per
    present domain multiplies it by about four."""
    assert_growth(
        calls[True, N_EDGES] - calls[False, N_EDGES],
        calls[True, 4 * N_EDGES] - calls[False, 4 * N_EDGES],
        "decision ledger",
    )


def forest_fit_calls(n_rows):
    """Python calls per function inside one forest fit, and the nodes it
    fitted, on a skewed two-class set with the day's feature count."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(n_rows, N_FEATURES))
    y = (X[:, 0] + X[:, 1] * rng.normal(size=n_rows) > 1.5).astype(np.int64)
    forest = RandomForestClassifier(n_estimators=32, random_state=0)
    profile = cProfile.Profile()
    profile.enable()
    forest.fit(X, y)
    profile.disable()
    calls = Counter()
    for (path, line, name), row in pstats.Stats(profile).stats.items():
        calls[f"{name} ({path}:{line})"] += row[1]
    return calls, sum(tree.n_nodes for tree in forest.trees_)


@pytest.mark.parametrize("n_rows", [FIT_ROWS, 4 * FIT_ROWS])
def test_forest_fit_calls_per_fitted_node(n_rows):
    """A per-candidate-feature loop costs a dozen calls per feature and
    node, and puts the fit over the bound at either size."""
    forest_fit_calls(50)  # lazy imports, uncounted
    calls, n_nodes = forest_fit_calls(n_rows)
    per_node = sum(calls.values()) / n_nodes
    assert per_node <= MAX_CALLS_PER_NODE, (
        f"forest fit: {per_node:.1f} calls per fitted node over {n_nodes} "
        "nodes; most calls: "
        + "; ".join(f"{name} {count}" for name, count in calls.most_common(5))
    )
