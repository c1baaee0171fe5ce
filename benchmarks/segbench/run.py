#!/usr/bin/env python3
"""segbench: the layered benchmark of the Segugio reproduction.

One run measures one workload for one seed::

    python3 benchmarks/segbench/run.py --workload disk-day --seed 7 \\
        --seconds 15 --trace 0

generates the inputs from the seed (timed as ``setup_s``), hands the
inputs directory to a fresh child process that runs the timed rounds,
checks the outputs, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Names, units, directions and bounds are declared in
``BENCHMARK.json`` at the repository root; a run that would emit any
other set of names fails instead.

Without ``--workload`` every workload is run both ways and a report is
printed; ``--selfcheck`` runs the driver's own acceptance rule (two sets
of ``--runs`` seeds, spread and drift against the declared bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import checks  # noqa: E402  (needs HERE on sys.path)
from spans import Recorder, read_jsonl  # noqa: E402

#: a hung child must not take the run past the driver's 180 s limit
CHILD_TIMEOUT_S = 150
#: timed rounds per run, however short ``--seconds`` is
MIN_ROUNDS = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


class RunResult:
    """What one run found: the contract's four keys plus a details block."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.values: Dict[str, float] = {}
        self.details: Dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.reasons

    def contract_json(self, declared: Sequence[dict]) -> str:
        units = {metric["name"]: metric["unit"] for metric in declared}
        if set(units) != set(self.values):
            raise RuntimeError(
                "emitted metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(units) - set(self.values))}, "
                f"undeclared {sorted(set(self.values) - set(units))}"
            )
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
) -> RunResult:
    """Set up, measure in a child, check; never raises on a failed check.

    *sizes* is for the benchmark's own smoke test; every measured run
    uses ``workloads.SIZES``.
    """
    import workloads

    scratch_root = os.path.join(ROOT, ".segbench_scratch")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    try:
        inputs = os.path.join(scratch, "inputs")
        setup_recorder = Recorder()
        start = perf_counter()
        with setup_recorder.patched() if trace else nullcontext():
            workloads.generate(workload, seed, sizes or workloads.SIZES, inputs)
        generate_s = perf_counter() - start
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((HERE, SRC)))
        subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "child.py"),
                inputs,
                "--seconds",
                str(seconds),
                "--min-rounds",
                str(MIN_ROUNDS),
                "--trace",
                str(int(trace)),
            ],
            env=env,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        with open(os.path.join(inputs, "plan.json")) as stream:
            plan = json.load(stream)
        with open(os.path.join(inputs, "truth.json")) as stream:
            truth = json.load(stream)
        with open(os.path.join(inputs, "result.json")) as stream:
            child = json.load(stream)
        result = RunResult()
        rounds = child["rounds"]
        result.attempted, result.failed, result.reasons = checks.verify(plan, rounds)
        result.details["digest"] = checks.workload_digest(rounds)
        result.details["rounds"] = len(rounds)
        recall, false_flags = checks.detection_quality(plan, truth, rounds[0]["items"])
        misses = checks.quality_misses(recall, false_flags)
        result.failed += len(misses)
        result.reasons += misses
        result.details.update(detect_recall=recall, false_flag_rate=false_flags)
        if trace:
            rows = read_jsonl(os.path.join(inputs, "spans.jsonl"))
            _layer_metrics(result, plan, rounds, rows, setup_recorder.rows, inputs)
            result.values["core.tracker.detect_recall"] = recall
            result.values["core.tracker.false_flag_rate"] = false_flags
            _void_unless_faithful(result, workload)
        else:
            _end_to_end_metrics(result, plan, child, generate_s)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run's scratch is still in it


def _end_to_end_metrics(
    result: RunResult, plan: dict, child: dict, generate_s: float
) -> None:
    rounds = child["rounds"]
    wall = checks.per_item_min(rounds, "wall")
    cpu = checks.per_item_min(rounds, "cpu")
    edges = sum(item["edges"] for item in plan["items"])
    result.values = {
        "setup_s": generate_s + child["load_s"],
        "day_wall_s": median(wall),
        "edges_per_s": edges / sum(wall),
        "day_cpu_s": median(cpu),
        "peak_rss_mb": child["peak_rss_mb"],
        "detect_recall": result.details["detect_recall"],
    }
    samples = [item["wall"] for r in rounds for item in r["items"]]
    q1, q2, q3 = checks.quartiles(samples)
    result.details.update(
        wall_samples=len(samples),
        wall_q1=q1,
        wall_median=q2,
        wall_q3=q3,
        failure_rate=result.failed / result.attempted,
    )


def _layer_metrics(
    result: RunResult,
    plan: dict,
    rounds: Sequence[dict],
    rows: Sequence[list],
    setup_rows: Sequence[list],
    inputs: str,
) -> None:
    items, loose = checks.fold_spans(rows)
    _none, setup_loose = checks.fold_spans(setup_rows)
    ledger = bool(plan["ledger"])
    view = checks.LayerView(i for i in items if i.ledger == ledger)
    bare = checks.LayerView(i for i in items if ledger and not i.ledger)
    traced = [r for r in rounds if r["traced"] and r["ledger"] == ledger]
    untraced = [r for r in rounds if not r["traced"]]
    n_items = len(plan["items"])

    fit_1 = checks.loose_seconds(loose, "ml.forest.fit_jobs1")
    fit_2 = checks.loose_seconds(loose, "ml.forest.fit_jobs2")
    store_dirs = [i["store_dir"] for i in plan["items"] if i["store_dir"]]
    overhead = (
        median(checks.per_item_min(traced, "wall"))
        / median(checks.per_item_min(untraced, "wall"))
        - 1.0
    )
    process_day = "core.tracker.process_day"
    result.values = {
        "runtime.ingest.load_observation_s": view.seconds("runtime.ingest.load_observation"),
        "dns.trace.load_s": view.seconds("dns.trace.load"),
        "dns.trace.rows_per_s": view.rate("dns.trace.load", "edges"),
        "runtime.ingest.load_trace_lenient_s": checks.loose_seconds(
            loose, "runtime.ingest.load_trace_lenient"
        ),
        "runtime.ingest.load_trace_to_store_s": checks.loose_seconds(
            loose, "runtime.ingest.load_trace_to_store"
        ),
        # the streaming sink runs in the traced extras where the child
        # ingests a trace file, in set-up where the generator stages stores
        "datasets.edgestore.finalize_s": checks.loose_seconds(
            loose, "datasets.edgestore.finalize"
        )
        or checks.loose_seconds(setup_loose, "datasets.edgestore.finalize"),
        "datasets.edgestore.bytes": checks.loose_count(
            loose, "datasets.edgestore.finalize", "bytes"
        )
        or float(
            checks.tree_bytes(os.path.join(inputs, store_dirs[0])) if store_dirs else 0
        ),
        "datasets.store.load_interners_s": view.seconds("datasets.store.load_interners"),
        "datasets.store.build_pdns_s": view.seconds("datasets.store.build_pdns"),
        "datasets.store.build_activity_s": view.seconds("datasets.store.build_activity"),
        "dns.e2ld.index_build_s": view.seconds("dns.e2ld.index_build"),
        "core.graph.build_s": view.seconds("core.graph.build"),
        "core.graph.edges_per_s": view.rate("core.graph.build", "edges"),
        "core.labeling.label_domains_s": view.seconds("core.labeling.label_domains"),
        "core.labeling.machine_labels_s": view.seconds("core.labeling.machine_labels"),
        "core.pruning.prune_s": view.seconds("core.pruning.prune"),
        "core.pruning.edges_removed_ratio": view.ratio(
            "core.pruning.prune", "edges_removed", "edges_in"
        ),
        "core.sharded.build_day_s": view.seconds("core.sharded.build_day"),
        "core.sharded.shard_skew": median(
            item.get("shard_skew", 0.0) for item in rounds[0]["items"]
        ),
        "pdns.abuse.oracle_build_s": view.seconds("pdns.abuse.oracle_build"),
        "core.training.build_s": view.seconds("core.training.build"),
        "core.training.n_samples": view.count("core.training.build", "samples"),
        "core.features.test_matrix_s": view.seconds("core.features.test_matrix"),
        "core.features.domains_per_s": view.rate("core.features.test_matrix", "rows"),
        "ml.forest.fit_s": view.seconds("ml.forest.fit"),
        "ml.forest.n_nodes": view.count("ml.forest.fit", "nodes"),
        "ml.forest.fit_jobs2_s": fit_2,
        "ml.forest.parallel_speedup": fit_1 / fit_2 if fit_2 else 0.0,
        "ml.forest.predict_s": view.seconds("ml.forest.predict"),
        "ml.forest.domains_scored_per_s": view.rate("ml.forest.predict", "rows"),
        "core.tracker.calibrate_s": view.seconds("core.tracker.calibrate"),
        "core.tracker.self_s": view.seconds(process_day, table="self_time"),
        "core.pipeline.self_s": view.seconds(
            "core.pipeline.fit", "core.pipeline.classify", table="self_time"
        ),
        "runtime.health.check_context_s": view.seconds("runtime.health.check_context"),
        "obs.provenance.ledger_s": (
            view.seconds(process_day) - bare.seconds(process_day) if ledger else 0.0
        ),
        "obs.provenance.flush_s": view.seconds("obs.provenance.flush"),
        "obs.provenance.bytes_per_day": traced[0]["decisions_bytes"] / n_items,
        "ledger_mb_per_day": traced[0]["ledger_bytes"] / n_items / 1e6,
        "runtime.checkpoint.save_s": view.seconds("runtime.checkpoint.save"),
        "runtime.supervisor.degradations": float(
            sum(item.get("degradations", 0) for r in rounds for item in r["items"])
        ),
        "trace.coverage": view.coverage(),
        "trace.overhead_pct": 100.0 * overhead,
    }
    result.details["shares"] = view.shares()


def _void_unless_faithful(result: RunResult, workload: str) -> None:
    """A traced run that explains too little of its items is a failed run."""
    coverage = result.values["trace.coverage"]
    if coverage < checks.MIN_COVERAGE[workload]:
        result.reasons.append(
            f"trace.coverage {coverage:.3f} is below "
            f"{checks.MIN_COVERAGE[workload]} on {workload}: the traced run is void"
        )
    for name in checks.MATTERS[workload]:
        if not result.values[name] > 0:
            result.reasons.append(
                f"{name} reads {result.values[name]!r} on {workload}, where it "
                "matters: its wrapper no longer sees the call"
            )


# ---------------------------------------------------------------------- #
# reports
# ---------------------------------------------------------------------- #


def _print_metrics(result: RunResult, declared: Sequence[dict]) -> None:
    for metric in declared:
        value = result.values[metric["name"]]
        bound = f"  (bound {metric['bound']:.0%})" if "bound" in metric else ""
        print(f"    {metric['name']:<40s} {value:>16.6g} {metric['unit']}{bound}")


def report(workload_names: Sequence[str], seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, every metric by name with unit."""
    contract = load_contract()
    print(f"segbench seed={seed} seconds={seconds}")
    exit_code = 0
    for name in workload_names:
        print(f"\n== {name}")
        for trace, declared in (
            (False, contract["end_to_end"]),
            (True, contract["per_layer"]),
        ):
            result = run_once(name, seed, seconds, trace)
            result.contract_json(declared)  # the name check
            print(
                f"  {'traced run' if trace else 'end to end'}: "
                f"correct={result.correct} attempted={result.attempted} "
                f"failed={result.failed} rounds={result.details['rounds']} "
                f"digest={result.details['digest'][:16]}"
            )
            _print_metrics(result, declared)
            if trace:
                print("    exclusive share of the item, per layer:")
                for layer, share in result.details["shares"]:
                    print(f"      {layer:<38s} {share:6.1%}")
            else:
                d = result.details
                print(
                    f"    all {d['wall_samples']} item samples: wall median "
                    f"{d['wall_median']:.4f} s, quartiles {d['wall_q1']:.4f} / "
                    f"{d['wall_q3']:.4f} s; failure_rate {d['failure_rate']:.4f}; "
                    f"detect_recall {d['detect_recall']:.4f}, "
                    f"false_flag_rate {d['false_flag_rate']:.4f}"
                )
            for reason in result.reasons:
                print(f"    FAILED: {reason}")
            if not result.correct:
                exit_code = 1
    return exit_code


def _worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    delta = second - first if metric["better"] == "lower" else first - second
    return delta / first


def selfcheck(
    workload_names: Sequence[str], seed: int, seconds: float, runs: int
) -> int:
    """Two sets of *runs* seeds each; spread and drift against the bounds.

    The driver rejects a second median that is *worse* by more than the
    bound; here a move of that size in either direction fails, because
    either way the benchmark did not repeat.
    """
    contract = load_contract()
    declared = contract["end_to_end"]
    verdict: Dict[str, dict] = {}
    exit_code = 0
    for name in workload_names:
        sets: List[Dict[str, List[float]]] = []
        for _set in range(2):
            values: Dict[str, List[float]] = {m["name"]: [] for m in declared}
            for offset in range(runs):
                result = run_once(name, seed + offset, seconds, False)
                if not result.correct:
                    print(f"{name} seed {seed + offset}: {result.reasons}")
                    exit_code = 1
                for key, value in result.values.items():
                    values[key].append(value)
            sets.append(values)
        verdict[name] = {}
        for metric in declared:
            key = metric["name"]
            spreads = []
            for values in sets:
                q1, q2, q3 = checks.quartiles(values[key])
                spreads.append((q3 - q1) / q2)
            medians = [median(values[key]) for values in sets]
            drift = _worse_by(metric, medians[0], medians[1])
            ok = abs(drift) <= metric["bound"] and (
                key == "setup_s" or max(spreads) <= metric["bound"]
            )
            verdict[name][key] = {
                "bound": metric["bound"],
                "spread": [round(s, 5) for s in spreads],
                "median": medians,
                "drift": round(drift, 5),
                "ok": ok,
            }
            print(
                f"{name:<15s} {key:<17s} spread {spreads[0]:7.2%} {spreads[1]:7.2%} "
                f"drift {drift:+7.2%} bound {metric['bound']:.1%} "
                f"{'ok' if ok else 'FAIL'}"
            )
            if not ok:
                exit_code = 1
    print(json.dumps({"seed": seed, "runs": runs, "workloads": verdict}))
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"segbench: nothing to measure — {os.path.join(SRC, 'repro')} is missing",
            file=sys.stderr,
        )
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="run one (default: all)")
    parser.add_argument("--seed", type=int, default=7, help="the only input to generation")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(contract["run_seconds"]),
        help="timed rounds continue until this long has been measured",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run, this way")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10, help="seeds per selfcheck set")
    args = parser.parse_args(argv)

    chosen = [args.workload] if args.workload else names
    if args.selfcheck:
        return selfcheck(chosen, args.seed, args.seconds, args.runs)
    if args.workload is None or args.trace is None:
        return report(chosen, args.seed, args.seconds)
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in result.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    declared = contract["per_layer" if args.trace else "end_to_end"]
    print(
        f"seed={args.seed} digest={result.details['digest']} "
        f"detect_recall={result.details['detect_recall']:.4f} "
        f"false_flag_rate={result.details['false_flag_rate']:.4f}"
    )
    print(result.contract_json(declared))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
