"""The measured process: one workload's rounds, in a fresh interpreter.

Receives an inputs directory written by :mod:`workloads` and nothing
else — no seed, no ground truth.  Runs one untimed warm-up item, then
whole rounds (a fresh tracker per network, every item in order) until
both the minimum round count and the time budget are met, and writes
``result.json``: per item and round the wall and CPU seconds and the
digests the checker compares; per round the ledger digests; once, the
process's peak RSS.

With ``--trace 1`` rounds alternate untraced / traced (the layer
wrappers of :mod:`spans` are installed for traced rounds only), a few
layers that no tracked day calls are timed on their own afterwards, and
``spans.jsonl`` is written next to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import pickle
import resource
import shutil
import sys
from contextlib import nullcontext
from time import perf_counter, sleep
from typing import Dict, List, Optional

from checks import tree_bytes
from spans import Recorder

from repro.core.pipeline import ObservationContext, Segugio, SegugioConfig
from repro.core.tracker import DomainTracker
from repro.datasets import store
from repro.datasets.edgestore import EdgeStoreWriter, ShardedDayTrace
from repro.obs.run import RunTelemetry
from repro.runtime.ingest import (
    IngestReport,
    load_observation_checked,
    load_trace_lenient,
    load_trace_to_store,
)

CHECKPOINT_NAME = "tracker.ckpt"


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children.

    ``getrusage``, not ``os.times``: the latter counts in 10 ms ticks,
    a tenth of a small-fleet item.  A child's CPU is credited only once
    it has been waited for, and the supervised pool is shut down without
    waiting, so first give exited workers a moment to be reaped
    (``active_children`` joins the finished ones as a side effect).
    """
    deadline = perf_counter() + 1.0
    while multiprocessing.active_children() and perf_counter() < deadline:
        sleep(0.001)
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
    )


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    """The larger high-water mark of this process and of its reaped children.

    For this process ``VmHWM``, not ``ru_maxrss``: across ``exec`` Linux
    carries the parent's high-water mark into the child's ``ru_maxrss``,
    so a child of the generator would report the generator's memory.
    """
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as stream:
            self_kb = next(
                int(line.split()[1]) for line in stream if line.startswith("VmHWM:")
            )
    except (OSError, StopIteration):
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


class Bench:
    """One workload's inputs and the loop that runs rounds over them."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        with open(os.path.join(directory, "plan.json")) as stream:
            self.plan = json.load(stream)
        self.items: List[dict] = self.plan["items"]
        self.config = SegugioConfig(n_jobs=int(self.plan["n_jobs"]))
        start = perf_counter()
        with open(os.path.join(directory, "inputs.pkl"), "rb") as stream:
            inputs = pickle.load(stream)
        self.contexts: List[Optional[ObservationContext]] = inputs["contexts"]
        for index, item in enumerate(self.items):
            if item["store_dir"] is not None:
                machines, domains = inputs["interners"]
                trace = ShardedDayTrace.open(
                    os.path.join(directory, item["store_dir"]), machines, domains
                )
                self.contexts[index].trace = trace
        self.load_s = perf_counter() - start
        self.out = os.path.join(directory, "out")
        os.makedirs(self.out)
        self.recorder = Recorder()
        self.n_rounds = 0

    def _obs_path(self, item: dict) -> str:
        return os.path.join(self.directory, item["obs_dir"])

    def run_round(self, traced: bool, ledger: bool, only_first: bool = False) -> dict:
        """Every item once, through fresh trackers; returns the round record."""
        index = self.n_rounds
        self.n_rounds += 1
        round_dir = os.path.join(self.out, f"round-{index}")
        os.makedirs(round_dir)
        trackers: Dict[str, DomainTracker] = {}
        span = self.recorder.span if traced else (lambda name, **counts: nullcontext({}))
        records = []
        ledger_bytes = 0  # checkpoint bytes written, then the decision ledger's
        with self.recorder.patched() if traced else nullcontext():
            for position, item in enumerate(self.items[:1] if only_first else self.items):
                network = item["network"]
                if network not in trackers:
                    trackers[network] = DomainTracker(self.config)
                    if ledger:
                        telemetry = RunTelemetry(
                            command="segbench", run_id=f"segbench-{network}"
                        )
                        telemetry.stream_decisions(os.path.join(round_dir, network))
                        trackers[network].telemetry = telemetry
                tracker = trackers[network]
                checkpoint = os.path.join(round_dir, network, CHECKPOINT_NAME)
                record: dict = {"error": None}
                records.append(record)
                cpu = _cpu_seconds()
                wall = perf_counter()
                try:
                    with span("item", round=index, item=position, ledger=int(ledger)):
                        context = self.contexts[position]
                        if context is None:
                            with span("runtime.ingest.load_observation"):
                                context, _ = load_observation_checked(
                                    self._obs_path(item), "strict"
                                )
                        with span("core.tracker.process_day"):
                            report = tracker.process_day(context)
                        if ledger:
                            with span("runtime.checkpoint.save"):
                                tracker.save_checkpoint(checkpoint)
                except Exception as error:  # an item that raises is a failed item
                    record["error"] = repr(error)
                    continue
                finally:
                    record["wall"] = perf_counter() - wall
                    record["cpu"] = _cpu_seconds() - cpu
                state = json.dumps(tracker.state_dict(), sort_keys=True)
                record.update(
                    edges=int(context.trace.n_edges),
                    state_sha=hashlib.sha256(state.encode()).hexdigest(),
                    detected=sorted(
                        [entry.name for entry in report.new_detections]
                        + report.repeat_detections
                    ),
                    n_scored=report.n_scored,
                    degradations=len(report.runtime_events),
                )
                if ledger:
                    ledger_bytes += os.path.getsize(checkpoint)
                if getattr(context.trace, "is_sharded", False):
                    # the day waits for its largest shard: max ÷ mean edges
                    shards = context.trace.store.shard_edge_counts
                    record["shard_skew"] = max(shards) * len(shards) / sum(shards)
        summary = {
            "traced": traced,
            "ledger": ledger,
            "items": records,
            "decisions_sha": {},
            "decisions_bytes": 0,
        }
        for network, tracker in sorted(trackers.items()):
            if tracker.telemetry is None:
                continue
            # closes the streamed decisions.jsonl (fsync + rename): once
            # per campaign, so outside every item's timed region
            tracker.telemetry.write(os.path.join(round_dir, network))
            decisions = os.path.join(round_dir, network, "decisions.jsonl")
            summary["decisions_sha"][network] = _sha256_file(decisions)
            summary["decisions_bytes"] += os.path.getsize(decisions)
        summary["ledger_bytes"] = ledger_bytes + summary["decisions_bytes"]
        shutil.rmtree(round_dir)
        return summary

    # ------------------------------------------------------------------ #
    # layers no tracked day calls, timed on their own (traced run only)
    # ------------------------------------------------------------------ #

    def run_extras(self) -> None:
        span = self.recorder.span
        first = self.items[0]
        if first["obs_dir"] is not None:
            directory = self._obs_path(first)
            path = os.path.join(directory, "trace.tsv")
            meta = store.load_meta(directory)

            def interners():
                return (
                    store.load_interner(
                        os.path.join(directory, "machines.txt"),
                        int(meta["n_machines"]),
                        "machines",
                    ),
                    store.load_interner(
                        os.path.join(directory, "domains.txt"),
                        int(meta["n_domains"]),
                        "domains",
                    ),
                )

            machines, domains = interners()
            with span("runtime.ingest.load_trace_lenient"):
                load_trace_lenient(
                    path, IngestReport(source=directory, mode="lenient"), machines, domains
                )
            machines, domains = interners()
            store_dir = os.path.join(self.out, "extras-store")
            writer = EdgeStoreWriter(store_dir, n_shards=2)
            with span("runtime.ingest.load_trace_to_store"):
                load_trace_to_store(path, writer, machines, domains)
                with span("datasets.edgestore.finalize") as counts:
                    writer.finalize(n_machines=len(machines), n_domains=len(domains))
                    counts["bytes"] = tree_bytes(store_dir)
        context = self.contexts[0]
        if context is None:
            context, _ = load_observation_checked(self._obs_path(first), "strict")
        training = Segugio(self.config).fit(context).training_set_
        # the pool first: it is torn down without waiting, and an
        # interpreter that exits in the same instant logs a spurious error
        for jobs in (2, 1) * 3:
            forest = SegugioConfig(n_jobs=jobs).make_classifier()
            with span(f"ml.forest.fit_jobs{jobs}", samples=training.n_samples):
                forest.fit(training.X, training.y)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    bench = Bench(args.directory)
    ledger = bool(bench.plan["ledger"])
    bench.run_round(traced=False, ledger=ledger, only_first=True)  # warm-up
    rounds = []
    start = perf_counter()
    while len(rounds) < args.min_rounds or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(bench.run_round(traced=traced, ledger=ledger))
    if args.trace and len(rounds) % 2:
        rounds.append(bench.run_round(traced=True, ledger=ledger))
    peak_rss_mb = _peak_rss_mb()  # before the extras, which are not the workload
    if args.trace:
        if ledger:
            rounds.append(bench.run_round(traced=True, ledger=False))
        bench.run_extras()
        bench.recorder.write_jsonl(os.path.join(args.directory, "spans.jsonl"))
    result = {
        "load_s": bench.load_s,
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
    }
    with open(os.path.join(args.directory, "result.json"), "w") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
