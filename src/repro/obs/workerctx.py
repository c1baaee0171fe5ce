"""Worker-side telemetry context for supervised pool tasks.

The supervised executor (:mod:`repro.runtime.supervisor`) ships seed-keyed
tasks to child processes, where the parent's ambient telemetry —
contextvars living in the parent's memory — does not exist: spans opened
there land on a fresh disabled tracer and vanish.  Until now every pool
call was therefore one opaque frame in ``trace.jsonl``: the heaviest
phases of a paper-scale run (shard scan/label/prune, parallel forest fit)
were exactly the ones the profile could not see into.

This module closes the gap with an explicit context hand-off:

* the parent opens a :func:`open_box` per pool call, capturing the run
  id, current day, innermost phase, and the tracer's monotonic epoch,
  plus a private sidecar spool directory;
* each task carries a picklable :class:`TaskContext`; the worker shim
  runs the callable under :func:`execute`, which installs a full worker
  telemetry stack (tracer on the *parent's* epoch — ``perf_counter`` is
  CLOCK_MONOTONIC, shared across processes on Linux — resource monitor,
  event log) and wraps the call in a real
  ``segugio_worker_task`` span;
* the finished record is spilled to ``trace.worker-<pid>.jsonl`` in the
  spool directory — the whole file is rewritten to a staging path and
  atomically renamed over the old one (spill-then-finalize, the
  edgestore's write discipline), so a killed worker can never leave a
  torn line, only the records of tasks that fully finished;
* after the pool call the parent merges the sidecars back: records are
  keyed by ``(task index, ladder round)``, only the attempt that actually
  completed each task is adopted (a retried task's earlier round is
  *quarantined* and counted, like orphan runtime events), adoption walks
  tasks in ascending index order so the merged span tree is byte-stable
  across worker counts, worker clock skew is normalized by clamping
  starts into the parent's observed window, and worker runtime events are
  re-recorded into the parent log stamped with day/phase/worker.

Everything here is observation-only and self-disabling: ``open_box``
returns ``None`` unless both the ambient tracer and resource monitor are
enabled (the ``--profile`` gate), spill failures are swallowed so
telemetry can never fail a task, and the e2e bench gates that outputs
stay bit-identical with worker tracing on vs. off.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import logs as _logs
from repro.obs.events import RuntimeEventLog, current_event_log, use_event_log
from repro.obs.resources import ResourceMonitor, current_monitor, use_monitor
from repro.obs.tracing import Tracer, current_tracer, use_tracer

#: schema version of one sidecar record (bump on breaking shape changes)
SIDECAR_SCHEMA_VERSION = 1

#: sidecar filename shape inside a box's spool directory
SIDECAR_PREFIX = "trace.worker-"
SIDECAR_SUFFIX = ".jsonl"

#: ladder-round marker for tasks executed in-process by the serial floor
SERIAL_ROUND = -1


@dataclass(frozen=True)
class TaskContext:
    """The telemetry hand-off shipped with one pool task (picklable).

    *round_index* is the supervisor's degradation-ladder rung that
    submitted this attempt; the merge uses ``(task_index, round_index)``
    to keep exactly the attempt that completed and quarantine the rest.
    """

    label: str
    task_index: int
    round_index: int
    epoch: float
    sidecar_dir: str
    run_id: Optional[str] = None
    day: Optional[int] = None
    phase: Optional[str] = None


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #

#: per-process spool: sidecar directory -> finalized JSON lines.  Worker
#: processes live for at most one ladder round, so this never outgrows
#: the tasks one executor handed to one pid.
_SPILLED: Dict[str, List[str]] = {}

#: per-process worker-side ResourceMonitor, keyed by pid (fork-safe).
#: Constructing a monitor opens the /proc/self/io fd and takes baseline
#: clock/cpu/io readings, and its first frame close parses
#: /proc/self/status — per-task construction was a measurable slice of
#: the e2e overhead gate on the serial floor, and every task in one
#: process would read the same numbers anyway.
_WORKER_MONITOR: Optional[Tuple[int, ResourceMonitor]] = None


def _worker_monitor() -> ResourceMonitor:
    """This process's worker-side monitor (fresh after a fork)."""
    global _WORKER_MONITOR
    pid = os.getpid()
    if _WORKER_MONITOR is None or _WORKER_MONITOR[0] != pid:
        _WORKER_MONITOR = (
            pid,
            ResourceMonitor(enabled=True, sample_interval=0.0),
        )
    return _WORKER_MONITOR[1]


def execute(
    ctx: TaskContext, fn: Callable[..., Any], args: Tuple[Any, ...]
) -> Tuple[Any, Optional[Dict[str, object]]]:
    """Run *fn(*args)* under a fresh worker telemetry stack.

    Returns ``(result, record)`` where *record* is the finished sidecar
    record for a successful call.  A raising call re-raises with no
    record — the supervisor will retry it, and only the completing
    attempt may land in the merged trace.
    """
    tracer = Tracer(enabled=True, epoch=ctx.epoch)
    monitor = _worker_monitor()
    events = RuntimeEventLog(enabled=True)
    with ExitStack() as stack:
        stack.enter_context(use_tracer(tracer))
        stack.enter_context(use_monitor(monitor))
        stack.enter_context(use_event_log(events))
        bound = {
            key: value
            for key, value in (("run_id", ctx.run_id), ("day", ctx.day))
            if value is not None
        }
        if bound:
            stack.enter_context(_logs.bound(**bound))
        with tracer.span(
            "segugio_worker_task", label=ctx.label, task=ctx.task_index
        ):
            result = fn(*args)
    record: Dict[str, object] = {
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "label": ctx.label,
        "task": ctx.task_index,
        "round": ctx.round_index,
        "pid": os.getpid(),
        "spans": tracer.span_tree(),
    }
    if ctx.day is not None:
        record["day"] = ctx.day
    if events.records:
        record["events"] = events.to_list()
    return result, record


def _make_spool_dir() -> str:
    """A fresh sidecar spool directory on the cheapest filesystem around.

    Prefers ``/dev/shm`` (tmpfs): sidecars are ephemeral same-machine IPC,
    and on journaling filesystems the per-task ``os.replace`` plus the
    post-merge unlink storm serialize through the journal — measured at
    multiple milliseconds per pool call on ext3 ``/tmp`` versus tens of
    microseconds on tmpfs.  Falls back to the default temp dir when
    ``/dev/shm`` is absent or unwritable (non-Linux, restricted mounts).
    """
    if os.path.isdir("/dev/shm"):
        try:
            return tempfile.mkdtemp(prefix="segugio-sidecar-", dir="/dev/shm")
        except OSError:
            pass
    return tempfile.mkdtemp(prefix="segugio-sidecar-")


def spill(sidecar_dir: str, record: Optional[Dict[str, object]]) -> None:
    """Finalize *record* into this process's sidecar file.

    Spill-then-finalize: the process's full record list is rewritten to a
    staging file and atomically renamed over the previous version — a
    worker killed mid-spill leaves the last complete file, never a torn
    line.  No fsync: sidecars are same-machine IPC consumed by the parent
    right after the pool call, so ``os.replace`` visibility is all the
    durability they need (an OS crash discards the whole run anyway), and
    a per-task fsync is exactly the kind of cost the <3% overhead gate
    exists to keep out.  Any OS failure is swallowed: tracing must not be
    able to fail a task that already computed its result.
    """
    if record is None:
        return
    lines = _SPILLED.setdefault(sidecar_dir, [])
    lines.append(json.dumps(record, sort_keys=True, default=str))
    path = os.path.join(
        sidecar_dir, f"{SIDECAR_PREFIX}{os.getpid()}{SIDECAR_SUFFIX}"
    )
    staging = f"{path}.tmp"
    try:
        with open(staging, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines) + "\n")
        os.replace(staging, path)
    except OSError:
        pass


def read_sidecars(sidecar_dir: str) -> Tuple[List[Dict[str, object]], int]:
    """All finalized records in *sidecar_dir* plus the sidecar file count.

    Files are visited in sorted name order; unreadable files and
    malformed lines are skipped (their tasks surface as ``n_missing``
    in the merge accounting rather than as a crash).
    """
    records: List[Dict[str, object]] = []
    try:
        names = sorted(
            name
            for name in os.listdir(sidecar_dir)
            if name.startswith(SIDECAR_PREFIX) and name.endswith(SIDECAR_SUFFIX)
        )
    except OSError:
        return records, 0
    for name in names:
        try:
            with open(os.path.join(sidecar_dir, name), encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        parsed = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(parsed, dict):
                        records.append(parsed)
        except OSError:
            continue
    return records, len(names)


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #


class WorkerMergeBox:
    """Parent-side coordinator for one pool call's worker telemetry.

    Owns the sidecar spool directory, mints per-task contexts, remembers
    which ladder round completed each task, and merges the surviving
    records back into the parent's span tree and accounting.
    """

    def __init__(
        self,
        label: str,
        tracer: Tracer,
        monitor: ResourceMonitor,
        events: RuntimeEventLog,
    ) -> None:
        context = _logs.context_fields()
        self.label = label
        self.tracer = tracer
        self.monitor = monitor
        self.events = events
        self.run_id = context.get("run_id")
        self.day = context.get("day")
        self.phase = context.get("phase")
        self.sidecar_dir = _make_spool_dir()
        self._completed: Dict[int, int] = {}
        self._serial_records: Dict[int, Dict[str, object]] = {}

    def task_context(self, task_index: int, round_index: int) -> TaskContext:
        """The context to ship with one task attempt."""
        return TaskContext(
            label=self.label,
            task_index=int(task_index),
            round_index=int(round_index),
            epoch=self.tracer.epoch,
            sidecar_dir=self.sidecar_dir,
            run_id=None if self.run_id is None else str(self.run_id),
            day=None if self.day is None else int(self.day),  # type: ignore[arg-type]
            phase=None if self.phase is None else str(self.phase),
        )

    def note_completed(self, task_index: int, round_index: int) -> None:
        """Record that *task_index* finished on ladder round *round_index*."""
        self._completed[int(task_index)] = int(round_index)

    def collect_serial(
        self, task_index: int, record: Optional[Dict[str, object]]
    ) -> None:
        """Accept an in-process (serial-floor) record directly — no spill."""
        if record is None:
            return
        self._completed[int(task_index)] = SERIAL_ROUND
        self._serial_records[int(task_index)] = dict(record)

    # -------------------------------------------------------------- #
    # merge
    # -------------------------------------------------------------- #

    def merge(self) -> Dict[str, int]:
        """Adopt the surviving worker records into the parent span tree.

        Deterministic: tasks are walked in ascending index order and only
        the attempt whose round completed the task is adopted, so the
        merged tree is identical across worker counts and reruns.
        Superseded attempts (an earlier round of a retried task) are
        quarantined and counted; completed tasks with no record (killed
        worker, failed spill) count as missing.  Returns the accounting
        dict that also lands in ``resources.workers``.
        """
        records, n_files = read_sidecars(self.sidecar_dir)
        chosen: Dict[int, Dict[str, object]] = {}
        n_quarantined = 0
        for record in sorted(
            records,
            key=lambda r: (
                _as_int(r.get("task")),
                _as_int(r.get("round")),
                _as_int(r.get("pid")),
            ),
        ):
            task = _as_int(record.get("task"))
            if (
                self._completed.get(task) == _as_int(record.get("round"))
                and task not in chosen
            ):
                chosen[task] = record
            else:
                n_quarantined += 1
        for task, record in self._serial_records.items():
            chosen[task] = record
        now_rel = time.perf_counter() - self.tracer.epoch
        n_merged = 0
        n_worker_events = 0
        for task in sorted(chosen):
            record = chosen[task]
            worker = record.get("pid")
            alias = (
                "serial"
                if worker is None
                else self.monitor.worker_alias(int(worker))  # type: ignore[arg-type]
            )
            trees = [
                tree
                for tree in record.get("spans") or []
                if isinstance(tree, dict)
            ]
            for tree in trees:
                tree.setdefault("attributes", {})["worker"] = alias
                _normalize_skew(tree, now_rel)
            n_merged += self.tracer.adopt_span_trees(trees)
            for event in record.get("events") or []:
                if not isinstance(event, dict):
                    continue
                fields = {
                    key: value for key, value in event.items() if key != "kind"
                }
                fields.setdefault("worker", alias)
                if self.day is not None:
                    fields.setdefault("day", self.day)
                if self.phase is not None:
                    fields.setdefault("phase", self.phase)
                self.events.record(str(event.get("kind", "worker_event")), **fields)
                n_worker_events += 1
        n_missing = sum(
            1 for task in self._completed if task not in chosen
        )
        accounting = {
            "n_merged": n_merged,
            "n_quarantined": n_quarantined,
            "n_missing": n_missing,
            "n_sidecar_files": n_files,
            "n_worker_events": n_worker_events,
        }
        self.monitor.record_worker_merge(self.label, **accounting)
        return accounting

    def cleanup(self) -> None:
        """Drop the sidecar spool directory (idempotent).

        A flat unlink loop, not ``shutil.rmtree``: the spool is a private
        single-level directory and rmtree's fd-based safety walk costs
        several milliseconds per pool call — real money under the e2e
        overhead gate.
        """
        try:
            for name in os.listdir(self.sidecar_dir):
                try:
                    os.unlink(os.path.join(self.sidecar_dir, name))
                except OSError:
                    pass
            os.rmdir(self.sidecar_dir)
        except OSError:
            pass


def open_box(label: str) -> Optional[WorkerMergeBox]:
    """A merge box for one pool call, or ``None`` when tracing is off.

    Worker-side tracing rides the ``--profile`` gate: it activates only
    when both the ambient tracer and the ambient resource monitor are
    enabled, so the e2e bench's profile-off baseline doubles as the
    worker-tracing-off baseline for the overhead and bit-identity gates.
    """
    tracer = current_tracer()
    monitor = current_monitor()
    if not (tracer.enabled and monitor.enabled):
        return None
    return WorkerMergeBox(label, tracer, monitor, current_event_log())


def _as_int(value: object) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return -(10**9)


def _normalize_skew(tree: Dict[str, object], now_rel: float) -> None:
    """Clamp a worker span's start into the parent's observed window.

    On one host ``perf_counter`` is shared, so this never fires in
    practice; it is the guard rail for a clock source that is not — a
    clamped root is marked ``skew_normalized`` so the timeline view can
    annotate it rather than silently drawing a span before its parent.
    """
    start = tree.get("start")
    try:
        start_f = float(start)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        start_f = 0.0
    clamped = min(max(start_f, 0.0), max(now_rel, 0.0))
    if clamped != start_f:
        tree["start"] = round(clamped, 6)
        tree.setdefault("attributes", {})["skew_normalized"] = True
