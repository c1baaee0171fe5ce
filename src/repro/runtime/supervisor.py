"""Supervised parallel execution with a deterministic degradation ladder.

PR 4 made the forest hot path process-parallel; this module makes it
*survivable*.  A 60-day tracking campaign meets failure modes a single fit
never does — a worker OOM-killed mid-batch, a task wedged behind a dying
disk, a transient ``OSError`` from a flaky mount — and the paper's central
operational claim (cheap *daily* retraining, §IV-G) dies with the process
unless the execution layer absorbs them.

:func:`supervised_map` is a drop-in replacement for the executor fan-out:
it runs picklable tasks through a :class:`ProcessPoolExecutor`, watches for
worker death (``BrokenProcessPool``), enforces a per-task timeout, and on
any failure walks an explicit **degradation ladder**::

    [jobs] * (1 + max_retries)  →  jobs//2  →  jobs//4  →  …  →  2  →  serial

Each rung resubmits only the still-incomplete tasks.  Because every task
is seed-keyed up front (PR 4's determinism contract), a resubmitted task —
on a smaller pool or in-process on the serial ground floor — produces the
exact bytes it would have produced on the first attempt: degradation
changes *wall-clock*, never *results*.  ``MemoryError`` skips the
same-width resubmit rungs and shrinks immediately (retrying at the same
width would hit the same ceiling).  Non-retryable errors propagate
unchanged — the ladder absorbs infrastructure faults, not bugs.

Every step is recorded through the ambient
:class:`~repro.obs.events.RuntimeEventLog` (``worker_lost``, ``task_hang``,
``task_retry``, ``memory_pressure``, ``pool_shrunk``, ``serial_fallback``,
``day_retry``, ``io_retry``), which the tracker folds into the day's health
verdict and :class:`~repro.obs.run.RunTelemetry` folds into the manifest.

:func:`supervised_process_day` applies the same retry-then-degrade policy
one level up, around a whole tracker day: a transient error is retried on
the deterministic backoff schedule **only if the tracker's ledger is
untouched** — a day that failed after mutating state is not safely
re-runnable and fails loudly instead.

:func:`track_days` is the campaign around that day (skip what a resumed
ledger covers, pull the next day from a lazy source, run it supervised,
checkpoint): the one loop under ``track``, ``bigday`` and ``chaos``.

Injected faults (:mod:`repro.runtime.faults`) ride into workers as
picklable directives taken from the active plan at submission time; the
serial ground floor never executes worker-only directives, so a fault plan
can wedge a worker but never the coordinator.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import os

from repro.obs import workerctx
from repro.obs.events import RuntimeEventLog, current_event_log
from repro.obs.logs import get_logger
from repro.obs.provenance import current_decision_log
from repro.obs.resources import ResourceMonitor, current_monitor, process_clock
from repro.obs.tracing import current_tracer
from repro.obs.workerctx import TaskContext, WorkerMergeBox
from repro.runtime.faults import (
    FaultDirective,
    FaultPlan,
    apply_directive,
    current_fault_plan,
)
from repro.runtime.retry import backoff_schedule

if TYPE_CHECKING:
    from repro.core.pipeline import ObservationContext
    from repro.core.tracker import DayReport, DomainTracker

logger = get_logger("runtime.supervisor")

#: event kinds emitted by the supervised execution layer
EVENT_WORKER_LOST = "worker_lost"
EVENT_TASK_HANG = "task_hang"
EVENT_TASK_RETRY = "task_retry"
EVENT_MEMORY_PRESSURE = "memory_pressure"
EVENT_POOL_SHRUNK = "pool_shrunk"
EVENT_SERIAL_FALLBACK = "serial_fallback"
EVENT_DAY_RETRY = "day_retry"
EVENT_IO_RETRY = "io_retry"

SUPERVISOR_EVENT_KINDS = (
    EVENT_WORKER_LOST,
    EVENT_TASK_HANG,
    EVENT_TASK_RETRY,
    EVENT_MEMORY_PRESSURE,
    EVENT_POOL_SHRUNK,
    EVENT_SERIAL_FALLBACK,
    EVENT_DAY_RETRY,
    EVENT_IO_RETRY,
)


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to try before degrading, and how long to wait while doing it.

    ``task_timeout`` is the *stall* window: a pool round is declared hung
    when no task completes for that many seconds (``None`` disables the
    watchdog).  ``max_retries`` counts full-width resubmit rungs before the
    ladder starts shrinking.  Backoff between rungs reuses the
    deterministic :func:`~repro.runtime.retry.backoff_schedule`; ``sleep``
    is injectable so tests run at full speed.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 1
    base_delay: float = 0.05
    multiplier: float = 2.0
    retry_on: Tuple[Type[BaseException], ...] = (OSError,)
    sleep: Callable[[float], None] = time.sleep


DEFAULT_POLICY = SupervisorPolicy()

_ACTIVE_POLICY: Optional[SupervisorPolicy] = None


def current_policy() -> SupervisorPolicy:
    """The ambient policy (:data:`DEFAULT_POLICY` unless overridden)."""
    return _ACTIVE_POLICY if _ACTIVE_POLICY is not None else DEFAULT_POLICY


@contextmanager
def use_policy(policy: SupervisorPolicy) -> Iterator[SupervisorPolicy]:
    """Install *policy* as the ambient supervisor policy for the block."""
    global _ACTIVE_POLICY
    saved = _ACTIVE_POLICY
    _ACTIVE_POLICY = policy
    try:
        yield policy
    finally:
        _ACTIVE_POLICY = saved


def policy_from_overrides(
    overrides: Dict[str, float], base: Optional[SupervisorPolicy] = None
) -> SupervisorPolicy:
    """A policy with numeric fields replaced from a plan-file override dict."""
    base = current_policy() if base is None else base
    return SupervisorPolicy(
        task_timeout=float(overrides["task_timeout"])
        if "task_timeout" in overrides
        else base.task_timeout,
        max_retries=int(overrides.get("max_retries", base.max_retries)),
        base_delay=float(overrides.get("base_delay", base.base_delay)),
        multiplier=float(overrides.get("multiplier", base.multiplier)),
        retry_on=base.retry_on,
        sleep=base.sleep,
    )


def ladder_widths(jobs: int, max_retries: int) -> List[int]:
    """The degradation ladder: pool widths per rung, ending at 0 (serial).

    Full width is tried ``1 + max_retries`` times, then halved down to 2;
    a 1-worker pool is pointless (all the IPC, none of the parallelism),
    so the ground floor is in-process serial execution, encoded as 0.
    """
    if jobs < 2:
        return [0]
    widths = [jobs] * (1 + max(0, int(max_retries)))
    width = jobs // 2
    while width >= 2:
        widths.append(width)
        width //= 2
    widths.append(0)
    return widths


@dataclass(frozen=True)
class _MeasuredResult:
    """A task result wrapped with its worker-side self-measurement.

    Produced by :func:`_supervised_call` when profiling is active and
    unwrapped by the coordinator before the result lands in the output
    list — callers of :func:`supervised_map` never see it, so profiling
    cannot perturb results.
    """

    result: Any
    exec_wall_s: float
    exec_cpu_s: float
    pid: int


def _supervised_call(
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    directive: Optional[FaultDirective],
    measure: bool = False,
    ctx: Optional[TaskContext] = None,
) -> Any:
    """Worker shim: execute one injected fault directive, then the task.

    With *measure* (set when the coordinating run profiles resources) the
    task self-times its wall and CPU seconds via
    :func:`repro.obs.resources.process_clock` and returns a
    :class:`_MeasuredResult` for the coordinator to unwrap.  With *ctx*
    (set when worker tracing is active — implies *measure*) the task runs
    under a full worker telemetry stack and spills its finished span
    record to the context's sidecar file before returning.
    """
    if directive is not None:
        apply_directive(directive, in_worker=True)
    if ctx is not None:
        wall0, cpu0 = process_clock()
        result, record = workerctx.execute(ctx, fn, args)
        wall1, cpu1 = process_clock()
        workerctx.spill(ctx.sidecar_dir, record)
        return _MeasuredResult(result, wall1 - wall0, cpu1 - cpu0, os.getpid())
    if not measure:
        return fn(*args)
    wall0, cpu0 = process_clock()
    result = fn(*args)
    wall1, cpu1 = process_clock()
    return _MeasuredResult(result, wall1 - wall0, cpu1 - cpu0, os.getpid())


def _run_serial(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    pending: Sequence[int],
    results: List[Any],
    done: List[bool],
    label: str,
    policy: SupervisorPolicy,
    events: RuntimeEventLog,
    box: Optional[WorkerMergeBox] = None,
) -> None:
    """In-process execution with bounded retries on transient errors."""
    delays = backoff_schedule(
        policy.max_retries + 2, policy.base_delay, policy.multiplier
    )
    monitor: ResourceMonitor = current_monitor()
    for index in pending:
        attempt = 0
        while True:
            try:
                if box is not None:
                    # worker tracing: run under the same telemetry stack a
                    # pool worker would, so the merged span tree is
                    # identical at any worker count (serial included)
                    wall0, cpu0 = process_clock()
                    results[index], record = workerctx.execute(
                        box.task_context(index, workerctx.SERIAL_ROUND),
                        fn,
                        tasks[index],
                    )
                    wall1, cpu1 = process_clock()
                    monitor.observe_task(
                        label, 0.0, wall1 - wall0, cpu1 - cpu0, "serial"
                    )
                    box.collect_serial(index, record)
                elif monitor.enabled:
                    wall0, cpu0 = process_clock()
                    results[index] = fn(*tasks[index])
                    wall1, cpu1 = process_clock()
                    monitor.observe_task(
                        label, 0.0, wall1 - wall0, cpu1 - cpu0, "serial"
                    )
                else:
                    results[index] = fn(*tasks[index])
            except policy.retry_on as error:
                if attempt >= len(delays):
                    raise
                events.record(
                    EVENT_TASK_RETRY,
                    label=label,
                    task=index,
                    error=str(error),
                    serial=True,
                )
                policy.sleep(delays[attempt])
                attempt += 1
            else:
                done[index] = True
                break


def _run_pool_round(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    pending: Sequence[int],
    width: int,
    label: str,
    policy: SupervisorPolicy,
    plan: Optional[FaultPlan],
    results: List[Any],
    done: List[bool],
    events: RuntimeEventLog,
    round_index: int = 0,
    box: Optional[WorkerMergeBox] = None,
) -> Optional[str]:
    """One ladder rung: submit *pending* to a *width*-worker pool.

    Returns ``None`` when every submitted task completed, else the event
    kind that ended or degraded the round.  Completed results are kept
    across failures — only incomplete tasks climb down to the next rung.
    """
    directives: Dict[int, FaultDirective] = {}
    if plan is not None:
        for index in pending:
            directive = plan.take(label, index)
            if directive is not None:
                directives[index] = directive
    failure: Optional[str] = None
    monitor: ResourceMonitor = current_monitor()
    measure = monitor.enabled
    pool = ProcessPoolExecutor(max_workers=width)
    try:
        futures: Dict[Any, int] = {}
        submitted: Dict[int, float] = {}
        for index in pending:
            futures[
                pool.submit(
                    _supervised_call,
                    fn,
                    tasks[index],
                    directives.get(index),
                    measure,
                    box.task_context(index, round_index)
                    if box is not None
                    else None,
                )
            ] = index
            if measure:
                submitted[index] = time.perf_counter()
        outstanding = set(futures)
        while outstanding:
            finished, outstanding = wait(
                outstanding, timeout=policy.task_timeout, return_when=FIRST_COMPLETED
            )
            if not finished:
                events.record(
                    EVENT_TASK_HANG,
                    label=label,
                    n_pending=len(outstanding),
                    timeout=policy.task_timeout,
                )
                return EVENT_TASK_HANG
            for future in finished:
                index = futures[future]
                try:
                    value = future.result()
                except BrokenProcessPool:
                    events.record(EVENT_WORKER_LOST, label=label, task=index)
                    return EVENT_WORKER_LOST
                except MemoryError as error:
                    events.record(
                        EVENT_MEMORY_PRESSURE, label=label, task=index, error=str(error)
                    )
                    failure = EVENT_MEMORY_PRESSURE
                except policy.retry_on as error:
                    events.record(
                        EVENT_TASK_RETRY, label=label, task=index, error=str(error)
                    )
                    if failure is None:
                        failure = EVENT_TASK_RETRY
                else:
                    if isinstance(value, _MeasuredResult):
                        # queue-wait = submit-to-result latency minus the
                        # worker's own execution wall; observation only
                        latency = time.perf_counter() - submitted.get(
                            index, time.perf_counter()
                        )
                        monitor.observe_task(
                            label,
                            max(latency - value.exec_wall_s, 0.0),
                            value.exec_wall_s,
                            value.exec_cpu_s,
                            value.pid,
                        )
                        value = value.result
                    results[index] = value
                    done[index] = True
                    if box is not None:
                        box.note_completed(index, round_index)
        return failure
    finally:
        # wait=False + cancel_futures: a hung worker must not hold the
        # coordinator hostage; its eventual result is discarded.
        pool.shutdown(wait=False, cancel_futures=True)


def supervised_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    max_workers: int,
    label: str,
    policy: Optional[SupervisorPolicy] = None,
) -> List[Any]:
    """Map *fn* over argument tuples with supervision; results in task order.

    Bit-identical to ``[fn(*t) for t in tasks]`` by construction: tasks
    carry their own seeds, results land by index, and every failure path
    ends at in-process serial execution of whatever remains.  *label* is
    both the event/fault site name and the degradation provenance key.
    """
    policy = current_policy() if policy is None else policy
    task_list = list(tasks)
    n = len(task_list)
    results: List[Any] = [None] * n
    done = [False] * n
    events = current_event_log()
    jobs = max(1, min(int(max_workers), n))
    box = workerctx.open_box(label)
    try:
        if jobs <= 1:
            _run_serial(
                fn, task_list, range(n), results, done, label, policy, events, box
            )
            if box is not None:
                box.merge()
            return results
        plan = current_fault_plan()
        widths = ladder_widths(jobs, policy.max_retries)
        delays = backoff_schedule(
            len(widths), policy.base_delay, policy.multiplier
        )
        step = 0
        while True:
            pending = [index for index in range(n) if not done[index]]
            if not pending:
                break
            width = widths[step]
            if width == 0:
                events.record(
                    EVENT_SERIAL_FALLBACK, label=label, n_tasks=len(pending)
                )
                logger.warning(
                    "degraded to serial execution",
                    label=label,
                    n_tasks=len(pending),
                )
                with current_tracer().span("segugio_supervisor_serial"):
                    _run_serial(
                        fn,
                        task_list,
                        pending,
                        results,
                        done,
                        label,
                        policy,
                        events,
                        box,
                    )
                break
            failure = _run_pool_round(
                fn,
                task_list,
                pending,
                width,
                label,
                policy,
                plan,
                results,
                done,
                events,
                round_index=step,
                box=box,
            )
            if failure is None:
                break
            next_step = step + 1
            if failure == EVENT_MEMORY_PRESSURE:
                # same-width resubmits would hit the same memory ceiling
                while widths[next_step] != 0 and widths[next_step] >= width:
                    next_step += 1
            if widths[next_step] != 0 and widths[next_step] < width:
                events.record(
                    EVENT_POOL_SHRUNK,
                    label=label,
                    from_workers=width,
                    to_workers=widths[next_step],
                )
            policy.sleep(delays[min(step, len(delays) - 1)])
            step = next_step
        if box is not None:
            box.merge()
        return results
    finally:
        if box is not None:
            box.cleanup()


def supervised_process_day(
    tracker: "DomainTracker",
    context: "ObservationContext",
    policy: Optional[SupervisorPolicy] = None,
) -> "DayReport":
    """Run one tracker day with transient-fault retry, guarded for safety.

    A transient error (``policy.retry_on``) is retried on the deterministic
    backoff schedule **only while the tracker's state is untouched** — the
    common case, since fit/classify faults surface before ``finalize_day``
    mutates the ledger.  A day that failed after mutating state re-raises
    immediately: replaying it could double-count, and loud is better than
    subtly wrong.
    """
    policy = current_policy() if policy is None else policy
    events = current_event_log()
    delays = backoff_schedule(
        policy.max_retries + 2, policy.base_delay, policy.multiplier
    )
    before = tracker.state_dict()
    telemetry = getattr(tracker, "telemetry", None)
    decisions = (
        telemetry.decisions if telemetry is not None else current_decision_log()
    )
    decisions_mark = decisions.mark()
    for attempt, delay in enumerate(delays):
        try:
            return tracker.process_day(context)
        except policy.retry_on as error:
            if tracker.state_dict() != before:
                raise
            # discard any decision records the failed attempt emitted, so
            # the retried day's decisions.jsonl stays bit-identical
            decisions.rollback(decisions_mark)
            events.record(
                EVENT_DAY_RETRY,
                day=int(context.day),
                attempt=attempt,
                error=str(error),
            )
            logger.warning(
                "retrying day after transient error",
                day=int(context.day),
                attempt=attempt,
                error=str(error),
            )
            policy.sleep(delay)
    return tracker.process_day(context)


def track_days(
    tracker: "DomainTracker",
    contexts: Iterable["ObservationContext"],
    *,
    policy: Optional[SupervisorPolicy] = None,
    checkpoint: Optional[str] = None,
) -> Iterator["DayReport"]:
    """Run the deployment loop over a lazy day source, one report per new day.

    A day the (resumed) ledger already covers is skipped.  Pulling the next
    context, the supervised day and the checkpoint write share one
    activation of the tracker's telemetry, so the source's ingest span, day
    retries and checkpoint-write retries all land in the run's manifest.
    """
    policy = current_policy() if policy is None else policy
    telemetry = tracker.telemetry
    contexts = iter(contexts)
    while True:
        with use_policy(policy), (
            telemetry.activate() if telemetry is not None else nullcontext()
        ):
            context = next(contexts, None)
            if context is None:
                return
            if tracker.days_processed and context.day <= tracker.days_processed[-1]:
                continue
            report = supervised_process_day(tracker, context, policy=policy)
            if checkpoint is not None:
                tracker.save_checkpoint(checkpoint)
        yield report


def world_days(
    world: Any, n_days: int, *, after: Optional[int] = None, **context_args: Any
) -> Iterator["ObservationContext"]:
    """The first *n_days* of a synthetic world's evaluation window, lazily.

    *context_args* go to ``world.context`` (a ``Scenario`` takes ``isp=``, a
    ``BigDay`` its store arguments); days at or before *after*, the last day
    of a resumed ledger, are not generated.
    """
    for offset in range(n_days):
        day = world.eval_day(offset)
        if after is None or day > after:
            yield world.context(day=day, **context_args)
