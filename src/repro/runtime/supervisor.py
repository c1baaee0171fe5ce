"""Retry a tracked day, and run the campaign around it, in one process.

A 60-day tracking campaign meets failure modes a single fit never does —
a transient ``OSError`` from a flaky mount, a torn checkpoint write — and
the paper's central operational claim (cheap *daily* retraining, §IV-G)
dies with the process unless the runtime absorbs them.  Every day runs in
this one process: the sharded build and the forest loop over their shards
and tree batches in order, so there is no worker to lose.

:func:`supervised_process_day` retries a failed day on the deterministic
backoff schedule **only if the tracker's ledger is untouched** — a day
that failed after mutating state is not safely re-runnable and fails
loudly instead.  Each retry is recorded through the ambient
:class:`~repro.obs.events.RuntimeEventLog` as a ``day_retry`` event
naming its day (the checkpoint writer records its own ``io_retry``);
:class:`~repro.obs.run.RunTelemetry` writes the log into the manifest,
and :func:`~repro.obs.monitor.run_health` counts it per day.

:func:`track_days` is the campaign around that day (skip what a resumed
ledger covers, pull the next day from a lazy source, run it supervised,
checkpoint): the one loop under ``track``, ``bigday`` and ``chaos``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Type,
)

from repro.obs.events import current_event_log
from repro.obs.logs import get_logger
from repro.obs.provenance import current_decision_log
from repro.obs.tracing import current_tracer
from repro.runtime.retry import backoff_schedule

if TYPE_CHECKING:
    from repro.core.pipeline import ObservationContext
    from repro.core.tracker import DayReport, DomainTracker

logger = get_logger("runtime.supervisor")

#: the event a retried day records
EVENT_DAY_RETRY = "day_retry"


@dataclass(frozen=True)
class SupervisorPolicy:
    """How often to retry a failed day, and how long to wait in between.

    A day failing with one of ``retry_on`` is retried up to
    ``max_retries + 1`` times on the deterministic
    :func:`~repro.runtime.retry.backoff_schedule`; ``sleep`` is
    injectable so tests run at full speed.
    """

    max_retries: int = 1
    base_delay: float = 0.05
    multiplier: float = 2.0
    retry_on: Tuple[Type[BaseException], ...] = (OSError,)
    sleep: Callable[[float], None] = time.sleep


DEFAULT_POLICY = SupervisorPolicy()

def policy_from_overrides(
    overrides: Dict[str, float], base: Optional[SupervisorPolicy] = None
) -> SupervisorPolicy:
    """A policy with numeric fields replaced from a plan-file override dict."""
    base = DEFAULT_POLICY if base is None else base
    return SupervisorPolicy(
        max_retries=int(overrides.get("max_retries", base.max_retries)),
        base_delay=float(overrides.get("base_delay", base.base_delay)),
        multiplier=float(overrides.get("multiplier", base.multiplier)),
        retry_on=base.retry_on,
        sleep=base.sleep,
    )


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
    policy = DEFAULT_POLICY if policy is None else policy
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
    policy = DEFAULT_POLICY if policy is None else policy
    telemetry = tracker.telemetry
    contexts = iter(contexts)
    while True:
        with telemetry.activate() if telemetry is not None else nullcontext():
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
            # the span a directory source loads under, so the trace has
            # no gap between days
            with current_tracer().span("segugio_ingest_load_observation", day=day):
                context = world.context(day=day, **context_args)
            yield context
