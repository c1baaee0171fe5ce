"""Supervised days: a transient failure retried only while the ledger is
untouched, and recorded."""

from types import SimpleNamespace

import pytest

from repro.obs.events import RuntimeEventLog, use_event_log
from repro.runtime.supervisor import (
    DEFAULT_POLICY,
    SupervisorPolicy,
    policy_from_overrides,
    supervised_process_day,
)

FAST_POLICY = SupervisorPolicy(base_delay=0.0, sleep=lambda _: None)


class TestLadder:
    """The one rung left: a failing day is retried whole, on the policy's
    deterministic backoff, in the same process."""

    def test_ladder_shapes(self):
        slept = []
        policy = SupervisorPolicy(
            max_retries=2, base_delay=0.5, multiplier=3.0, sleep=slept.append
        )
        tracker = _FakeTracker(failures=99)
        with use_event_log(RuntimeEventLog()) as events:
            with pytest.raises(OSError):
                supervised_process_day(
                    tracker, SimpleNamespace(day=4), policy=policy
                )
        # max_retries + 1 retries after the first attempt, then the last
        # attempt's error propagates; no sleep follows it
        assert tracker.calls == 4
        assert slept == [0.5, 1.5, 4.5]
        assert [e["attempt"] for e in events.records] == [0, 1, 2]

    def test_policy_overrides(self):
        policy = policy_from_overrides({"max_retries": 3}, base=DEFAULT_POLICY)
        assert policy.max_retries == 3
        assert policy.base_delay == DEFAULT_POLICY.base_delay


class _FakeTracker:
    """Minimal DomainTracker stand-in for the day-retry guard."""

    def __init__(self, failures=0, mutate_on_failure=False):
        self.failures = failures
        self.mutate_on_failure = mutate_on_failure
        self.state = {"days": []}
        self.calls = 0
        self.telemetry = None

    def state_dict(self):
        return {"days": list(self.state["days"])}

    def process_day(self, context):
        self.calls += 1
        if self.calls <= self.failures:
            if self.mutate_on_failure:
                self.state["days"].append(context.day)
            raise OSError("transient mount hiccup")
        self.state["days"].append(context.day)
        return SimpleNamespace(day=context.day)


class TestSupervisedProcessDay:
    def test_clean_day_is_untouched(self):
        tracker = _FakeTracker()
        report = supervised_process_day(
            tracker, SimpleNamespace(day=7), policy=FAST_POLICY
        )
        assert report.day == 7
        assert tracker.calls == 1

    def test_transient_failure_is_retried_with_event(self):
        tracker = _FakeTracker(failures=1)
        with use_event_log(RuntimeEventLog()) as events:
            report = supervised_process_day(
                tracker, SimpleNamespace(day=9), policy=FAST_POLICY
            )
        assert report.day == 9
        assert tracker.calls == 2
        kinds = [e["kind"] for e in events.records]
        assert kinds == ["day_retry"]
        assert events.records[0]["day"] == 9

    def test_mutated_state_refuses_the_retry(self):
        # a day that failed *after* touching the ledger is not replayable
        tracker = _FakeTracker(failures=1, mutate_on_failure=True)
        with pytest.raises(OSError, match="hiccup"):
            supervised_process_day(
                tracker, SimpleNamespace(day=9), policy=FAST_POLICY
            )
        assert tracker.calls == 1

    def test_persistent_failure_eventually_raises(self):
        tracker = _FakeTracker(failures=99)
        with use_event_log(RuntimeEventLog()):
            with pytest.raises(OSError):
                supervised_process_day(
                    tracker, SimpleNamespace(day=9), policy=FAST_POLICY
                )
        assert tracker.calls > 1
