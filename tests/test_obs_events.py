"""Runtime event log: the degradation ledger behind the supervisor."""

from repro.obs.events import (
    MAX_EVENTS,
    RuntimeEventLog,
    current_event_log,
    use_event_log,
)


class TestRuntimeEventLog:
    def test_record_appends_kind_plus_fields(self):
        log = RuntimeEventLog()
        event = log.record("worker_lost", label="forest_fit", task=3)
        assert event == {"kind": "worker_lost", "label": "forest_fit", "task": 3}
        assert len(log) == 1
        assert log.to_list() == [event]

    def test_enabled_by_default(self):
        # unlike tracer/metrics, degradations are kept even without telemetry
        assert RuntimeEventLog().enabled
        assert current_event_log().enabled

    def test_disabled_log_records_nothing(self):
        log = RuntimeEventLog(enabled=False)
        assert log.record("task_hang") is None
        assert len(log) == 0

    def test_cap_counts_drops_instead_of_growing(self):
        log = RuntimeEventLog(max_events=2)
        assert log.record("a") is not None
        assert log.record("b") is not None
        assert log.record("c") is None
        assert len(log) == 2
        assert log.n_dropped == 1
        assert MAX_EVENTS >= 1000  # default cap is generous

    def test_use_event_log_scopes_the_ambient_log(self):
        mine = RuntimeEventLog()
        default = current_event_log()
        with use_event_log(mine):
            assert current_event_log() is mine
            current_event_log().record("task_retry")
        assert current_event_log() is default
        assert [e["kind"] for e in mine.records] == ["task_retry"]
