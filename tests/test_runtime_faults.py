"""Deterministic fault injection: plans, directives, and delivery."""

import json

import pytest

from repro.runtime.faults import (
    FAULT_KINDS,
    KNOWN_SITES,
    FaultDirective,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    apply_directive,
    current_fault_plan,
    load_fault_plan,
    maybe_fault,
    plan_from_dict,
    use_fault_plan,
)


class TestFaultPlanMatching:
    def test_take_matches_site_and_task(self):
        plan = FaultPlan([FaultSpec(kind="io_error", site="pipeline_fit", task=2)])
        assert plan.take("pipeline_fit", 0) is None
        assert plan.take("pipeline_classify", 2) is None
        directive = plan.take("pipeline_fit", 2)
        assert directive == FaultDirective(kind="io_error", detail="pipeline_fit[2]")

    def test_directives_are_consumed(self):
        plan = FaultPlan([FaultSpec(kind="memory_pressure", site="pipeline_fit")])
        assert plan.take("pipeline_fit", 0) is not None
        # one-shot: a retried day runs clean
        assert plan.take("pipeline_fit", 0) is None
        assert plan.n_fired == 1
        assert plan.fired_kinds() == ["memory_pressure"]

    def test_count_fires_that_many_times(self):
        plan = FaultPlan([FaultSpec(kind="io_error", site="pipeline_fit", count=2)])
        assert plan.take("pipeline_fit") is not None
        assert plan.take("pipeline_fit") is not None
        assert plan.take("pipeline_fit") is None

    def test_rate_is_deterministic_in_the_seed(self):
        spec = FaultSpec(kind="io_error", site="pipeline_fit", rate=0.5)
        fired_a = [
            FaultPlan([spec], seed=11).take("pipeline_fit", task) is not None
            for task in range(32)
        ]
        fired_b = [
            FaultPlan([spec], seed=11).take("pipeline_fit", task) is not None
            for task in range(32)
        ]
        assert fired_a == fired_b  # same seed -> same outcome, always
        assert any(fired_a) and not all(fired_a)  # rate 0.5 is neither 0 nor 1
        fired_other = [
            FaultPlan([spec], seed=12).take("pipeline_fit", task) is not None
            for task in range(32)
        ]
        assert fired_a != fired_other  # the seed actually keys the hash


class TestPlanParsing:
    def test_round_trips_a_full_plan(self):
        plan = plan_from_dict(
            {
                "seed": 3,
                "policy": {"base_delay": 1.5, "max_retries": 2},
                "faults": [
                    {"kind": "io_error", "site": "pipeline_fit", "task": 0},
                    {"kind": "corrupt_intermediate", "site": "checkpoint_save", "count": 2},
                ],
            }
        )
        assert plan.seed == 3
        assert plan.policy == {"base_delay": 1.5, "max_retries": 2.0}
        assert plan.specs[0].kind == "io_error"
        assert plan.specs[1].count == 2

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "plan must be an object"),
            ({"bogus": 1}, "unknown top-level keys"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"policy": {"nope": 1}}, "unknown policy keys"),
            ({"policy": {"max_retries": "soon"}}, "must be a number"),
            ({"faults": "all"}, "faults must be a list"),
            ({"faults": [{"kind": "nope", "site": "pipeline_fit"}]}, "unknown kind"),
            ({"faults": [{"kind": "io_error", "site": "nope"}]}, "unknown site"),
            (
                {"faults": [{"kind": "io_error", "site": "pipeline_fit", "task": -1}]},
                "non-negative",
            ),
            (
                {"faults": [{"kind": "io_error", "site": "pipeline_fit", "rate": 2}]},
                "rate must be in",
            ),
            (
                {"faults": [{"kind": "io_error", "site": "pipeline_fit", "huh": 1}]},
                "unknown keys",
            ),
        ],
    )
    def test_bad_specs_raise_located_errors(self, payload, match):
        with pytest.raises(FaultPlanError, match=match) as excinfo:
            plan_from_dict(payload, source="plan.json")
        assert "plan.json" in str(excinfo.value)  # every error names the file

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"kind": "nope", "site": "pipeline_fit"}, "unknown kind"),
            ({"kind": "io_error", "site": "forest_fit"}, "unknown site"),
            ({"kind": "io_error", "site": "pipeline_fit", "task": True}, "non-negative"),
            ({"kind": "io_error", "site": "pipeline_fit", "count": 0}, "positive integer"),
            ({"kind": "io_error", "site": "pipeline_fit", "rate": 0}, "rate must be in"),
        ],
    )
    def test_a_spec_built_in_code_is_validated(self, fields, match):
        # the same checks as a JSON spec, without the file location
        with pytest.raises(FaultPlanError, match=match):
            FaultSpec(**fields)

    def test_bad_spec_errors_name_the_index(self):
        with pytest.raises(FaultPlanError, match=r"faults\[1\]"):
            plan_from_dict(
                {
                    "faults": [
                        {"kind": "io_error", "site": "pipeline_fit"},
                        {"kind": "nope", "site": "pipeline_fit"},
                    ]
                },
                source="plan.json",
            )

    def test_load_fault_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {"faults": [{"kind": "io_error", "site": "checkpoint_save"}]}
            )
        )
        plan = load_fault_plan(str(path))
        assert plan.specs[0].site == "checkpoint_save"

    def test_load_fault_plan_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(FaultPlanError, match="invalid JSON") as excinfo:
            load_fault_plan(str(path))
        assert str(path) in str(excinfo.value)

    def test_taxonomy_is_closed(self):
        # the documented taxonomy is the whole taxonomy
        assert set(FAULT_KINDS) == {
            "io_error",
            "corrupt_intermediate",
            "memory_pressure",
        }
        assert set(KNOWN_SITES) == {
            "pipeline_fit",
            "pipeline_classify",
            "checkpoint_save",
        }


class TestActivation:
    def test_use_fault_plan_scopes_and_restores(self):
        plan = FaultPlan([FaultSpec(kind="io_error", site="pipeline_fit")])
        before = current_fault_plan()
        with use_fault_plan(plan):
            assert current_fault_plan() is plan
        assert current_fault_plan() is before


class TestDelivery:
    def test_io_error_raises_oserror(self):
        with pytest.raises(OSError, match="injected transient I/O"):
            apply_directive(FaultDirective(kind="io_error", detail="x"))

    def test_memory_pressure_raises_memoryerror(self):
        with pytest.raises(MemoryError, match="injected RSS"):
            apply_directive(FaultDirective(kind="memory_pressure", detail="x"))

    def test_corrupt_intermediate_scribbles_then_raises(self, tmp_path):
        staging = tmp_path / "staging.bin"
        staging.write_bytes(b"good bytes")
        with pytest.raises(OSError, match="torn write"):
            apply_directive(
                FaultDirective(kind="corrupt_intermediate", detail="x"),
                path=str(staging),
            )
        assert b"corrupted" in staging.read_bytes()

    def test_maybe_fault_is_a_noop_without_a_plan(self):
        with use_fault_plan(None):
            maybe_fault("pipeline_fit", task=0)

    def test_maybe_fault_fires_and_consumes(self):
        plan = FaultPlan([FaultSpec(kind="io_error", site="pipeline_fit")])
        with use_fault_plan(plan):
            with pytest.raises(OSError):
                maybe_fault("pipeline_fit", task=0)
            maybe_fault("pipeline_fit", task=0)  # consumed: clean second call
        assert plan.n_fired == 1
