"""Span tracing: nesting, exception safety, exports."""

import io
import json

import pytest

from repro.obs.tracing import (
    Tracer,
    current_tracer,
    use_tracer,
)


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                pass
        [root] = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner_a", "inner_b"]

    def test_sequential_roots_form_a_forest(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_attributes_recorded(self):
        tracer = Tracer()
        with tracer.span("fit", day=21, n=3):
            pass
        assert tracer.roots[0].attributes == {"day": 21, "n": 3}

    def test_duration_is_positive_and_nested_fits_in_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.duration > 0
        assert outer.duration >= inner.duration

    def test_iter_spans_depth_first_with_depths(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        walk = [(s.name, p.name if p else None, d) for s, p, d in tracer.iter_spans()]
        assert walk == [("a", None, 0), ("b", "a", 1), ("c", "b", 2)]


class TestExceptionSafety:
    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("doomed"):
                raise ValueError("boom")
        [span] = tracer.roots
        assert span.status == "error"
        assert span.error == "ValueError: boom"
        assert span.duration >= 0

    def test_stack_unwinds_after_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("x")
        # A later span must be a new root, not a child of the dead one.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]


class TestExports:
    def test_phase_totals_accumulate_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeated"):
                pass
        totals = tracer.phase_totals()
        assert set(totals) == {"repeated"}
        assert totals["repeated"] >= 0

    def test_span_tree_shape(self):
        tracer = Tracer()
        with tracer.span("outer", day=1):
            with tracer.span("inner"):
                pass
        [tree] = tracer.span_tree()
        assert tree["name"] == "outer"
        assert tree["status"] == "ok"
        assert tree["attributes"] == {"day": 1}
        assert tree["children"][0]["name"] == "inner"
        assert "children" not in tree["children"][0]

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", n=2):
                pass
        stream = io.StringIO()
        assert tracer.write_jsonl(stream) == 2
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        outer, inner = records
        assert outer["parent_id"] is None and outer["depth"] == 0
        assert inner["parent_id"] == outer["id"] and inner["depth"] == 1
        assert inner["attributes"] == {"n": 2}

    def test_reset_clears_state(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == [] and tracer.phase_totals() == {}


class TestAmbient:
    def test_default_tracer_is_disabled_null_context(self):
        tracer = current_tracer()
        assert tracer.enabled is False
        ctx = tracer.span("anything", key="value")
        assert ctx is tracer.span("other")  # shared null context object
        with ctx:
            pass
        assert tracer.roots == []

    def test_use_tracer_scopes_the_ambient(self):
        mine = Tracer()
        with use_tracer(mine):
            assert current_tracer() is mine
            with current_tracer().span("scoped"):
                pass
        assert current_tracer().enabled is False
        assert [r.name for r in mine.roots] == ["scoped"]
