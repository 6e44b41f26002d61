"""Tracer behavior: span nesting, ordering, cost deltas, span adoption,
null tracer."""

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer, ensure_tracer
from repro.storage.metrics import CostCounters


class TestSpanNesting:
    def test_spans_record_in_start_order(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("first"):
                pass
            with t.span("second"):
                pass
        assert [s.name for s in t.spans] == ["outer", "first", "second"]
        assert [s.index for s in t.spans] == [0, 1, 2]

    def test_parent_and_depth(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
            with t.span("d"):
                pass
        by_name = {s.name: s for s in t.spans}
        assert by_name["a"].parent == -1 and by_name["a"].depth == 0
        assert by_name["b"].parent == by_name["a"].index
        assert by_name["c"].parent == by_name["b"].index
        assert by_name["c"].depth == 2
        assert by_name["d"].parent == by_name["a"].index
        assert by_name["d"].depth == 1

    def test_siblings_after_close_attach_to_grandparent(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child"):
                pass
        with t.span("next_root"):
            pass
        assert t.spans[2].parent == -1
        assert t.spans[2].depth == 0

    def test_active_span_tracks_stack(self):
        t = Tracer()
        assert t.active_span is None
        with t.span("a") as a:
            assert t.active_span is a
        assert t.active_span is None

    def test_durations_are_monotone(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        outer, inner = t.spans
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_exception_closes_span_and_restores_stack(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("failing"):
                    raise RuntimeError("boom")
        assert t.active_span is None
        assert all(s.duration_s >= 0.0 for s in t.spans)
        with t.span("after"):
            pass
        assert t.spans[-1].depth == 0


class TestAttributes:
    def test_initial_and_late_attributes(self):
        t = Tracer()
        with t.span("s", radius=0.5) as span:
            span.set(candidates=12, done=True)
        assert t.spans[0].attributes == {
            "radius": 0.5,
            "candidates": 12,
            "done": True,
        }


class TestCostDeltas:
    def test_span_captures_counter_delta(self):
        c = CostCounters()
        c.count_physical_read(100)  # pre-existing noise must not leak in
        t = Tracer(counters=c)
        with t.span("work"):
            c.count_physical_read(3)
            c.count_distance(5, dims=4)
        cost = t.spans[0].cost
        assert cost.physical_reads == 3
        assert cost.distance_computations == 5
        assert cost.distance_flops == 20

    def test_nested_spans_include_child_cost(self):
        c = CostCounters()
        t = Tracer(counters=c)
        with t.span("outer"):
            c.count_key_comparison(1)
            with t.span("inner"):
                c.count_key_comparison(10)
        outer, inner = t.spans
        assert inner.cost.key_comparisons == 10
        assert outer.cost.key_comparisons == 11

    def test_per_span_counter_override(self):
        default = CostCounters()
        other = CostCounters()
        t = Tracer(counters=default)
        with t.span("default_counters"):
            default.count_page_write(2)
        with t.span("override", counters=other):
            other.count_page_write(7)
            default.count_page_write(1)  # invisible to the override span
        assert t.spans[0].cost.page_writes == 2
        assert t.spans[1].cost.page_writes == 7

    def test_no_counters_means_no_cost(self):
        t = Tracer()
        with t.span("uncounted"):
            pass
        assert t.spans[0].cost is None


class TestAdoptSpans:
    def test_rebases_reparents_and_stamps_roots(self):
        worker = Tracer()
        with worker.span("w.root"):
            with worker.span("w.child"):
                pass
        with worker.span("w.root2", worker="kept"):
            pass
        parent = Tracer()
        with parent.span("p.before"):
            pass
        with parent.span("p.scatter") as scatter:
            with parent.span("p.inner"):
                pass
        assert parent.adopt_spans(worker.spans, parent=scatter, worker=3) == 3
        spans = parent.spans
        assert [s.name for s in spans] == [
            "p.before", "p.scatter", "p.inner",
            "w.root", "w.child", "w.root2",
        ]
        assert [s.index for s in spans] == list(range(6))
        root, child, root2 = spans[3:]
        assert (root.parent, root.depth) == (scatter.index, 1)
        assert (child.parent, child.depth) == (root.index, 2)
        assert (root2.parent, root2.depth) == (scatter.index, 1)
        assert root.attributes["worker"] == 3
        assert "worker" not in child.attributes
        assert root2.attributes["worker"] == "kept"  # never overwritten
        # Without a parent, roots stay roots at their own depth.
        top = Tracer()
        with top.span("w.only"):
            pass
        assert parent.adopt_spans(top.spans) == 1
        assert (spans[6].index, spans[6].parent, spans[6].depth) == (6, -1, 0)
        assert "worker" not in spans[6].attributes
        assert parent.adopt_spans([], parent=scatter) == 0
        assert NULL_TRACER.adopt_spans(worker.spans, parent=scatter) == 0
        assert len(parent.spans) == 7


class TestNullTracer:
    def test_null_tracer_is_inert_and_allocation_free(self):
        n = NullTracer()
        with n.span("anything", attr=1) as s:
            assert s.set(x=2) is s
        assert n.spans == []
        assert n.active_span is None
        n.counter("c").inc(5)
        n.gauge("g").set(1.0)
        n.histogram("h").observe(3.0)
        # Shared singletons: repeated calls return the same objects.
        assert n.span("a") is n.span("b")
        assert n.counter("a") is n.counter("b")

    def test_ensure_tracer(self):
        assert ensure_tracer(None) is NULL_TRACER
        t = Tracer()
        assert ensure_tracer(t) is t
