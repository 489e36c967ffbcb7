"""Spans on the trace collector: nesting, timing, threads, flat export,
rendering."""

import contextvars
import sys
import threading
import time

from repro.obs import TraceCollector, get_collector, trace_span


def _shape(rows):
    """(name, depth, parent) per flat row."""
    return [(r["name"], r["depth"], r["parent"]) for r in rows]


def _roots(collector):
    return [r["name"] for r in collector.flat() if r["parent"] is None]


class TestNesting:
    def test_nested_spans_form_a_tree(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner_a"):
                pass
            with collector.span("inner_b"):
                pass
        assert _shape(collector.flat()) == [
            ("outer", 0, None), ("inner_a", 1, 0), ("inner_b", 1, 0)
        ]

    def test_nested_durations_are_ordered(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner"):
                time.sleep(0.01)
        root, inner = collector.flat()
        assert inner["duration_s"] >= 0.01
        assert root["duration_s"] >= inner["duration_s"]
        assert inner["start_s"] >= root["start_s"]

    def test_sequential_roots(self):
        collector = TraceCollector()
        with collector.span("first"):
            pass
        with collector.span("second"):
            pass
        assert _roots(collector) == ["first", "second"]

    def test_exception_still_closes_span(self):
        collector = TraceCollector()
        try:
            with collector.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert collector.flat()[0]["duration_s"] is not None
        # the open span was reset: the next span is a fresh root
        with collector.span("after"):
            pass
        assert _roots(collector) == ["boom", "after"]


class TestThreads:
    def test_each_thread_gets_its_own_stack(self):
        collector = TraceCollector()

        def worker(tag):
            with collector.span("chunk", tag=tag):
                time.sleep(0.002)

        with collector.span("replay"):
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker spans are *roots* of their own threads, not children
        # of the main thread's replay span
        rows = collector.flat()
        assert sorted(_roots(collector)) == ["chunk"] * 4 + ["replay"]
        assert all(r["depth"] == 0 for r in rows)

    def test_copied_contexts_append_children_from_many_threads(self):
        """Threads running in copies of one context all parent on its
        open span; no child is lost to a concurrent append."""
        collector = TraceCollector()
        n_threads, n_spans = 8, 200

        def worker():
            for _ in range(n_spans):
                with collector.span("chunk"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with collector.span("replay"):
                threads = [threading.Thread(
                    target=contextvars.copy_context().run, args=(worker,))
                    for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        rows = collector.flat()
        assert rows[0]["name"] == "replay"
        assert sum(r["parent"] == 0 for r in rows) == n_threads * n_spans


class TestExports:
    def test_flat_depth_and_parent_indices(self):
        collector = TraceCollector()
        with collector.span("a", k="v"):
            with collector.span("b"):
                with collector.span("c"):
                    pass
        rows = collector.flat()
        assert _shape(rows) == [("a", 0, None), ("b", 1, 0), ("c", 2, 1)]
        assert rows[0]["labels"] == {"k": "v"}
        assert all(r["duration_s"] >= 0 for r in rows)

    def test_render_tree_shows_names_and_labels(self):
        collector = TraceCollector()
        with collector.span("experiment", experiment="demo"):
            with collector.span("simulate", workload="tree"):
                pass
            with collector.span("simulate", workload="mcf"):
                with collector.span("materialize"):
                    pass
        lines = collector.render().splitlines()
        assert lines[0].startswith("experiment experiment=demo")
        assert lines[1].startswith("|- simulate workload=tree")
        assert lines[2].startswith("`- simulate workload=mcf")
        assert lines[3].startswith("   `- materialize")
        assert all(line.endswith(" ms") for line in lines)

    def test_render_empty(self):
        assert TraceCollector().render() == "(no spans recorded)"

    def test_clear_resets(self):
        collector = TraceCollector()
        with collector.span("a"):
            pass
        collector.clear()
        assert collector.flat() == []


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        collector = TraceCollector(enabled=False)
        with collector.span("invisible"):
            pass
        assert collector.flat() == []

    def test_global_trace_span_is_noop_by_default(self):
        assert get_collector().enabled is False
        before = len(get_collector().flat())
        with trace_span("invisible"):
            pass
        assert len(get_collector().flat()) == before
