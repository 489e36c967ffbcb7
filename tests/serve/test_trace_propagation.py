"""Regression: span parentage must follow the request, not the thread.

A per-thread open-span stack would let two asyncio tasks interleaving
on the event-loop thread — or two requests' work items taking turns on
one executor thread — adopt each other's spans as children.  The
innermost open span lives in a contextvar instead, which asyncio
scopes per task and ``contextvars.copy_context().run`` carries onto an
executor thread.
"""

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs import enable_observability, trace_span


def _trees(rows):
    """{root name: (name, [children...])} rebuilt from flat rows."""
    nodes = [(row["name"], []) for row in rows]
    for node, row in zip(nodes, rows):
        if row["parent"] is not None:
            nodes[row["parent"]][1].append(node)
    return {node[0]: node for node, row in zip(nodes, rows)
            if row["parent"] is None}


class TestInterleavedTasks:
    def test_two_tasks_on_one_loop_thread_keep_their_own_spans(self):
        """Both tasks hold a span open across ``await`` points on the
        same thread; each must still parent only its own inner span."""
        _, collector = enable_observability()

        async def request(name):
            with trace_span(f"{name}.request"):
                await asyncio.sleep(0)  # yield: the tasks interleave
                with trace_span(f"{name}.store"):
                    await asyncio.sleep(0)

        async def drive():
            await asyncio.gather(request("a"), request("b"))

        asyncio.run(drive())
        assert _trees(collector.flat()) == {
            "a.request": ("a.request", [("a.store", [])]),
            "b.request": ("b.request", [("b.store", [])]),
        }

    def test_two_requests_interleaving_on_one_worker_thread(self):
        """Both requests hop to the *same* executor thread, each in a
        copy of its own context.  Spans opened there must parent on
        each request's own span, not on whatever the shared thread saw
        last."""
        _, collector = enable_observability()

        def store_op(name):
            with trace_span(f"{name}.store"):
                time.sleep(0.001)

        async def request(pool, name):
            loop = asyncio.get_running_loop()
            with trace_span(f"{name}.request"):
                # two hops with a yield between them, so the other
                # task's hop lands on the worker thread in between
                for _ in range(2):
                    await loop.run_in_executor(
                        pool, contextvars.copy_context().run, store_op, name)
                    await asyncio.sleep(0)

        async def drive():
            with ThreadPoolExecutor(max_workers=1) as pool:
                await asyncio.gather(request(pool, "a"),
                                     request(pool, "b"))

        asyncio.run(drive())
        assert _trees(collector.flat()) == {
            "a.request": ("a.request",
                          [("a.store", []), ("a.store", [])]),
            "b.request": ("b.request",
                          [("b.store", []), ("b.store", [])]),
        }

    def test_plain_code_nests_in_order(self):
        """Synchronous code with no tasks or threads nests as written."""
        _, collector = enable_observability()
        with trace_span("outer"):
            with trace_span("inner"):
                pass
        assert _trees(collector.flat()) == {
            "outer": ("outer", [("inner", [])]),
        }
