"""Regression: span parentage must follow the request, not the thread.

A one-stack-per-thread span tracer lets two asyncio tasks interleaving
on the event-loop thread adopt each other's spans as children.  Here
the active span lives in a contextvar, set and reset per span, and
asyncio gives each task its own copy: tasks that inherit one root
each parent only their own children.  A thread starts with no active
span, and ``loop.run_in_executor`` does not copy contextvars, so a
callable run on an executor adopts its submitter's trace only through
an explicit ``activate(ctx)`` hand-off.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs import enable_observability, trace_span
from repro.obs.attrib import activate, current_trace


def _tree(rows):
    """{root name: (name, [children...])} from ``flat()`` rows."""
    children = {}
    for index, row in enumerate(rows):
        children.setdefault(row["parent"], []).append(index)

    def node(index):
        return (rows[index]["name"],
                [node(child) for child in children.get(index, [])])

    return {rows[index]["name"]: node(index)
            for index in children.get(None, [])}


async def _request(name):
    with trace_span(f"{name}.request"):
        await asyncio.sleep(0)  # yield: the tasks interleave
        with trace_span(f"{name}.store"):
            await asyncio.sleep(0)


class TestInterleavedTasks:
    def test_two_tasks_on_one_loop_thread_keep_their_own_spans(self):
        """Both tasks hold a span open across ``await`` points on the
        same thread; each must still parent only its own inner span."""
        _, collector = enable_observability()

        async def drive():
            await asyncio.gather(_request("a"), _request("b"))

        asyncio.run(drive())
        assert _tree(collector.flat()) == {
            "a.request": ("a.request", [("a.store", [])]),
            "b.request": ("b.request", [("b.store", [])]),
        }

    def test_tasks_inheriting_one_root_keep_their_own_children(self):
        """Both tasks start inside one open root, so both record into
        its trace; their interleaved spans still nest per task."""
        _, collector = enable_observability()

        async def drive():
            with trace_span("batch"):
                await asyncio.gather(_request("a"), _request("b"))

        asyncio.run(drive())
        assert _tree(collector.flat()) == {
            "batch": ("batch", [
                ("a.request", [("a.store", [])]),
                ("b.request", [("b.store", [])]),
            ]),
        }

    def test_two_requests_interleaving_on_one_worker_thread(self):
        """Both requests hop to the *same* executor thread.  Each hop
        activates its request's context, so spans opened there parent
        on that request's root, not on whatever the shared thread saw
        last."""
        _, collector = enable_observability()

        def store_op(ctx, name):
            with activate(ctx):
                with trace_span(f"{name}.store"):
                    time.sleep(0.001)

        async def request(pool, name):
            loop = asyncio.get_running_loop()
            with trace_span(f"{name}.request"):
                ctx = current_trace()
                # two hops with a yield between them, so the other
                # task's hop lands on the worker thread in between
                await loop.run_in_executor(pool, store_op, ctx, name)
                await asyncio.sleep(0)
                await loop.run_in_executor(pool, store_op, ctx, name)

        async def drive():
            with ThreadPoolExecutor(max_workers=1) as pool:
                await asyncio.gather(request(pool, "a"),
                                     request(pool, "b"))

        asyncio.run(drive())
        assert _tree(collector.flat()) == {
            "a.request": ("a.request",
                          [("a.store", []), ("a.store", [])]),
            "b.request": ("b.request",
                          [("b.store", []), ("b.store", [])]),
        }

    def test_untraced_threads_fall_back_to_thread_stacks(self):
        """Plain synchronous code with no trace in flight opens a root
        and nests the spans inside it as the ``with`` blocks do."""
        _, collector = enable_observability()
        with trace_span("outer"):
            with trace_span("inner"):
                pass
        assert _tree(collector.flat()) == {
            "outer": ("outer", [("inner", [])]),
        }
