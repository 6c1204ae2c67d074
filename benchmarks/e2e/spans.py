"""Span recording around the public callables of each layer.

The benchmark records its own spans (the choosing-metrics guide: in
the change that defines the benchmark, spans come from the benchmark's
files, around the calls into each layer).  ``install()`` replaces the
attributes listed in ``_targets()`` with recording wrappers inside the
running server process and ``uninstall()`` puts the originals back, so
the untraced passes run the product code untouched.

A span is ``{"id", "name", "start", "end", "parent", "thread"}`` on
``time.monotonic()`` -- the same clock the client stamps its
send/receive times with, which is how spans are attributed to an op
(containment in the client's interval).  ``parent`` is the enclosing
span on the same thread, or ``None``.
"""

import asyncio
import functools
import itertools
import threading
import time
import types


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans = []
        self.open = set()       # ids of spans begun and not yet ended
        self.patched = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        self.open.add(span_id)
        return span_id, parent, time.monotonic()

    def _close(self, name, span_id, parent, start):
        end = time.monotonic()
        self._stack().pop()
        # list.append is atomic under the interpreter lock.
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent,
                           "thread": threading.get_ident()})
        self.open.discard(span_id)

    def wrap(self, name, fn):
        """``fn`` recorded as a span called ``name``."""
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                opened = self._open()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, *opened)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                opened = self._open()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(name, *opened)
        return traced

    def patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self.patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))


def _targets():
    """``(owner, attribute, span name)`` for every wrapped callable.

    Names imported with ``from x import y`` are patched in the module
    that *uses* them, because that is the binding the call site reads.
    """
    from repro.algorithms.registry import get_cs_algorithm
    from repro.core.community import Community
    from repro.core.maintenance import CoreMaintainer
    from repro.engine import index_manager
    from repro.engine.cache import ResultCache
    from repro.engine.executor import QueryEngine
    from repro.explorer import cexplorer
    from repro.explorer.cexplorer import CExplorer
    from repro.server import app, async_app, routes

    targets = [
        (app._Handler, "_dispatch", "server.request"),
        (async_app.AsyncCExplorerServer, "_dispatch", "server.request"),
        (routes, "render_svg", "viz.render_svg"),
        (Community, "to_dict", "server.serialize"),
        (QueryEngine, "search", "executor.search"),
        (QueryEngine, "submit", "executor.enqueue"),
        (cexplorer, "plan_search", "plans.plan"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
        (ResultCache, "invalidate", "cache.invalidate"),
        (index_manager, "build_cltree", "index.build"),
        (index_manager, "core_decomposition", "index.core"),
        (index_manager, "truss_decomposition", "index.truss"),
        (CoreMaintainer, "insert_edge", "maintenance.update"),
        (CoreMaintainer, "remove_edge", "maintenance.update"),
        (CExplorer, "search", "explorer.search"),
        (CExplorer, "query_options", "explorer.options"),
        (CExplorer, "profile", "explorer.profile"),
        (CExplorer, "suggest_names", "explorer.suggest"),
        (CExplorer, "compare", "explorer.compare"),
        (cexplorer, "ego_layout", "viz.layout"),
    ]
    for front in (app, async_app):
        targets += [
            (front, "parse_json_body", "server.parse"),
            (front, "match_route", "server.parse"),
            (front, "render_success", "server.serialize"),
        ]
    for algorithm in ("acq", "global", "local", "k-truss"):
        targets.append((get_cs_algorithm(algorithm), "func",
                        "algorithms." + algorithm))
    return targets


def install():
    """Wrap every target; returns the recorder holding the spans."""
    from repro.server import app, async_app

    recorder = Recorder()
    for owner, attr, name in _targets():
        recorder.patch(owner, attr, name)
    # Both front-ends serialise with ``json.dumps(body)`` through their
    # module-level ``json`` name; rebinding that name wraps their calls
    # only, not every json user in the process.
    for front in (app, async_app):
        original = front.json
        recorder.patched.append((front, "json", original))
        front.json = types.SimpleNamespace(
            dumps=recorder.wrap("server.serialize", original.dumps))
    return recorder


def uninstall(recorder):
    """Restore every original attribute; returns the spans.  The last
    request's handler can still be returning after its client has the
    answer, so give open spans a moment to end."""
    for owner, attr, original in reversed(recorder.patched):
        setattr(owner, attr, original)
    deadline = time.monotonic() + 1.0
    while recorder.open and time.monotonic() < deadline:
        time.sleep(0.001)
    return recorder.spans
