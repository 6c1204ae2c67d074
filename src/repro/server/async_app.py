"""The asyncio front-end: the same route table over one event loop.

This module serves the **same route table** (:mod:`repro.server.routes`)
as the threaded server (:mod:`repro.server.app`) over
``asyncio.start_server`` (stdlib only, no new dependencies):

* requests are accepted and parsed on the event loop -- idle or
  waiting connections cost one task each, not one thread each;
* handlers returning :class:`~repro.server.routes.Pending` are awaited
  through a small **poll/wakeup bridge** (:func:`await_future`): the
  engine's :class:`concurrent.futures.Future` is resolved on a worker
  thread, so the loop polls ``future.done()`` on an adaptive backoff
  (sub-millisecond at first -- warm results wake up fast -- decaying
  to a few milliseconds for long-running queries).  The worker pool
  and executor stay exactly as they are;
* routes marked ``blocking`` (upload's file I/O, lazily built
  summaries, SVG rendering) run in the loop's default thread-pool
  executor so the accept path never stalls behind them.

It is not the default.  Against the threaded server with HTTP/1.1
keep-alive, this front-end is ahead only on cache hits (by about
0.05 ms a request) and loses up to 3x on cold queries, where the poll
bridge adds latency (see "Where each rung wins" in
``docs/ARCHITECTURE.md``).

The HTTP implementation is deliberately minimal -- HTTP/1.1,
``Content-Length`` bodies, keep-alive -- just enough for the JSON API
and the bench/CI clients; it is not a general-purpose web server.

Two run modes: :meth:`AsyncCExplorerServer.serve_forever` blocks the
calling thread, and :meth:`~AsyncCExplorerServer.start_background`
runs the loop in a daemon thread and returns once the socket is bound
(``repro serve --server async``, tests and benchmarks; clients talk
plain blocking HTTP to it).
"""

import asyncio
import json
import threading

from repro.explorer.cexplorer import CExplorer
from repro.server.routes import (
    Pending,
    Raw,
    Request,
    Response,
    UNKNOWN_ROUTE,
    match_route,
    not_found_error,
    parse_json_body,
    parse_query_string,
    render_error,
    render_success,
)
from repro.server.state import ServerState
from repro.util.errors import QueryTimeoutError

# The poll/wakeup bridge's backoff: start fine-grained so cache hits
# and shared answers are picked up almost immediately, decay toward
# the ceiling so a long-running query costs a handful of wakeups per
# second, not thousands.
_POLL_INITIAL = 0.0005
_POLL_CEILING = 0.01
_POLL_GROWTH = 1.5

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

_MAX_BODY_BYTES = 64 * 1024 * 1024


async def await_future(engine, future, timeout):
    """Await one of ``engine``'s futures from the event loop: the
    poll/wakeup bridge.

    The future is resolved by worker threads, so the bridge polls
    ``future.done()`` with an adaptive sleep.  It keeps the rule of
    :meth:`~repro.engine.executor.QueryEngine.wait`, the sync server's
    blocking wait: when the bridge's own budget runs out, the future
    is cancelled (a queued job is dropped without running), counted
    once under ``timeouts`` and
    :class:`~repro.util.errors.QueryTimeoutError` raised.
    """
    loop = asyncio.get_running_loop()
    deadline = (loop.time() + timeout) if timeout is not None else None
    delay = _POLL_INITIAL
    while not future.done():
        if deadline is not None and loop.time() >= deadline:
            future.cancel()
            engine.stats.count("timeouts")
            raise QueryTimeoutError(
                "query did not finish within {:.3f}s".format(timeout))
        await asyncio.sleep(delay)
        delay = min(delay * _POLL_GROWTH, _POLL_CEILING)
    # A done future never blocks: this returns the value or re-raises
    # the job's exception (the stdlib CancelledError for a cancelled
    # one) exactly like the sync path.
    return future.result()


class AsyncCExplorerServer:
    """The asyncio serving front-end around one
    :class:`~repro.server.state.ServerState`."""

    def __init__(self, explorer=None, host="127.0.0.1", port=8080,
                 query_timeout=30.0):
        if explorer is None:
            explorer = CExplorer()
        self.host = host
        self.port = port
        self.state = ServerState(explorer, query_timeout=query_timeout)
        self.server_address = (host, port)
        self._loop = None
        self._server = None
        self._thread = None
        self._started = threading.Event()
        self._startup_error = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer):
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown tore the connection down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):  # pragma: no cover
                pass

    async def _read_head(self, reader):
        """``(method, target, headers)`` for the next request, or
        ``None`` at a clean end-of-stream between requests."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line or not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _handle_one(self, reader, writer):
        """Serve one request on an open connection; returns whether to
        keep the connection alive."""
        head = await self._read_head(reader)
        if head is None:
            return False
        method, target, headers = head
        length = int(headers.get("content-length") or 0)
        if length > _MAX_BODY_BYTES:
            await self._write_response(
                writer, 413, {"error": "request body too large"},
                close=True)
            return False
        raw_body = await reader.readexactly(length) if length else b""
        close = headers.get("connection", "").lower() == "close"
        status, body, content_type = await self._dispatch(
            method, target, raw_body)
        await self._write_response(writer, status, body,
                                   content_type=content_type,
                                   close=close)
        return not close

    async def _write_response(self, writer, status, body,
                              content_type="application/json",
                              close=False):
        if not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        lines = [
            "HTTP/1.1 {} {}".format(status, reason),
            "Content-Type: {}".format(content_type),
            "Content-Length: {}".format(len(body)),
            "Connection: {}".format("close" if close else "keep-alive"),
        ]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # dispatch (the async twin of app._Handler._dispatch)
    # ------------------------------------------------------------------
    async def _dispatch(self, method, target, raw_body):
        """``(status, body, content_type)`` for one parsed request."""
        state = self.state
        path, query = parse_query_string(target)
        matched = match_route(method, path)
        if matched is None:
            state.count_request(UNKNOWN_ROUTE)
            state.count_error()
            status, body = render_error(not_found_error(path))
            return status, body, "application/json"
        route, params = matched
        state.count_request(route.template)
        loop = asyncio.get_running_loop()
        try:
            body = parse_json_body(raw_body) if method == "POST" else {}
            request = Request(method, path, params=params, query=query,
                              body=body)
            if route.blocking:
                # Real work on the handler path (file I/O, lazy
                # summary/index builds, SVG rendering): keep it off
                # the event loop.
                outcome = await loop.run_in_executor(
                    None, route.handler, state, request)
            else:
                outcome = route.handler(state, request)
            if isinstance(outcome, Pending):
                result = await await_future(state.engine, outcome.future,
                                            state.query_timeout)
                if route.blocking:
                    outcome = await loop.run_in_executor(
                        None, outcome.finish, result)
                else:
                    outcome = outcome.finish(result)
            if isinstance(outcome, Raw):
                return 200, outcome.body, outcome.content_type
            response = (outcome if isinstance(outcome, Response)
                        else Response(outcome))
            return 200, render_success(response), "application/json"
        except Exception as exc:  # never kill the connection
            state.count_error()
            status, doc = render_error(exc)
            return status, doc, "application/json"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _start(self):
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port)
        self.server_address = self._server.sockets[0].getsockname()[:2]

    async def serve(self):
        """Bind and serve until cancelled (the embeddable coroutine)."""
        await self._start()
        self._started.set()
        async with self._server:
            await self._server.serve_forever()

    def serve_forever(self):
        """Blocking run on a fresh event loop (the CLI path)."""
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self.serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self._teardown_loop()

    def start_background(self, timeout=10.0):
        """Run the server on a daemon thread; returns once the socket
        is bound (tests/benchmarks then talk plain blocking HTTP to
        ``server_address``)."""
        def run():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.serve())
            except asyncio.CancelledError:  # pragma: no cover
                pass
            except Exception as exc:
                self._startup_error = exc
                self._started.set()
            finally:
                self._teardown_loop()

        self._thread = threading.Thread(target=run, name="async-server",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("async server did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def shutdown(self):
        """Stop serving (threadsafe); joins the background thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stop_on_loop)
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=10.0)

    def _stop_on_loop(self):
        if self._server is not None:
            self._server.close()
        for task in asyncio.all_tasks(self._loop):
            task.cancel()

    def _teardown_loop(self):
        loop, self._loop = self._loop, None
        if loop is None:
            return
        try:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
        except RuntimeError:  # pragma: no cover - loop already closed
            pass
        finally:
            loop.close()


def make_async_server(explorer=None, host="127.0.0.1", port=8080,
                      query_timeout=30.0):
    """Create (not start) an :class:`AsyncCExplorerServer`.

    ``port=0`` picks a free port; read it back from
    ``server.server_address`` after :meth:`~AsyncCExplorerServer.
    start_background` (or :meth:`~AsyncCExplorerServer.serve`) binds.
    """
    if explorer is None:
        explorer = CExplorer()
    return AsyncCExplorerServer(explorer, host=host, port=port,
                                query_timeout=query_timeout)
