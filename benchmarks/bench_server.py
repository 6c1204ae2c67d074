"""E11 -- Section 4: "the communities will be returned instantly and
displayed in the browser".

End-to-end HTTP round trips against the browser-server substrate:
search, display and compare endpoints, on the live threaded server.
"""

import json
import threading
import urllib.request

import pytest

from repro.server.app import make_server

from bench_common import write_artifact


@pytest.fixture(scope="module")
def live_server(explorer):
    srv = make_server(explorer, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()


def _post(server, path, doc):
    url = "http://127.0.0.1:{}{}".format(server.server_address[1], path)
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())["data"]


def test_server_search_roundtrip(benchmark, live_server):
    doc = benchmark(_post, live_server, "/v1/search",
                    {"vertex": "jim gray", "k": 4})
    assert doc["communities"]


def test_server_display_roundtrip(benchmark, live_server):
    doc = benchmark(_post, live_server, "/v1/display",
                    {"vertex": "jim gray", "k": 4, "community": 0})
    assert doc["svg"].startswith("<svg")


def test_server_options_roundtrip(benchmark, live_server):
    doc = benchmark(_post, live_server, "/v1/options",
                    {"vertex": "jim gray"})
    assert doc["keywords"]


def test_server_profile_roundtrip(benchmark, live_server):
    doc = benchmark(_post, live_server, "/v1/profile",
                    {"vertex": "Jim Gray"})
    assert doc["name"] == "Jim Gray"


def test_server_instant_claim(benchmark, live_server):
    """The demo claim, quantified: a full search round trip (HTTP +
    query + serialisation) stays under 250 ms."""
    import time

    def timed():
        start = time.perf_counter()
        _post(live_server, "/v1/search", {"vertex": "jim gray", "k": 4})
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(timed, rounds=5, iterations=1,
                                 warmup_rounds=2)
    assert elapsed < 0.25
    write_artifact(
        "server_roundtrip.txt",
        "Section 4 - 'returned instantly': HTTP search round trip\n\n"
        "  one search round trip: {:.4f}s (< 0.25s budget)".format(
            elapsed))
