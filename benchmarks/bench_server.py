"""E11 -- Section 4: "the communities will be returned instantly and
displayed in the browser".

End-to-end HTTP round trips against the browser-server substrate:
search, display, options and profile, on the live threaded server.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.server.app import make_server

from bench_common import best_of, write_artifact


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


def test_server_instant_claim(benchmark, live_server, explorer):
    """The demo claim as a shape: once a query has been answered, a
    full HTTP search round trip for it (connection, parse, cache hit,
    serialisation) costs less than computing the same query cold
    in-process -- the serving layer never outweighs the search it
    serves (best of five each).  Cold means no cached answer and no
    derived values: ``use_cache=False`` alone would still read the
    singleton communities the first search stored on the version."""
    query = {"vertex": "jim gray", "k": 4}
    _post(live_server, "/v1/search", query)          # now cached

    def measure():
        start = time.perf_counter()
        _post(live_server, "/v1/search", query)
        http = time.perf_counter() - start
        explorer.indexes.drop_derived()
        start = time.perf_counter()
        explorer.search("acq", "jim gray", k=4, use_cache=False)
        return http, time.perf_counter() - start

    http, cold = benchmark.pedantic(best_of, args=(measure, 5), rounds=1,
                                    iterations=1)
    assert http < cold, (http, cold)
    write_artifact(
        "server_roundtrip.txt",
        "Section 4 - 'returned instantly': HTTP search round trip\n\n"
        "  cached HTTP round trip:      {:.4f}s\n"
        "  cold in-process computation: {:.4f}s".format(http, cold))
