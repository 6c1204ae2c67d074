#!/usr/bin/env python
"""Start the C-Explorer web system (the Figure 3 browser-server model).

Serves the bundled synthetic DBLP graph on http://127.0.0.1:8080 --
open it in a browser for the Figure 1 exploration UI, or talk JSON to
the versioned /v1/* endpoints (see docs/API.md for the contract).  The
default threaded front-end keeps HTTP/1.1 connections open, so a
client that reuses its connection pays no reconnect per request.

Run:  python examples/run_server.py [port] [--async]

``--async`` serves through the asyncio front-end instead: one event
loop polling the engine's futures.  It is kept for comparison; it
does not beat the threaded front-end on any measured workload.
"""

import sys

from repro import CExplorer, make_server
from repro.datasets import generate_dblp_graph
from repro.server.async_app import make_async_server


def main():
    args = [a for a in sys.argv[1:] if a != "--async"]
    use_async = "--async" in sys.argv[1:]
    port = int(args[0]) if args else 8080
    explorer = CExplorer()
    explorer.add_graph("dblp", generate_dblp_graph())
    explorer.index()  # build the CL-tree up front: queries stay instant

    maker = make_async_server if use_async else make_server
    server = maker(explorer, port=port)
    if use_async:
        server.start_background()
    host, bound_port = server.server_address
    print("C-Explorer serving dblp ({} vertices, {} edges) via the "
          "{} front-end".format(explorer.graph.vertex_count,
                                explorer.graph.edge_count,
                                "asyncio" if use_async else "threaded"))
    print("Open http://{}:{}/  (Ctrl-C to stop)".format(host, bound_port))
    print("API: POST http://{}:{}/v1/search  "
          '{{"vertex": "jim gray", "k": 4}}'.format(host, bound_port))
    try:
        if use_async:
            import time
            while True:
                time.sleep(3600)
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        print("\nbye")
        server.shutdown()
        # Queued searches are dropped rather than run out at exit.
        explorer.engine.shutdown(wait=False)


if __name__ == "__main__":
    main()
