"""Command-line interface: the system without the browser.

Subcommands mirror the paper's API (Figure 4) plus operational verbs::

    python -m repro generate --authors 2000 --out dblp.json
    python -m repro search   --graph dblp.json --vertex "jim gray" -k 4
    python -m repro compare  --graph dblp.json --vertex "jim gray" -k 4
    python -m repro detect   --graph dblp.json --algorithm codicil
    python -m repro index    --graph dblp.json --out dblp.cltree.json
    python -m repro profile  --name "Michael Stonebraker"
    python -m repro serve    --graph dblp.json --port 8080
    python -m repro serve    --graph dblp.json --server async
    python -m repro trace    --graph dblp.json --vertex "jim gray"
    python -m repro trace    --url http://127.0.0.1:8080 --last 5

Graph-loading subcommands accept ``--backend thread|process`` to pick
the execution backend (``process`` ships whole queries and CL-tree
builds to a multiprocessing pool over frozen CSR snapshots -- real
parallelism for CPU-bound structural work on multi-core hosts).

Every subcommand prints human-readable text by default; ``--json``
switches to machine-readable output.
"""

import argparse
import json
import sys

from repro.analysis.comparison import DEFAULT_METHODS
from repro.analysis.statistics import format_table
from repro.core.persistence import load_cltree, save_cltree
from repro.datasets import DblpConfig, generate_dblp_graph
from repro.explorer.cexplorer import CExplorer
from repro.explorer.profiles import ProfileStore
from repro.graph.io import write_graph_json
from repro.server.app import make_server
from repro.util.errors import CExplorerError


def _load_explorer(args):
    explorer = CExplorer(workers=getattr(args, "workers", 2),
                         backend=getattr(args, "backend", "thread"),
                         faults=_fault_plan(args))
    explorer.upload(args.graph, name="cli")
    if getattr(args, "index", None):
        tree = load_cltree(args.index, explorer.graph)
        explorer.indexes.install("cli", tree, core=tree.core)
    return explorer


def _fault_plan(args):
    """The seeded fault-injection plan named by ``--fault-plan`` (a
    spec string or a JSON file path), or ``None`` (which lets the
    engine honour ``REPRO_FAULT_PLAN`` from the environment)."""
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return None
    import os

    from repro.engine.faults import FaultPlan
    if os.path.isfile(spec):
        with open(spec, encoding="utf-8") as handle:
            spec = handle.read()
    return FaultPlan.from_spec(spec)


def _cmd_generate(args):
    config = DblpConfig(n_authors=args.authors,
                        n_communities=args.communities, seed=args.seed)
    graph = generate_dblp_graph(config)
    write_graph_json(graph, args.out)
    print("wrote {} ({} vertices, {} edges)".format(
        args.out, graph.vertex_count, graph.edge_count))
    return 0


def _cmd_search(args):
    explorer = _load_explorer(args)
    communities = explorer.search(
        args.algorithm, args.vertex, k=args.k,
        keywords=set(args.keywords) if args.keywords else None)
    if args.json:
        print(json.dumps([c.to_dict() for c in communities], indent=1))
        return 0
    if not communities:
        print("no community found for {!r} with k={}".format(
            args.vertex, args.k))
        return 1
    for i, community in enumerate(communities, start=1):
        print("Community {} ({} members, {} edges, theme: {})".format(
            i, community.vertex_count, community.edge_count,
            ", ".join(community.theme(limit=6)) or "-"))
        for name in community.member_names():
            print("  -", name)
        if args.draw:
            print(explorer.display(community, fmt="ascii"))
    return 0


def _cmd_compare(args):
    explorer = _load_explorer(args)
    report = explorer.compare(args.vertex, k=args.k,
                              methods=tuple(args.methods))
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render_text())
    return 0


def _cmd_detect(args):
    explorer = _load_explorer(args)
    communities = explorer.detect(args.algorithm)
    if args.json:
        print(json.dumps([c.to_dict() for c in communities[:args.limit]],
                         indent=1))
        return 0
    print("{} communities".format(len(communities)))
    rows = [{"method": "#{} ({})".format(i + 1, args.algorithm),
             "communities": 1, "vertices": len(c),
             "edges": c.edge_count,
             "degree": round(c.average_degree, 2)}
            for i, c in enumerate(communities[:args.limit])]
    print(format_table(rows))
    return 0


def _cmd_index(args):
    explorer = _load_explorer(args)
    tree = explorer.index()
    save_cltree(tree, args.out)
    sizes = tree.index_size()
    print("wrote {} ({} nodes, {} postings, built in {:.3f}s)".format(
        args.out, sizes["nodes"], sizes["postings"],
        tree.build_seconds))
    return 0


def _cmd_profile(args):
    profile = ProfileStore().get(args.name)
    if args.json:
        print(json.dumps(profile.to_dict(), indent=1))
    else:
        print(profile.render_text())
    return 0


def _cmd_trace(args):
    """Print a span waterfall for the last N query traces.

    Two modes: ``--url`` fetches traces from a running server's
    ``/v1/traces`` endpoints (unwrapping the ``{"ok", "data",
    "error"}`` envelope); ``--graph`` (with one or more ``--vertex``)
    runs the searches locally and prints the traces the engine
    recorded.
    """
    from repro.engine.tracing import format_waterfall

    def v1_data(url):
        import urllib.request

        with urllib.request.urlopen(url) as fh:
            doc = json.loads(fh.read().decode("utf-8"))
        if not doc.get("ok", False):
            error = doc.get("error") or {}
            raise CExplorerError("server error {}: {}".format(
                error.get("code", "?"), error.get("message", "?")))
        return doc["data"]

    docs = []
    if args.url:
        base = args.url.rstrip("/")
        listing = v1_data("{}/v1/traces?limit={}".format(base,
                                                        args.last))
        for summary in listing.get("traces", []):
            docs.append(v1_data("{}/v1/traces/{}".format(
                base, summary["query_id"])))
    else:
        if not args.graph or not args.vertex:
            raise CExplorerError(
                "trace needs either --url or --graph with --vertex")
        explorer = _load_explorer(args)
        engine = explorer.engine
        for vertex in args.vertex:
            engine.wait(engine.search(args.algorithm, vertex, k=args.k))
        docs = [trace.to_dict()
                for trace in explorer.engine.tracer.traces(
                    limit=args.last)]
    if args.json:
        print(json.dumps(docs, indent=1))
        return 0
    if not docs:
        print("no traces recorded")
        return 1
    for doc in docs:
        print(format_waterfall(doc))
        print()
    return 0


def _cmd_serve(args):
    explorer = _load_explorer(args)
    explorer.index()
    if args.server == "async":
        from repro.server.async_app import make_async_server

        server = make_async_server(explorer, host=args.host,
                                   port=args.port)
        server.start_background()
        host, port = server.server_address
        print("C-Explorer serving on http://{}:{}/ (asyncio)".format(
            host, port))
        try:
            import time as _time
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            server.shutdown()
            explorer.engine.shutdown(wait=False)
        return 0
    server = make_server(explorer, host=args.host, port=args.port)
    host, port = server.server_address
    print("C-Explorer serving on http://{}:{}/".format(host, port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
        explorer.engine.shutdown(wait=False)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-Explorer: browsing communities in large graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic DBLP graph")
    p.add_argument("--authors", type=int, default=2000)
    p.add_argument("--communities", type=int, default=24)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    def common(p, with_vertex=True):
        p.add_argument("--graph", required=True,
                       help="edge-list or JSON graph file")
        p.add_argument("--index", help="prebuilt CL-tree JSON")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--workers", type=int, default=2,
                       help="engine worker threads (default 2)")
        p.add_argument("--backend", default="thread",
                       choices=["thread", "process"],
                       help="execution backend: 'process' runs "
                            "ACQ-family searches in a multiprocessing "
                            "pool over frozen CSR snapshots (default "
                            "thread)")
        p.add_argument("--fault-plan",
                       help="seeded fault-injection plan for chaos "
                            "testing: a spec string like "
                            "'seed=7;kill:full_query@0.05' or a path to a "
                            "JSON plan file (default: the "
                            "REPRO_FAULT_PLAN environment variable)")
        if with_vertex:
            p.add_argument("--vertex", required=True)
            p.add_argument("-k", type=int, default=4,
                           help="minimum degree (default 4)")

    p = sub.add_parser("search", help="community search for a vertex")
    common(p)
    p.add_argument("--algorithm", default="acq")
    p.add_argument("--keywords", nargs="*",
                   help="restrict S to these keywords")
    p.add_argument("--draw", action="store_true",
                   help="ASCII-render each community")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("compare", help="Figure 6 comparison analysis")
    common(p)
    p.add_argument("--methods", nargs="+",
                   default=list(DEFAULT_METHODS))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("detect", help="whole-graph community detection")
    common(p, with_vertex=False)
    p.add_argument("--algorithm", default="label-propagation")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("index", help="build and save the CL-tree")
    common(p, with_vertex=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("profile", help="show an author profile card")
    p.add_argument("--name", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("serve", help="run the web system")
    common(p, with_vertex=False)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--server", default="sync",
                   choices=["sync", "async"],
                   help="'async' serves through the asyncio front-end "
                        "(default sync)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace", help="print a waterfall of recent query traces")
    p.add_argument("--url",
                   help="base URL of a running server (reads its "
                        "/v1/traces endpoints)")
    p.add_argument("--graph", help="edge-list or JSON graph file "
                                   "(local mode)")
    p.add_argument("--vertex", action="append",
                   help="query vertex; repeatable (local mode)")
    p.add_argument("--algorithm", default="auto")
    p.add_argument("-k", type=int, default=4,
                   help="minimum degree (default 4)")
    p.add_argument("--last", type=int, default=5,
                   help="how many recent traces to print (default 5)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--backend", default="thread",
                   choices=["thread", "process"])
    p.add_argument("--json", action="store_true",
                   help="print the raw trace documents")
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CExplorerError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into e.g. `head`; not an error.
        devnull = open("/dev/null", "w")
        sys.stdout = devnull
        return 0


if __name__ == "__main__":
    sys.exit(main())
