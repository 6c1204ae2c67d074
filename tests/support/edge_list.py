"""Writer for the attributed edge-list format.

The library only reads this format (``repro.graph.io.read_edge_list``,
behind ``upload``); the tests write it to have files to upload.
"""


def write_edge_list(graph, path):
    """Write ``graph`` to ``path`` in the attributed edge-list format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("% attributed edge list, {} vertices {} edges\n".format(
            graph.vertex_count, graph.edge_count))
        for v in graph.vertices():
            kws = " ".join(sorted(graph.keywords(v)))
            f.write("#v {} {}\n".format(
                _escape(graph.display_name(v)), kws).rstrip() + "\n")
        for u, v in graph.edges():
            f.write("{} {}\n".format(
                _escape(graph.display_name(u)),
                _escape(graph.display_name(v))))


def _escape(token):
    """Encode spaces in labels so they survive whitespace tokenising."""
    return token.replace("\\", "\\\\").replace(" ", "\\_")
