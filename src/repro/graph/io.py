"""Graph (de)serialisation -- the ``upload`` API of the paper (Fig. 4).

Two interchange formats are read (and JSON is written):

* **Edge-list format** -- the classic SNAP-style text file.  Lines are
  either ``u v`` (an edge between vertex labels) or, in the attributed
  variant, vertex lines ``#v label kw1 kw2 ...`` followed by edge
  lines.  Comments start with ``%``.  This is the format a public user
  would ``upload`` through the web UI.

* **JSON format** -- a structured document with explicit ``vertices``
  and ``edges`` arrays, used by the HTTP server and for round-tripping
  graphs with full attribute fidelity.
"""

import json

from repro.graph.attributed import AttributedGraph
from repro.util.errors import GraphFormatError

_VERTEX_PREFIX = "#v"
_COMMENT_PREFIX = "%"


def read_edge_list(path):
    """Parse the attributed edge-list format into an AttributedGraph.

    Plain two-column edge lists (no ``#v`` lines) are accepted too;
    vertices are then created on first sight with empty keyword sets.
    """
    graph = AttributedGraph()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIX):
                continue
            if line.startswith(_VERTEX_PREFIX):
                parts = line.split()
                if len(parts) < 2:
                    raise GraphFormatError(
                        "line {}: vertex line needs a label".format(lineno))
                label = _unescape(parts[1])
                keywords = [_unescape(p) for p in parts[2:]]
                if graph.has_label(label):
                    graph.set_keywords(graph.id_of(label), keywords)
                else:
                    graph.add_vertex(label, keywords)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    "line {}: expected 'u v', got {!r}".format(lineno, line))
            u = graph.ensure_vertex(_unescape(parts[0]))
            v = graph.ensure_vertex(_unescape(parts[1]))
            if u == v:
                raise GraphFormatError(
                    "line {}: self-loop on {!r}".format(lineno, parts[0]))
            graph.add_edge(u, v)
    return graph


def write_graph_json(graph, path=None):
    """Serialise ``graph`` to JSON; returns the document as a dict.

    When ``path`` is given the document is also written there.
    """
    doc = {
        "format": "c-explorer-graph",
        "version": 1,
        "vertices": [
            {
                "id": v,
                "label": graph.label(v),
                "keywords": sorted(graph.keywords(v)),
            }
            for v in graph.vertices()
        ],
        "edges": [[u, v] for u, v in graph.edges()],
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
    return doc


def read_graph_json(source):
    """Parse the JSON graph document (dict, JSON string, or file path)."""
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        with open(source, "r", encoding="utf-8") as f:
            doc = json.load(f)
    if doc.get("format") != "c-explorer-graph":
        raise GraphFormatError("not a c-explorer-graph JSON document")
    vertices = doc.get("vertices", [])
    graph = AttributedGraph()
    id_map = {}
    for entry in vertices:
        vid = graph.add_vertex(entry.get("label"), entry.get("keywords", ()))
        id_map[entry["id"]] = vid
    for edge in doc.get("edges", []):
        if len(edge) != 2:
            raise GraphFormatError("bad edge entry: {!r}".format(edge))
        u, v = edge
        if u not in id_map or v not in id_map:
            raise GraphFormatError("edge references unknown vertex: "
                                   "{!r}".format(edge))
        graph.add_edge(id_map[u], id_map[v])
    return graph


def load_graph(path):
    """Load a graph from ``path``, dispatching on extension.

    ``.json`` files go through :func:`read_graph_json`, everything else
    through :func:`read_edge_list`.  This is the implementation behind
    ``CExplorer.upload`` (Fig. 4 of the paper).
    """
    if str(path).endswith(".json"):
        return read_graph_json(path)
    return read_edge_list(path)


def _unescape(token):
    out = []
    i = 0
    while i < len(token):
        ch = token[i]
        if ch == "\\" and i + 1 < len(token):
            nxt = token[i + 1]
            out.append(" " if nxt == "_" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
