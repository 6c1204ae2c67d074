"""Community statistics: the table at the bottom of Figure 6(a).

For every method the UI reports the number of returned communities and
their average numbers of vertices, edges, and degrees; this module
computes those rows plus the extra structural measures the analysis
panel can chart.
"""

from repro.analysis.metrics import cmf, community_density, cpj


def body_cpj(community):
    """``cpj(community)`` at the default sample, computed once per
    :class:`~repro.core.community.CommunityBody`.

    CPJ depends on the member set alone, and a body belongs to one
    version of one graph, so every community sharing the body -- every
    ``global`` answer of one k-core component, a cached answer read by
    a second compare -- reuses the first value.
    """
    body = community.body
    if body.cpj is None:
        body.cpj = cpj(community)
    return body.cpj


def community_statistics(communities, query_vertex=None):
    """Aggregate statistics for one method's result list.

    Returns a dict shaped like one row of the Figure 6(a) table::

        {"communities": 3, "vertices": 39.0, "edges": 102.0,
         "degree": 5.2, "cpj": ..., "cmf": ..., "density": ...}

    ``vertices``/``edges`` are averages across the returned
    communities, as in the paper.  ``cpj``/``cmf`` are averaged too;
    ``cmf`` is only present when a query vertex is known.
    """
    count = len(communities)
    if count == 0:
        return {"communities": 0, "vertices": 0.0, "edges": 0.0,
                "degree": 0.0, "cpj": 0.0, "cmf": 0.0, "density": 0.0}
    vertices = sum(len(c) for c in communities) / count
    edges = sum(c.edge_count for c in communities) / count
    degree = sum(c.average_degree for c in communities) / count
    cpj_avg = sum(body_cpj(c) for c in communities) / count
    density = sum(community_density(c) for c in communities) / count
    row = {
        "communities": count,
        "vertices": round(vertices, 1),
        "edges": round(edges, 1),
        "degree": round(degree, 2),
        "cpj": round(cpj_avg, 4),
        "density": round(density, 4),
    }
    qv = query_vertex
    if qv is None and communities[0].query_vertices:
        qv = communities[0].query_vertices[0]
    if qv is not None:
        cmf_avg = sum(cmf(c, query_vertex=qv) for c in communities) / count
        row["cmf"] = round(cmf_avg, 4)
    else:
        row["cmf"] = 0.0
    return row


def statistics_table(results, query_vertex=None):
    """Assemble the full Figure 6(a) table.

    ``results`` maps method name -> list of communities.  Returns a
    list of row dicts (one per method, insertion order preserved), each
    with a ``"method"`` key first.
    """
    rows = []
    for method, communities in results.items():
        row = {"method": method}
        row.update(community_statistics(communities,
                                        query_vertex=query_vertex))
        rows.append(row)
    return rows


def format_table(rows, columns=("method", "communities", "vertices",
                                "edges", "degree")):
    """Render rows as the aligned text table the demo prints.

    Mirrors the Figure 6(a) layout: Method / Communities / Vertices /
    Edges / Degree.
    """
    headers = [c.capitalize() for c in columns]
    str_rows = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
