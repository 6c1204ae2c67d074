"""The Comparison Analysis module (Figure 3, right; Figure 6).

Runs several CR algorithms on the same query and assembles everything
the analysis screen shows: the statistics table, the CPJ/CMF bar data,
pairwise overlap between methods' communities, and the per-method
community lists for the "view" links.  :func:`report` is the one loop;
:func:`compare_methods` feeds it straight from the algorithm registry,
and :meth:`CExplorer.compare
<repro.explorer.cexplorer.CExplorer.compare>` feeds it one
:meth:`~repro.explorer.cexplorer.CExplorer.search` per method.
"""

import time

from repro.algorithms.registry import get_cs_algorithm
from repro.analysis.statistics import format_table, statistics_table
from repro.util.errors import QueryError

# The four methods of the paper's Figure 6 screen.
DEFAULT_METHODS = ("global", "local", "codicil", "acq")


class ComparisonReport:
    """Everything the Figure 6 analysis screen displays, as data."""

    def __init__(self, query_vertex, k, results, timings):
        self.query_vertex = query_vertex
        self.k = k
        self.results = results      # method -> list[Community]
        self.timings = timings      # method -> seconds
        self._rows = None

    def table_rows(self):
        """Figure 6(a) statistics table rows.

        Computed once per report: CPJ samples up to 200 000 member
        pairs per community, and the document, the charts and the
        text rendering all read the same rows.
        """
        if self._rows is None:
            self._rows = statistics_table(
                self.results, query_vertex=self.query_vertex)
        return self._rows

    def quality_bars(self):
        """CPJ / CMF per method -- the bar charts of Figure 6(a).

        Returns ``{method: {"cpj": float, "cmf": float}}``, averaged
        across each method's communities: the ``cpj`` and ``cmf``
        columns of :meth:`table_rows`.
        """
        return {row["method"]: {"cpj": row["cpj"], "cmf": row["cmf"]}
                for row in self.table_rows()}

    def overlap_matrix(self):
        """Jaccard overlap of member sets between methods' top results.

        The "Similarity Analysis" panel: how much do the communities
        found by different algorithms actually agree?
        """
        methods = [m for m, cs in self.results.items() if cs]
        matrix = {}
        for a in methods:
            va = set().union(*(c.vertices for c in self.results[a]))
            for b in methods:
                vb = set().union(*(c.vertices for c in self.results[b]))
                inter = len(va & vb)
                union = len(va | vb)
                matrix[(a, b)] = round(inter / union, 4) if union else 0.0
        return matrix

    def render_text(self):
        """The whole report as text (the demo's terminal rendering)."""
        lines = ["Comparison analysis (q={}, k={})".format(
            self.query_vertex, self.k), ""]
        lines.append(format_table(self.table_rows()))
        lines.append("")
        lines.append("Quality (higher is better):")
        for method, bars in self.quality_bars().items():
            lines.append("  {:<12} CPJ={:<8} CMF={:<8}".format(
                method, bars["cpj"], bars["cmf"]))
        lines.append("")
        lines.append("Query time (seconds):")
        for method, seconds in self.timings.items():
            lines.append("  {:<12} {:.4f}".format(method, seconds))
        return "\n".join(lines)

    def to_dict(self):
        """JSON document for the HTTP `analyze` endpoint."""
        return {
            "query_vertex": self.query_vertex,
            "k": self.k,
            "table": self.table_rows(),
            "quality": self.quality_bars(),
            "timings": {m: round(t, 6) for m, t in self.timings.items()},
            "communities": {m: [c.to_dict() for c in cs]
                            for m, cs in self.results.items()},
        }


def report(q, k, methods, run, keywords=None):
    """Answer each method by ``run(method, q, k, keywords=keywords)``
    and build the report.

    ``timings`` is what each call took.  The error rule:

    * a negative ``k`` or an unregistered method name is the
      request's error and raises before any method runs;
    * a method that raises :class:`~repro.util.errors.QueryError`
      (k-truss below k=2, say) is recorded with an empty result,
      mirroring the UI's per-method error chips;
    * anything else -- an engine timeout, a bug -- propagates.
    """
    if k is not None and k < 0:
        raise QueryError("degree constraint k must be >= 0")
    for name in methods:
        get_cs_algorithm(name)
    results = {}
    timings = {}
    for name in methods:
        start = time.perf_counter()
        try:
            communities = run(name, q, k, keywords=keywords)
        except QueryError:
            communities = []
        timings[name] = time.perf_counter() - start
        results[name] = communities
    return ComparisonReport(q, k, results, timings)


def compare_methods(graph, q, k, methods=DEFAULT_METHODS, keywords=None,
                    method_params=None):
    """Run each named CS algorithm on ``(q, k)`` and build the report.

    ``method_params`` maps method name -> extra kwargs (e.g. a prebuilt
    CL-tree for ``acq`` or a precomputed partition for ``codicil``).
    Errors follow :func:`report`'s rule.
    """
    method_params = method_params or {}

    def run(name, q, k, keywords=None):
        return get_cs_algorithm(name)(graph, q, k, keywords=keywords,
                                      **method_params.get(name, {}))

    return report(q, k, methods, run, keywords=keywords)
