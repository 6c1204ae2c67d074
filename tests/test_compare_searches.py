"""``CExplorer.compare`` as one search per method (Figure 6).

A compare answers each method through :meth:`CExplorer.search` on its
own thread, so it shares the result cache, the shared ``global``
bodies, single-flight and the version record's derived values with
ordinary searches -- and its report must equal the registry-direct
:func:`compare_methods` one.
"""

import pytest

from repro.algorithms.registry import (
    get_cd_algorithm,
    get_cs_algorithm,
    list_cs_algorithms,
)
from repro.analysis import statistics
from repro.analysis.comparison import compare_methods
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import QueryError, UnknownAlgorithmError


def _explorer(graph, name="g"):
    explorer = CExplorer()
    explorer.add_graph(name, graph)
    return explorer


def _vertex_sets(report):
    return {method: [c.vertices for c in communities]
            for method, communities in report.results.items()}


def _counting(monkeypatch, info):
    """Count the calls reaching a registry entry's callable."""
    calls = []
    real = info.func

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(info, "func", counted)
    return calls


class TestSameReportAsTheRegistry:
    @pytest.mark.parametrize("graph_name, vertex, k, keywords", [
        ("dblp_small", "Jim Gray", 3, None),
        ("fig5", "A", 2, None),
        ("fig5", "A", 2, {"x", "y"}),
    ])
    def test_every_cs_algorithm(self, request, graph_name, vertex, k,
                                keywords):
        graph = request.getfixturevalue(graph_name)
        methods = tuple(list_cs_algorithms())
        want = compare_methods(graph, graph.id_of(vertex), k,
                               methods=methods, keywords=keywords)
        explorer = _explorer(graph)
        for _ in range(2):      # computed, then every answer cached
            got = explorer.compare(vertex, k=k, methods=methods,
                                   keywords=keywords)
            assert got.table_rows() == want.table_rows()
            assert _vertex_sets(got) == _vertex_sets(want)


class TestCompareSharesTheSearchPath:
    def test_compare_after_search_runs_no_acq(self, dblp_small,
                                              monkeypatch):
        explorer = _explorer(dblp_small)
        explorer.search("acq", "Jim Gray", k=3)
        calls = _counting(monkeypatch, get_cs_algorithm("acq"))
        hits = explorer.cache.hits
        report = explorer.compare("Jim Gray", k=3,
                                  methods=("acq", "local"))
        assert calls == []
        assert explorer.cache.hits - hits >= 1
        assert report.results["acq"] == explorer.search(
            "acq", "Jim Gray", k=3)

    def test_compare_is_one_trace_with_a_span_per_method(self,
                                                         dblp_small):
        explorer = _explorer(dblp_small)
        methods = ("global", "local", "acq")
        explorer.compare("Jim Gray", k=3, methods=methods)
        traces = explorer.engine.tracer.traces()
        assert [t.op for t in traces] == ["compare"]
        trace = traces[0]
        assert trace.status == "ok"
        assert "algorithm" not in trace.tags
        assert trace.tags["graph"] == "g" and trace.tags["k"] == 3
        roots = [i for i, s in enumerate(trace.spans) if s.parent is None]
        assert [trace.spans[i].name for i in roots] == ["execute"]
        children = [s for s in trace.spans if s.parent == roots[0]]
        assert [s.name for s in children] == ["search"] * len(methods)
        assert [s.tags["algorithm"] for s in children] == list(methods)
        assert children[0].tags["shared_body"] is False
        # A search's own spans nest under its method's span.
        plans = [s for s in trace.spans if s.name == "plan"]
        assert len(plans) == len(methods)
        assert all(trace.spans[s.parent].name == "search" for s in plans)

    def test_compare_never_queues_a_job(self, dblp_small):
        explorer = CExplorer(workers=1, max_queue=1)
        explorer.add_graph("g", dblp_small)
        engine = explorer.engine
        try:
            report = engine.wait(engine.submit(
                explorer.compare, "Jim Gray", k=3,
                methods=("global", "local", "acq"), op="compare",
                timeout=60), 60)
            counters = explorer.engine.snapshot()["counters"]
        finally:
            explorer.engine.shutdown()
        assert all(report.results.values())
        assert counters["submitted"] == 1

    def test_compare_after_an_update_reads_the_new_graph(self, fig5):
        explorer = _explorer(fig5)
        methods = ("global", "acq", "local", "codicil")
        before = explorer.compare("A", k=2, methods=methods)
        explorer.maintainer().insert_edge(fig5.id_of("A"),
                                          fig5.id_of("F"))
        after = explorer.compare("A", k=2, methods=methods)
        fresh = compare_methods(fig5, fig5.id_of("A"), 2,
                                methods=methods)
        assert _vertex_sets(after) == _vertex_sets(fresh)
        assert after.table_rows() == fresh.table_rows()
        assert fig5.id_of("F") in after.results["global"][0]
        assert fig5.id_of("F") not in before.results["global"][0]


class TestErrorRule:
    def test_negative_k_is_the_requests_error(self, dblp_small):
        explorer = _explorer(dblp_small)
        with pytest.raises(QueryError):
            explorer.compare("Jim Gray", k=-1, methods=("global",))
        with pytest.raises(QueryError):
            compare_methods(dblp_small, 0, -1, methods=("global",))

    def test_unknown_vertex_and_method_raise(self, dblp_small):
        explorer = _explorer(dblp_small)
        with pytest.raises(QueryError):
            explorer.compare("nobody at all", k=3)
        with pytest.raises(UnknownAlgorithmError):
            explorer.compare("Jim Gray", k=3, methods=("acq", "nope"))

    def test_method_query_error_is_an_empty_row(self, dblp_small):
        explorer = _explorer(dblp_small)
        report = explorer.compare("Jim Gray", k=1,
                                  methods=("k-truss", "global"))
        assert report.results["k-truss"] == []
        assert report.results["global"]

    def test_other_errors_propagate(self, dblp_small, monkeypatch):
        def broken(graph, q, k, keywords=None, **params):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(get_cs_algorithm("local"), "func", broken)
        explorer = _explorer(dblp_small)
        with pytest.raises(RuntimeError, match="kernel bug"):
            explorer.compare("Jim Gray", k=3, methods=("acq", "local"))
        with pytest.raises(RuntimeError, match="kernel bug"):
            compare_methods(dblp_small, dblp_small.id_of("Jim Gray"), 3,
                            methods=("local",))


class TestOncePerGraphVersion:
    def test_codicil_partitions_once_per_version(self, fig5,
                                                 monkeypatch):
        calls = _counting(monkeypatch, get_cd_algorithm("codicil"))
        explorer = _explorer(fig5)
        first = explorer.compare("A", k=2, methods=("codicil",))
        explorer.compare("E", k=2, methods=("codicil",))
        assert len(calls) == 1
        explorer.maintainer().insert_edge(fig5.id_of("A"),
                                          fig5.id_of("F"))
        explorer.compare("A", k=2, methods=("codicil",))
        assert len(calls) == 2
        assert _vertex_sets(first) == _vertex_sets(compare_methods(
            fig5, fig5.id_of("A"), 2, methods=("codicil",)))

    def test_codicil_with_params_skips_the_partition(self, fig5,
                                                     monkeypatch):
        explorer = _explorer(fig5)
        explorer.search("codicil", "A", k=2)
        calls = _counting(monkeypatch, get_cd_algorithm("codicil"))
        got = explorer.search("codicil", "A", k=2, alpha=0.0)
        want = get_cs_algorithm("codicil")(fig5, fig5.id_of("A"), 2,
                                           alpha=0.0)
        assert calls == []
        assert [c.vertices for c in got] == [c.vertices for c in want]

    def test_cpj_once_per_component(self, dblp_small, monkeypatch):
        explorer = _explorer(dblp_small)
        q = dblp_small.id_of("Jim Gray")
        other = min(explorer.search("global", q, k=3)[0].vertices - {q})
        calls = []
        real = statistics.cpj

        def counting(community, *args, **kwargs):
            calls.append(community)
            return real(community, *args, **kwargs)

        monkeypatch.setattr(statistics, "cpj", counting)
        rows = [explorer.compare(v, k=3, methods=("global",))
                .table_rows()[0] for v in (q, other)]
        assert len(calls) == 1
        assert rows[0]["cpj"] == rows[1]["cpj"]
