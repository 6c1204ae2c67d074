"""Tests for exploration sessions and the explorer's result cache."""

from repro.explorer.sessions import ExplorationSession, SessionStore


class TestExplorationSession:
    def test_record_and_history(self):
        session = ExplorationSession("s1")
        session.record("acq", "jim gray", 4, 1)
        session.record("global", "jim gray", 4, 1, keywords={"data"})
        assert len(session) == 2
        history = session.history()
        assert history[0]["algorithm"] == "global"  # most recent first
        assert history[0]["keywords"] == ["data"]
        assert history[1]["algorithm"] == "acq"

    def test_history_limit(self):
        session = ExplorationSession("s1")
        for i in range(5):
            session.record("acq", "v{}".format(i), 4, 1)
        assert len(session.history(limit=2)) == 2

    def test_last(self):
        session = ExplorationSession("s1")
        assert session.history(limit=1) == []
        session.record("acq", "v", 1, 0)
        session.record("acq", "x", 1, 0)
        assert [e["vertex"] for e in session.history(limit=1)] == ["x"]

    def test_max_entries_trim(self):
        session = ExplorationSession("s1", max_entries=3)
        for i in range(10):
            session.record("acq", "v{}".format(i), 4, 1)
        assert len(session) == 3
        assert session.history()[0]["vertex"] == "v9"


class TestSessionStore:
    def test_create_unique_ids(self):
        store = SessionStore()
        a, b = store.create(), store.create()
        assert a.session_id != b.session_id
        assert len(store) == 2

    def test_get_creates_when_allowed(self):
        store = SessionStore()
        session = store.get("browser-123")
        assert session.session_id == "browser-123"
        assert store.get("browser-123") is session

    def test_get_strict(self):
        store = SessionStore()
        assert store.get("ghost", create_missing=False) is None


class TestExplorerCacheIntegration:
    def test_repeated_search_hits_cache(self, dblp_small):
        from repro.explorer.cexplorer import CExplorer
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        first = explorer.search("acq", "jim gray", k=3)
        assert explorer.cache.stats()["misses"] >= 1
        second = explorer.search("acq", "jim gray", k=3)
        assert second is first  # the exact cached list
        assert explorer.cache.stats()["hits"] >= 1

    def test_cache_bypass(self, dblp_small):
        from repro.explorer.cexplorer import CExplorer
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        first = explorer.search("acq", "jim gray", k=3, use_cache=False)
        second = explorer.search("acq", "jim gray", k=3, use_cache=False)
        assert second is not first
        assert explorer.cache.stats()["hits"] == 0

    def test_replacing_graph_invalidates(self, dblp_small):
        from repro.explorer.cexplorer import CExplorer
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        explorer.search("acq", "jim gray", k=3)
        explorer.add_graph("dblp", dblp_small.copy())
        assert len(explorer.cache) == 0
