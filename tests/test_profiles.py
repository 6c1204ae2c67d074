"""Tests for the author profile store (Figure 2)."""

from repro.explorer.profiles import ProfileStore


class TestProfileStore:
    def test_builtin_profiles_present(self):
        store = ProfileStore()
        assert "Jim Gray" in store
        assert "Michael Stonebraker" in store
        assert len(store) >= 7

    def test_stonebraker_card_matches_figure2(self):
        profile = ProfileStore().get("Michael Stonebraker")
        assert profile.areas == "Computer science"
        assert "Berkeley" in profile.institute
        assert "column-oriented" in profile.interests
        assert not profile.synthetic

    def test_unknown_name_synthesised(self):
        store = ProfileStore()
        profile = store.get("Totally Unknown Person")
        assert profile.synthetic
        assert profile.name == "Totally Unknown Person"
        assert profile.areas
        assert profile.institute
        assert profile.interests

    def test_synthesis_is_deterministic(self):
        store = ProfileStore()
        a = store.get("Wei Chen")
        b = store.get("Wei Chen")
        assert a.to_dict() == b.to_dict()


class TestAuthorProfile:
    def test_render_text_shape(self):
        profile = ProfileStore().get("Jim Gray")
        text = profile.render_text()
        assert text.startswith("Author Profile")
        assert "Name: Jim Gray" in text
        assert "Research interests:" in text

    def test_to_dict_keys(self):
        doc = ProfileStore().get("Gerhard Weikum").to_dict()
        assert set(doc) == {"name", "areas", "institute",
                            "research_interests", "synthetic"}

    def test_repr(self):
        assert "Jim Gray" in repr(ProfileStore().get("Jim Gray"))
