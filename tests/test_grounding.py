from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planhorizon import grounding, kb
from planhorizon.grounding import Grounder, build_index, ground

from oracles import trigram_similarity


def _trigrams(text: str) -> set:
    # the program's separators: whitespace, "_", "-", "." and "/"
    for sep in "_-./":
        text = text.replace(sep, " ")
    text = " ".join(text.lower().split())
    return {text[i:i + 3] for i in range(len(text) - 2)} if len(text) >= 3 else {text}


def oracle_similarity(a: str, b: str) -> float:
    ta, tb = _trigrams(a), _trigrams(b)
    if not ta and not tb:
        return 1.0
    return len(ta & tb) / len(ta | tb)


class TestTrigramSimilarity:
    def test_employees_vs_employee_counts(self):
        # 6 shared trigrams over a union of 14, hand-counted
        score = trigram_similarity("employees", "employee_counts")
        assert score == pytest.approx(float(Fraction(6, 14)))
        assert score >= grounding.DEFAULT_THRESHOLD

    def test_identical_after_normalization(self):
        assert trigram_similarity("Parent Organization", "parent_organization") == 1.0

    def test_disjoint(self):
        assert trigram_similarity("abc", "xyz") == 0.0

    @given(st.text(max_size=24), st.text(max_size=24))
    def test_matches_independent_oracle(self, a, b):
        assert trigram_similarity(a, b) == pytest.approx(oracle_similarity(a, b))

    @given(st.text(max_size=24), st.text(max_size=24))
    def test_symmetric_and_bounded(self, a, b):
        s = trigram_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == trigram_similarity(b, a)


@pytest.fixture()
def index(fixtures_dir):
    return build_index(kb.load_kb(kb.read_document(fixtures_dir / "mini_kb.json")))


class TestGround:
    def test_exact_match_wins(self, index):
        result = ground(index, "employee_counts", "attribute-key", "high")
        assert result.status == "exact"
        assert result.matched_term == "employee_counts"

    def test_soft_match_in_high_mode(self, index):
        result = ground(index, "employees", "attribute-key", "high")
        assert result.status == "soft-matched"
        assert result.matched_term == "employee_counts"

    def test_low_mode_fails_with_one_candidate(self, index):
        result = ground(index, "employees", "attribute-key", "low")
        assert result.status == "failed"
        assert result.matched_term is None
        assert len(result.candidates) == 1
        assert result.candidates[0][0] == "employee_counts"

    def test_high_mode_candidate_cap(self, index):
        result = ground(index, "zzzz-nothing-like-this", "entity-name", "high")
        assert result.status == "failed"
        assert len(result.candidates) <= 10

    def test_below_threshold_fails(self, index):
        result = ground(index, "altitude", "attribute-key", "high")
        assert result.status == "failed"

    def test_namespaces_are_separate(self, index):
        assert ground(index, "height", "attribute-key", "high").status == "exact"
        assert ground(index, "height", "relation", "high").status == "failed"

    def test_unknown_namespace(self, index):
        with pytest.raises(grounding.UnknownNamespaceError):
            ground(index, "x", "nope", "high")

    def test_later_misses_trigram_only_their_query(self, index, monkeypatch):
        # counts, not wall time: rescoring the vocabulary per miss is quadratic
        # over a run. The first miss trigrams the namespace in one pass, then
        # its query; a later miss only its query.
        trigrammed = []
        for coder in ("_gram_codes", "_query_codes"):
            code = getattr(grounding, coder)
            monkeypatch.setattr(grounding, coder, lambda arg, code=code:
                                trigrammed.append(arg) or code(arg))
        names = index.namespace("entity-name")
        assert ground(index, "Gogle", "entity-name", "high").status != "exact"
        assert trigrammed == [[grounding._normalize(name) for name in names], "gogle"]
        trigrammed.clear()
        assert ground(index, "Instagrm", "entity-name", "low").status == "failed"
        assert trigrammed == ["instagrm"]

    def test_exact_lookups_need_only_the_namespace_set(self, fixtures_dir):
        # an exact lookup tests the store's own terms and builds no table
        index = build_index(kb.load_kb(kb.read_document(fixtures_dir / "mini_kb.json")))
        assert ground(index, "height", "attribute-key", "low").status == "exact"
        assert index._tables == {}


class TestGrounder:
    def test_caching_is_deterministic(self, index):
        grounder = Grounder(index, mode="high")
        first = grounder.ground("employees", "attribute-key")
        assert grounder.ground("employees", "attribute-key") is first

    def test_mode_validation(self, index):
        with pytest.raises(grounding.GroundingError):
            Grounder(index, mode="medium")


class TestBuildIndex:
    def test_kb_namespaces(self, index):
        assert tuple(index.namespace("attribute-key")) == ("height", "employee_counts")
        assert tuple(index.namespace("qualifier-key")) == ("point in time",)
        assert "parent organization" in index.namespace("relation")
        assert "Google" in index.namespace("entity-name")
        assert set(index.namespace("concept")) == {"human", "business"}

    def test_graph_store_source(self, fixtures_dir):
        from planhorizon.atomic import load_graph
        gindex = build_index(load_graph(kb.read_document(fixtures_dir / "toy_graph.json")))
        assert "starring" in gindex.namespace("relation")
        assert "runtime" in gindex.namespace("relation")
        assert "Taylor Lautner" in gindex.namespace("entity-name")
        assert "film" in gindex.namespace("concept")
