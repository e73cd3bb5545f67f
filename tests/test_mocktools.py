import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import grounding, harness, mocktools, tasks
from planhorizon.kb import MalformedDocumentError, read_document
from planhorizon.mocktools import (MockCorpus, MockDocument, load_corpus,
                                   mock_reasoning, mock_search)
from planhorizon.outcome import ToolFailure

import oracles


@pytest.fixture(scope="module")
def corpus(fixtures_dir):
    return load_corpus(read_document(fixtures_dir / "corpus.json"))


class TestCorpus:
    def test_unique_titles_enforced(self):
        with pytest.raises(MalformedDocumentError):
            MockCorpus(documents=(MockDocument("A", ""), MockDocument("A", "")))

    def test_top_k_floor(self):
        with pytest.raises(MalformedDocumentError):
            MockCorpus(documents=(), top_k=0)


class TestSearch:
    def test_rank_one_answer_at_k1(self, corpus):
        assert mock_search(corpus, "Where is the Eiffel Tower?", 1) == "Paris"

    def test_rank_three_case(self, corpus):
        q = "When was the Great Wall of China built?"
        ranked = [d.title for d in oracles.rank_documents(corpus, q)]
        assert ranked.index("Ming fortification records") == 2
        for k in (1, 2):
            with pytest.raises(ToolFailure):
                mock_search(corpus, q, k)
        assert mock_search(corpus, q, 3) == "7th century BC"
        assert mock_search(corpus, q, 10) == "7th century BC"

    def test_failure_message_shape(self, corpus):
        with pytest.raises(ToolFailure) as failed:
            mock_search(corpus, "What is the meaning of life?", 10)
        assert failed.value.feedback == (
            'Error in search: Failed to find the answer to "What is the meaning of life?"\n'
            "No supporting information found in the search result.\n"
            "Retry with a different question or try a different tool."
        )

    def test_empty_corpus_fails(self):
        with pytest.raises(ToolFailure):
            mock_search(MockCorpus(documents=()), "anything", 5)

    def test_question_normalization(self, corpus):
        assert mock_search(corpus, "where IS the eiffel tower", 1) == "Paris"

    def test_documents_are_trigrammed_on_the_first_search_only(self, fixtures_dir,
                                                                monkeypatch):
        # counts, not wall time: set-up must stay free of the table, and
        # rescoring the corpus per search is quadratic over a run
        trigrammed = []
        for coder in ("_gram_codes", "_query_codes"):
            code = getattr(grounding, coder)
            monkeypatch.setattr(grounding, coder, lambda arg, code=code:
                                trigrammed.append(arg) or code(arg))
        env = tasks.load_dataset(fixtures_dir / "mock_tasks.json").make_env("high")
        assert trigrammed == []
        corpus = env.corpus
        # the top k covers the corpus, and one document answers: no ranking
        assert corpus.top_k >= len(corpus.documents)
        assert mock_search(corpus, "Where is the Eiffel Tower?", corpus.top_k) == "Paris"
        assert trigrammed == []
        # the first search that ranks trigrams every document in one pass,
        # then its question; a later one only its question
        q = "When was the Great Wall of China built?"
        assert mock_search(corpus, q, 3) == "7th century BC"
        assert trigrammed == [[grounding._normalize(f"{d.title} {d.text}")
                               for d in corpus.documents], grounding._normalize(q)]
        trigrammed.clear()
        with pytest.raises(ToolFailure):
            mock_search(corpus, q, 2)
        assert trigrammed == [grounding._normalize(q)]


BAD_ARGUMENTS = [
    pytest.param("search", {}, "'question' is missing", id="search-missing"),
    pytest.param("search", {"question": 5}, "'question' must be a string, got 5",
                 id="search-number"),
    pytest.param("search", {"question": None}, "'question' must be a string, got None",
                 id="search-null"),
    pytest.param("reasoning", {}, "'instruction' is missing", id="reasoning-missing"),
    pytest.param("reasoning", {"instruction": 7}, "'instruction' must be a string, got 7",
                 id="reasoning-number"),
]


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("tool,args,problem", BAD_ARGUMENTS)
def test_bad_text_argument_is_a_failed_step(mock_dataset, planner, tool, args, problem):
    plan = json.dumps([{"tool": tool, "args": args, "final": True}])
    trace = harness.run_task(mock_dataset.tasks[0], lambda request: plan,
                             mock_dataset.make_env("high"), planner)
    assert trace.status in ("retry-budget-failed", "replan-budget-failed")
    assert trace.records and not any(rec.ok for rec in trace.records)
    assert trace.records[0].observation == f"Error in {tool}: argument {problem}"


class TestReasoning:
    def test_compare_earlier(self):
        assert mock_reasoning("compare(1959, 1961, earlier)") == "1959"

    def test_compare_larger(self):
        assert mock_reasoning("compare(180000, 67000, larger)") == "180000"

    def test_equality(self):
        assert mock_reasoning('equality("film director", "film director")') == "yes"
        assert mock_reasoning('equality("Paris", "Rome")') == "no"

    def test_pick(self):
        assert mock_reasoning('pick(numeric, abc, 42, xyz)') == "42"

    def test_unsupported_template(self):
        with pytest.raises(ToolFailure) as failed:
            mock_reasoning("ponder the nature of consciousness")
        assert "unsupported" in failed.value.feedback

    def test_compare_non_numeric_fails(self):
        with pytest.raises(ToolFailure) as failed:
            mock_reasoning("compare(apple, orange, earlier)")
        assert failed.value.feedback == "compare needs two numbers, got 'apple' and 'orange'"


def _random_corpus(rng):
    docs = []
    for i in range(rng.randint(1, 6)):
        words = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        answers = {}
        if rng.random() < 0.7:
            answers[" ".join(words[: rng.randint(1, len(words))])] = f"a{i}"
        docs.append(MockDocument(title=f"doc{i} " + words[0], text=" ".join(words),
                                 answers=answers))
    return MockCorpus(documents=tuple(docs))


def test_recall_monotonicity_randomized():
    """Success at top-k implies success at every larger k."""
    rng = random.Random(99)
    for _ in range(300):
        corpus = _random_corpus(rng)
        question = rng.choice(
            [q for d in corpus.documents for q in d.answers] or ["nothing here"]
        )
        results = [oracles.outcome_of(mock_search, corpus, question, k).ok
                   for k in range(1, len(corpus.documents) + 2)]
        for smaller, larger in zip(results, results[1:]):
            assert not smaller or larger


@settings(max_examples=50)
@given(st.text(max_size=30), st.integers(1, 12))
def test_determinism(question, k):
    import pathlib
    corpus = load_corpus(read_document(
        pathlib.Path(__file__).parent.parent / "fixtures" / "corpus.json"))
    first = oracles.outcome_of(mock_search, corpus, question, k)
    assert oracles.outcome_of(mock_search, corpus, question, k) == first
