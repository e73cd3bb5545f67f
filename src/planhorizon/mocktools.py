"""Desk-scale retrieval and reasoning tools for unstructured-environment runs.

Answerability is table-driven: each corpus document lists the normalized
questions it can answer. The contract under test is the harness's
failure/replan behavior, not QA quality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import grounding
from .harness import Environment
from .kb import MalformedDocumentError, require_keys, require_list, require_strings
from .outcome import Param, Tool, ToolFailure, ToolOutcome, ToolTable


@dataclass(frozen=True)
class MockDocument:
    title: str
    text: str
    answers: dict[str, str] = field(default_factory=dict)  # normalized q -> answer


@dataclass(frozen=True)
class MockCorpus:
    documents: tuple[MockDocument, ...]
    top_k: int = 10

    def __post_init__(self):
        titles = [d.title for d in self.documents]
        if len(set(titles)) != len(titles):
            raise MalformedDocumentError("document titles must be unique")
        if type(self.top_k) is not int or self.top_k < 1:
            raise MalformedDocumentError(f"top_k must be an integer >= 1, got {self.top_k!r}")

    def schema_terms(self) -> dict[str, dict[str, None]]:
        """No namespace has terms: the mock tools take free text."""
        return {}

    # Both tables are built on first use and kept with the corpus, which
    # lives for its run, or for as long as a `tasks.StoreHold` keeps it.
    @cached_property
    def answering(self) -> dict[str, tuple[int, ...]]:
        """Normalized question -> positions of the documents that answer it,
        in document order. Built on the first search."""
        positions: dict[str, list[int]] = {}
        for i, d in enumerate(self.documents):
            for needle in d.answers:
                positions.setdefault(needle, []).append(i)
        return {needle: tuple(rows) for needle, rows in positions.items()}

    @cached_property
    def search_index(self) -> grounding.TrigramIndex:
        """A trigram index over each document's normalized "title text".
        Built on the first search that has to rank."""
        return grounding.TrigramIndex(grounding._normalize(f"{d.title} {d.text}")
                                      for d in self.documents)


_PUNCT = re.compile(r"[^a-z0-9 ]+")


def normalize_question(text: str) -> str:
    return _PUNCT.sub("", text.lower()).strip()


def load_corpus(doc: dict) -> MockCorpus:
    """Load and validate a decoded corpus document."""
    documents = []
    for i, d in enumerate(require_list(doc, "documents")):
        loc = f"documents[{i}]"
        require_keys(d, ("title",), "document", loc)
        title, text, answers = d["title"], d.get("text", ""), d.get("answers", {})
        if type(title) is not str or type(text) is not str:
            require_strings({"title": title, "text": text}, ("title", "text"), loc)
        if not isinstance(answers, dict):
            raise MalformedDocumentError("answers must be an object", loc)
        normalized = {}
        for q, a in answers.items():
            if type(a) is not str:
                raise MalformedDocumentError(
                    f"the answer to {q!r} must be a string, not {type(a).__name__}", loc)
            normalized[normalize_question(q)] = a
        documents.append(MockDocument(title=title, text=text, answers=normalized))
    return MockCorpus(documents=tuple(documents), top_k=doc.get("top_k", MockCorpus.top_k))


def mock_search(corpus: MockCorpus, question: str, k: int) -> str:
    """The answer of the first document among the top k that answers
    `question`, documents ranked by descending trigram similarity of "title
    text" to it, ties in corpus order.

    That document is the answering one with the smallest key (-score,
    position). It is in the top k iff fewer than k documents have a smaller
    key, which always holds when k covers the corpus: a lone answering
    document there needs no ranking."""
    needle = normalize_question(question)
    positions = corpus.answering.get(needle, ())
    if len(positions) == 1 and k >= len(corpus.documents):
        return corpus.documents[positions[0]].answers[needle]
    if positions:
        # trigram Jaccard, and 1.0 where the texts are normalized-equal:
        # the two differ only for empty text, which has no trigrams
        norm = grounding._normalize(question)
        index = corpus.search_index
        scores = index.scores(norm) if norm else (index.sizes == 0).astype(float)
        rows = np.array(positions)
        best = int(rows[np.argmax(scores[rows])])  # argmax keeps the first of ties
        ahead = (np.count_nonzero(scores > scores[best])
                 + np.count_nonzero(scores[:best] == scores[best]))
        if ahead < k:
            return corpus.documents[best].answers[needle]
    raise ToolFailure(
        f'Error in search: Failed to find the answer to "{question}"\n'
        "No supporting information found in the search result.\n"
        "Retry with a different question or try a different tool."
    )


_COMPARE = re.compile(r"^\s*compare\s*\(\s*(.+?)\s*,\s*(.+?)\s*,\s*(\w+)\s*\)\s*$", re.I)
_EQUALITY = re.compile(r'^\s*equality\s*\(\s*"?(.*?)"?\s*,\s*"?(.*?)"?\s*\)\s*$', re.I)
_PICK = re.compile(r"^\s*pick\s*\(\s*(\w+)\s*,\s*(.+)\)\s*$", re.I)

_SMALLER = ("earlier", "smaller", "less", "lower", "fewer")
_LARGER = ("later", "larger", "greater", "more", "higher")


def mock_reasoning(instruction: str) -> str:
    """Deterministic evaluation of the supported reasoning templates:
    compare(a, b, mode), equality(a, b), pick(mode, v1, v2, ...)."""
    m = _COMPARE.match(instruction)
    if m:
        a, b, mode = m.group(1), m.group(2), m.group(3).lower()
        try:
            na, nb = float(a.replace(",", "")), float(b.replace(",", ""))
        except ValueError:
            raise ToolFailure(f"compare needs two numbers, got {a!r} and {b!r}") from None
        if mode in _SMALLER:
            winner = a if na <= nb else b
        elif mode in _LARGER:
            winner = a if na >= nb else b
        else:
            raise ToolFailure(f"unknown compare mode {mode!r}")
        return winner.strip()
    m = _EQUALITY.match(instruction)
    if m:
        same = normalize_question(m.group(1)) == normalize_question(m.group(2))
        return "yes" if same else "no"
    m = _PICK.match(instruction)
    if m:
        mode = m.group(1).lower()
        items = [part.strip().strip('"') for part in m.group(2).split(",")]
        if mode == "numeric":
            for item in items:
                try:
                    float(item.replace(",", ""))
                    return item
                except ValueError:
                    continue
        elif mode == "nonempty":
            for item in items:
                if item:
                    return item
        else:
            raise ToolFailure(f"unknown pick predicate {mode!r}")
        raise ToolFailure("no item satisfies the predicate")
    raise ToolFailure(
        "unsupported reasoning instruction; use compare(a, b, mode), "
        "equality(a, b), or pick(predicate, v1, v2, ...)"
    )


TOOLS = ToolTable("mock", globals(), {
    "search": Tool("Answers a single-hop question based on retrieved evidence", "mock_search",
                   ("corpus", Param("question"), "top_k")),
    "reasoning": Tool(
        "Performs logic/comparison over bound values: compare/equality/pick templates",
        "mock_reasoning", (Param("instruction"),)),
})


class MockEngine(Environment):
    """search and reasoning over one corpus. The tools take free text, so
    there are no schema terms to ground; low robustness restricts retrieval
    to the top hit."""

    catalog = TOOLS.catalog()
    params = TOOLS.params()

    def __init__(self, corpus: MockCorpus, robustness: str):
        super().__init__(corpus, robustness)
        self.corpus = corpus
        self.top_k = 1 if robustness == "low" else corpus.top_k

    def run_tool(self, tool: str, args: dict) -> ToolOutcome:
        return TOOLS.call(tool, args, {"corpus": self.corpus, "top_k": self.top_k})

    def render(self, value) -> str:
        return str(value)
