"""Schema alignment: exact-first lookup, then soft matching under a robustness mode.

High robustness retrieves up to 10 similar candidates and substitutes the best
one if it scores at least DEFAULT_THRESHOLD; low robustness rejects any
non-exact term and feeds back only the single nearest candidate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .outcome import ToolFailure

DEFAULT_THRESHOLD = 0.4
MAX_CANDIDATES_HIGH = 10
MAX_CANDIDATES_LOW = 1

NAMESPACES = ("entity-name", "concept", "attribute-key", "relation", "qualifier-key")


class GroundingError(Exception):
    pass


class UnknownNamespaceError(GroundingError):
    pass


_SEP = re.compile(r"[\s_\-./]+")


def _normalize(term: str) -> str:
    return _SEP.sub(" ", term.lower()).strip()


def _trigrams(term: str) -> set[str]:
    if len(term) < 3:
        return {term} if term else set()
    return {term[i : i + 3] for i in range(len(term) - 2)}


class TrigramIndex:
    """Trigram postings over a sequence of normalized strings: a query is
    scored against every string by touching only the postings of its own
    trigrams."""

    def __init__(self, norms):
        postings: dict[str, list[int]] = {}
        sizes = []
        for position, norm in enumerate(norms):
            grams = _trigrams(norm)
            sizes.append(len(grams))
            for gram in grams:
                postings.setdefault(gram, []).append(position)
        self.postings = {gram: np.array(rows, dtype=np.intp)
                         for gram, rows in postings.items()}
        self.sizes = np.array(sizes, dtype=np.intp)  # each string's trigram-set size

    def scores(self, norm: str) -> np.ndarray:
        """The trigram Jaccard of `norm` against each string, by position;
        0.0 for a string that shares no trigram with it. Each score divides
        the same ints as |q & s| / (|q| + |s| - |q & s|) does, once."""
        query = _trigrams(norm)
        scores = np.zeros(len(self.sizes))
        hits = [self.postings[gram] for gram in query if gram in self.postings]
        if hits:
            shared = np.bincount(np.concatenate(hits), minlength=len(self.sizes))
            rows = shared.nonzero()[0]
            inter = shared[rows]
            scores[rows] = inter / (len(query) + self.sizes[rows] - inter)
        return scores

    def ranked(self, norm: str, limit: int) -> list[tuple[int, float]]:
        """The first `limit` (position, score) pairs by descending score, ties
        by position; strings that share no trigram follow in position order."""
        scores = self.scores(norm)
        rows = scores.nonzero()[0]
        # a stable sort of the scored positions alone, which are ascending
        order = rows[np.argsort(-scores[rows], kind="stable")][:limit].tolist()
        if len(order) < limit:
            order += (scores == 0).nonzero()[0][:limit - len(order)].tolist()
        return [(i, float(scores[i])) for i in order]


@dataclass(frozen=True)
class GroundingResult:
    status: str  # exact | soft-matched | failed
    matched_term: str | None
    candidates: tuple[tuple[str, float], ...]  # (term, score), non-increasing

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass
class SchemaIndex:
    """Per-namespace term sets built from a store's `schema_terms()`.

    The terms of a namespace are distinct. The set of a namespace is built on
    its first lookup, its soft-matching tables on its first non-exact one;
    both live as long as the index, which `planhorizon run` builds once per
    run."""

    terms: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def namespace(self, namespace: str) -> tuple[str, ...]:
        if namespace not in NAMESPACES:
            raise UnknownNamespaceError(f"unknown namespace {namespace!r}")
        return self.terms.get(namespace, ())

    def term_set(self, namespace: str) -> frozenset[str]:
        """The terms of one namespace, for exact lookups."""
        found = self._sets.get(namespace)
        if found is None:
            found = self._sets[namespace] = frozenset(self.namespace(namespace))
        return found

    def match_tables(self, namespace: str) -> tuple[dict[str, str], TrigramIndex]:
        """(normalized form -> first term with that form, a trigram index over
        the normalized forms in vocabulary order) for one namespace."""
        tables = self._tables.get(namespace)
        if tables is None:
            by_norm: dict[str, str] = {}
            norms = []
            for term in self.namespace(namespace):
                norm = _normalize(term)
                by_norm.setdefault(norm, term)
                norms.append(norm)
            tables = self._tables[namespace] = (by_norm, TrigramIndex(norms))
        return tables


def build_index(source) -> SchemaIndex:
    """Index the schema terms a store lists: `source.schema_terms()` maps a
    namespace to its distinct terms in vocabulary order."""
    listed = source.schema_terms()
    return SchemaIndex(terms={ns: tuple(listed.get(ns, ())) for ns in NAMESPACES})


class Grounder:
    """Caches grounding per (term, namespace) under one robustness mode.

    `planhorizon run` builds one environment, hence one grounder and one
    schema index, per run: the memo and the index's tables serve every
    trajectory of the run."""

    def __init__(self, index: SchemaIndex, mode: str = "high"):
        if mode not in ("high", "low"):
            raise GroundingError(f"robustness mode must be high or low, got {mode!r}")
        self.index = index
        self.mode = mode
        self._cache: dict[tuple[str, str], GroundingResult] = {}

    def ground(self, term: str, namespace: str) -> GroundingResult:
        key = (term, namespace)
        if key not in self._cache:
            self._cache[key] = ground(self.index, term, namespace, self.mode)
        return self._cache[key]

    def term(self, term: str, namespace: str) -> str:
        """The schema term `term` grounds to; a term that grounds to nothing
        raises ToolFailure with the candidate feedback."""
        result = self.ground(term, namespace)
        if not result.ok:
            raise ToolFailure(format_candidate_feedback(result, term, namespace))
        return result.matched_term


def ground(index: SchemaIndex, term: str, namespace: str, mode: str) -> GroundingResult:
    """Ground a planner-supplied term against the schema. Exact match always wins.

    Candidates are ranked by trigram similarity; ties keep vocabulary order."""
    if term in index.term_set(namespace):
        return GroundingResult("exact", term, ())
    by_norm, trigram_index = index.match_tables(namespace)
    norm = _normalize(term)
    if norm in by_norm:
        return GroundingResult("exact", by_norm[norm], ())

    # no candidate is normalized-equal here, so similarity is the plain Jaccard
    limit = MAX_CANDIDATES_LOW if mode == "low" else MAX_CANDIDATES_HIGH
    vocabulary = index.namespace(namespace)
    top = tuple((vocabulary[i], score) for i, score in trigram_index.ranked(norm, limit))
    if mode == "low":
        return GroundingResult("failed", None, top)
    # top is sorted by descending score, so only the best can pass
    if top and top[0][1] >= DEFAULT_THRESHOLD:
        return GroundingResult("soft-matched", top[0][0], top)
    return GroundingResult("failed", None, top)


def format_candidate_feedback(result: GroundingResult, term: str, namespace: str) -> str:
    names = [cand for cand, _ in result.candidates]
    listing = ", ".join(names) if names else "(none)"
    return (
        f"No schema match for {term!r} in namespace {namespace}. "
        f"Nearest candidates: {listing}"
    )
