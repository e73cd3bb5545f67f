"""Schema alignment: exact-first lookup, then soft matching under a robustness mode.

High robustness retrieves up to 10 similar candidates and substitutes the best
one if it scores at least DEFAULT_THRESHOLD; low robustness rejects any
non-exact term and feeds back only the single nearest candidate.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

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


def _jaccard(ta: set[str], tb: set[str]) -> float:
    if not ta or not tb:
        return 0.0
    inter = len(ta & tb)
    if inter == 0:
        return 0.0
    return inter / (len(ta) + len(tb) - inter)


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

    The terms of a namespace are distinct. The soft-matching tables of a
    namespace are built on its first non-exact lookup and live as long as the
    index, which `planhorizon run` builds once per run."""

    terms: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def namespace(self, namespace: str) -> tuple[str, ...]:
        if namespace not in NAMESPACES:
            raise UnknownNamespaceError(f"unknown namespace {namespace!r}")
        return self.terms.get(namespace, ())

    def match_tables(self, namespace: str):
        """(normalized form -> first term with that form, ((term, trigrams of
        its normalized form), ...) in vocabulary order) for one namespace."""
        tables = self._tables.get(namespace)
        if tables is None:
            by_norm: dict[str, str] = {}
            grams = []
            for term in self.namespace(namespace):
                norm = _normalize(term)
                by_norm.setdefault(norm, term)
                grams.append((term, _trigrams(norm)))
            tables = self._tables[namespace] = (by_norm, tuple(grams))
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
    vocabulary = index.namespace(namespace)
    if term in vocabulary:
        return GroundingResult("exact", term, ())
    by_norm, grams = index.match_tables(namespace)
    norm = _normalize(term)
    if norm in by_norm:
        return GroundingResult("exact", by_norm[norm], ())

    # no candidate is normalized-equal here, so similarity is the plain Jaccard
    query = _trigrams(norm)
    limit = MAX_CANDIDATES_LOW if mode == "low" else MAX_CANDIDATES_HIGH
    # nsmallest is a stable sort truncated to `limit`
    top = tuple(heapq.nsmallest(
        limit, ((cand, _jaccard(query, cand_grams)) for cand, cand_grams in grams),
        key=lambda pair: -pair[1]))
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
