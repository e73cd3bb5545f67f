"""Schema alignment: exact-first lookup, then soft matching under a robustness mode.

High robustness retrieves up to 10 similar candidates and substitutes the best
one if it scores at least DEFAULT_THRESHOLD; low robustness rejects any
non-exact term and feeds back only the single nearest candidate.
"""

from __future__ import annotations

import itertools
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


# A trigram is one int64, c0 << 42 | c1 << 21 | c2, of its three code points
# (each below 2**21). A 1-2-character string has one pseudo-gram padded with
# _PAD, which is no code point, so it equals no real trigram.
_PAD = 0x110000


def _gram_codes(norms: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(code, row) of every trigram of every string, row its position in
    `norms`, from one pass over the strings joined; a trigram repeated in a
    string appears as often as it occurs. UTF-32 gives one int per code point
    (`surrogatepass`: a JSON document can carry a lone surrogate)."""
    lengths = np.array([len(norm) for norm in norms], dtype=np.int64)
    chars = np.frombuffer("".join(norms).encode("utf-32-le", "surrogatepass"),
                          dtype="<u4").astype(np.int64)
    row = np.repeat(np.arange(len(norms)), lengths)
    at = (row[:-2] == row[2:]).nonzero()[0]  # windows inside one string
    codes = chars[at] << 42 | chars[at + 1] << 21 | chars[at + 2]
    short = ((lengths == 1) | (lengths == 2)).nonzero()[0]
    head = (np.cumsum(lengths) - lengths)[short]
    second = np.where(lengths[short] == 2, np.append(chars, _PAD)[head + 1], _PAD)
    return (np.concatenate([codes, chars[head] << 42 | second << 21 | _PAD]),
            np.concatenate([row[at], short]))


def _query_codes(norm: str) -> np.ndarray:
    """The distinct trigram codes of one string, ascending, as `_gram_codes`
    codes them: plain Python, quicker than numpy on a query's few characters."""
    points = list(map(ord, norm))
    if 0 < len(points) < 3:
        points += [_PAD] * (3 - len(points))
    return np.array(sorted({a << 42 | b << 21 | c
                            for a, b, c in zip(points, points[1:], points[2:])}),
                    dtype=np.int64)


class TrigramIndex:
    """Trigram postings over a sequence of normalized strings, as sorted
    arrays built in one pass. `codes` holds each distinct trigram once,
    ascending; the positions of the strings holding `codes[g]` are
    `rows[bounds[g]:bounds[g + 1]]`, ascending; `sizes[i]` is the size of
    string i's trigram set. A query touches only its own trigrams' postings."""

    def __init__(self, norms):
        norms = list(norms)
        codes, rows = _gram_codes(norms)
        order = np.lexsort((rows, codes))
        codes, rows = codes[order], rows[order]
        pair = np.ones(len(codes), dtype=bool)
        pair[1:] = (codes[1:] != codes[:-1]) | (rows[1:] != rows[:-1])
        codes, rows = codes[pair], rows[pair]  # each (trigram, string) once
        gram = np.ones(len(codes), dtype=bool)
        gram[1:] = codes[1:] != codes[:-1]
        starts = gram.nonzero()[0]
        self.codes = codes[starts]
        self.bounds = np.append(starts, len(rows))
        self.rows = rows
        self.sizes = np.bincount(rows, minlength=len(norms))

    def touched(self, norm: str) -> tuple[np.ndarray, np.ndarray]:
        """(positions, scores) of the strings sharing a trigram with `norm`,
        positions ascending; each score is their trigram Jaccard, dividing
        the same ints as |q & s| / (|q| + |s| - |q & s|) does, once."""
        query = _query_codes(norm)
        at = np.searchsorted(self.codes, query)
        hit = at < len(self.codes)
        at = at[hit][self.codes[at[hit]] == query[hit]]
        if not len(at):
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        postings = np.concatenate([self.rows[self.bounds[g]:self.bounds[g + 1]]
                                   for g in at.tolist()])
        rows, inter = np.unique(postings, return_counts=True)
        return rows, inter / (len(query) + self.sizes[rows] - inter)

    def scores(self, norm: str) -> np.ndarray:
        """The trigram Jaccard of `norm` against each string, by position;
        0.0 for a string that shares no trigram with it."""
        rows, scores = self.touched(norm)
        dense = np.zeros(len(self.sizes))
        dense[rows] = scores
        return dense

    def ranked(self, norm: str, limit: int) -> list[tuple[int, float]]:
        """The first `limit` (position, score) pairs by descending score, ties
        by position; strings that share no trigram follow in position order."""
        rows, scores = self.touched(norm)
        # a stable sort of the touched positions alone, which are ascending
        best = np.argsort(-scores, kind="stable")[:limit]
        ranked = list(zip(rows[best].tolist(), scores[best].tolist()))
        if len(ranked) < limit:
            touched = set(rows.tolist())
            ranked += itertools.islice(((i, 0.0) for i in range(len(self.sizes))
                                        if i not in touched), limit - len(ranked))
        return ranked


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
    """A store's `schema_terms()`: namespace -> its distinct terms (dict keys)
    in vocabulary order. An exact lookup tests a namespace's own terms; its
    soft-matching tables are built on its first non-exact lookup and live as
    long as the index, which `planhorizon run` builds once per run."""

    terms: dict[str, dict[str, None]] = field(default_factory=dict)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def namespace(self, namespace: str) -> dict[str, None]:
        if namespace not in NAMESPACES:
            raise UnknownNamespaceError(f"unknown namespace {namespace!r}")
        return self.terms.get(namespace, {})

    def match_tables(self, namespace: str) -> tuple[dict[str, str], tuple[str, ...],
                                                    TrigramIndex]:
        """(normalized form -> first term with that form, the terms in
        vocabulary order, a trigram index over their normalized forms) for
        one namespace."""
        tables = self._tables.get(namespace)
        if tables is None:
            vocabulary = tuple(self.namespace(namespace))
            norms = [_normalize(term) for term in vocabulary]
            by_norm: dict[str, str] = {}
            for norm, term in zip(norms, vocabulary):
                by_norm.setdefault(norm, term)
            tables = self._tables[namespace] = (by_norm, vocabulary, TrigramIndex(norms))
        return tables


def build_index(source) -> SchemaIndex:
    """Index the schema terms a store lists, as `source.schema_terms()`
    returns them."""
    return SchemaIndex(terms=source.schema_terms())


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
    if term in index.namespace(namespace):
        return GroundingResult("exact", term, ())
    by_norm, vocabulary, trigram_index = index.match_tables(namespace)
    norm = _normalize(term)
    if norm in by_norm:
        return GroundingResult("exact", by_norm[norm], ())

    # no candidate is normalized-equal here, so similarity is the plain Jaccard
    limit = MAX_CANDIDATES_LOW if mode == "low" else MAX_CANDIDATES_HIGH
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
