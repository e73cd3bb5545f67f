"""The indexed lookups (KB reverse adjacency and subclass map, graph-store
triple indexes, the stores' position maps, grounding tables, the corpus
answer map and trigram index) return exactly what full scans return: the
same ids, in the same order, with the same admitting facts, the same ranked
candidates and the same search answers."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import atomic, grounding, kb as kbmod, kopl, mocktools
from planhorizon.atomic import NodeSet
from planhorizon.grounding import Grounder, SchemaIndex, build_index
from planhorizon.kb import TypedValue
from planhorizon.kopl import EntitySet
from planhorizon.mocktools import MockCorpus, MockDocument

import oracles

# small pools, so that names repeat, edges collide and scores tie
NAMES = ("Ada", "Bo", "Cy")
PREDICATES = ("p", "q")
DIRECTIONS = ("forward", "backward")
FLIP = {"forward": "backward", "backward": "forward"}
# pools for the schema-term walk: "k" is also every drawn relation's
# qualifier key, "Ada" also an entity name
ATTRIBUTE_KEYS = ("a", "b")
QUALIFIER_KEYS = ("m", "k")
CLASSES = ("C", "D", "Ada")


@st.composite
def knowledge_bases(draw, attributes=False):
    """A random KB; with `attributes`, entities also hold attribute facts
    whose keys and qualifier keys come from small pools."""
    concept_ids = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    concepts = [
        # parents come from earlier concepts only, so the taxonomy is acyclic
        {"id": cid, "name": cid,
         "subclass_of": draw(st.lists(st.sampled_from(concept_ids[:i]), unique=True,
                                      max_size=2)) if i else []}
        for i, cid in enumerate(concept_ids)
    ]
    ids = [f"e{i}" for i in range(draw(st.integers(1, 6)))]
    relations = {eid: [] for eid in ids}
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(PREDICATES),
                                    st.sampled_from(DIRECTIONS), st.sampled_from(ids),
                                    st.booleans()), max_size=12))
    for k, (source, predicate, direction, target, both_ends) in enumerate(edges):
        # the qualifier tells apart edges that are otherwise equal
        qualifiers = [{"key": "k", "value": {"kind": "number", "value": k}}]
        relations[source].append({"predicate": predicate, "direction": direction,
                                  "target": target, "qualifiers": qualifiers})
        if both_ends:  # the same fact, stored on its other endpoint too
            relations[target].append({"predicate": predicate,
                                      "direction": FLIP[direction],
                                      "target": source, "qualifiers": qualifiers})
    entities = [
        {"id": eid, "name": draw(st.sampled_from(NAMES)),
         "instance_of": draw(st.lists(st.sampled_from(concept_ids), unique=True,
                                      max_size=2)),
         "relations": relations[eid]}
        for eid in ids
    ]
    if attributes:
        facts = st.fixed_dictionaries({
            "key": st.sampled_from(ATTRIBUTE_KEYS),
            "value": st.just({"kind": "number", "value": 0}),
            "qualifiers": st.lists(st.sampled_from(QUALIFIER_KEYS).map(
                lambda key: {"key": key, "value": {"kind": "year", "value": 1990}}),
                max_size=2)})
        for entity in entities:
            entity["attributes"] = draw(st.lists(facts, max_size=3))
    return kbmod.load_kb({"concepts": concepts, "entities": entities})


@given(knowledge_bases())
def test_neighbors_match_full_scan(kb):
    for eid in kb.entities:
        for predicate in PREDICATES:
            for direction in DIRECTIONS:
                assert (kopl._neighbors(kb, eid, predicate, direction)
                        == oracles.kopl_neighbors(kb, eid, predicate, direction))


@given(knowledge_bases(), st.data())
def test_relate_matches_full_scan(kb, data):
    ids = data.draw(st.lists(st.sampled_from(list(kb.entities)), unique=True))
    relation = data.draw(st.sampled_from(PREDICATES))
    direction = data.draw(st.sampled_from(DIRECTIONS))
    grounder = Grounder(build_index(kb))
    indexed = oracles.outcome_of(kopl.relate, kb, grounder, EntitySet(tuple(ids)),
                                 relation, direction)
    with mock.patch.object(kopl, "_neighbors", oracles.kopl_neighbors):
        scanned = oracles.outcome_of(kopl.relate, kb, grounder, EntitySet(tuple(ids)),
                                     relation, direction)
    assert indexed == scanned
    if indexed.ok:
        assert indexed.value.facts == scanned.value.facts


@given(knowledge_bases())
def test_concept_closure_matches_full_scan(kb):
    for cid in kb.concepts:
        assert kbmod.concept_closure(kb, cid) == oracles.concept_closure(kb, cid)


YEARS = st.integers(1990, 1992)
LITERALS = st.one_of(
    YEARS.map(lambda y: {"kind": "year", "value": y}),
    st.tuples(YEARS, st.integers(1, 12)).map(
        lambda ym: {"kind": "date", "value": f"{ym[0]}-{ym[1]:02d}-01"}),
    st.tuples(st.integers(0, 3), st.sampled_from([None, "minute"])).map(
        lambda nu: {"kind": "number", "value": nu[0], **({"unit": nu[1]} if nu[1] else {})}),
)


@st.composite
def graph_stores(draw, classes=False):
    """A random graph store; with `classes`, nodes also have classes."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    nodes = [{"id": nid, "name": draw(st.sampled_from(NAMES))} for nid in ids]
    if classes:
        for node in nodes:
            node["classes"] = draw(st.lists(st.sampled_from(CLASSES), unique=True,
                                            max_size=2))
    objects = st.one_of(st.sampled_from(ids).map(lambda o: {"o_node": o}),
                        LITERALS.map(lambda v: {"o_literal": v}))
    # subjects and node objects share one pool: self-loops, repeated
    # (subject, predicate) pairs and several literals per pair all occur
    triples = [{"s": s, "p": p, **o} for s, p, o in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(PREDICATES), objects),
        max_size=16))]
    return atomic.load_graph({"nodes": nodes, "triples": triples})


@given(graph_stores(), st.data())
def test_property_values_match_full_scan(store, data):
    ids = data.draw(st.lists(st.sampled_from(list(store.nodes))))
    for prop in PREDICATES:
        assert (atomic._property_values(store, ids, prop)
                == oracles.property_values(store, ids, prop))


@given(graph_stores(), st.data())
def test_triple_tools_match_full_scan(store, data):
    grounder = Grounder(build_index(store))
    node_ids = st.lists(st.sampled_from(list(store.nodes)), min_size=1).map(
        lambda ids: NodeSet(tuple(ids)))
    relation = data.draw(st.sampled_from(PREDICATES))

    target = data.draw(node_ids)
    for direction in DIRECTIONS:
        assert (oracles.outcome_of(atomic.find_relation, store, grounder, relation,
                                   direction, target)
                == oracles.find_relation(store, grounder, relation, direction, target))

    literal = TypedValue.from_json(data.draw(LITERALS))
    for operator in ("<", "<=", ">", ">="):
        assert (oracles.outcome_of(atomic.compare, store, grounder, operator, relation,
                                   literal)
                == oracles.compare(store, grounder, operator, relation, literal))

    nodes = data.draw(node_ids)
    year = data.draw(st.one_of(YEARS.map(str), st.just("NOW")))
    assert (oracles.outcome_of(atomic.time_constraint, store, grounder, nodes, relation,
                               year, 1991)
            == oracles.time_constraint(store, grounder, nodes, relation, year, 1991))


@given(st.one_of(knowledge_bases(), graph_stores()), st.data())
def test_store_order_matches_full_scan(source, data):
    """Ordering by the position map equals scanning the store: on the empty
    set, repeated ids, ids the store does not hold and every id it holds."""
    if isinstance(source, kbmod.KnowledgeBase):
        stored, ordered, scanned = list(source.entities), source.entity_order, oracles.entity_order
    else:
        stored, ordered, scanned = list(source.nodes), source.node_order, oracles.node_order
    drawn = data.draw(st.lists(st.sampled_from(stored + ["ghost", "n9", "e9"]), max_size=12))
    for ids in ([], drawn, drawn[::-1] + drawn, stored, stored[::-1]):
        assert ordered(ids) == scanned(source, ids)


@given(st.one_of(knowledge_bases(attributes=True), graph_stores(classes=True)))
def test_schema_terms_match_full_walk(source):
    walked = oracles.schema_terms(source)
    listed = source.schema_terms()
    assert {ns: tuple(listed.get(ns, ())) for ns in grounding.NAMESPACES} == walked
    # the same namespaces in the same order, each with its terms in order
    terms = build_index(source).terms
    assert list(terms.items()) == list(walked.items())


def test_corpus_lists_no_schema_terms():
    corpus = MockCorpus(documents=(MockDocument("Paris", "capital"),))
    assert build_index(corpus).terms == {ns: () for ns in grounding.NAMESPACES}


# few letters and the separators the normalizer folds: many terms are
# normalized-equal and many candidates tie on score
TERMS = st.text(alphabet="abAB _-", max_size=6)


@settings(max_examples=200)
@given(st.lists(TERMS, unique=True, max_size=12), st.lists(TERMS, min_size=1, max_size=4),
       st.sampled_from(["high", "low"]))
def test_ground_matches_full_scan(vocabulary, queries, mode):
    index = SchemaIndex(terms={"relation": tuple(vocabulary)})
    # later queries reuse the tables the first non-exact one built
    for query in queries:
        assert (grounding.ground(index, query, "relation", mode)
                == oracles.ground(index, query, "relation", mode))


# short texts over a few letters, case and the separators the normalizer
# folds: texts repeat or are normalized-equal, many are empty or shorter than
# a trigram, and many documents tie on score
TEXTS = st.text(alphabet="abA _.", max_size=5)


@settings(max_examples=300)
@given(st.lists(TEXTS, unique=True, max_size=8), st.lists(TEXTS, min_size=1, max_size=3),
       st.data())
def test_search_matches_full_scan(titles, texts, data):
    texts = [data.draw(st.sampled_from(texts)) for _ in titles]
    # a question is free text or some document's "title text", recased, so
    # that it is normalized-equal to that document
    questions = data.draw(st.lists(st.one_of(TEXTS, *(
        [st.sampled_from([f"{t} {x}".upper() for t, x in zip(titles, texts)])]
        if titles else [])), min_size=1, max_size=4))
    needles = [mocktools.normalize_question(q) for q in questions]
    corpus = MockCorpus(documents=tuple(
        MockDocument(title, text, {needle: f"{i}:{needle}" for needle in
                                   data.draw(st.lists(st.sampled_from(needles)))})
        for i, (title, text) in enumerate(zip(titles, texts))))
    # later searches reuse the tables the first one built; k runs past the
    # corpus size, where a lone answering document needs no ranking
    for question in questions:
        for k in range(1, len(titles) + 2):
            assert (oracles.outcome_of(mocktools.mock_search, corpus, question, k)
                    == oracles.mock_search(corpus, question, k))


# short strings over few letters: many are empty or shorter than a trigram,
# many repeat, and many share some trigrams but not all
NORMS = st.text(alphabet="ab ", max_size=6)


@settings(max_examples=300)
@given(st.lists(NORMS, max_size=10), st.lists(NORMS, min_size=1, max_size=4),
       st.integers(1, 12))
def test_trigram_index_matches_pairwise_jaccard(norms, queries, limit):
    index = grounding.TrigramIndex(norms)
    for query in queries:
        expected = [oracles._jaccard(grounding._trigrams(query), grounding._trigrams(norm))
                    for norm in norms]
        # bit-equal, not approximately equal: the same ints, divided once
        assert index.scores(query).tolist() == expected
        ranked = sorted(range(len(norms)), key=lambda i: (-expected[i], i))[:limit]
        assert index.ranked(query, limit) == [(i, expected[i]) for i in ranked]
