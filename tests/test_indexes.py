"""The indexed lookups (KB reverse adjacency and subclass map, graph-store
triple, name, class and link indexes, the stores' position maps, grounding
tables, the corpus answer map and trigram index) return exactly what full
scans return, and the comparisons built once per call what compare_typed
returns per fact: the same ids, in the same order, with the same admitting
facts, the same ranked candidates and the same search answers. None of the
tables is built before its first use."""

import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import atomic, grounding, kb as kbmod, kopl, mocktools, tasks
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
def knowledge_bases(draw, attributes=False, values=None):
    """A random KB; with `attributes`, entities also hold attribute facts
    whose keys and qualifier keys come from small pools, and whose values and
    qualifier values come from `values` when given."""
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
        fact_values = st.just({"kind": "number", "value": 0}) if values is None else values
        qualifier_values = st.just({"kind": "year", "value": 1990}) if values is None else values
        facts = st.fixed_dictionaries({
            "key": st.sampled_from(ATTRIBUTE_KEYS),
            "value": fact_values,
            "qualifiers": st.lists(st.tuples(st.sampled_from(QUALIFIER_KEYS),
                                             qualifier_values).map(
                lambda kv: {"key": kv[0], "value": kv[1]}), max_size=2)})
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
def graph_stores(draw, classes=False, literals=LITERALS):
    """A random graph store; with `classes`, nodes also have classes, some
    listing one class twice; literal objects come from `literals`."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    nodes = [{"id": nid, "name": draw(st.sampled_from(NAMES))} for nid in ids]
    if classes:
        for node in nodes:
            node["classes"] = draw(st.lists(st.sampled_from(CLASSES), max_size=3))
    objects = st.one_of(st.sampled_from(ids).map(lambda o: {"o_node": o}),
                        literals.map(lambda v: {"o_literal": v}))
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
    # every namespace with its terms in order
    index = build_index(source)
    assert {ns: tuple(index.namespace(ns)) for ns in grounding.NAMESPACES} == walked


@pytest.mark.parametrize("robustness", ["high", "low"])
@pytest.mark.parametrize("name", ["kopl_tasks", "atomic_tasks", "mock_tasks"])
def test_set_up_builds_no_table(fixtures_dir, name, robustness):
    """Every lookup table is built on first use and kept with its store:
    loading a dataset and making its environment builds none."""
    env = tasks.load_dataset(fixtures_dir / f"{name}.json").make_env(robustness)
    store = {"kopl_tasks": "kb", "atomic_tasks": "store", "mock_tasks": "corpus"}[name]
    store = getattr(env, store)
    tables = {attr for attr, value in vars(type(store)).items()
              if isinstance(value, functools.cached_property)}
    if isinstance(store, atomic.GraphStore):
        assert {"by_name", "by_class", "links"} <= tables
    assert tables and not tables & vars(store).keys()
    assert env.grounder.index._tables == {}


def test_corpus_lists_no_schema_terms():
    corpus = MockCorpus(documents=(MockDocument("Paris", "capital"),))
    index = build_index(corpus)
    assert all(not index.namespace(ns) for ns in grounding.NAMESPACES)


# every kind, two units and two strings: values of another kind or unit meet
# each comparison, and so do strings under an ordering
VALUES = st.one_of(LITERALS, st.sampled_from(["x", "y"]).map(
    lambda text: {"kind": "string", "value": text}))
# one target of each kind and unit, each tested against every drawn value
TARGETS = tuple(TypedValue.from_json(doc) for doc in (
    {"kind": "year", "value": 1991}, {"kind": "date", "value": "1991-06-01"},
    {"kind": "number", "value": 1}, {"kind": "number", "value": 1, "unit": "minute"},
    {"kind": "string", "value": "x"}))
KOPL_OPERATORS = ("=", "!=", "<", ">", "≠", "==")
ATOMIC_OPERATORS = ("<", "<=", ">", ">=", "≤", "≥")


@settings(max_examples=200)
@given(graph_stores(classes=True), st.sampled_from(["high", "low"]),
       st.lists(st.sampled_from([*NAMES, *CLASSES, "Adx", "c", "1991", "1990-03-01",
                                 "2 minute", "3"]), min_size=1, max_size=4))
def test_extract_entity_matches_node_scan(store, mode, texts):
    """Names shared by several nodes, a class listed twice on one node, names
    that are also classes, near misses and literal inputs."""
    grounder = Grounder(build_index(store), mode)
    for text in texts:
        assert (oracles.outcome_of(atomic.extract_entity, store, grounder, text)
                == oracles.extract_entity(store, grounder, text))


@given(graph_stores(literals=VALUES))
def test_compare_matches_compare_typed_per_triple(store):
    grounder = Grounder(build_index(store))
    for relation, literal, operator in itertools.product(PREDICATES, TARGETS,
                                                         ATOMIC_OPERATORS):
        assert (oracles.outcome_of(atomic.compare, store, grounder, operator, relation,
                                   literal)
                == oracles.compare(store, grounder, operator, relation, literal))


@given(knowledge_bases(attributes=True, values=VALUES), st.data())
def test_attribute_filters_match_compare_typed_per_fact(kb, data):
    grounder = Grounder(build_index(kb))
    ids = tuple(data.draw(st.lists(st.sampled_from(list(kb.entities)), unique=True)))
    # each entity paired with all its facts, as a relate or filter leaves them
    with_facts = EntitySet(ids, tuple(kb.entities[i].attributes for i in ids))
    for target, op in itertools.product(TARGETS, KOPL_OPERATORS):
        for key in ATTRIBUTE_KEYS:
            # outcomes compare their entity sets' admitting facts too
            assert (oracles.outcome_of(kopl.filter_attribute, kb, grounder, EntitySet(ids),
                                       key, target, op)
                    == oracles.filter_attribute(kb, grounder, EntitySet(ids), key, target, op))
        for qkey in QUALIFIER_KEYS:
            for entities in (with_facts, EntitySet(ids)):
                assert (oracles.outcome_of(kopl.qualifier_filter, grounder, entities, qkey,
                                           target, op)
                        == oracles.qualifier_filter(grounder, entities, qkey, target, op))


@settings(max_examples=300)
@given(knowledge_bases(attributes=True, values=VALUES), st.data())
def test_queries_match_their_references(kb, data):
    """The query and select tools over empty and shared inputs, self-loops
    and facts stored on both ends: the same value or the same failure."""
    grounder = Grounder(build_index(kb))
    sets = st.lists(st.sampled_from(list(kb.entities)), unique=True).map(
        lambda ids: EntitySet(tuple(ids)))
    a = data.draw(sets)
    b = data.draw(st.one_of(st.just(a), sets))  # one entity on both sides, often
    calls = [("query_relation", (kb, a, b))]
    for key in ATTRIBUTE_KEYS:
        calls += [("query_attr", (kb, grounder, a, key))]
        calls += [("select_among", (kb, grounder, a, key, mode))
                  for mode in ("largest", "smallest")]
        calls += [("select_between", (kb, grounder, a, b, key, mode))
                  for mode in ("greater", "less")]
        for qkey, target in itertools.product(QUALIFIER_KEYS, TARGETS):
            calls += [("query_attr_under_condition", (kb, grounder, a, key, qkey, target)),
                      ("query_attr_qualifier", (kb, grounder, a, key, target, qkey))]
    calls += [("query_relation_qualifier", (kb, grounder, a, b, relation, qkey))
              for relation in PREDICATES for qkey in QUALIFIER_KEYS]
    for name, args in calls:
        assert (oracles.outcome_of(getattr(kopl, name), *args)
                == oracles.outcome_of(getattr(oracles, name), *args)), name


# few letters and the separators the normalizer folds: many terms are
# normalized-equal and many candidates tie on score
TERMS = st.text(alphabet="abAB _-", max_size=6)


@settings(max_examples=200)
@given(st.lists(TERMS, unique=True, max_size=12), st.lists(TERMS, min_size=1, max_size=4),
       st.sampled_from(["high", "low"]))
def test_ground_matches_full_scan(vocabulary, queries, mode):
    index = SchemaIndex(terms={"relation": dict.fromkeys(vocabulary)})
    # later queries reuse the tables the first non-exact one built
    for query in queries:
        assert (grounding.ground(index, query, "relation", mode)
                == oracles.ground(index, query, "relation", mode))


@given(st.one_of(knowledge_bases(attributes=True), graph_stores(classes=True)))
def test_ground_over_a_store_index_matches_full_scan(source):
    """Every namespace of a store's index under both modes: each of its terms
    in every namespace, a normalized-equal variant of each, near misses and
    terms no store holds."""
    index = build_index(source)
    terms = {term for ns in grounding.NAMESPACES for term in index.namespace(ns)}
    probes = [probe for term in sorted(terms)
              for probe in (term, f" {term.upper()}_", term + "x", term[:-1])]
    probes += ["", "zzz", "Adx"]
    for namespace, mode in itertools.product(grounding.NAMESPACES, ("high", "low")):
        for probe in probes:
            assert (grounding.ground(index, probe, namespace, mode)
                    == oracles.ground(index, probe, namespace, mode)), (probe, namespace)


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


# short strings over few letters, a non-ASCII letter, an astral character
# and a lone surrogate (a JSON document can carry one): many are empty or
# shorter than a trigram, many repeat, and many share some trigrams but not all
LETTERS = st.sampled_from(["a", "b", " ", "é", "\U0001F600", "\ud800"])
NORMS = st.text(alphabet=LETTERS, max_size=6)
SHORT_NORMS = st.text(alphabet=LETTERS, max_size=2)


@settings(max_examples=300)
@given(st.one_of(st.lists(NORMS, max_size=10), st.lists(SHORT_NORMS, max_size=10)),
       st.lists(NORMS, min_size=1, max_size=4), st.integers(1, 12))
def test_trigram_index_matches_pairwise_jaccard(norms, queries, limit):
    """Over empty and all-short vocabularies too."""
    index = grounding.TrigramIndex(norms)
    for query in queries:
        expected = [oracles._jaccard(oracles.trigrams(query), oracles.trigrams(norm))
                    for norm in norms]
        # bit-equal, not approximately equal: the same ints, divided once
        assert index.scores(query).tolist() == expected
        ranked = sorted(range(len(norms)), key=lambda i: (-expected[i], i))[:limit]
        assert index.ranked(query, limit) == [(i, expected[i]) for i in ranked]
