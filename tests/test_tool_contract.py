"""The tool contract: every function behind a tool table entry returns its
plain output or raises ToolFailure, and only `ToolTable.call` builds a
ToolOutcome.

Each function named in the three engines' tool tables is called directly,
over the fixture data, with arguments of the types its parameters bind to:
schema terms from the fixture vocabularies or free text, enum values from
their choices, entity and node sets of fixture ids, and literals parsed to
the `TypedValue` kind the table names."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import atomic, kopl, mocktools
from planhorizon.atomic import NodeSet, load_graph
from planhorizon.grounding import Grounder, build_index
from planhorizon.kb import TypedValue, load_kb, read_document
from planhorizon.kopl import EntitySet
from planhorizon.mocktools import load_corpus
from planhorizon.outcome import ToolFailure, ToolOutcome

from conftest import FIXTURES

KB = load_kb(read_document(FIXTURES / "mini_kb.json"))
STORE = load_graph(read_document(FIXTURES / "toy_graph.json"))
CORPUS = load_corpus(read_document(FIXTURES / "corpus.json"))
INDEXES = {"kopl": build_index(KB), "atomic": build_index(STORE)}
OUTPUTS = (EntitySet, NodeSet, TypedValue, str, int)


def words(vocabulary):
    """Terms of `vocabulary`, near misses of them and free text: grounding
    and lookups both succeed and fail."""
    terms = st.sampled_from(sorted(vocabulary))
    return st.one_of(terms, terms, terms.map(lambda term: term[:-1] + "x"),
                     st.text(max_size=12))


# each engine's schema terms, or the questions its corpus answers, and the
# terms of the namespace a parameter of each name is grounded in
WORDS = {engine: words({term for terms in index.terms.values() for term in terms})
         for engine, index in INDEXES.items()}
WORDS["mock"] = words({q for doc in CORPUS.documents for q in doc.answers})
NAMESPACES = {"name": "entity-name", "input": "entity-name", "concept": "concept",
              "key": "attribute-key", "qkey": "qualifier-key", "relation": "relation",
              "property": "relation"}
NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.floats())
UNITS = sorted({fact.value.unit for entity in KB.entities.values()
                for fact in entity.attributes if fact.value.kind == "number"} - {None})


def held_values():
    """The values the fixtures hold: graph literals, attribute values and
    qualifier values."""
    yield from (o for _s, _p, o in STORE.triples if isinstance(o, TypedValue))
    for entity in KB.entities.values():
        yield from (fact.value for fact in entity.attributes)
        for fact in (*entity.attributes, *entity.relations):
            yield from (value for _key, value in fact.qualifiers)


def or_held(kind, drawn):
    """`drawn`, or a value of `kind` the fixtures hold, so that lookups match."""
    held = sorted({value for value in held_values() if value.kind == kind}, key=repr)
    return st.one_of(drawn, st.sampled_from(held)) if held else drawn


VALUES = {
    "string": or_held("string", st.one_of(*WORDS.values()).map(
        lambda text: TypedValue("string", text))),
    "number": or_held("number", st.builds(TypedValue, st.just("number"), NUMBERS,
                                          st.one_of(st.none(), st.sampled_from(UNITS)))),
    "year": or_held("year", st.integers(-3000, 3000).map(lambda year: TypedValue("year", year))),
    "date": or_held("date", st.dates(datetime.date(1900, 1, 1)).map(
        lambda day: TypedValue("date", day))),
}
TYPED_VALUES = st.one_of(*VALUES.values())

# free reasoning instructions and the three templates over drawn operands
OPERANDS = st.one_of(WORDS["mock"], NUMBERS.map(str))
INSTRUCTIONS = st.one_of(
    st.text(max_size=30),
    st.builds("compare({}, {}, {})".format, OPERANDS, OPERANDS,
              st.sampled_from(["earlier", "larger", "sideways"])),
    st.builds('equality("{}", "{}")'.format, OPERANDS, OPERANDS),
    st.builds("pick({}, {})".format, st.sampled_from(["numeric", "nonempty", "odd"]),
              st.lists(OPERANDS, max_size=4).map(", ".join)),
)


@st.composite
def entity_sets(draw):
    """Fixture entities, with or without one tuple of KB facts per entity
    (attribute facts or relation edges, as filters and Relate leave them)."""
    ids = draw(st.lists(st.sampled_from(list(KB.entities)), unique=True, max_size=5))
    if draw(st.booleans()):
        return EntitySet(tuple(ids))
    facts = []
    for eid in ids:
        entity = KB.entities[eid]
        pool = list(entity.attributes) + list(entity.relations)
        facts.append(tuple(draw(st.lists(st.sampled_from(pool), max_size=3))) if pool else ())
    return EntitySet(tuple(ids), tuple(facts))


NODE_SETS = st.lists(st.sampled_from(list(STORE.nodes)), unique=True,
                     max_size=6).map(lambda ids: NodeSet(tuple(ids)))
ENGINE_SETS = {EntitySet: entity_sets(), NodeSet: NODE_SETS}


def argument(param, engine):
    """Values of the type an `engine` tool function gets for `param` once
    bound."""
    if param.choices:
        return st.sampled_from(param.choices)
    if param.takes[0] in ENGINE_SETS:
        return ENGINE_SETS[param.takes[0]]
    if param.takes == (TypedValue,):
        return TYPED_VALUES
    if param.parse is not None:
        return TYPED_VALUES if param.parse == "any" else VALUES[param.parse]
    if param.name == "instruction":
        return INSTRUCTIONS
    if param.takes == (str,) and engine in INDEXES and param.name in NAMESPACES:
        namespace = words(INDEXES[engine].terms[NAMESPACES[param.name]])
        return st.one_of(namespace, namespace, WORDS[engine])
    if param.takes == (str,):
        return WORDS[engine]
    return st.one_of(WORDS[engine], NUMBERS, st.sampled_from(["NOW", "2008", " now "]))


def contexts(engine):
    """The engine values a tool table passes its functions, as its engine
    sets them up under either robustness mode."""
    mode = st.sampled_from(["high", "low"])
    if engine == "kopl":
        return st.builds(lambda m: {"kb": KB, "grounder": Grounder(INDEXES["kopl"], m)}, mode)
    if engine == "atomic":
        return st.builds(lambda m, year: {"store": STORE, "eval_year": year,
                                          "grounder": Grounder(INDEXES["atomic"], m)},
                         mode, st.integers(1990, 2030))
    return st.builds(lambda k: {"corpus": CORPUS, "top_k": k},
                     st.sampled_from([1, CORPUS.top_k]))


TABLES = {"kopl": kopl.TOOLS, "atomic": atomic.TOOLS, "mock": mocktools.TOOLS}
TOOLS = [(engine, name) for engine, table in TABLES.items() for name in table.tools]


@pytest.mark.parametrize("engine,tool", TOOLS, ids=[f"{e}-{t}" for e, t in TOOLS])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_tool_returns_its_output_or_raises_tool_failure(engine, tool, data):
    table = TABLES[engine]
    entry = table.tools[tool]
    context = data.draw(contexts(engine))
    args = [context[p] if type(p) is str else data.draw(argument(p, engine), label=p.name)
            for p in entry.args]
    try:
        result = table.functions[entry.function](*args, *entry.fixed)
    except ToolFailure as failure:
        assert type(failure.feedback) is str and failure.feedback
        return
    assert not isinstance(result, ToolOutcome)
    assert type(result) in OUTPUTS, result

