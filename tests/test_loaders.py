"""The KB and graph loaders keep every check: on valid documents, on
documents broken in one place and on documents with one list field, or one
id, name, key or reference, holding something else, `kb.load_kb` and `atomic.load_graph` return the store the
reference loaders in `oracles` return, or raise the same exception type with
the same message."""

import copy

from hypothesis import given
from hypothesis import strategies as st

from planhorizon import atomic, kb as kbmod

import oracles

# a value object of each kind, in its document form
VALUES = st.one_of(
    st.sampled_from(["tall", "Paris", ""]).map(lambda v: {"kind": "string", "value": v}),
    st.tuples(st.one_of(st.integers(-3, 3), st.sampled_from([0.5, 206.0])),
              st.sampled_from([None, "kilogram"])).map(
        lambda vu: {"kind": "number", "value": vu[0], **({"unit": vu[1]} if vu[1] else {})}),
    st.integers(1990, 1992).map(lambda v: {"kind": "year", "value": v}),
    st.sampled_from(["1990-01-02", "2003-12-31"]).map(lambda v: {"kind": "date", "value": v}),
)
# a qualifier list as a document may hold it: absent, null, empty or filled
QUALIFIERS = st.one_of(
    st.just({}), st.just({"qualifiers": None}), st.just({"qualifiers": []}),
    st.lists(st.fixed_dictionaries({"key": st.sampled_from(["since", "measured"]),
                                    "value": VALUES}), min_size=1, max_size=2).map(
        lambda qs: {"qualifiers": qs}))
NOT_OBJECTS = (5, "x", [], None, True)
# what a list field may hold instead of a list; null reads as empty
NOT_LISTS = (5, 0, "x", "", {}, True, False, None)
# what an id, name, key or reference may hold instead of a string
NOT_STRINGS = (5, 1.5, True, None, ["x"], {"a": 1})
# ways to break a value object
VALUE_BREAKS = (
    ("kind", "colour"), ("kind", 5), ("value", "tall"), ("value", [1]), ("value", None),
    ("value", "1990-13-01"), ("value", 1e400), ("unit", "kilogram"), ("unit", 5),
)


@st.composite
def kb_documents(draw):
    concept_ids = [f"c{i}" for i in range(draw(st.integers(0, 3)))]
    concepts = [{"id": cid, "name": cid.upper(),
                 "subclass_of": draw(st.lists(st.sampled_from(concept_ids[:i]), unique=True,
                                              max_size=1)) if i else []}
                for i, cid in enumerate(concept_ids)]
    ids = [f"e{i}" for i in range(draw(st.integers(1, 4)))]
    entities = []
    for eid in ids:
        entity = {"id": eid, "name": draw(st.sampled_from(["Ada", "Bo"]))}
        if concept_ids:
            entity["instance_of"] = draw(st.lists(st.sampled_from(concept_ids), unique=True,
                                                  max_size=2))
        entity["attributes"] = [
            {"key": draw(st.sampled_from(["mass", "founded"])), "value": draw(VALUES),
             **draw(QUALIFIERS)}
            for _ in range(draw(st.integers(0, 2)))]
        entity["relations"] = []
        for _ in range(draw(st.integers(0, 2))):
            relation = {"predicate": "p", "target": draw(st.sampled_from(ids)),
                        **draw(QUALIFIERS)}
            direction = draw(st.sampled_from([None, "forward", "backward"]))
            if direction:
                relation["direction"] = direction
            entity["relations"].append(relation)
        entities.append(entity)
    return {"concepts": concepts, "entities": entities}


@st.composite
def graph_documents(draw):
    ids = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    nodes = [{"id": nid, "name": draw(st.sampled_from(["Ada", "Bo"])),
              "classes": draw(st.lists(st.sampled_from(["C", "D"]), unique=True, max_size=2))}
             for nid in ids]
    objects = st.one_of(st.sampled_from(ids).map(lambda o: {"o_node": o}),
                        VALUES.map(lambda v: {"o_literal": v}))
    triples = [{"s": draw(st.sampled_from(ids)), "p": draw(st.sampled_from(["p", "q"])),
                **draw(objects)} for _ in range(draw(st.integers(0, 4)))]
    return {"nodes": nodes, "triples": triples}


def _items(doc):
    """(path, required keys) of every object a loader checks, and the paths
    of every value object."""
    items, values = [], []
    for i in range(len(doc.get("concepts", []))):
        items.append((("concepts", i), ("id", "name")))
    for i, e in enumerate(doc.get("entities", [])):
        items.append((("entities", i), ("id", "name")))
        for part, keys in (("attributes", ("key", "value")),
                           ("relations", ("predicate", "target"))):
            for j, fact in enumerate(e[part]):
                items.append((("entities", i, part, j), keys))
                if part == "attributes":
                    values.append(("entities", i, part, j, "value"))
                for k, _ in enumerate(fact.get("qualifiers") or []):
                    items.append((("entities", i, part, j, "qualifiers", k), ("key", "value")))
                    values.append(("entities", i, part, j, "qualifiers", k, "value"))
    for i in range(len(doc.get("nodes", []))):
        items.append((("nodes", i), ("id", "name")))
    for i, t in enumerate(doc.get("triples", [])):
        items.append((("triples", i), ("s", "p")))
        if "o_literal" in t:
            values.append(("triples", i, "o_literal"))
    return items, values


def _at(doc, path):
    node = doc
    for key in path:
        node = node[key]
    return node


@st.composite
def broken(draw, documents):
    """A document from `documents`, left valid or broken in one place."""
    doc = draw(documents)
    items, values = _items(doc)
    how = draw(st.sampled_from(["none", "drop-key", "not-object", "value", "direction",
                                "duplicate-id", "dangling"]))
    if how == "drop-key":
        path, keys = draw(st.sampled_from(items))
        item = _at(doc, path)
        del item[draw(st.sampled_from([k for k in (*keys, "o_node", "o_literal") if k in item]))]
    elif how == "not-object":
        path, _ = draw(st.sampled_from(items))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(NOT_OBJECTS))
    elif how == "value" and values:
        path = draw(st.sampled_from(values))
        if draw(st.booleans()):
            key, value = draw(st.sampled_from(VALUE_BREAKS))
            _at(doc, path)[key] = value
        else:
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(NOT_OBJECTS))
    elif how == "direction":
        relations = [path for path, _ in items if "relations" in path and len(path) == 4]
        if relations:
            _at(doc, draw(st.sampled_from(relations)))["direction"] = "up"
    elif how == "duplicate-id":
        part = "entities" if "entities" in doc else "nodes"
        if "concepts" in doc and len(doc["concepts"]) > 1 and draw(st.booleans()):
            part = "concepts"
        if len(doc[part]) > 1:
            doc[part][-1]["id"] = doc[part][0]["id"]
    elif how == "dangling":
        if "entities" in doc:
            entity = draw(st.sampled_from(doc["entities"]))
            if entity["relations"] and draw(st.booleans()):
                draw(st.sampled_from(entity["relations"]))["target"] = "ghost"
            elif doc["concepts"] and draw(st.booleans()):
                draw(st.sampled_from(doc["concepts"]))["subclass_of"] = ["ghost"]
            else:
                entity["instance_of"] = ["ghost"]
        elif doc["triples"]:
            triple = draw(st.sampled_from(doc["triples"]))
            triple["o_node" if draw(st.booleans()) else "s"] = "ghost"
    return doc


def _list_fields(doc):
    """(object path, key) of every list field the loaders read."""
    fields = [((), key) for key in ("concepts", "entities", "nodes", "triples") if key in doc]
    fields += [(("concepts", i), "subclass_of") for i in range(len(doc.get("concepts", [])))]
    fields += [(("nodes", i), "classes") for i in range(len(doc.get("nodes", [])))]
    for i, e in enumerate(doc.get("entities", [])):
        fields += [(("entities", i), key) for key in ("attributes", "relations", "instance_of")]
        fields += [(("entities", i, part, j), "qualifiers")
                   for part in ("attributes", "relations") for j in range(len(e[part]))]
    return fields


@st.composite
def not_a_list(draw, documents):
    """A document from `documents` with one list field holding something else."""
    doc = draw(documents)
    path, key = draw(st.sampled_from(_list_fields(doc)))
    _at(doc, path)[key] = draw(st.sampled_from(NOT_LISTS))
    return doc


def _string_fields(node, path=()):
    """(object or list path, key) of every string outside a value object: the
    ids, names, keys, predicates and references the loaders read."""
    fields = []
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, str):
            fields.append((path, key))
        elif isinstance(value, (dict, list)) and key not in ("value", "o_literal"):
            fields += _string_fields(value, (*path, key))
    return fields


@st.composite
def not_a_string(draw, documents):
    """A document from `documents` with one such string replaced by another value."""
    doc = draw(documents)
    path, key = draw(st.sampled_from(_string_fields(doc)))
    _at(doc, path)[key] = draw(st.sampled_from(NOT_STRINGS))
    return doc


def _load(loader, doc):
    try:
        return loader(copy.deepcopy(doc))
    except Exception as exc:  # noqa: BLE001 - the failure is what is compared
        return type(exc), str(exc)


@given(broken(kb_documents()))
def test_load_kb_matches_reference(doc):
    assert _load(kbmod.load_kb, doc) == _load(oracles.load_kb, doc)


@given(broken(graph_documents()))
def test_load_graph_matches_reference(doc):
    assert _load(atomic.load_graph, doc) == _load(oracles.load_graph, doc)


@given(not_a_list(kb_documents()))
def test_load_kb_list_fields_match_reference(doc):
    loaded = _load(kbmod.load_kb, doc)
    assert loaded == _load(oracles.load_kb, doc)
    assert isinstance(loaded, kbmod.KnowledgeBase) or issubclass(loaded[0], kbmod.KBError)


@given(not_a_list(graph_documents()))
def test_load_graph_list_fields_match_reference(doc):
    loaded = _load(atomic.load_graph, doc)
    assert loaded == _load(oracles.load_graph, doc)
    assert isinstance(loaded, atomic.GraphStore) or issubclass(loaded[0], kbmod.KBError)


@given(not_a_string(kb_documents()))
def test_load_kb_string_fields_match_reference(doc):
    loaded = _load(kbmod.load_kb, doc)
    assert loaded == _load(oracles.load_kb, doc)
    assert isinstance(loaded, tuple) and issubclass(loaded[0], kbmod.KBError)


@given(not_a_string(graph_documents()))
def test_load_graph_string_fields_match_reference(doc):
    loaded = _load(atomic.load_graph, doc)
    assert loaded == _load(oracles.load_graph, doc)
    assert isinstance(loaded, tuple) and issubclass(loaded[0], kbmod.KBError)
