"""Deterministic interpreter for the 27 KoPL tools over a KnowledgeBase.

Every tool returns its output or raises ToolFailure, which the tool table
makes a failed step. An empty entity-set result fails the tool (except in
Count, whose zero is a valid value), and so does a schema term that grounds
to nothing, an argument the tool table rejects, or a qualifier filter over a
set without admitting facts. Tie-breaking is KB insertion order throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grounding import Grounder
from .harness import Environment
from .kb import (COMPARE_OPS, OP_ALIASES, KnowledgeBase, TypedValue, compare_typed,
                 concept_closure, KBError, value_test)
from .outcome import Param, ProgramError, Tool, ToolFailure, ToolOutcome, ToolTable, literal


class ContractViolationError(Exception):
    """An engine precondition was violated by the caller (not a tool failure)."""


@dataclass(frozen=True)
class EntitySet:
    """Ordered, duplicate-free entity ids; optionally paired with admitting facts."""

    ids: tuple[str, ...]
    facts: tuple[tuple, ...] | None = None  # one fact tuple per id, same order

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ContractViolationError("duplicate ids in EntitySet")
        if self.facts is not None and len(self.facts) != len(self.ids):
            raise ContractViolationError("facts must pair one list per entity")

    def __len__(self):
        return len(self.ids)


# ---------------------------------------------------------------------------
# The tool table: the 27 canonical tools, each with its parameters in the
# order its function takes them after the engine's kb and grounder.

def _set(name: str) -> Param:
    return Param(name, "set", (EntitySet,), "an entity set")


_ENTITIES, _LEFT, _RIGHT = _set("entities"), _set("left"), _set("right")
_KEY, _QKEY, _RELATION = Param("key"), Param("qkey"), Param("relation")
_INPUT = Param("input", "value-ref", (TypedValue,), "a queried attribute value")
_OP = Param("op", "op", default="=", choices=(*COMPARE_OPS, *OP_ALIASES))
_KG = ("kb", "grounder")

TOOLS = ToolTable("KoPL", globals(), {
    "FindAll": Tool("Look up and return the set of all entities", "find_all", ("kb",)),
    "Find": Tool("Look up and return the entity set with the given name", "find",
                 (*_KG, Param("name"))),
    "FilterConcept": Tool(
        "Filter the input entity set to instances of a concept (including subclasses)",
        "filter_concept", (*_KG, _ENTITIES, Param("concept"))),
    "FilterStr": Tool("Filter the input entity set by a string attribute condition",
                      "filter_attribute", (*_KG, _ENTITIES, _KEY, literal("value", "string"))),
    "FilterNum": Tool("Filter the input entity set by a numeric attribute condition",
                      "filter_attribute",
                      (*_KG, _ENTITIES, _KEY, literal("value", "number"), _OP)),
    "FilterYear": Tool("Filter the input entity set by a year attribute condition",
                       "filter_attribute", (*_KG, _ENTITIES, _KEY, literal("value", "year"), _OP)),
    "FilterDate": Tool("Filter the input entity set by a date attribute condition",
                       "filter_attribute", (*_KG, _ENTITIES, _KEY, literal("value", "date"), _OP)),
    "QFilterStr": Tool("Filter the input entity set by a string qualifier of the admitting facts",
                       "qualifier_filter", ("grounder", _ENTITIES, _QKEY,
                                            literal("qvalue", "string"))),
    "QFilterNum": Tool("Filter the input entity set by a numeric qualifier of the admitting facts",
                       "qualifier_filter", ("grounder", _ENTITIES, _QKEY,
                                            literal("qvalue", "number"), _OP)),
    "QFilterYear": Tool("Filter the input entity set by a year qualifier of the admitting facts",
                        "qualifier_filter", ("grounder", _ENTITIES, _QKEY,
                                             literal("qvalue", "year"), _OP)),
    "QFilterDate": Tool("Filter the input entity set by a date qualifier of the admitting facts",
                        "qualifier_filter", ("grounder", _ENTITIES, _QKEY,
                                             literal("qvalue", "date"), _OP)),
    "Relate": Tool("Traverse to the entity set connected via a specified relation", "relate",
                   (*_KG, _ENTITIES, _RELATION,
                    Param("direction", "direction", default="forward",
                          choices=("forward", "backward")))),
    "And": Tool("Take the intersection of two entity sets", "set_op", (_LEFT, _RIGHT),
                fixed=("and",)),
    "Or": Tool("Take the union of two entity sets", "set_op", (_LEFT, _RIGHT), fixed=("or",)),
    "Count": Tool("Count an entity set", "count", (_ENTITIES,)),
    "SelectAmong": Tool("Select the entity with the largest or smallest attribute among a set",
                        "select_among", (*_KG, _ENTITIES, _KEY,
                                         Param("mode", "mode", choices=("largest", "smallest")))),
    "SelectBetween": Tool("Select from two entities the one whose attribute is greater or less",
                          "select_between", (*_KG, _LEFT, _RIGHT, _KEY,
                                             Param("mode", "mode", choices=("greater", "less")))),
    "VerifyStr": Tool("Verify that the queried string attribute equals a value", "verify",
                      (_INPUT, literal("value", "string"))),
    "VerifyNum": Tool("Verify that the queried numeric attribute meets a criterion", "verify",
                      (_INPUT, literal("value", "number"), _OP)),
    "VerifyYear": Tool("Verify that the queried year attribute meets a criterion", "verify",
                       (_INPUT, literal("value", "year"), _OP)),
    "VerifyDate": Tool("Verify that the queried date attribute meets a criterion", "verify",
                       (_INPUT, literal("value", "date"), _OP)),
    "QueryName": Tool("Access the name of the input entity set", "query_name",
                      ("kb", _ENTITIES)),
    "QueryRelation": Tool("Access the relation between two entities", "query_relation",
                          ("kb", _LEFT, _RIGHT)),
    "QueryAttr": Tool("Access a specified attribute value of the input entity set",
                      "query_attr", (*_KG, _ENTITIES, _KEY)),
    "QueryAttrUnderCondition": Tool(
        "Access an attribute value whose fact carries a given qualifier",
        "query_attr_under_condition", (*_KG, _ENTITIES, _KEY, _QKEY, literal("qvalue", "any"))),
    "QueryAttrQualifier": Tool(
        "Access a qualifier value of a specified attribute fact",
        "query_attr_qualifier", (*_KG, _ENTITIES, _KEY, literal("value", "any"), _QKEY)),
    "QueryRelationQualifier": Tool(
        "Access a qualifier value of a specified relation fact",
        "query_relation_qualifier", (*_KG, _LEFT, _RIGHT, _RELATION, _QKEY)),
})


# ---------------------------------------------------------------------------
# Core operations, and the first-match walks the lookups share

def _facts(kb: KnowledgeBase, ids, key: str):
    """The attribute facts under `key` of each entity of `ids` in turn."""
    return (fact for eid in ids for fact in kb.entities[eid].attributes if fact.key == key)


def _qualified(fact, qkey: str, test) -> bool:
    """Whether `fact` carries a `qkey` qualifier whose value passes `test`."""
    return any(k == qkey and test(v) for k, v in fact.qualifiers)


def _edges(kb: KnowledgeBase, ea: str, eb: str):
    """The relation edges from ea to eb: ea's forward edges to eb, then eb's
    backward edges to ea."""
    yield from (edge for edge in kb.entities[ea].relations
                if edge.direction == "forward" and edge.target == eb)
    yield from (edge for edge in kb.entities[eb].relations
                if edge.direction == "backward" and edge.target == ea)


def find_all(kb: KnowledgeBase) -> EntitySet:
    ids = tuple(kb.entities)
    if not ids:
        raise ToolFailure("the knowledge base contains no entities")
    return EntitySet(ids)


def find(kb: KnowledgeBase, grounder: Grounder, name: str) -> EntitySet:
    ids = kb.name_index.get(grounder.term(name, "entity-name"), ())
    if not ids:
        raise ToolFailure(f"no entity named {name!r}")
    return EntitySet(tuple(ids))


def filter_concept(kb: KnowledgeBase, grounder: Grounder, entities: EntitySet,
                   concept: str) -> EntitySet:
    matched = grounder.term(concept, "concept")
    by_name = [c.id for c in kb.concepts.values() if c.name == matched]
    closure: set[str] = set()
    for cid in by_name:
        closure |= concept_closure(kb, cid)
    kept = tuple(i for i in entities.ids if not closure.isdisjoint(kb.entities[i].instance_of))
    if not kept:
        raise ToolFailure(f"no entities are instances of {concept!r}")
    return EntitySet(kept)


def filter_attribute(kb: KnowledgeBase, grounder: Grounder, entities: EntitySet,
                     key: str, target: TypedValue, op: str = "=") -> EntitySet:
    key = grounder.term(key, "attribute-key")
    test = value_test(op, target)  # facts of another kind or unit do not match
    kept_ids, kept_facts = [], []
    for eid in entities.ids:
        admitting = tuple(fact for fact in kb.entities[eid].attributes
                          if fact.key == key and test(fact.value))
        if admitting:
            kept_ids.append(eid)
            kept_facts.append(admitting)
    if not kept_ids:
        raise ToolFailure(f"no entities satisfy {key} {op} {target.render()}")
    return EntitySet(tuple(kept_ids), tuple(kept_facts))


def qualifier_filter(grounder: Grounder, entities: EntitySet, qkey: str,
                     qvalue: TypedValue, op: str = "=") -> EntitySet:
    if entities.facts is None:
        raise ToolFailure("qualifier filters need the admitting facts of the previous filter")
    qkey = grounder.term(qkey, "qualifier-key")
    test = value_test(op, qvalue)
    kept_ids, kept_facts = [], []
    for eid, facts in zip(entities.ids, entities.facts):
        admitting = tuple(fact for fact in facts if _qualified(fact, qkey, test))
        if admitting:
            kept_ids.append(eid)
            kept_facts.append(admitting)
    if not kept_ids:
        raise ToolFailure(f"no admitting facts carry qualifier {qkey} {op} {qvalue.render()}")
    return EntitySet(tuple(kept_ids), tuple(kept_facts))


def _neighbors(kb: KnowledgeBase, eid: str, predicate: str, direction: str):
    """Targets reachable from eid via predicate in the given direction: its
    own edges, then the flipped edges stored towards it, a self-loop's too."""
    flip = "backward" if direction == "forward" else "forward"
    out = [(edge.target, edge) for edge in kb.entities[eid].relations
           if edge.predicate == predicate and edge.direction == direction]
    out.extend((source, edge) for source, edge in kb.incoming.get(eid, ())
               if edge.predicate == predicate and edge.direction == flip)
    return out


def relate(kb: KnowledgeBase, grounder: Grounder, entities: EntitySet,
           relation: str, direction: str = "forward") -> EntitySet:
    predicate = grounder.term(relation, "relation")
    seen: dict[str, list] = {}
    for eid in entities.ids:
        for target, edge in _neighbors(kb, eid, predicate, direction):
            seen.setdefault(target, []).append(edge)
    # deterministic order: KB insertion order
    ordered = kb.entity_order(seen)
    if not ordered:
        raise ToolFailure(f"no entities connected via {relation!r}")
    return EntitySet(ordered, tuple(tuple(seen[i]) for i in ordered))


def set_op(a: EntitySet, b: EntitySet, kind: str) -> EntitySet:
    if kind == "and":
        right = set(b.ids)
        ids = tuple(i for i in a.ids if i in right)
        if not ids:
            raise ToolFailure("the intersection is empty")
    elif kind == "or":
        left = set(a.ids)
        ids = tuple(a.ids) + tuple(i for i in b.ids if i not in left)
        if not ids:
            raise ToolFailure("the union of two empty sets is empty")
    else:
        raise ContractViolationError(f"bad set operation {kind!r}")
    return EntitySet(ids)


def count(entities: EntitySet) -> int:
    return len(entities.ids)  # zero is a valid value


def _number_attr(kb: KnowledgeBase, eid: str, key: str) -> TypedValue | None:
    return next((fact.value for fact in _facts(kb, (eid,), key)
                 if fact.value.kind == "number"), None)


def select_between(kb: KnowledgeBase, grounder: Grounder, a: EntitySet,
                   b: EntitySet, key: str, mode: str) -> str:
    if not a.ids or not b.ids:
        raise ToolFailure("SelectBetween needs two nonempty entity sets")
    key = grounder.term(key, "attribute-key")
    # non-singleton inputs take the first element of each (ambiguity noted)
    ea, eb = a.ids[0], b.ids[0]
    va, vb = _number_attr(kb, ea, key), _number_attr(kb, eb, key)
    if va is None or vb is None:
        missing = ea if va is None else eb
        raise ToolFailure(f"entity {kb.entities[missing].name!r} has no numeric attribute {key!r}")
    if va.unit != vb.unit:
        raise ToolFailure(f"unit mismatch comparing {key!r}: {va.unit!r} vs {vb.unit!r}")
    op = ">" if mode == "greater" else "<"
    # a tie breaks toward the first operand
    winner = ea if va.value == vb.value or compare_typed(va, op, vb) else eb
    return kb.entities[winner].name


def select_among(kb: KnowledgeBase, grounder: Grounder, entities: EntitySet,
                 key: str, mode: str) -> str:
    if not entities.ids:
        raise ToolFailure("SelectAmong needs a nonempty entity set")
    key = grounder.term(key, "attribute-key")
    valued = [(eid, _number_attr(kb, eid, key)) for eid in entities.ids]
    valued = [(eid, v) for eid, v in valued if v is not None]
    if not valued:
        raise ToolFailure(f"no entity in the set has numeric attribute {key!r}")
    units = {v.unit for _, v in valued}
    if len(units) > 1:
        raise ToolFailure(f"unit mismatch across {key!r}: {sorted(map(str, units))}")
    # the first of equal values wins
    best = (max if mode == "largest" else min)(valued, key=lambda item: item[1].value)
    return kb.entities[best[0]].name


def verify(queried: TypedValue, target: TypedValue, op: str = "=") -> str:
    try:
        return "yes" if compare_typed(queried, op, target) else "no"
    except KBError as exc:
        raise ToolFailure(f"cannot verify: {exc}") from None


def query_name(kb: KnowledgeBase, entities: EntitySet) -> str:
    if not entities.ids:
        raise ToolFailure("cannot query the name of an empty entity set")
    return kb.entities[entities.ids[0]].name


def query_attr(kb: KnowledgeBase, grounder: Grounder, entities: EntitySet,
               key: str) -> TypedValue:
    if not entities.ids:
        raise ToolFailure("cannot query an attribute of an empty entity set")
    key = grounder.term(key, "attribute-key")
    value = next((fact.value for fact in _facts(kb, entities.ids, key)), None)
    if value is None:
        raise ToolFailure(f"no value for attribute {key!r}")
    return value


def query_attr_under_condition(kb: KnowledgeBase, grounder: Grounder,
                               entities: EntitySet, key: str, qkey: str,
                               qvalue: TypedValue) -> TypedValue:
    key = grounder.term(key, "attribute-key")
    qkey = grounder.term(qkey, "qualifier-key")
    test = value_test("=", qvalue)
    value = next((fact.value for fact in _facts(kb, entities.ids, key)
                  if _qualified(fact, qkey, test)), None)
    if value is None:
        raise ToolFailure(f"no {key!r} fact carries qualifier {qkey} = {qvalue.render()}")
    return value


def query_relation(kb: KnowledgeBase, a: EntitySet, b: EntitySet) -> str:
    if not a.ids or not b.ids:
        raise ToolFailure("QueryRelation needs two nonempty entity sets")
    ea, eb = a.ids[0], b.ids[0]
    edge = next(_edges(kb, ea, eb), None)
    if edge is None:
        raise ToolFailure(f"no relation from {kb.entities[ea].name!r} to {kb.entities[eb].name!r}")
    return edge.predicate


def query_attr_qualifier(kb: KnowledgeBase, grounder: Grounder, entities: EntitySet,
                         key: str, value: TypedValue, qkey: str) -> TypedValue:
    key = grounder.term(key, "attribute-key")
    qkey = grounder.term(qkey, "qualifier-key")
    test = value_test("=", value)
    found = next((qv for fact in _facts(kb, entities.ids, key) if test(fact.value)
                  for qk, qv in fact.qualifiers if qk == qkey), None)
    if found is None:
        raise ToolFailure(f"no qualifier {qkey!r} on fact {key} = {value.render()}")
    return found


def query_relation_qualifier(kb: KnowledgeBase, grounder: Grounder, a: EntitySet,
                             b: EntitySet, relation: str, qkey: str) -> TypedValue:
    relation = grounder.term(relation, "relation")
    qkey = grounder.term(qkey, "qualifier-key")
    if not a.ids or not b.ids:
        raise ToolFailure("QueryRelationQualifier needs two nonempty sets")
    found = next((qv for edge in _edges(kb, a.ids[0], b.ids[0]) if edge.predicate == relation
                  for qk, qv in edge.qualifiers if qk == qkey), None)
    if found is None:
        raise ToolFailure(f"no qualifier {qkey!r} on the {relation!r} relation")
    return found


# ---------------------------------------------------------------------------
# Dispatch

def run_tool(kb: KnowledgeBase, grounder: Grounder, tool: str, args: dict) -> ToolOutcome:
    """Execute one KoPL tool (an unknown one raises ProgramError). Set/value-ref
    args must already be resolved objects."""
    return TOOLS.call(tool, args, {"kb": kb, "grounder": grounder})


def render_value(kb: KnowledgeBase, value) -> str:
    """Render any tool output as answer/observation text."""
    if isinstance(value, EntitySet):
        return "; ".join(kb.entities[i].name for i in value.ids)
    if isinstance(value, TypedValue):
        return value.render()
    return str(value)


class KoplEngine(Environment):
    """The KoPL tools over one knowledge base."""

    catalog = TOOLS.catalog()
    params = TOOLS.params()

    def __init__(self, kb: KnowledgeBase, robustness: str):
        super().__init__(kb, robustness)
        self.kb = kb

    def run_tool(self, tool: str, args: dict) -> ToolOutcome:
        return run_tool(self.kb, self.grounder, tool, args)

    def render(self, value) -> str:
        return render_value(self.kb, value)
