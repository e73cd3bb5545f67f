"""Immutable knowledge-base model: entities, concept taxonomy, typed values."""

from __future__ import annotations

import collections
import datetime
import functools
import graphlib
import json
import operator
import re
from dataclasses import dataclass, field


class KBError(Exception):
    pass


class MalformedDocumentError(KBError):
    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.message = message
        self.location = location

    def within(self, prefix: str) -> "MalformedDocumentError":
        """This error with its location nested under `prefix`, so that a loader
        formats an item's location only when the item is malformed."""
        return MalformedDocumentError(
            self.message, f"{prefix}.{self.location}" if self.location else prefix)


class DanglingReferenceError(KBError):
    pass


class CyclicTaxonomyError(KBError):
    pass


class UnknownConceptError(KBError):
    pass


class KindMismatchError(KBError):
    pass


class UnitMismatchError(KBError):
    pass


class UnsupportedOperatorError(KBError):
    pass


COMPARE_OPS = ("=", "!=", "<", ">")

# accepted aliases on input
OP_ALIASES = {"≠": "!=", "==": "="}


def _norm_op(op: str) -> str:
    op = OP_ALIASES.get(op, op)
    if op not in COMPARE_OPS:
        raise UnsupportedOperatorError(f"unknown comparison operator {op!r}")
    return op


def decode_text(data: bytes, path) -> str:
    """`data`, the bytes of the file at `path`, as text; bytes that are not
    UTF-8 raise MalformedDocumentError naming the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocumentError(
            f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path)) from None


def read_text(path) -> str:
    """The text of the UTF-8 file at `path` (see `decode_text`)."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)


def decode_document(data: bytes, path) -> dict:
    """The JSON object in `data`, the bytes of the data or task file at
    `path`. Bytes that are not UTF-8, or any top level but an object, raise
    MalformedDocumentError naming the file."""
    doc = json.loads(decode_text(data, path))
    if not isinstance(doc, dict):
        raise MalformedDocumentError(
            f"the top level must be a JSON object, not {type(doc).__name__}", str(path))
    return doc


def read_document(path) -> dict:
    """The JSON object in the data or task file at `path` (see
    `decode_document`)."""
    with open(path, "rb") as fh:
        return decode_document(fh.read(), path)


def require_keys(doc, keys: tuple[str, ...], what: str, location: str = "") -> None:
    """Raise MalformedDocumentError unless `doc` is an object holding every key."""
    if isinstance(doc, dict) and all(key in doc for key in keys):
        return
    raise MalformedDocumentError(f"{what} needs {' and '.join(keys)}", location)


def require_list(doc: dict, key: str, location: str = "") -> list:
    """The list `doc` holds under `key`, [] when the key is absent or null;
    any other value raises MalformedDocumentError naming the field."""
    value = doc.get(key)
    if type(value) is list:
        return value
    if value is None:
        return []
    raise MalformedDocumentError(f"{key} must be a list, not {type(value).__name__}",
                                 location)


def require_strings(doc: dict, keys: tuple[str, ...], location: str = "") -> None:
    """Raise MalformedDocumentError naming the first of `keys` whose value in
    `doc` is not a string. Loaders call it once a quick type check failed."""
    for key in keys:
        if type(doc[key]) is not str:
            raise MalformedDocumentError(
                f"{key} must be a string, not {type(doc[key]).__name__}", location)


def string_list(doc: dict, key: str, location: str = "") -> tuple[str, ...]:
    """The items of list field `key` (see `require_list`), each a string; any
    other item raises MalformedDocumentError naming it."""
    items = tuple(require_list(doc, key, location))
    for j, item in enumerate(items):
        if type(item) is not str:
            raise MalformedDocumentError(
                f"{key}[{j}] must be a string, not {type(item).__name__}", location)
    return items


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text) -> datetime.date:
    """The date a YYYY-MM-DD string names: the one form read on every Python
    (from 3.11 `date.fromisoformat` also reads "20230115" and week dates)."""
    if isinstance(text, str) and _DATE.fullmatch(text) is None:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return datetime.date.fromisoformat(text)


# kind -> the payload type its `value` holds, and the converter that reads
# that payload from a JSON document
_PAYLOAD_TYPES = {"string": str, "number": (int, float), "year": int, "date": datetime.date}
_FROM_JSON = {"string": str, "number": float, "year": int, "date": parse_date}


@dataclass(frozen=True, slots=True)
class TypedValue:
    """A string, a number (with an optional unit), a year or a date."""

    kind: str
    value: str | int | float | datetime.date
    unit: str | None = None

    def __post_init__(self):
        payload_type = _PAYLOAD_TYPES.get(self.kind)
        if payload_type is None:
            raise KindMismatchError(f"unknown value kind {self.kind!r}")
        if not isinstance(self.value, payload_type):
            raise KindMismatchError(
                f"a {self.kind} value cannot be {type(self.value).__name__} {self.value!r}")
        if self.unit is not None and (self.kind != "number" or not isinstance(self.unit, str)):
            raise KindMismatchError(f"a {self.kind} value cannot have unit {self.unit!r}")

    def render(self) -> str:
        if self.kind != "number":
            return str(self.value)
        num = self.value
        text = str(int(num)) if float(num).is_integer() else str(num)
        return f"{text} {self.unit}" if self.unit else text

    @staticmethod
    def from_json(doc: dict, location: str = "") -> "TypedValue":
        try:
            kind, value = doc["kind"], doc["value"]
        except (KeyError, TypeError) as exc:
            raise MalformedDocumentError(f"bad value object: {exc}", location)
        convert = _FROM_JSON.get(kind) if isinstance(kind, str) else None
        if convert is None:
            raise MalformedDocumentError(f"unknown value kind {kind!r}", location)
        try:
            return TypedValue(kind, convert(value), doc.get("unit") if kind == "number" else None)
        except (ValueError, TypeError, OverflowError, KindMismatchError) as exc:
            raise MalformedDocumentError(f"bad {kind} value {value!r}: {exc}", location)


def parse_value_text(text: str, kind_hint: str | None = None) -> TypedValue:
    """Parse a planner-supplied literal like "206 centimetre", "2003", "1980-01-02"."""
    text = str(text).strip()
    if kind_hint == "string":
        return TypedValue("string", text)
    if kind_hint == "year":
        return TypedValue("year", int(text))
    if kind_hint == "date" or (
        kind_hint is None and _looks_like_date(text)
    ):
        return TypedValue("date", parse_date(text))
    parts = text.split()
    if parts and _is_number(parts[0]):
        number = float(parts[0])
        unit = " ".join(parts[1:]) or None
        if kind_hint == "number":
            return TypedValue("number", number, unit)
        if kind_hint is None and unit is None and number.is_integer() and 1000 <= number <= 2999:
            return TypedValue("year", int(number))
        if kind_hint is None:
            return TypedValue("number", number, unit)
    if kind_hint == "number":
        raise KindMismatchError(f"cannot parse {text!r} as a number")
    return TypedValue("string", text)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _looks_like_date(text: str) -> bool:
    try:
        parse_date(text)
        return True
    except ValueError:
        return False


_TESTS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt,
          "<=": operator.le, ">=": operator.ge}


def compare_typed(a: TypedValue, op: str, b: TypedValue) -> bool:
    """Compare two typed values. Strings support only = and !=; numbers need equal units."""
    op = _norm_op(op)
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot compare {a.kind} with {b.kind}")
    if a.kind == "string" and op in ("<", ">"):
        raise UnsupportedOperatorError("strings support only = and !=")
    if a.kind == "number" and a.unit != b.unit:
        raise UnitMismatchError(f"unit mismatch: {a.unit!r} vs {b.unit!r}")
    return _TESTS[op](a.value, b.value)


def value_test(op: str, target: TypedValue):
    """`value -> compare_typed(value, op, target)`, for a filter that tests
    many values against one target: the operator is normalized and the kind,
    unit and string-ordering rules are settled once. A value compare_typed
    refuses (another kind or unit, a string under an ordering) tests False,
    as does every value under an unknown operator. "<=" and ">=" are atomic
    Compare's "< or =" and "> or =". """
    test = _TESTS.get(OP_ALIASES.get(op, op))
    if test is None or (target.kind == "string" and test not in (operator.eq, operator.ne)):
        return lambda value: False
    kind, unit, y = target.kind, target.unit, target.value
    # a unit is None but for numbers, so equal units are the number rule
    return lambda value: value.kind == kind and value.unit == unit and test(value.value, y)


@dataclass(frozen=True, slots=True)
class AttributeFact:
    key: str
    value: TypedValue
    qualifiers: tuple[tuple[str, TypedValue], ...] = ()


@dataclass(frozen=True, slots=True)
class RelationEdge:
    predicate: str
    direction: str  # "forward" or "backward"
    target: str  # entity id
    qualifiers: tuple[tuple[str, TypedValue], ...] = ()


@dataclass(frozen=True, slots=True)
class Entity:
    id: str
    name: str
    instance_of: tuple[str, ...] = ()
    attributes: tuple[AttributeFact, ...] = ()
    relations: tuple[RelationEdge, ...] = ()


@dataclass(frozen=True, slots=True)
class Concept:
    id: str
    name: str
    subclass_of: tuple[str, ...] = ()


@dataclass(frozen=True)
class KnowledgeBase:
    entities: dict[str, Entity] = field(default_factory=dict)
    concepts: dict[str, Concept] = field(default_factory=dict)
    name_index: dict[str, tuple[str, ...]] = field(default_factory=dict)

    # Lookup tables derived from the immutable fields, built on first use and
    # kept with the KB, so loading does no indexing.

    @functools.cached_property
    def position(self) -> dict[str, int]:
        """Entity id -> its index in KB order."""
        return {eid: i for i, eid in enumerate(self.entities)}

    def entity_order(self, ids) -> tuple[str, ...]:
        """The distinct entity ids among `ids`, in KB order; other ids are dropped."""
        position = self.position
        return tuple(sorted({i for i in ids if i in position}, key=position.__getitem__))

    @functools.cached_property
    def incoming(self) -> dict[str, tuple[tuple[str, RelationEdge], ...]]:
        """Target id -> ((source id, edge), ...) over every stored edge that
        points at it, in KB order (source entity, then its edge order)."""
        incoming: dict[str, list[tuple[str, RelationEdge]]] = {}
        for e in self.entities.values():
            for edge in e.relations:
                incoming.setdefault(edge.target, []).append((e.id, edge))
        return {target: tuple(pairs) for target, pairs in incoming.items()}

    def schema_terms(self) -> dict[str, dict[str, None]]:
        """Namespace -> its distinct schema terms (dict keys), in KB order."""
        names: dict[str, dict[str, None]] = collections.defaultdict(dict)
        for c in self.concepts.values():
            names["concept"].setdefault(c.name)
        for e in self.entities.values():
            names["entity-name"].setdefault(e.name)
            for a in e.attributes:
                names["attribute-key"].setdefault(a.key)
                for qk, _ in a.qualifiers:
                    names["qualifier-key"].setdefault(qk)
            for r in e.relations:
                names["relation"].setdefault(r.predicate)
                for qk, _ in r.qualifiers:
                    names["qualifier-key"].setdefault(qk)
        return dict(names)

    @functools.cached_property
    def subclasses(self) -> dict[str, tuple[str, ...]]:
        """Concept id -> ids of its direct subclasses, in KB order."""
        children: dict[str, list[str]] = {cid: [] for cid in self.concepts}
        for c in self.concepts.values():
            for parent in c.subclass_of:
                children[parent].append(c.id)
        return {cid: tuple(ids) for cid, ids in children.items()}

    @functools.cached_property
    def members(self) -> dict[str, tuple[str, ...]]:
        """Concept id -> ids of the entities that list it in `instance_of`,
        each once, in KB order."""
        members: dict[str, list[str]] = {cid: [] for cid in self.concepts}
        for e in self.entities.values():
            for cid in dict.fromkeys(e.instance_of):
                members[cid].append(e.id)
        return {cid: tuple(ids) for cid, ids in members.items()}


def _parse_qualifiers(fact: dict) -> tuple[tuple[str, TypedValue], ...]:
    """The (key, value) pairs of a fact's qualifier list; a malformed item
    raises MalformedDocumentError located as `qualifiers[k]`."""
    out = []
    for k, q in enumerate(require_list(fact, "qualifiers")):
        if type(q) is not dict or "key" not in q or "value" not in q:
            require_keys(q, ("key", "value"), "qualifier", f"qualifiers[{k}]")
        if type(q["key"]) is not str:
            require_strings(q, ("key",), f"qualifiers[{k}]")
        try:
            out.append((q["key"], TypedValue.from_json(q["value"])))
        except MalformedDocumentError as exc:
            raise exc.within(f"qualifiers[{k}]") from None
    return tuple(out)


def load_kb(doc: dict) -> KnowledgeBase:
    """Load and validate a decoded KB document (see `read_document`).

    A 2,000-entity KB holds ~30,000 items, so an item's location
    (`entities[i].attributes[j]`) is formatted only when the item is
    malformed: each error is raised located within its item and nested
    under the enclosing items on its way out, and `require_keys` is called
    only to raise its message."""
    concepts: dict[str, Concept] = {}
    for i, c in enumerate(require_list(doc, "concepts")):
        try:
            if type(c) is not dict or "id" not in c or "name" not in c:
                require_keys(c, ("id", "name"), "concept")
            if type(c["id"]) is not str or type(c["name"]) is not str:
                require_strings(c, ("id", "name"))
            if c["id"] in concepts:
                raise MalformedDocumentError(f"duplicate concept id {c['id']!r}")
            concepts[c["id"]] = Concept(
                id=c["id"], name=c["name"], subclass_of=string_list(c, "subclass_of")
            )
        except MalformedDocumentError as exc:
            raise exc.within(f"concepts[{i}]") from None
    for c in concepts.values():
        for parent in c.subclass_of:
            if parent not in concepts:
                raise DanglingReferenceError(
                    f"concept {c.id!r} subclass_of unknown concept {parent!r}"
                )
    _check_acyclic_taxonomy(concepts)

    entities: dict[str, Entity] = {}
    for i, e in enumerate(require_list(doc, "entities")):
        try:
            if type(e) is not dict or "id" not in e or "name" not in e:
                require_keys(e, ("id", "name"), "entity")
            if type(e["id"]) is not str or type(e["name"]) is not str:
                require_strings(e, ("id", "name"))
            if e["id"] in entities:
                raise MalformedDocumentError(f"duplicate entity id {e['id']!r}")
            attributes = []
            for j, a in enumerate(require_list(e, "attributes")):
                try:
                    if type(a) is not dict or "key" not in a or "value" not in a:
                        require_keys(a, ("key", "value"), "attribute")
                    if type(a["key"]) is not str:
                        require_strings(a, ("key",))
                    value = TypedValue.from_json(a["value"])
                    attributes.append(AttributeFact(a["key"], value, _parse_qualifiers(a)))
                except MalformedDocumentError as exc:
                    raise exc.within(f"attributes[{j}]") from None
            relations = []
            for j, r in enumerate(require_list(e, "relations")):
                try:
                    if type(r) is not dict or "predicate" not in r or "target" not in r:
                        require_keys(r, ("predicate", "target"), "relation")
                    if type(r["predicate"]) is not str or type(r["target"]) is not str:
                        require_strings(r, ("predicate", "target"))
                    direction = r.get("direction", "forward")
                    if direction not in ("forward", "backward"):
                        raise MalformedDocumentError(f"bad direction {direction!r}")
                    relations.append(RelationEdge(
                        r["predicate"], direction, r["target"], _parse_qualifiers(r)))
                except MalformedDocumentError as exc:
                    raise exc.within(f"relations[{j}]") from None
            entities[e["id"]] = Entity(
                id=e["id"],
                name=e["name"],
                instance_of=string_list(e, "instance_of"),
                attributes=tuple(attributes),
                relations=tuple(relations),
            )
        except MalformedDocumentError as exc:
            raise exc.within(f"entities[{i}]") from None

    for e in entities.values():
        for cid in e.instance_of:
            if cid not in concepts:
                raise DanglingReferenceError(
                    f"entity {e.id!r} instance_of unknown concept {cid!r}"
                )
        for r in e.relations:
            if r.target not in entities:
                raise DanglingReferenceError(
                    f"entity {e.id!r} relation {r.predicate!r} targets unknown entity {r.target!r}"
                )

    name_index: dict[str, list[str]] = {}
    for e in entities.values():
        name_index.setdefault(e.name, []).append(e.id)
    return KnowledgeBase(
        entities=entities,
        concepts=concepts,
        name_index={k: tuple(v) for k, v in name_index.items()},
    )


def _check_acyclic_taxonomy(concepts: dict[str, Concept]) -> None:
    """Raise CyclicTaxonomyError naming one cycle of `subclass_of` links, in
    link order (`a -> b -> a`: a is a subclass of b, b of a)."""
    try:
        graphlib.TopologicalSorter({c.id: c.subclass_of for c in concepts.values()}).prepare()
    except graphlib.CycleError as exc:
        # the sorter lists the cycle against the links, ending where it starts
        raise CyclicTaxonomyError(
            "cyclic subclass_of chain: " + " -> ".join(reversed(exc.args[1]))) from None


def concept_closure(kb: KnowledgeBase, concept_id: str) -> set[str]:
    """The concept plus all transitive subclasses (specializations match filters)."""
    if concept_id not in kb.concepts:
        raise UnknownConceptError(f"unknown concept {concept_id!r}")
    children = kb.subclasses
    closure = set()
    frontier = [concept_id]
    while frontier:
        cid = frontier.pop()
        if cid in closure:
            continue
        closure.add(cid)
        frontier.extend(children[cid])
    return closure
