"""The seven atomic query tools over an in-memory graph store."""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, field

from .grounding import Grounder, format_candidate_feedback
from .harness import Environment
from .kb import (
    MalformedDocumentError,
    TypedValue,
    parse_value_text,
    require_keys,
    require_list,
    require_strings,
    string_list,
    value_test,
)
from .outcome import Param, Tool, ToolFailure, ToolOutcome, ToolTable, literal


@dataclass(frozen=True, slots=True)
class GraphNode:
    id: str
    name: str
    classes: tuple[str, ...] = ()


@dataclass(frozen=True)
class GraphStore:
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    triples: tuple[tuple, ...] = ()  # (subject-id, predicate, node-id | TypedValue)

    def node_order(self, ids) -> tuple[str, ...]:
        """The distinct node ids among `ids`, in store order; other ids are dropped."""
        position = self.position
        return tuple(sorted({i for i in ids if i in position}, key=position.__getitem__))

    def schema_terms(self) -> dict[str, dict[str, None]]:
        """Namespace -> its distinct schema terms (dict keys), in store order."""
        names: dict[str, dict[str, None]] = collections.defaultdict(dict)
        for node in self.nodes.values():
            names["entity-name"].setdefault(node.name)
            for cls in node.classes:
                names["concept"].setdefault(cls)
        for s, p, o in self.triples:
            names["relation"].setdefault(p)
        return dict(names)

    # Indexes, built on first use and kept with the store, so loading does no
    # indexing.

    @functools.cached_property
    def position(self) -> dict[str, int]:
        """Node id -> its index in store order."""
        return {nid: i for i, nid in enumerate(self.nodes)}

    @functools.cached_property
    def objects(self) -> dict[tuple[str, str], tuple]:
        """(subject id, predicate) -> its objects, in triple order."""
        objects: dict[tuple[str, str], list] = {}
        for s, p, o in self.triples:
            objects.setdefault((s, p), []).append(o)
        return {key: tuple(objs) for key, objs in objects.items()}

    @functools.cached_property
    def by_predicate(self) -> dict[str, tuple[tuple, ...]]:
        """Predicate -> its triples, in triple order."""
        triples: dict[str, list[tuple]] = {}
        for triple in self.triples:
            triples.setdefault(triple[1], []).append(triple)
        return {p: tuple(ts) for p, ts in triples.items()}

    @functools.cached_property
    def by_name(self) -> dict[str, tuple[str, ...]]:
        """Node name -> the ids of the nodes with that name, in store order."""
        ids: dict[str, list[str]] = {}
        for node in self.nodes.values():
            ids.setdefault(node.name, []).append(node.id)
        return {name: tuple(nids) for name, nids in ids.items()}

    @functools.cached_property
    def by_class(self) -> dict[str, tuple[str, ...]]:
        """Class -> the ids of the nodes listing it, each once, in store order."""
        ids: dict[str, dict[str, None]] = {}
        for node in self.nodes.values():
            for cls in node.classes:
                ids.setdefault(cls, {})[node.id] = None
        return {cls: tuple(nids) for cls, nids in ids.items()}

    @functools.cached_property
    def links(self) -> dict[tuple[str, str], dict[str, tuple[str, ...]]]:
        """(predicate, direction) -> node id -> the nodes a link leads to from
        it: forward, the subjects of the triples it is the object of;
        backward, the node objects of the triples it is the subject of."""
        links: dict[tuple[str, str], dict[str, list[str]]] = {}
        for s, p, o in self.triples:
            if isinstance(o, str):
                links.setdefault((p, "forward"), {}).setdefault(o, []).append(s)
                links.setdefault((p, "backward"), {}).setdefault(s, []).append(o)
        return {key: {nid: tuple(to) for nid, to in by_node.items()}
                for key, by_node in links.items()}


def load_graph(doc: dict) -> GraphStore:
    """Load and validate a decoded graph document. As in `kb.load_kb`, an
    item's location is formatted only when it is malformed."""
    nodes = {}
    for i, n in enumerate(require_list(doc, "nodes")):
        try:
            if type(n) is not dict or "id" not in n or "name" not in n:
                require_keys(n, ("id", "name"), "node")
            if type(n["id"]) is not str or type(n["name"]) is not str:
                require_strings(n, ("id", "name"))
            if n["id"] in nodes:
                raise MalformedDocumentError(f"duplicate node id {n['id']!r}")
            nodes[n["id"]] = GraphNode(n["id"], n["name"], string_list(n, "classes"))
        except MalformedDocumentError as exc:
            raise exc.within(f"nodes[{i}]") from None
    triples = []
    for i, t in enumerate(require_list(doc, "triples")):
        if type(t) is not dict or "s" not in t or "p" not in t:
            require_keys(t, ("s", "p"), "triple", f"triples[{i}]")
        if type(t["s"]) is not str or type(t["p"]) is not str:
            require_strings(t, ("s", "p"), f"triples[{i}]")
        if t["s"] not in nodes:
            raise MalformedDocumentError(f"unknown subject {t['s']!r}", f"triples[{i}]")
        if "o_node" in t:
            if type(t["o_node"]) is not str:
                require_strings(t, ("o_node",), f"triples[{i}]")
            if t["o_node"] not in nodes:
                raise MalformedDocumentError(f"unknown object {t['o_node']!r}", f"triples[{i}]")
            obj = t["o_node"]
        elif "o_literal" in t:
            try:
                obj = TypedValue.from_json(t["o_literal"])
            except MalformedDocumentError as exc:
                raise exc.within(f"triples[{i}]") from None
        else:
            raise MalformedDocumentError("triple needs o_node or o_literal", f"triples[{i}]")
        triples.append((t["s"], t["p"], obj))
    return GraphStore(nodes=nodes, triples=tuple(triples))


@dataclass(frozen=True)
class NodeSet:
    ids: tuple[str, ...]

    def __len__(self):
        return len(self.ids)


_ALIASES = {"≤": "<=", "≥": ">="}  # Compare operators accepted on input


# ---------------------------------------------------------------------------
# The tool table: each tool's parameters in the order its function takes them

def _set(name: str) -> Param:
    return Param(name, "set", (NodeSet,), "a node set")


_SG = ("store", "grounder")

TOOLS = ToolTable("atomic", globals(), {
    "Extract_entity": Tool("Resolve an input (entity mention, entity class, or literal) "
                           "to node ids or a typed literal", "extract_entity",
                           (*_SG, Param("input"))),
    "Find_relation": Tool(
        "Find entities that point to the given target entities via the specified relation",
        "find_relation", (*_SG, Param("relation"),
                          Param("direction", "direction", default="forward",
                                choices=("forward", "backward")), _set("target"))),
    "Merge": Tool("Compute set intersection of two entity sets", "merge",
                  (_set("input1"), _set("input2"))),
    "Order": Tool("Find entities with maximum or minimum property value", "order",
                  (*_SG, Param("mode", "mode", choices=("argmin", "argmax")), _set("input"),
                   Param("property"))),
    "Compare": Tool("Find entities whose property compares to a literal", "compare",
                    (*_SG, Param("operator", "op", choices=("<", "<=", ">", ">=", *_ALIASES)),
                     Param("property"), literal("literal", "any"))),
    "Time_constraint": Tool(
        "Filter an input entity set by equality of a temporal property to a year, or 'NOW'",
        "time_constraint", (*_SG, _set("input"), Param("relation"),
                            literal("literal"), "eval_year")),
    "Count": Tool("Count the number of input entities", "count_nodes", (_set("input"),)),
})


# ---------------------------------------------------------------------------
# Operations

def extract_entity(store: GraphStore, grounder: Grounder, text: str) -> NodeSet | TypedValue:
    literal = parse_value_text(text)
    if literal.kind != "string":
        return literal
    name_result = grounder.ground(text, "entity-name")
    if name_result.ok and name_result.matched_term in store.by_name:
        return NodeSet(store.by_name[name_result.matched_term])
    class_result = grounder.ground(text, "concept")
    if class_result.ok and class_result.matched_term in store.by_class:
        return NodeSet(store.by_class[class_result.matched_term])
    raise ToolFailure(format_candidate_feedback(name_result, text, "entity-name"))


def find_relation(store: GraphStore, grounder: Grounder, relation: str,
                  direction: str, target: NodeSet) -> NodeSet:
    if not target.ids:
        raise ToolFailure("Find_relation needs a nonempty target set")
    links = store.links.get((grounder.term(relation, "relation"), direction), {})
    ids = store.node_order(linked for nid in target.ids for linked in links.get(nid, ()))
    if not ids:
        raise ToolFailure(f"no entities connected via {relation!r}")
    return NodeSet(ids)


def merge(a: NodeSet, b: NodeSet) -> NodeSet:
    other = set(b.ids)
    ids = tuple(i for i in a.ids if i in other)
    if not ids:
        raise ToolFailure("the intersection is empty")
    return NodeSet(ids)


def _property_values(store: GraphStore, ids, prop: str):
    """(id, first literal value of prop) for each id that has one."""
    out = []
    for nid in ids:
        value = next((o for o in store.objects.get((nid, prop), ())
                      if isinstance(o, TypedValue)), None)
        if value is not None:
            out.append((nid, value))
    return out


def order(store: GraphStore, grounder: Grounder, mode: str, nodes: NodeSet,
          prop: str) -> NodeSet:
    valued = _property_values(store, nodes.ids, grounder.term(prop, "relation"))
    if not valued:
        raise ToolFailure(f"no node in the set has property {prop!r}")
    if len({v.kind for _, v in valued}) > 1:
        raise ToolFailure(f"kind mismatch across {prop!r}")
    if len({v.unit for _, v in valued}) > 1:
        raise ToolFailure(f"unit mismatch across {prop!r}")
    extreme = (min if mode == "argmin" else max)(v.value for _, v in valued)
    ids = store.node_order([nid for nid, v in valued if v.value == extreme])
    return NodeSet(ids)  # ties keep all extrema


def compare(store: GraphStore, grounder: Grounder, operator: str, prop: str,
            literal: TypedValue) -> NodeSet:
    operator = _ALIASES.get(operator, operator)
    prop = grounder.term(prop, "relation")
    test = value_test(operator, literal)  # incomparable values test False
    ids = store.node_order(s for s, _p, o in store.by_predicate.get(prop, ())
                           if isinstance(o, TypedValue) and test(o))
    if not ids:
        raise ToolFailure(f"no entities with {prop} {operator} {literal.render()}")
    return NodeSet(ids)


def time_constraint(store: GraphStore, grounder: Grounder, nodes: NodeSet,
                    relation: str, literal: str, eval_year: int) -> NodeSet:
    relation = grounder.term(relation, "relation")
    try:
        year = eval_year if str(literal).strip().upper() == "NOW" else int(str(literal).strip())
    except ValueError:
        raise ToolFailure(
            f"Error in Time_constraint: literal {literal!r} is not a year or 'NOW'") from None
    kept = [
        nid for nid in nodes.ids
        if any((o.kind == "year" and o.value == year)
               or (o.kind == "date" and o.value.year == year)
               for o in store.objects.get((nid, relation), ())
               if isinstance(o, TypedValue))
    ]
    ids = store.node_order(kept)
    if not ids:
        raise ToolFailure(f"no entities satisfy {relation} = {year}")
    return NodeSet(ids)


def count_nodes(nodes: NodeSet) -> int:
    return len(nodes.ids)


def run_tool(store: GraphStore, grounder: Grounder, tool: str, args: dict,
             eval_year: int) -> ToolOutcome:
    """Execute one atomic tool with already-resolved set arguments."""
    return TOOLS.call(tool, args, {"store": store, "grounder": grounder,
                                   "eval_year": eval_year})


def render_node_set(store: GraphStore, value) -> str:
    if isinstance(value, NodeSet):
        return "; ".join(
            f"{i} ({store.nodes[i].name})" if i in store.nodes else i for i in value.ids
        )
    if isinstance(value, TypedValue):
        return value.render()
    return str(value)


class AtomicEngine(Environment):
    """The atomic tools over one graph store; "NOW" in Time_constraint means
    `eval_year`."""

    catalog = TOOLS.catalog()
    params = TOOLS.params()
    data_key = "graph"
    settings = {"eval_year": int}
    marks = ("nodes",)
    load = staticmethod(lambda doc: load_graph(doc))

    @staticmethod
    def describe(store: GraphStore) -> str:
        return f"graph with {len(store.nodes)} nodes, {len(store.triples)} triples"

    def __init__(self, store: GraphStore, robustness: str, eval_year: int = 2026):
        super().__init__(store, robustness)
        self.eval_year = eval_year

    def run_tool(self, tool: str, args: dict) -> ToolOutcome:
        return run_tool(self.store, self.grounder, tool, args, self.eval_year)

    def render(self, value) -> str:
        return render_node_set(self.store, value)
