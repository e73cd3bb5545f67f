"""Seeded input generator for the planhorizon benchmark.

Writes a KoPL knowledge base, an atomic graph store, a mock corpus, task
files, run configs and a planted ``outcomes.jsonl``.  Gold answers, depth and
breadth come from this module's own structures and evaluators; nothing here
imports ``planhorizon``, so the benchmark can check the program against an
independent computation.

    python3 perfbench/gen.py --seed 1 --out gen-out

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Names

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gr", "kl", "pr", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "l", "m", "s", "k", "nd", "rt")


def corrupt_term(term: str) -> str:
    """The program's schema-term corruption (see policies.corrupt_term),
    restated here so generated names can be chosen to avoid collisions."""
    if "_" in term:
        head = term.split("_")[0]
        return head if head.endswith("s") else head + "s"
    if len(term) > 3:
        return term[:-1]
    return term + "x"


def normalize_term(term: str) -> str:
    """Grounding's normalization: lower case, separators become one space."""
    out, prev_sep = [], False
    for ch in term.strip().lower():
        if ch.isspace() or ch in "_-./":
            if not prev_sep:
                out.append(" ")
            prev_sep = True
        else:
            out.append(ch)
            prev_sep = False
    return "".join(out)


class Namer:
    """Unique pseudo-words whose corruptions are never another issued name."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.issued: set[str] = set()

    def _word(self, syllables: int) -> str:
        return "".join(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                       + self.rng.choice(_CODAS) for _ in range(syllables))

    def _free(self, name: str) -> bool:
        norm = normalize_term(name)
        if norm in self.issued or len(norm) < 5:
            return False
        # this name's corruption must not be an issued name ...
        if normalize_term(corrupt_term(name)) in self.issued:
            return False
        # ... and no issued name may corrupt into this one (names hold no
        # underscores, so corrupt(x) == name only for x == name + one letter)
        return not any(norm + ch in self.issued for ch in "abcdefghijklmnopqrstuvwxyz")

    def take(self, words: int = 1, capital: bool = False, syllables=(2, 3)) -> str:
        while True:
            parts = [self._word(self.rng.randint(*syllables)) for _ in range(words)]
            if capital:
                parts = [p.capitalize() for p in parts]
            name = " ".join(parts)
            if self._free(name):
                self.issued.add(normalize_term(name))
                return name


# ---------------------------------------------------------------------------
# Plan metrics (independent of planhorizon.plans)

def plan_refs(step: dict) -> list[int]:
    return [int(v[1:]) for v in step["args"].values()
            if isinstance(v, str) and v.startswith("$") and v[1:].isdigit()]


def plan_depth(plan: list[dict]) -> int:
    longest = []
    for step in plan:
        longest.append(1 + max((longest[j] for j in plan_refs(step)), default=0))
    return max(longest)


def plan_breadth(plan: list[dict]) -> Fraction:
    return Fraction(len(plan), plan_depth(plan))


def _distinct(plan: list[dict]) -> bool:
    keys = [json.dumps(step, sort_keys=True) for step in plan]
    return len(set(keys)) == len(keys)


def render_number(value: float, unit: str | None) -> str:
    text = str(int(value)) if float(value).is_integer() else str(value)
    return f"{text} {unit}" if unit else text


# ---------------------------------------------------------------------------
# KoPL knowledge base

KOPL_UNITS = {"mass": "kilogram", "span": "metre"}
KOPL_PREDICATES = ("allied with", "supplies", "member of", "rival of")


class KoplWorld:
    """A synthetic KB plus an evaluator for the plan fragments tasks use."""

    def __init__(self, rng: random.Random, n_entities: int):
        namer = Namer(rng)
        # taxonomy: 3 roots, branching 3, 3, 2 -> four levels
        self.concepts = []  # (id, name, parent id or None)
        level = []
        for _ in range(3):
            cid = f"c{len(self.concepts):03d}"
            self.concepts.append((cid, namer.take(), None))
            level.append(cid)
        for branching in (3, 3, 2):
            nxt = []
            for parent in level:
                for _ in range(branching):
                    cid = f"c{len(self.concepts):03d}"
                    self.concepts.append((cid, namer.take(), parent))
                    nxt.append(cid)
            level = nxt
        self.concept_name = {cid: name for cid, name, _ in self.concepts}
        self.children = {cid: [] for cid, _, _ in self.concepts}
        for cid, _, parent in self.concepts:
            if parent is not None:
                self.children[parent].append(cid)
        self.regions = [namer.take() for _ in range(6)]
        concept_ids = [cid for cid, _, _ in self.concepts]

        self.entities = []  # dicts with id, name, concept, attrs, rels
        for i in range(n_entities):
            attrs = []
            mass = round(rng.uniform(10, 5000), 1)
            attrs.append({"key": "mass", "kind": "number", "value": mass,
                          "unit": KOPL_UNITS["mass"],
                          "qualifiers": [("measured", "year", rng.randint(1990, 2020))]})
            if rng.random() < 0.7:
                attrs.append({"key": "span", "kind": "number",
                              "value": float(rng.randint(1, 400)),
                              "unit": KOPL_UNITS["span"], "qualifiers": []})
            attrs.append({"key": "founded", "kind": "year",
                          "value": rng.randint(1800, 2020), "qualifiers": []})
            attrs.append({"key": "surveyed", "kind": "date",
                          "value": datetime.date(2000, 1, 1)
                          + datetime.timedelta(days=rng.randint(0, 9000)),
                          "qualifiers": []})
            attrs.append({"key": "region", "kind": "string",
                          "value": rng.choice(self.regions), "qualifiers": []})
            self.entities.append({
                "id": f"e{i:05d}",
                "name": namer.take(words=2, capital=True),
                "concept": rng.choice(concept_ids[3:]),
                "attrs": attrs,
                "rels": [],
            })
        for ent in self.entities:
            targets = set()
            for _ in range(rng.randint(1, 4)):
                pred = rng.choice(KOPL_PREDICATES)
                other = rng.randrange(n_entities)
                if self.entities[other]["id"] == ent["id"] or (pred, other) in targets:
                    continue
                targets.add((pred, other))
                quals = [("since", "year", rng.randint(1950, 2020))] \
                    if rng.random() < 0.5 else []
                ent["rels"].append((pred, self.entities[other]["id"], quals))
        self.by_id = {e["id"]: e for e in self.entities}
        self.order = {e["id"]: i for i, e in enumerate(self.entities)}
        self.incoming: dict[str, list] = {}
        for ent in self.entities:
            for pred, target, quals in ent["rels"]:
                self.incoming.setdefault(target, []).append((ent["id"], pred, quals))

    # -- document ----------------------------------------------------------
    def document(self) -> dict:
        def value(kind, v, unit=None):
            if kind == "date":
                return {"kind": "date", "value": v.isoformat()}
            doc = {"kind": kind, "value": v}
            if unit:
                doc["unit"] = unit
            return doc

        return {
            "concepts": [
                {"id": cid, "name": name, "subclass_of": [parent] if parent else []}
                for cid, name, parent in self.concepts
            ],
            "entities": [
                {
                    "id": e["id"],
                    "name": e["name"],
                    "instance_of": [e["concept"]],
                    "attributes": [
                        {"key": a["key"],
                         "value": value(a["kind"], a["value"], a.get("unit")),
                         "qualifiers": [{"key": k, "value": value(kind, v)}
                                        for k, kind, v in a["qualifiers"]]}
                        for a in e["attrs"]
                    ],
                    "relations": [
                        {"predicate": pred, "direction": "forward", "target": target,
                         "qualifiers": [{"key": k, "value": value(kind, v)}
                                        for k, kind, v in quals]}
                        for pred, target, quals in e["rels"]
                    ],
                }
                for e in self.entities
            ],
        }

    # -- evaluator -----------------------------------------------------------

    def closure(self, cid: str) -> set[str]:
        out, stack = set(), [cid]
        while stack:
            c = stack.pop()
            if c not in out:
                out.add(c)
                stack.extend(self.children[c])
        return out

    def sorted_ids(self, ids) -> list[str]:
        return sorted(set(ids), key=self.order.__getitem__)

    def relate(self, ids, pred, direction):
        facts: dict[str, list] = {}
        for eid in ids:
            if direction == "forward":
                hits = [(t, (pred, q)) for p, t, q in self.by_id[eid]["rels"] if p == pred]
            else:
                hits = [(s, (pred, q)) for s, p, q in self.incoming.get(eid, []) if p == pred]
            for target, fact in hits:
                facts.setdefault(target, []).append(fact)
        ordered = self.sorted_ids(facts)
        return ordered, [facts[i] for i in ordered]

    @staticmethod
    def compare(kind, a, op, b):
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if kind == "string":
            return False
        return a < b if op == "<" else a > b

    def filter_attr(self, ids, key, kind, op, target) -> list[str]:
        return [eid for eid in ids
                if any(a["key"] == key and a["kind"] == kind
                       and self.compare(kind, a["value"], op, target)
                       for a in self.by_id[eid]["attrs"])]

    def number_attr(self, eid, key):
        for a in self.by_id[eid]["attrs"]:
            if a["key"] == key and a["kind"] == "number":
                return a["value"]
        return None


def _lit(kind, value, unit=None) -> str:
    if kind == "number":
        return render_number(value, unit)
    if kind == "date":
        return value.isoformat()
    return str(value)


def kopl_tasks(world: KoplWorld, rng: random.Random, count: int,
               templates=None) -> list[dict]:
    """Sample gold plans from templates; keep those whose every step yields a
    nonempty result.  Returns task documents with planted answers."""
    W = world
    ents = W.entities
    names = {e["id"]: e["name"] for e in ents}
    tasks: list[dict] = []

    def pick():
        return rng.choice(ents)

    def names_of(ids):
        return "; ".join(names[i] for i in ids)

    def t_query_attr():
        e = pick()
        key = rng.choice(["mass", "founded", "surveyed", "region"])
        a = next(a for a in e["attrs"] if a["key"] == key)
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "QueryAttr", "args": {"entities": "$0", "key": key}}]
        return plan, _lit(a["kind"], a["value"], a.get("unit"))

    def t_relate_chain():
        e = pick()
        p1, p2 = rng.choice(KOPL_PREDICATES), rng.choice(KOPL_PREDICATES)
        d1, d2 = rng.choice(["forward", "backward"]), rng.choice(["forward", "backward"])
        s1, _ = W.relate([e["id"]], p1, d1)
        if not s1:
            return None
        s2, _ = W.relate(s1, p2, d2)
        if not s2:
            return None
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Relate", "args": {"entities": "$0", "relation": p1, "direction": d1}},
                {"tool": "Relate", "args": {"entities": "$1", "relation": p2, "direction": d2}},
                {"tool": "QueryName", "args": {"entities": "$2"}}]
        return plan, names[s2[0]]

    def t_concept_count():
        root = rng.choice([c for c, _, p in W.concepts if p is None])
        mid = rng.choice(W.children[root])
        closure = W.closure(mid)
        s1 = [e["id"] for e in ents if e["concept"] in closure]
        threshold = round(rng.uniform(500, 4500), 1)
        op = rng.choice(["<", ">"])
        s2 = W.filter_attr(s1, "mass", "number", op, threshold)
        if not s2:
            return None
        plan = [{"tool": "FindAll", "args": {}},
                {"tool": "FilterConcept", "args": {"entities": "$0", "concept": W.concept_name[mid]}},
                {"tool": "FilterNum", "args": {"entities": "$1", "key": "mass",
                                               "value": render_number(threshold, "kilogram"),
                                               "op": op}},
                {"tool": "Count", "args": {"entities": "$2"}}]
        return plan, str(len(s2))

    def t_select_among():
        e = pick()
        pred = rng.choice(KOPL_PREDICATES)
        s1, _ = W.relate([e["id"]], pred, "backward")
        year = rng.randint(1850, 2000)
        s2 = W.filter_attr(s1, "founded", "year", ">", year)
        if len(s2) < 2:
            return None
        mode = rng.choice(["largest", "smallest"])
        best = s2[0]
        for eid in s2[1:]:
            v, b = W.number_attr(eid, "mass"), W.number_attr(best, "mass")
            if (mode == "largest" and v > b) or (mode == "smallest" and v < b):
                best = eid
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Relate", "args": {"entities": "$0", "relation": pred, "direction": "backward"}},
                {"tool": "FilterYear", "args": {"entities": "$1", "key": "founded",
                                                "value": str(year), "op": ">"}},
                {"tool": "SelectAmong", "args": {"entities": "$2", "key": "mass", "mode": mode}}]
        return plan, names[best]

    def t_and():
        e = pick()
        pred = rng.choice(KOPL_PREDICATES)
        s1, _ = W.relate([e["id"]], pred, "forward")
        if not s1:
            return None
        mid = rng.choice(s1)
        pred2 = rng.choice(KOPL_PREDICATES)
        back, _ = W.relate([mid], pred2, "backward")
        other = [x for x in back if x != e["id"]]
        if not other:
            return None
        f = W.by_id[other[0]]
        s3, _ = W.relate([f["id"]], pred2, "forward")
        inter = [i for i in s1 if i in set(s3)]
        if not inter:
            return None
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Relate", "args": {"entities": "$0", "relation": pred, "direction": "forward"}},
                {"tool": "Find", "args": {"name": f["name"]}},
                {"tool": "Relate", "args": {"entities": "$2", "relation": pred2, "direction": "forward"}},
                {"tool": "And", "args": {"left": "$1", "right": "$3"}},
                {"tool": "QueryName", "args": {"entities": "$4"}}]
        return plan, names[inter[0]]

    def t_wide_or():
        chosen = rng.sample(ents, 6)
        plan = [{"tool": "Find", "args": {"name": e["name"]}} for e in chosen]
        plan += [{"tool": "Or", "args": {"left": "$0", "right": "$1"}},
                 {"tool": "Or", "args": {"left": "$2", "right": "$3"}},
                 {"tool": "Or", "args": {"left": "$4", "right": "$5"}},
                 {"tool": "Or", "args": {"left": "$6", "right": "$7"}},
                 {"tool": "Or", "args": {"left": "$9", "right": "$8"}},
                 {"tool": "FilterStr", "args": {"entities": "$10", "key": "region",
                                                "value": chosen[0]["attrs"][-1]["value"]}},
                 {"tool": "Count", "args": {"entities": "$11"}}]
        region = chosen[0]["attrs"][-1]["value"]
        return plan, str(sum(1 for e in chosen if e["attrs"][-1]["value"] == region))

    def t_verify():
        e = pick()
        key, kind = rng.choice([("founded", "year"), ("mass", "number"),
                                ("surveyed", "date")])
        a = next(a for a in e["attrs"] if a["key"] == key)
        op = rng.choice(["<", ">", "="])
        if kind == "year":
            target = a["value"] + rng.choice([-5, 0, 5])
        elif kind == "number":
            target = round(a["value"] + rng.choice([-10.5, 0.0, 10.5]), 1)
        else:
            target = a["value"] + datetime.timedelta(days=rng.choice([-30, 0, 30]))
        tool = {"year": "VerifyYear", "number": "VerifyNum", "date": "VerifyDate"}[kind]
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "QueryAttr", "args": {"entities": "$0", "key": key}},
                {"tool": tool, "args": {"input": "$1", "value": _lit(kind, target, a.get("unit")),
                                        "op": op}}]
        return plan, "yes" if W.compare(kind, a["value"], op, target) else "no"

    def t_select_between():
        e = pick()
        pred = rng.choice(KOPL_PREDICATES)
        s1, _ = W.relate([e["id"]], pred, "forward")
        if not s1:
            return None
        f = pick()
        if f["id"] == s1[0]:
            return None
        va, vb = W.number_attr(s1[0], "mass"), W.number_attr(f["id"], "mass")
        mode = rng.choice(["greater", "less"])
        if va == vb:
            winner = s1[0]
        elif mode == "greater":
            winner = s1[0] if va > vb else f["id"]
        else:
            winner = s1[0] if va < vb else f["id"]
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Relate", "args": {"entities": "$0", "relation": pred, "direction": "forward"}},
                {"tool": "Find", "args": {"name": f["name"]}},
                {"tool": "SelectBetween", "args": {"left": "$1", "right": "$2",
                                                   "key": "mass", "mode": mode}}]
        return plan, names[winner]

    def t_qualifier():
        e = pick()
        pred = rng.choice(KOPL_PREDICATES)
        s1, f1 = W.relate([e["id"]], pred, "backward")
        years = [v for facts in f1 for _, quals in facts for k, _, v in quals if k == "since"]
        if not years:
            return None
        year = rng.choice(years)
        op = rng.choice(["<", "=", ">"])
        kept = [i for i, facts in zip(s1, f1)
                if any(k == "since" and W.compare("year", v, op, year)
                       for _, quals in facts for k, _, v in quals)]
        if not kept:
            return None
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Relate", "args": {"entities": "$0", "relation": pred, "direction": "backward"}},
                {"tool": "QFilterYear", "args": {"entities": "$1", "qkey": "since",
                                                 "qvalue": str(year), "op": op}},
                {"tool": "QueryName", "args": {"entities": "$2"}}]
        return plan, names[kept[0]]

    def t_deep():
        # Find -> Relate -> Relate -> FilterConcept -> FilterDate -> Relate -> Count
        e = pick()
        p1, p2, p3 = (rng.choice(KOPL_PREDICATES) for _ in range(3))
        s1, _ = W.relate([e["id"]], p1, "forward")
        s2, _ = W.relate(s1, p2, "backward")
        if not s2:
            return None
        root = W.entities[W.order[s2[0]]]["concept"]
        while True:
            parent = next(p for c, _, p in W.concepts if c == root)
            if parent is None:
                break
            root = parent
        s3 = [i for i in s2 if W.by_id[i]["concept"] in W.closure(root)]
        cut = datetime.date(2000, 1, 1) + datetime.timedelta(days=rng.randint(1000, 8000))
        op = rng.choice(["<", ">"])
        s4 = W.filter_attr(s3, "surveyed", "date", op, cut)
        if not s4:
            return None
        s5, _ = W.relate(s4, p3, "forward")
        if not s5:
            return None
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Relate", "args": {"entities": "$0", "relation": p1, "direction": "forward"}},
                {"tool": "Relate", "args": {"entities": "$1", "relation": p2, "direction": "backward"}},
                {"tool": "FilterConcept", "args": {"entities": "$2", "concept": W.concept_name[root]}},
                {"tool": "FilterDate", "args": {"entities": "$3", "key": "surveyed",
                                                "value": cut.isoformat(), "op": op}},
                {"tool": "Relate", "args": {"entities": "$4", "relation": p3, "direction": "forward"}},
                {"tool": "Count", "args": {"entities": "$5"}}]
        return plan, str(len(s5))

    def t_relation_query():
        e = pick()
        if not e["rels"]:
            return None
        pred, target, _ = e["rels"][0]
        preds = [p for p, t, _ in e["rels"] if t == target]
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "Find", "args": {"name": W.by_id[target]["name"]}},
                {"tool": "QueryRelation", "args": {"left": "$0", "right": "$1"}}]
        return plan, preds[0]

    def t_attr_qualifier():
        e = pick()
        a = e["attrs"][0]
        plan = [{"tool": "Find", "args": {"name": e["name"]}},
                {"tool": "QueryAttrQualifier", "args": {
                    "entities": "$0", "key": "mass",
                    "value": render_number(a["value"], a["unit"]), "qkey": "measured"}}]
        return plan, str(a["qualifiers"][0][2])

    def t_concept_relate():
        # Relate from a concept-sized set: the engine scans the KB per input
        root = rng.choice([c for c, _, p in W.concepts if p is None])
        mid = rng.choice(W.children[root])
        s1 = [e["id"] for e in ents if e["concept"] in W.closure(mid)]
        pred = rng.choice(KOPL_PREDICATES)
        direction = rng.choice(["forward", "backward"])
        s2, _ = W.relate(s1, pred, direction)
        threshold = round(rng.uniform(1000, 4000), 1)
        s3 = W.filter_attr(s2, "mass", "number", ">", threshold)
        if not s3:
            return None
        plan = [{"tool": "FindAll", "args": {}},
                {"tool": "FilterConcept", "args": {"entities": "$0", "concept": W.concept_name[mid]}},
                {"tool": "Relate", "args": {"entities": "$1", "relation": pred, "direction": direction}},
                {"tool": "FilterNum", "args": {"entities": "$2", "key": "mass",
                                               "value": render_number(threshold, "kilogram"),
                                               "op": ">"}},
                {"tool": "Count", "args": {"entities": "$3"}}]
        return plan, str(len(s3))

    def t_concept_and():
        # And/Or of two large sets
        root = rng.choice([c for c, _, p in W.concepts if p is None])
        mid = rng.choice(W.children[root])
        s1 = [e["id"] for e in ents if e["concept"] in W.closure(root)]
        year = rng.randint(1850, 1990)
        s2 = W.filter_attr([e["id"] for e in ents], "founded", "year", ">", year)
        kind = rng.choice(["And", "Or"])
        if kind == "And":
            s3 = [i for i in s1 if i in set(s2)]
        else:
            s3 = s1 + [i for i in s2 if i not in set(s1)]
        s4 = [i for i in s3 if W.by_id[i]["concept"] in W.closure(mid)]
        if not s4:
            return None
        plan = [{"tool": "FindAll", "args": {}},
                {"tool": "FilterConcept", "args": {"entities": "$0", "concept": W.concept_name[root]}},
                {"tool": "FilterYear", "args": {"entities": "$0", "key": "founded",
                                                "value": str(year), "op": ">"}},
                {"tool": kind, "args": {"left": "$1", "right": "$2"}},
                {"tool": "FilterConcept", "args": {"entities": "$3", "concept": W.concept_name[mid]}},
                {"tool": "Count", "args": {"entities": "$4"}}]
        return plan, str(len(s4))

    all_templates = {
        "concept-relate": t_concept_relate, "concept-and": t_concept_and,
        "query-attr": t_query_attr, "relate-chain": t_relate_chain,
        "concept-count": t_concept_count, "select-among": t_select_among,
        "and": t_and, "wide-or": t_wide_or, "verify": t_verify,
        "select-between": t_select_between, "qualifier": t_qualifier,
        "deep": t_deep, "relation-query": t_relation_query,
        "attr-qualifier": t_attr_qualifier,
    }
    chosen = list(templates or all_templates)
    seen = set()
    while len(tasks) < count:
        name = chosen[len(tasks) % len(chosen)]
        made = all_templates[name]()
        if made is None:
            continue
        plan, answer = made
        key = json.dumps(plan, sort_keys=True)
        if key in seen or not _distinct(plan):
            continue
        seen.add(key)
        plan[-1]["final"] = True
        tasks.append(_task_doc(f"kopl-{len(tasks):03d}-{name}", name, plan, answer,
                               dataset="synth-kopl"))
    return tasks


def _task_doc(task_id, template, plan, answer, dataset, controls=None) -> dict:
    return {
        "id": task_id,
        "question": f"Synthetic {template} question {task_id}",
        "gold_plan": plan,
        "gold_answer": [answer],
        "dataset": dataset,
        "controls": dict(controls or {}),
        "planted": {"answer": answer, "depth": plan_depth(plan),
                    "breadth": float(plan_breadth(plan))},
    }


# ---------------------------------------------------------------------------
# Atomic graph store

ATOMIC_RELATIONS = ("starring", "runtime", "released", "born")


class AtomicWorld:
    """Films and people in a triple store, with an evaluator for the tools."""

    def __init__(self, rng: random.Random, n_nodes: int):
        namer = Namer(rng)
        n_people = n_nodes // 2
        n_films = n_nodes - n_people
        self.nodes = []  # (id, name, classes)
        for i in range(n_people):
            self.nodes.append((f"p{i:05d}", namer.take(words=2, capital=True),
                               ("person",)))
        for i in range(n_films):
            self.nodes.append((f"f{i:05d}", namer.take(words=2, capital=True),
                               ("film",)))
        self.people = [n for n in self.nodes if n[2] == ("person",)]
        self.films = [n for n in self.nodes if n[2] == ("film",)]
        self.triples = []  # (s, p, ("node", id) | ("number", v, unit) | ("year", y))
        for film in self.films:
            for person in rng.sample(self.people, rng.randint(2, 5)):
                self.triples.append((film[0], "starring", ("node", person[0])))
            self.triples.append((film[0], "runtime",
                                 ("number", float(rng.randint(20, 200)), "minutes")))
            self.triples.append((film[0], "released", ("year", rng.randint(1960, 2025))))
        for person in self.people:
            self.triples.append((person[0], "born", ("year", rng.randint(1930, 2005))))
        rng.shuffle(self.triples)
        self.order = {n[0]: i for i, n in enumerate(self.nodes)}
        self.name = {n[0]: n[1] for n in self.nodes}

    def document(self) -> dict:
        triples = []
        for s, p, o in self.triples:
            if o[0] == "node":
                triples.append({"s": s, "p": p, "o_node": o[1]})
            elif o[0] == "number":
                triples.append({"s": s, "p": p,
                                "o_literal": {"kind": "number", "value": o[1], "unit": o[2]}})
            else:
                triples.append({"s": s, "p": p, "o_literal": {"kind": "year", "value": o[1]}})
        return {"nodes": [{"id": i, "name": n, "classes": list(c)} for i, n, c in self.nodes],
                "triples": triples}

    def sort(self, ids) -> list[str]:
        return sorted(set(ids), key=self.order.__getitem__)

    def find_relation(self, relation, direction, target) -> list[str]:
        wanted = set(target)
        out = []
        for s, p, o in self.triples:
            if p != relation or o[0] != "node":
                continue
            if direction == "forward" and o[1] in wanted:
                out.append(s)
            elif direction == "backward" and s in wanted:
                out.append(o[1])
        return self.sort(out)

    def value(self, nid, prop):
        for s, p, o in self.triples:
            if s == nid and p == prop and o[0] != "node":
                return o[1]
        return None

    def order_op(self, mode, ids, prop) -> list[str]:
        valued = [(i, self.value(i, prop)) for i in ids]
        valued = [(i, v) for i, v in valued if v is not None]
        if not valued:
            return []
        best = (min if mode == "argmin" else max)(v for _, v in valued)
        return self.sort(i for i, v in valued if v == best)

    def compare(self, op, prop, literal) -> list[str]:
        fns = {"<": lambda a: a < literal, "<=": lambda a: a <= literal,
               ">": lambda a: a > literal, ">=": lambda a: a >= literal}
        return self.sort(s for s, p, o in self.triples
                         if p == prop and o[0] != "node" and fns[op](o[1]))

    def time_constraint(self, ids, relation, year) -> list[str]:
        return self.sort(i for i in ids if self.value(i, relation) == year)

    def render(self, ids) -> str:
        return "; ".join(f"{i} ({self.name[i]})" for i in ids)


def atomic_tasks(world: AtomicWorld, rng: random.Random, count: int,
                 templates=None) -> list[dict]:
    W = world
    tasks: list[dict] = []

    def person_with_films(minimum=1):
        while True:
            p = rng.choice(W.people)
            films = W.find_relation("starring", "forward", [p[0]])
            if len(films) >= minimum:
                return p, films

    def t_count():
        p, films = person_with_films()
        plan = [{"tool": "Extract_entity", "args": {"input": p[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
                {"tool": "Count", "args": {"input": "$1"}}]
        return plan, str(len(films))

    def t_longest():
        p, films = person_with_films(2)
        mode = rng.choice(["argmax", "argmin"])
        plan = [{"tool": "Extract_entity", "args": {"input": p[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
                {"tool": "Order", "args": {"mode": mode, "input": "$1", "property": "runtime"}}]
        return plan, W.render(W.order_op(mode, films, "runtime"))

    def t_short_merge():
        p, films = person_with_films(2)
        runtimes = sorted(W.value(f, "runtime") for f in films)
        limit = runtimes[len(runtimes) // 2]
        op = rng.choice(["<=", ">="])
        short = W.compare(op, "runtime", limit)
        kept = [f for f in films if f in set(short)]
        plan = [{"tool": "Extract_entity", "args": {"input": p[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
                {"tool": "Compare", "args": {"operator": op, "property": "runtime",
                                             "literal": render_number(limit, "minutes")}},
                {"tool": "Merge", "args": {"input1": "$1", "input2": "$2"}}]
        return plan, W.render(kept)

    def t_year_count():
        p, films = person_with_films()
        year = W.value(rng.choice(films), "released")
        kept = W.time_constraint(films, "released", year)
        plan = [{"tool": "Extract_entity", "args": {"input": p[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
                {"tool": "Time_constraint", "args": {"input": "$1", "relation": "released", "literal": str(year)}},
                {"tool": "Count", "args": {"input": "$2"}}]
        return plan, str(len(kept))

    def t_costars():
        film = rng.choice(W.films)
        cast = W.find_relation("starring", "backward", [film[0]])
        their = W.find_relation("starring", "forward", cast)
        best = W.order_op("argmin", their, "runtime")
        plan = [{"tool": "Extract_entity", "args": {"input": film[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "backward", "target": "$0"}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$1"}},
                {"tool": "Order", "args": {"mode": "argmin", "input": "$2", "property": "runtime"}}]
        return plan, W.render(best)

    def t_deep():
        p, films = person_with_films()
        costars = W.find_relation("starring", "backward", films)
        their = W.find_relation("starring", "forward", costars)
        year = W.value(rng.choice(their), "released")
        dated = W.time_constraint(their, "released", year)
        best = W.order_op("argmax", dated, "runtime")
        plan = [{"tool": "Extract_entity", "args": {"input": p[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "backward", "target": "$1"}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$2"}},
                {"tool": "Time_constraint", "args": {"input": "$3", "relation": "released", "literal": str(year)}},
                {"tool": "Order", "args": {"mode": "argmax", "input": "$4", "property": "runtime"}},
                {"tool": "Count", "args": {"input": "$5"}}]
        return plan, str(len(best))

    def t_shared():
        p, films = person_with_films()
        film = rng.choice(films)
        cast = [c for c in W.find_relation("starring", "backward", [film]) if c != p[0]]
        q = next(n for n in W.people if n[0] == cast[0])
        other = W.find_relation("starring", "forward", [q[0]])
        shared = [f for f in films if f in set(other)]
        plan = [{"tool": "Extract_entity", "args": {"input": p[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
                {"tool": "Extract_entity", "args": {"input": q[1]}},
                {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$2"}},
                {"tool": "Merge", "args": {"input1": "$1", "input2": "$3"}},
                {"tool": "Count", "args": {"input": "$4"}}]
        return plan, str(len(shared))

    def t_compare_order():
        limit = float(rng.randint(120, 135))
        films = W.compare(">=", "runtime", limit)
        mode = rng.choice(["argmax", "argmin"])
        plan = [{"tool": "Compare", "args": {"operator": ">=", "property": "runtime",
                                             "literal": render_number(limit, "minutes")}},
                {"tool": "Order", "args": {"mode": mode, "input": "$0", "property": "released"}}]
        return plan, W.render(W.order_op(mode, films, "released"))

    all_templates = {"compare-order": t_compare_order, "count": t_count, "longest": t_longest, "short-merge": t_short_merge,
                     "year-count": t_year_count, "costars": t_costars, "deep": t_deep,
                     "shared": t_shared}
    chosen = list(templates or all_templates)
    seen = set()
    while len(tasks) < count:
        name = chosen[len(tasks) % len(chosen)]
        plan, answer = all_templates[name]()
        key = json.dumps(plan, sort_keys=True)
        if key in seen or not _distinct(plan):
            continue
        seen.add(key)
        plan[-1]["final"] = True
        tasks.append(_task_doc(f"atomic-{len(tasks):03d}-{name}", name, plan, answer,
                               dataset="synth-atomic"))
    return tasks


# ---------------------------------------------------------------------------
# Mock corpus

_CITIES = ("Orvel", "Dunmarch", "Keswall", "Pellith", "Tarnby")


def mock_world(rng: random.Random, n_docs: int, n_tasks: int):
    """A corpus of one document per pseudo-named subject, and search/reasoning
    tasks over it.  top_k covers the whole corpus, so every search inspects
    the full ranking and answerability does not hinge on trigram ranks."""
    namer = Namer(rng)
    subjects = [(namer.take(words=2, capital=True), rng.randint(1600, 2020),
                 rng.choice(_CITIES)) for _ in range(n_docs)]
    documents = [{
        "title": name,
        "text": f"{name} was founded in {year} and stands in {city}.",
        "answers": {f"When was {name} founded?": str(year), f"Where is {name}?": city},
    } for name, year, city in subjects]
    corpus = {"documents": documents, "top_k": len(documents)}

    tasks = []
    kinds = ("earlier", "later", "same-city", "lookup")
    while len(tasks) < n_tasks:
        kind = kinds[len(tasks) % len(kinds)]
        a, b = rng.sample(subjects, 2)
        if kind in ("earlier", "later"):
            if a[1] == b[1]:
                continue
            plan = [{"tool": "search", "args": {"question": f"When was {a[0]} founded?"}},
                    {"tool": "search", "args": {"question": f"When was {b[0]} founded?"}},
                    {"tool": "reasoning", "args": {"instruction": f"compare($0, $1, {kind})"}}]
            answer = str(min(a[1], b[1]) if kind == "earlier" else max(a[1], b[1]))
            controls = {"match_mode": "numeric", "has_comparison": True}
        elif kind == "same-city":
            plan = [{"tool": "search", "args": {"question": f"Where is {a[0]}?"}},
                    {"tool": "search", "args": {"question": f"Where is {b[0]}?"}},
                    {"tool": "reasoning", "args": {"instruction": "equality($0, $1)"}}]
            answer = "yes" if a[2] == b[2] else "no"
            controls = {"has_bridge": True, "has_comparison": True}
        else:
            plan = [{"tool": "search", "args": {"question": f"Where is {a[0]}?"}}]
            answer = a[2]
            controls = {}
        plan[-1]["final"] = True
        tasks.append(_task_doc(f"mock-{len(tasks):03d}-{kind}", kind, plan, answer,
                               dataset="synth-mock", controls=controls))
    return corpus, tasks


# ---------------------------------------------------------------------------
# Planted outcomes for the GEE fit

PLANTED = {"intercept": 0.4, "depth": -0.6, "breadth": 0.25, "sh": 0.3,
           "depth:sh": -0.45, "breadth:sh": 0.1}
_DATASETS = ("synth-a", "synth-b", "synth-c")
_LAST_TOOLS = ("Count", "QueryAttr", "QueryName", "SelectAmong")


def planted_outcomes(rng: random.Random, clusters: int, trials: int) -> list[dict]:
    """Rows drawn from a clustered logit with the PLANTED coefficients on
    standardized depth and breadth (every cluster has the same row count, so
    cluster-level standardization equals the row-level one)."""
    specs = []
    for c in range(clusters):
        depth = rng.randint(1, 7)
        nodes = depth * rng.randint(2, 6) // 2 + rng.randint(0, 2)
        nodes = max(nodes, depth)
        specs.append({
            "question_id": f"q{c:05d}",
            "depth": depth,
            "breadth": float(Fraction(nodes, depth)),
            "dataset": rng.choice(_DATASETS),
            "last_tool": rng.choice(_LAST_TOOLS),
            "has_bridge": rng.random() < 0.4,
            "has_comparison": rng.random() < 0.3,
            "effect": rng.gauss(0.0, 0.5),
        })
    d_mean = sum(s["depth"] for s in specs) / clusters
    d_sd = math.sqrt(sum((s["depth"] - d_mean) ** 2 for s in specs) / clusters)
    b_mean = sum(s["breadth"] for s in specs) / clusters
    b_sd = math.sqrt(sum((s["breadth"] - b_mean) ** 2 for s in specs) / clusters)
    rows = []
    for s in specs:
        d = (s["depth"] - d_mean) / d_sd
        b = (s["breadth"] - b_mean) / b_sd
        for planner in ("fh", "sh"):
            sh = 1.0 if planner == "sh" else 0.0
            eta = (PLANTED["intercept"] + PLANTED["depth"] * d + PLANTED["breadth"] * b
                   + PLANTED["sh"] * sh + PLANTED["depth:sh"] * d * sh
                   + PLANTED["breadth:sh"] * b * sh + s["effect"])
            prob = 1.0 / (1.0 + math.exp(-eta))
            for trial in range(trials):
                success = 1 if rng.random() < prob else 0
                tokens_in = int(rng.randint(200, 400) * (s["depth"] if sh else 1))
                rows.append({
                    "question_id": s["question_id"], "trial": trial, "planner": planner,
                    "success": success, "depth": s["depth"], "breadth": s["breadth"],
                    "dataset": s["dataset"], "last_tool": s["last_tool"],
                    "has_bridge": s["has_bridge"], "has_comparison": s["has_comparison"],
                    "tokens_in": tokens_in, "tokens_out": rng.randint(10, 60) * s["depth"],
                    "repeated": rng.random() < 0.05,
                    "label": "correct" if success else "incorrect",
                })
    return rows


# ---------------------------------------------------------------------------
# Writers

# Input sizes of the generated workloads; the probes for the growth ratios
# use their own sizes (see run.py).
SIZES = {
    "kopl": {"n_entities": 2000, "n_tasks": 42},
    "atomic": {"n_nodes": 2000, "n_tasks": 16},
    "mock": {"n_docs": 600, "n_tasks": 24},
    "outcomes": {"clusters": 1200, "trials": 40},
}

def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_suite(out_dir: str, name: str, engine: str, data_file: str, data_doc,
                tasks: list[dict], policy: dict, robustness: str, trials: int,
                seed: int) -> dict:
    """Write data, task file and run config; returns the suite description."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, data_file), data_doc)
    key = {"kopl": "kb", "atomic": "graph", "mock": "corpus"}[engine]
    dataset_file = f"{name}_tasks.json"
    _write_json(os.path.join(out_dir, dataset_file),
                {"engine": engine, key: data_file,
                 "tasks": [{k: v for k, v in t.items() if k != "planted"} for t in tasks]})
    config_file = f"run_{name}.json"
    _write_json(os.path.join(out_dir, config_file),
                {"dataset": dataset_file, "planner": "both", "policy": policy,
                 "robustness": robustness, "trials": trials, "seed": seed})
    planted = {t["id"]: t["planted"] for t in tasks}
    _write_json(os.path.join(out_dir, f"{name}_planted.json"), planted)
    return {"name": name, "config": os.path.join(out_dir, config_file),
            "dataset": os.path.join(out_dir, dataset_file),
            "planted": planted, "trials": trials, "robustness": robustness}


def generate_kopl(out_dir: str, seed: int, n_entities: int, n_tasks: int,
                  trials: int = 1, templates=None, name: str = "kopl") -> dict:
    rng = random.Random(f"kopl|{seed}|{n_entities}")
    world = KoplWorld(rng, n_entities)
    tasks = kopl_tasks(world, rng, n_tasks, templates)
    return write_suite(out_dir, name, "kopl", f"{name}_kb.json", world.document(), tasks,
                       {"kind": "oracle"}, "high", trials, seed)


# Every first emission of a step with a schema term is corrupted and then
# corrected after the failure feedback.  The program's noisy policy draws the
# same corruption pattern for every task of a trial, so any lower rate would
# make the amount of failing work hinge on the seed.
ATOMIC_NOISE = {"kind": "noisy", "wrong_schema_rate": 1.0,
                "corrects_after_feedback": True}


def generate_atomic(out_dir: str, seed: int, n_nodes: int, n_tasks: int,
                    trials: int = 1, templates=None, name: str = "atomic") -> dict:
    rng = random.Random(f"atomic|{seed}|{n_nodes}")
    world = AtomicWorld(rng, n_nodes)
    tasks = atomic_tasks(world, rng, n_tasks, templates)
    return write_suite(out_dir, name, "atomic", f"{name}_graph.json", world.document(),
                       tasks, dict(ATOMIC_NOISE), "low", trials, seed)


def generate_mock(out_dir: str, seed: int, n_docs: int, n_tasks: int,
                  trials: int = 1, name: str = "mock") -> dict:
    rng = random.Random(f"mock|{seed}|{n_docs}")
    corpus, tasks = mock_world(rng, n_docs, n_tasks)
    return write_suite(out_dir, name, "mock", f"{name}_corpus.json", corpus, tasks,
                       {"kind": "oracle"}, "high", trials, seed)


def generate_outcomes(out_dir: str, seed: int, clusters: int, trials: int) -> list[dict]:
    rng = random.Random(f"outcomes|{seed}|{clusters}|{trials}")
    rows = planted_outcomes(rng, clusters, trials)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "outcomes.jsonl"), "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate_kopl(os.path.join(args.out, "kopl"), args.seed, **SIZES["kopl"])
    generate_atomic(os.path.join(args.out, "atomic"), args.seed, **SIZES["atomic"])
    generate_mock(os.path.join(args.out, "mock"), args.seed, **SIZES["mock"])
    generate_outcomes(os.path.join(args.out, "gee"), args.seed, **SIZES["outcomes"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
