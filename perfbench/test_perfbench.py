"""Tests of the benchmark's own generator (run with pytest from the repo root).

The planted answers are re-derived by brute force from the written JSON files,
with an interpreter that shares no code with the generator or with
planhorizon.
"""

from __future__ import annotations

import datetime
import filecmp
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402

SMALL = {"kopl": dict(n_entities=150, n_tasks=28), "atomic": dict(n_nodes=160, n_tasks=16),
         "mock": dict(n_docs=30, n_tasks=8), "outcomes": dict(clusters=20, trials=3)}


def _generate(out: str, seed: int) -> None:
    gen.generate_kopl(os.path.join(out, "kopl"), seed, **SMALL["kopl"])
    gen.generate_atomic(os.path.join(out, "atomic"), seed, **SMALL["atomic"])
    gen.generate_mock(os.path.join(out, "mock"), seed, **SMALL["mock"])
    gen.generate_outcomes(os.path.join(out, "gee"), seed, **SMALL["outcomes"])


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    _generate(str(out), 7)
    return out


def _files(root) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def test_same_seed_gives_identical_files(generated, tmp_path):
    _generate(str(tmp_path), 7)
    names = _files(generated)
    assert names == _files(tmp_path) and len(names) == 13
    _match, mismatch, errors = filecmp.cmpfiles(generated, tmp_path, names, shallow=False)
    assert not mismatch and not errors


def test_other_seed_gives_other_files(generated, tmp_path):
    _generate(str(tmp_path), 8)
    _match, mismatch, _errors = filecmp.cmpfiles(generated, tmp_path, _files(generated),
                                                 shallow=False)
    assert mismatch


def _load(root, suite, data_key):
    with open(os.path.join(root, suite, f"{suite}_tasks.json"), encoding="utf-8") as fh:
        tasks = json.load(fh)
    with open(os.path.join(root, suite, tasks[data_key]), encoding="utf-8") as fh:
        data = json.load(fh)
    with open(os.path.join(root, suite, f"{suite}_planted.json"), encoding="utf-8") as fh:
        planted = json.load(fh)
    return tasks["tasks"], data, planted


def _ref(value, results):
    return results[int(value[1:])]


# ---------------------------------------------------------------------------
# KoPL by brute force over the KB document

def _typed(doc):
    kind, value = doc["kind"], doc["value"]
    if kind == "date":
        return ("date", datetime.date.fromisoformat(value), None)
    if kind == "number":
        return ("number", float(value), doc.get("unit"))
    return (kind, value, None)


def _literal(text, kind):
    if kind == "number":
        head, _, unit = text.partition(" ")
        return ("number", float(head), unit or None)
    if kind == "year":
        return ("year", int(text), None)
    if kind == "date":
        return ("date", datetime.date.fromisoformat(text), None)
    return ("string", text, None)


def _holds(a, op, b):
    if a[0] != b[0] or a[2] != b[2]:
        return False
    return {"=": a[1] == b[1], "!=": a[1] != b[1], "<": a[1] < b[1], ">": a[1] > b[1]}[op]


def _render(value):
    kind, payload, unit = value
    if kind == "number":
        text = str(int(payload)) if payload == int(payload) else str(payload)
        return f"{text} {unit}" if unit else text
    if kind == "date":
        return payload.isoformat()
    return str(payload)


def run_kopl(kb, plan):
    entities = kb["entities"]
    order = [e["id"] for e in entities]
    by_id = {e["id"]: e for e in entities}
    kinds = {"FilterStr": "string", "FilterNum": "number", "FilterYear": "year",
             "FilterDate": "date", "QFilterYear": "year", "VerifyYear": "year",
             "VerifyNum": "number", "VerifyDate": "date"}

    def closure(name):
        found = {c["id"] for c in kb["concepts"] if c["name"] == name}
        grew = True
        while grew:
            more = {c["id"] for c in kb["concepts"] if set(c["subclass_of"]) & found}
            grew = not more <= found
            found |= more
        return found

    def as_set(pairs):
        facts = {}
        for eid, fact in pairs:
            facts.setdefault(eid, []).append(fact)
        ids = [i for i in order if i in facts]
        return {"ids": ids, "facts": [facts[i] for i in ids]}

    def number(eid, key):
        return next((_typed(a["value"]) for a in by_id[eid]["attributes"]
                     if a["key"] == key and a["value"]["kind"] == "number"), None)

    results = []
    for step in plan:
        tool, args = step["tool"], step["args"]
        if tool == "FindAll":
            out = {"ids": list(order), "facts": None}
        elif tool == "Find":
            out = {"ids": [e["id"] for e in entities if e["name"] == args["name"]], "facts": None}
        elif tool == "FilterConcept":
            wanted = closure(args["concept"])
            out = {"ids": [i for i in _ref(args["entities"], results)["ids"]
                           if set(by_id[i]["instance_of"]) & wanted], "facts": None}
        elif tool in ("FilterStr", "FilterNum", "FilterYear", "FilterDate"):
            target = _literal(args["value"], kinds[tool])
            op = args.get("op", "=")
            pairs = [(i, a) for i in _ref(args["entities"], results)["ids"]
                     for a in by_id[i]["attributes"]
                     if a["key"] == args["key"] and _holds(_typed(a["value"]), op, target)]
            out = as_set(pairs)
        elif tool == "QFilterYear":
            target = _literal(args["qvalue"], "year")
            src = _ref(args["entities"], results)
            pairs = [(i, f) for i, facts in zip(src["ids"], src["facts"]) for f in facts
                     if any(q["key"] == args["qkey"]
                            and _holds(_typed(q["value"]), args["op"], target)
                            for q in f["qualifiers"])]
            out = as_set(pairs)
        elif tool == "Relate":
            pred, forward = args["relation"], args["direction"] == "forward"
            pairs = []
            for eid in _ref(args["entities"], results)["ids"]:
                for e in entities:
                    for r in e["relations"]:
                        if r["predicate"] != pred:
                            continue
                        if e["id"] == eid and (r["direction"] == "forward") == forward:
                            pairs.append((r["target"], r))
                        elif (e["id"] != eid and r["target"] == eid
                              and (r["direction"] == "forward") != forward):
                            pairs.append((e["id"], r))
            out = as_set(pairs)
        elif tool in ("And", "Or"):
            a, b = _ref(args["left"], results)["ids"], _ref(args["right"], results)["ids"]
            ids = [i for i in a if i in b] if tool == "And" else a + [i for i in b if i not in a]
            out = {"ids": ids, "facts": None}
        elif tool == "Count":
            out = str(len(_ref(args["entities"], results)["ids"]))
        elif tool == "SelectAmong":
            valued = [(i, number(i, args["key"])) for i in _ref(args["entities"], results)["ids"]]
            valued = [(i, v) for i, v in valued if v is not None]
            pick = (max if args["mode"] == "largest" else min)(v[1] for _, v in valued)
            out = by_id[next(i for i, v in valued if v[1] == pick)]["name"]
        elif tool == "SelectBetween":
            ea = _ref(args["left"], results)["ids"][0]
            eb = _ref(args["right"], results)["ids"][0]
            va, vb = number(ea, args["key"])[1], number(eb, args["key"])[1]
            first = va >= vb if args["mode"] == "greater" else va <= vb
            out = by_id[ea if first else eb]["name"]
        elif tool == "QueryName":
            out = by_id[_ref(args["entities"], results)["ids"][0]]["name"]
        elif tool == "QueryAttr":
            out = next(_typed(a["value"]) for i in _ref(args["entities"], results)["ids"]
                       for a in by_id[i]["attributes"] if a["key"] == args["key"])
        elif tool == "QueryRelation":
            ea = _ref(args["left"], results)["ids"][0]
            eb = _ref(args["right"], results)["ids"][0]
            out = next(r["predicate"] for r in by_id[ea]["relations"] if r["target"] == eb)
        elif tool == "QueryAttrQualifier":
            target = _literal(args["value"], "number")
            out = next(_typed(q["value"]) for i in _ref(args["entities"], results)["ids"]
                       for a in by_id[i]["attributes"]
                       if a["key"] == args["key"] and _holds(_typed(a["value"]), "=", target)
                       for q in a["qualifiers"] if q["key"] == args["qkey"])
        elif tool in ("VerifyYear", "VerifyNum", "VerifyDate"):
            holds = _holds(_ref(args["input"], results), args["op"],
                           _literal(args["value"], kinds[tool]))
            out = "yes" if holds else "no"
        else:
            raise AssertionError(f"unexpected tool {tool}")
        if isinstance(out, dict):
            assert out["ids"], f"{tool} produced an empty set"
        results.append(out)
    last = results[-1]
    if isinstance(last, dict):
        names = {e["id"]: e["name"] for e in entities}
        return "; ".join(names[i] for i in last["ids"])
    return _render(last) if isinstance(last, tuple) else last


def test_kopl_answers_by_brute_force(generated):
    tasks, kb, planted = _load(generated, "kopl", "kb")
    assert len(tasks) == SMALL["kopl"]["n_tasks"]
    tools = set()
    for task in tasks:
        tools.update(step["tool"] for step in task["gold_plan"])
        assert run_kopl(kb, task["gold_plan"]) == planted[task["id"]]["answer"], task["id"]
    families = {"Find", "FindAll", "FilterConcept", "FilterNum", "FilterYear", "FilterDate",
                "FilterStr", "QFilterYear", "Relate", "And", "Count", "SelectAmong",
                "SelectBetween", "QueryName", "QueryAttr", "QueryRelation",
                "QueryAttrQualifier"}
    assert families <= tools


# ---------------------------------------------------------------------------
# Atomic tools by brute force over the graph document

def run_atomic(graph, plan):
    nodes = [n["id"] for n in graph["nodes"]]
    names = {n["id"]: n["name"] for n in graph["nodes"]}
    triples = graph["triples"]

    def ordered(ids):
        return [i for i in nodes if i in set(ids)]

    def literal_of(nid, prop):
        return next((_typed(t["o_literal"]) for t in triples
                     if t["s"] == nid and t["p"] == prop and "o_literal" in t), None)

    results = []
    for step in plan:
        tool, args = step["tool"], step["args"]
        if tool == "Extract_entity":
            out = ordered([i for i in nodes if names[i] == args["input"]])
        elif tool == "Find_relation":
            wanted = set(_ref(args["target"], results))
            if args["direction"] == "forward":
                out = ordered([t["s"] for t in triples
                               if t["p"] == args["relation"] and t.get("o_node") in wanted])
            else:
                out = ordered([t["o_node"] for t in triples if t["p"] == args["relation"]
                               and t["s"] in wanted and "o_node" in t])
        elif tool == "Merge":
            b = _ref(args["input2"], results)
            out = [i for i in _ref(args["input1"], results) if i in b]
        elif tool == "Order":
            valued = [(i, literal_of(i, args["property"])) for i in _ref(args["input"], results)]
            valued = [(i, v[1]) for i, v in valued if v is not None]
            best = (max if args["mode"] == "argmax" else min)(v for _, v in valued)
            out = ordered([i for i, v in valued if v == best])
        elif tool == "Compare":
            limit = _literal(args["literal"], "number")
            ops = {"<=": lambda a: a <= limit[1], ">=": lambda a: a >= limit[1]}
            out = ordered([t["s"] for t in triples if t["p"] == args["property"]
                           and "o_literal" in t and _typed(t["o_literal"])[2] == limit[2]
                           and ops[args["operator"]](_typed(t["o_literal"])[1])])
        elif tool == "Time_constraint":
            year = int(args["literal"])
            out = [i for i in _ref(args["input"], results)
                   if (literal_of(i, args["relation"]) or (None, None))[1] == year]
        elif tool == "Count":
            out = str(len(_ref(args["input"], results)))
        else:
            raise AssertionError(f"unexpected tool {tool}")
        if isinstance(out, list):
            assert out, f"{tool} produced an empty set"
        results.append(out)
    last = results[-1]
    if isinstance(last, list):
        return "; ".join(f"{i} ({names[i]})" for i in last)
    return last


def test_atomic_answers_by_brute_force(generated):
    tasks, graph, planted = _load(generated, "atomic", "graph")
    for task in tasks:
        assert run_atomic(graph, task["gold_plan"]) == planted[task["id"]]["answer"], task["id"]


def test_atomic_corruptions_never_hit_a_valid_term(generated):
    """Under low robustness every corrupted schema term must fail grounding."""
    _tasks, graph, _planted = _load(generated, "atomic", "graph")
    terms = {gen.normalize_term(n["name"]) for n in graph["nodes"]}
    terms |= {gen.normalize_term(c) for n in graph["nodes"] for c in n["classes"]}
    terms |= {gen.normalize_term(t["p"]) for t in graph["triples"]}
    for term in list(terms):
        assert gen.normalize_term(gen.corrupt_term(term)) not in terms, term


# ---------------------------------------------------------------------------
# Mock corpus, plan metrics and planted outcomes

def test_mock_answers_by_brute_force(generated):
    tasks, corpus, planted = _load(generated, "mock", "corpus")
    lookup = {q: a for d in corpus["documents"] for q, a in d["answers"].items()}
    for task in tasks:
        results = []
        for step in task["gold_plan"]:
            if step["tool"] == "search":
                results.append(lookup[step["args"]["question"]])
                continue
            text = step["args"]["instruction"]
            a, b = results[0], results[1]
            if text.startswith("equality"):
                results.append("yes" if a == b else "no")
            else:
                later = text.endswith("later)")
                results.append(a if (int(a) >= int(b)) == later else b)
        assert results[-1] == planted[task["id"]]["answer"], task["id"]


def test_depth_breadth_and_distinct_steps(generated):
    for suite, key in (("kopl", "kb"), ("atomic", "graph")):
        tasks, _data, planted = _load(generated, suite, key)
        for task in tasks:
            plan = task["gold_plan"]
            steps = [json.dumps(s, sort_keys=True) for s in plan]
            assert len(set(steps)) == len(steps), task["id"]
            # longest reference chain by exhaustive path enumeration
            def longest(i):
                refs = [int(v[1:]) for v in plan[i]["args"].values()
                        if isinstance(v, str) and v.startswith("$")]
                return 1 + max((longest(j) for j in refs), default=0)
            depth = max(longest(i) for i in range(len(plan)))
            assert planted[task["id"]]["depth"] == depth
            assert planted[task["id"]]["breadth"] == len(plan) / depth
            assert 2 <= depth <= 7


def test_planted_outcomes_shape(generated):
    with open(os.path.join(generated, "gee", "outcomes.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == SMALL["outcomes"]["clusters"] * 2 * SMALL["outcomes"]["trials"]
    assert {r["planner"] for r in rows} == {"sh", "fh"}
    assert len({r["depth"] for r in rows}) > 1 and len({r["breadth"] for r in rows}) > 1
