"""One failure path for the KoPL and atomic tools: a schema term that grounds
to nothing, or an argument value a tool cannot use, ends the tool with a
failed step, whether the tool is called directly or through its engine."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import atomic, harness, kopl
from planhorizon.atomic import AtomicEngine, NodeSet, load_graph
from planhorizon.grounding import Grounder, SchemaIndex, build_index, format_candidate_feedback
from planhorizon.kb import load_kb, parse_value_text, read_document
from planhorizon.kopl import EntitySet, KoplEngine
from planhorizon.outcome import ToolFailure

UNKNOWN = "zzqx wvy"
OTHER_UNKNOWN = "qqjv xzk"

EVERYONE = EntitySet(("q_lebron", "q_lebron_jr", "q_google", "q_instagram", "q_meta"))
JUNIOR = EntitySet(("q_lebron_jr",))
SENIOR = EntitySet(("q_lebron",))
WITH_FACTS = EntitySet(("q_lebron",), facts=((),))
TAYLOR = NodeSet(("m.0f7hw",))
FILMS = NodeSet(("m.02686wj", "m.0dtfn", "m.0shrt1"))


def _filter(kind):
    return lambda kb, g, a: kopl.filter_attribute(
        kb, g, a["entities"], a["key"], parse_value_text(a["value"], kind), a["op"])


def _qfilter(kind):
    return lambda kb, g, a: kopl.qualifier_filter(
        g, a["entities"], a["qkey"], parse_value_text(a["qvalue"], kind), a["op"])


def _query_attr_under_condition(kb, g, a):
    return kopl.query_attr_under_condition(kb, g, a["entities"], a["key"], a["qkey"],
                                           parse_value_text(a["qvalue"]))


def _query_attr_qualifier(kb, g, a):
    return kopl.query_attr_qualifier(kb, g, a["entities"], a["key"],
                                     parse_value_text(a["value"]), a["qkey"])


def _query_relation_qualifier(kb, g, a):
    return kopl.query_relation_qualifier(kb, g, a["left"], a["right"], a["relation"],
                                         a["qkey"])


# (tool, valid arguments, the function behind the tool called directly,
#  its grounded parameters with their namespaces in grounding order)
KOPL_TOOLS = [
    ("Find", {"name": "LeBron James"},
     lambda kb, g, a: kopl.find(kb, g, a["name"]), [("name", "entity-name")]),
    ("FilterConcept", {"entities": EVERYONE, "concept": "human"},
     lambda kb, g, a: kopl.filter_concept(kb, g, a["entities"], a["concept"]),
     [("concept", "concept")]),
    *[(tool, {"entities": EVERYONE, "key": "height", "value": value, "op": "="},
       _filter(kind), [("key", "attribute-key")])
      for tool, kind, value in (("FilterStr", "string", "tall"),
                                ("FilterNum", "number", "206 centimetre"),
                                ("FilterYear", "year", "2003"),
                                ("FilterDate", "date", "2003-01-01"))],
    *[(tool, {"entities": WITH_FACTS, "qkey": "point in time", "qvalue": value, "op": "="},
       _qfilter(kind), [("qkey", "qualifier-key")])
      for tool, kind, value in (("QFilterStr", "string", "then"),
                                ("QFilterNum", "number", "3"),
                                ("QFilterYear", "year", "2003"),
                                ("QFilterDate", "date", "2003-01-01"))],
    ("Relate", {"entities": JUNIOR, "relation": "father", "direction": "forward"},
     lambda kb, g, a: kopl.relate(kb, g, a["entities"], a["relation"], a["direction"]),
     [("relation", "relation")]),
    ("SelectAmong", {"entities": EVERYONE, "key": "height", "mode": "largest"},
     lambda kb, g, a: kopl.select_among(kb, g, a["entities"], a["key"], a["mode"]),
     [("key", "attribute-key")]),
    ("SelectBetween", {"left": JUNIOR, "right": SENIOR, "key": "height", "mode": "greater"},
     lambda kb, g, a: kopl.select_between(kb, g, a["left"], a["right"], a["key"], a["mode"]),
     [("key", "attribute-key")]),
    ("QueryAttr", {"entities": EVERYONE, "key": "height"},
     lambda kb, g, a: kopl.query_attr(kb, g, a["entities"], a["key"]),
     [("key", "attribute-key")]),
    ("QueryAttrUnderCondition",
     {"entities": EVERYONE, "key": "height", "qkey": "point in time", "qvalue": "2003"},
     _query_attr_under_condition, [("key", "attribute-key"), ("qkey", "qualifier-key")]),
    ("QueryAttrQualifier",
     {"entities": EVERYONE, "key": "height", "value": "206 centimetre",
      "qkey": "point in time"},
     _query_attr_qualifier, [("key", "attribute-key"), ("qkey", "qualifier-key")]),
    ("QueryRelationQualifier",
     {"left": JUNIOR, "right": SENIOR, "relation": "father", "qkey": "point in time"},
     _query_relation_qualifier, [("relation", "relation"), ("qkey", "qualifier-key")]),
]

ATOMIC_TOOLS = [
    ("Extract_entity", {"input": "Taylor Lautner"},
     lambda s, g, a: atomic.extract_entity(s, g, a["input"]), [("input", "entity-name")]),
    ("Find_relation", {"relation": "starring", "direction": "forward", "target": TAYLOR},
     lambda s, g, a: atomic.find_relation(s, g, a["relation"], a["direction"], a["target"]),
     [("relation", "relation")]),
    ("Order", {"mode": "argmax", "input": FILMS, "property": "runtime"},
     lambda s, g, a: atomic.order(s, g, a["mode"], a["input"], a["property"]),
     [("property", "relation")]),
    ("Compare", {"operator": "<", "property": "runtime", "literal": "60 minutes"},
     lambda s, g, a: atomic.compare(s, g, a["operator"], a["property"],
                                    parse_value_text(a["literal"])),
     [("property", "relation")]),
    ("Time_constraint", {"input": FILMS, "relation": "release_year", "literal": "2008"},
     lambda s, g, a: atomic.time_constraint(s, g, a["input"], a["relation"], a["literal"],
                                            2026),
     [("relation", "relation")]),
]

GROUNDED = (
    [("kopl", tool, args, direct, param, namespace)
     for tool, args, direct, params in KOPL_TOOLS for param, namespace in params]
    + [("atomic", tool, args, direct, param, namespace)
       for tool, args, direct, params in ATOMIC_TOOLS for param, namespace in params]
)
TWO_TERM = [(tool, args, direct, params)
            for tool, args, direct, params in KOPL_TOOLS if len(params) == 2]


ENGINES = {"kopl": KoplEngine, "atomic": AtomicEngine}


@pytest.fixture(scope="module")
def data(fixtures_dir):
    return {"kopl": load_kb(read_document(fixtures_dir / "mini_kb.json")),
            "atomic": load_graph(read_document(fixtures_dir / "toy_graph.json"))}


def unknown_term_feedback(source, mode: str, term: str, namespace: str) -> str:
    r = Grounder(build_index(source), mode=mode).ground(term, namespace)
    assert not r.ok
    return format_candidate_feedback(r, term, namespace)


def both_paths(engine, source, mode, tool, args, direct):
    """The feedback of the failed step through the engine and of the
    ToolFailure the tool function raises, each with a fresh grounder."""
    via_engine = ENGINES[engine](source, mode)
    outcome = via_engine.run_tool(tool, dict(args))
    assert not outcome.ok and outcome.value is None
    with pytest.raises(ToolFailure) as raised:
        direct(source, Grounder(build_index(source), mode=mode), args)
    return outcome.feedback, raised.value.feedback


@pytest.mark.parametrize("mode", ["high", "low"])
@pytest.mark.parametrize("engine,tool,args,direct,param,namespace", GROUNDED,
                         ids=[f"{tool}-{param}" for _, tool, _, _, param, _ in GROUNDED])
def test_unknown_term_is_the_candidate_feedback(data, mode, engine, tool, args, direct,
                                                param, namespace):
    source = data[engine]
    args = {**args, param: UNKNOWN}
    expected = unknown_term_feedback(source, mode, UNKNOWN, namespace)
    for feedback in both_paths(engine, source, mode, tool, args, direct):
        assert feedback == expected


@pytest.mark.parametrize("mode", ["high", "low"])
@pytest.mark.parametrize("tool,args,direct,params", TWO_TERM,
                         ids=[tool for tool, *_ in TWO_TERM])
def test_first_unknown_term_is_reported(data, mode, tool, args, direct, params):
    (first, first_ns), (second, _) = params
    source = data["kopl"]
    args = {**args, first: UNKNOWN, second: OTHER_UNKNOWN}
    expected = unknown_term_feedback(source, mode, UNKNOWN, first_ns)
    for feedback in both_paths("kopl", source, mode, tool, args, direct):
        assert feedback == expected


class TestFeedbackQuotesThePlannersTerm:
    """Failures after a soft match name the term the planner wrote."""

    def test_find(self, data):
        kb = data["kopl"]
        index = SchemaIndex(terms={"entity-name": ("Ghost Writer",)})
        with pytest.raises(ToolFailure) as failed:
            kopl.find(kb, Grounder(index), "Ghost Writers")
        assert failed.value.feedback == "no entity named 'Ghost Writers'"

    def test_filter_concept(self, data):
        kb = data["kopl"]
        with pytest.raises(ToolFailure) as failed:
            kopl.filter_concept(kb, Grounder(build_index(kb)), EntitySet(("q_google",)),
                                "humans")
        assert failed.value.feedback == "no entities are instances of 'humans'"

    def test_order(self, data):
        store = data["atomic"]
        with pytest.raises(ToolFailure) as failed:
            atomic.order(store, Grounder(build_index(store)), "argmax", TAYLOR, "runtimes")
        assert failed.value.feedback == "no node in the set has property 'runtimes'"


# ---------------------------------------------------------------------------
# Bad argument values: a failed step under either planner, never an exception

def scripted_policy(steps):
    """Emit `steps` as one plan (FH) or one step per invocation (SH); every
    later invocation repeats the last step."""
    def policy(request):
        if request.mode == "sh-next-step":
            return json.dumps([steps[min(len(request.history), len(steps) - 1)]])
        return json.dumps(steps if request.mode == "fh-initial" else steps[-1:])
    return policy


def step(tool, final=False, **args):
    return {"tool": tool, "args": args, **({"final": True} if final else {})}


BAD_ARGUMENTS = [
    pytest.param("kopl", [step("FindAll"), step("FilterYear", True, entities="$0",
                                                 key="height", value="nineteen", op="=")],
                 "Error in FilterYear: value 'nineteen' is not a year", id="FilterYear"),
    pytest.param("kopl", [step("FindAll"), step("FilterNum", True, entities="$0",
                                                 key="height", value="tall", op=">")],
                 "Error in FilterNum: value 'tall' is not a number", id="FilterNum"),
    pytest.param("kopl", [step("Find", name="LeBron James Jr."),
                          step("Relate", True, entities="$0", relation="father",
                               direction="up")],
                 "Error in Relate: direction must be forward or backward, got 'up'",
                 id="Relate"),
    pytest.param("kopl", [step("FindAll"), step("SelectAmong", True, entities="$0",
                                                 key="height", mode="biggest")],
                 "Error in SelectAmong: mode must be largest or smallest, got 'biggest'",
                 id="SelectAmong"),
    pytest.param("kopl", [step("Find", name="LeBron James Jr."),
                          step("Find", name="LeBron James"),
                          step("SelectBetween", True, left="$0", right="$1", key="height",
                               mode="biggest")],
                 "Error in SelectBetween: mode must be greater or less, got 'biggest'",
                 id="SelectBetween"),
    pytest.param("kopl", [step("Find", name="Google"),
                          step("QFilterYear", True, entities="$0", qkey="point in time",
                               qvalue="2003", op="=")],
                 "qualifier filters need the admitting facts of the previous filter",
                 id="QFilterYear-no-facts"),
    pytest.param("atomic", [step("Extract_entity", input="film"),
                            step("Time_constraint", True, input="$0",
                                 relation="release_year", literal="soon")],
                 "Error in Time_constraint: literal 'soon' is not a year or 'NOW'",
                 id="Time_constraint"),
    pytest.param("atomic", [step("Extract_entity", input="film"),
                            step("Find_relation", True, relation="starring",
                                 direction="up", target="$0")],
                 "Error in Find_relation: direction must be forward or backward, got 'up'",
                 id="Find_relation"),
    pytest.param("atomic", [step("Extract_entity", True, input=5)],
                 "Error in Extract_entity: argument 'input' must be a string, got 5",
                 id="Extract_entity-int"),
    pytest.param("atomic", [step("Extract_entity", True)],
                 "Error in Extract_entity: argument 'input' is missing",
                 id="Extract_entity-missing"),
    pytest.param("kopl", [step("Find", True)], "Error in Find: argument 'name' is missing",
                 id="Find-missing"),
    pytest.param("atomic", [step("Extract_entity", input="film"),
                            step("Merge", True, input1="$0")],
                 "Error in Merge: argument 'input2' is missing", id="Merge-missing"),
    pytest.param("kopl", [step("FindAll"), step("Count", entities="$0"),
                          step("FilterConcept", True, entities="$1", concept="human")],
                 "Error in FilterConcept: argument 'entities' must be an entity set, got 5",
                 id="FilterConcept-count"),
    pytest.param("kopl", [step("Find", name="LeBron James"), step("QueryName", entities="$0"),
                          step("QueryAttr", True, entities="$1", key="height")],
                 "Error in QueryAttr: argument 'entities' must be an entity set, "
                 "got 'LeBron James'", id="QueryAttr-name"),
    pytest.param("kopl", [step("Find", name="LeBron James"), step("QueryName", entities="$0"),
                          step("Count", True, entities="$1")],
                 "Error in Count: argument 'entities' must be an entity set, "
                 "got 'LeBron James'", id="Count-name"),
    pytest.param("atomic", [step("Extract_entity", input="2008"),
                            step("Order", True, mode="argmax", input="$0", property="runtime")],
                 "Error in Order: argument 'input' must be a node set, "
                 "got TypedValue(kind='year', value=2008, unit=None)", id="Order-literal"),
    pytest.param("kopl", [step("FindAll"), step("FilterNum", True, entities="$0", key="height",
                                                 value="200 centimetre", op=["<"])],
                 "Error in FilterNum: op must be =, !=, <, >, ≠ or ==, got ['<']",
                 id="FilterNum-list-op"),
    pytest.param("kopl", [step("FindAll"), step("FilterNum", True, entities="$0", key="height",
                                                 value="200 centimetre", op=">=")],
                 "Error in FilterNum: op must be =, !=, <, >, ≠ or ==, got '>='",
                 id="FilterNum-unknown-op"),
    pytest.param("kopl", [step("Find", name="LeBron James Jr."),
                          step("Relate", True, entities="$0", relation="father",
                               direction="x" * 100)],
                 "Error in Relate: direction must be forward or backward, got '"
                 + "x" * 79, id="Relate-long-direction"),
    pytest.param("atomic", [step("Compare", True, operator=["<"], property="runtime",
                                 literal="60 minutes")],
                 "Error in Compare: operator must be <, <=, >, >=, ≤ or ≥, got ['<']",
                 id="Compare-list-operator"),
]


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine,steps,feedback", BAD_ARGUMENTS)
def test_bad_argument_value_is_a_failed_step(kopl_dataset, atomic_dataset, planner,
                                             engine, steps, feedback):
    dataset = kopl_dataset if engine == "kopl" else atomic_dataset
    trace = harness.run_task(dataset.tasks[0], scripted_policy(steps),
                             dataset.make_env("high"), planner)
    assert trace.status in ("retry-budget-failed", "replan-budget-failed")
    assert all(rec.ok for rec in trace.records[:len(steps) - 1])
    failed = trace.records[len(steps) - 1:]
    assert failed and not any(rec.ok for rec in failed)
    assert {rec.observation for rec in failed} == {feedback}


# ---------------------------------------------------------------------------
# A schema term that is not a string: a failed step under either planner

# the steps whose last output is a set the valid arguments above hold, given
# the index of their first step
SET_SOURCES = {
    EVERYONE: lambda at: [step("FindAll")],
    JUNIOR: lambda at: [step("Find", name="LeBron James Jr.")],
    SENIOR: lambda at: [step("Find", name="LeBron James")],
    WITH_FACTS: lambda at: [step("FindAll"), step("FilterNum", entities=f"${at}",
                                                  key="height", value="0 centimetre",
                                                  op=">")],
    TAYLOR: lambda at: [step("Extract_entity", input="Taylor Lautner")],
    FILMS: lambda at: [step("Extract_entity", input="film")],
}

NON_STRINGS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.lists(st.text(max_size=8), max_size=3),
                        st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))


def plan_with(engine, tool, args, param, value):
    """A plan whose final `tool` call takes those of `args` that its catalog
    entry names, with `param` set to `value`; the steps before it compute
    the set arguments."""
    entry = next(e for e in ENGINES[engine].catalog if e["name"] == tool)
    steps, call = [], {}
    for name, arg in args.items():
        if name not in {p["name"] for p in entry["params"]}:
            continue
        if arg in SET_SOURCES:
            steps += SET_SOURCES[arg](len(steps))
            arg = f"${len(steps) - 1}"
        call[name] = arg
    return steps + [step(tool, True, **{**call, param: value})]


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine,tool,args,direct,param,namespace", GROUNDED,
                         ids=[f"{tool}-{param}" for _, tool, _, _, param, _ in GROUNDED])
@settings(max_examples=25, deadline=None)
@given(value=NON_STRINGS)
def test_non_string_term_is_a_failed_step(kopl_dataset, atomic_dataset, planner, engine,
                                          tool, args, direct, param, namespace, value):
    dataset = kopl_dataset if engine == "kopl" else atomic_dataset
    steps = plan_with(engine, tool, args, param, value)
    trace = harness.run_task(dataset.tasks[0], scripted_policy(steps),
                             dataset.make_env("high"), planner)
    assert trace.status in ("retry-budget-failed", "replan-budget-failed")
    assert all(rec.ok for rec in trace.records[:len(steps) - 1])
    failed = trace.records[len(steps) - 1:]
    assert failed and not any(rec.ok for rec in failed)
    assert all("must be a string" in rec.observation for rec in failed)


MIXED_RELEASES = {
    "nodes": [{"id": "f1", "name": "Alpha", "classes": ["film"]},
              {"id": "f2", "name": "Beta", "classes": ["film"]}],
    "triples": [{"s": "f1", "p": "released", "o_literal": {"kind": "year", "value": 1999}},
                {"s": "f2", "p": "released",
                 "o_literal": {"kind": "date", "value": "2001-05-02"}}],
}


@pytest.mark.parametrize("planner", ["sh", "fh"])
def test_order_across_value_kinds_is_a_failed_step(atomic_dataset, planner):
    env = AtomicEngine(load_graph(MIXED_RELEASES), "high")
    steps = [step("Extract_entity", input="film"),
             step("Order", True, mode="argmax", input="$0", property="released")]
    trace = harness.run_task(atomic_dataset.tasks[0], scripted_policy(steps), env, planner)
    assert trace.status in ("retry-budget-failed", "replan-budget-failed")
    assert trace.records[0].ok
    failed = trace.records[1:]
    assert failed and not any(rec.ok for rec in failed)
    assert {rec.observation for rec in failed} == {"kind mismatch across 'released'"}
