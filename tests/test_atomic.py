import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import atomic
from planhorizon.atomic import NodeSet, load_graph
from planhorizon.grounding import Grounder, build_index
from planhorizon.kb import read_document
from planhorizon.outcome import ToolFailure

import oracles
from oracles import (App, Seed, compile_chain, eval_sexpr, execute_chain,
                     parse_sexpr, serialize_sexpr)


@pytest.fixture(scope="module")
def store(fixtures_dir):
    return load_graph(read_document(fixtures_dir / "toy_graph.json"))


@pytest.fixture()
def grounder(store):
    return Grounder(build_index(store), mode="high")


LAUTNER_CHAIN = [
    {"tool": "Extract_entity", "args": {"input": "Taylor Lautner"}},
    {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
    {"tool": "Compare", "args": {"operator": "<", "property": "runtime", "literal": "60 minutes"}},
    {"tool": "Merge", "args": {"input1": "$1", "input2": "$2"}},
]


class TestCatalog:
    def test_seven_tools(self):
        names = [entry["name"] for entry in atomic.AtomicEngine.catalog]
        assert names == ["Extract_entity", "Find_relation", "Merge", "Order",
                         "Compare", "Time_constraint", "Count"]


class TestSExpr:
    def test_arity_enforced(self):
        with pytest.raises(oracles.SExprError):
            App("AND", (Seed("a"),))
        with pytest.raises(oracles.SExprError):
            App("WAT", (Seed("a"), Seed("b")))

    def test_serialize_quotes_spaces(self):
        expr = App("JOIN", (Seed("starring"), Seed("forward"), Seed("Taylor Lautner")))
        assert serialize_sexpr(expr) == '(JOIN starring forward "Taylor Lautner")'

    def test_parse_round_trip(self):
        text = '(AND (JOIN starring forward "Taylor Lautner") (LT runtime "60 minutes"))'
        assert serialize_sexpr(parse_sexpr(text)) == text

    @settings(max_examples=60)
    @given(st.recursive(
        st.text(alphabet="abc XY\"()", min_size=1, max_size=8).map(Seed),
        lambda leaf: st.one_of(
            st.tuples(leaf, leaf).map(lambda t: App("AND", t)),
            st.tuples(leaf).map(lambda t: App("COUNT", t)),
            st.tuples(leaf, leaf, leaf).map(lambda t: App("JOIN", t)),
        ),
        max_leaves=6,
    ))
    def test_round_trip_property(self, expr):
        assert parse_sexpr(serialize_sexpr(expr)) == expr


class TestTools:
    def test_extract_entity_name(self, store, grounder):
        assert atomic.extract_entity(store, grounder, "Taylor Lautner") == NodeSet(("m.0f7hw",))

    def test_extract_entity_class(self, store, grounder):
        out = atomic.extract_entity(store, grounder, "film")
        assert set(out.ids) == {"m.02686wj", "m.0dtfn", "m.0shrt1"}

    def test_extract_entity_literal(self, store, grounder):
        out = atomic.extract_entity(store, grounder, "60 minutes")
        assert out.render() == "60 minutes"

    def test_find_relation_forward(self, store, grounder):
        target = NodeSet(("m.0f7hw",))
        out = atomic.find_relation(store, grounder, "starring", "forward", target)
        assert out.ids == ("m.02686wj", "m.0dtfn")

    def test_find_relation_backward(self, store, grounder):
        films = NodeSet(("m.0dtfn",))
        out = atomic.find_relation(store, grounder, "starring", "backward", films)
        assert out.ids == ("m.0f7hw", "m.0kristen")

    def test_merge_empty_is_failure(self, store, grounder):
        with pytest.raises(ToolFailure) as failed:
            atomic.merge(NodeSet(("m.0dtfn",)), NodeSet(("m.02686wj",)))
        assert failed.value.feedback == "the intersection is empty"

    def test_order_argmax(self, store, grounder):
        films = NodeSet(("m.02686wj", "m.0dtfn", "m.0shrt1"))
        out = atomic.order(store, grounder, "argmax", films, "runtime")
        assert out.ids == ("m.0dtfn",)

    def test_compare_strict_and_inclusive(self, store, grounder):
        from planhorizon.kb import parse_value_text
        lt = atomic.compare(store, grounder, "<", "runtime", parse_value_text("45 minutes"))
        assert lt.ids == ("m.02686wj",)
        le = atomic.compare(store, grounder, "≤", "runtime", parse_value_text("45 minutes"))
        assert le.ids == ("m.02686wj", "m.0shrt1")

    def test_time_constraint_year_and_now(self, store, grounder):
        films = NodeSet(("m.02686wj", "m.0dtfn", "m.0shrt1"))
        out = atomic.time_constraint(store, grounder, films, "release_year", "2008", 2026)
        assert out.ids == ("m.0dtfn",)
        out = atomic.time_constraint(store, grounder, films, "release_year", "NOW", 2015)
        assert out.ids == ("m.0shrt1",)

    def test_count_zero_ok(self):
        assert atomic.count_nodes(NodeSet(())) == 0


class TestCompileAndEval:
    def test_lautner_chain_compiles_to_and_join(self):
        expr = compile_chain(LAUTNER_CHAIN)
        assert serialize_sexpr(expr) == (
            '(AND (JOIN starring forward "Taylor Lautner") (LT runtime "60 minutes"))'
        )

    def test_compiled_eval_matches_stepwise(self, store, grounder):
        compiled = eval_sexpr(store, grounder, compile_chain(LAUTNER_CHAIN))
        stepwise = execute_chain(store, grounder, LAUTNER_CHAIN)
        assert compiled.ok and stepwise.ok
        assert compiled.value == stepwise.value
        assert compiled.value == NodeSet(("m.02686wj",))

    def test_render_answer(self, store):
        assert atomic.render_node_set(store, NodeSet(("m.02686wj",))) == (
            "m.02686wj (He's a Bully, Charlie Brown)"
        )

    def test_dangling_reference_rejected(self):
        chain = [{"tool": "Count", "args": {"input": "$3"}}]
        with pytest.raises(oracles.SExprError):
            compile_chain(chain)

    def test_failure_path_names_subexpression(self, store, grounder):
        chain = [
            {"tool": "Extract_entity", "args": {"input": "Taylor Lautner"}},
            {"tool": "Find_relation", "args": {"relation": "starring", "direction": "forward", "target": "$0"}},
            {"tool": "Compare", "args": {"operator": ">", "property": "runtime", "literal": "900 minutes"}},
            {"tool": "Merge", "args": {"input1": "$1", "input2": "$2"}},
        ]
        out = eval_sexpr(store, grounder, compile_chain(chain))
        assert not out.ok and out.feedback.startswith("at /AND[1]:")


@st.composite
def random_chains(draw):
    """Small well-formed chains over the toy graph."""
    seed_tool = draw(st.sampled_from(["Taylor Lautner", "Kristen Stewart", "film"]))
    chain = [{"tool": "Extract_entity", "args": {"input": seed_tool}}]
    chain.append({"tool": "Find_relation",
                  "args": {"relation": "starring",
                           "direction": draw(st.sampled_from(["forward", "backward"])),
                           "target": "$0"}})
    extend = draw(st.sampled_from(["count", "order", "merge", "tc"]))
    if extend == "count":
        chain.append({"tool": "Count", "args": {"input": "$1"}})
    elif extend == "order":
        chain.append({"tool": "Order", "args": {
            "mode": draw(st.sampled_from(["argmin", "argmax"])),
            "input": "$1", "property": "runtime"}})
    elif extend == "merge":
        chain.append({"tool": "Compare", "args": {
            "operator": draw(st.sampled_from(["<", "<=", ">", ">="])),
            "property": "runtime",
            "literal": draw(st.sampled_from(["25 minutes", "60 minutes", "122 minutes"]))}})
        chain.append({"tool": "Merge", "args": {"input1": "$1", "input2": "$2"}})
    else:
        chain.append({"tool": "Time_constraint", "args": {
            "input": "$1", "relation": "release_year",
            "literal": draw(st.sampled_from(["2006", "2008", "2015", "NOW"]))}})
    return chain


@settings(max_examples=80)
@given(random_chains())
def test_compiled_equals_stepwise_property(chain):
    import pathlib
    store = load_graph(read_document(
        pathlib.Path(__file__).parent.parent / "fixtures" / "toy_graph.json"))
    grounder = Grounder(build_index(store), mode="high")
    compiled = eval_sexpr(store, grounder, compile_chain(chain), eval_year=2015)
    stepwise = execute_chain(store, grounder, chain, eval_year=2015)
    assert compiled.ok == stepwise.ok
    if compiled.ok:
        assert compiled.value == stepwise.value
