import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import kopl, plans
from planhorizon.plans import (ExecutionGraph, Plan, PlanParseError, ToolCall,
                               breadth, build_dag, depth, parse_plan)

import oracles
from oracles import KoplProgram, KoplStep, derive_gold_dag_kopl, serialize_plan

PARAMS = kopl.KoplEngine.params


def longest_path_nodes_bruteforce(n, edges):
    """Enumerate every simple path along edges; oracle for depth()."""
    succ = {i: [] for i in range(n)}
    for j, i in edges:
        succ[j].append(i)
    best = 0

    def walk(node, length):
        nonlocal best
        best = max(best, length)
        for nxt in succ[node]:
            walk(nxt, length + 1)

    for start in range(n):
        walk(start, 1)
    return best


FIG2_PLAN = json.dumps([
    {"tool": "Find", "args": {"name": "Google"}},
    {"tool": "Find", "args": {"name": "Instagram"}},
    {"tool": "Relate", "args": {"entities": "$1", "relation": "parent organization", "direction": "forward"}},
    {"tool": "SelectBetween", "args": {"left": "$0", "right": "$2", "key": "employee_counts", "mode": "greater"}, "final": True},
])


class TestParsePlan:
    def test_wire_format(self):
        plan = parse_plan(FIG2_PLAN, PARAMS)
        assert len(plan.steps) == 4
        assert plan.steps[0] == ToolCall("Find", {"name": "Google"})
        assert plan.steps[3].final

    def test_serialize_round_trip(self):
        plan = parse_plan(FIG2_PLAN, PARAMS)
        assert parse_plan(serialize_plan(plan), PARAMS) == plan

    @pytest.mark.parametrize("text,reason", [
        ("not json", "syntax"),
        ("{}", "syntax"),
        ("[]", "empty"),
        ('[{"tool": "Teleport", "args": {}}]', "unknown-tool"),
        ('[{"tool": "Find", "args": {"nom": "x"}}]', "bad-argument"),
        ('[{"tool": "Find", "args": {"name": "$x"}}]', "bad-reference"),
        ('[{"tool": "Count", "args": {"entities": "$0"}}]', "bad-reference"),
    ])
    def test_rejections_carry_reasons(self, text, reason):
        with pytest.raises(PlanParseError) as err:
            parse_plan(text, PARAMS)
        assert err.value.reason == reason

    # "final": "no" must not end a trajectory: only a JSON boolean or no key
    @pytest.mark.parametrize("final", ["no", "false", None, 0, 1, [True]],
                             ids=["no", "false-string", "null", "zero", "one", "list"])
    def test_final_must_be_a_boolean(self, final):
        text = json.dumps([{"tool": "FindAll", "args": {}},
                           {"tool": "Count", "args": {"entities": "$3"}, "final": final}])
        with pytest.raises(PlanParseError) as err:
            parse_plan(text, PARAMS, base_index=3)
        assert (str(err.value), err.value.reason) == (
            "step 4: final must be true or false", "syntax")

    def test_final_is_true_false_or_absent(self):
        steps = [{"tool": "FindAll", "args": {}}, {"tool": "FindAll", "args": {}, "final": False},
                 {"tool": "Count", "args": {"entities": "$0"}, "final": True}]
        plan = parse_plan(json.dumps(steps), PARAMS)
        assert [step.final for step in plan.steps] == [False, False, True]

    def test_base_index_admits_executed_prefix_references(self):
        text = '[{"tool": "Count", "args": {"entities": "$1"}}]'
        with pytest.raises(PlanParseError):
            parse_plan(text, PARAMS, base_index=0)
        plan = parse_plan(text, PARAMS, base_index=2)
        assert plan.steps[0].references() == [1]


class TestMetrics:
    def test_fig2_depth_and_breadth(self):
        graph = build_dag(parse_plan(FIG2_PLAN, PARAMS))
        assert graph.edges == frozenset({(0, 3), (1, 2), (2, 3)})
        assert depth(graph) == 3
        assert breadth(graph) == Fraction(4, 3)

    def test_single_call(self):
        graph = build_dag(Plan(steps=(ToolCall("FindAll", {}),)))
        assert depth(graph) == 1
        assert breadth(graph) == Fraction(1)

    def test_chain(self):
        graph = ExecutionGraph(labels=(0, 1, 2), edges=frozenset({(0, 1), (1, 2)}))
        assert depth(graph) == 3
        assert breadth(graph) == Fraction(1)

    def test_breadth_is_exact_rational(self):
        graph = ExecutionGraph(labels=tuple(range(7)), edges=frozenset({(0, 6)}))
        assert breadth(graph) == Fraction(7, 2)

    def test_random_dags_match_bruteforce(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 8)
            edges = frozenset(
                (j, i)
                for j, i in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            )
            graph = ExecutionGraph(labels=tuple(range(n)), edges=edges)
            d = depth(graph)
            assert d == longest_path_nodes_bruteforce(n, edges)
            assert d * breadth(graph) == n  # d * b = |V| exactly


class TestGoldDag:
    def test_identical_find_steps_merge(self):
        # the two Find("LeBron James Jr.") steps collapse into one node
        program = KoplProgram(steps=(
            KoplStep("Find", {"name": "LeBron James Jr."}),
            KoplStep("Relate", {"relation": "father", "direction": "forward"}, (0,)),
            KoplStep("Find", {"name": "LeBron James Jr."}),
            KoplStep("SelectBetween", {"key": "height", "mode": "greater"}, (2, 1)),
        ))
        graph = derive_gold_dag_kopl(program)
        assert graph.node_count == 3
        assert depth(graph) == 3
        assert breadth(graph) == Fraction(1)

    def test_distinct_steps_do_not_merge(self):
        program = KoplProgram(steps=(
            KoplStep("Find", {"name": "Google"}),
            KoplStep("Find", {"name": "Instagram"}),
            KoplStep("Relate", {"relation": "parent organization",
                                "direction": "forward"}, (1,)),
            KoplStep("SelectBetween", {"key": "employee_counts",
                                       "mode": "greater"}, (0, 2)),
        ))
        graph = derive_gold_dag_kopl(program)
        assert graph.node_count == 4
        assert depth(graph) == 3
        assert breadth(graph) == Fraction(4, 3)


class TestRepetition:
    def make_trace(self, calls):
        trace = plans.Trace()
        for i, (tool, args) in enumerate(calls):
            trace.records.append(plans.StepRecord(
                step=i, call=ToolCall(tool, args), ok=True, observation="", value=None,
                invocation_id=0, key=plans.repetition_key(tool, args)))
        return trace

    def test_identical_resolved_args_detected(self):
        trace = self.make_trace([
            ("Find", {"name": "Google"}),
            ("FindAll", {}),
            ("Find", {"name": "Google"}),
        ])
        assert plans.detect_repetition(trace) is True

    def test_differing_args_not_detected(self):
        trace = self.make_trace([
            ("Find", {"name": "Google"}),
            ("Find", {"name": "Meta"}),
        ])
        assert not plans.detect_repetition(trace)

    def test_argument_order_is_canonicalized(self):
        trace = self.make_trace([
            ("Relate", {"relation": "father", "direction": "forward"}),
            ("Relate", {"direction": "forward", "relation": "father"}),
        ])
        assert plans.detect_repetition(trace)


# few tools and values, and values whose text agrees (1 and "1"), so calls repeat
CALLS = st.tuples(st.sampled_from(["Find", "FindAll"]),
                  st.dictionaries(st.sampled_from("ab"), st.sampled_from(["x", 1, "1"]),
                                  max_size=2))


@given(st.lists(CALLS, max_size=6))
def test_repetition_matches_pairwise_comparison(calls):
    trace = plans.Trace()
    for i, (tool, args) in enumerate(calls):
        trace.records.append(plans.StepRecord(
            step=i, call=ToolCall(tool, args), ok=True, observation="", value=None,
            invocation_id=0, key=plans.repetition_key(tool, args)))
    assert plans.detect_repetition(trace) is oracles.repeated(trace)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return ExecutionGraph(labels=tuple(range(n)), edges=frozenset(chosen))


@settings(max_examples=200)
@given(random_graphs())
def test_depth_breadth_invariants(graph):
    d = depth(graph)
    b = breadth(graph)
    assert 1 <= d <= graph.node_count
    assert d * b == graph.node_count
    assert d == longest_path_nodes_bruteforce(graph.node_count, graph.edges)
