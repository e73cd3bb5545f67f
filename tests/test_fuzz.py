"""Whatever a policy emits, `run_task` returns a trace in a documented status.

Three kinds of input drive each engine under SH and FH: random plans shaped
like the engine's catalog (any tool, any subset of its parameters, values of
every JSON type and references to any earlier step), any JSON value returned
as is or as its text, and the noisy policy with every rate, its correction
switch and its seed drawn. Each run draws a small budget, and every trace must
keep to it. Under repeat-only noise, every trajectory must still end with the
gold answer or at the call budget."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planhorizon import atomic, harness, kopl, mocktools, policies, stats
from planhorizon.outcome import Param

import oracles

STATUSES = {"answered", "format-failed", "budget-failed", "retry-budget-failed",
            "replan-budget-failed", "policy-error"}

TABLES = {"kopl": kopl.TOOLS, "atomic": atomic.TOOLS, "mock": mocktools.TOOLS}

# strings the fixtures know, so that some calls get past grounding
KNOWN = {
    "kopl": ["LeBron James", "LeBron James Jr.", "human", "height", "206 centimetre",
             "father", "point in time", "2003", "employee_counts", "Google"],
    "atomic": ["Taylor Lautner", "film", "starring", "runtime", "60 minutes",
               "release_year", "2008", "NOW"],
    "mock": ["Where is the Eiffel Tower?", "compare($0, $1, larger)",
             "pick(numeric, $0, 42)", 'equality("$0", "Paris")'],
}

BUDGETS = st.builds(harness.Budget, st.integers(1, 4), st.integers(1, 4),
                    st.integers(1, 4))

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def datasets(kopl_dataset, atomic_dataset, mock_dataset):
    return {"kopl": kopl_dataset, "atomic": atomic_dataset, "mock": mock_dataset}


@pytest.fixture(scope="module")
def envs(datasets):
    return {name: dataset.make_env("high") for name, dataset in datasets.items()}


def values(engine: str, param: Param, index: int):
    """A JSON value a plan could hold for `param` of the step at `index`:
    two times in three one of the kind the parameter takes."""
    refs = [st.integers(0, index - 1).map(lambda j: f"${j}")] if index else []
    anything = st.one_of(st.text(max_size=8), st.integers(), st.floats(), st.none(),
                         st.booleans(), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                         *refs)
    if param.choices:
        typed = st.sampled_from(param.choices)
    elif param.kind in ("set", "value-ref"):
        typed = refs[0] if refs else anything
    else:
        typed = st.sampled_from(KNOWN[engine])
    return st.one_of(typed, typed, anything)


@st.composite
def catalog_plans(draw, engine: str):
    """Up to four calls of any catalog tools, each with all its parameters
    or any subset of them."""
    tools = TABLES[engine].tools
    steps = []
    for index in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(tools)))
        params = [p for p in tools[name].args if type(p) is Param]
        chosen = draw(st.one_of(st.just(params), st.lists(st.sampled_from(params), unique=True))
                      if params else st.just([]))
        steps.append({"tool": name,
                      "args": {p.name: draw(values(engine, p, index)) for p in chosen},
                      "final": draw(st.booleans())})
    return steps


def scripted_policy(steps):
    """The whole plan under FH and its last step on replans; under SH one
    step per invocation, repeating the last."""
    def policy(request):
        if request.mode == "sh-next-step":
            return json.dumps([steps[min(len(request.history), len(steps) - 1)]])
        return json.dumps(steps if request.mode == "fh-initial" else steps[-1:])
    return policy


def assert_within(trace, budget):
    """The one budget rule of `run_task`, read off a finished trace."""
    assert len(trace.records) <= budget.max_tool_calls
    assert trace.replans <= budget.max_replans
    if trace.status == "budget-failed":
        assert len(trace.records) == budget.max_tool_calls
    if trace.status in ("retry-budget-failed", "replan-budget-failed"):
        assert trace.replans == budget.max_replans
        assert not trace.records[-1].ok
    for rec, after in zip(trace.records, trace.records[1:]):
        if not rec.ok:
            assert after.invocation_id > rec.invocation_id
    # every replan asks to continue right after the steps executed before it
    for i, inv in enumerate(trace.invocations):
        if inv.mode == "fh-replan":
            executed = sum(1 for rec in trace.records if rec.invocation_id < i)
            assert harness.load_prompt("replan_message").format(
                start_index=executed) in inv.prompt_text


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine", sorted(TABLES))
@FUZZ
@given(data=st.data(), budget=BUDGETS)
def test_catalog_shaped_plans_never_raise(datasets, envs, engine, planner, data, budget):
    steps = data.draw(catalog_plans(engine))
    trace = harness.run_task(datasets[engine].tasks[0], scripted_policy(steps),
                             envs[engine], planner, budget)
    assert trace.status in STATUSES - {"policy-error"}
    assert_within(trace, budget)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine", sorted(TABLES))
@FUZZ
@given(replies=st.lists(JSON | JSON.map(json.dumps), min_size=1, max_size=4),
       budget=BUDGETS)
def test_any_returned_value_gives_a_trace(datasets, envs, engine, planner, replies, budget):
    """A policy returns the drawn values in turn, then the last one again. A
    value that is no string ends the trace as a policy error naming its type."""
    returned = iter(replies)
    trace = harness.run_task(datasets[engine].tasks[0],
                             lambda request: next(returned, replies[-1]),
                             envs[engine], planner, budget)
    assert trace.status in STATUSES
    assert_within(trace, budget)
    if trace.status == "policy-error":
        assert trace.error in {f"the policy returned {type(reply).__name__}, not str"
                               for reply in replies if not isinstance(reply, str)}


RATES = st.floats(0.0, 1.0)


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine", sorted(TABLES))
@FUZZ
@given(data=st.data(), noise=st.builds(policies.NoiseModel, RATES, RATES, RATES,
                                       st.booleans()),
       seed=st.integers(0, 2**16), budget=BUDGETS)
def test_noisy_policy_never_raises(datasets, envs, engine, planner, data, noise, seed,
                                   budget):
    task = data.draw(st.sampled_from(datasets[engine].tasks))
    env = envs[engine]
    policy = policies.noisy_policy(task.gold_plan, noise, env.params, seed)
    trace = harness.run_task(task, policy, env, planner, budget)
    assert trace.status in STATUSES
    assert_within(trace, budget)
    assert trace.error == ""


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine", sorted(TABLES))
@FUZZ
@given(data=st.data(), noise=st.builds(policies.NoiseModel, repeat_rate=RATES,
                                       corrects_after_feedback=st.booleans()),
       seed=st.integers(0, 2**16))
def test_repeats_never_cost_the_gold_answer(datasets, envs, engine, planner, data, noise,
                                            seed):
    """A repeated call spends a call but is no gold step: under repeat-only
    noise every trajectory ends with the gold answer or at the call budget."""
    task = data.draw(st.sampled_from(datasets[engine].tasks))
    env = envs[engine]
    trace = harness.run_task(task, policies.noisy_policy(task.gold_plan, noise, env.params,
                                                         seed), env, planner)
    assert trace.status in ("answered", "budget-failed"), trace.error
    if trace.status == "answered":
        assert stats.match_answer(trace.answer, task.gold_answer,
                                  task.controls.get("match_mode", "exact-set")) == "correct"


@pytest.fixture(scope="module")
def envs_at(datasets):
    return {(name, robustness): dataset.make_env(robustness)
            for name, dataset in datasets.items() for robustness in ("high", "low")}


@st.composite
def any_policy(draw, engine: str, task, env):
    """The oracle, the noisy policy (repeats, corrections, replans), the
    scripted catalog plans or drawn replies (format retries, budgets)."""
    kind = draw(st.sampled_from(["oracle", "noisy", "scripted", "replies"]))
    if kind == "oracle":
        return policies.oracle_policy(task.gold_plan)
    if kind == "noisy":
        noise = draw(st.builds(policies.NoiseModel, RATES, RATES, RATES, st.booleans()))
        return policies.noisy_policy(task.gold_plan, noise, env.params,
                                     draw(st.integers(0, 2**16)))
    if kind == "scripted":
        return scripted_policy(draw(catalog_plans(engine)))
    replies = draw(st.lists(JSON.map(json.dumps) | st.sampled_from(["", "[]", "not a plan"]),
                            min_size=1, max_size=4))
    returned = iter(replies)
    return lambda request: next(returned, replies[-1])


@pytest.mark.parametrize("robustness", ["high", "low"])
@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("engine", sorted(TABLES))
@FUZZ
@given(data=st.data(), budget=BUDGETS | st.just(harness.Budget()))
def test_prompt_tokens_are_the_whole_prompt_count(datasets, envs_at, engine, planner,
                                                  robustness, data, budget):
    """Each prompt is counted as the sum of its parts; the sum is the count of
    the whole text, and the trace's totals are the whole texts' counts."""
    task = data.draw(st.sampled_from(datasets[engine].tasks))
    env = envs_at[engine, robustness]
    trace = harness.run_task(task, data.draw(any_policy(engine, task, env)), env, planner,
                             budget)
    for inv in trace.invocations:
        assert inv.prompt_tokens == len(inv.prompt_text.split())
        assert inv.completion_tokens == len(inv.completion_text.split())
    assert harness.account_tokens(trace) == oracles.account_tokens(trace)
