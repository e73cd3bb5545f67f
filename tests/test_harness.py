import datetime
import hashlib
import importlib.resources
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import harness, kopl, policies, tasks
from planhorizon.atomic import AtomicEngine, NodeSet
from planhorizon.harness import Budget, INVALID_FORMAT_MESSAGE
from planhorizon.kb import TypedValue
from planhorizon.kopl import EntitySet, KoplEngine
from planhorizon.mocktools import MockEngine
from planhorizon.plans import StepRecord, ToolCall, step_ref

import oracles


def fixed_policy(text):
    return lambda request: text


STALL_STEP = json.dumps([{"tool": "FindAll", "args": {}}])
FAIL_STEP = json.dumps([{"tool": "Find", "args": {"name": "zzz-unfindable"}}])


@pytest.fixture()
def kopl_env(kopl_dataset):
    return kopl_dataset.make_env("high")


@pytest.fixture()
def taller_task(kopl_dataset):
    return next(t for t in kopl_dataset.tasks if t.id == "kopl-taller")


class TestBudget:
    def test_defaults(self):
        budget = Budget()
        assert (budget.max_tool_calls, budget.max_replans,
                budget.max_format_retries) == (30, 8, 8)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            Budget(max_tool_calls=0)


class TestFormatRetries:
    def test_sh_format_failure_after_eight_attempts(self, kopl_env, taller_task):
        trace = harness.run_sh(taller_task, fixed_policy("not a plan"), kopl_env)
        assert trace.status == "format-failed"
        assert len(trace.invocations) == 8
        assert trace.format_retries == 8
        assert len(trace.records) == 0

    def test_fh_format_failure(self, kopl_env, taller_task):
        trace = harness.run_fh(taller_task, fixed_policy("[]"), kopl_env)
        assert trace.status == "format-failed"
        assert len(trace.invocations) == 8

    def test_retry_message_is_appended(self, kopl_env, taller_task):
        seen = []

        def policy(request):
            seen.append(list(request.errors))
            return "garbage" if len(seen) < 3 else STALL_STEP.replace("]", ', {"tool": "Count", "args": {"entities": "$0"}, "final": true}]')

        trace = harness.run_fh(taller_task, policy, kopl_env)
        assert trace.status == "answered"
        assert seen[0] == []
        assert seen[1] == [INVALID_FORMAT_MESSAGE]
        assert seen[2] == [INVALID_FORMAT_MESSAGE] * 2

    def test_sh_multi_step_plan_is_invalid(self, kopl_env, taller_task):
        two_steps = json.dumps([{"tool": "FindAll", "args": {}},
                                {"tool": "Count", "args": {"entities": "$0"}}])
        trace = harness.run_sh(taller_task, fixed_policy(two_steps), kopl_env)
        assert trace.status == "format-failed"


class TestToolCallBudget:
    def test_sh_hits_thirty_calls_exactly(self, kopl_env, taller_task):
        trace = harness.run_sh(taller_task, fixed_policy(STALL_STEP), kopl_env)
        assert trace.status == "budget-failed"
        assert len(trace.records) == 30
        assert len(trace.invocations) == 30  # one invocation per executed call

    def test_fh_long_plan_truncated_at_thirty(self, kopl_env, taller_task):
        forty = json.dumps([{"tool": "FindAll", "args": {}}] * 40)
        trace = harness.run_fh(taller_task, fixed_policy(forty), kopl_env)
        assert trace.status == "budget-failed"
        assert len(trace.records) == 30
        assert len(trace.invocations) == 1


class TestReplanBudget:
    def test_sh_failure_retries_capped_at_eight(self, kopl_env, taller_task):
        trace = harness.run_sh(taller_task, fixed_policy(FAIL_STEP), kopl_env)
        assert trace.status == "retry-budget-failed"
        assert len(trace.records) == 9  # first attempt + eight retries
        assert len(trace.invocations) == 9
        assert trace.replans == 8

    def test_fh_replans_capped_at_eight(self, kopl_env, taller_task):
        trace = harness.run_fh(taller_task, fixed_policy(FAIL_STEP), kopl_env)
        assert trace.status == "replan-budget-failed"
        assert trace.replans == 8
        assert len(trace.invocations) == 9  # initial plan + eight replans

    def test_fh_does_not_replan_past_the_call_budget(self, kopl_env, taller_task):
        plan = json.dumps([{"tool": "FindAll", "args": {}}] * 29
                          + [{"tool": "Find", "args": {"name": "zzz-unfindable"}}])
        trace = harness.run_fh(taller_task, fixed_policy(plan), kopl_env)
        assert trace.status == "budget-failed"
        assert len(trace.records) == 30
        assert len(trace.invocations) == 1
        assert trace.replans == 0


class TestDrivers:
    def test_sh_invocations_equal_steps(self, kopl_dataset, taller_task):
        env = kopl_dataset.make_env("high")
        policy = policies.oracle_policy(taller_task.gold_plan)
        trace = harness.run_sh(taller_task, policy, env)
        assert trace.status == "answered"
        assert trace.answer == "LeBron James Jr."
        assert len(trace.invocations) == len(taller_task.gold_plan.steps) == 4

    def test_fh_single_invocation(self, kopl_dataset, taller_task):
        env = kopl_dataset.make_env("high")
        policy = policies.oracle_policy(taller_task.gold_plan)
        trace = harness.run_fh(taller_task, policy, env)
        assert trace.status == "answered"
        assert trace.answer == "LeBron James Jr."
        assert len(trace.invocations) == 1

    def test_reference_to_failed_step_is_failure_not_crash(self, kopl_env, taller_task):
        plan = json.dumps([
            {"tool": "Find", "args": {"name": "zzz-unfindable"}},
            {"tool": "Count", "args": {"entities": "$0"}, "final": True},
        ])
        calls = {"n": 0}

        def policy(request):
            calls["n"] += 1
            if calls["n"] == 1:
                return plan
            # continuation indices start at 1: FindAll lands at $1
            return json.dumps([{"tool": "FindAll", "args": {}},
                               {"tool": "Count", "args": {"entities": "$1"},
                                "final": True}])

        trace = harness.run_fh(taller_task, policy, kopl_env)
        assert trace.status == "answered"
        assert trace.answer == "5"
        assert trace.replans == 1

    def test_prompt_files_are_read_once_per_process(self, kopl_dataset, taller_task):
        harness.load_prompt.cache_clear()
        # FH replans after every failed step, so it reads the replan message
        for env in (kopl_dataset.make_env("high"), kopl_dataset.make_env("low")):
            for planner in ("sh", "fh"):
                harness.run_task(taller_task, fixed_policy(FAIL_STEP), env, planner)
        reads = harness.load_prompt.cache_info()
        assert reads.misses == 3 and reads.currsize == 3  # sh_system, fh_system, replan
        assert reads.hits > 0
        # the prompts are the package files, filled in as on every call
        ledger = harness._Ledger("q?")
        ledger.history([StepRecord(step=i, call=ToolCall("FindAll", {}), ok=True,
                                   observation="x", value=None, invocation_id=0, key=())
                        for i in range(3)])
        system, user, _tokens = harness.build_prompts(env, ledger, "fh-replan")
        package = importlib.resources.files("planhorizon.data.prompts")
        assert system == (package / "fh_system.txt").read_text(encoding="utf-8").format(
            tool_definitions=json.dumps(env.catalog))
        assert user.endswith("\n\n" + (package / "replan_message.txt").read_text(
            encoding="utf-8").format(start_index=3))

    @pytest.mark.parametrize("planner", ["sh", "fh"])
    def test_policy_exception_ends_the_trace(self, kopl_env, taller_task, planner):
        def policy(request):
            if request.history:
                raise RuntimeError("model offline")
            return FAIL_STEP

        trace = harness.run_task(taller_task, policy, kopl_env, planner)
        assert (trace.status, trace.error) == ("policy-error", "RuntimeError: model offline")
        assert len(trace.records) == len(trace.invocations) == 1

    def test_engine_exception_propagates(self, kopl_env, taller_task, monkeypatch):
        def run_tool(tool, args):
            raise kopl.ContractViolationError("broken engine")

        monkeypatch.setattr(kopl_env, "run_tool", run_tool)
        with pytest.raises(kopl.ContractViolationError):
            harness.run_task(taller_task, fixed_policy(STALL_STEP), kopl_env, "sh")

    def test_determinism(self, kopl_dataset, taller_task):
        results = []
        for _ in range(2):
            env = kopl_dataset.make_env("high")
            policy = policies.oracle_policy(taller_task.gold_plan)
            trace = harness.run_task(taller_task, policy, env, "sh")
            results.append(trace.log_lines())
        assert results[0] == results[1]


class TestInformationParity:
    def test_replan_history_matches_sh_history(self, kopl_dataset, taller_task):
        """After the same executed prefix, the FH replanner and an SH policy
        invocation see the same serialized action-observation history."""
        plan_with_bad_step = [
            {"tool": "Find", "args": {"name": "LeBron James Jr."}},
            {"tool": "Relate", "args": {"entities": "$0", "relation": "mother",
                                        "direction": "forward"}},
        ]
        fh_histories = []

        def fh_policy(request):
            fh_histories.append(request.history)
            if request.mode == "fh-initial":
                return json.dumps(plan_with_bad_step)
            return json.dumps([{"tool": "QueryName", "args": {"entities": "$0"},
                                "final": True}])

        env = kopl_dataset.make_env("high")
        trace_fh = harness.run_fh(taller_task, fh_policy, env)
        assert trace_fh.status == "answered"

        sh_histories = []
        emitted = iter(plan_with_bad_step + [
            {"tool": "QueryName", "args": {"entities": "$0"}, "final": True}])

        def sh_policy(request):
            sh_histories.append(request.history)
            return json.dumps([next(emitted)])

        env2 = kopl_dataset.make_env("high")
        trace_sh = harness.run_sh(taller_task, sh_policy, env2)
        assert trace_sh.status == "answered"

        # FH replan happened after two executed steps; compare element-wise
        replan_history = fh_histories[1]
        sh_history_at_step_2 = sh_histories[2]
        assert replan_history == sh_history_at_step_2


class TestTokens:
    def test_sh_prompts_cost_more_than_fh(self, kopl_dataset):
        for task in kopl_dataset.tasks:
            if len(task.gold_plan.steps) < 3:
                continue
            per_planner = {}
            for planner in ("sh", "fh"):
                env = kopl_dataset.make_env("high")
                policy = policies.oracle_policy(task.gold_plan)
                trace = harness.run_task(task, policy, env, planner)
                per_planner[planner], _ = harness.account_tokens(trace)
            assert per_planner["sh"] > per_planner["fh"]

    def test_account_tokens_sums_invocations(self, kopl_dataset, taller_task):
        env = kopl_dataset.make_env("high")
        policy = policies.oracle_policy(taller_task.gold_plan)
        trace = harness.run_task(taller_task, policy, env, "sh")
        assert len(trace.invocations) == 4
        assert harness.account_tokens(trace) == (
            sum(i.prompt_tokens for i in trace.invocations),
            sum(i.completion_tokens for i in trace.invocations))

    @pytest.mark.parametrize("planner", ["sh", "fh"])
    def test_drivers_look_the_tokenizer_up_at_call_time(self, kopl_dataset, taller_task,
                                                        planner, monkeypatch):
        """The module's tokenizer is looked up when a prompt is counted. It sees
        each record's history JSON once per trajectory and never a whole
        prompt: an invocation's count is its parts' counts summed."""
        counted = []

        def counting_tokenizer(text):
            counted.append(text)
            return len(text)  # characters, so a whitespace count cannot pass

        # the second step fails, so both planners re-invoke after a history
        steps = iter([{"tool": "Find", "args": {"name": "LeBron James Jr."}},
                      {"tool": "Relate", "args": {"entities": "$0", "relation": "mother",
                                                  "direction": "forward"}},
                      {"tool": "QueryName", "args": {"entities": "$0"}, "final": True}])

        def policy(request):
            if request.mode == "fh-initial":
                return json.dumps([next(steps), next(steps)])
            return json.dumps([next(steps)])

        monkeypatch.setattr(harness, "whitespace_tokenizer", counting_tokenizer)
        env = kopl_dataset.make_env("high")
        trace = harness.run_task(taller_task, policy, env, planner)
        assert trace.status == "answered" and trace.replans == 1
        prompts = {inv.prompt_text for inv in trace.invocations}
        assert not prompts & set(counted)
        texts = [json.dumps(item, sort_keys=True)
                 for item in harness.render_history(trace.records[:-1])]
        assert [counted.count(text) for text in texts] == [1] * len(texts)
        for i, inv in enumerate(trace.invocations):
            executed = sum(1 for rec in trace.records if rec.invocation_id < i)
            parts = [env.system_prompt(inv.mode)[0], f"Question: {taller_task.question}"]
            if inv.mode == "fh-replan":
                parts.append(harness.load_prompt("replan_message").format(
                    start_index=executed))
            assert inv.prompt_tokens == sum(map(len, parts)) + (
                2 + sum(map(len, texts[:executed])) if executed else 0)
            assert inv.completion_tokens == len(inv.completion_text)

    def test_an_sh_pass_tokenizes_less_than_its_prompts(self, kopl_dataset, monkeypatch):
        """One SH oracle pass over the KoPL fixtures passes the tokenizer fewer
        characters than its prompts hold: no prompt is split whole."""
        tokenized = 0

        def counting_tokenizer(text):
            nonlocal tokenized
            tokenized += len(text)
            return len(text.split())

        monkeypatch.setattr(harness, "whitespace_tokenizer", counting_tokenizer)
        env = kopl_dataset.make_env("high")
        prompt_chars = 0
        for task in kopl_dataset.tasks:
            trace = harness.run_task(task, policies.oracle_policy(task.gold_plan), env, "sh")
            assert trace.status == "answered"
            prompt_chars += sum(len(inv.prompt_text) for inv in trace.invocations)
        assert tokenized < prompt_chars


# strings JSON escapes: quotes, backslashes, newlines, U+2028 (whitespace to
# str.split), astral characters, lone surrogates and the empty string
SPECIAL = st.sampled_from(['"', "\\", "\n", "\u2028", "\U0001f600", "\ud800", "\udfff", ""])
TEXT = st.lists(SPECIAL | st.characters(), max_size=6).map("".join)
SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
VALUE = st.recursive(SCALAR, lambda inner: st.lists(inner, max_size=2)
                     | st.dictionaries(TEXT, inner, max_size=2), max_leaves=4)
RECORDS = st.lists(st.tuples(TEXT, st.dictionaries(TEXT, VALUE, max_size=3), st.booleans(),
                             TEXT), max_size=5).map(lambda rows: [
    StepRecord(step=i, call=ToolCall(tool, args), ok=ok, observation=observation,
               value=None, invocation_id=i, key=())
    for i, (tool, args, ok, observation) in enumerate(rows)])


@pytest.fixture(scope="module")
def shared_kopl_env(kopl_dataset):
    return kopl_dataset.make_env("high")


@settings(max_examples=200, deadline=None)
@given(records=RECORDS)
def test_history_json_is_joined_from_each_records_json(shared_kopl_env, records):
    """As the history grows one record at a time, each record is serialized
    once, and the executed steps are the whole history's JSON list."""
    ledger = harness._Ledger("q?")
    for k in range(len(records) + 1):
        history = ledger.history(records[:k])
        assert history == harness.render_history(records[:k])
        system, user, tokens = harness.build_prompts(shared_kopl_env, ledger, "sh-next-step")
        # the parts' counts sum to the whole prompt's
        assert tokens == len(f"{system}\n{user}".split())
        if not k:
            assert user == "Question: q?"
            continue
        whole = oracles.serialize_history(harness.render_history(records[:k]))
        assert user == "Question: q?\n\nExecuted steps:\n" + whole
        assert ledger.tokens == len(whole.split())


class TestLogLines:
    def test_wire_fields(self, kopl_dataset, taller_task):
        env = kopl_dataset.make_env("high")
        policy = policies.oracle_policy(taller_task.gold_plan)
        trace = harness.run_task(taller_task, policy, env, "fh")
        trace.trial = 2
        lines = [json.loads(line) for line in trace.log_lines()]
        assert len(lines) == 4
        assert {l["run_id"] for l in lines} == {"kopl-taller-fh-t2"}
        assert set(lines[0]) == {"run_id", "question_id", "trial", "step", "tool",
                                 "args", "outcome_kind", "tokens_in", "tokens_out"}
        assert [l["step"] for l in lines] == [0, 1, 2, 3]
        assert all(l["outcome_kind"] == "success" for l in lines)


# The prompt catalogs each engine renders from its tool table, pinned by sha256
# prefix and length: token counts alone would miss reordered keys.
@pytest.mark.parametrize("engine,digest,length", [
    (KoplEngine, "982020efc0dff203", 5716),
    (AtomicEngine, "cd0f88184e27bc75", 1405),
    (MockEngine, "e5867f5619fde04a", 321),
], ids=["kopl", "atomic", "mock"])
def test_rendered_catalog_is_pinned(engine, digest, length):
    text = json.dumps(engine.catalog)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], len(text)) == (digest, length)


# ---------------------------------------------------------------------------
# The repetition key `execute` returns, against the two-step reference

def step_outputs(name: str, env) -> list:
    """Values an executed step can leave under engine `name`: every kind its
    tools return, plus strings and numbers."""
    plain = ["Paris", 5, 2.5, TypedValue("number", 206.0, "centimetre"),
             TypedValue("date", datetime.date(2003, 12, 30)), TypedValue("year", 2003)]
    if name == "kopl":
        return plain + [EntitySet(tuple(env.store.entities)[:2]), EntitySet(())]
    if name == "atomic":
        return plain + [NodeSet(tuple(env.store.nodes)[:2]), NodeSet(("no-such-node",))]
    return plain


# literals without "$", so free text has no inline reference to rewrite
LITERALS = st.one_of(st.text(st.characters(blacklist_characters="$"), max_size=6),
                     st.integers(), st.floats(), st.booleans(), st.none(),
                     st.lists(st.integers(), max_size=2))


@pytest.mark.parametrize("name", ["kopl", "atomic", "mock"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_execute_key_matches_the_reference(kopl_dataset, atomic_dataset, mock_dataset,
                                           name, data):
    env = {"kopl": kopl_dataset, "atomic": atomic_dataset,
           "mock": mock_dataset}[name].make_env("high")
    outputs = step_outputs(name, env)
    # some steps failed and bound nothing
    bindings = data.draw(st.dictionaries(st.integers(0, 4), st.sampled_from(outputs)))
    tool = data.draw(st.sampled_from(sorted(env.params)))
    kinds = env.params[tool]
    refs = st.integers(0, 6).map(lambda j: f"${j}")
    args = {p: data.draw(st.one_of(refs, LITERALS) if kind in ("set", "value-ref")
                         else LITERALS)
            for p, kind in kinds.items() if data.draw(st.booleans())}
    resolved = {}
    for p, value in args.items():
        if kinds[p] not in ("set", "value-ref"):
            resolved[p] = value
        elif step_ref(value) in bindings:
            resolved[p] = bindings[step_ref(value)]
        else:  # a failed reference: the call's arguments as written
            resolved = None
            break
    # record j is step j: a step missing from `bindings` failed, and $5, $6 were never run
    records = [StepRecord(step=j, call=ToolCall(tool, {}), ok=j in bindings,
                          observation=env.render(bindings[j]) if j in bindings else "failed",
                          value=bindings.get(j), invocation_id=0, key=())
               for j in range(5)]
    _outcome, key = env.execute(ToolCall(tool, args), records)
    if resolved is None:
        assert key == oracles.canonical_call(tool, args, str)
    else:
        assert key == oracles.canonical_call(tool, resolved, env.render)


def test_inline_reference_resolves_to_a_successful_step_only(mock_dataset):
    env = mock_dataset.make_env("high")
    records = [StepRecord(step=j, call=ToolCall("search", {"question": "q"}), ok=ok,
                          observation=text, value=text if ok else None, invocation_id=0, key=())
               for j, (ok, text) in enumerate([(True, "Paris"), (False, "no document")])]
    _outcome, key = env.execute(
        ToolCall("reasoning", {"instruction": "compare $0, $1 and $2"}), records)
    assert key == ("reasoning", (("instruction", "compare Paris, $1 and $2"),))


# every value a plan argument can hold: what JSON decodes to
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("name", ["kopl", "atomic", "mock"])
@settings(deadline=None)
@given(values=st.lists(JSON_VALUES, min_size=1, max_size=4))
def test_engines_render_plan_literals_as_str(kopl_dataset, atomic_dataset, mock_dataset,
                                             name, values):
    # why `plans.repetition_key` can key a literal argument by `str` alone
    env = {"kopl": kopl_dataset, "atomic": atomic_dataset,
           "mock": mock_dataset}[name].make_env("high")
    for value in values:
        assert env.render(value) == str(value)


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("name", ["kopl", "atomic", "mock"])
def test_each_step_output_is_rendered_once(kopl_dataset, atomic_dataset, mock_dataset,
                                           name, planner, monkeypatch):
    # a resolved $j, whole-value or inline, and its part of the repetition
    # key reuse step j's observation text instead of rendering it again
    dataset = {"kopl": kopl_dataset, "atomic": atomic_dataset, "mock": mock_dataset}[name]
    env = dataset.make_env("high")
    rendered = []
    render = type(env).render
    monkeypatch.setattr(type(env), "render",
                        lambda self, value: rendered.append(value) or render(self, value))
    successes = 0
    for task in dataset.tasks:
        trace = harness.run_task(task, policies.oracle_policy(task.gold_plan), env, planner)
        successes += sum(rec.ok for rec in trace.records)
    assert len(rendered) == successes > len(dataset.tasks)
