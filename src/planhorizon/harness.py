"""The planning-horizon driver.

`run_task` is the one loop for both planners. SH (eager monitoring) invokes
the policy before every step; FH (lazy monitoring) invokes it once for the
whole plan, then again only after a failed step, and the continuation is
appended after the failed step's index. One budget rule holds for both: the
call budget is checked before every invocation and every step, and a failed
step is followed by at most `max_replans` re-invocations. Both planners
build the action-observation history with the same serializer, so a
replanning FH policy sees element-wise what an SH policy would see at the
same execution point.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from dataclasses import dataclass, field

from .grounding import Grounder, build_index
from .outcome import ToolOutcome
from .plans import (Invocation, Plan, PlanParseError, StepRecord, ToolCall, Trace,
                    parse_plan, repetition_key, rewrite_refs, step_ref)


@functools.cache
def load_prompt(name: str) -> str:
    """The text of package prompt file `name`, read once per process."""
    ref = importlib.resources.files("planhorizon.data.prompts") / f"{name}.txt"
    return ref.read_text(encoding="utf-8")


INVALID_FORMAT_MESSAGE = load_prompt("invalid_format").strip()


def whitespace_tokenizer(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class Budget:
    max_tool_calls: int = 30
    max_replans: int = 8
    max_format_retries: int = 8

    def __post_init__(self):
        if min(self.max_tool_calls, self.max_replans, self.max_format_retries) < 1:
            raise ValueError("all budget fields must be positive")


class Environment:
    """A tool engine over its loaded data, with the executor the drivers call.

    Each engine (`KoplEngine`, `AtomicEngine`, `MockEngine`) subclasses it, sets
    `catalog` (the prompt's tool list) and `params` (its `ToolTable.params`),
    and defines ``run_tool(tool, args) -> ToolOutcome`` (one tool, its
    references resolved to values) and ``render(value) -> str`` (a tool output's
    observation and answer text). `planhorizon run` builds one per run; the
    catalog is serialized on first use and kept with it."""

    catalog: list[dict]
    params: dict[str, dict[str, str]]

    def __init__(self, data, robustness: str):
        """The grounder matches the schema terms `data` lists under `robustness`."""
        self.grounder = Grounder(build_index(data), robustness)

    @functools.cached_property
    def tool_definitions(self) -> str:
        return json.dumps(self.catalog)

    def execute(self, call: ToolCall, records: list[StepRecord]) -> tuple[ToolOutcome, tuple]:
        """Resolve $j references against the executed steps, then dispatch.
        `call` names one of `params`' tools: `parse_plan` rejects any other.
        `records[j]` is step j; $j resolves when step j succeeded, a
        whole-value $j to its output and an inline one to its observation.

        Returns the outcome and the call's `repetition_key`, its arguments
        resolved (as written when a reference fails). A resolved reference
        reuses its step's observation text, in free text and in the key, so
        no output is rendered twice."""
        kinds = self.params[call.tool]
        resolved, texts = {}, {}
        for name, value in call.args.items():
            kind = kinds.get(name, "string")
            if kind in ("set", "value-ref"):
                j = step_ref(value)
                if j is None:
                    return ToolOutcome.failure(
                        f"parameter {name!r} of {call.tool} must reference a step ($i)"
                    ), repetition_key(call.tool, call.args)
                if j >= len(records) or not records[j].ok:
                    return ToolOutcome.failure(
                        f"reference {value} does not point to a successfully "
                        "executed step"
                    ), repetition_key(call.tool, call.args)
                resolved[name], texts[name] = records[j].value, records[j].observation
            elif isinstance(value, str):
                # free text: inline $i become the rendered outputs (mock tools)
                resolved[name] = texts[name] = rewrite_refs(value, lambda j: (
                    records[j].observation if j < len(records) and records[j].ok else None))
            else:
                resolved[name] = texts[name] = value
        return self.run_tool(call.tool, resolved), repetition_key(call.tool, texts)


# ---------------------------------------------------------------------------
# History serialization (shared by SH prompts and FH replanning prompts)

def render_history(records) -> list[dict]:
    return [
        {
            "step": rec.step,
            "tool": rec.call.tool,
            "args": rec.call.args,
            "outcome_kind": "success" if rec.ok else "failure",
            "observation": rec.observation,
        }
        for rec in records
    ]


def serialize_history(history: list[dict]) -> str:
    return json.dumps(history, sort_keys=True)


@dataclass
class PolicyRequest:
    mode: str  # sh-next-step | fh-initial | fh-replan
    history: list[dict]
    system_prompt: str
    user_prompt: str
    errors: list[str] = field(default_factory=list)

    @property
    def prompt(self) -> str:
        return "\n".join([self.system_prompt, self.user_prompt, *self.errors])


def build_prompts(env: Environment, query: str, mode: str,
                  history: list[dict]) -> tuple[str, str]:
    template = load_prompt("sh_system" if mode == "sh-next-step" else "fh_system")
    system = template.format(tool_definitions=env.tool_definitions)
    user = f"Question: {query}"
    if history:
        user += "\n\nExecuted steps:\n" + serialize_history(history)
    if mode == "fh-replan":
        user += "\n\n" + load_prompt("replan_message").format(start_index=len(history))
    return system, user


def _invoke(policy, env: Environment, trace: Trace, query: str, mode: str,
            budget: Budget) -> Plan | None:
    """Invoke the policy with format retries; returns None on retry exhaustion
    or when the policy raises or returns no string, with the trace's status
    set. The plan's steps are numbered from the next record's index.

    Tokens are counted by the module's `whitespace_tokenizer`, looked up at
    call time."""
    base_index = len(trace.records)
    history = render_history(trace.records)
    system, user = build_prompts(env, query, mode, history)
    errors: list[str] = []
    for attempt in range(budget.max_format_retries):
        request = PolicyRequest(mode=mode, history=history, system_prompt=system,
                                user_prompt=user, errors=list(errors))
        try:
            text = policy(request)
        except Exception as exc:  # noqa: BLE001 - a failing policy ends its trace only
            trace.status, trace.error = "policy-error", f"{type(exc).__name__}: {exc}"
            return None
        if not isinstance(text, str):
            trace.status = "policy-error"
            trace.error = f"the policy returned {type(text).__name__}, not str"
            return None
        invocation = Invocation(
            mode=mode,
            prompt_text=request.prompt, completion_text=text,
            prompt_tokens=whitespace_tokenizer(request.prompt),
            completion_tokens=whitespace_tokenizer(text),
        )
        trace.invocations.append(invocation)
        try:
            plan = parse_plan(text, env.params, base_index=base_index)
            if mode == "sh-next-step" and len(plan.steps) != 1:
                raise PlanParseError("SH mode must yield exactly one step", "sh-arity")
            return plan
        except PlanParseError:
            trace.format_retries += 1
            errors.append(INVALID_FORMAT_MESSAGE)
    trace.status = "format-failed"
    return None


def _record(trace: Trace, env: Environment, call: ToolCall) -> StepRecord:
    outcome, key = env.execute(call, trace.records)
    rec = StepRecord(
        step=len(trace.records),
        call=call,
        ok=outcome.ok,
        observation=env.render(outcome.value) if outcome.ok else outcome.feedback,
        value=outcome.value,
        invocation_id=len(trace.invocations) - 1,
        key=key,
    )
    trace.records.append(rec)
    return rec


def run_task(task, policy, env: Environment, planner: str,
             budget: Budget = Budget()) -> Trace:
    """Drive `policy` on `task` under `planner` ("sh" or "fh") until it answers
    or a budget ends the trajectory.

    The loop keeps the pending steps and the next request mode, if any. A
    successful step answers when it is `final` and, under FH, when it ends
    the pending plan. After a failed step the policy is re-invoked (SH's
    retry, FH's replan) at most `budget.max_replans` times in all;
    `trace.replans` counts the re-invocations made."""
    eager = planner == "sh"
    trace = Trace(question_id=task.id, planner=planner)
    pending: list[ToolCall] = []
    mode = "sh-next-step" if eager else "fh-initial"
    while True:
        if len(trace.records) >= budget.max_tool_calls:
            trace.status = "budget-failed"
            return trace
        if mode is not None:
            if trace.records and not trace.records[-1].ok:
                trace.replans += 1
            plan = _invoke(policy, env, trace, task.question, mode, budget)
            if plan is None:
                return trace
            pending = list(plan.steps)
        step = pending.pop(0)
        rec = _record(trace, env, step)
        if rec.ok and (step.final or not (eager or pending)):
            trace.answer = rec.observation
            trace.status = "answered"
            return trace
        if not rec.ok and trace.replans >= budget.max_replans:
            trace.status = "retry-budget-failed" if eager else "replan-budget-failed"
            return trace
        mode = "sh-next-step" if eager else (None if rec.ok else "fh-replan")


# run_sh, run_fh and run_task keep their `budget` default and account_tokens
# its `tokenizer` default: perfbench/child.py rewrites the `__defaults__` of
# all four, which fails on a function without any.
def run_sh(task, policy, env: Environment, budget: Budget = Budget()) -> Trace:
    """Eager monitoring: every executed step is preceded by a policy invocation."""
    return run_task(task, policy, env, "sh", budget)


def run_fh(task, policy, env: Environment, budget: Budget = Budget()) -> Trace:
    """Lazy monitoring: one upfront plan; replan only on execution failure."""
    return run_task(task, policy, env, "fh", budget)


def account_tokens(trace: Trace, tokenizer=whitespace_tokenizer) -> tuple[int, int]:
    """(prompt tokens, completion tokens) summed over the trace's invocations
    with the given tokenizer."""
    return (sum(tokenizer(inv.prompt_text) for inv in trace.invocations),
            sum(tokenizer(inv.completion_text) for inv in trace.invocations))
