"""Plan and trace representation: $i reference parsing, DAG construction,
depth/breadth metrics, and repetition detection."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction


class PlanParseError(Exception):
    """Plan text rejected; `reason` is machine-readable for the retry message."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


_REF = re.compile(r"\$([0-9]+)")


def step_ref(value) -> int | None:
    """The step index of a whole-value reference "$i"; None for a value that
    is not one. A string starting with "$" that is not a reference raises
    ValueError: in a plan every such string must point at a step."""
    if not (isinstance(value, str) and value.startswith("$")):
        return None
    match = _REF.fullmatch(value)
    if match is None:
        raise ValueError(f"malformed reference {value!r}")
    return int(match.group(1))


def rewrite_refs(text: str, replace) -> str:
    """Rewrite every inline "$i" in free text as replace(i); a reference for
    which replace returns None stays as written."""

    def sub(match) -> str:
        new = replace(int(match.group(1)))
        return match.group(0) if new is None else new

    return _REF.sub(sub, text)


@dataclass(frozen=True)
class ToolCall:
    tool: str
    args: dict
    final: bool = False  # SH terminal marker: execute this step, then stop

    def references(self) -> list[int]:
        """Steps referenced by whole-value arguments."""
        return [j for j in map(step_ref, self.args.values()) if j is not None]


@dataclass(frozen=True)
class Plan:
    steps: tuple[ToolCall, ...]


def parse_plan(text: str, catalog: list[dict], base_index: int = 0) -> Plan:
    """Parse the plan wire format against a tool catalog.

    `base_index` is the absolute index of the first step, nonzero for
    replanned continuations whose references may point at executed steps.
    """
    tools = {entry["name"]: {p["name"] for p in entry["params"]} for entry in catalog}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"plan is not valid JSON: {exc}", "syntax")
    if not isinstance(doc, list):
        raise PlanParseError("plan must be a JSON list of tool calls", "syntax")
    if not doc:
        raise PlanParseError("plan is empty", "empty")
    steps = []
    for i, item in enumerate(doc):
        absolute = base_index + i
        if not isinstance(item, dict) or "tool" not in item:
            raise PlanParseError(f"step {absolute} is not a tool call object", "syntax")
        tool = item["tool"]
        if tool not in tools:
            raise PlanParseError(f"step {absolute}: unknown tool {tool!r}", "unknown-tool")
        args = item.get("args", {})
        if not isinstance(args, dict):
            raise PlanParseError(f"step {absolute}: args must be an object", "syntax")
        for key, value in args.items():
            if key not in tools[tool]:
                raise PlanParseError(
                    f"step {absolute}: {tool} has no parameter {key!r}", "bad-argument"
                )
            try:
                ref = step_ref(value)
            except ValueError:
                raise PlanParseError(
                    f"step {absolute}: malformed reference {value!r}", "bad-reference"
                )
            if ref is not None and ref >= absolute:
                raise PlanParseError(
                    f"step {absolute}: reference {value} does not point to an "
                    "earlier step", "bad-reference"
                )
        steps.append(ToolCall(tool=tool, args=dict(args), final=bool(item.get("final"))))
    return Plan(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Execution graphs

@dataclass(frozen=True)
class ExecutionGraph:
    labels: tuple  # one label per node (tool calls or signatures)
    edges: frozenset  # (j, i) meaning node j feeds node i

    @property
    def node_count(self) -> int:
        return len(self.labels)


def build_dag(plan: Plan) -> ExecutionGraph:
    """One node per step; edge j -> i iff step i references $j."""
    edges = set()
    for i, step in enumerate(plan.steps):
        for j in step.references():
            edges.add((j, i))
    return ExecutionGraph(labels=tuple(plan.steps), edges=frozenset(edges))


def depth(graph: ExecutionGraph) -> int:
    """Critical path length counted in nodes; a single call has depth 1."""
    n = graph.node_count
    if n == 0:
        return 0
    preds: dict[int, list[int]] = {i: [] for i in range(n)}
    for j, i in graph.edges:
        preds[i].append(j)
    longest = [0] * n
    for i in range(n):  # nodes are index-ordered, so predecessors come first
        longest[i] = 1 + max((longest[j] for j in preds[i]), default=0)
    return max(longest)


def breadth(graph: ExecutionGraph) -> Fraction:
    """Average parallelism |V| / depth, kept exact as a rational."""
    return Fraction(graph.node_count, depth(graph))


# ---------------------------------------------------------------------------
# Traces

@dataclass
class Invocation:
    id: int
    mode: str  # sh-next-step | fh-initial | fh-replan
    prompt_text: str
    completion_text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class StepRecord:
    step: int
    call: ToolCall
    ok: bool
    observation: str
    invocation_id: int = -1
    resolved_args: dict = field(default_factory=dict)


@dataclass
class Trace:
    question_id: str = ""
    run_id: str = ""
    trial: int = 0
    planner: str = ""
    records: list[StepRecord] = field(default_factory=list)
    invocations: list[Invocation] = field(default_factory=list)
    answer: str | None = None
    status: str = "running"
    error: str = ""  # why the trajectory ended, when status is "policy-error" or "error"
    replans: int = 0
    format_retries: int = 0

    @property
    def executed_calls(self) -> int:
        return len(self.records)

    def log_lines(self) -> list[str]:
        """Trace log wire format: one structured record per line."""
        lines = []
        tokens = {inv.id: (inv.prompt_tokens, inv.completion_tokens)
                  for inv in self.invocations}
        for rec in self.records:
            tin, tout = tokens.get(rec.invocation_id, (0, 0))
            lines.append(json.dumps({
                "run_id": self.run_id,
                "question_id": self.question_id,
                "trial": self.trial,
                "step": rec.step,
                "tool": rec.call.tool,
                "args": rec.call.args,
                "outcome_kind": "success" if rec.ok else "failure",
                "tokens_in": tin,
                "tokens_out": tout,
            }, sort_keys=True))
        return lines


def canonical_call(record: StepRecord) -> tuple:
    """Canonical (tool, resolved argument map) used for repetition equality."""
    args = record.resolved_args or record.call.args
    return (record.call.tool, tuple(sorted((k, str(v)) for k, v in args.items())))


def detect_repetition(trace: Trace) -> dict:
    """Two executed calls repeat when tool name and resolved arguments agree."""
    keys = [canonical_call(rec) for rec in trace.records]
    pairs = []
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] == keys[j]:
                pairs.append((i, j))
    return {"repeated": bool(pairs), "pairs": pairs}
