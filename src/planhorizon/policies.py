"""Policy implementations: deterministic oracle, seeded noisy policy, and a
remote adapter speaking the OpenAI-compatible chat-completions protocol."""

from __future__ import annotations

import json
import random
import urllib.error
import urllib.request
from dataclasses import dataclass

from .harness import PolicyRequest
from .plans import Plan, ToolCall, rewrite_refs, step_ref


class PolicyError(Exception):
    pass


def _success_steps(history: list[dict]) -> list[int]:
    return [item["step"] for item in history if item["outcome_kind"] == "success"]


def _remap_refs(args: dict, mapping) -> dict:
    """Renumber every $i, whole-value or inline in free text, as $mapping(i)."""
    return {
        key: rewrite_refs(value, lambda j: f"${mapping(j)}")
        if isinstance(value, str) else value
        for key, value in args.items()
    }


def _emit(steps: list[dict]) -> str:
    return json.dumps(steps)


def _gold_step_json(step: ToolCall, mapping, final: bool) -> dict:
    doc = {"tool": step.tool, "args": _remap_refs(step.args, mapping)}
    if final:
        doc["final"] = True
    return doc


def oracle_policy(gold_plan: Plan):
    """Replays the gold plan: the full plan under FH, one step at a time under
    SH, and the re-indexed remaining suffix on FH replans."""

    gold = gold_plan.steps

    def policy(request: PolicyRequest) -> str:
        successes = _success_steps(request.history)

        def executed_index(gold_index: int) -> int:
            return successes[gold_index]

        if request.mode == "fh-initial":
            return _emit([
                _gold_step_json(step, lambda j: j, i == len(gold) - 1)
                for i, step in enumerate(gold)
            ])
        done = len(successes)
        if done >= len(gold):
            raise PolicyError("gold plan exhausted without a terminal answer")
        if request.mode == "sh-next-step":
            return _emit([
                _gold_step_json(gold[done], executed_index, done == len(gold) - 1)
            ])
        # fh-replan: append-only continuation of the unexecuted gold suffix
        def mapping(j: int) -> int:
            if j < done:
                return executed_index(j)
            return request.start_index + (j - done)

        return _emit([
            _gold_step_json(step, mapping, done + k == len(gold) - 1)
            for k, step in enumerate(gold[done:])
        ])

    return policy


@dataclass(frozen=True)
class NoiseModel:
    wrong_schema_rate: float = 0.0
    wrong_reference_rate: float = 0.0
    repeat_rate: float = 0.0
    corrects_after_feedback: bool = True
    seed: int = 0

    def __post_init__(self):
        for rate in (self.wrong_schema_rate, self.wrong_reference_rate,
                     self.repeat_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("noise rates must lie in [0, 1]")


def corrupt_term(term: str) -> str:
    """Deterministic schema-term corruption, e.g. employee_counts -> employees."""
    if "_" in term:
        head = term.split("_")[0]
        return head if head.endswith("s") else head + "s"
    if len(term) > 3:
        return term[:-1]
    return term + "x"


def _string_params(catalog: list[dict]) -> dict[str, list[str]]:
    return {
        entry["name"]: [p["name"] for p in entry["params"] if p["kind"] == "string"]
        for entry in catalog
    }


def noisy_policy(gold_plan: Plan, noise: NoiseModel, catalog: list[dict]):
    """Gold-plan policy with seeded corruptions: wrong schema terms, wrong
    references, or repeats of the previous call. With corrects_after_feedback,
    a failure observation makes the next emission the clean gold step."""

    gold = gold_plan.steps
    string_params = _string_params(catalog)
    base = oracle_policy(gold_plan)

    def rng_for(request: PolicyRequest, salt: str = "") -> random.Random:
        return random.Random(f"{noise.seed}|{request.mode}|{len(request.history)}|{salt}")

    def corrupt_step(doc: dict, rng: random.Random) -> dict:
        if rng.random() < noise.wrong_schema_rate:
            for param in string_params.get(doc["tool"], []):
                value = doc["args"].get(param)
                if isinstance(value, str) and step_ref(value) is None:
                    doc = {**doc, "args": {**doc["args"], param: corrupt_term(value)}}
                    break
        if rng.random() < noise.wrong_reference_rate:
            for param, value in doc["args"].items():
                if step_ref(value) not in (None, 0):
                    doc = {**doc, "args": {**doc["args"], param: "$0"}}
                    break
        return doc

    def policy(request: PolicyRequest) -> str:
        history = request.history
        last_failed = bool(history) and history[-1]["outcome_kind"] == "failure"
        if request.mode == "fh-initial":
            rng = rng_for(request)
            steps = json.loads(base(request))
            return _emit([corrupt_step(doc, rng) for doc in steps])
        if noise.corrects_after_feedback and last_failed:
            return base(request)  # clean re-emission of the failed gold step/suffix
        if request.mode == "sh-next-step":
            rng = rng_for(request)
            if history and rng.random() < noise.repeat_rate:
                prev = history[-1]
                return _emit([{"tool": prev["tool"], "args": dict(prev["args"])}])
            return _emit([corrupt_step(doc, rng)
                          for doc in json.loads(base(request))])
        # fh-replan without correction: re-emit the suffix with fresh draws
        rng = rng_for(request)
        return _emit([corrupt_step(doc, rng) for doc in json.loads(base(request))])

    return policy


# ---------------------------------------------------------------------------
# Remote adapter

@dataclass
class RemotePolicyConfig:
    endpoint: str  # e.g. http://localhost:8000/v1/chat/completions
    model: str = "stub"
    temperature: float = 0.0
    timeout: float = 30.0
    startup_check: bool = False


def build_plan_schema(catalog: list[dict]) -> dict:
    """A response-format constraint restricting tool names and parameter names."""
    variants = []
    for entry in catalog:
        variants.append({
            "type": "object",
            "properties": {
                "tool": {"const": entry["name"]},
                "args": {
                    "type": "object",
                    "properties": {
                        p["name"]: {"type": ["string", "number"]}
                        for p in entry["params"]
                    },
                    "additionalProperties": False,
                },
                "final": {"type": "boolean"},
            },
            "required": ["tool", "args"],
            "additionalProperties": False,
        })
    return {
        "type": "json_schema",
        "json_schema": {
            "name": "tool_call_plan",
            "schema": {"type": "array", "items": {"anyOf": variants}},
        },
    }


def remote_llm_policy(cfg: RemotePolicyConfig, catalog: list[dict]):
    """Chat-completions adapter; the harness owns format retries, which arrive
    as error messages appended to the request."""

    schema = build_plan_schema(catalog)
    if cfg.startup_check:
        base = cfg.endpoint.rsplit("/chat/completions", 1)[0]
        try:
            urllib.request.urlopen(base, timeout=cfg.timeout).close()
        except urllib.error.HTTPError as answer:
            answer.close()  # any HTTP answer means the endpoint is reachable
        except OSError as exc:  # URLError included
            raise PolicyError(f"endpoint {cfg.endpoint!r} unreachable: {exc}")

    def policy(request: PolicyRequest) -> str:
        messages = [
            {"role": "system", "content": request.system_prompt},
            {"role": "user", "content": request.user_prompt},
        ]
        for error in request.errors:
            messages.append({"role": "user", "content": error})
        body = {
            "model": cfg.model,
            "messages": messages,
            "temperature": cfg.temperature,
            "response_format": schema,
        }
        post = urllib.request.Request(
            cfg.endpoint, data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        # a non-2xx answer raises HTTPError
        with urllib.request.urlopen(post, timeout=cfg.timeout) as response:
            return json.load(response)["choices"][0]["message"]["content"]

    return policy


KINDS = ("oracle", "noisy", "remote")  # the policy kinds build_policy constructs


def build_policy(spec: dict, task, catalog: list[dict]):
    """Construct a policy from a run-config policy spec for a given task."""
    kind = spec.get("kind", "oracle")
    if kind == "oracle":
        return oracle_policy(task.gold_plan)
    if kind == "noisy":
        noise = NoiseModel(
            wrong_schema_rate=spec.get("wrong_schema_rate", 0.0),
            wrong_reference_rate=spec.get("wrong_reference_rate", 0.0),
            repeat_rate=spec.get("repeat_rate", 0.0),
            corrects_after_feedback=spec.get("corrects_after_feedback", True),
            seed=spec.get("seed", 0),
        )
        return noisy_policy(task.gold_plan, noise, catalog)
    if kind == "remote":
        cfg = RemotePolicyConfig(
            endpoint=spec["endpoint"],
            model=spec.get("model", "stub"),
            temperature=spec.get("temperature", 0.0),
            timeout=spec.get("timeout", 30.0),
            startup_check=spec.get("startup_check", False),
        )
        return remote_llm_policy(cfg, catalog)
    raise PolicyError(f"unknown policy kind {kind!r}")
