"""Policy implementations: deterministic oracle, seeded noisy policy, and a
remote adapter speaking the OpenAI-compatible chat-completions protocol."""

from __future__ import annotations

import dataclasses
import json
import random
import urllib.error
import urllib.request
from dataclasses import dataclass

from .harness import PolicyRequest
from .plans import Plan, rewrite_refs, step_ref
from .stats import JSON_TYPES


class PolicyError(Exception):
    pass


def _remap_refs(args: dict, mapping) -> dict:
    """Renumber every $i, whole-value or inline in free text, as $mapping(i)."""
    return {
        key: rewrite_refs(value, lambda j: f"${mapping(j)}")
        if isinstance(value, str) else value
        for key, value in args.items()
    }


def _gold_replayer(gold_plan: Plan):
    """The gold steps a request asks for, as plan dicts: from the first one not
    yet done, one under `sh-next-step` and the rest of the plan otherwise. A
    step is done when it succeeded and was emitted here, so a noisy repeat never
    counts as progress. `$j` becomes the step where gold step j succeeded, or
    where it is emitted now; the last gold step carries `final`."""

    gold = gold_plan.steps
    emitted: dict[int, int] = {}  # step index -> gold index

    def replay(request: PolicyRequest) -> list[dict]:
        if not request.history:  # a new trajectory
            emitted.clear()
        done_at = {emitted[item["step"]]: item["step"] for item in request.history
                   if item["outcome_kind"] == "success" and item["step"] in emitted}
        done, start = len(done_at), len(request.history)

        def index(j: int) -> int:
            return done_at[j] if j in done_at else start + j - done

        count = 1 if request.mode == "sh-next-step" else len(gold) - done
        steps = []
        for k, step in enumerate(gold[done:done + count]):
            emitted[start + k] = done + k
            doc = {"tool": step.tool, "args": _remap_refs(step.args, index)}
            if done + k == len(gold) - 1:
                doc["final"] = True
            steps.append(doc)
        return steps

    return replay


def oracle_policy(gold_plan: Plan):
    """Replays the gold plan: the full plan under FH, one step at a time under
    SH, and the re-indexed remaining suffix on FH replans."""
    replay = _gold_replayer(gold_plan)
    return lambda request: json.dumps(replay(request))


@dataclass(frozen=True)
class NoiseModel:
    wrong_schema_rate: float = 0.0
    wrong_reference_rate: float = 0.0
    repeat_rate: float = 0.0
    corrects_after_feedback: bool = True

    def __post_init__(self):
        for name in ("wrong_schema_rate", "wrong_reference_rate", "repeat_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")


def corrupt_term(term: str) -> str:
    """Deterministic schema-term corruption, e.g. employee_counts -> employees."""
    if "_" in term:
        head = term.split("_")[0]
        return head if head.endswith("s") else head + "s"
    if len(term) > 3:
        return term[:-1]
    return term + "x"


def noisy_policy(gold_plan: Plan, noise: NoiseModel, params: dict[str, dict], seed: int):
    """Gold-plan policy with corruptions drawn from `seed`: wrong schema terms,
    wrong references, or SH repeats of the previous call (a call and an
    invocation spent, no gold step done). With corrects_after_feedback, a
    failure observation makes the next emission the clean gold step."""

    replay = _gold_replayer(gold_plan)

    def corrupt_step(doc: dict, rng: random.Random) -> dict:
        if rng.random() < noise.wrong_schema_rate:
            for param, kind in params[doc["tool"]].items():
                value = doc["args"].get(param)
                if kind == "string" and isinstance(value, str) and step_ref(value) is None:
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
        if (request.mode != "fh-initial" and noise.corrects_after_feedback and history
                and history[-1]["outcome_kind"] == "failure"):
            return json.dumps(replay(request))  # the failed gold step/suffix, clean
        rng = random.Random(f"{seed}|{request.mode}|{len(history)}|")
        if request.mode == "sh-next-step" and history and rng.random() < noise.repeat_rate:
            prev = history[-1]
            return json.dumps([{"tool": prev["tool"], "args": dict(prev["args"])}])
        # the gold emission with fresh draws: the initial FH plan, the next SH
        # step, or the suffix of an FH replan
        return json.dumps([corrupt_step(doc, rng) for doc in replay(request)])

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

    def __post_init__(self):
        if not 0.0 < self.timeout < float("inf"):
            raise ValueError(f"timeout must be positive and finite, got {self.timeout!r}")


def build_plan_schema(params: dict[str, dict]) -> dict:
    """A response-format constraint restricting tool names and parameter names."""
    variants = []
    for tool, kinds in params.items():
        variants.append({
            "type": "object",
            "properties": {
                "tool": {"const": tool},
                "args": {
                    "type": "object",
                    "properties": {name: {"type": ["string", "number"]} for name in kinds},
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


def remote_llm_policy(cfg: RemotePolicyConfig, params: dict[str, dict]):
    """Chat-completions adapter; the harness owns format retries, which arrive
    as error messages appended to the request."""

    schema = build_plan_schema(params)

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


# the settings of each policy kind build_policy constructs, read from the
# spec's fields of the same names
KINDS = {"oracle": None, "noisy": NoiseModel, "remote": RemotePolicyConfig}


def parse_spec(spec: dict) -> NoiseModel | RemotePolicyConfig | None:
    """The settings a run-config policy spec gives its kind (None for the
    oracle). An unknown kind or key, or a field that is missing, of another
    type or out of range, raises PolicyError naming it; nothing is contacted."""
    kind = spec.get("kind", "oracle")
    if type(kind) is not str or kind not in KINDS:
        raise PolicyError(f"unknown policy kind {kind!r}")
    settings = KINDS[kind]
    fields = dataclasses.fields(settings) if settings else ()
    keys = ("kind", *(field.name for field in fields))
    for key in spec:
        if key not in keys:
            raise PolicyError(f"unknown {kind} policy key {key!r}; it takes {', '.join(keys)}")
    if settings is None:
        return None
    values = {}
    for field in fields:
        if field.name not in spec:
            if field.default is dataclasses.MISSING:
                raise PolicyError(f"a {kind} policy needs {field.name!r}")
            continue
        value = spec[field.name]
        if type(value) not in JSON_TYPES[field.type]:
            raise PolicyError(f"policy {field.name} must be {field.type}, got {value!r}")
        values[field.name] = value
    try:
        return settings(**values)
    except ValueError as exc:
        raise PolicyError(f"policy {exc}") from None


def startup_check(settings) -> None:
    """Contact the endpoint of remote policy settings that ask for a startup
    check, once per run: no HTTP answer raises PolicyError. Any other settings
    contact nothing."""
    if not (isinstance(settings, RemotePolicyConfig) and settings.startup_check):
        return
    base = settings.endpoint.rsplit("/chat/completions", 1)[0]
    try:
        urllib.request.urlopen(base, timeout=settings.timeout).close()
    except urllib.error.HTTPError as answer:
        answer.close()  # any HTTP answer means the endpoint is reachable
    except OSError as exc:  # URLError included
        raise PolicyError(f"endpoint {settings.endpoint!r} unreachable: {exc}")


def build_policy(spec: dict, task, params: dict[str, dict], seed: int):
    """Construct a policy from a run-config policy spec for a given task over
    an engine's `params`; a noisy policy draws from `seed`."""
    settings = parse_spec(spec)
    if isinstance(settings, NoiseModel):
        return noisy_policy(task.gold_plan, settings, params, seed)
    if isinstance(settings, RemotePolicyConfig):
        return remote_llm_policy(settings, params)
    return oracle_policy(task.gold_plan)
