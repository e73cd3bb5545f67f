"""Tool outcomes (a value or a failure with feedback), the one way a tool
fails, and the tool table each engine declares its tools in."""

from __future__ import annotations

from dataclasses import dataclass, field

from .kb import KBError, parse_value_text


@dataclass(frozen=True)
class ToolOutcome:
    ok: bool
    value: object = None
    feedback: str = ""

    @staticmethod
    def success(value) -> "ToolOutcome":
        return ToolOutcome(ok=True, value=value)

    @staticmethod
    def failure(feedback: str) -> "ToolOutcome":
        return ToolOutcome(ok=False, feedback=feedback)


class ToolFailure(Exception):
    """The one way a tool fails: a tool function returns its output or
    raises this, and `ToolTable.call` makes it a failed step."""

    def __init__(self, feedback: str):
        super().__init__(feedback)
        self.feedback = feedback


class ProgramError(Exception):
    """A call names a tool its engine does not have. Plans never make one
    (`parse_plan` rejects the tool); a direct caller can."""


REQUIRED = object()  # the default of a parameter a call must give


@dataclass(frozen=True)
class Param:
    """One parameter a plan passes to a tool.

    `kind` is what the prompt catalog shows; "set" and "value-ref" ones take
    whole-value $i references. A value must be of a type in `takes` (named by
    `noun` when it is not), or one of `choices` when those are given. `parse`
    names the `kb.parse_value_text` kind the tool gets the value as
    ("any" leaves the kind to the text)."""

    name: str
    kind: str = "string"
    takes: tuple = (str,)
    noun: str = "a string"
    default: object = REQUIRED
    choices: tuple = ()
    parse: str | None = None


def literal(name: str, parse: str | None = None) -> Param:
    """A parameter taking a literal value: a string or a JSON number."""
    return Param(name, takes=(str, int, float), noun="a string or number", parse=parse)


@dataclass(frozen=True)
class Tool:
    """One row of a tool table. `function` names the engine module's global
    called with `args` in order: a Param is bound from the call, a str is
    the engine value of that name. `fixed` values are passed after them."""

    description: str
    function: str
    args: tuple
    fixed: tuple = ()


@dataclass(frozen=True)
class ToolTable:
    """An engine's tools by name, whose functions are looked up in
    `functions` (the engine module's globals) at call time."""

    engine: str
    functions: dict = field(repr=False)
    tools: dict[str, Tool] = field(repr=False)

    def catalog(self) -> list[dict]:
        """The machine-readable tool catalog embedded in policy prompts."""
        return [
            {"name": name,
             "params": [{"name": p.name, "kind": p.kind}
                        for p in entry.args if type(p) is Param],
             "description": entry.description}
            for name, entry in self.tools.items()
        ]

    def params(self) -> dict[str, dict[str, str]]:
        """{tool: {parameter: catalog kind}}, in call order: the map plans are
        checked against and references resolved by."""
        return {name: {p.name: p.kind for p in entry.args if type(p) is Param}
                for name, entry in self.tools.items()}

    def call(self, tool: str, args: dict, context: dict) -> ToolOutcome:
        """Run `tool` on a call's `args`, references resolved: the one place a
        tool run becomes a ToolOutcome. An argument that is missing, of another
        type, outside its choices or unparsable fails the step like a
        ToolFailure the tool raises, quoting the value to 80 characters (it
        may be a set)."""
        entry = self.tools.get(tool)
        if entry is None:
            raise ProgramError(f"unknown {self.engine} tool {tool!r}")
        try:
            bound = [context[p] if type(p) is str else _bind(tool, p, args)
                     for p in entry.args]
            return ToolOutcome.success(self.functions[entry.function](*bound, *entry.fixed))
        except ToolFailure as failure:
            return ToolOutcome.failure(failure.feedback)


def _bind(tool: str, p: Param, args: dict):
    """The value of parameter `p` in a call of `tool` with `args`."""
    value = args.get(p.name, p.default)
    if value is REQUIRED:
        raise ToolFailure(f"Error in {tool}: argument {p.name!r} is missing")
    if p.choices:
        if type(value) is not str or value not in p.choices:
            *rest, last = p.choices
            raise ToolFailure(f"Error in {tool}: {p.name} must be "
                              f"{', '.join(rest)} or {last}, got {value!r:.80}")
    elif type(value) not in p.takes:
        raise ToolFailure(
            f"Error in {tool}: argument {p.name!r} must be {p.noun}, got {value!r:.80}")
    elif p.parse is not None:
        try:
            return parse_value_text(value, None if p.parse == "any" else p.parse)
        except (ValueError, KBError):
            raise ToolFailure(
                f"Error in {tool}: {p.name} {value!r:.80} is not a {p.parse}") from None
    return value
