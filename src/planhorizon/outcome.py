"""Tool outcomes (a value or a failure with feedback) and the one way a tool fails."""

from __future__ import annotations

import functools
from dataclasses import dataclass


@dataclass(frozen=True)
class ToolOutcome:
    ok: bool
    value: object = None
    feedback: str = ""
    candidates: tuple = ()

    @staticmethod
    def success(value) -> "ToolOutcome":
        return ToolOutcome(ok=True, value=value)

    @staticmethod
    def failure(feedback: str, candidates: tuple = ()) -> "ToolOutcome":
        return ToolOutcome(ok=False, feedback=feedback, candidates=candidates)


class ToolFailure(Exception):
    """Ends a tool with a failed step: raised where the tool cannot go on,
    turned into `ToolOutcome.failure(feedback, candidates)` by `tool`."""

    def __init__(self, feedback: str, candidates: tuple = ()):
        super().__init__(feedback)
        self.feedback = feedback
        self.candidates = candidates


def tool(fn):
    """Make a raised `ToolFailure` the failed outcome of the tool `fn`."""

    @functools.wraps(fn)
    def run(*args, **kwargs) -> ToolOutcome:
        try:
            return fn(*args, **kwargs)
        except ToolFailure as failure:
            return ToolOutcome.failure(failure.feedback, failure.candidates)

    return run


def text_arg(tool_name: str, args: dict, name: str) -> str:
    """The string argument `name` of a call to `tool_name`; a missing or
    non-string one raises ToolFailure."""
    text = args.get(name)
    if not isinstance(text, str):
        problem = f"must be a string, got {text!r}" if name in args else "is missing"
        raise ToolFailure(f"Error in {tool_name}: argument {name!r} {problem}")
    return text
