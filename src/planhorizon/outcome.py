"""Shared tool-outcome type: a value or a failure with feedback."""

from __future__ import annotations

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
