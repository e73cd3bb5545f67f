"""Tool-use agents with single-step vs full-horizon planning, and the
statistics to compare them."""

from . import atomic, grounding, harness, kb, kopl, mocktools, plans, policies, stats
from .harness import Budget, Environment, run_fh, run_sh, run_task
from .kb import KnowledgeBase, TypedValue, load_kb
from .outcome import ToolOutcome
from .plans import Plan, ToolCall, Trace, breadth, build_dag, depth, parse_plan
from .stats import (Outcome, fit_clustered_logit, match_answer, outcome_columns,
                    summarize_run)
from .tasks import Dataset, Task, load_dataset

__version__ = "0.1.0"

__all__ = [
    "atomic", "grounding", "harness", "kb", "kopl", "mocktools", "plans",
    "policies", "stats",
    "Budget", "Environment", "run_fh", "run_sh", "run_task",
    "KnowledgeBase", "TypedValue", "load_kb",
    "ToolOutcome",
    "Plan", "ToolCall", "Trace", "breadth", "build_dag", "depth", "parse_plan",
    "Outcome", "fit_clustered_logit", "match_answer", "outcome_columns",
    "summarize_run",
    "Dataset", "Task", "load_dataset",
]
