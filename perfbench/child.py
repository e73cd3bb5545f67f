"""One program process of the benchmark.

    python3 perfbench/child.py JOB.json RESULT.json

The job names the checkout's ``src`` directory and either a list of
``planhorizon`` command lines (run through ``planhorizon.cli.main``, the
function behind the ``planhorizon`` console script) or a list of datasets to
set up with ``tasks.load_dataset`` and ``Dataset.make_env``.  Each command is
timed around ``cli.main``, so interpreter start-up and imports are left out.

With ``"capture": true`` a thin hook on ``harness.run_task`` records each
trajectory's status, answer and counts, so answers can be checked against the
generator's planted ones (``planhorizon run`` writes no answer text).  With
``"trace": true`` the public functions of each module are wrapped at the names
their callers look them up by, and the self time of every span is summed per
layer in memory; the sums are written once, when the process ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
import traceback


class Tracer:
    """Nested spans with self time = duration minus the child spans."""

    def __init__(self):
        self.open: list[list] = []  # [name, start, child_time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.root_s = 0.0

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, name_of_result=None, after=None):
        """Wrap fn in a span.  name_of_result renames the span from the
        result; after(result, args) runs once the span is closed."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            tracer.open.append(frame)
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                tracer.open.pop()
                duration = end - frame[1]
                label = name_of_result(result) if name_of_result else name
                tracer.self_s[label] = tracer.self_s.get(label, 0.0) + duration - frame[2]
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
                if tracer.open:
                    tracer.open[-1][2] += duration
                else:
                    tracer.root_s += duration
                if done and after is not None:
                    after(result, args)

        return wrapper

    def report(self) -> dict:
        return {"self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
                "calls": dict(self.calls), "counts": dict(self.counts),
                "root_ms": self.root_s * 1000.0}


def _trace_summary(trace) -> dict:
    return {
        "question_id": trace.question_id,
        "planner": trace.planner,
        "status": trace.status,
        "answer": trace.answer,
        "invocations": len(trace.invocations),
        "tool_calls": len(trace.records),
        "tool_failures": sum(1 for rec in trace.records if not rec.ok),
        "replans": trace.replans,
        "format_retries": trace.format_retries,
        "prompt_chars": sum(len(inv.prompt_text) for inv in trace.invocations),
    }


def install_capture(harness, captured: list) -> None:
    original = harness.run_task

    @functools.wraps(original)
    def run_task(*args, **kwargs):
        trace = original(*args, **kwargs)
        captured.append(_trace_summary(trace))
        return trace

    harness.run_task = run_task


def install_tracer(tracer: Tracer, captured: list | None) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from planhorizon import (atomic, cli, grounding, harness, kb, kopl, mocktools,
                             plans, policies, stats, tasks)

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    # tokenizer: bound as a default argument when the drivers were defined
    original_tok = harness.whitespace_tokenizer
    tokenize = tracer.wrap("harness.tokenize", original_tok)
    for fn in (harness.run_sh, harness.run_fh, harness.run_task, harness.account_tokens):
        fn.__defaults__ = tuple(tokenize if d is original_tok else d
                                for d in fn.__defaults__)
    harness.whitespace_tokenizer = tokenize

    # tasks / kb / atomic loading, environment construction
    patch(tasks, "load_dataset", "tasks.load_dataset")
    patch(kb, "load_kb", "kb.load_kb")
    patch(atomic, "load_graph", "atomic.load_graph")
    patch(tasks.Dataset, "make_env", "harness.make_env")
    patch(harness, "build_index", "grounding.build_index")

    # plans
    patch(harness, "parse_plan", "plans.parse_plan")
    patch(tasks, "parse_plan", "plans.parse_plan")
    for attr in ("build_dag", "depth", "breadth"):
        patch(plans, attr, "plans.graph_metrics")
    patch(plans, "detect_repetition", "plans.detect_repetition")
    patch(plans.Trace, "log_lines", "plans.log_lines")

    # harness
    patch(harness, "load_prompt", "harness.load_prompt")
    patch(harness, "build_prompts", "harness.build_prompts")
    patch(harness, "account_tokens", "harness.account_tokens")
    patch(harness.Environment, "execute", "harness.execute")

    def after_run_task(trace, _args):
        summary = _trace_summary(trace)
        for key in ("invocations", "tool_calls", "tool_failures", "replans",
                    "format_retries", "prompt_chars"):
            tracer.count(f"harness.{key}", summary[key])
        if captured is not None:
            captured.append(summary)

    patch(harness, "run_task", "harness.loop", after=after_run_task)

    # engines: run_tool dispatches to the tools through module globals
    patch(kopl, "run_tool", "kopl.run_tool")
    for attr, name in (("relate", "kopl.relate"), ("set_op", "kopl.set_op"),
                       ("filter_concept", "kopl.filter_concept"),
                       ("filter_attribute", "kopl.filter_attribute"),
                       ("qualifier_filter", "kopl.qualifier_filter"),
                       ("select_among", "kopl.select"), ("select_between", "kopl.select"),
                       ("query_name", "kopl.query"), ("query_attr", "kopl.query"),
                       ("query_relation", "kopl.query"),
                       ("query_attr_under_condition", "kopl.query"),
                       ("query_attr_qualifier", "kopl.query"),
                       ("query_relation_qualifier", "kopl.query"),
                       ("find", "kopl.find"), ("find_all", "kopl.find")):
        patch(kopl, attr, name)
    patch(kopl, "concept_closure", "kb.concept_closure")
    patch(kopl, "render_value", "kopl.render_value")
    patch(atomic, "run_tool", "atomic.run_tool")
    for attr in ("extract_entity", "find_relation", "merge", "order", "compare",
                 "time_constraint"):
        patch(atomic, attr, f"atomic.{attr}")
    patch(atomic, "render_node_set", "atomic.render_node_set")
    patch(mocktools, "mock_search", "mocktools.mock_search")
    patch(mocktools, "mock_reasoning", "mocktools.mock_reasoning")

    # grounding: Grounder.ground is the cached lookup, grounding.ground the
    # uncached match it calls on a cache miss
    def lookup_done(_result, _args):
        tracer.count("grounding.lookups")

    patch(grounding.Grounder, "ground", "grounding.lookup", after=lookup_done)
    patch(grounding, "ground", "grounding.miss",
          name_of_result=lambda r: "grounding.exact"
          if r is not None and r.status == "exact" else "grounding.miss")

    # policies: the callables build_policy returns are wrapped too
    traced_build = tracer.wrap("policies.build_policy", policies.build_policy)

    def build_policy(*args, **kwargs):
        return tracer.wrap("policies.policy", traced_build(*args, **kwargs))

    policies.build_policy = build_policy

    # stats
    patch(stats, "match_answer", "stats.match_answer")
    patch(stats, "summarize_run", "stats.summarize_run")
    patch(stats, "build_design", "stats.build_design")
    patch(stats, "fit_clustered_logit", "stats.fit_clustered_logit",
          after=lambda fit, _a: tracer.count("stats.fit_iterations", fit.n_iter))

    # cli: the subcommands are looked up when main builds the parser
    patch(cli, "cmd_run", "cli.run")
    patch(cli, "cmd_stats", "cli.stats")


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from planhorizon import cli, harness, tasks

    captured: list | None = [] if job.get("capture") else None
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        install_tracer(tracer, captured)
    elif captured is not None:
        install_capture(harness, captured)

    result: dict = {"calls": []}
    status = 0
    try:
        if job.get("setup"):
            start = time.perf_counter()
            for item in job["setup"]:
                dataset = tasks.load_dataset(item["dataset"])
                dataset.make_env(robustness=item["robustness"])
            result["setup_s"] = time.perf_counter() - start
        for argv in job.get("calls", []):
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            wall = time.perf_counter() - start
            call = {"argv": argv, "rc": code, "wall_s": wall}
            if argv[0] == "run":
                call["bytes_written"] = _dir_bytes(argv[argv.index("--out") + 1])
            result["calls"].append(call)
            if code != 0:
                status = 1
                break
    except Exception:  # noqa: BLE001 - reported to the benchmark as a failure
        result["error"] = traceback.format_exc()
        status = 1
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if captured is not None:
        result["trajectories"] = captured
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
