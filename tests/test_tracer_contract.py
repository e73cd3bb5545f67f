"""The functions `perfbench/child.py` wraps in a traced run still exist and
are still reached.

The benchmark measures its end-to-end metrics untraced, so a change that
renames or removes a function the tracer patches would go unseen there. This
runs the three fixture configs, then a GEE fit on synthetic outcomes, through
`child.py` with tracing on and checks that every layer span those calls reach
was entered."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("kopl_oracle", "atomic_oracle", "mock_noisy")


def synthetic_outcomes(seed: int, n_questions: int, trials: int) -> list[dict]:
    spec = importlib.util.spec_from_file_location(
        "fit_synthetic_gee", ROOT / "scripts" / "fit_synthetic_gee.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed, n_questions, trials)


# every span the traced fixture runs and GEE fit enter
REACHED = (
    "atomic.compare", "atomic.extract_entity", "atomic.find_relation",
    "atomic.load_graph", "atomic.merge", "atomic.order", "atomic.render_node_set",
    "atomic.run_tool",
    "cli.run", "cli.stats",
    "grounding.build_index", "grounding.exact", "grounding.lookup", "grounding.miss",
    "harness.account_tokens", "harness.build_prompts", "harness.execute",
    "harness.load_prompt", "harness.loop", "harness.make_env", "harness.tokenize",
    "kb.concept_closure", "kb.load_kb",
    "kopl.filter_concept", "kopl.find", "kopl.query", "kopl.relate",
    "kopl.render_value", "kopl.run_tool", "kopl.select",
    "mocktools.mock_reasoning", "mocktools.mock_search",
    "plans.detect_repetition", "plans.graph_metrics", "plans.log_lines",
    "plans.parse_plan",
    "policies.build_policy", "policies.policy",
    "stats.build_design", "stats.fit_clustered_logit", "stats.match_answer",
    "stats.summarize_run",
    "tasks.load_dataset",
)


def test_traced_fixture_runs_enter_every_span(tmp_path):
    calls = [["run", "--config", str(ROOT / "fixtures" / f"run_{name}.json"),
              "--out", str(tmp_path / name)] for name in CONFIGS]
    gee = tmp_path / "gee"
    gee.mkdir()
    (gee / "outcomes.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in synthetic_outcomes(0, 60, 2)))
    calls.append(["stats", str(gee), "--controls", "dataset,last_tool"])
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"src": str(ROOT / "src"), "calls": calls,
                               "trace": True, "capture": True}))
    result_path = tmp_path / "result.json"
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           str(job), str(result_path)],
                          capture_output=True, text=True, timeout=120)
    assert result_path.exists(), done.stderr  # the tracer could not be installed
    result = json.loads(result_path.read_text())
    assert "error" not in result, result["error"]
    assert done.returncode == 0
    assert [call["rc"] for call in result["calls"]] == [0] * len(calls)
    assert json.loads((gee / "report.json").read_text())["gee"] == {"fitted": True}
    entered = result["trace"]["calls"]
    assert [name for name in REACHED if entered.get(name, 0) < 1] == []
