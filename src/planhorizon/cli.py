"""Command-line entry point: run experiments, summarize traces, inspect runs,
and validate fixture files.

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import traceback
from pathlib import Path

from . import harness, kb, mocktools, plans, policies, stats, tasks
from .atomic import load_graph


EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


@dataclasses.dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    dataset: str
    planner: str
    policy: str
    robustness: str
    trials: int
    out_dir: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _load_config(path: Path, overrides: argparse.Namespace) -> dict:
    config = json.loads(path.read_text(encoding="utf-8"))
    for key in ("seed", "planner", "robustness", "trials"):
        value = getattr(overrides, key, None)
        if value is not None:
            config[key] = value
    config.setdefault("seed", 0)
    config.setdefault("planner", "both")
    config.setdefault("robustness", "high")
    config.setdefault("trials", 3)
    config.setdefault("policy", {"kind": "oracle"})
    if config["planner"] not in ("sh", "fh", "both"):
        raise tasks.DatasetError(f"unknown planner {config['planner']!r}")
    if config["robustness"] not in ("high", "low"):
        raise tasks.DatasetError(f"unknown robustness {config['robustness']!r}")
    if config["policy"].get("kind", "oracle") not in policies.KINDS:
        raise tasks.DatasetError(f"unknown policy kind {config['policy'].get('kind')!r}")
    if "dataset" not in config:
        raise tasks.DatasetError("config is missing a dataset path")
    return config


# labels of trajectories that ended in an error: how `run` counts them, and the
# reason `stats` gives for refusing them
FAILED_LABELS = {
    "policy-error": ("a policy error", "the policy raised on this trajectory; rerun it"),
    "error": ("an error", "the run raised on this trajectory; rerun it"),
}


def _run_one(env, task, planner, policy_spec, trial, seed, budget) -> plans.Trace:
    """One trajectory; a job that raises (an engine bug, say) prints its
    traceback and ends as an empty trace with status "error", and the run
    goes on."""
    run_id = f"{task.id}-{planner}-t{trial}"
    spec = dict(policy_spec)
    if spec.get("kind") == "noisy":
        spec.setdefault("seed", seed + trial)
    try:
        policy = policies.build_policy(spec, task=task, catalog=env.catalog)
        trace = harness.run_task(task, policy, env, planner, budget=budget)
    except Exception as exc:  # noqa: BLE001 - a failing job ends its trajectory only
        print(f"traceback of {run_id}:\n{traceback.format_exc()}", end="", file=sys.stderr)
        trace = plans.Trace(question_id=task.id, planner=planner, status="error",
                            error=f"{type(exc).__name__}: {exc}")
    trace.trial = trial
    trace.run_id = run_id
    return trace


def _outcome_from_trace(trace, task, planner) -> stats.Outcome:
    graph = plans.build_dag(task.gold_plan)
    label = trace.status if trace.error else stats.match_answer(
        trace.answer or "", task.gold_answer, mode=task.controls.get("match_mode", "exact-set"))
    token_stats = harness.account_tokens(trace)
    return stats.Outcome(
        question_id=task.id,
        trial=trace.trial,
        planner=planner,
        success=1 if label == "correct" else 0,
        depth=plans.depth(graph),
        breadth=float(plans.breadth(graph)),
        dataset=task.dataset,
        last_tool=task.gold_plan.steps[-1].tool,
        has_bridge=bool(task.controls.get("has_bridge", False)),
        has_comparison=bool(task.controls.get("has_comparison", False)),
        tokens_in=token_stats.prompt_tokens,
        tokens_out=token_stats.completion_tokens,
        repeated=plans.detect_repetition(trace)["repeated"],
        label=label,
    )


def cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        config = _load_config(config_path, args)
        dataset = tasks.load_dataset(config_path.parent / config["dataset"])
    except (OSError, json.JSONDecodeError, tasks.DatasetError, kb.KBError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or config.get("out", "runs/latest"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_hash=_config_hash(config),
        seed=config["seed"],
        dataset=str(config["dataset"]),
        planner=config["planner"],
        policy=config["policy"].get("kind", "oracle"),
        robustness=config["robustness"],
        trials=config["trials"],
        out_dir=str(out_dir),
    )
    # manifest goes to disk before any task executes
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_json(), indent=2) + "\n", encoding="utf-8")

    planners = ["sh", "fh"] if config["planner"] == "both" else [config["planner"]]
    budget = harness.Budget()
    try:
        env = dataset.make_env(config["robustness"])
    except Exception as exc:  # noqa: BLE001 - surfaced as a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    results = [((task, planner, trial),
                _run_one(env, task, planner, config["policy"], trial, config["seed"], budget))
               for task in dataset.tasks
               for planner in planners
               for trial in range(config["trials"])]

    # one deterministic trace log, ordered by (task id, planner, trial)
    results.sort(key=lambda item: (item[0][0].id, item[0][1], item[0][2]))
    failed = [trace for _job, trace in results if trace.error]
    for trace in failed:
        print(f"{trace.status.replace('-', ' ')} in {trace.run_id}: {trace.error}",
              file=sys.stderr)
    with (out_dir / "traces.jsonl").open("w", encoding="utf-8") as handle:
        for _job, trace in results:
            for line in trace.log_lines():
                handle.write(line + "\n")

    records = [dataclasses.asdict(_outcome_from_trace(trace, task, planner))
               for (task, planner, _t), trace in results]
    with (out_dir / "outcomes.jsonl").open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    report = stats.summarize_run(stats.outcome_columns(records))
    print(report.to_text())
    # every file is written, but a failed trajectory is not data for `stats`
    for status in FAILED_LABELS:
        count = sum(1 for trace in failed if trace.status == status)
        if count:
            print(f"runtime failure: {count} of {len(results)} trajectories ended in "
                  f"{FAILED_LABELS[status][0]}", file=sys.stderr)
    return EXIT_RUNTIME if failed else EXIT_OK


def _decode_records(lines: list[str]) -> list:
    """The JSON value on each line, decoded as one array when every line is
    one flat object, else line by line to name the first undecodable one."""
    try:
        records = json.loads("[" + ",\n".join(lines) + "]")
    except json.JSONDecodeError:
        records = None
    # This equals decoding each line alone when every line is one object: no
    # JSON string holds a raw newline, so none spans a join; a line that
    # starts with "{" and ends with "}" holds whole objects (outcome_columns
    # rejects nested ones), so one each when the counts agree.
    if records is not None and len(records) == len(lines) and all(
            line.strip(" \t")[:1] == "{" and line.strip(" \t")[-1:] == "}"
            for line in lines):
        return records
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise stats.RecordError(index, f"{exc.msg} at column {exc.colno}") from None
    return records


def cmd_stats(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    outcome_path = run_dir / "outcomes.jsonl"
    if not outcome_path.exists():
        print(f"config error: no outcomes.jsonl under {run_dir}", file=sys.stderr)
        return EXIT_CONFIG
    text = outcome_path.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        print("config error: outcomes.jsonl is empty", file=sys.stderr)
        return EXIT_CONFIG
    try:
        columns = stats.outcome_columns(_decode_records(lines))
        refused = set(columns["label"]).intersection(FAILED_LABELS)
        if refused:
            index = min(map(columns["label"].index, refused))
            raise stats.RecordError(index, FAILED_LABELS[columns["label"][index]][1])
    except stats.RecordError as exc:
        number = [n for n, line in enumerate(text.splitlines(), 1) if line.strip()][exc.index]
        print(f"config error: outcomes.jsonl line {number}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    del text, lines  # only an error's line number needs them; free them before the fit

    report = stats.summarize_run(columns)
    print(report.to_text())
    code, rows = EXIT_OK, None
    if set(columns["planner"]) != {"sh", "fh"}:
        gee = {"skipped": "need traces from both planners"}
        print(f"GEE skipped: {gee['skipped']}")
    else:
        controls = tuple(args.controls.split(",")) if args.controls else ()
        try:
            X, y, clusters, names = stats.build_design(columns, controls=controls)
            rows = stats.fit_clustered_logit(X, y, clusters, names=names).table()
            gee = {"fitted": True}
        except stats.StatsError as exc:
            print(f"runtime failure: {exc}", file=sys.stderr)
            gee, code = {"failed": str(exc)}, EXIT_RUNTIME

    out_dir = Path(args.out or run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps({**report.to_json(), "gee": gee}, indent=2) + "\n", encoding="utf-8")
    if rows is not None:
        (out_dir / "coefficients.json").write_text(
            json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        print(f"\n{'term':<18}{'coefficient':>12}{'std_err':>10}{'p':>10}")
        for row in rows:
            print(f"{row['name']:<18}{row['coefficient']:>12.4f}"
                  f"{row['std_err']:>10.4f}{row['p']:>10.4f} {row['stars']}")
    return code


def cmd_inspect(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    if not trace_path.exists():
        print(f"config error: {trace_path} not found", file=sys.stderr)
        return EXIT_CONFIG
    lines = [json.loads(line)
             for line in trace_path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    wanted = args.run_id
    shown = 0
    for line in lines:
        if wanted and line.get("run_id") != wanted:
            continue
        print(f"[{line['run_id']}] step {line['step']}: "
              f"{line['tool']}({json.dumps(line['args'], sort_keys=True)}) "
              f"-> {line['outcome_kind']} "
              f"(in={line['tokens_in']}, out={line['tokens_out']})")
        shown += 1
    if shown == 0:
        print("no matching trace lines", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        raw = kb.read_document(path)
        if "concepts" in raw or "entities" in raw:
            base = kb.load_kb(raw)
            print(f"ok: knowledge base with {len(base.entities)} entities, "
                  f"{len(base.concepts)} concepts")
        elif "nodes" in raw:
            graph = load_graph(raw)
            print(f"ok: graph with {len(graph.nodes)} nodes, "
                  f"{len(graph.triples)} triples")
        elif "documents" in raw:
            corpus = mocktools.load_corpus(raw)
            print(f"ok: corpus with {len(corpus.documents)} documents")
        elif "tasks" in raw:
            dataset = tasks.load_dataset(path)
            print(f"ok: {dataset.engine} dataset with {len(dataset.tasks)} tasks")
        else:
            print("config error: unrecognized fixture shape", file=sys.stderr)
            return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:  # before ValueError, its base
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (kb.KBError, tasks.DatasetError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planhorizon",
        description="Run planning-horizon experiments and analyze their traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--planner", choices=("sh", "fh", "both"), default=None)
    run.add_argument("--robustness", choices=("high", "low"), default=None)
    run.add_argument("--trials", type=int, default=None)
    run.set_defaults(func=cmd_run)

    st = sub.add_parser("stats", help="summarize a finished run")
    st.add_argument("run_dir")
    st.add_argument("--out", default=None)
    st.add_argument("--controls", default="",
                    help="comma-separated control columns (dataset, last_tool, "
                         "has_bridge, has_comparison)")
    st.set_defaults(func=cmd_stats)

    insp = sub.add_parser("inspect", help="pretty-print one trace")
    insp.add_argument("trace")
    insp.add_argument("--run-id", dest="run_id", default=None)
    insp.set_defaults(func=cmd_inspect)

    val = sub.add_parser("validate", help="lint a KB/graph/corpus/dataset file")
    val.add_argument("path")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
