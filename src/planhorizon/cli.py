"""Command-line entry point: run experiments, summarize traces, inspect runs,
and validate fixture files.

Exit codes: 0 success, 1 runtime failure, 2 config error: input a command
cannot use, which it raises and `main` prints as one `config error:` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import sys
import traceback
from pathlib import Path

from . import harness, kb, plans, policies, stats, tasks


EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Input that the cli's own checks reject: an argument, a run config or a file."""


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# a run config's defaults, the type of each value it may hold, and the only
# keys it may hold
_DEFAULTS = {"seed": 0, "planner": "both", "robustness": "high", "trials": 3,
             "policy": {"kind": "oracle"}}
_TYPES = {"dataset": str, "out": str, "seed": int, "trials": int, "policy": dict}
_KEYS = ("dataset", "out", *_DEFAULTS)


def check_config(config) -> dict:
    """The decoded run config `config` with defaults applied. A config `run`
    cannot use raises ConfigError or PolicyError; a remote policy that asks
    for a startup check has its endpoint contacted."""
    if type(config) is not dict:
        raise ConfigError("a run config must be a JSON object")
    for key in config:
        if key not in _KEYS:
            raise ConfigError(
                f"unknown run config key {key!r}; a config holds {', '.join(_KEYS)}")
    config = {**_DEFAULTS, **config}
    if config["planner"] not in ("sh", "fh", "both"):
        raise ConfigError(f"unknown planner {config['planner']!r}")
    if config["robustness"] not in ("high", "low"):
        raise ConfigError(f"unknown robustness {config['robustness']!r}")
    if "dataset" not in config:
        raise ConfigError("config is missing a dataset path")
    for key, kind in _TYPES.items():
        if key in config and type(config[key]) is not kind:
            raise ConfigError(f"{key} must be {kind.__name__}, got {config[key]!r}")
    if config["trials"] < 1:
        raise ConfigError(f"trials must be at least 1, got {config['trials']}")
    policies.startup_check(policies.parse_spec(config["policy"]))
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
    try:
        policy = policies.build_policy(policy_spec, task, env.params, seed + trial)
        trace = harness.run_task(task, policy, env, planner, budget=budget)
    except Exception as exc:  # noqa: BLE001 - a failing job ends its trajectory only
        trace = plans.Trace(question_id=task.id, trial=trial, planner=planner,
                            status="error", error=f"{type(exc).__name__}: {exc}")
        print(f"traceback of {trace.run_id}:\n{traceback.format_exc()}", end="", file=sys.stderr)
    trace.trial = trial
    return trace


def _gold_shape(task) -> tuple[int, float]:
    """(depth, breadth) of the task's gold DAG."""
    graph = plans.build_dag(task.gold_plan)
    return plans.depth(graph), float(plans.breadth(graph))


def _outcome_from_trace(trace, task, shape: tuple[int, float]) -> stats.Outcome:
    label = trace.status if trace.error else stats.match_answer(
        trace.answer or "", task.gold_answer, mode=task.controls.get("match_mode", "exact-set"))
    tokens_in, tokens_out = harness.account_tokens(trace)
    return stats.Outcome(
        question_id=task.id,
        trial=trace.trial,
        planner=trace.planner,
        success=1 if label == "correct" else 0,
        depth=shape[0],
        breadth=shape[1],
        dataset=task.dataset,
        last_tool=task.gold_plan.steps[-1].tool,
        has_bridge=task.controls.get("has_bridge", False),
        has_comparison=task.controls.get("has_comparison", False),
        tokens_in=tokens_in,
        tokens_out=tokens_out,
        repeated=plans.detect_repetition(trace),
        label=label,
    )


# The stores `run` loads, kept for the process while their data files are
# unchanged. The console runs one command per process, so this saves nothing
# there; the benchmark child, which calls `main` for an SH run and then an FH
# run in one process, loads each store once.
STORES = tasks.StoreHold()


def cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = json.loads(kb.read_text(config_path))
    if type(config) is dict:
        config.update({key: getattr(args, key)
                       for key in ("seed", "planner", "robustness", "trials")
                       if getattr(args, key) is not None})
    config = check_config(config)
    dataset = tasks.load_dataset(config_path.parent / config["dataset"], STORES)
    records, failed = run_dataset(
        config, dataset, Path(args.out or config.get("out", "runs/latest")))
    print(stats.summarize_run(stats.outcome_columns(records)).to_text())
    # every file is written, but a failed trajectory is not data for `stats`
    for status in FAILED_LABELS:
        count = sum(1 for trace in failed if trace.status == status)
        if count:
            print(f"runtime failure: {count} of {len(records)} trajectories ended in "
                  f"{FAILED_LABELS[status][0]}", file=sys.stderr)
    return EXIT_RUNTIME if failed else EXIT_OK


def run_dataset(config: dict, dataset: tasks.Dataset,
                out_dir: Path) -> tuple[list[dict], list[plans.Trace]]:
    """Run every job of `config`, as `check_config` returned it, over
    `dataset` and write the run directory `out_dir`: `manifest.json` before
    any job runs, then `traces.jsonl` and `outcomes.jsonl`. Returns the
    outcome records in trace-log order and the traces that ended in an
    error, each named on standard error. The caller's store, frozen before
    the run allocates anything, is walked by no collection during the run;
    it is unfrozen after, so that garbage frozen with it is collected when
    several runs share a process."""
    gc.freeze()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "config_hash": _config_hash(config),
            "seed": config["seed"],
            "dataset": config["dataset"],
            "planner": config["planner"],
            "policy": config["policy"].get("kind", "oracle"),
            "robustness": config["robustness"],
            "trials": config["trials"],
            "out_dir": str(out_dir),
        }
        # manifest goes to disk before any task executes
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

        planners = ["sh", "fh"] if config["planner"] == "both" else [config["planner"]]
        budget = harness.Budget()
        env = dataset.make_env(config["robustness"])
        results = [(task, _run_one(env, task, planner, config["policy"], trial,
                                   config["seed"], budget))
                   for task in dataset.tasks
                   for planner in planners
                   for trial in range(config["trials"])]

        # one deterministic trace log, ordered by (task id, planner, trial)
        results.sort(key=lambda item: (item[0].id, item[1].planner, item[1].trial))
        failed = [trace for _task, trace in results if trace.error]
        for trace in failed:
            print(f"{trace.status.replace('-', ' ')} in {trace.run_id}: {trace.error}",
                  file=sys.stderr)
        with (out_dir / "traces.jsonl").open("w", encoding="utf-8") as handle:
            for _task, trace in results:
                for line in trace.log_lines():
                    handle.write(line + "\n")

        # task ids are unique, and the gold DAG is a fact of the task
        shapes = {task.id: _gold_shape(task) for task in dataset.tasks}
        records = [dataclasses.asdict(_outcome_from_trace(trace, task, shapes[task.id]))
                   for task, trace in results]
        with (out_dir / "outcomes.jsonl").open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return records, failed
    finally:
        gc.unfreeze()


_JSON_SPACE = " \t\r"  # the whitespace JSON allows within a line


def _read_records(path: Path, name: str, check):
    """`check` applied to the JSON values on the non-blank lines of the file at
    `path`. Lines end at "\n" only, the JSON Lines separator (a "\r" before it
    is JSON whitespace); other line breaks, such as U+2028, may sit in
    strings. A line that does not decode, or that `check` refuses with a
    RecordError, raises ConfigError naming `name` and the line's number."""
    text = kb.read_text(path)
    lines = [line for line in text.split("\n") if line.strip(_JSON_SPACE)]
    try:
        records = json.loads("[" + ",\n".join(lines) + "]")
    except json.JSONDecodeError:
        records = None
    # This equals decoding each line alone when every line is one object: no
    # JSON string holds a raw newline, so none spans a join; a line that
    # starts with "{" and ends with "}" holds whole objects (outcome_columns
    # rejects nested ones), so one each when the counts agree.
    try:
        if records is None or len(records) != len(lines) or not all(
                line.strip(_JSON_SPACE)[:1] == "{" and line.strip(_JSON_SPACE)[-1:] == "}"
                for line in lines):
            records = []
            for index, line in enumerate(lines):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    message = f"{exc.msg} at column {exc.colno}"
                    raise stats.RecordError(index, message) from None
        return check(records)
    except stats.RecordError as exc:
        number = [n for n, line in enumerate(text.split("\n"), 1)
                  if line.strip(_JSON_SPACE)][exc.index]
        raise ConfigError(f"{name} line {number}: {exc}") from None


def _outcome_columns(records: list) -> dict[str, list]:
    """The columns of a run's outcome records, refusing an empty file and
    trajectories that ended in an error."""
    if not records:
        raise ConfigError("outcomes.jsonl is empty")
    columns = stats.outcome_columns(records)
    refused = set(columns["label"]).intersection(FAILED_LABELS)
    if refused:
        index = min(map(columns["label"].index, refused))
        raise stats.RecordError(index, FAILED_LABELS[columns["label"][index]][1])
    return columns


def cmd_stats(args: argparse.Namespace) -> int:
    controls = tuple(args.controls.split(",")) if args.controls else ()
    unknown = [control for control in controls if control not in stats.CONTROLS]
    if unknown:
        raise ConfigError(f"unknown control {unknown[0]!r}; --controls takes "
                          f"{', '.join(stats.CONTROLS)}")
    repeated = [control for i, control in enumerate(controls) if control in controls[:i]]
    if repeated:
        raise ConfigError(f"control {repeated[0]!r} is given twice in --controls")
    run_dir = Path(args.run_dir)
    # the reader's text and lines are freed when it returns, before the fit
    columns = _read_records(run_dir / "outcomes.jsonl", "outcomes.jsonl", _outcome_columns)
    out_dir = Path(args.out or run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = stats.summarize_run(columns)
    print(report.to_text())
    code, rows = EXIT_OK, None
    if set(columns["planner"]) != {"sh", "fh"}:
        gee = {"skipped": "need traces from both planners"}
        print(f"GEE skipped: {gee['skipped']}")
    else:
        try:
            X, y, clusters, names = stats.build_design(columns, controls=controls)
            rows = stats.fit_clustered_logit(X, y, clusters, names=names).table()
            gee = {"fitted": True}
        except stats.StatsError as exc:
            print(f"runtime failure: {exc}", file=sys.stderr)
            gee, code = {"failed": str(exc)}, EXIT_RUNTIME

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


# the keys of a traces.jsonl line that `inspect` prints
TRACE_KEYS = ("run_id", "step", "tool", "args", "outcome_kind", "tokens_in", "tokens_out")


def _trace_lines(records: list) -> list:
    """The records of a traces.jsonl file, each an object with every TRACE_KEYS key."""
    for index, record in enumerate(records):
        if type(record) is not dict:
            raise stats.RecordError(index, "not a JSON object")
        missing = [key for key in TRACE_KEYS if key not in record]
        if missing:
            raise stats.RecordError(index, f"missing key {missing[0]!r}")
    return records


def cmd_inspect(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    lines = _read_records(trace_path, str(trace_path), _trace_lines)
    wanted = args.run_id
    shown = 0
    for line in lines:
        if wanted and line["run_id"] != wanted:
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
        # a data document is the first engine's whose marks it has
        engine = next((engine for engine in tasks.ENGINES.values()
                       if any(mark in raw for mark in engine.marks)), None)
        if engine is not None:
            print(f"ok: {engine.describe(engine.load(raw))}")
        elif "tasks" in raw:
            dataset = tasks.load_dataset(path)
            print(f"ok: {dataset.engine} dataset with {len(dataset.tasks)} tasks")
        else:
            raise ConfigError("unrecognized fixture shape")
    except json.JSONDecodeError:  # a config error, before ValueError, its base
        raise
    except (kb.KBError, tasks.DatasetError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; `main` runs the
    `cmd_<command>` function it looks up in this module at call time."""
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

    st = sub.add_parser("stats", help="summarize a finished run")
    st.add_argument("run_dir")
    st.add_argument("--out", default=None)
    st.add_argument("--controls", default="",
                    help=f"comma-separated control columns ({', '.join(stats.CONTROLS)})")

    insp = sub.add_parser("inspect", help="pretty-print one trace")
    insp.add_argument("trace")
    insp.add_argument("--run-id", dest="run_id", default=None)

    val = sub.add_parser("validate", help="lint a KB/graph/corpus/dataset file")
    val.add_argument("path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, OSError, json.JSONDecodeError, kb.KBError, tasks.DatasetError,
            policies.PolicyError) as exc:  # an unreadable or rejected input, or --out
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
