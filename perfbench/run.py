"""The planhorizon benchmark.

    python3 perfbench/run.py --workload engines-scale --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The program is driven only through its
public entry points (``planhorizon run``, ``planhorizon stats``,
``tasks.load_dataset`` and ``Dataset.make_env``), each command in a fresh
process (see child.py).  A workload is repeated in whole rounds until
``--seconds`` have passed; every round runs each of its suites once under SH
and once under FH, then either summarises every run directory with
``planhorizon stats`` (engines-scale) or fits the planted outcomes with it
(gee-fit).  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

gee-fit first runs the shipped fixture suites twice, untimed, to check their
gold answers and compare their traces and outcomes with digests.json;
``--write-digests`` (with ``--workload gee-fit``) rewrites that reference when
a change alters those outputs on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
DIGESTS = os.path.join(HERE, "digests.json")
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2  # determinism is checked between rounds
SETUP_REPEATS = 5
GEE_CONTROLS = "dataset,last_tool,has_bridge,has_comparison"

FIXTURE_TRIALS = 40
PLANNERS = ("sh", "fh")
PROBE_SIZES = (400, 1600)  # 1x and 4x input size for the growth ratios

END_TO_END = [("setup_s", "s"), ("sh_trajectories_per_s", "1/s"),
              ("fh_trajectories_per_s", "1/s"), ("stats_s", "s"), ("peak_rss_mb", "MB")]


# ---------------------------------------------------------------------------
# Workload inputs

def fixture_suites() -> list[dict]:
    suites = []
    for name in ("kopl_oracle", "atomic_oracle", "mock_noisy"):
        config = os.path.join(FIXTURES, f"run_{name}.json")
        with open(config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        dataset = os.path.join(FIXTURES, cfg["dataset"])
        with open(dataset, encoding="utf-8") as fh:
            doc = json.load(fh)
        planted = {
            t["id"]: {"answer": "; ".join(t["gold_answer"]),
                      "depth": gen.plan_depth(t["gold_plan"]),
                      "breadth": float(gen.plan_breadth(t["gold_plan"]))}
            for t in doc["tasks"]
        }
        suites.append({"name": name, "config": config, "dataset": dataset,
                       "planted": planted, "trials": FIXTURE_TRIALS,
                       "robustness": cfg.get("robustness", "high")})
    return suites


def engine_suites(work: str, seed: int) -> list[dict]:
    return [gen.generate_kopl(os.path.join(work, "kopl"), seed, **gen.SIZES["kopl"]),
            gen.generate_atomic(os.path.join(work, "atomic"), seed, **gen.SIZES["atomic"])]


def mock_suites(work: str, seed: int) -> list[dict]:
    return [gen.generate_mock(os.path.join(work, "mock"), seed, **gen.SIZES["mock"])]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# reps: passes over the suites per round.  gee: the round also fits the
# planted outcomes once, and the run first checks the shipped fixtures.
WORKLOADS = {
    "engines-scale": {"suites": engine_suites, "gee": False, "reps": 1},
    "gee-fit": {"suites": mock_suites, "gee": True, "reps": 1},
}


# ---------------------------------------------------------------------------
# Processes

class ChildFailed(Exception):
    pass


def run_child(work: str, tag: str, job: dict) -> dict:
    job = {"src": SRC, **job}
    job_path = os.path.join(work, f"{tag}.job.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), job_path,
                           result_path], cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if not os.path.exists(result_path):
        raise ChildFailed(f"{tag}: no result (exit {proc.returncode}): {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["exit"] = proc.returncode
    if proc.returncode != 0:
        sys.stderr.write(f"{tag}: exit {proc.returncode}\n{result.get('error', '')}"
                         f"{proc.stderr[-2000:]}\n")
    return result


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Rounds

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _run_argv(suite: dict, planner: str, run_dir: str) -> list[str]:
    return ["run", "--config", suite["config"], "--planner", planner,
            "--trials", str(suite["trials"]), "--out", run_dir]


def run_round(work: str, index: int, spec: dict, suites: list[dict], gee: dict | None,
              trace: bool, tally: Tally, digests: dict) -> dict:
    """One round: one process runs every suite under each planner, ``reps``
    times over; without the GEE fit each run is followed by a stats call on
    its directory, with it a second process fits the planted outcomes once.
    Every run directory is checked."""
    reps = spec["reps"]
    out = {"sh": [0.0, 0], "fh": [0.0, 0], "stats": [], "rss": 0.0, "traces": [],
           "bytes": 0, "trajectories": {}, "rows": {}, "reps": reps}
    calls, layout = [], []
    for rep in range(reps):
        for planner in PLANNERS:
            for suite in suites:
                run_dir = os.path.join(work, f"r{index}", str(rep), planner, suite["name"])
                calls.append(_run_argv(suite, planner, run_dir))
                if gee is None:
                    calls.append(["stats", run_dir])
                layout.append((rep, planner, suite, run_dir))
    result = run_child(work, f"r{index}", {"calls": calls, "capture": True, "trace": trace})
    out["rss"] = max(out["rss"], result["maxrss_mb"])
    out["wall"] = sum(c["wall_s"] for c in result["calls"])
    if trace:
        out["traces"].append(result)
    done = {tuple(c["argv"]): c for c in result["calls"]}
    captured = list(result.get("trajectories", []))
    for rep, planner, suite, run_dir in layout:
        n = len(suite["planted"]) * suite["trials"]
        ops = n + (1 if gee is None else 0)  # the trajectories and the stats call
        tally.attempted += ops
        run_call = done.get(tuple(_run_argv(suite, planner, run_dir)))
        if run_call is None or run_call["rc"] != 0:
            tally.failed += ops
            tally.problem(f"{suite['name']}/{planner}: planhorizon run failed")
            continue
        out[planner][0] += run_call["wall_s"]
        out[planner][1] += n
        out["bytes"] += run_call["bytes_written"]
        mine, captured = captured[:n], captured[n:]
        out["trajectories"].setdefault(suite["name"], []).extend(mine)
        bad, rows = checks.check_run(run_dir, suite, planner, mine)
        out["rows"][(suite["name"], planner, rep)] = rows
        failed = len({key for key, _ in bad})
        for key, text in bad:
            tally.problem(f"{suite['name']}/{planner}: {key}: {text}")
        for name in ("traces.jsonl", "outcomes.jsonl"):
            digest = sha256(os.path.join(run_dir, name))
            if digests.setdefault((suite["name"], planner, name), digest) != digest:
                failed = n
                tally.problem(f"{suite['name']}/{planner}: {name} differs between runs")
        tally.failed += min(failed, n)
        if gee is None:
            stats_call = done.get(("stats", run_dir))
            problem = "planhorizon stats failed" if stats_call is None or stats_call["rc"] \
                else checks.check_report(run_dir, rows)
            if problem:
                tally.failed += 1
                tally.problem(f"{suite['name']}/{planner}: {problem}")
            else:
                out["stats"].append(stats_call["wall_s"])

    if gee is not None:
        gee_calls = [["stats", gee["dir"], "--controls", GEE_CONTROLS, "--out",
                      os.path.join(work, f"r{index}", "gee")]]
        result = run_child(work, f"r{index}-gee", {"calls": gee_calls, "trace": trace})
        out["rss"] = max(out["rss"], result["maxrss_mb"])
        out["wall"] += sum(c["wall_s"] for c in result["calls"])
        if trace:
            out["traces"].append(result)
        done = {tuple(c["argv"]): c for c in result["calls"]}
        for argv in gee_calls:
            tally.attempted += 1
            call = done.get(tuple(argv))
            problem = "planhorizon stats failed" if call is None or call["rc"] \
                else checks.check_gee(argv[-1], gee["rows"], GEE_CONTROLS.split(","))
            if problem:
                tally.failed += 1
                tally.problem(f"gee: {problem}")
            else:
                out["stats"].append(call["wall_s"])
    return out


# ---------------------------------------------------------------------------
# Metrics

def median(values):
    return statistics.median(values) if values else 0.0


def setup_seconds(work: str, suites: list[dict]) -> float:
    job = {"setup": [{"dataset": s["dataset"], "robustness": s["robustness"]}
                     for s in suites]}
    times = []
    for i in range(SETUP_REPEATS):
        result = run_child(work, f"setup{i}", job)
        if result["exit"] != 0:
            raise ChildFailed("set-up failed: " + result.get("error", ""))
        times.append(result["setup_s"])
    return median(times)


PER_LAYER_MS = [
    "tasks.load_dataset", "kb.load_kb", "kb.concept_closure",
    "kopl.relate", "kopl.set_op", "kopl.filter_concept", "kopl.filter_attribute",
    "kopl.qualifier_filter", "kopl.select", "kopl.query", "kopl.find", "kopl.run_tool",
    "kopl.render_value",
    "atomic.load_graph", "atomic.extract_entity", "atomic.find_relation", "atomic.merge",
    "atomic.order", "atomic.compare", "atomic.time_constraint", "atomic.run_tool",
    "atomic.render_node_set",
    "mocktools.mock_search", "mocktools.mock_reasoning",
    "grounding.build_index", "grounding.lookup", "grounding.exact", "grounding.miss",
    "plans.parse_plan", "plans.graph_metrics", "plans.detect_repetition", "plans.log_lines",
    "harness.make_env", "harness.build_prompts", "harness.load_prompt", "harness.tokenize",
    "harness.account_tokens", "harness.execute", "harness.loop",
    "policies.build_policy", "policies.policy",
    "stats.match_answer", "stats.summarize_run", "stats.build_design",
    "stats.fit_clustered_logit",
]
PER_LAYER_CALLS = [
    "kb.concept_closure", "kopl.run_tool", "atomic.run_tool", "mocktools.mock_search",
    "grounding.build_index", "grounding.exact", "grounding.miss", "plans.parse_plan",
    "harness.make_env", "harness.load_prompt", "harness.tokenize",
]
PER_LAYER_COUNTS = [
    "harness.invocations", "harness.tool_calls", "harness.tool_failures",
    "harness.replans", "harness.format_retries", "harness.prompt_chars",
    "grounding.lookups", "stats.fit_iterations",
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{layer}_ms", "ms") for layer in PER_LAYER_MS]
    names += [("cli.run_self_ms", "ms"), ("cli.stats_self_ms", "ms"),
              ("cli.bytes_written", "bytes")]
    names += [(f"{layer}.calls", "count") for layer in PER_LAYER_CALLS]
    names += [(name, "count") for name in PER_LAYER_COUNTS]
    names += [("grounding.cache_hit_ratio", "ratio"), ("unattributed_ms", "ms"),
              ("tracing_overhead_pct", "%"), ("kopl.relate.growth", "ratio"),
              ("atomic.order.growth", "ratio"), ("grounding.miss.growth", "ratio")]
    return names


def layer_metrics(traced_rounds: list[dict]) -> dict:
    """Per-layer values for one round, averaged over the traced rounds."""
    self_ms, calls, counts = {}, {}, {}
    unattributed = 0.0
    bytes_written = 0
    for rnd in traced_rounds:
        bytes_written += rnd["bytes"]
        for result in rnd["traces"]:
            report = result["trace"]
            for k, v in report["self_ms"].items():
                self_ms[k] = self_ms.get(k, 0.0) + v
            for k, v in report["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in report["counts"].items():
                counts[k] = counts.get(k, 0) + v
            wall_ms = sum(c["wall_s"] for c in result["calls"]) * 1000.0
            unattributed += wall_ms - report["root_ms"]
    n = len(traced_rounds)
    values = {}
    for layer in PER_LAYER_MS:
        values[f"{layer}_ms"] = self_ms.get(layer, 0.0) / n
    values["cli.run_self_ms"] = self_ms.get("cli.run", 0.0) / n
    values["cli.stats_self_ms"] = self_ms.get("cli.stats", 0.0) / n
    values["cli.bytes_written"] = bytes_written / n
    for layer in PER_LAYER_CALLS:
        values[f"{layer}.calls"] = calls.get(layer, 0) / n
    for name in PER_LAYER_COUNTS:
        values[name] = counts.get(name, 0) / n
    lookups = counts.get("grounding.lookups", 0)
    uncached = calls.get("grounding.exact", 0) + calls.get("grounding.miss", 0)
    values["grounding.cache_hit_ratio"] = (lookups - uncached) / lookups if lookups else 0.0
    values["unattributed_ms"] = unattributed / n
    return values


def per_call_ms(result: dict, layer: str) -> float:
    report = result["trace"]
    calls = report["calls"].get(layer, 0)
    return report["self_ms"].get(layer, 0.0) / calls if calls else 0.0


def growth_ratios(work: str, seed: int, tally: Tally) -> dict:
    """Per-call self time of Relate, Order and grounding misses at 4x input
    size over 1x, from traced FH runs of small probe suites."""
    per_call = []
    for size in PROBE_SIZES:
        pdir = os.path.join(work, f"probe{size}")
        kopl = gen.generate_kopl(pdir, seed, size, 6, templates=["relate-chain", "qualifier"],
                                 name="probe-kopl")
        atomic = gen.generate_atomic(pdir, seed, size, 4, templates=["longest", "count"],
                                     name="probe-atomic")
        suites = [kopl, atomic]
        calls = []
        for suite in suites:
            run_dir = os.path.join(pdir, "run-" + suite["name"])
            calls.append(["run", "--config", suite["config"], "--planner", "fh",
                          "--trials", "1", "--out", run_dir])
        result = run_child(work, f"probe{size}", {"calls": calls, "trace": True,
                                                  "capture": True})
        captured = list(result.get("trajectories", []))
        for suite in suites:
            n = len(suite["planted"])
            tally.attempted += n
            run_dir = os.path.join(pdir, "run-" + suite["name"])
            if result["exit"] != 0 or not os.path.exists(os.path.join(run_dir, "outcomes.jsonl")):
                tally.failed += n
                tally.problem(f"{suite['name']}: planhorizon run failed")
                continue
            mine, captured = captured[:n], captured[n:]
            bad, _rows = checks.check_run(run_dir, suite, "fh", mine)
            tally.failed += min(n, len({key for key, _ in bad}))
            for key, text in bad:
                tally.problem(f"{suite['name']}: {key}: {text}")
        per_call.append(result)
    small, large = per_call
    ratios = {}
    for name, layer in (("kopl.relate.growth", "kopl.relate"),
                        ("atomic.order.growth", "atomic.order"),
                        ("grounding.miss.growth", "grounding.miss")):
        base = per_call_ms(small, layer)
        if base <= 0:
            tally.problem(f"{name}: the probe made no {layer} call")
        ratios[name] = per_call_ms(large, layer) / base if base > 0 else 0.0
    return ratios


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool, work: str,
                 record_digests: bool = False) -> dict:
    spec = WORKLOADS[name]
    suites = spec["suites"](work, seed)
    gee = None
    if spec["gee"]:
        gee_dir = os.path.join(work, "gee-input")
        rows = gen.generate_outcomes(gee_dir, seed, **gen.SIZES["outcomes"])
        gee = {"dir": gee_dir, "rows": rows}

    tally = Tally()
    metrics = {}
    if spec["gee"]:
        check_fixtures(work, tally, record_digests)
    if not trace:
        metrics["setup_s"] = setup_seconds(work, suites)

    digests: dict = {}
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        rnd = run_round(work, len(rounds), spec, suites, gee, traced, tally, digests)
        rnd["traced"] = traced
        rounds.append(rnd)

    problems, failed = checks.check_rounds(rounds)
    tally.failed += failed
    for text in problems:
        tally.problem(text)
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        metrics.update(layer_metrics(traced_rounds))
        metrics["tracing_overhead_pct"] = 100.0 * (
            median([r["wall"] for r in traced_rounds])
            / median([r["wall"] for r in plain]) - 1.0)
        metrics.update(growth_ratios(work, seed, tally))
    else:
        for planner in PLANNERS:
            wall = sum(r[planner][0] for r in rounds)
            metrics[f"{planner}_trajectories_per_s"] = (
                sum(r[planner][1] for r in rounds) / wall if wall else 0.0)
        metrics["stats_s"] = median([v for r in rounds for v in r["stats"]])
        metrics["peak_rss_mb"] = max(r["rss"] for r in rounds)

    for planner in PLANNERS:
        print(f"samples {planner}: " + " ".join(
            f"{r[planner][1] / r[planner][0]:.6g}" for r in rounds if r[planner][0]))
    print("samples stats: " + " ".join(f"{v:.6g}" for r in rounds for v in r["stats"]))
    for (suite, planner, fname), digest in sorted(digests.items()):
        print(f"digest {name} {suite}/{planner}/{fname} {digest}")
    print(f"rounds {len(rounds)}; problems: {len(tally.problems)}")
    for text in tally.problems:
        print(f"problem: {text}")
    correct = not tally.problems and tally.failed == 0
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def check_fixtures(work: str, tally: Tally, record: bool) -> None:
    """Run the shipped fixture suites twice under each planner, untimed:
    check their gold answers and reruns, and compare their digests with
    digests.json."""
    digests: dict = {}
    run_round(work, "fx", {"reps": 2}, fixture_suites(), None, False, tally, digests)
    for (suite, planner, fname), digest in sorted(digests.items()):
        print(f"digest fixtures {suite}/{planner}/{fname} {digest}")
    current = {f"{s}/{p}/{f}": d for (s, p, f), d in sorted(digests.items())}
    if record:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(current)} reference digests")
        return
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    same = reference == current
    print("reference digests: " + ("identical" if same else "DIFFER (outputs changed; "
                                   "refresh with --write-digests if intended)"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planhorizon benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="rewrite digests.json from this gee-fit run")
    args = parser.parse_args(argv)
    if args.write_digests and args.workload != "gee-fit":
        parser.error("--write-digests needs --workload gee-fit")
    if not (os.path.isdir(os.path.join(SRC, "planhorizon")) and os.path.isdir(FIXTURES)):
        print("run from the root of a planhorizon checkout (src/ and fixtures/ missing)",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              work, args.write_digests)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({**result, "metrics": {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in (per_layer_names() if args.trace else END_TO_END)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
