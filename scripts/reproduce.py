#!/usr/bin/env python3
"""Run the planner comparison over a grid on generated suites and write one
table of SH and FH accuracy, delta_SH and the SH/FH token ratios per (suite,
robustness, policy).

    PYTHONPATH=src python3 scripts/reproduce.py --seed 1 --out repro

`perfbench/gen.py` writes the seeded KoPL, atomic and mock suites. Each cell
of the grid, suite x robustness (high, low) x policy (oracle, noisy) x noise
seed, is one `planhorizon run` of both planners through `cli.main` in this
one process, so the stores `run` keeps in `cli.STORES` are loaded once for the
whole grid; the script prints how many runs loaded a store and how many
reused one. `<out>` gets the suites, one run directory per cell and
`table.md`. `--small` generates small suites, for a quick check.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import pathlib
import sys
import time

from planhorizon import cli, stats

ROOT = pathlib.Path(__file__).resolve().parent.parent

ROBUSTNESS = ("high", "low")
POLICIES = {
    "oracle": {"kind": "oracle"},
    "noisy": {"kind": "noisy", "wrong_schema_rate": 0.3, "wrong_reference_rate": 0.1,
              "repeat_rate": 0.1, "corrects_after_feedback": True},
}
SMALL = {"kopl": {"n_entities": 150, "n_tasks": 28}, "atomic": {"n_nodes": 160, "n_tasks": 16},
         "mock": {"n_docs": 30, "n_tasks": 8}}


def load_gen():
    """perfbench/gen.py, which imports nothing of planhorizon."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_configs(gen, out: pathlib.Path, seed: int, small: bool, trials: int) -> dict:
    """(suite, policy) -> the path of a run config over that generated suite."""
    sizes = SMALL if small else gen.SIZES
    generate = {"kopl": gen.generate_kopl, "atomic": gen.generate_atomic,
                "mock": gen.generate_mock}
    configs = {}
    for suite, make in generate.items():
        made = make(str(out / suite), seed, **sizes[suite])
        for policy, spec in POLICIES.items():
            path = out / suite / f"grid_{policy}.json"
            path.write_text(json.dumps({"dataset": pathlib.Path(made["dataset"]).name,
                                        "policy": spec, "trials": trials}) + "\n")
            configs[suite, policy] = path
    return configs


def run_grid(configs: dict, out: pathlib.Path, seeds: int) -> dict:
    """(suite, robustness, policy) -> the outcome records of its cells, every
    record's dataset set to the suite's name."""
    records = {}
    for (suite, policy), config in configs.items():
        for robustness in ROBUSTNESS:
            cell_records = records.setdefault((suite, robustness, policy), [])
            for noise in range(seeds):
                run_dir = out / "runs" / f"{suite}-{robustness}-{policy}-s{noise}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", str(config), "--planner", "both",
                                     "--robustness", robustness, "--seed", str(noise),
                                     "--out", str(run_dir)])
                if code != cli.EXIT_OK:
                    raise SystemExit(f"{run_dir.name}: planhorizon run exited {code}")
                for line in (run_dir / "outcomes.jsonl").read_text().splitlines():
                    cell_records.append({**json.loads(line), "dataset": suite})
    return records


def table(records: dict) -> str:
    lines = ["| suite | robustness | policy | SH acc | FH acc | delta_SH "
             "| in SH/FH | out SH/FH |", "|---|---|---|---|---|---|---|---|"]
    for (suite, robustness, policy), rows in records.items():
        report = stats.summarize_run(stats.outcome_columns(rows))
        ratios = [report.input_ratio.get(suite), report.output_ratio.get(suite)]
        lines.append(
            f"| {suite} | {robustness} | {policy} "
            f"| {float(report.accuracy[suite, 'sh']):.3f} "
            f"| {float(report.accuracy[suite, 'fh']):.3f} "
            f"| {float(report.delta_sh[suite]):+.3f} | "
            + " | ".join("-" if r is None else f"{float(r):.2f}" for r in ratios) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=3, help="noise seeds per cell")
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--small", action="store_true", help="small suites")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    configs = write_configs(load_gen(), out, args.seed, args.small, args.trials)
    loads, reuses = cli.STORES.loads, cli.STORES.reuses
    start = time.perf_counter()
    records = run_grid(configs, out, args.seeds)
    wall = time.perf_counter() - start
    text = table(records)
    (out / "table.md").write_text(text)
    print(text, end="")
    loads, reuses = cli.STORES.loads - loads, cli.STORES.reuses - reuses
    print(f"{loads + reuses} runs in {wall:.1f} s: {loads} loaded a store, "
          f"{reuses} reused one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
