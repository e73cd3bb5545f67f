#!/usr/bin/env python3
"""Run the planner comparison over a grid on generated suites and write one
table of SH and FH accuracy, delta_SH and the SH/FH token ratios per (suite,
robustness, policy).

    PYTHONPATH=src python3 scripts/reproduce.py --seed 1 --out repro

`perfbench/gen.py` writes the seeded KoPL, atomic and mock suites, and each
suite's dataset is loaded once. Each cell of the grid, suite x robustness
(high, low) x policy (oracle, noisy) x noise seed, is one run of both
planners through `cli.check_config` and `cli.run_dataset`, the calls behind
`planhorizon run`, so it writes the run directory that command would write.
`<out>` gets the suites, one run directory per cell and `table.md`.
`--small` generates small suites, for a quick check.
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import sys
import time

from planhorizon import cli, stats, tasks

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


def generate(gen, out: pathlib.Path, seed: int, small: bool) -> dict:
    """suite -> the path of its generated dataset file."""
    sizes = SMALL if small else gen.SIZES
    makers = {"kopl": gen.generate_kopl, "atomic": gen.generate_atomic,
              "mock": gen.generate_mock}
    return {suite: pathlib.Path(make(str(out / suite), seed, **sizes[suite])["dataset"])
            for suite, make in makers.items()}


def run_grid(datasets: dict, out: pathlib.Path, seeds: int, trials: int) -> tuple:
    """(suite, robustness, policy) -> the outcome records of its cells, every
    record's dataset set to the suite's name; and the number of dataset loads
    and of runs the grid made."""
    records, loads, runs = {}, 0, 0
    for suite, path in datasets.items():
        dataset = tasks.load_dataset(path)
        loads += 1
        for policy, spec in POLICIES.items():
            for robustness in ROBUSTNESS:
                cell_records = records.setdefault((suite, robustness, policy), [])
                for noise in range(seeds):
                    run_dir = out / "runs" / f"{suite}-{robustness}-{policy}-s{noise}"
                    config = cli.check_config({
                        "dataset": path.name, "policy": spec, "trials": trials,
                        "planner": "both", "robustness": robustness, "seed": noise})
                    rows, failed = cli.run_dataset(config, dataset, run_dir)
                    runs += 1
                    if failed:
                        raise SystemExit(f"{run_dir.name}: {len(failed)} trajectories "
                                         "ended in an error")
                    cell_records += ({**row, "dataset": suite} for row in rows)
    return records, loads, runs


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
    datasets = generate(load_gen(), out, args.seed, args.small)
    start = time.perf_counter()
    records, loads, runs = run_grid(datasets, out, args.seeds, args.trials)
    wall = time.perf_counter() - start
    text = table(records)
    (out / "table.md").write_text(text)
    print(text, end="")
    print(f"{runs} runs in {wall:.1f} s: {loads} stores loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
