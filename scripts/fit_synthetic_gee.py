#!/usr/bin/env python3
"""Fit the clustered logistic success model on synthetic outcomes with known
coefficients and print the recovered table.

The generator plants a negative depth effect that is stronger under the
full-horizon planner, the qualitative pattern the model is built to detect.
"""

import argparse

import numpy as np

from planhorizon import stats


def generate(seed: int, n_questions: int, trials: int) -> list[dict]:
    """Outcome records with the required fields only (see stats.Outcome)."""
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_questions):
        d = int(rng.integers(1, 7))
        b = float(rng.uniform(1.0, 3.0))
        for planner in ("sh", "fh"):
            for trial in range(trials):
                # planted model: depth hurts, and hurts FH more
                eta = 1.2 - 0.5 * d - 0.2 * b + (0.35 * d if planner == "sh" else 0.0) - 0.6
                p = 1 / (1 + np.exp(-eta))
                records.append({
                    "question_id": f"q{q}", "trial": trial, "planner": planner,
                    "success": int(rng.random() < p), "depth": d, "breadth": b})
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--questions", type=int, default=400)
    parser.add_argument("--trials", type=int, default=3)
    args = parser.parse_args()

    columns = stats.outcome_columns(generate(args.seed, args.questions, args.trials))
    report = stats.summarize_run(columns)
    print(report.to_text())
    print()

    X, y, clusters, names = stats.build_design(columns)
    fit = stats.fit_clustered_logit(X, y, clusters, names=names)
    print(f"{'term':<14}{'coefficient':>12}{'std_err':>10}{'z':>9}{'p':>10}")
    for row in fit.table():
        print(f"{row['name']:<14}{row['coefficient']:>12.4f}{row['std_err']:>10.4f}"
              f"{row['z']:>9.3f}{row['p']:>10.4f} {row['stars']}")
    print(f"\nconverged={fit.converged} after {fit.n_iter} iterations, "
          f"{fit.n_obs} records in {fit.n_clusters} clusters")


if __name__ == "__main__":
    main()
