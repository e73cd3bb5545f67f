"""Correctness checks on the program's outputs.

Every expected value comes from the generator's planted structures, from the
fixtures' hand-written gold answers, or from computations made here; none
comes from ``planhorizon`` itself.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run(run_dir: str, suite: dict, planner: str, captured: list[dict]):
    """Check one ``planhorizon run`` directory of one planner.

    Returns (bad, rows): bad holds one (task#trial, reason) pair per failed
    trajectory; rows are the outcome records, each marked with ``_ok``."""
    planted = suite["planted"]
    trials = suite["trials"]
    bad = []
    path = os.path.join(run_dir, "outcomes.jsonl")
    rows = _read_jsonl(path) if os.path.exists(path) else []
    by_key = {(r["question_id"], r["trial"]): r for r in rows if r.get("planner") == planner}
    answers: dict[str, list[dict]] = {}
    for item in captured:
        answers.setdefault(item["question_id"], []).append(item)
    for task_id, gold in planted.items():
        got = answers.get(task_id, [])
        for trial in range(trials):
            key = f"{task_id}#{trial}"
            row = by_key.get((task_id, trial))
            if row is None:
                bad.append((key, "missing from outcomes.jsonl"))
                continue
            reasons = []
            if row["success"] != 1 or row["label"] != "correct":
                reasons.append(f"graded {row['label']}")
            if row["depth"] != gold["depth"] or row["breadth"] != gold["breadth"]:
                reasons.append(f"depth/breadth {row['depth']}/{row['breadth']}, "
                               f"planted {gold['depth']}/{gold['breadth']}")
            trajectory = got[trial] if trial < len(got) else None
            if trajectory is None:
                reasons.append("no trajectory recorded")
            elif trajectory["status"] != "answered" or trajectory["answer"] != gold["answer"]:
                reasons.append(f"ended {trajectory['status']} with {trajectory['answer']!r}, "
                               f"planted {gold['answer']!r}")
            row["_ok"] = not reasons
            if reasons:
                bad.append((key, "; ".join(reasons)))
    expected = len(planted) * trials
    if len(rows) != expected:
        bad.append(("rows", f"{len(rows)} outcome rows, expected {expected}"))
    return bad, rows


def check_report(run_dir: str, rows: list[dict]) -> str | None:
    """report.json accuracies equal the share of trajectories checked correct."""
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    expected: dict[str, list[int]] = {}
    for row in rows:
        tally = expected.setdefault(f"{row['dataset']}/{row['planner']}", [0, 0])
        tally[0] += 1 if row.get("_ok") else 0
        tally[1] += 1
    want = {k: float(Fraction(ok, n)) for k, (ok, n) in expected.items()}
    if report["accuracy"] != want:
        return f"report.json accuracy {report['accuracy']} != counted {want}"
    return None


def _standardize(values: np.ndarray) -> np.ndarray:
    return (values - values.mean()) / values.std()


def design_columns(rows: list[dict], controls: list[str]) -> dict[str, np.ndarray]:
    """The success model's columns, built from the generated rows."""
    depth = _standardize(np.array([r["depth"] for r in rows], dtype=float))
    breadth = _standardize(np.array([r["breadth"] for r in rows], dtype=float))
    sh = np.array([1.0 if r["planner"] == "sh" else 0.0 for r in rows])
    cols = {"intercept": np.ones(len(rows)), "depth": depth, "breadth": breadth,
            "sh": sh, "depth:sh": depth * sh, "breadth:sh": breadth * sh}
    for control in controls:
        if control in ("dataset", "last_tool"):
            for level in sorted({r[control] for r in rows})[1:]:
                cols[f"{control}[{level}]"] = np.array(
                    [1.0 if r[control] == level else 0.0 for r in rows])
        else:
            cols[control] = np.array([1.0 if r[control] else 0.0 for r in rows])
    return cols


def check_gee(out_dir: str, rows: list[dict], controls: list[str]) -> str | None:
    """Accuracies are the exact counted fractions; the fitted coefficients
    solve the logit score equations on our own design matrix; the planted
    signs of depth and depth:sh are recovered."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    counted: dict[str, list[int]] = {}
    for r in rows:
        tally = counted.setdefault(f"{r['dataset']}/{r['planner']}", [0, 0])
        tally[0] += r["success"]
        tally[1] += 1
    want = {k: float(Fraction(s, n)) for k, (s, n) in counted.items()}
    if report["accuracy"] != want:
        return f"report.json accuracy {report['accuracy']} != counted {want}"

    with open(os.path.join(out_dir, "coefficients.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    cols = design_columns(rows, controls)
    names = [row["name"] for row in table]
    if names != list(cols):
        return f"coefficient names {names} != expected {list(cols)}"
    X = np.column_stack([cols[n] for n in names])
    y = np.array([r["success"] for r in rows], dtype=float)
    beta = np.array([row["coefficient"] for row in table])
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    score = X.T @ (y - mu)
    worst = float(np.max(np.abs(score)))
    if not math.isfinite(worst) or worst > 1e-6 * len(rows):
        return f"score equations not solved: max |X'(y-mu)| = {worst:.3g}"
    coef = dict(zip(names, beta))
    if not (coef["depth"] < 0 and coef["depth:sh"] < 0):
        return (f"planted negative depth and depth:sh not recovered: "
                f"{coef['depth']:.3f}, {coef['depth:sh']:.3f}")
    return None


def check_rounds(rounds: list[dict]) -> tuple[list[str], int]:
    """Properties of whole rounds of the generated suites; returns
    (problems, failed trajectories)."""
    problems, failed = [], 0
    for i, rnd in enumerate(rounds):
        if "kopl" in rnd["trajectories"]:
            for rep in range(rnd["reps"]):
                fh_tokens = {(r["question_id"], r["trial"]): r["tokens_in"]
                             for r in rnd["rows"].get(("kopl", "fh", rep), [])}
                for r in rnd["rows"].get(("kopl", "sh", rep), []):
                    fh = fh_tokens.get((r["question_id"], r["trial"]))
                    if r["depth"] >= 2 and fh is not None and not r["tokens_in"] > fh:
                        failed += 2
                        problems.append(f"round {i}: {r['question_id']} SH prompt tokens "
                                        f"{r['tokens_in']} <= FH {fh}")
        if "atomic" in rnd["trajectories"]:
            trajectories = rnd["trajectories"]["atomic"]
            failures = sum(t["tool_failures"] for t in trajectories)
            replans = sum(t["replans"] for t in trajectories)
            if not (failures > 0 and replans > 0):
                problems.append(f"round {i}: no noise reached the program "
                                f"(tool failures {failures}, replans {replans})")
    return problems, failed
