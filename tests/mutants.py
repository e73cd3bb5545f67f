#!/usr/bin/env python3
"""A register of mutants the test suite must kill.

    python3 tests/mutants.py

The checkout's source, tests, fixtures, scripts and benchmark files are
copied to a temporary directory, and the test files the mutants name are run
there once, unmutated: they must pass, or no kill would mean anything. Then,
for each mutant, a fresh copy is made, the mutant's one exact text in one
source file is replaced there, and the test files that mutant names are run
against the copy. A mutant is killed when those tests fail. The register
fails, exit 1, when the unmutated run fails, when a mutant survives, when its
old text does not occur exactly once in its file (it no longer matches the
code and must be re-homed), or when pytest gives no verdict (a collection
error, say). pytest's last lines are printed for every outcome but a kill.
The checkout is never written. The last line printed is the kill count.

Standard library only. mutmut and Cosmic Ray generate mutants; this register
keeps hand-written ones, each a fault that a test was written to catch.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent

# what the tests read of the checkout
COPIED = ("pyproject.toml", "src", "tests", "fixtures", "scripts", "perfbench")
# lines of pytest's output printed for an outcome other than a kill
TAIL = 15


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # occurs exactly once in the file
    new: str
    reason: str
    tests: tuple[str, ...]  # the test files expected to kill it


MUTANTS = (
    Mutant(
        "inline-ref-ignores-failed-step", "src/planhorizon/harness.py",
        "records[j].observation if j < len(records) and records[j].ok else None",
        "records[j].observation if j < len(records) else None",
        "an inline $j in free text resolves only to a step that succeeded; "
        "a failed step's feedback must not reach the tool",
        ("tests/test_harness.py",)),
    Mutant(
        "report-none-as-zero", "src/planhorizon/stats.py",
        "None if v is None else float(v)",
        "0.0 if v is None else float(v)",
        "report.json keeps an undefined ratio or delta as null, never as 0",
        ("tests/test_stats.py", "tests/test_cli.py")),
    Mutant(
        "report-datasets-in-appearance-order", "src/planhorizon/stats.py",
        'for dataset in sorted(set(columns["dataset"])):',
        'for dataset in dict.fromkeys(columns["dataset"]):',
        "report.json lists the per-dataset delta and ratios in sorted dataset "
        "order, whatever order the outcome records come in",
        ("tests/test_stats.py",)),
    Mutant(
        "design-levels-as-numpy-strings", "src/planhorizon/stats.py",
        "== np.array(levels, dtype=object))",
        "== np.array(levels))",
        "a control's dummies compare its levels as Python strings; a numpy "
        "string array drops trailing NULs and merges two levels",
        ("tests/test_stats.py",)),
    Mutant(
        "edges-backward-first", "src/planhorizon/kopl.py",
        """\
    yield from (edge for edge in kb.entities[ea].relations
                if edge.direction == "forward" and edge.target == eb)
    yield from (edge for edge in kb.entities[eb].relations
                if edge.direction == "backward" and edge.target == ea)
""",
        """\
    yield from (edge for edge in kb.entities[eb].relations
                if edge.direction == "backward" and edge.target == ea)
    yield from (edge for edge in kb.entities[ea].relations
                if edge.direction == "forward" and edge.target == eb)
""",
        "the relation edges between two entities come forward edges first, the "
        "order the answers and the reference scan depend on",
        ("tests/test_kopl.py", "tests/test_indexes.py")),
    Mutant(
        "unsorted-trace-log", "src/planhorizon/cli.py",
        "        results.sort(key=lambda item: (item[0].id, item[1].planner, item[1].trial))\n",
        "",
        "a run's traces and outcomes are written in (task id, planner, trial) "
        "order, not in the order the jobs ran",
        ("tests/test_cli.py", "tests/test_golden.py")),
    Mutant(
        "store-loads-before-task-checks", "src/planhorizon/tasks.py",
        """\
        tasks = _read_tasks(doc, engine_type.params)
        data_path = os.path.join(os.path.dirname(os.path.abspath(path)), doc[data_key])
        store = (hold.store(engine, engine_type.load, data_path) if hold is not None
                 else engine_type.load(kbmod.read_document(data_path)))
""",
        """\
        data_path = os.path.join(os.path.dirname(os.path.abspath(path)), doc[data_key])
        store = (hold.store(engine, engine_type.load, data_path) if hold is not None
                 else engine_type.load(kbmod.read_document(data_path)))
        tasks = _read_tasks(doc, engine_type.params)
""",
        "a task file is checked before its store loads: a rejected one pays for "
        "no load and leaves a held store of its kind in place",
        ("tests/test_tasks.py",)),
)


def copy_tree(tmp: str) -> pathlib.Path:
    """Copy what the tests read of the checkout to `tmp`; the copy's root."""
    tree = pathlib.Path(tmp)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-work"))
        else:
            shutil.copy2(source, tree / name)
    return tree


def apply(mutant: Mutant, tree: pathlib.Path) -> str | None:
    """Apply `mutant` to the copy at `tree`; the reason it cannot be, or None."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"its old text occurs {count} times in {mutant.path}, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def pytest(tree: pathlib.Path, tests) -> tuple[int, str]:
    """Run the test files `tests` in the copy at `tree`: pytest's exit code
    and the last lines of its output."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return done.returncode, "\n".join(done.stdout.splitlines()[-TAIL:])


def check(mutant: Mutant) -> tuple[str, str]:
    """'killed', 'SURVIVED', 'STALE: <why>' or 'ERROR: <why>' for `mutant`,
    and the last lines of pytest's output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = copy_tree(tmp)
        problem = apply(mutant, tree)
        if problem is not None:
            return f"STALE: {problem}", ""
        code, tail = pytest(tree, mutant.tests)
    # pytest exits 1 when a test failed; any other code is no verdict
    if code == 0:
        return "SURVIVED", tail
    if code == 1:
        return "killed", tail
    return f"ERROR: pytest exited {code}", tail


def main() -> int:
    named = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-clean-") as tmp:
        code, tail = pytest(copy_tree(tmp), named)
    if code != 0:
        print(f"ERROR: the named tests fail on the unmutated copy, pytest exited {code}",
              tail, f"0 of {len(MUTANTS)} mutants killed", sep="\n")
        return 1
    killed = 0
    for mutant in MUTANTS:
        verdict, tail = check(mutant)
        killed += verdict == "killed"
        print(f"{verdict}: {mutant.name} ({mutant.path}; {', '.join(mutant.tests)})",
              flush=True)
        if verdict != "killed" and tail:
            print(tail, flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
