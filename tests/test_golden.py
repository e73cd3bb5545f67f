"""The shipped fixture runs, with the benchmark's arguments, reproduce the
reference digests in perfbench/digests.json byte for byte."""

import hashlib
import json
import pathlib

import pytest

from planhorizon import cli

DIGESTS = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "digests.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("planner", ["sh", "fh"])
@pytest.mark.parametrize("suite", ["kopl_oracle", "atomic_oracle", "mock_noisy"])
def test_fixture_run_matches_reference_digests(suite, planner, fixtures_dir,
                                               tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["run", "--config", str(fixtures_dir / f"run_{suite}.json"),
                     "--planner", planner, "--trials", "40", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    for name in ("traces.jsonl", "outcomes.jsonl"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[f"{suite}/{planner}/{name}"], name
