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


# Low robustness cuts the mock corpus search to its top hit, so every search
# ranks the corpus (top_k 1 of 7 documents), which no run above reaches.
# Recorded before the answer-first search replaced the full ranking.
LOW_ROBUSTNESS_DIGESTS = {
    "sh/traces.jsonl": "32402da6f964b5923b388efb4ed754ddf6ad876fa288e3d96241975009a1294e",
    "sh/outcomes.jsonl": "f8b73b85b45f910d9e20d49b2f8245a89ac5db87b72aaf7a63019b3b957b1e38",
    "fh/traces.jsonl": "153a3066f717d34db0fb265f29379129056cb7b1df3eb31124dfe21eae10139c",
    "fh/outcomes.jsonl": "d40eeb395393a0912f85661ee32d4ebb977fb47d3b1394be8969fcec9a408a03",
}


@pytest.mark.parametrize("planner", ["sh", "fh"])
def test_low_robustness_mock_run_matches_recorded_digests(planner, fixtures_dir,
                                                          tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["run", "--config", str(fixtures_dir / "run_mock_noisy.json"),
                     "--planner", planner, "--robustness", "low", "--trials", "40",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    for name in ("traces.jsonl", "outcomes.jsonl"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == LOW_ROBUSTNESS_DIGESTS[f"{planner}/{name}"], name
