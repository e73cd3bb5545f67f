import json

import pytest

from planhorizon import cli, harness


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def run_dir(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "run"
    code = run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                   "--out", str(out))
    capsys.readouterr()
    assert code == 0
    return out


class TestRun:
    def test_oracle_run_all_correct(self, run_dir, capsys):
        outcomes = [json.loads(line)
                    for line in (run_dir / "outcomes.jsonl").read_text().splitlines()]
        assert outcomes and all(o["success"] == 1 for o in outcomes)
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json", "outcomes.jsonl", "traces.jsonl"]

    def test_manifest_written(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["planner"] == "both"
        assert manifest["trials"] == 3
        assert len(manifest["config_hash"]) == 16

    def test_three_trials_per_task(self, run_dir):
        lines = [json.loads(line)
                 for line in (run_dir / "traces.jsonl").read_text().splitlines()]
        trials = {(l["question_id"], l["run_id"].rsplit("-", 2)[-2], l["trial"])
                  for l in lines}
        per_task = {}
        for qid, planner, trial in trials:
            per_task.setdefault((qid, planner), set()).add(trial)
        assert all(ts == {0, 1, 2} for ts in per_task.values())

    def test_invalid_engine_is_config_error(self, tmp_path, fixtures_dir, capsys):
        bad_dataset = tmp_path / "bad.json"
        bad_dataset.write_text(json.dumps({"engine": "quantum", "tasks": []}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": "bad.json"}))
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")) == 2

    def test_reruns_are_byte_identical(self, tmp_path, fixtures_dir, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", "--config",
                           str(fixtures_dir / "run_kopl_oracle.json"),
                           "--out", str(out)) == 0
            outs.append((out / "traces.jsonl").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_one_environment_per_run(self, tmp_path, fixtures_dir, monkeypatch, capsys):
        built = []
        make_env = harness.make_env

        def counting_make_env(*args, **kwargs):
            built.append(args)
            return make_env(*args, **kwargs)

        monkeypatch.setattr(harness, "make_env", counting_make_env)
        assert run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                       "--out", str(tmp_path / "o")) == 0
        assert len(built) == 1  # for 5 tasks x 2 planners x 3 trials
        capsys.readouterr()


class TestStats:
    def test_report_files(self, run_dir, capsys):
        code = run_cli("stats", str(run_dir))
        out = capsys.readouterr().out
        # all-correct outcomes separate perfectly, so the GEE cannot fit;
        # runtime failure is the honest exit here
        assert code == 1
        assert "accuracy" in out
        assert (run_dir / "report.json").exists()

    def test_single_planner_skips_gee(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "solo"
        run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                "--out", str(out), "--planner", "sh")
        code = run_cli("stats", str(out))
        assert code == 0
        assert "GEE skipped" in capsys.readouterr().out

    def test_missing_dir_is_config_error(self, tmp_path, capsys):
        assert run_cli("stats", str(tmp_path / "ghost")) == 2


class TestInspect:
    def test_pretty_print(self, run_dir, capsys):
        code = run_cli("inspect", str(run_dir / "traces.jsonl"),
                       "--run-id", "kopl-taller-fh-t0")
        out = capsys.readouterr().out
        assert code == 0
        assert "SelectBetween" in out

    def test_no_match_is_runtime_failure(self, run_dir, capsys):
        assert run_cli("inspect", str(run_dir / "traces.jsonl"),
                       "--run-id", "nope") == 1


class TestValidate:
    def test_valid_files(self, fixtures_dir, capsys):
        for name in ("mini_kb.json", "toy_graph.json", "corpus.json",
                     "kopl_tasks.json"):
            assert run_cli("validate", str(fixtures_dir / name)) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 4

    def test_invalid_kb(self, tmp_path, capsys):
        doc = {"concepts": [{"id": "a", "name": "a", "subclass_of": ["b"]}],
               "entities": []}
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", str(path)) == 2

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{{{")
        assert run_cli("validate", str(path)) == 2
