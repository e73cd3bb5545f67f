import gc
import io
import json
import re
import shutil
import urllib.request

import pytest

from planhorizon import cli, harness, kopl, plans, stats, tasks
from planhorizon.kb import MalformedDocumentError


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


# a remote policy spec whose every call is refused: each trajectory raises
REFUSED_ENDPOINT = {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/chat/completions",
                    "timeout": 5}


class TestRun:
    def test_oracle_run_all_correct(self, run_dir, capsys):
        outcomes = [json.loads(line)
                    for line in (run_dir / "outcomes.jsonl").read_text().splitlines()]
        assert outcomes and all(o["success"] == 1 for o in outcomes)
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json", "outcomes.jsonl", "traces.jsonl"]

    # every key, in order, with its value and its JSON type: the config hash
    # pins the config as read
    def test_manifest_written(self, run_dir):
        expected = [("config_hash", "88cedbc565f46eb2"), ("seed", 0),
                    ("dataset", "kopl_tasks.json"), ("planner", "both"), ("policy", "oracle"),
                    ("robustness", "high"), ("trials", 3), ("out_dir", str(run_dir))]
        text = (run_dir / "manifest.json").read_text(encoding="utf-8")
        assert json.loads(text, object_pairs_hook=list) == expected
        assert text == json.dumps(dict(expected), indent=2) + "\n"

    def test_three_trials_per_task(self, run_dir):
        lines = [json.loads(line)
                 for line in (run_dir / "traces.jsonl").read_text().splitlines()]
        trials = {(l["question_id"], l["run_id"].rsplit("-", 2)[-2], l["trial"])
                  for l in lines}
        per_task = {}
        for qid, planner, trial in trials:
            per_task.setdefault((qid, planner), set()).add(trial)
        assert all(ts == {0, 1, 2} for ts in per_task.values())

    def test_gold_dag_is_built_once_per_task(self, tmp_path, fixtures_dir, capsys,
                                             monkeypatch):
        # depth and breadth are facts of the task, not of its 2 x 3 trajectories
        built = []
        build_dag = plans.build_dag
        monkeypatch.setattr(plans, "build_dag",
                            lambda plan: built.append(plan) or build_dag(plan))
        assert run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                       "--out", str(tmp_path / "run")) == 0
        gold = [task.gold_plan
                for task in tasks.load_dataset(fixtures_dir / "kopl_tasks.json").tasks]
        assert built == gold

    def test_invalid_engine_is_config_error(self, tmp_path, fixtures_dir, capsys):
        bad_dataset = tmp_path / "bad.json"
        bad_dataset.write_text(json.dumps({"engine": "quantum", "tasks": []}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": "bad.json"}))
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")) == 2

    # each ends before the manifest is written, with one line naming the problem
    @pytest.mark.parametrize("config, argv, message", [
        ([], (), "a run config must be a JSON object"),
        ({"policy": "oracle"}, (), "policy must be dict, got 'oracle'"),
        ({"trials": "2"}, (), "trials must be int, got '2'"),
        ({"trials": True}, (), "trials must be int, got True"),
        ({"trials": 0}, (), "trials must be at least 1, got 0"),
        ({}, ("--trials", "0"), "trials must be at least 1, got 0"),
        ({"trials": -2}, (), "trials must be at least 1, got -2"),
        ({"seed": "7", "policy": {"kind": "noisy"}}, (), "seed must be int, got '7'"),
        ({"dataset": 5}, (), "dataset must be str, got 5"),
        ({"dataset": ["kopl_tasks.json"]}, (),
         "dataset must be str, got ['kopl_tasks.json']"),
        ({"trails": 1}, (), "unknown run config key 'trails'; a config holds "
         "dataset, out, seed, planner, robustness, trials, policy"),
        ({"Seed": 1}, ("--seed", "1"), "unknown run config key 'Seed'; a config holds "
         "dataset, out, seed, planner, robustness, trials, policy"),
    ], ids=["top-level-list", "policy-string", "trials-string", "trials-bool", "trials-zero",
            "trials-zero-override", "trials-negative", "seed-string-noisy",
            "dataset-number", "dataset-list", "misspelled-key", "wrong-case-key"])
    def test_malformed_run_config_is_config_error(self, tmp_path, fixtures_dir, capsys,
                                                  config, argv, message):
        if isinstance(config, dict):
            config = {"dataset": str(fixtures_dir / "kopl_tasks.json"), **config}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "o"), *argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    # checked once, before any job runs: no trajectory is attempted
    @pytest.mark.parametrize("policy, message", [
        ({"kind": "gpt"}, "unknown policy kind 'gpt'"),
        ({"kind": "noisy", "wrong_schema_rate": 2},
         "policy wrong_schema_rate must lie in [0, 1], got 2"),
        ({"kind": "noisy", "wrong_schema_rate": "0.3"},
         "policy wrong_schema_rate must be float, got '0.3'"),
        ({"kind": "noisy", "repeat_rate": float("nan")},
         "policy repeat_rate must lie in [0, 1], got nan"),
        ({"kind": "noisy", "corrects_after_feedback": "yes"},
         "policy corrects_after_feedback must be bool, got 'yes'"),
        ({"kind": "noisy", "seed": 1.5},
         "unknown noisy policy key 'seed'; it takes kind, wrong_schema_rate, "
         "wrong_reference_rate, repeat_rate, corrects_after_feedback"),
        ({"kind": "remote"}, "a remote policy needs 'endpoint'"),
        ({"kind": "remote", "endpoint": 8000}, "policy endpoint must be str, got 8000"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/chat/completions",
          "timeout": 0}, "policy timeout must be positive and finite, got 0"),
        ({"kind": ["noisy"]}, "unknown policy kind ['noisy']"),
        ({"kind": "noisy", "wrong_schema_rte": 1.0},
         "unknown noisy policy key 'wrong_schema_rte'; it takes kind, wrong_schema_rate, "
         "wrong_reference_rate, repeat_rate, corrects_after_feedback"),
        ({"kind": "oracle", "seed": 3},
         "unknown oracle policy key 'seed'; it takes kind"),
        ({"endpoint": "http://127.0.0.1:9/v1/chat/completions"},
         "unknown oracle policy key 'endpoint'; it takes kind"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/chat/completions",
          "repeat_rate": 0.5},
         "unknown remote policy key 'repeat_rate'; it takes kind, endpoint, model, "
         "temperature, timeout, startup_check"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/chat/completions",
          "timeout": 0.5, "startup_check": True},
         "endpoint 'http://127.0.0.1:9/v1/chat/completions' unreachable: "
         "<urlopen error [Errno 111] Connection refused>"),
    ], ids=["unknown-kind", "rate-above-one", "rate-string", "rate-nan", "correction-string",
            "seed-float", "remote-no-endpoint", "endpoint-number", "timeout-zero",
            "kind-list", "noisy-misspelled-key", "oracle-seed", "oracle-endpoint",
            "remote-noisy-key", "remote-refused-port"])
    def test_bad_policy_spec_is_config_error(self, tmp_path, fixtures_dir, capsys,
                                             monkeypatch, policy, message):
        built = []
        monkeypatch.setattr(harness, "run_task", lambda *args, **kw: built.append(args))
        config = json.loads((fixtures_dir / "run_kopl_oracle.json").read_text())
        config.update(dataset=str(fixtures_dir / "kopl_tasks.json"), policy=policy)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert built == [] and not (tmp_path / "o").exists()

    def test_startup_check_contacts_the_endpoint_once_per_run(self, tmp_path, fixtures_dir,
                                                              capsys, monkeypatch):
        opened = []

        def urlopen(target, timeout):
            if isinstance(target, str):  # the startup check's GET
                opened.append(target)
                return io.BytesIO()
            opened.append("POST")
            raise OSError("no model behind this endpoint")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        config = {"dataset": str(fixtures_dir / "kopl_tasks.json"), "trials": 2,
                  "policy": {"kind": "remote", "startup_check": True,
                             "endpoint": "http://127.0.0.1:9/v1/chat/completions"}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "o"), "--planner", "sh") == 1
        capsys.readouterr()
        assert opened == ["http://127.0.0.1:9/v1"] + ["POST"] * 5 * 2

    # noisy trial t draws with the run seed + t: trial 3 of a run at seed 2
    # is trial 0 of a run at seed 5, and the trials of one run differ
    def test_noisy_trial_draws_with_the_run_seed_plus_the_trial(self, tmp_path, fixtures_dir,
                                                                 capsys):
        noise = {"kind": "noisy", "wrong_schema_rate": 0.5, "corrects_after_feedback": False}
        rows = {}
        for seed, trials in ((2, 4), (5, 1)):
            config = {"dataset": str(fixtures_dir / "mock_tasks.json"), "trials": trials,
                      "seed": seed, "policy": noise}
            (tmp_path / "config.json").write_text(json.dumps(config))
            out = tmp_path / f"seed-{seed}"
            assert run_cli("run", "--config", str(tmp_path / "config.json"),
                           "--out", str(out)) == 0
            rows[seed] = [json.loads(line)
                          for line in (out / "outcomes.jsonl").read_text().splitlines()]
        capsys.readouterr()
        last = [{**row, "trial": 0} for row in rows[2] if row["trial"] == 3]
        assert last == rows[5]
        trials = {}
        for row in rows[2]:
            trials.setdefault((row["question_id"], row["planner"]), set()).add(
                (row["success"], row["tokens_in"]))
        assert max(map(len, trials.values())) > 1

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

    # `run` keeps each store in cli.STORES for the process, so an FH run after
    # an SH run reuses the store and the tables the SH run built on it
    @pytest.mark.parametrize("config", ["run_kopl_oracle.json", "run_atomic_oracle.json",
                                        "run_mock_noisy.json"])
    def test_a_held_store_changes_no_byte(self, tmp_path, fixtures_dir, monkeypatch, capsys,
                                          config):
        def run(planner, out):
            assert run_cli("run", "--config", str(fixtures_dir / config), "--planner", planner,
                           "--out", str(tmp_path / out)) == 0
            return [(tmp_path / out / name).read_bytes()
                    for name in ("traces.jsonl", "outcomes.jsonl")]

        monkeypatch.setattr(cli, "STORES", tasks.StoreHold())
        fresh = run("fh", "fresh")
        monkeypatch.setattr(cli, "STORES", tasks.StoreHold())
        run("sh", "sh")
        [(engine, held)] = cli.STORES._held.items()
        assert run("fh", "held") == fresh
        assert cli.STORES._held[engine] is held
        assert (cli.STORES.loads, cli.STORES.reuses) == (1, 1)
        capsys.readouterr()

    def test_one_environment_per_run(self, tmp_path, fixtures_dir, monkeypatch, capsys):
        built = []
        init = harness.Environment.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(harness.Environment, "__init__", counting_init)
        assert run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                       "--out", str(tmp_path / "o")) == 0
        assert len(built) == 1  # for 5 tasks x 2 planners x 3 trials
        capsys.readouterr()

    # a repeated SH call costs a call and an invocation but never advances the
    # gold plan, so every task still ends with the gold answer
    def test_sh_repeat_noise_answers_every_task(self, tmp_path, fixtures_dir, capsys):
        config = json.loads((fixtures_dir / "run_kopl_oracle.json").read_text())
        config.update(dataset=str(fixtures_dir / "kopl_tasks.json"),
                      policy={"kind": "noisy", "repeat_rate": 0.5})
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(tmp_path / "config.json"), "--out", str(out),
                       "--planner", "sh") == 0
        capsys.readouterr()
        outcomes = [json.loads(line)
                    for line in (out / "outcomes.jsonl").read_text().splitlines()]
        assert len(outcomes) == 5 * config["trials"]
        assert {row["label"] for row in outcomes} == {"correct"}
        assert sum(row["repeated"] for row in outcomes) / len(outcomes) > 0

    # a policy that raises ends its own trajectory, not the others; the run
    # writes every file, marks the trajectory's outcome and exits 1, and
    # `stats` refuses the outcomes
    @pytest.mark.parametrize("policy,error", [
        (REFUSED_ENDPOINT, "URLError: "),
    ], ids=["refused-endpoint"])
    def test_policy_error_ends_its_trajectory(self, tmp_path, fixtures_dir, capsys, policy,
                                              error):
        config = json.loads((fixtures_dir / "run_kopl_oracle.json").read_text())
        config.update(dataset=str(fixtures_dir / "kopl_tasks.json"), policy=policy)
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(tmp_path / "config.json"), "--out", str(out),
                       "--planner", "sh") == 1
        err = capsys.readouterr().err
        assert re.search(r"^policy error in kopl-\S+-sh-t\d: " + re.escape(error), err, re.M)
        outcomes = [json.loads(line)
                    for line in (out / "outcomes.jsonl").read_text().splitlines()]
        assert len(outcomes) == 5 * config["trials"]
        failed = [n for n, row in enumerate(outcomes, 1) if row["label"] == "policy-error"]
        assert failed and all(outcomes[n - 1]["success"] == 0 for n in failed)
        assert re.search(rf"^runtime failure: {len(failed)} of {len(outcomes)} trajectories "
                         "ended in a policy error$", err, re.M)
        assert (out / "traces.jsonl").exists()
        assert run_cli("stats", str(out)) == 2
        assert capsys.readouterr().err == (f"config error: outcomes.jsonl line {failed[0]}: "
                                           "the policy raised on this trajectory; rerun it\n")

    # a job that raises (here an engine bug) ends its own trajectory as an
    # `error` outcome; the others run, every file is written, the run exits 1
    # and `stats` refuses the outcomes
    @pytest.mark.parametrize("planner", ["sh", "fh"])
    def test_job_error_ends_its_trajectory(self, tmp_path, fixtures_dir, capsys,
                                           monkeypatch, planner):
        def relate(*_args, **_kwargs):
            raise kopl.ContractViolationError("broken engine")

        monkeypatch.setattr(kopl, "relate", relate)
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                       "--out", str(out), "--planner", planner) == 1
        err = capsys.readouterr().err
        outcomes = [json.loads(line)
                    for line in (out / "outcomes.jsonl").read_text().splitlines()]
        assert len(outcomes) == 5 * 3
        failed = [n for n, row in enumerate(outcomes, 1) if row["label"] == "error"]
        # the two tasks whose gold plans call Relate
        assert {outcomes[n - 1]["question_id"] for n in failed} == {"kopl-taller",
                                                                   "kopl-employees"}
        assert len(failed) == 2 * 3
        assert all(outcomes[n - 1]["success"] == 0 for n in failed)
        assert all(row["success"] == 1 for row in outcomes if row["label"] != "error")
        for task_id in ("kopl-taller", "kopl-employees"):
            for trial in range(3):
                run_id = f"{task_id}-{planner}-t{trial}"
                assert f"error in {run_id}: ContractViolationError: broken engine\n" in err
                assert re.search(rf"^traceback of {run_id}:\nTraceback .*?\n"
                                 r"planhorizon\.kopl\.ContractViolationError: broken engine$",
                                 err, re.M | re.S)
        assert re.search(r"^runtime failure: 6 of 15 trajectories ended in an error$",
                         err, re.M)
        assert "policy error" not in err
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "outcomes.jsonl", "traces.jsonl"]
        assert run_cli("stats", str(out)) == 2
        assert capsys.readouterr().err == (f"config error: outcomes.jsonl line {failed[0]}: "
                                           "the run raised on this trajectory; rerun it\n")

    # `run` freezes the loaded store for the run alone: however it exits,
    # nothing is left in the collector's permanent generation
    @pytest.mark.parametrize("change,argv,code", [
        ({}, [], 0),
        ({"policy": REFUSED_ENDPOINT}, ["--planner", "sh"], 1),
        ({"trials": "three"}, [], 2),
        ({}, ["--out", "{tmp}/afile"], 2),
    ], ids=["ok", "policy-raises", "bad-config", "out-file"])
    def test_run_leaves_nothing_frozen(self, tmp_path, fixtures_dir, capsys, change, argv,
                                       code):
        config = json.loads((fixtures_dir / "run_kopl_oracle.json").read_text())
        config.update(dataset=str(fixtures_dir / "kopl_tasks.json"), **change)
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / "afile").write_text("not a directory\n")
        assert gc.get_freeze_count() == 0
        assert run_cli("run", "--config", str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "o"),
                       *[arg.format(tmp=tmp_path) for arg in argv]) == code
        capsys.readouterr()
        assert gc.get_freeze_count() == 0


GOOD_OUTCOME = {"question_id": "q0", "trial": 0, "planner": "sh", "success": 1,
                "depth": 2, "breadth": 1.5}
GOOD_LINE = json.dumps(GOOD_OUTCOME)


class TestStats:
    def test_report_files(self, run_dir, capsys):
        code = run_cli("stats", str(run_dir))
        out = capsys.readouterr().out
        # all-correct outcomes separate perfectly, so the GEE cannot fit;
        # runtime failure is the honest exit here
        assert code == 1
        assert "accuracy" in out
        report = json.loads((run_dir / "report.json").read_text())
        assert report["gee"] == {
            "failed": "divergent coefficients: the outcome is (quasi-)separated"}
        assert not (run_dir / "coefficients.json").exists()

    def test_single_planner_skips_gee(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "solo"
        run_cli("run", "--config", str(fixtures_dir / "run_kopl_oracle.json"),
                "--out", str(out), "--planner", "sh")
        code = run_cli("stats", str(out))
        assert code == 0
        assert "GEE skipped" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["gee"] == {"skipped": "need traces from both planners"}

    def test_missing_dir_is_config_error(self, tmp_path, capsys):
        assert run_cli("stats", str(tmp_path / "ghost")) == 2

    @pytest.mark.parametrize("controls, name", [
        ("foo", "foo"), ("dataset,,last_tool", ""), ("dataset,Dataset", "Dataset"),
    ], ids=["unknown", "empty", "wrong-case"])
    def test_unknown_control_is_config_error(self, run_dir, capsys, controls, name):
        before = sorted(p.name for p in run_dir.iterdir())
        assert run_cli("stats", str(run_dir), "--controls", controls) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown control {name!r}; --controls takes "
            "dataset, last_tool, has_bridge, has_comparison\n")
        assert sorted(p.name for p in run_dir.iterdir()) == before

    @pytest.mark.parametrize("controls", ["dataset,dataset", "last_tool,dataset,last_tool"])
    def test_repeated_control_is_config_error(self, tmp_path, capsys, controls):
        # refused before the run directory is read: it holds no outcomes
        assert run_cli("stats", str(tmp_path), "--controls", controls) == 2
        name = controls.split(",")[0]
        assert capsys.readouterr().err == (
            f"config error: control {name!r} is given twice in --controls\n")
        assert list(tmp_path.iterdir()) == []

    # JSON Lines end at "\n" only: other line breaks may sit in strings, and
    # a "\r" before the "\n" is JSON whitespace
    @pytest.mark.parametrize("mark, newline", [
        ("\u2028", "\n"), ("\u0085", "\n"), ("", "\r\n"),
    ], ids=["line-separator", "next-line", "crlf"])
    def test_lines_end_at_newline_only(self, tmp_path, capsys, mark, newline):
        reports = []
        for name, sep, text in (("plain", "", "\n"), ("marked", mark, newline)):
            rows = [{**GOOD_OUTCOME, "question_id": f"q{sep}{q}", "planner": planner,
                     "success": (q + i) % 2 if q < 3 else 1, "depth": 2 + q % 2}
                    for q in range(6) for i, planner in enumerate(("sh", "fh"))]
            run = tmp_path / name
            run.mkdir()
            (run / "outcomes.jsonl").write_bytes(text.join(
                json.dumps(row, ensure_ascii=False) for row in rows).encode() + b"\n")
            code = run_cli("stats", str(run))
            reports.append((code, capsys.readouterr(), (run / "report.json").read_text()))
        assert reports[0][0] != 2
        assert reports[1] == reports[0]
        # an error names its line by the same split
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "outcomes.jsonl").write_bytes(newline.join(
            [json.dumps({**GOOD_OUTCOME, "question_id": f"q{mark}"}, ensure_ascii=False),
             "", json.dumps({**GOOD_OUTCOME, "success": 2})]).encode())
        assert run_cli("stats", str(bad)) == 2
        assert capsys.readouterr().err == (
            "config error: outcomes.jsonl line 3: success must be 0 or 1, got 2\n")

    # the file is a good line, a blank line, then the bad line(s)
    @pytest.mark.parametrize("bad_lines, message", [
        ([GOOD_LINE[:30]], "Expecting"),
        (["[1, 2]"], "not a JSON object"),
        ([json.dumps({"question_id": "q", "trial": 0})], "missing field 'planner'"),
        ([json.dumps({**GOOD_OUTCOME, "colour": "red"})], "unknown field 'colour'"),
        ([json.dumps({**GOOD_OUTCOME, "trial": 0.5})], "trial must be int, got 0.5"),
        ([json.dumps({**GOOD_OUTCOME, "success": 1.0})], "success must be int, got 1.0"),
        ([json.dumps({**GOOD_OUTCOME, "success": 5})], "success must be 0 or 1, got 5"),
        ([json.dumps({**GOOD_OUTCOME, "success": -1})], "success must be 0 or 1, got -1"),
        ([json.dumps({**GOOD_OUTCOME, "planner": "SH"})],
         "planner must be 'sh' or 'fh', got 'SH'"),
        ([json.dumps({**GOOD_OUTCOME, "planner": "both"})],
         "planner must be 'sh' or 'fh', got 'both'"),
        ([json.dumps({**GOOD_OUTCOME, "depth": "2"})], "depth must be int, got '2'"),
        ([json.dumps({**GOOD_OUTCOME, "tokens_in": 1e3})], "tokens_in must be int"),
        ([json.dumps({**GOOD_OUTCOME, "tokens_out": True})], "tokens_out must be int"),
        ([json.dumps({**GOOD_OUTCOME, "breadth": float("nan")})],
         "breadth must be finite, got nan"),
        ([json.dumps({**GOOD_OUTCOME, "breadth": float("-inf")})],
         "breadth must be finite, got -inf"),
        ([json.dumps({**GOOD_OUTCOME, "breadth": 2**1024})],
         f"breadth must be finite, got {2**1024}"),
        ([json.dumps({**GOOD_OUTCOME, "success": 0, "label": "policy-error"})],
         "the policy raised on this trajectory; rerun it"),
        # lines that decode only when joined: each must still be one object
        ([GOOD_LINE + ", " + GOOD_LINE], "Extra data"),
        ([GOOD_LINE[:-1], '"label": ""}'], "Expecting"),
        ([GOOD_LINE + ", " + GOOD_LINE[:-1], '"label": ""}'], "Extra data"),
    ], ids=["invalid-json", "not-an-object", "missing-field", "unknown-field",
            "float-trial", "float-success", "success-five", "negative-success",
            "upper-case-planner", "third-planner", "string-depth", "float-tokens-in",
            "bool-tokens-out", "nan-breadth", "infinite-breadth", "huge-int-breadth", "policy-error",
            "two-records-on-a-line", "record-over-two-lines",
            "records-split-across-lines"])
    def test_malformed_outcomes_is_config_error(self, tmp_path, capsys, bad_lines,
                                                message):
        (tmp_path / "outcomes.jsonl").write_text(
            "\n".join([GOOD_LINE, "", *bad_lines, GOOD_LINE]) + "\n")
        assert run_cli("stats", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: outcomes.jsonl line 3: "), err
        assert message in err
        assert not (tmp_path / "report.json").exists()

    # design columns that no float holds once standardized: the fit fails
    # cleanly, and no numpy RuntimeWarning escapes (the suite makes them errors)
    @pytest.mark.parametrize("column, values", [
        ("breadth", [1e308, 1.5]),
        ("breadth", [1e308, -1e308]),
        ("depth", [10**400, 2]),
    ], ids=["breadth-mean-overflows", "breadth-spread-overflows", "depth-beyond-float"])
    def test_non_finite_design_column_fails_the_fit(self, tmp_path, capsys, column, values):
        rows = [{**GOOD_OUTCOME, "question_id": f"q{q}", "planner": planner,
                 "success": (q + i) % 2, "depth": 2 + q, column: value}
                for q, value in enumerate(values)
                for i, planner in enumerate(("sh", "fh"))]
        (tmp_path / "outcomes.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows))
        assert run_cli("stats", str(tmp_path)) == 1
        err = capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        message = ("a value lies beyond the float range" if column == "depth"
                   else "column overflows the float range when standardized")
        assert report["gee"] == {"failed": message}
        assert err == f"runtime failure: {message}\n"
        assert not (tmp_path / "coefficients.json").exists()


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

    # the file is a good line, a blank line, then the bad line
    @pytest.mark.parametrize("bad_line, message", [
        ("not json", "Expecting value at column 1"),
        ('{"run_id": "a", ', "Expecting property name enclosed in double quotes at column 17"),
        ("[1, 2]", "not a JSON object"),
        ('{"a": 1}', "missing key 'run_id'"),
    ], ids=["invalid-json", "truncated", "not-an-object", "missing-run-id"])
    def test_malformed_traces_is_config_error(self, run_dir, tmp_path, capsys, bad_line,
                                              message):
        good = (run_dir / "traces.jsonl").read_text().splitlines()[0]
        path = tmp_path / "traces.jsonl"
        path.write_text("\n".join([good, "", bad_line, good]) + "\n")
        for run_id in ((), ("--run-id", "nope")):
            assert run_cli("inspect", str(path), *run_id) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: {path} line 3: {message}\n"
            assert captured.out == ""

    @pytest.mark.parametrize("mark, newline", [
        ("\u2028", "\n"), ("\u0085", "\n"), ("", "\r\n"),
    ], ids=["line-separator", "next-line", "crlf"])
    def test_lines_end_at_newline_only(self, run_dir, tmp_path, capsys, mark, newline):
        lines = [json.loads(line) for line in
                 (run_dir / "traces.jsonl").read_text().splitlines()[:3]]
        run_id = f"kopl{mark}-taller-fh-t0"
        lines[1]["run_id"] = run_id
        path = tmp_path / "traces.jsonl"
        path.write_bytes(newline.join(
            json.dumps(line, ensure_ascii=False) for line in lines).encode() + b"\n")
        assert run_cli("inspect", str(path), "--run-id", run_id) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"[{run_id}] step {lines[1]['step']}: ")
        assert out.count("\n") == 1


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

    def test_missing_data_file(self, tmp_path, fixtures_dir, capsys):
        shutil.copy(fixtures_dir / "kopl_tasks.json", tmp_path / "kopl_tasks.json")
        assert run_cli("validate", str(tmp_path / "kopl_tasks.json")) == 2
        assert "config error: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# A malformed data or task file is a config error, never a crash

# each mutation returns the broken document
def put(*path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


def drop(*path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc
    return mutate


def replace(value):
    return lambda _doc: value


# engine -> (its fixture task file, the data file that task file names)
FIXTURE_FILES = {"kopl": ("kopl_tasks.json", "mini_kb.json"),
                 "atomic": ("atomic_tasks.json", "toy_graph.json"),
                 "mock": ("mock_tasks.json", "corpus.json")}
ATTRIBUTE = ("entities", 0, "attributes", 0)
MALFORMED = [
    # (engine, which file is broken, how, the error load_dataset raises, text it names)
    pytest.param("kopl", "data", put(*ATTRIBUTE, "value", "value", value="tall"),
                 MalformedDocumentError, "entities[0].attributes[0]", id="number-tall"),
    pytest.param("kopl", "data",
                 put(*ATTRIBUTE, "value", value={"kind": "date", "value": 20200101}),
                 MalformedDocumentError, "entities[0].attributes[0]", id="date-int"),
    pytest.param("kopl", "data", put(*ATTRIBUTE, "value", "value", value=None),
                 MalformedDocumentError, "entities[0].attributes[0]", id="number-null"),
    pytest.param("kopl", "data", put(*ATTRIBUTE, "qualifiers", 0, "value", "value", value=[1]),
                 MalformedDocumentError, "entities[0].attributes[0].qualifiers[0]", id="year-list"),
    pytest.param("kopl", "data", drop(*ATTRIBUTE, "key"),
                 MalformedDocumentError, "entities[0].attributes[0]", id="attribute-key"),
    pytest.param("kopl", "data", drop("entities", 1, "relations", 0, "predicate"),
                 MalformedDocumentError, "entities[1].relations[0]", id="relation-predicate"),
    pytest.param("kopl", "data", drop("entities", 1, "relations", 0, "target"),
                 MalformedDocumentError, "entities[1].relations[0]", id="relation-target"),
    pytest.param("atomic", "data", drop("triples", 0, "p"),
                 MalformedDocumentError, "triples[0]", id="triple-p"),
    pytest.param("mock", "data", drop("documents", 1, "title"),
                 MalformedDocumentError, "documents[1]", id="document-title"),
    pytest.param("mock", "data", put("top_k", value="ten"),
                 MalformedDocumentError, "top_k", id="top_k-string"),
    pytest.param("mock", "data", put("top_k", value=True),
                 MalformedDocumentError, "top_k must be an integer >= 1, got True",
                 id="top_k-bool"),
    pytest.param("mock", "data", put("documents", 0, "title", value=["x"]),
                 MalformedDocumentError, "documents[0]: title must be a string, not list",
                 id="document-title-list"),
    pytest.param("mock", "data", put("documents", 0, "text", value=["a"]),
                 MalformedDocumentError, "documents[0]: text must be a string, not list",
                 id="document-text-list"),
    pytest.param("mock", "data",
                 put("documents", 0, "answers", "When was Albert Einstein born?", value=5),
                 MalformedDocumentError, "documents[0]: the answer to 'When was Albert "
                 "Einstein born?' must be a string, not int", id="document-answer-number"),
    pytest.param("mock", "data", put("documents", 0, "answers", value=["Paris"]),
                 MalformedDocumentError, "documents[0]", id="document-answers-list"),
    # a list field that holds something else, in each kind of file
    pytest.param("kopl", "data", put("entities", 0, "attributes", value=5),
                 MalformedDocumentError, "entities[0]: attributes must be a list",
                 id="attributes-number"),
    pytest.param("atomic", "data", put("nodes", value=5),
                 MalformedDocumentError, "nodes must be a list", id="nodes-number"),
    pytest.param("mock", "data", put("documents", value=5),
                 MalformedDocumentError, "documents must be a list", id="documents-number"),
    pytest.param("kopl", "tasks", put("tasks", value=5),
                 MalformedDocumentError, "tasks must be a list", id="tasks-number"),
    pytest.param("atomic", "data", lambda doc: put("nodes", 1, "id",
                                                   value=doc["nodes"][0]["id"])(doc),
                 MalformedDocumentError, "nodes[1]: duplicate node id", id="node-id-repeated"),
    # an id, name, key, predicate or reference that is not a string
    *[pytest.param(engine, "data", put(*path, value=value), MalformedDocumentError, where,
                   id=label)
      for engine, path, value, where, label in (
          ("kopl", ("entities", 0, "id"), ["x"], "entities[0]: id must be a string, not list",
           "entity-id-list"),
          ("kopl", ("entities", 0, "instance_of", 0), {"a": 1},
           "entities[0]: instance_of[0] must be a string, not dict", "instance-of-object"),
          ("kopl", ("concepts", 1, "subclass_of"), [["c"]],
           "concepts[1]: subclass_of[0] must be a string, not list", "subclass-of-list"),
          ("kopl", ("entities", 1, "relations", 0, "target"), {"t": 1},
           "entities[1].relations[0]: target must be a string, not dict", "target-object"),
          ("kopl", (*ATTRIBUTE, "key"), 5,
           "entities[0].attributes[0]: key must be a string, not int", "attribute-key-number"),
          ("atomic", ("triples", 0, "o_node"), ["a"],
           "triples[0]: o_node must be a string, not list", "o-node-list"),
          ("atomic", ("nodes", 0, "name"), ["X"], "nodes[0]: name must be a string, not list",
           "node-name-list"))],
    # a top level that is not an object, in each kind of file
    *[pytest.param(engine, broken, replace(value), MalformedDocumentError,
                   FIXTURE_FILES[engine][broken == "data"],
                   id=f"{FIXTURE_FILES[engine][broken == 'data']}-{label}")
      for engine, broken in (("kopl", "data"), ("atomic", "data"), ("mock", "data"),
                             ("kopl", "tasks"))
      for label, value in (("list", []), ("string", "kb"), ("number", 5), ("null", None))],
    *[pytest.param(engine, "tasks", drop("tasks", 0, key), tasks.DatasetError,
                   "tasks[0] needs id, question, gold_answer and gold_plan",
                   id=f"{engine}-task-{key}")
      for engine in FIXTURE_FILES for key in ("id", "question", "gold_answer", "gold_plan")],
    *[pytest.param(engine, "tasks", drop(data_key), tasks.DatasetError, repr(data_key),
                   id=f"{engine}-task-file-{data_key}")
      for engine, data_key in (("kopl", "kb"), ("atomic", "graph"), ("mock", "corpus"))],
    # a task's controls: an object of match_mode and two booleans
    *[pytest.param("mock", "tasks", put("tasks", 1, "controls", value=controls),
                   tasks.DatasetError, "tasks[1]", id=f"controls-{label}")
      for label, controls in (("list", ["has_bridge"]), ("string", "numeric"),
                              ("unknown-key", {"has_brige": True}),
                              ("match-mode-misspelled", {"match_mode": "numric"}),
                              ("match-mode-entity-id-or-name",
                               {"match_mode": "entity-id-or-name"}),
                              ("match-mode-list", {"match_mode": ["numeric"]}),
                              ("has-bridge-string", {"has_bridge": "yes"}),
                              ("has-comparison-int", {"has_comparison": 1}))],
    # a task's id, gold answer and dataset, and a dataset's eval_year
    pytest.param("mock", "tasks", put("tasks", 0, "gold_answer", value="Paris"),
                 tasks.DatasetError, "tasks[0]", id="gold-answer-string"),
    pytest.param("mock", "tasks", put("tasks", 0, "gold_answer", value=[5]),
                 tasks.DatasetError, "tasks[0]", id="gold-answer-number"),
    pytest.param("mock", "tasks", put("tasks", 0, "gold_answer", value=[]),
                 tasks.DatasetError, "tasks[0]", id="gold-answer-empty"),
    pytest.param("mock", "tasks", put("tasks", 0, "id", value=7),
                 tasks.DatasetError, "tasks[0]", id="id-number"),
    pytest.param("mock", "tasks", lambda doc: put("tasks", 1, "id",
                                                  value=doc["tasks"][0]["id"])(doc),
                 tasks.DatasetError, "tasks[1]", id="id-repeated"),
    pytest.param("mock", "tasks", put("tasks", 0, "dataset", value=3),
                 tasks.DatasetError, "tasks[0]", id="dataset-number"),
    pytest.param("atomic", "tasks", put("eval_year", value="2026"),
                 tasks.DatasetError, "eval_year", id="eval-year-string"),
    pytest.param("atomic", "tasks", put("eval_year", value=True),
                 tasks.DatasetError, "eval_year", id="eval-year-bool"),
    # a dataset's engine is one of the engine names, and a gold plan's final a boolean
    *[pytest.param("kopl", "tasks", put("engine", value=value), tasks.DatasetError,
                   f"engine must be one of kopl, atomic, mock, got {value!r}",
                   id=f"engine-{label}")
      for label, value in (("list", ["kopl"]), ("object", {"a": 1}))],
    pytest.param("mock", "tasks", put("tasks", 0, "gold_plan", 2, "final", value="no"),
                 tasks.DatasetError, "tasks[0] gold plan invalid: step 2: final must be "
                 "true or false", id="gold-plan-final-string"),
    # a task's question is a string
    *[pytest.param("kopl", "tasks", put("tasks", 0, "question", value=value),
                   tasks.DatasetError, "tasks[0]", id=f"question-{label}")
      for label, value in (("number", 5), ("null", None), ("list", ["Who?"]))],
]


@pytest.mark.parametrize("engine,broken,mutate,error,where", MALFORMED)
def test_malformed_file_is_a_config_error(tmp_path, fixtures_dir, capsys, engine, broken,
                                          mutate, error, where):
    task_file, data_file = FIXTURE_FILES[engine]
    for name in FIXTURE_FILES[engine]:
        shutil.copy(fixtures_dir / name, tmp_path / name)
    path = tmp_path / (data_file if broken == "data" else task_file)
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    with pytest.raises(error, match=re.escape(where)):
        tasks.load_dataset(tmp_path / task_file)
    capsys.readouterr()

    assert run_cli("validate", str(path)) == 2
    assert "invalid: " in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": task_file}))
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 2
    assert "config error: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# An input that cannot be read as UTF-8 text is a config error, never a crash

# (subcommand, the file made unreadable, how); "latin-1" writes the file with
# one byte that is not UTF-8
UNREADABLE = [
    pytest.param("run", "config.json", "latin-1", id="run-config"),
    *[pytest.param("run", name, "latin-1", id=f"run-{name}")
      for name in ("kopl_tasks.json", "mini_kb.json", "toy_graph.json", "corpus.json")],
    pytest.param("stats", "outcomes.jsonl", "directory", id="stats-directory"),
    pytest.param("stats", "outcomes.jsonl", "latin-1", id="stats-outcomes"),
    pytest.param("inspect", "traces.jsonl", "directory", id="inspect-directory"),
    pytest.param("inspect", "traces.jsonl", "latin-1", id="inspect-traces"),
]


@pytest.mark.parametrize("command,name,how", UNREADABLE)
def test_unreadable_input_is_config_error(tmp_path, fixtures_dir, capsys, command, name,
                                          how):
    dataset = "kopl_tasks.json"
    for task_file, data_file in FIXTURE_FILES.values():
        for copied in (task_file, data_file):
            shutil.copy(fixtures_dir / copied, tmp_path / copied)
        if name == data_file:
            dataset = task_file
    (tmp_path / "config.json").write_text(json.dumps({"dataset": dataset}))
    (tmp_path / "outcomes.jsonl").write_text(GOOD_LINE + "\n")
    (tmp_path / "traces.jsonl").write_text(json.dumps(
        {"run_id": "r", "step": 0, "tool": "Find", "args": {}, "outcome_kind": "success",
         "tokens_in": 1, "tokens_out": 1}) + "\n")
    path = tmp_path / name
    if how == "directory":
        path.unlink()
        path.mkdir()
    else:  # an "é" saved as Latin-1
        path.write_bytes(path.read_bytes().replace(b'"', b'"\xe9', 1))
    out = tmp_path / "out"
    argv = {"run": ["run", "--config", str(tmp_path / "config.json"), "--out", str(out)],
            "stats": ["stats", str(tmp_path), "--out", str(out)],
            "inspect": ["inspect", str(path)]}[command]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# Input a command cannot use ends as one config error line, before anything is
# printed or written

def _tree(root):
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


# (subcommand line, the path its error names), with {tmp} the test's directory
ONE_EXIT = [
    pytest.param(["run", "--config", "{fixtures}/run_kopl_oracle.json", "--out", "{tmp}/afile"],
                 "{tmp}/afile", id="run-out-file"),
    pytest.param(["stats", "{tmp}/run", "--out", "{tmp}/afile"], "{tmp}/afile",
                 id="stats-out-file"),
    pytest.param(["stats", "{tmp}/empty"], "{tmp}/empty/outcomes.jsonl",
                 id="stats-no-outcomes"),
    pytest.param(["stats", "{tmp}/blank"], "outcomes.jsonl", id="stats-blank-outcomes"),
    pytest.param(["inspect", "{tmp}/traces.jsonl"], "{tmp}/traces.jsonl",
                 id="inspect-missing"),
]


@pytest.mark.parametrize("argv,named", ONE_EXIT)
def test_unusable_input_is_one_config_error(tmp_path, fixtures_dir, capsys, argv, named):
    for name in ("run", "empty", "blank"):
        (tmp_path / name).mkdir()
    (tmp_path / "run" / "outcomes.jsonl").write_text(GOOD_LINE + "\n")
    (tmp_path / "blank" / "outcomes.jsonl").write_text("\n  \n\t\n")
    (tmp_path / "afile").write_text("not a directory\n")
    before = _tree(tmp_path)
    fill = {"tmp": tmp_path, "fixtures": fixtures_dir}
    assert run_cli(*[arg.format(**fill) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert named.format(**fill) in captured.err
    assert _tree(tmp_path) == before


def test_other_errors_are_not_config_errors(run_dir, capsys, monkeypatch):
    def summarize_run(_columns):
        raise RuntimeError("a bug in the summary")

    monkeypatch.setattr(stats, "summarize_run", summarize_run)
    with pytest.raises(RuntimeError, match="a bug in the summary"):
        run_cli("stats", str(run_dir))
    assert "config error" not in capsys.readouterr().err


def test_parser_is_built_once_and_commands_are_looked_up_per_call(fixtures_dir, capsys,
                                                                   monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "planhorizon":
            built.append(self)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run_cli("validate", str(fixtures_dir / "mini_kb.json")) == 0
    # a wrapper installed after the parser is built is the one that runs
    calls = []
    monkeypatch.setattr(cli, "cmd_stats", lambda args: calls.append(args.run_dir) or 0)
    assert run_cli("stats", "some-run") == 0
    assert calls == ["some-run"]
    assert len(built) == 1
    capsys.readouterr()
