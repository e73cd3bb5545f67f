import json
import re
import shutil

import pytest

from planhorizon import cli, harness, kopl, tasks
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

    def test_unknown_policy_kind_is_config_error(self, tmp_path, fixtures_dir, capsys):
        config = json.loads((fixtures_dir / "run_kopl_oracle.json").read_text())
        config.update(dataset=str(fixtures_dir / "kopl_tasks.json"), policy={"kind": "gpt"})
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", str(tmp_path / "config.json"),
                       "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "config error: unknown policy kind 'gpt'\n"
        assert not (tmp_path / "o").exists()

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

    # a policy that raises ends its own trajectory, not the others; the run
    # writes every file, marks the trajectory's outcome and exits 1, and
    # `stats` refuses the outcomes
    @pytest.mark.parametrize("policy,error", [
        ({"kind": "noisy", "repeat_rate": 0.5},
         "PolicyError: gold plan exhausted without a terminal answer"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/chat/completions",
          "timeout": 5}, "URLError: "),
    ], ids=["noisy-repeat", "refused-endpoint"])
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

    # the file is a good line, a blank line, then the bad line(s)
    @pytest.mark.parametrize("bad_lines, message", [
        ([GOOD_LINE[:30]], "Expecting"),
        (["[1, 2]"], "not a JSON object"),
        ([json.dumps({"question_id": "q", "trial": 0})], "missing field 'planner'"),
        ([json.dumps({**GOOD_OUTCOME, "colour": "red"})], "unknown field 'colour'"),
        ([json.dumps({**GOOD_OUTCOME, "trial": 0.5})], "trial must be int, got 0.5"),
        ([json.dumps({**GOOD_OUTCOME, "success": 1.0})], "success must be int, got 1.0"),
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
            "float-trial", "float-success", "string-depth", "float-tokens-in",
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
    pytest.param("mock", "data", put("documents", 0, "answers", value=["Paris"]),
                 MalformedDocumentError, "documents[0]", id="document-answers-list"),
    # a top level that is not an object, in each kind of file
    *[pytest.param(engine, broken, replace(value), MalformedDocumentError,
                   FIXTURE_FILES[engine][broken == "data"],
                   id=f"{FIXTURE_FILES[engine][broken == 'data']}-{label}")
      for engine, broken in (("kopl", "data"), ("atomic", "data"), ("mock", "data"),
                             ("kopl", "tasks"))
      for label, value in (("list", []), ("string", "kb"), ("number", 5), ("null", None))],
    *[pytest.param(engine, "tasks", drop("tasks", 0, key), tasks.DatasetError, "tasks[0]",
                   id=f"{engine}-task-{key}")
      for engine in FIXTURE_FILES for key in ("id", "question", "gold_answer")],
    *[pytest.param(engine, "tasks", drop(data_key), tasks.DatasetError, repr(data_key),
                   id=f"{engine}-task-file-{data_key}")
      for engine, data_key in (("kopl", "kb"), ("atomic", "graph"), ("mock", "corpus"))],
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
