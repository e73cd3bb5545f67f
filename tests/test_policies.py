import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from planhorizon import cli, harness, plans, policies

import oracles
from planhorizon.policies import (NoiseModel, RemotePolicyConfig, build_plan_schema,
                                  build_policy, corrupt_term, noisy_policy,
                                  oracle_policy, remote_llm_policy)


@pytest.fixture()
def taller_task(kopl_dataset):
    return next(t for t in kopl_dataset.tasks if t.id == "kopl-taller")


class TestOraclePolicy:
    def test_fh_emits_full_plan(self, kopl_dataset, taller_task):
        env = kopl_dataset.make_env("high")
        request = harness.PolicyRequest(
            mode="fh-initial", history=[],
            system_prompt="", user_prompt="")
        steps = json.loads(oracle_policy(taller_task.gold_plan)(request))
        assert len(steps) == 4
        assert steps[-1]["final"] is True
        assert steps[3]["args"]["left"] == "$2"

    def test_sh_emits_one_step_at_a_time(self, kopl_dataset, taller_task):
        env = kopl_dataset.make_env("high")
        policy = oracle_policy(taller_task.gold_plan)
        trace = harness.run_sh(taller_task, policy, env)
        assert trace.status == "answered"
        assert [rec.call.tool for rec in trace.records] == [
            "Find", "Relate", "Find", "SelectBetween"]

    def test_all_fixture_tasks_solved_both_ways(self, kopl_dataset, atomic_dataset,
                                                mock_dataset):
        for dataset in (kopl_dataset, atomic_dataset, mock_dataset):
            for task in dataset.tasks:
                for planner in ("sh", "fh"):
                    env = dataset.make_env("high")
                    trace = harness.run_task(
                        task, oracle_policy(task.gold_plan), env, planner)
                    assert trace.status == "answered", (task.id, planner)

    @pytest.mark.parametrize("planner", ["sh", "fh"])
    def test_takeover_after_failed_step_remaps_inline_references(self, mock_dataset,
                                                                 planner):
        # the first search fails, so the gold steps $0, $1 land at steps 1, 2
        # and the reasoning instruction must name those, not the failed $0
        task = next(t for t in mock_dataset.tasks if t.id == "mock-birth-years")
        oracle = oracle_policy(task.gold_plan)
        bad_search = {"tool": "search", "args": {"question": "When was Nobody born?"}}

        def policy(request):
            if request.history:
                return oracle(request)
            steps = json.loads(oracle(request))
            return json.dumps([bad_search] + steps[1:] if planner == "fh"
                              else [bad_search])

        env = mock_dataset.make_env("high")
        trace = harness.run_task(task, policy, env, planner)
        assert trace.status == "answered"
        assert trace.answer == "1643"
        assert trace.records[-1].call.args["instruction"] == "compare($1, $2, earlier)"


class TestNoiseModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(repeat_rate=1.5)

    def test_corrupt_term(self):
        assert corrupt_term("employee_counts") == "employees"
        assert corrupt_term("height") == "heigh"
        assert corrupt_term("abc") == "abcx"


class TestNoisyPolicy:
    def test_zero_noise_equals_oracle(self, kopl_dataset, taller_task):
        noise = NoiseModel()
        env = kopl_dataset.make_env("high")
        noisy = noisy_policy(taller_task.gold_plan, noise, env.params, 1)
        trace = harness.run_task(taller_task, noisy, env, "fh")
        assert trace.status == "answered" and trace.replans == 0

    def test_seeded_determinism(self, kopl_dataset, taller_task):
        noise = NoiseModel(wrong_schema_rate=0.5)
        logs = []
        for _ in range(2):
            env = kopl_dataset.make_env("high")
            noisy = noisy_policy(taller_task.gold_plan, noise, env.params, 11)
            logs.append(harness.run_task(taller_task, noisy, env, "fh").log_lines())
        assert logs[0] == logs[1]

    def test_corrects_after_feedback_single_replan(self, kopl_dataset):
        task = next(t for t in kopl_dataset.tasks if t.id == "kopl-employees")
        for seed in range(30):
            noise = NoiseModel(wrong_schema_rate=1.0, corrects_after_feedback=True)
            env = kopl_dataset.make_env("high")
            noisy = noisy_policy(task.gold_plan, noise, env.params, seed)
            trace = harness.run_task(task, noisy, env, "fh")
            # a schema corruption may still soft-match; when it fails instead,
            # one clean replan finishes the task
            assert trace.status == "answered"
            assert trace.replans <= 1

    def test_repeat_rate_one_repeats_forever(self, kopl_dataset, taller_task):
        noise = NoiseModel(repeat_rate=1.0, corrects_after_feedback=False)
        env = kopl_dataset.make_env("high")
        noisy = noisy_policy(taller_task.gold_plan, noise, env.params, 3)
        trace = harness.run_task(taller_task, noisy, env, "sh")
        assert trace.status == "budget-failed"
        assert plans.detect_repetition(trace)

    def test_reused_policy_starts_each_trajectory_afresh(self, kopl_dataset, taller_task):
        # an FH run leaves gold indices at steps 0-3; the SH run on the same
        # policy object repeats at some of those steps and must not take them
        # for gold steps done
        noise = NoiseModel(repeat_rate=0.5)
        env = kopl_dataset.make_env("high")
        reused = noisy_policy(taller_task.gold_plan, noise, env.params, 1)
        assert harness.run_task(taller_task, reused, env, "fh").status == "answered"
        fresh = noisy_policy(taller_task.gold_plan, noise, env.params, 1)
        traces = [harness.run_task(taller_task, policy, env, "sh") for policy in (reused, fresh)]
        assert traces[0].log_lines() == traces[1].log_lines()
        assert traces[0].status == "answered" and plans.detect_repetition(traces[0])


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted plan and `status`; it has no
    do_GET, so a GET gets 501."""

    replies = []  # not "responses": that name is the base class status table
    requests_seen = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        plan = type(self).replies[min(len(type(self).requests_seen) - 1,
                                      len(type(self).replies) - 1)]
        payload = {"choices": [{"message": {"content": plan}}]}
        raw = json.dumps(payload).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.replies = []
    _StubHandler.requests_seen = []
    _StubHandler.status = 200
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestRemotePolicy:
    def test_round_trip_through_stub(self, stub_server, kopl_dataset, taller_task):
        gold = json.dumps([oracles.to_json(step) for step in taller_task.gold_plan.steps])
        _StubHandler.replies = [gold]
        env = kopl_dataset.make_env("high")
        policy = remote_llm_policy(RemotePolicyConfig(endpoint=stub_server),
                                   env.params)
        trace = harness.run_fh(taller_task, policy, env)
        assert trace.status == "answered"
        assert trace.answer == "LeBron James Jr."
        body = _StubHandler.requests_seen[0]
        assert body["response_format"]["type"] == "json_schema"
        assert body["messages"][0]["role"] == "system"

    def test_error_messages_become_user_turns(self, stub_server, kopl_dataset,
                                              taller_task):
        gold = json.dumps([oracles.to_json(step) for step in taller_task.gold_plan.steps])
        _StubHandler.replies = ["still not json", gold]
        env = kopl_dataset.make_env("high")
        policy = remote_llm_policy(RemotePolicyConfig(endpoint=stub_server),
                                   env.params)
        trace = harness.run_fh(taller_task, policy, env)
        assert trace.status == "answered"
        assert trace.format_retries == 1
        second = _StubHandler.requests_seen[1]
        assert second["messages"][-1]["content"] == harness.INVALID_FORMAT_MESSAGE

    # a chat endpoint answers "content": null when its message carries tool
    # calls or a refusal: every trajectory ends as a policy error, and the
    # run exits 1 without a traceback
    def test_null_content_is_a_policy_error(self, stub_server, fixtures_dir, tmp_path,
                                            capsys):
        _StubHandler.replies = [None]
        config = {"dataset": str(fixtures_dir / "kopl_tasks.json"), "trials": 1,
                  "policy": {"kind": "remote", "endpoint": stub_server, "timeout": 5}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(tmp_path / "config.json"),
                         "--out", str(out), "--planner", "sh"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(re.findall(r"^policy error in kopl-\S+-sh-t0: the policy returned "
                              r"NoneType, not str$", err, re.M)) == 5
        lines = (out / "outcomes.jsonl").read_text().splitlines()
        assert [json.loads(line)["label"] for line in lines] == ["policy-error"] * 5

    def test_startup_check_raises_when_unreachable(self):
        cfg = RemotePolicyConfig(endpoint="http://127.0.0.1:9/v1/chat/completions",
                                 timeout=0.2, startup_check=True)
        with pytest.raises(policies.PolicyError):
            policies.startup_check(cfg)

    def test_startup_check_accepts_any_http_answer(self, stub_server):
        cfg = RemotePolicyConfig(endpoint=stub_server, timeout=5.0, startup_check=True)
        policies.startup_check(cfg)  # the stub answers the GET with 501

    def test_error_status_raises(self, stub_server):
        _StubHandler.replies = ["[]"]
        _StubHandler.status = 500
        policy = remote_llm_policy(RemotePolicyConfig(endpoint=stub_server, timeout=5.0),
                                   {})
        request = harness.PolicyRequest(mode="fh-initial", history=[],
                                        system_prompt="s", user_prompt="u")
        with pytest.raises(OSError):  # an HTTP error status
            policy(request)
        assert len(_StubHandler.requests_seen) == 1


class TestPlanSchema:
    def test_restricts_tools_and_params(self, kopl_dataset):
        schema = build_plan_schema(kopl_dataset.make_env("high").params)
        variants = schema["json_schema"]["schema"]["items"]["anyOf"]
        assert len(variants) == 27
        find = next(v for v in variants if v["properties"]["tool"]["const"] == "Find")
        assert set(find["properties"]["args"]["properties"]) == {"name"}


class TestBuildPolicy:
    def test_kinds(self, kopl_dataset, taller_task):
        params = kopl_dataset.make_env("high").params
        assert callable(build_policy({"kind": "oracle"}, taller_task, params, 0))
        assert callable(build_policy({"kind": "noisy", "repeat_rate": 0.5},
                                     taller_task, params, 0))
        with pytest.raises(policies.PolicyError):
            build_policy({"kind": "psychic"}, taller_task, params, 0)

    def test_spec_is_read_into_its_settings(self):
        assert policies.parse_spec({"kind": "oracle"}) is None
        with pytest.raises(policies.PolicyError, match="unknown oracle policy key 'note'"):
            policies.parse_spec({"kind": "oracle", "note": 1})
        assert policies.parse_spec({"kind": "noisy", "repeat_rate": 1}) == NoiseModel(
            repeat_rate=1)
        with pytest.raises(policies.PolicyError, match="unknown noisy policy key 'seed'"):
            policies.parse_spec({"kind": "noisy", "seed": 4})
        assert policies.parse_spec({"kind": "remote", "endpoint": "http://x", "timeout": 2}) == (
            RemotePolicyConfig(endpoint="http://x", timeout=2))

    def test_bad_spec_fails_every_job_the_same_way(self, kopl_dataset, taller_task):
        params = kopl_dataset.make_env("high").params
        spec = {"kind": "noisy", "wrong_reference_rate": -0.5}
        with pytest.raises(policies.PolicyError) as parsed:
            policies.parse_spec(spec)
        with pytest.raises(policies.PolicyError) as built:
            build_policy(spec, taller_task, params, 0)
        assert str(parsed.value) == str(built.value) == (
            "policy wrong_reference_rate must lie in [0, 1], got -0.5")
