"""Acceptance suite: one test per headline criterion, each printing a single
PASS/FAIL line. Run with -s (or rely on pytest's captured-output report)."""

import functools
import itertools
import json
import random
import string
import time
from fractions import Fraction

import numpy as np
import pytest

from planhorizon import atomic, harness, kopl, mocktools, plans, policies, stats, tasks
from planhorizon.grounding import Grounder, build_index, ground
from planhorizon.kb import read_document
from planhorizon.mocktools import MockCorpus, MockDocument
from planhorizon.outcome import ToolFailure
from planhorizon.plans import ExecutionGraph, breadth, build_dag, depth

import oracles


def report(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: {name}")
                raise
            print(f"PASS: {name}")

        return inner

    return wrap


@report("plan DAG metrics: four-call plan has depth 3 and breadth 4/3 exactly")
def test_fig2_metrics(kopl_dataset):
    start = time.monotonic()
    task = next(t for t in kopl_dataset.tasks if t.id == "kopl-employees")
    graph = build_dag(task.gold_plan)
    assert graph.node_count == 4
    assert graph.edges == frozenset({(0, 3), (1, 2), (2, 3)})
    assert depth(graph) == 3
    assert breadth(graph) == Fraction(4, 3)
    assert time.monotonic() - start < 1.0


@report("golden KB run: height comparison answered identically under SH and FH")
def test_table_1a_golden_run(kopl_dataset):
    start = time.monotonic()
    task = next(t for t in kopl_dataset.tasks if t.id == "kopl-taller")
    for planner, invocations in (("sh", 4), ("fh", 1)):
        env = kopl_dataset.make_env("high")
        policy = policies.oracle_policy(task.gold_plan)
        trace = harness.run_task(task, policy, env, planner)
        assert trace.status == "answered"
        assert trace.answer == "LeBron James Jr."
        assert len(trace.invocations) == invocations
    assert time.monotonic() - start < 1.0


@report("golden graph run: atomic chain compiles to (AND (JOIN ...) ...) and "
        "evaluates to m.02686wj both ways")
def test_table_1b_golden_run(atomic_dataset, fixtures_dir):
    start = time.monotonic()
    store = atomic.load_graph(read_document(fixtures_dir / "toy_graph.json"))
    grounder = Grounder(build_index(store), mode="high")
    task = next(t for t in atomic_dataset.tasks if t.id == "atomic-short-film")
    chain = [{"tool": s.tool, "args": s.args} for s in task.gold_plan.steps]
    expr = oracles.compile_chain(chain)
    text = oracles.serialize_sexpr(expr)
    assert text.startswith("(AND (JOIN ")
    compiled = oracles.eval_sexpr(store, grounder, expr)
    stepwise = oracles.execute_chain(store, grounder, chain)
    assert compiled.ok and stepwise.ok and compiled.value == stepwise.value
    assert compiled.value.ids == ("m.02686wj",)
    assert time.monotonic() - start < 1.0


@report("budgets: 30 tool calls, 8 replans, and 8 format attempts hit exactly")
def test_budgets(kopl_dataset):
    task = kopl_dataset.tasks[0]
    stall = json.dumps([{"tool": "FindAll", "args": {}}])
    fail = json.dumps([{"tool": "Find", "args": {"name": "zzz-unfindable"}}])

    env = kopl_dataset.make_env("high")
    trace = harness.run_sh(task, lambda r: stall, env)
    assert trace.status == "budget-failed" and len(trace.records) == 30

    env = kopl_dataset.make_env("high")
    trace = harness.run_fh(task, lambda r: fail, env)
    assert trace.status == "replan-budget-failed" and trace.replans == 8
    assert len(trace.invocations) == 9

    env = kopl_dataset.make_env("high")
    trace = harness.run_fh(task, lambda r: "not a plan", env)
    assert trace.status == "format-failed" and len(trace.invocations) == 8


@report("robustness dominance: low-mode solutions survive in high mode; the "
        "imprecise attribute key soft-matches high and fails low")
def test_robustness_dominance(kopl_dataset, atomic_dataset, mock_dataset,
                              fixtures_dir):
    answers = {"high": {}, "low": {}}
    for robustness in ("high", "low"):
        for dataset in (kopl_dataset, atomic_dataset, mock_dataset):
            for task in dataset.tasks:
                env = dataset.make_env(robustness)
                policy = policies.oracle_policy(task.gold_plan)
                trace = harness.run_task(task, policy, env, "fh")
                if trace.status == "answered":
                    answers[robustness][task.id] = trace.answer
    for task_id, low_answer in answers["low"].items():
        assert answers["high"].get(task_id) == low_answer
    assert len(answers["high"]) > len(answers["low"])  # high strictly dominates here

    from planhorizon.kb import load_kb
    index = build_index(load_kb(read_document(fixtures_dir / "mini_kb.json")))
    high = ground(index, "employees", "attribute-key", "high")
    assert high.status == "soft-matched" and high.matched_term == "employee_counts"
    low = ground(index, "employees", "attribute-key", "low")
    assert low.status == "failed" and low.candidates


@report("recall monotonicity over 1,000 random corpora; constructed rank-3 "
        "case fails at top-1 and succeeds at top-10")
def test_recall_monotonicity(fixtures_dir):
    rng = random.Random(4242)
    for _ in range(1000):
        docs = []
        for i in range(rng.randint(1, 5)):
            words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 7)))
                     for _ in range(rng.randint(1, 5))]
            answers = {" ".join(words): f"a{i}"} if rng.random() < 0.8 else {}
            docs.append(MockDocument(f"d{i} {words[0]}", " ".join(words), answers))
        corpus = MockCorpus(documents=tuple(docs))
        pool = [q for d in corpus.documents for q in d.answers]
        question = rng.choice(pool) if pool else "unanswerable"
        previous = False
        for k in range(1, len(docs) + 2):
            ok = oracles.outcome_of(mocktools.mock_search, corpus, question, k).ok
            assert ok or not previous
            previous = ok

    corpus = mocktools.load_corpus(read_document(fixtures_dir / "corpus.json"))
    q = "When was the Great Wall of China built?"
    ranked = [d.title for d in oracles.rank_documents(corpus, q)]
    assert ranked.index("Ming fortification records") == 2
    with pytest.raises(ToolFailure):
        mocktools.mock_search(corpus, q, 1)
    assert mocktools.mock_search(corpus, q, 10) == "7th century BC"


@report("repetition detector: repeat-rate-1 noisy traces all flagged, oracle "
        "traces never flagged")
def test_repetition_detector(kopl_dataset, atomic_dataset, mock_dataset):
    multi_step = [
        (dataset, task)
        for dataset in (kopl_dataset, atomic_dataset, mock_dataset)
        for task in dataset.tasks
        if len(task.gold_plan.steps) >= 2
    ]
    flagged = []
    for dataset, task in multi_step:
        env = dataset.make_env("high")
        noise = policies.NoiseModel(repeat_rate=1.0, corrects_after_feedback=False)
        policy = policies.noisy_policy(task.gold_plan, noise, env.params, 13)
        trace = harness.run_task(task, policy, env, "sh")
        flagged.append(plans.detect_repetition(trace))
    assert all(flagged) and len(flagged) >= 8  # 100% of repeat-rate-1 traces

    # gold plans without intrinsically duplicated calls stay clean
    for dataset, task in multi_step:
        if task.id == "kopl-taller":
            continue  # its gold plan legitimately repeats a Find call
        for planner in ("sh", "fh"):
            env = dataset.make_env("high")
            trace = harness.run_task(
                task, policies.oracle_policy(task.gold_plan), env, planner)
            assert trace.status == "answered"
            assert not plans.detect_repetition(trace)


def _synthetic_mock_suite(n_tasks=20):
    docs, task_list = [], []
    params = mocktools.MockEngine.params
    for i in range(n_tasks):
        qa = f"what is reading a of probe {i}"
        qb = f"what is reading b of probe {i}"
        docs.append(MockDocument(f"probe {i} alpha", qa, {qa: str(100 + i)}))
        docs.append(MockDocument(f"probe {i} beta", qb, {qb: str(200 + i)}))
        plan = plans.parse_plan(json.dumps([
            {"tool": "search", "args": {"question": qa}},
            {"tool": "search", "args": {"question": qb}},
            {"tool": "reasoning", "args": {"instruction": "compare($0, $1, larger)"},
             "final": True},
        ]), params)
        task_list.append(tasks.Task(
            id=f"syn-{i}", question=f"Which reading of probe {i} is larger?",
            gold_plan=plan, gold_answer=(str(200 + i),)))
    corpus = MockCorpus(documents=tuple(docs))
    return corpus, task_list


@report("token accounting: SH prompt-token totals exceed FH on every "
        "multi-step task")
def test_token_accounting():
    corpus, task_list = _synthetic_mock_suite(20)
    assert len(task_list) >= 20
    for task in task_list:
        totals = {}
        for planner in ("sh", "fh"):
            env = mocktools.MockEngine(corpus, "high")
            policy = policies.oracle_policy(task.gold_plan)
            trace = harness.run_task(task, policy, env, planner)
            assert trace.status == "answered"
            assert all(rec.ok for rec in trace.records)  # no-failure runs
            totals[planner], _ = harness.account_tokens(trace)
        assert totals["sh"] > totals["fh"]


@report("GEE fidelity: Newton-oracle agreement, 3-SE recovery across seeds, "
        "z-invariance under rescaling")
def test_gee_fidelity():
    start = time.monotonic()

    def newton(X, y):
        beta = np.zeros(X.shape[1])
        for _ in range(200):
            mu = 1 / (1 + np.exp(-X @ beta))
            step = np.linalg.solve(X.T @ np.diag(mu * (1 - mu)) @ X, X.T @ (y - mu))
            beta += step
            if np.abs(step).max() < 1e-12:
                break
        return beta

    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(6, 13))
        X = np.column_stack([np.ones(n), rng.integers(0, 2, n).astype(float)])
        y = rng.integers(0, 2, n).astype(float)
        if len(set(y)) < 2 or np.linalg.matrix_rank(X) < 2:
            continue
        try:
            fit = stats.fit_clustered_logit(X, y, list(range(n)))
        except stats.SeparationError:
            continue
        if not fit.converged:
            continue  # quasi-separated draw: no finite maximum to compare at
        assert np.abs(fit.beta - newton(X, y)).max() < 1e-6

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, n_clusters = 2000, 500
        clusters = np.repeat(np.arange(n_clusters), n // n_clusters)
        effect = rng.normal(0, 0.3, n_clusters)[clusters]
        x = rng.normal(size=n)
        p = 1 / (1 + np.exp(-(0.5 - 0.4 * x + effect)))
        y = (rng.random(n) < p).astype(float)
        fit = stats.fit_clustered_logit(np.column_stack([np.ones(n), x]), y,
                                        list(clusters))
        if abs(fit.beta[1] - (-0.4)) < 3 * fit.se[1]:
            hits += 1
    assert hits >= 95

    rng = np.random.default_rng(77)
    X = np.column_stack([np.ones(80), rng.normal(size=80)])
    y = (rng.random(80) < 1 / (1 + np.exp(-(0.2 + 0.6 * X[:, 1])))).astype(float)
    clusters = [i // 4 for i in range(80)]
    fit = stats.fit_clustered_logit(X, y, clusters)
    X2 = X.copy()
    X2[:, 1] *= 12.5
    fit2 = stats.fit_clustered_logit(X2, y, clusters)
    assert abs(fit2.z[1] - fit.z[1]) < 1e-8
    assert time.monotonic() - start < 30.0


@report("information parity: every replan sees the exact history an SH "
        "invocation would see at that point")
def test_information_parity(kopl_dataset):
    replan_events = 0
    for seed in range(125):
        for task in kopl_dataset.tasks:
            noise = policies.NoiseModel(wrong_schema_rate=0.8, corrects_after_feedback=True)
            env = kopl_dataset.make_env("low")
            inner = policies.noisy_policy(task.gold_plan, noise, env.params, seed)
            captured = []

            def policy(request, inner=inner, captured=captured):
                if request.mode == "fh-replan":
                    captured.append(request.history)
                return inner(request)

            trace = harness.run_fh(task, policy, env)
            for history in captured:
                replan_events += 1
                # rebuild what an SH policy invocation would receive after the
                # same executed prefix, and compare element-wise
                expected = harness.render_history(trace.records[:len(history)])
                assert len(history) == len(expected)
                for got, want in zip(history, expected):
                    assert got == want
    assert replan_events >= 500


@report("depth/breadth oracle: 10,000 random DAGs match exhaustive "
        "longest-path enumeration with d*b = |V|")
def test_depth_breadth_oracle():
    def brute_force(n, edges):
        succ = {i: [] for i in range(n)}
        for j, i in edges:
            succ[j].append(i)
        best = 0

        def walk(node, length):
            nonlocal best
            best = max(best, length)
            for nxt in succ[node]:
                walk(nxt, length + 1)

        for start in range(n):
            walk(start, 1)
        return best

    rng = random.Random(31337)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        edges = frozenset((j, i) for j, i in itertools.combinations(range(n), 2)
                          if rng.random() < rng.random())
        graph = ExecutionGraph(labels=tuple(range(n)), edges=edges)
        d = depth(graph)
        assert d == brute_force(n, edges)
        assert d * breadth(graph) == n
