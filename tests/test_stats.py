import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import stats
from planhorizon.stats import (Outcome, build_design, fit_clustered_logit,
                               match_answer, outcome_columns, standardize,
                               summarize_run)

import oracles
from oracles import model_based_covariance


def newton_logit_oracle(X, y, tol=1e-12, max_iter=200):
    """Dense Newton maximum-likelihood fit, written independently of stats.py."""
    X, y = np.asarray(X, float), np.asarray(y, float)
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        mu = 1 / (1 + np.exp(-X @ beta))
        grad = X.T @ (y - mu)
        hess = X.T @ np.diag(mu * (1 - mu)) @ X
        step = np.linalg.solve(hess, grad)
        beta += step
        if np.abs(step).max() < tol:
            break
    return beta


class TestMatchAnswer:
    def test_exact(self):
        assert match_answer("Paris", ["Paris"]) == "correct"

    def test_case_and_filler_insensitive(self):
        assert match_answer("The answer is PARIS.", ["Paris"]) == "correct"

    def test_id_or_name_gold(self):
        gold = ["m.02686wj (He's a Bully, Charlie Brown)"]
        assert match_answer("m.02686wj", gold) == "correct"
        assert match_answer("He's a Bully, Charlie Brown", gold) == "correct"
        assert match_answer("Twilight", gold) == "incorrect"

    def test_partial_when_some_gold_missing(self):
        assert match_answer("Paris", ["Paris", "Rome"]) == "partially_correct"

    def test_partial_when_extra_values_listed(self):
        assert match_answer("Paris, Berlin", ["Paris"]) == "partially_correct"

    def test_refusal(self):
        assert match_answer("", ["Paris"]) == "refusal"
        assert match_answer("I don't know", ["Paris"]) == "refusal"

    def test_numeric_mode(self):
        assert match_answer("180,000", ["180000"], mode="numeric") == "correct"
        assert match_answer("206.0", ["206"], mode="numeric") == "correct"

    def test_idempotent_and_permutation_invariant(self):
        gold = ["Paris", "Rome"]
        label = match_answer("Rome and Paris", gold)
        assert label == match_answer("Rome and Paris", list(reversed(gold)))
        assert label == "correct"


class TestStandardize:
    def test_population_sd(self):
        z = standardize([1.0, 2.0, 3.0, 4.0])
        assert np.mean(z) == pytest.approx(0.0)
        # population sd of 1..4 is sqrt(1.25)
        assert z[0] == pytest.approx(-1.5 / math.sqrt(1.25))

    def test_constant_column_rejected(self):
        with pytest.raises(stats.DegenerateFeatureError):
            standardize([5.0, 5.0, 5.0])

    # no RuntimeWarning may escape either: the suite turns them into errors
    @pytest.mark.parametrize("values", [
        [1e308, 1.5], [1e308, -1e308], [10**400, 2], [float("inf"), 1.0],
        [float("nan"), 1.0],
    ], ids=["mean-overflows", "spread-overflows", "int-beyond-float", "inf", "nan"])
    def test_non_finite_scores_rejected(self, values):
        with pytest.raises(stats.DegenerateFeatureError):
            standardize(values)


class TestFitClusteredLogit:
    def test_matches_newton_oracle_small(self):
        X = np.column_stack([np.ones(10), [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]])
        y = np.array([0, 0, 1, 0, 1, 1, 1, 0, 1, 1], float)
        fit = fit_clustered_logit(X, y, clusters=list(range(10)))
        oracle = newton_logit_oracle(X, y)
        assert np.abs(fit.beta - oracle).max() < 1e-6
        assert fit.converged

    def test_matches_scipy_optimizer(self):
        from scipy.optimize import minimize
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        y = (rng.random(12) < 0.5).astype(float)

        def nll(beta):
            eta = X @ beta
            return float(np.sum(np.log1p(np.exp(eta)) - y * eta))

        best = minimize(nll, np.zeros(2), method="BFGS", tol=1e-12)
        fit = fit_clustered_logit(X, y, clusters=list(range(12)))
        assert np.abs(fit.beta - best.x).max() < 1e-5

    def test_balanced_outcome_gives_zero_slope(self):
        # y is a coin flip independent of x, perfectly balanced within levels
        X = np.column_stack([np.ones(8), [0, 0, 0, 0, 1, 1, 1, 1]])
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1], float)
        fit = fit_clustered_logit(X, y, clusters=list(range(8)))
        assert abs(fit.beta[1]) < 1e-6

    def test_sandwich_equals_model_based_for_saturated_singletons(self):
        """With singleton clusters and a saturated model, the bread and meat
        cancel and the sandwich reduces to the inverse Fisher information."""
        X = np.column_stack([np.ones(12), [0.0] * 6 + [1.0] * 6])
        y = np.array([0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1], float)
        fit = fit_clustered_logit(X, y, clusters=list(range(12)))
        model = model_based_covariance(X, fit.beta)
        assert np.abs(fit.cov - model).max() < 1e-8

    def test_z_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        latent = 0.3 + 0.8 * X[:, 1]
        y = (rng.random(60) < 1 / (1 + np.exp(-latent))).astype(float)
        clusters = [i // 3 for i in range(60)]
        fit = fit_clustered_logit(X, y, clusters)
        X2 = X.copy()
        X2[:, 1] *= 40.0
        fit2 = fit_clustered_logit(X2, y, clusters)
        assert fit2.beta[1] == pytest.approx(fit.beta[1] / 40.0, abs=1e-8)
        assert fit2.z[1] == pytest.approx(fit.z[1], abs=1e-8)

    def test_synthetic_recovery_within_three_se(self):
        rng = np.random.default_rng(123)
        n, n_clusters = 2000, 500
        clusters = np.repeat(np.arange(n_clusters), n // n_clusters)
        cluster_effect = rng.normal(0, 0.3, n_clusters)[clusters]
        x = rng.normal(size=n)
        beta0, beta_d = 0.5, -0.4
        p = 1 / (1 + np.exp(-(beta0 + beta_d * x + cluster_effect)))
        y = (rng.random(n) < p).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = fit_clustered_logit(X, y, list(clusters))
        assert abs(fit.beta[1] - beta_d) < 3 * fit.se[1]
        assert fit.n_clusters == n_clusters

    def test_rank_deficiency_surfaced(self):
        X = np.column_stack([np.ones(8), [1.0] * 8])
        y = np.array([0, 1] * 4, float)
        with pytest.raises(stats.RankDeficiencyError):
            fit_clustered_logit(X, y, list(range(8)))

    def test_separation_surfaced(self):
        X = np.column_stack([np.ones(8), [0, 0, 0, 0, 1, 1, 1, 1]])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1], float)
        with pytest.raises(stats.SeparationError):
            fit_clustered_logit(X, y, list(range(8)))

    # IRLS used to run out its 100 steps here and report the diverged
    # coefficients (intercept -101 for all failures) as a fit
    @pytest.mark.parametrize("y", [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1]],
                             ids=["all-failures", "one-row-all-successes"])
    def test_saturated_fit_is_separation(self, y):
        X = np.column_stack([np.ones(5), [-2, -2, -2, -2, -1]])
        with pytest.raises(stats.SeparationError):
            fit_clustered_logit(X, np.array(y, float), list(range(5)))

    def test_variance_zero_up_to_rounding_is_zero(self):
        # the rows at x = 0 all lie in cluster 0 and the model is saturated,
        # so their residuals cancel and no cluster score moves the intercept
        X = np.column_stack([np.ones(5), [0, 0, 0, -2, -2]])
        y = np.array([0, 0, 1, 1, 0], float)
        fit = fit_clustered_logit(X, y, [0, 0, 0, 0, 1])
        assert (fit.se[0], fit.z[0], fit.p[0]) == (0.0, 0.0, 1.0)
        assert fit.se[1] > 0 and not fit.cov[0].any() and not fit.cov[:, 0].any()

    def test_non_finite_design_rejected(self):
        X = np.column_stack([np.ones(8), [0, 1, 2, 3, 4, 5, 6, np.inf]])
        with pytest.raises(stats.DegenerateFeatureError):
            fit_clustered_logit(X, np.array([0, 1] * 4, float), list(range(8)))

    def test_cells_count_distinct_cluster_rows(self):
        X = np.column_stack([np.ones(8), [0, 1, 0, 1, 1, 1, 0, 0]])
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1], float)
        fit = fit_clustered_logit(X, y, ["a", "a", "a", "a", "b", "b", "b", "c"])
        assert (fit.n_obs, fit.n_clusters, fit.n_cells) == (8, 3, 5)

    def test_p_values_two_sided_normal(self):
        X = np.column_stack([np.ones(40), [0, 1] * 20])
        rng = np.random.default_rng(2)
        y = (rng.random(40) < 0.5).astype(float)
        fit = fit_clustered_logit(X, y, list(range(40)))
        for zi, pi in zip(fit.z, fit.p):
            assert pi == pytest.approx(2 * 0.5 * math.erfc(abs(zi) / math.sqrt(2)))


def make_outcome(i, planner, success, **kw):
    defaults = dict(question_id=f"q{i}", trial=0, planner=planner, success=success,
                    depth=2 + i % 3, breadth=1.0 + (i % 2) / 2, tokens_in=100,
                    tokens_out=10)
    defaults.update(kw)
    return Outcome(**defaults)


def columns(outcomes):
    return outcome_columns([dataclasses.asdict(o) for o in outcomes])


class TestBuildDesign:
    def outcomes(self):
        return [make_outcome(i, "sh" if i % 2 else "fh", i % 2, last_tool="Find" if i < 4 else "Count")
                for i in range(8)]

    def test_columns(self):
        X, y, clusters, names = build_design(columns(self.outcomes()))
        assert names == ["intercept", "depth", "breadth", "sh", "depth:sh", "breadth:sh"]
        assert X.shape == (8, 6)
        assert list(y) == [0, 1] * 4

    def test_control_dummies_drop_reference_level(self):
        X, y, clusters, names = build_design(columns(self.outcomes()),
                                             controls=("last_tool",))
        assert names[-1] == "last_tool[Find]"  # "Count" is the reference level

    def test_unknown_control_rejected(self):
        with pytest.raises(stats.StatsError):
            build_design(columns(self.outcomes()), controls=("favorite_color",))


class TestSummarizeRun:
    def test_single_correct_fh_record(self):
        report = summarize_run(columns([make_outcome(0, "fh", 1)]))
        assert report.accuracy[("fixture", "fh")] == Fraction(1)

    def test_identical_planners_delta_zero(self):
        outcomes = [make_outcome(i, p, 1) for i in range(3) for p in ("sh", "fh")]
        report = summarize_run(columns(outcomes))
        assert report.delta_sh["fixture"] == 0
        assert report.input_ratio["fixture"] == 1

    def test_hand_computed_mixed_fixture(self):
        outcomes = [
            make_outcome(0, "sh", 1, tokens_in=300, tokens_out=30),
            make_outcome(1, "sh", 1, tokens_in=500, tokens_out=50),
            make_outcome(2, "sh", 0, tokens_in=400, tokens_out=40, repeated=True),
            make_outcome(0, "fh", 1, tokens_in=100, tokens_out=30),
            make_outcome(1, "fh", 0, tokens_in=200, tokens_out=50),
            make_outcome(2, "fh", 0, tokens_in=300, tokens_out=40),
        ]
        report = summarize_run(columns(outcomes))
        assert report.accuracy[("fixture", "sh")] == Fraction(2, 3)
        assert report.accuracy[("fixture", "fh")] == Fraction(1, 3)
        assert report.delta_sh["fixture"] == Fraction(1, 3)
        assert report.tokens_in[("fixture", "sh")] == Fraction(400)
        assert report.input_ratio["fixture"] == Fraction(400, 200)
        assert report.output_ratio["fixture"] == Fraction(1)
        assert report.repetition[("fixture", "sh")] == Fraction(1, 3)
        assert report.repetition[("fixture", "fh")] == Fraction(0)

    def test_exact_rational_accuracy(self):
        outcomes = [make_outcome(i, "sh", 1 if i < 1 else 0) for i in range(3)]
        report = summarize_run(columns(outcomes))
        assert report.accuracy[("fixture", "sh")] == Fraction(1, 3)  # not 0.333...

    def test_empty_rejected(self):
        with pytest.raises(stats.StatsError):
            summarize_run(columns([]))

    def test_text_and_json_renderings(self):
        outcomes = [make_outcome(i, p, 1) for i in range(2) for p in ("sh", "fh")]
        report = summarize_run(columns(outcomes))
        assert "delta_SH" in report.to_text()
        doc = report.to_json()
        assert doc["accuracy"]["fixture/sh"] == 1.0

    def test_json_keeps_the_field_order_and_none(self):
        # report.json is written without sorted keys, so the order is its bytes
        doc = stats.Report(accuracy={("d", "sh"): Fraction(1, 4)},
                           input_ratio={"d": None}).to_json()
        assert list(doc) == ["accuracy", "tokens_in", "tokens_out", "repetition",
                             "delta_sh", "input_ratio", "output_ratio"]
        assert doc["accuracy"] == {"d/sh": 0.25} and doc["input_ratio"] == {"d": None}


# ---------------------------------------------------------------------------
# The columnar summary and design matrix against the row-wise oracles

CONTROLS = ("dataset", "last_tool", "has_bridge", "has_comparison")


@st.composite
def outcome_tables(draw):
    """Outcome records over a few questions: one planner or both, one dataset
    or several, groups of one row, token counts of zero and beyond int64."""
    planners = draw(st.sampled_from([("sh",), ("fh",), ("sh", "fh")]))
    datasets = draw(st.sampled_from([("fixture",), ("a", "b"), ("a", "b", "c")]))
    questions = draw(st.lists(st.fixed_dictionaries({
        "depth": st.integers(1, 7),
        "breadth": st.sampled_from([1.0, 1.5, 2, 2.25, 3.0]),
        "dataset": st.sampled_from(datasets),
        "last_tool": st.sampled_from(["Count", "Find", "QueryAttr"]),
        "has_bridge": st.booleans(),
        "has_comparison": st.booleans(),
    }), min_size=1, max_size=6))
    tokens = st.one_of(st.just(0), st.integers(0, 500), st.integers(0, 2**70))
    records = []
    for _ in range(draw(st.integers(1, 30))):
        q = draw(st.integers(0, len(questions) - 1))
        records.append({
            "question_id": f"q{q}", "trial": draw(st.integers(0, 3)),
            "planner": draw(st.sampled_from(planners)), "success": draw(st.integers(0, 1)),
            **questions[q],
            "tokens_in": draw(tokens), "tokens_out": draw(tokens),
            "repeated": draw(st.booleans()), "label": draw(st.sampled_from(["", "correct"])),
        })
    if draw(st.booleans()):  # leave defaulted fields out where they hold the default
        defaults = {f.name: f.default for f in dataclasses.fields(Outcome)}
        records = [{k: v for k, v in r.items() if defaults.get(k, dataclasses.MISSING) != v}
                   for r in records]
    return records


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except stats.StatsError as exc:
        return type(exc)


class TestColumnsMatchRowOracle:
    @settings(max_examples=200, deadline=None)
    @given(records=outcome_tables(),
           controls=st.lists(st.sampled_from(CONTROLS), unique=True).map(tuple))
    def test_same_report_and_design(self, records, controls):
        cols = outcome_columns(records)
        rows = [Outcome(**r) for r in records]

        report, expected = summarize_run(cols), oracles.summarize_run(rows)
        for name in ("accuracy", "tokens_in", "tokens_out", "repetition",
                     "delta_sh", "input_ratio", "output_ratio"):
            assert getattr(report, name) == getattr(expected, name)
        assert list(report.accuracy) == list(expected.accuracy)  # first-appearance order
        assert report.to_json() == expected.to_json()
        assert report.to_text() == expected.to_text()

        design = outcome_or_error(build_design, cols, controls)
        expected = outcome_or_error(oracles.build_design, rows, controls)
        if isinstance(expected, type):
            assert design is expected
            return
        X, y, clusters, names = design
        assert X.tobytes() == expected[0].tobytes()
        assert y.tobytes() == expected[1].tobytes()
        assert clusters == expected[2]
        assert names == expected[3]


# ---------------------------------------------------------------------------
# The fit on (cluster, design row) cells against the row-wise oracle fit

@st.composite
def clustered_designs(draw):
    """A design whose rows come from a few distinct rows, so that rows repeat
    within and across clusters; clusters of one row or many; labels as a
    list, tuple or numpy array of strings or integers, rows in any order.
    Some designs are rank deficient, separated or have one cluster."""
    p = draw(st.integers(1, 4))
    entries = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0])
    palette = draw(st.lists(st.tuples(*[entries] * (p - 1)), min_size=1, max_size=6,
                            unique=True))
    n = draw(st.integers(2, 40))
    rows = draw(st.lists(st.integers(0, len(palette) - 1), min_size=n, max_size=n))
    X = np.array([(1.0, *palette[r]) for r in rows]).reshape(n, p)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), float)
    labels = draw(st.lists(st.integers(0, draw(st.integers(1, 12))), min_size=n, max_size=n))
    if draw(st.booleans()):
        labels = [f"q{label}" for label in labels]
    container = draw(st.sampled_from([list, tuple, np.array]))
    return X, y, container(labels)


class TestCellFitMatchesRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(design=clustered_designs())
    def test_same_fit(self, design):
        X, y, clusters = design
        try:
            expected = oracles.fit_clustered_logit(X, y, clusters)
        except stats.StatsError as exc:
            with pytest.raises(type(exc)) as raised:
                fit_clustered_logit(X, y, clusters)
            assert type(raised.value) is type(exc)
            return
        fit = fit_clustered_logit(X, y, clusters)
        # atol absorbs rounding noise around a coefficient, z or p of zero
        np.testing.assert_allclose(fit.beta, expected.beta, rtol=1e-9, atol=1e-12)
        # The rounding error of a sandwich variance is a fixed share of its
        # model-based variance, so a variance that nearly cancels (a ratio of
        # 1e-6 with two clusters, say) agrees only to that share: the level
        # below which both fits call it zero.
        model = np.diag(model_based_covariance(X, expected.beta))
        assert np.isclose(fit.se ** 2, expected.se ** 2, rtol=1e-9,
                          atol=stats.MIN_VARIANCE_RATIO * model).all(), (fit.se, expected.se)
        # z and p follow from beta and se wherever se agrees to rtol 1e-9
        agreed = np.isclose(fit.se, expected.se, rtol=1e-9, atol=0)
        for name in ("z", "p"):
            np.testing.assert_allclose(getattr(fit, name)[agreed],
                                       getattr(expected, name)[agreed],
                                       rtol=1e-9, atol=1e-12, err_msg=name)
        assert (fit.n_obs, fit.n_clusters) == (expected.n_obs, expected.n_clusters)
        assert (fit.n_iter, fit.converged) == (expected.n_iter, expected.converged)
        assert fit.n_cells == len({(c, tuple(row)) for c, row in zip(clusters, X.tolist())})
