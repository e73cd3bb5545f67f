"""Deterministic answer matching, run aggregation, and clustered logistic
regression with a cluster-robust sandwich covariance."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

import numpy as np


class StatsError(Exception):
    pass


class DegenerateFeatureError(StatsError):
    pass


class RankDeficiencyError(StatsError):
    pass


class SeparationError(StatsError):
    pass


# ---------------------------------------------------------------------------
# Answer matching (the mechanical subset of the grading rubric)

_FILLER = re.compile(
    r"^(the answer( to the question)? is|answer\s*:|final answer\s*:|a\s*:)\s*",
    re.I,
)
_REFUSALS = ("i don't know", "i do not know", "unknown", "no information",
             "cannot answer", "can't answer", "unsure", "not sure")
_ID_NAME = re.compile(r"^\s*(?P<id>\S+)\s*\((?P<name>.+)\)\s*$")
_SEPARATORS = re.compile(r"\s*(?:,|;|\n|\band\b)\s*")


def _normalize(text: str) -> str:
    text = text.strip().lower()
    text = _FILLER.sub("", text)
    text = re.sub(r"[\s]+", " ", text)
    return text.strip(" .!?\"'")


def _gold_variants(gold: str, mode: str) -> list[str]:
    """An "id (name)" gold matches if either the id or the name appears."""
    norm = _normalize(gold)
    m = _ID_NAME.match(gold.strip())
    if m and mode in ("exact-set", "entity-id-or-name"):
        return [norm, _normalize(m.group("id")), _normalize(m.group("name"))]
    return [norm]


def _numeric_equal(a: str, b: str) -> bool:
    try:
        return float(a.replace(",", "")) == float(b.replace(",", ""))
    except ValueError:
        return False


def match_answer(predicted: str, gold: list[str], mode: str = "exact-set") -> str:
    """Label a predicted answer: correct, partially_correct, incorrect, refusal.

    Case-insensitive set matching against the gold values; explanatory filler
    is ignored; trailing extra values demote correct to partially_correct."""
    text = _normalize(predicted or "")
    if not text or any(marker in text for marker in _REFUSALS):
        return "refusal"
    matched = []
    for value in gold:
        variants = _gold_variants(value, mode)
        hit = any(v and v in text for v in variants)
        if not hit and mode == "numeric":
            hit = any(_numeric_equal(text, v) for v in variants)
        matched.append(hit)
    if not any(matched):
        return "incorrect"
    if not all(matched):
        return "partially_correct"
    # detect extra answer values when the output is a bare list, not prose
    items = [item for item in _SEPARATORS.split(text) if item]
    if len(items) > 1:
        all_variants = [v for value in gold for v in _gold_variants(value, mode)]
        extras = [item for item in items
                  if not any(v in item or item in v for v in all_variants)]
        if extras:
            return "partially_correct"
    return "correct"


# ---------------------------------------------------------------------------
# Standardization and GEE fitting

def standardize(values) -> np.ndarray:
    """Z-scores with the population standard deviation.

    Raises DegenerateFeatureError for fewer than two values, a constant
    column, or values beyond the float range or whose mean or spread
    overflows it."""
    try:
        data = np.asarray(values, dtype=float)
    except OverflowError:
        raise DegenerateFeatureError("a value lies beyond the float range") from None
    if data.size < 2:
        raise DegenerateFeatureError("standardize needs at least two values")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = data.std()  # population sd
    if not np.isfinite(sd):
        raise DegenerateFeatureError("column overflows the float range when standardized")
    if sd == 0:
        raise DegenerateFeatureError("constant column cannot be standardized")
    return (data - data.mean()) / sd


@dataclass
class GeeFit:
    names: list[str]
    beta: np.ndarray
    cov: np.ndarray  # cluster-robust sandwich covariance
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    n_iter: int
    converged: bool
    n_obs: int
    n_clusters: int
    n_cells: int  # distinct (cluster, design row) pairs the fit ran on

    def table(self) -> list[dict]:
        return [
            {"name": name,
             "coefficient": float(self.beta[i]),
             "std_err": float(self.se[i]),
             "z": float(self.z[i]),
             "p": float(self.p[i]),
             "stars": "**" if self.p[i] < 0.01 else ("*" if self.p[i] < 0.05 else "")}
            for i, name in enumerate(self.names)
        ]


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# IRLS stops once no coefficient moves by FIT_TOLERANCE, or after FIT_MAX_ITER steps
FIT_TOLERANCE = 1e-8
FIT_MAX_ITER = 100
# The outcome counts as (quasi-)separated once a coefficient passes MAX_COEFFICIENT
# or a fitted logit passes MAX_LOGIT (a probability within 1e-13 of 0 or 1), where
# the information matrix is too ill-conditioned for a meaningful step.
MAX_COEFFICIENT = 1e3
MAX_LOGIT = 30.0
DIVERGED = "divergent coefficients: the outcome is (quasi-)separated"
# A coefficient whose sandwich variance is below MIN_VARIANCE_RATIO times its
# model-based variance does not vary across clusters beyond rounding (say, all
# the rows that identify it lie in one cluster): its se and z are 0, its p 1.
MIN_VARIANCE_RATIO = 1e-12


def _fitted_probabilities(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    eta = X @ beta
    if np.max(np.abs(eta)) > MAX_LOGIT:
        raise SeparationError(DIVERGED)
    return 1.0 / (1.0 + np.exp(-eta))


def fit_clustered_logit(X, y, clusters, names=None) -> GeeFit:
    """Logistic regression by IRLS under the independence working correlation,
    with covariance from the cluster-robust sandwich estimator.

    The rows are grouped once into cells, one per (cluster, exact design row)
    pair, each holding `trials` rows and `successes` summed outcomes; the fit
    runs on the cells. The information is sum(trials mu (1 - mu) x x'), the
    score sum(x (successes - trials mu)), and a cluster's score is the sum of
    its cells' scores. Cells nest within clusters, so this is the row-wise
    estimator, up to the order of floating-point sums.

    The design is rank deficient when the cells' Gram matrix
    sum(trials x x') = X'X (p x p) has an eigenvalue at most
    p * machine epsilon * its largest one (the default tolerance of
    `np.linalg.matrix_rank` on that matrix). Raises StatsError for fewer than
    two clusters, DegenerateFeatureError for a non-finite entry of X,
    RankDeficiencyError, and SeparationError when the coefficients diverge
    (MAX_COEFFICIENT, MAX_LOGIT). A fit that does not settle within
    FIT_MAX_ITER steps has `converged` False."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if names is None:
        names = [f"x{i}" for i in range(p)]
    # in one pass, each row's cluster code: the row where its label first appears
    first_rows: dict = {}
    keyed = np.empty((n, p + 1))
    keyed[:, 0] = np.fromiter(map(first_rows.setdefault, clusters, range(n)), dtype=float,
                              count=n)
    if len(first_rows) < 2:
        raise StatsError("need at least two clusters")
    if not np.isfinite(X).all():
        raise DegenerateFeatureError("design matrix holds a non-finite value")
    keyed[:, 1:] = X
    cells, cell_of, trials = np.unique(
        keyed.view(np.dtype((np.void, keyed.itemsize * (p + 1)))).ravel(),
        return_inverse=True, return_counts=True)
    cells = cells.view(float).reshape(-1, p + 1)
    _, cell_cluster = np.unique(cells[:, 0], return_inverse=True)
    X = cells[:, 1:]
    successes = np.bincount(cell_of, weights=y, minlength=len(cells))
    if np.linalg.matrix_rank(X.T @ (X * trials[:, None]), hermitian=True) < p:
        raise RankDeficiencyError("design matrix is rank deficient")

    beta = np.zeros(p)
    converged = False
    it = 0
    for it in range(1, FIT_MAX_ITER + 1):
        mu = _fitted_probabilities(X, beta)
        A = X.T @ (X * (trials * mu * (1.0 - mu))[:, None])
        score = X.T @ (successes - trials * mu)
        try:
            delta = np.linalg.solve(A, score)
        except np.linalg.LinAlgError:
            raise SeparationError(DIVERGED) from None
        beta = beta + delta
        if np.max(np.abs(beta)) > MAX_COEFFICIENT:
            raise SeparationError(DIVERGED)
        if np.max(np.abs(delta)) < FIT_TOLERANCE:
            converged = True
            break

    mu = _fitted_probabilities(X, beta)
    A_inv = np.linalg.inv(X.T @ (X * (trials * mu * (1.0 - mu))[:, None]))
    # sum of the outer products of the cluster scores, each the sum of its cells'
    cluster_scores = np.zeros((len(first_rows), p))
    np.add.at(cluster_scores, cell_cluster, X * (successes - trials * mu)[:, None])
    cov = A_inv @ (cluster_scores.T @ cluster_scores) @ A_inv
    cov = (cov + cov.T) / 2.0
    unidentified = np.diag(cov) < MIN_VARIANCE_RATIO * np.diag(A_inv)
    cov[unidentified, :] = cov[:, unidentified] = 0.0
    se = np.sqrt(np.diag(cov))
    z = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
    pvals = np.array([2.0 * _normal_sf(abs(zi)) for zi in z])
    return GeeFit(names=list(names), beta=beta, cov=cov, se=se, z=z, p=pvals,
                  n_iter=it, converged=converged, n_obs=n, n_clusters=len(first_rows),
                  n_cells=len(cells))


# ---------------------------------------------------------------------------
# Outcome records and design matrices

@dataclass(frozen=True)
class Outcome:
    question_id: str
    trial: int
    planner: str  # sh | fh
    success: int
    depth: int
    breadth: float
    dataset: str = "fixture"
    last_tool: str = ""
    has_bridge: bool = False
    has_comparison: bool = False
    tokens_in: int = 0
    tokens_out: int = 0
    repeated: bool = False
    label: str = ""


# JSON values each annotated Outcome field accepts (a bool is no int here)
_ACCEPTED = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}
_ABSENT = object()  # a field the record leaves out


class RecordError(ValueError):
    """An outcome record that cannot be decoded or does not match `Outcome`;
    `index` is its position among the records."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def outcome_columns(records: list) -> dict[str, list]:
    """One list per `Outcome` field, in row order, from JSON-decoded records
    (dicts keyed by field name); a record may leave out defaulted fields.

    Raises RecordError for a record that is not an object, lacks a required
    field, has an unknown one, or holds a value of the wrong JSON type or a
    non-finite float."""
    if set(map(type, records)) - {dict}:
        index = next(i for i, r in enumerate(records) if type(r) is not dict)
        raise RecordError(index, "not a JSON object")
    columns, present = {}, 0
    for f in dataclasses.fields(Outcome):
        column = list(map(dict.get, records, repeat(f.name), repeat(_ABSENT)))
        absent = column.count(_ABSENT)
        if absent and f.default is dataclasses.MISSING:
            raise RecordError(column.index(_ABSENT), f"missing field {f.name!r}")
        if absent:
            column = [f.default if v is _ABSENT else v for v in column]
        present += len(records) - absent
        accepted = _ACCEPTED[f.type]
        if not set(map(type, column)).issubset(accepted):
            index = next(i for i, v in enumerate(column) if type(v) not in accepted)
            raise RecordError(index, f"{f.name} must be {f.type}, got {column[index]!r}")
        if f.type == "float":  # json reads NaN, Infinity and ints past every float
            index = next((i for i, v in enumerate(column)
                          if not -sys.float_info.max <= v <= sys.float_info.max), None)
            if index is not None:
                raise RecordError(index, f"{f.name} must be finite, got {column[index]!r}")
        columns[f.name] = column
    if sum(map(len, records)) != present:  # some record has a key no field has
        index, name = next((i, k) for i, r in enumerate(records) for k in r
                           if k not in columns)
        raise RecordError(index, f"unknown field {name!r}")
    return columns


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The sorted distinct values, and each row's index among them."""
    levels = sorted(set(values))
    index = {level: i for i, level in enumerate(levels)}
    return levels, np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                               count=len(values))


def build_design(columns: dict[str, list], controls: tuple[str, ...] = ()):
    """Design matrix for the success model, from `outcome_columns` columns:
    intercept, standardized depth and breadth, the SH indicator, depth x SH
    and breadth x SH interactions, plus the requested control dummies (first
    level is the reference)."""
    n = len(columns["planner"])
    d_star = standardize(columns["depth"])
    b_star = standardize(columns["breadth"])
    planners, planner_codes = _codes(columns["planner"])
    x_sh = ((planner_codes == planners.index("sh")).astype(float) if "sh" in planners
            else np.zeros(n))
    names = ["intercept", "depth", "breadth", "sh", "depth:sh", "breadth:sh"]
    matrix = [np.ones(n), d_star, b_star, x_sh, d_star * x_sh, b_star * x_sh]
    for control in controls:
        if control in ("dataset", "last_tool"):
            levels, codes = _codes(columns[control])
            for i, level in enumerate(levels[1:], 1):  # first level is the reference
                names.append(f"{control}[{level}]")
                matrix.append((codes == i).astype(float))
        elif control in ("has_bridge", "has_comparison"):
            names.append(control)
            matrix.append(np.array(columns[control], dtype=float))
        else:
            raise StatsError(f"unknown control {control!r}")
    X = np.column_stack(matrix)
    y = np.array(columns["success"], dtype=float)
    return X, y, list(columns["question_id"]), names


# ---------------------------------------------------------------------------
# Run summaries

@dataclass
class Report:
    accuracy: dict = field(default_factory=dict)   # (dataset, planner) -> Fraction
    tokens_in: dict = field(default_factory=dict)  # (dataset, planner) -> mean
    tokens_out: dict = field(default_factory=dict)
    repetition: dict = field(default_factory=dict)  # (dataset, planner) -> Fraction
    delta_sh: dict = field(default_factory=dict)    # dataset -> Fraction
    input_ratio: dict = field(default_factory=dict)  # dataset -> sh/fh
    output_ratio: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def num(value):
            return float(value) if value is not None else None

        return {
            "accuracy": {f"{d}/{p}": num(v) for (d, p), v in self.accuracy.items()},
            "tokens_in": {f"{d}/{p}": num(v) for (d, p), v in self.tokens_in.items()},
            "tokens_out": {f"{d}/{p}": num(v) for (d, p), v in self.tokens_out.items()},
            "repetition": {f"{d}/{p}": num(v) for (d, p), v in self.repetition.items()},
            "delta_sh": {d: num(v) for d, v in self.delta_sh.items()},
            "input_ratio": {d: num(v) for d, v in self.input_ratio.items()},
            "output_ratio": {d: num(v) for d, v in self.output_ratio.items()},
        }

    def to_text(self) -> str:
        lines = [f"{'dataset':<16}{'planner':<9}{'accuracy':<10}{'in_tok':<9}"
                 f"{'out_tok':<9}{'repeat':<8}"]
        for (dataset, planner), acc in sorted(self.accuracy.items()):
            lines.append(
                f"{dataset:<16}{planner:<9}{float(acc):<10.3f}"
                f"{float(self.tokens_in[(dataset, planner)]):<9.1f}"
                f"{float(self.tokens_out[(dataset, planner)]):<9.1f}"
                f"{float(self.repetition[(dataset, planner)]):<8.3f}"
            )
        for dataset, delta in sorted(self.delta_sh.items()):
            ratio_in = self.input_ratio.get(dataset)
            ratio_out = self.output_ratio.get(dataset)
            lines.append(
                f"{dataset}: delta_SH={float(delta):+.3f}"
                + (f" input_ratio(SH/FH)={float(ratio_in):.2f}" if ratio_in else "")
                + (f" output_ratio(SH/FH)={float(ratio_out):.2f}" if ratio_out else "")
            )
        return "\n".join(lines)


def summarize_run(columns: dict[str, list]) -> Report:
    """Per-(dataset, planner) accuracy, mean tokens and repetition rate, and
    per-dataset SH-FH accuracy delta and SH/FH token ratios, from
    `outcome_columns` columns. Every number is an exact Fraction of
    Python-int sums."""
    if not columns["planner"]:
        raise StatsError("no outcome records to summarize")
    datasets, dataset_codes = _codes(columns["dataset"])
    planners, planner_codes = _codes(columns["planner"])
    groups = dataset_codes * len(planners) + planner_codes
    order = np.argsort(groups, kind="stable")
    found, starts, sizes = np.unique(groups[order], return_index=True, return_counts=True)
    rows = order.tolist()
    # each summed column in group order, so that a group is one slice
    summed = {name: list(map(columns[name].__getitem__, rows))
              for name in ("success", "tokens_in", "tokens_out", "repeated")}
    report = Report()
    for g in np.argsort(order[starts]).tolist():  # in order of first appearance
        key = (datasets[found[g] // len(planners)], planners[found[g] % len(planners)])
        n, group = int(sizes[g]), slice(starts[g], starts[g] + sizes[g])
        report.accuracy[key] = Fraction(sum(summed["success"][group]), n)
        report.tokens_in[key] = Fraction(sum(summed["tokens_in"][group]), n)
        report.tokens_out[key] = Fraction(sum(summed["tokens_out"][group]), n)
        report.repetition[key] = Fraction(sum(summed["repeated"][group]), n)
    for dataset in datasets:
        sh, fh = (dataset, "sh"), (dataset, "fh")
        if sh in report.accuracy and fh in report.accuracy:
            report.delta_sh[dataset] = report.accuracy[sh] - report.accuracy[fh]
            if report.tokens_in[fh]:
                report.input_ratio[dataset] = report.tokens_in[sh] / report.tokens_in[fh]
            if report.tokens_out[fh]:
                report.output_ratio[dataset] = report.tokens_out[sh] / report.tokens_out[fh]
    return report
