"""Reference implementations the tests compare the pipeline against.

The pipeline executes plans one tool call at a time through
``harness.Environment``. The oracles here evaluate the same tools another
way: KoPL programs with positional inputs, atomic call chains compiled to
S-expressions, the gold DAG with structurally identical KoPL subtrees
merged, and the lookups the engines and the grounder answer from indexes
done by scanning everything, and the run summary and design matrix built
row by row from ``Outcome`` objects, and the clustered logit fitted row by
row rather than on (cluster, design row) cells. None of them is used by ``src/``.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from planhorizon import atomic, kopl, mocktools
from planhorizon.grounding import (DEFAULT_THRESHOLD, MAX_CANDIDATES_HIGH,
                                   MAX_CANDIDATES_LOW, Grounder, GroundingResult,
                                   SchemaIndex, _jaccard, _normalize, _trigrams,
                                   format_candidate_feedback)
from planhorizon.kb import (KBError, KnowledgeBase, TypedValue, UnknownConceptError,
                            compare_typed, parse_value_text)
from planhorizon.outcome import ToolOutcome
from planhorizon.plans import ExecutionGraph, Plan, ToolCall
from planhorizon.stats import (DIVERGED, FIT_MAX_ITER, FIT_TOLERANCE, MAX_COEFFICIENT,
                               MAX_LOGIT, MIN_VARIANCE_RATIO, GeeFit, Outcome, RankDeficiencyError, Report,
                               SeparationError, StatsError, _normal_sf, standardize)


def ref_params(catalog: list[dict], tool: str) -> list[str]:
    """Names of the parameters of `tool` that carry step references, in
    positional order."""
    entry = next(e for e in catalog if e["name"] == tool)
    return [p["name"] for p in entry["params"] if p["kind"] in ("set", "value-ref")]


# ---------------------------------------------------------------------------
# Plan wire format

def to_json(step: ToolCall) -> dict:
    doc = {"tool": step.tool, "args": dict(step.args)}
    if step.final:
        doc["final"] = True
    return doc


def serialize_plan(plan: Plan) -> str:
    return json.dumps([to_json(step) for step in plan.steps])


# ---------------------------------------------------------------------------
# KoPL programs: steps thread earlier outputs by input index

KOPL_CATALOG = kopl.KoplEngine.catalog


@dataclass(frozen=True)
class KoplStep:
    tool: str
    args: dict
    inputs: tuple[int, ...] = ()


@dataclass(frozen=True)
class KoplProgram:
    steps: tuple[KoplStep, ...]


def validate_program(program: KoplProgram) -> None:
    for i, step in enumerate(program.steps):
        if step.tool not in {entry["name"] for entry in KOPL_CATALOG}:
            raise kopl.ProgramError(f"step {i}: unknown tool {step.tool!r}")
        for j in step.inputs:
            if not (0 <= j < i):
                raise kopl.ProgramError(
                    f"step {i}: input {j} does not reference a strictly earlier step"
                )
        expected = len(ref_params(KOPL_CATALOG, step.tool))
        if len(step.inputs) != expected:
            raise kopl.ProgramError(
                f"step {i}: {step.tool} expects {expected} inputs, "
                f"got {len(step.inputs)}"
            )


def execute_program(kb: KnowledgeBase, grounder: Grounder,
                    program: KoplProgram) -> ToolOutcome:
    """Evaluate steps in order, threading outputs by input index."""
    validate_program(program)
    results: list = []
    for i, step in enumerate(program.steps):
        args = dict(step.args)
        for param, j in zip(ref_params(KOPL_CATALOG, step.tool), step.inputs):
            args[param] = results[j]
        outcome = kopl.run_tool(kb, grounder, step.tool, args)
        if not outcome.ok:
            return ToolOutcome.failure(
                f"step {i} ({step.tool}) failed: {outcome.feedback}",
                outcome.candidates,
            )
        results.append(outcome.value)
    return ToolOutcome.success(results[-1]) if results else ToolOutcome.failure(
        "empty program"
    )


def derive_gold_dag_kopl(program) -> ExecutionGraph:
    """Build the step tree of a KoPL program and merge structurally identical
    subtrees (same tool, same args, same merged inputs) into single nodes."""
    validate_program(program)
    signatures: list = []
    for step in program.steps:
        sig = (step.tool, tuple(sorted(step.args.items())),
               tuple(signatures[j] for j in step.inputs))
        signatures.append(sig)
    node_of: dict = {}
    order = []
    for sig in signatures:
        if sig not in node_of:
            node_of[sig] = len(order)
            order.append(sig)
    edges = set()
    for sig in order:
        target = node_of[sig]
        for child in sig[2]:
            edges.add((node_of[child], target))
    labels = tuple((sig[0], dict(sig[1])) for sig in order)
    return ExecutionGraph(labels=labels, edges=frozenset(edges))


# ---------------------------------------------------------------------------
# Atomic chains as S-expressions

class SExprError(Exception):
    pass


ATOMIC_CATALOG = atomic.AtomicEngine.catalog

HEADS = ("JOIN", "AND", "ARGMIN", "ARGMAX", "LT", "LE", "GT", "GE", "TC", "COUNT")
_ARITY = {"JOIN": 3, "AND": 2, "ARGMIN": 2, "ARGMAX": 2,
          "LT": 2, "LE": 2, "GT": 2, "GE": 2, "TC": 3, "COUNT": 1}

_OP_TO_HEAD = {"<": "LT", "<=": "LE", "≤": "LE", ">": "GT", ">=": "GE", "≥": "GE"}


@dataclass(frozen=True)
class Seed:
    """A leaf term: an entity mention, class name, or typed literal text."""

    text: str


@dataclass(frozen=True)
class App:
    head: str
    args: tuple

    def __post_init__(self):
        if self.head not in HEADS:
            raise SExprError(f"unknown head {self.head!r}")
        if len(self.args) != _ARITY[self.head]:
            raise SExprError(
                f"{self.head} takes {_ARITY[self.head]} arguments, got {len(self.args)}"
            )


SExpr = Seed | App


def _token(text: str) -> str:
    if any(ch in text for ch in ' ()"'):
        return '"' + text.replace('"', '\\"') + '"'
    return text


def serialize_sexpr(expr: SExpr) -> str:
    if isinstance(expr, Seed):
        return _token(expr.text)
    parts = [expr.head]
    for arg in expr.args:
        parts.append(serialize_sexpr(arg) if isinstance(arg, (Seed, App)) else _token(str(arg)))
    return "(" + " ".join(parts) + ")"


def parse_sexpr(text: str) -> SExpr:
    tokens = _tokenize(text)
    expr, rest = _parse_tokens(tokens)
    if rest:
        raise SExprError(f"trailing tokens: {rest!r}")
    return expr


def _tokenize(text: str) -> list[str]:
    tokens, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j, buf = i + 1, []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    j += 1
                buf.append(text[j])
                j += 1
            if j >= len(text):
                raise SExprError("unterminated string")
            tokens.append('"' + "".join(buf))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_tokens(tokens: list[str]):
    if not tokens:
        raise SExprError("empty expression")
    head, rest = tokens[0], tokens[1:]
    if head == "(":
        if not rest or rest[0] in "()":
            raise SExprError("expected a head symbol after '('")
        name, rest = rest[0], rest[1:]
        args = []
        while rest and rest[0] != ")":
            arg, rest = _parse_tokens(rest)
            args.append(arg)
        if not rest:
            raise SExprError("missing ')'")
        return App(name, tuple(args)), rest[1:]
    if head == ")":
        raise SExprError("unexpected ')'")
    return Seed(head[1:] if head.startswith('"') else head), rest


# ---------------------------------------------------------------------------
# Chain compilation and S-expression evaluation

def compile_chain(chain) -> SExpr:
    """Convert a chain of atomic tool calls with $i references into one SExpr.

    Each chain element is a mapping {"tool": name, "args": {...}} where set
    parameters hold "$i" references to earlier steps.
    """
    exprs: list[SExpr] = []
    for i, step in enumerate(chain):
        tool, args = step["tool"], step["args"]
        if tool not in {entry["name"] for entry in ATOMIC_CATALOG}:
            raise SExprError(f"step {i}: unknown tool {tool!r}")

        def sub(param):
            ref = args.get(param)
            if not (isinstance(ref, str) and ref.startswith("$")):
                raise SExprError(f"step {i}: {param} must be a $i reference")
            j = int(ref[1:])
            if not (0 <= j < i):
                raise SExprError(f"step {i}: dangling reference {ref}")
            return exprs[j]

        if tool == "Extract_entity":
            exprs.append(Seed(str(args["input"])))
        elif tool == "Find_relation":
            exprs.append(App("JOIN", (Seed(args["relation"]),
                                      Seed(args.get("direction", "forward")),
                                      sub("target"))))
        elif tool == "Merge":
            exprs.append(App("AND", (sub("input1"), sub("input2"))))
        elif tool == "Order":
            head = "ARGMIN" if args["mode"] == "argmin" else "ARGMAX"
            exprs.append(App(head, (sub("input"), Seed(args["property"]))))
        elif tool == "Compare":
            head = _OP_TO_HEAD.get(args["operator"])
            if head is None:
                raise SExprError(f"step {i}: bad operator {args['operator']!r}")
            exprs.append(App(head, (Seed(args["property"]), Seed(str(args["literal"])))))
        elif tool == "Time_constraint":
            exprs.append(App("TC", (sub("input"), Seed(args["relation"]),
                                    Seed(str(args["literal"])))))
        elif tool == "Count":
            exprs.append(App("COUNT", (sub("input"),)))
    if not exprs:
        raise SExprError("empty chain")
    return exprs[-1]


def eval_sexpr(store: atomic.GraphStore, grounder: Grounder, expr: SExpr,
               eval_year: int = 2026, _path: str = "") -> ToolOutcome:
    """Bottom-up evaluation; the first failing sub-expression aborts with its path."""

    def fail(outcome: ToolOutcome, path: str) -> ToolOutcome:
        return ToolOutcome.failure(f"at {path or '/'}: {outcome.feedback}",
                                   outcome.candidates)

    if isinstance(expr, Seed):
        outcome = atomic.extract_entity(store, grounder, expr.text)
        return outcome if outcome.ok else fail(outcome, _path)

    def child(i):
        return eval_sexpr(store, grounder, expr.args[i], eval_year,
                          f"{_path}/{expr.head}[{i}]")

    if expr.head == "JOIN":
        target = child(2)
        if not target.ok:
            return target
        out = atomic.find_relation(store, grounder, expr.args[0].text,
                            expr.args[1].text, target.value)
    elif expr.head == "AND":
        a, b = child(0), child(1)
        if not a.ok:
            return a
        if not b.ok:
            return b
        out = atomic.merge(a.value, b.value)
    elif expr.head in ("ARGMIN", "ARGMAX"):
        base = child(0)
        if not base.ok:
            return base
        out = atomic.order(store, grounder, expr.head.lower(), base.value, expr.args[1].text)
    elif expr.head in ("LT", "LE", "GT", "GE"):
        op = {"LT": "<", "LE": "<=", "GT": ">", "GE": ">="}[expr.head]
        out = atomic.compare(store, grounder, op, expr.args[0].text,
                      parse_value_text(expr.args[1].text))
    elif expr.head == "TC":
        base = child(0)
        if not base.ok:
            return base
        out = atomic.time_constraint(store, grounder, base.value, expr.args[1].text,
                              expr.args[2].text, eval_year)
    elif expr.head == "COUNT":
        base = child(0)
        if not base.ok:
            return base
        out = atomic.count_nodes(base.value)
    else:  # pragma: no cover
        raise SExprError(f"unknown head {expr.head!r}")
    return out if out.ok else fail(out, _path or "/" + expr.head)


def execute_chain(store: atomic.GraphStore, grounder: Grounder, chain,
                  eval_year: int = 2026) -> ToolOutcome:
    """Step-by-step execution of a chain; the oracle twin of eval(compile(chain))."""
    results = []
    for i, step in enumerate(chain):
        args = dict(step["args"])
        for param in ref_params(ATOMIC_CATALOG, step["tool"]):
            ref = args[param]
            j = int(str(ref)[1:])
            if not (0 <= j < i):
                raise SExprError(f"step {i}: dangling reference {ref}")
            args[param] = results[j]
        outcome = atomic.run_tool(store, grounder, step["tool"], args, eval_year)
        if not outcome.ok:
            return ToolOutcome.failure(f"step {i} failed: {outcome.feedback}",
                                       outcome.candidates)
        results.append(outcome.value)
    if not results:
        return ToolOutcome.failure("empty chain")
    return ToolOutcome.success(results[-1])




# ---------------------------------------------------------------------------
# Full scans: what the KB, graph-store, schema and corpus indexes must
# reproduce, order and ties included

def kopl_neighbors(kb: KnowledgeBase, eid: str, predicate: str, direction: str):
    """kopl._neighbors by scanning every entity for edges towards eid."""
    flip = "backward" if direction == "forward" else "forward"
    out = []
    for edge in kb.entities[eid].relations:
        if edge.predicate == predicate and edge.direction == direction:
            out.append((edge.target, edge))
    for other in kb.entities.values():
        if other.id == eid:
            continue
        for edge in other.relations:
            if edge.predicate == predicate and edge.direction == flip and edge.target == eid:
                out.append((other.id, edge))
    return out


def concept_closure(kb: KnowledgeBase, concept_id: str) -> set[str]:
    """kb.concept_closure with the children map rebuilt on every call."""
    if concept_id not in kb.concepts:
        raise UnknownConceptError(f"unknown concept {concept_id!r}")
    children: dict[str, list[str]] = {cid: [] for cid in kb.concepts}
    for c in kb.concepts.values():
        for parent in c.subclass_of:
            children[parent].append(c.id)
    closure = set()
    frontier = [concept_id]
    while frontier:
        cid = frontier.pop()
        if cid in closure:
            continue
        closure.add(cid)
        frontier.extend(children[cid])
    return closure


def property_values(store: atomic.GraphStore, ids, prop: str):
    """atomic._property_values by scanning every triple per node."""
    out = []
    for nid in ids:
        for s, p, o in store.triples:
            if s == nid and p == prop and isinstance(o, TypedValue):
                out.append((nid, o))
                break
    return out


def find_relation(store: atomic.GraphStore, grounder: Grounder, relation: str,
                  direction: str, target: atomic.NodeSet) -> ToolOutcome:
    """atomic.find_relation over every triple."""
    if not target.ids:
        return ToolOutcome.failure("Find_relation needs a nonempty target set")
    result = grounder.ground(relation, "relation")
    if not result.ok:
        return ToolOutcome.failure(
            format_candidate_feedback(result, relation, "relation"), result.candidates
        )
    predicate = result.matched_term
    wanted = set(target.ids)
    found = []
    for s, p, o in store.triples:
        if p != predicate:
            continue
        if direction == "forward" and isinstance(o, str) and o in wanted:
            found.append(s)
        elif direction == "backward" and s in wanted and isinstance(o, str):
            found.append(o)
    ids = store.node_order(found)
    if not ids:
        return ToolOutcome.failure(f"no entities connected via {relation!r}")
    return ToolOutcome.success(atomic.NodeSet(ids))


def compare(store: atomic.GraphStore, grounder: Grounder, operator: str, prop: str,
            literal: TypedValue) -> ToolOutcome:
    """atomic.compare over every triple."""
    operator = {"≤": "<=", "≥": ">="}.get(operator, operator)
    if operator not in ("<", "<=", ">", ">="):
        return ToolOutcome.failure("Compare operator must be one of <, <=, >, >=")
    result = grounder.ground(prop, "relation")
    if not result.ok:
        return ToolOutcome.failure(
            format_candidate_feedback(result, prop, "relation"), result.candidates
        )
    prop = result.matched_term
    found = []
    for s, p, o in store.triples:
        if p != prop or not isinstance(o, TypedValue):
            continue
        try:
            strict = compare_typed(o, operator.rstrip("="), literal)
            equal = compare_typed(o, "=", literal)
        except KBError:
            continue
        if strict or (operator.endswith("=") and equal):
            found.append(s)
    ids = store.node_order(found)
    if not ids:
        return ToolOutcome.failure(
            f"no entities with {prop} {operator} {literal.render()}"
        )
    return ToolOutcome.success(atomic.NodeSet(ids))


def time_constraint(store: atomic.GraphStore, grounder: Grounder, nodes: atomic.NodeSet,
                    relation: str, literal: str, eval_year: int) -> ToolOutcome:
    """atomic.time_constraint scanning every triple per input node."""
    result = grounder.ground(relation, "relation")
    if not result.ok:
        return ToolOutcome.failure(
            format_candidate_feedback(result, relation, "relation"), result.candidates
        )
    relation = result.matched_term
    year = eval_year if str(literal).strip().upper() == "NOW" else int(str(literal).strip())
    kept = []
    for nid in nodes.ids:
        for s, p, o in store.triples:
            if s == nid and p == relation and isinstance(o, TypedValue):
                matches = (o.kind == "year" and o.value == year) or (
                    o.kind == "date" and o.value.year == year
                )
                if matches:
                    kept.append(nid)
                    break
    ids = store.node_order(kept)
    if not ids:
        return ToolOutcome.failure(f"no entities satisfy {relation} = {year}")
    return ToolOutcome.success(atomic.NodeSet(ids))


def trigram_similarity(a: str, b: str) -> float:
    """Character-trigram Jaccard on normalized terms; 1.0 iff normalized-equal."""
    na, nb = _normalize(a), _normalize(b)
    if na == nb:
        return 1.0
    return _jaccard(_trigrams(na), _trigrams(nb))


def ground(index: SchemaIndex, term: str, namespace: str, mode: str) -> GroundingResult:
    """grounding.ground re-normalizing and re-scoring every candidate per
    lookup, ties broken by vocabulary position."""
    vocabulary = index.namespace(namespace)
    if term in vocabulary:
        return GroundingResult("exact", term, ())
    norm = _normalize(term)
    for candidate in vocabulary:
        if _normalize(candidate) == norm:
            return GroundingResult("exact", candidate, ())

    scored = sorted(
        ((cand, trigram_similarity(term, cand)) for cand in vocabulary),
        key=lambda pair: (-pair[1], vocabulary.index(pair[0])),
    )
    if mode == "low":
        return GroundingResult("failed", None, tuple(scored[:MAX_CANDIDATES_LOW]))
    top = tuple(scored[:MAX_CANDIDATES_HIGH])
    for candidate, score in top:
        if score >= DEFAULT_THRESHOLD:
            return GroundingResult("soft-matched", candidate, top)
    return GroundingResult("failed", None, top)


def rank_documents(corpus: mocktools.MockCorpus, question: str) -> list:
    """mocktools.rank_documents re-normalizing and re-trigramming every
    document per search, ties broken by corpus position."""
    scored = [
        (trigram_similarity(question, f"{d.title} {d.text}"), i, d)
        for i, d in enumerate(corpus.documents)
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [d for _, _, d in scored]


# ---------------------------------------------------------------------------
# A KB's document form and the model-based (non-robust) GEE covariance

def looks_like_literal(text: str) -> bool:
    """Whether `Extract_entity` reads `text` as a literal rather than a name:
    its first token is a float, or all of it is an ISO date."""
    head = text.split()[0] if text.split() else ""
    try:
        float(head)
        return True
    except ValueError:
        pass
    try:
        datetime.date.fromisoformat(text.strip())
        return True
    except ValueError:
        return False


def typed_value_json(value: TypedValue) -> dict:
    """The document form `TypedValue.from_json` reads back into `value`."""
    doc = {"kind": value.kind,
           "value": value.value.isoformat() if value.kind == "date" else value.value}
    if value.unit is not None:
        doc["unit"] = value.unit
    return doc


def serialize_kb(kb: KnowledgeBase) -> dict:
    """The JSON document `kb.load_kb` reads back into `kb`."""
    return {
        "concepts": [
            {"id": c.id, "name": c.name, "subclass_of": list(c.subclass_of)}
            for c in kb.concepts.values()
        ],
        "entities": [
            {
                "id": e.id,
                "name": e.name,
                "instance_of": list(e.instance_of),
                "attributes": [
                    {
                        "key": a.key,
                        "value": typed_value_json(a.value),
                        "qualifiers": [
                            {"key": k, "value": typed_value_json(v)} for k, v in a.qualifiers
                        ],
                    }
                    for a in e.attributes
                ],
                "relations": [
                    {
                        "predicate": r.predicate,
                        "direction": r.direction,
                        "target": r.target,
                        "qualifiers": [
                            {"key": k, "value": typed_value_json(v)} for k, v in r.qualifiers
                        ],
                    }
                    for r in e.relations
                ],
            }
            for e in kb.entities.values()
        ],
    }


def fit_clustered_logit(X, y, clusters, names=None) -> GeeFit:
    """The clustered logit fitted row by row: IRLS over every row of X, the
    rank read from an SVD of X, and each cluster's score summed over a list
    of its row indices. Every row is its own cell."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    clusters = list(clusters)
    n, p = X.shape
    if names is None:
        names = [f"x{i}" for i in range(p)]
    if len(set(clusters)) < 2:
        raise StatsError("need at least two clusters")
    if np.linalg.matrix_rank(X) < p:
        raise RankDeficiencyError("design matrix is rank deficient")

    def fitted(beta):
        eta = X @ beta
        if np.max(np.abs(eta)) > MAX_LOGIT:
            raise SeparationError(DIVERGED)
        return 1.0 / (1.0 + np.exp(-eta))

    beta = np.zeros(p)
    converged = False
    it = 0
    for it in range(1, FIT_MAX_ITER + 1):
        mu = fitted(beta)
        w = mu * (1.0 - mu)
        A = X.T @ (X * w[:, None])
        score = X.T @ (y - mu)
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

    mu = fitted(beta)
    w = mu * (1.0 - mu)
    A_inv = np.linalg.inv(X.T @ (X * w[:, None]))
    # sum of within-cluster score outer products
    resid = y - mu
    B = np.zeros((p, p))
    by_cluster: dict = {}
    for i, c in enumerate(clusters):
        by_cluster.setdefault(c, []).append(i)
    for idx in by_cluster.values():
        s = X[idx].T @ resid[idx]
        B += np.outer(s, s)
    cov = A_inv @ B @ A_inv
    cov = (cov + cov.T) / 2.0
    unidentified = np.diag(cov) < MIN_VARIANCE_RATIO * np.diag(A_inv)
    cov[unidentified, :] = cov[:, unidentified] = 0.0
    se = np.sqrt(np.diag(cov))
    z = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
    pvals = np.array([2.0 * _normal_sf(abs(zi)) for zi in z])
    return GeeFit(names=list(names), beta=beta, cov=cov, se=se, z=z, p=pvals,
                  n_iter=it, converged=converged, n_obs=n, n_clusters=len(by_cluster),
                  n_cells=n)


def model_based_covariance(X, beta) -> np.ndarray:
    """Inverse Fisher information at beta (the non-robust covariance)."""
    X = np.asarray(X, dtype=float)
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    w = mu * (1.0 - mu)
    return np.linalg.inv(X.T @ (X * w[:, None]))


# ---------------------------------------------------------------------------
# Run summary and design matrix, one Outcome at a time

def build_design(outcomes: list[Outcome], controls: tuple[str, ...] = ()):
    """The success model's design matrix, built row by row."""
    d_star = standardize([o.depth for o in outcomes])
    b_star = standardize([o.breadth for o in outcomes])
    x_sh = [1.0 if o.planner == "sh" else 0.0 for o in outcomes]
    columns = [
        ("intercept", [1.0] * len(outcomes)),
        ("depth", d_star),
        ("breadth", b_star),
        ("sh", x_sh),
        ("depth:sh", [d * s for d, s in zip(d_star, x_sh)]),
        ("breadth:sh", [b * s for b, s in zip(b_star, x_sh)]),
    ]
    for control in controls:
        if control in ("dataset", "last_tool"):
            levels = sorted({getattr(o, control) for o in outcomes})
            for level in levels[1:]:  # first level is the reference
                columns.append((
                    f"{control}[{level}]",
                    [1.0 if getattr(o, control) == level else 0.0 for o in outcomes],
                ))
        elif control in ("has_bridge", "has_comparison"):
            columns.append((
                control,
                [1.0 if getattr(o, control) else 0.0 for o in outcomes],
            ))
        else:
            raise StatsError(f"unknown control {control!r}")
    names = [name for name, _ in columns]
    X = np.column_stack([col for _, col in columns])
    y = np.array([o.success for o in outcomes], dtype=float)
    clusters = [o.question_id for o in outcomes]
    return X, y, clusters, names


def summarize_run(outcomes: list[Outcome]) -> Report:
    """The run summary, grouped and summed row by row."""
    if not outcomes:
        raise StatsError("no outcome records to summarize")
    report = Report()
    groups: dict = {}
    for o in outcomes:
        groups.setdefault((o.dataset, o.planner), []).append(o)
    for key, group in groups.items():
        n = len(group)
        report.accuracy[key] = Fraction(sum(o.success for o in group), n)
        report.tokens_in[key] = Fraction(sum(o.tokens_in for o in group), n)
        report.tokens_out[key] = Fraction(sum(o.tokens_out for o in group), n)
        report.repetition[key] = Fraction(sum(1 for o in group if o.repeated), n)
    datasets = {d for d, _ in groups}
    for dataset in datasets:
        sh, fh = (dataset, "sh"), (dataset, "fh")
        if sh in report.accuracy and fh in report.accuracy:
            report.delta_sh[dataset] = report.accuracy[sh] - report.accuracy[fh]
            if report.tokens_in[fh]:
                report.input_ratio[dataset] = report.tokens_in[sh] / report.tokens_in[fh]
            if report.tokens_out[fh]:
                report.output_ratio[dataset] = report.tokens_out[sh] / report.tokens_out[fh]
    return report
