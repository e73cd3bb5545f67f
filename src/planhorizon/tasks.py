"""Task instances and dataset files: question, gold plan, gold answer."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
from dataclasses import dataclass, field

from . import atomic, kb as kbmod, kopl, mocktools, stats
from .plans import Plan, parse_plan

# A dataset file's "engine" field -> its engine (see `harness.Environment`)
ENGINES = {"kopl": kopl.KoplEngine, "atomic": atomic.AtomicEngine,
           "mock": mocktools.MockEngine}


# the keys a task must hold, and all the keys it may hold
REQUIRED_TASK_KEYS = ("id", "question", "gold_answer", "gold_plan")
TASK_KEYS = (*REQUIRED_TASK_KEYS, "dataset", "controls")


class DatasetError(Exception):
    pass


def _check_controls(controls, location: str) -> dict:
    """A task's `controls`: an object whose optional keys are `match_mode`
    (one of stats.MATCH_MODES) and the booleans `has_bridge` and
    `has_comparison`. Anything else raises DatasetError naming `location`."""
    if type(controls) is not dict:
        raise DatasetError(f"{location} controls must be an object, got {controls!r}")
    for key, value in controls.items():
        if key == "match_mode":
            if value not in stats.MATCH_MODES:
                raise DatasetError(f"{location} match_mode must be one of "
                                   f"{', '.join(stats.MATCH_MODES)}, got {value!r}")
        elif key in ("has_bridge", "has_comparison"):
            if type(value) is not bool:
                raise DatasetError(f"{location} {key} must be a boolean, got {value!r}")
        else:
            raise DatasetError(f"{location} controls has unknown key {key!r}; it takes "
                               "match_mode, has_bridge and has_comparison")
    return controls


@dataclass(frozen=True)
class Task:
    id: str
    question: str
    gold_plan: Plan
    gold_answer: tuple[str, ...]
    dataset: str = "fixture"
    controls: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    engine: str
    tasks: tuple[Task, ...]
    env_factory: object  # robustness mode -> Environment

    def make_env(self, robustness: str = "high"):
        return self.env_factory(robustness)


def load_dataset(path, hold: StoreHold | None = None) -> Dataset:
    """The dataset in the task file at `path`, with its data file's store:
    the one `hold` keeps while the file's bytes are unchanged, given a hold,
    else a store loaded afresh. The task file, its plans and the engine
    factory are built on every call; every task is checked before the store
    loads, so a rejected task file loads nothing and leaves `hold` as it was.

    The cyclic collector is paused while the files decode and the store
    builds (Mercurial's `util.nogc`): the ~85,000 objects of a 2,000-entity KB
    are acyclic and live for the whole run, or as long as a hold keeps them,
    so a collection meanwhile only re-walks them. The caller's collector
    state is restored on return or raise."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = kbmod.read_document(path)
        engine = doc.get("engine")
        if type(engine) is not str or engine not in ENGINES:
            raise DatasetError(f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
        engine_type = ENGINES[engine]
        data_key = engine_type.data_key
        keys = ("engine", data_key, "tasks", *engine_type.settings)
        for key in doc:
            if key not in keys:
                raise DatasetError(f"unknown {engine} task file key {key!r}; it holds "
                                   f"{', '.join(keys)}")
        if not isinstance(doc.get(data_key), str):
            raise DatasetError(f"a {engine} dataset needs a {data_key!r} file name")
        for name, kind in engine_type.settings.items():
            if name in doc and type(doc[name]) is not kind:
                raise DatasetError(f"{name} must be {kind.__name__}, got {doc[name]!r}")
        tasks = _read_tasks(doc, engine_type.params)
        data_path = os.path.join(os.path.dirname(os.path.abspath(path)), doc[data_key])
        store = (hold.store(engine, engine_type.load, data_path) if hold is not None
                 else engine_type.load(kbmod.read_document(data_path)))
        settings = {name: doc[name] for name in engine_type.settings if name in doc}
        return Dataset(engine=engine, tasks=tasks,
                       env_factory=functools.partial(engine_type, store, **settings))
    finally:
        if enabled:
            gc.enable()


class StoreHold:
    """Loaded stores that outlive a dataset, for the caller that owns the
    hold: one per engine kind, with the SHA-256 digest of the data file's
    bytes it was loaded from. A load of the same bytes reuses the store,
    every table it built on first use and its schema index (`build_index`,
    with each mode's grounding memo); a load of other bytes releases it
    first, so the hold never keeps two of one kind. The key is the content, not
    a path or mtime, so a rewritten file is never served stale, and only the
    digest is kept, not the bytes. Stores are frozen and no tool mutates one,
    so reuse changes no output. `loads` and `reuses` count the stores built
    and the stores handed out again."""

    def __init__(self):
        self._held: dict[str, tuple[bytes, object]] = {}
        self.loads = 0
        self.reuses = 0

    def store(self, engine: str, loader, path: str):
        """The store of kind `engine` in the data file at `path`: the held
        one when the file's bytes are those it was loaded from, else
        `loader`'s. A load that raises leaves none of its kind held."""
        with open(path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).digest()
        held = self._held.get(engine)
        if held is not None and held[0] == digest:
            self.reuses += 1
            return held[1]
        self._held.pop(engine, None)
        doc = kbmod.decode_document(data, path)
        del data  # not kept while the store builds
        self._held[engine] = digest, loader(doc)
        self.loads += 1
        return self._held[engine][1]


def _read_tasks(doc: dict, params: dict) -> tuple[Task, ...]:
    """The tasks of dataset `doc`, their gold plans parsed against `params`."""
    tasks, ids = [], set()
    raw_tasks = kbmod.require_list(doc, "tasks")
    if not raw_tasks:
        raise DatasetError("a dataset needs a non-empty list of tasks")
    for i, t in enumerate(raw_tasks):
        if not isinstance(t, dict) or any(k not in t for k in REQUIRED_TASK_KEYS):
            raise DatasetError(f"tasks[{i}] needs {', '.join(REQUIRED_TASK_KEYS[:-1])} "
                               f"and {REQUIRED_TASK_KEYS[-1]}")
        for key in t:
            if key not in TASK_KEYS:
                raise DatasetError(f"tasks[{i}] has unknown key {key!r}; a task holds "
                                   f"{', '.join(TASK_KEYS)}")
        if type(t["id"]) is not str or t["id"] in ids:
            raise DatasetError(f"tasks[{i}] id must be a string no other task has, "
                               f"got {t['id']!r}")
        ids.add(t["id"])
        if type(t["question"]) is not str:
            raise DatasetError(f"tasks[{i}] question must be a string, got {t['question']!r}")
        answer = t["gold_answer"]
        if type(answer) is not list or not answer or any(type(a) is not str for a in answer):
            raise DatasetError(f"tasks[{i}] gold_answer must be a non-empty list of "
                               f"strings, got {answer!r}")
        if type(t.get("dataset", "")) is not str:
            raise DatasetError(f"tasks[{i}] dataset must be a string, got {t['dataset']!r}")
        try:
            plan = parse_plan(json.dumps(t["gold_plan"]), params)
        except Exception as exc:
            raise DatasetError(f"tasks[{i}] gold plan invalid: {exc}")
        tasks.append(Task(
            id=t["id"],
            question=t["question"],
            gold_plan=plan,
            gold_answer=tuple(t["gold_answer"]),
            dataset=t.get("dataset", "fixture"),
            controls=_check_controls(t.get("controls", {}), f"tasks[{i}]"),
        ))
    return tuple(tasks)
