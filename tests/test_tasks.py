import gc
import hashlib
import json
import os
import weakref

import pytest

from planhorizon import atomic, cli, kb, mocktools, tasks

# a task any KoPL store can load: its plan is checked against the catalog only
ONE_TASK = {"id": "t", "question": "q?", "gold_answer": ["Ann"],
            "gold_plan": [{"tool": "Find", "args": {"name": "Ann"}}]}


class TestLoadDataset:
    @pytest.mark.parametrize("name,module,loader", [
        ("kopl_tasks.json", kb, "load_kb"),
        ("atomic_tasks.json", atomic, "load_graph"),
        ("mock_tasks.json", mocktools, "load_corpus"),
    ])
    def test_loaders_are_looked_up_at_call_time(self, fixtures_dir, monkeypatch,
                                                name, module, loader):
        loaded = []
        original = getattr(module, loader)
        monkeypatch.setattr(module, loader,
                            lambda path: loaded.append(path) or original(path))
        tasks.load_dataset(fixtures_dir / name)
        assert len(loaded) == 1

    def test_engines(self, kopl_dataset, atomic_dataset, mock_dataset):
        assert kopl_dataset.engine == "kopl"
        assert atomic_dataset.engine == "atomic"
        assert mock_dataset.engine == "mock"

    # a task file without tasks: `run` exits 2 before it writes a file, and
    # `validate` reports the file invalid
    @pytest.mark.parametrize("empty", [[], None], ids=["empty", "null"])
    def test_a_dataset_needs_a_task(self, tmp_path, fixtures_dir, capsys, empty):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"engine": "kopl", "kb": str(fixtures_dir / "mini_kb.json"),
                                    "tasks": empty}))
        (tmp_path / "config.json").write_text(json.dumps({"dataset": "d.json"}))
        assert cli.main(["run", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("config error: a dataset needs a non-empty list "
                                     "of tasks\n")
        assert not (tmp_path / "run").exists()
        assert cli.main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "invalid: a dataset needs a non-empty list of tasks\n"

    def test_unknown_engine(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"engine": "sparql", "tasks": []}))
        with pytest.raises(tasks.DatasetError):
            tasks.load_dataset(path)

    # the collector is paused while a dataset loads, and left as the caller
    # had it, whether the load returns or raises
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("entities", [[], [5]], ids=["returns", "raises"])
    def test_collector_state_is_restored(self, tmp_path, enabled, entities):
        (tmp_path / "kb.json").write_text(json.dumps({"entities": entities}))
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"engine": "kopl", "kb": "kb.json", "tasks": [ONE_TASK]}))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if entities:
                with pytest.raises(kb.MalformedDocumentError):
                    tasks.load_dataset(path)
            else:
                tasks.load_dataset(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_invalid_gold_plan_rejected_at_load(self, tmp_path, fixtures_dir):
        doc = {
            "engine": "kopl",
            "kb": str(fixtures_dir / "mini_kb.json"),
            "tasks": [{
                "id": "bad", "question": "?", "gold_answer": ["x"],
                "gold_plan": [{"tool": "Teleport", "args": {}}],
            }],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(tasks.DatasetError) as err:
            tasks.load_dataset(path)
        assert "tasks[0]" in str(err.value)

    def test_mock_low_robustness_restricts_to_top_one(self, mock_dataset):
        assert mock_dataset.make_env("high").top_k == 10
        assert mock_dataset.make_env("low").top_k == 1

    def test_controls_threaded_through(self, mock_dataset):
        task = next(t for t in mock_dataset.tasks if t.id == "mock-same-city")
        assert task.controls["has_bridge"] is True
        assert task.dataset == "mock-wiki"


# A StoreHold keeps one store per engine kind, keyed by the digest of its data
# file's bytes; load_dataset without one loads afresh.
# (task file, loader module, loader, the task-file key naming the data file)
ENGINE_STORES = [("kopl_tasks.json", kb, "load_kb", "kb"),
                 ("atomic_tasks.json", atomic, "load_graph", "graph"),
                 ("mock_tasks.json", mocktools, "load_corpus", "corpus")]


def counting(monkeypatch, module, loader):
    """The paths or documents `module.loader` is called with from now on."""
    loaded = []
    original = getattr(module, loader)
    monkeypatch.setattr(module, loader,
                        lambda source: loaded.append(source) or original(source))
    return loaded


def kb_dataset(tmp_path, name: str, entity_name: str):
    """A KoPL task file over a one-entity KB file `name`."""
    (tmp_path / name).write_text(json.dumps(
        {"entities": [{"id": "e", "name": entity_name}]}))
    path = tmp_path / f"{name}.tasks.json"
    path.write_text(json.dumps({"engine": "kopl", "kb": name, "tasks": [ONE_TASK]}))
    return path


class TestStoreHold:
    @pytest.mark.parametrize("name,module,loader,data_key", ENGINE_STORES)
    def test_one_load_per_file(self, fixtures_dir, monkeypatch, name, module, loader,
                               data_key):
        loaded = counting(monkeypatch, module, loader)
        hold = tasks.StoreHold()
        first, second = (tasks.load_dataset(fixtures_dir / name, hold) for _ in range(2))
        assert len(loaded) == 1 and (hold.loads, hold.reuses) == (1, 1)
        assert first.make_env().store is second.make_env().store
        # the task file and its plans are built on every call
        assert first.tasks == second.tasks and first.tasks is not second.tasks
        # the data file's digest and the store, never the file's bytes
        [(digest, store)] = hold._held.values()
        data_file = fixtures_dir / json.loads((fixtures_dir / name).read_text())[data_key]
        assert digest == hashlib.sha256(data_file.read_bytes()).digest()
        assert store is first.make_env().store
        # without a hold, every call loads afresh
        assert tasks.load_dataset(fixtures_dir / name).make_env().store is not store
        assert len(loaded) == 2

    def test_rewritten_file_loads_afresh(self, tmp_path, monkeypatch):
        path = kb_dataset(tmp_path, "kb.json", "Ann")
        loaded = counting(monkeypatch, kb, "load_kb")
        hold = tasks.StoreHold()
        before = tasks.load_dataset(path, hold).make_env().store
        kb_file = tmp_path / "kb.json"
        stat = kb_file.stat()
        kb_file.write_text(kb_file.read_text().replace("Ann", "Bob"))
        # the same length and modification time: only the bytes differ
        os.utime(kb_file, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert kb_file.stat().st_size == stat.st_size
        assert kb_file.stat().st_mtime_ns == stat.st_mtime_ns
        after = tasks.load_dataset(path, hold).make_env().store
        assert len(loaded) == 2 and after is not before
        assert [e.name for e in after.entities.values()] == ["Bob"]

    def test_another_file_releases_the_held_store(self, tmp_path, fixtures_dir):
        hold = tasks.StoreHold()
        first = weakref.ref(tasks.load_dataset(kb_dataset(tmp_path, "a.json", "Ann"), hold)
                            .make_env().store)
        graph = weakref.ref(tasks.load_dataset(fixtures_dir / "atomic_tasks.json", hold)
                            .make_env().store)
        second = tasks.load_dataset(kb_dataset(tmp_path, "b.json", "Bob"), hold).make_env().store
        gc.collect()
        assert first() is None
        # a store of another engine stays held
        assert graph() is not None
        assert hold._held["kopl"][1] is second and hold._held["atomic"][1] is graph()

    def test_failed_load_raises_on_every_call(self, tmp_path, monkeypatch):
        (tmp_path / "kb.json").write_text(json.dumps({"entities": [5]}))
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"engine": "kopl", "kb": "kb.json", "tasks": [ONE_TASK]}))
        loaded = counting(monkeypatch, kb, "load_kb")
        hold = tasks.StoreHold()
        errors = []
        for use in (hold, hold, None):
            with pytest.raises(kb.MalformedDocumentError) as err:
                tasks.load_dataset(path, use)
            errors.append(str(err.value))
        # the same error with a hold as without one
        assert errors[0] == errors[1] == errors[2] and len(loaded) == 3
        assert hold._held == {} and hold.loads == 0

    @pytest.mark.parametrize("content", [b"[1]", b"\xff{}", b"{"])
    def test_bad_data_file_fails_as_without_a_hold(self, tmp_path, content):
        (tmp_path / "kb.json").write_bytes(content)
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"engine": "kopl", "kb": "kb.json", "tasks": [ONE_TASK]}))
        errors = []
        for use in (None, tasks.StoreHold()):
            with pytest.raises(Exception) as err:
                tasks.load_dataset(path, use)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    # the tasks are checked before the store loads: a rejected task file
    # loads nothing, so the held store of its kind stays held
    def test_bad_task_file_keeps_the_held_store(self, tmp_path, monkeypatch):
        hold = tasks.StoreHold()
        held = tasks.load_dataset(kb_dataset(tmp_path, "a.json", "Ann"), hold).make_env().store
        (tmp_path / "b.json").write_text('{"entities": [5]}')  # a bad data file too
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"engine": "kopl", "kb": "b.json",
                                    "tasks": [{**ONE_TASK, "question": 5}]}))
        loaded = counting(monkeypatch, kb, "load_kb")
        for use in (hold, None):
            with pytest.raises(tasks.DatasetError, match=r"tasks\[0\] question"):
                tasks.load_dataset(path, use)
        assert loaded == [] and (hold.loads, hold.reuses) == (1, 0)
        assert hold._held["kopl"][1] is held

    def test_deleted_file_is_a_config_error(self, tmp_path, capsys):
        path = kb_dataset(tmp_path, "kb.json", "Ann")
        hold = tasks.StoreHold()
        tasks.load_dataset(path, hold)
        assert "kopl" in hold._held
        (tmp_path / "kb.json").unlink()
        with pytest.raises(FileNotFoundError):
            tasks.load_dataset(path, hold)
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
