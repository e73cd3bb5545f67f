import gc
import json
import os
import weakref

import pytest

from planhorizon import atomic, cli, kb, mocktools, tasks


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
        path.write_text(json.dumps({"engine": "kopl", "kb": "kb.json", "tasks": []}))
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
ENGINE_STORES = [("kopl_tasks.json", kb, "load_kb", "kb"),
                 ("atomic_tasks.json", atomic, "load_graph", "store"),
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
    path.write_text(json.dumps({"engine": "kopl", "kb": name, "tasks": []}))
    return path


class TestStoreHold:
    @pytest.mark.parametrize("name,module,loader,attr", ENGINE_STORES)
    def test_one_load_per_file(self, fixtures_dir, monkeypatch, name, module, loader, attr):
        loaded = counting(monkeypatch, module, loader)
        hold = tasks.StoreHold()
        first, second = (tasks.load_dataset(fixtures_dir / name, hold) for _ in range(2))
        assert len(loaded) == 1 and (hold.loads, hold.reuses) == (1, 1)
        assert getattr(first.make_env(), attr) is getattr(second.make_env(), attr)
        # the task file and its plans are built on every call
        assert first.tasks == second.tasks and first.tasks is not second.tasks
        # the digest and the store, never the file's bytes
        [(digest, store)] = hold._held.values()
        assert len(digest) == 32 and store is getattr(first.make_env(), attr)
        # without a hold, every call loads afresh
        assert getattr(tasks.load_dataset(fixtures_dir / name).make_env(), attr) is not store
        assert len(loaded) == 2

    def test_rewritten_file_loads_afresh(self, tmp_path, monkeypatch):
        path = kb_dataset(tmp_path, "kb.json", "Ann")
        loaded = counting(monkeypatch, kb, "load_kb")
        hold = tasks.StoreHold()
        before = tasks.load_dataset(path, hold).make_env().kb
        kb_file = tmp_path / "kb.json"
        stat = kb_file.stat()
        kb_file.write_text(kb_file.read_text().replace("Ann", "Bob"))
        # the same length and modification time: only the bytes differ
        os.utime(kb_file, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert kb_file.stat().st_size == stat.st_size
        assert kb_file.stat().st_mtime_ns == stat.st_mtime_ns
        after = tasks.load_dataset(path, hold).make_env().kb
        assert len(loaded) == 2 and after is not before
        assert [e.name for e in after.entities.values()] == ["Bob"]

    def test_another_file_releases_the_held_store(self, tmp_path, fixtures_dir):
        hold = tasks.StoreHold()
        first = weakref.ref(tasks.load_dataset(kb_dataset(tmp_path, "a.json", "Ann"), hold)
                            .make_env().kb)
        graph = weakref.ref(tasks.load_dataset(fixtures_dir / "atomic_tasks.json", hold)
                            .make_env().store)
        second = tasks.load_dataset(kb_dataset(tmp_path, "b.json", "Bob"), hold).make_env().kb
        gc.collect()
        assert first() is None
        # a store of another engine stays held
        assert graph() is not None
        assert hold._held["kopl"][1] is second and hold._held["atomic"][1] is graph()

    def test_failed_load_raises_on_every_call(self, tmp_path, monkeypatch):
        (tmp_path / "kb.json").write_text(json.dumps({"entities": [5]}))
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"engine": "kopl", "kb": "kb.json", "tasks": []}))
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
        path.write_text(json.dumps({"engine": "kopl", "kb": "kb.json", "tasks": []}))
        errors = []
        for use in (None, tasks.StoreHold()):
            with pytest.raises(Exception) as err:
                tasks.load_dataset(path, use)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

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
