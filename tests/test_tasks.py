import gc
import json

import pytest

from planhorizon import atomic, kb, mocktools, tasks


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
