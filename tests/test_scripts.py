"""The example scripts run to completion."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from planhorizon import tasks

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/run_demo.py"],
    ["scripts/fit_synthetic_gee.py", "--questions", "60", "--trials", "2"],
])
def test_script_exits_zero(argv, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / argv[0]), *argv[1:]], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_reproduce_grid_loads_each_store_once(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("reproduce", ROOT / "scripts" / "reproduce.py")
    reproduce = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reproduce)
    loads = []
    load_dataset = tasks.load_dataset
    monkeypatch.setattr(tasks, "load_dataset", lambda path: loads.append(path) or load_dataset(path))
    out = tmp_path / "repro"
    assert reproduce.main(["--out", str(out), "--small", "--seeds", "2", "--trials", "1"]) == 0
    # 3 suites x 2 policies x 2 robustness levels x 2 seeds, one load per suite
    assert len(loads) == len(set(loads)) == 3
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("24 runs in ") and last.endswith(" s: 3 stores loaded")
    # each cell is a run config checked in memory, never a file
    assert not list(out.glob("*/grid_*.json"))
    rows = (out / "table.md").read_text().splitlines()[2:]
    assert len(rows) == 12
    assert len(list((out / "runs").iterdir())) == 24
