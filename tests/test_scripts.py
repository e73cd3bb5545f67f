"""The example scripts run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

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


def test_reproduce_grid_loads_each_store_once(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce.py"), "--out",
                           "repro", "--small", "--seeds", "2", "--trials", "1"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # 3 suites x 2 policies x 2 robustness levels x 2 seeds, one load per suite
    assert done.stdout.splitlines()[-1].startswith("24 runs in ")
    assert done.stdout.splitlines()[-1].endswith(": 3 loaded a store, 21 reused one")
    rows = (tmp_path / "repro" / "table.md").read_text().splitlines()[2:]
    assert len(rows) == 12
    assert len(list((tmp_path / "repro" / "runs").iterdir())) == 24
