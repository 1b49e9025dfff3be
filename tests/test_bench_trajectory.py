"""``bench_trajectory.py --baseline``: the tree it measures an earlier
commit in, and the order of its paired runs. No workload runs here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_tree_holds_the_commit_src_and_this_perfbench(tmp_path):
    trajectory = _load()
    try:
        head = trajectory.git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    assert trajectory.baseline_tree("HEAD", tmp_path) == head
    committed = trajectory.git("show", "HEAD:src/ftecsim/decoders.py")
    assert (tmp_path / "src/ftecsim/decoders.py").read_text().strip() == committed
    assert (tmp_path / "perfbench/run.py").read_bytes() == (ROOT / "perfbench/run.py").read_bytes()
    assert (tmp_path / "BENCHMARK.json").read_bytes() == (ROOT / "BENCHMARK.json").read_bytes()
    assert not list(tmp_path.rglob("__pycache__"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench", "src"]


def test_paired_runs_sit_together_and_alternate_sides(monkeypatch, tmp_path):
    trajectory = _load()
    calls = []

    def workload(name, trace, root=trajectory.ROOT):
        calls.append((name, trace, "new" if root == trajectory.ROOT else "old"))
        return {"name": name, "root": root}

    monkeypatch.setattr(trajectory, "workload", workload)
    new, old = trajectory.paired(["a", "b", "c"], tmp_path)
    assert calls == [("a", 0, "new"), ("a", 0, "old"), ("b", 0, "old"), ("b", 0, "new"),
                     ("c", 0, "new"), ("c", 0, "old")]
    assert new == {w: {"name": w, "root": trajectory.ROOT} for w in "abc"}
    assert old == {w: {"name": w, "root": tmp_path} for w in "abc"}
