"""The pair summary of tools/bench_pairs.py, on recorded runs (no benchmark is run)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reproduces_recorded_summary(bench_pairs):
    recorded = json.loads((ROOT / "BENCH_8.json").read_text())
    for workload in recorded["workloads"].values():
        for name, entry in workload["metrics"].items():
            got = bench_pairs.compare(entry["parent"]["runs"], entry["change"]["runs"], "lower")
            # the recorded quartiles came from unrounded runs: allow the 1e-6 rounding
            for side in ("parent", "change"):
                assert got[side] == pytest.approx(entry[side], abs=2e-6), name
            for key in ("change_wins", "ties", "pairs", "median_change_rel", "parent_iqr"):
                assert got[key] == pytest.approx(entry[key], abs=2e-6), (name, key)


def test_summarise_schema_and_direction(bench_pairs):
    def result(wall, failed=0):
        return {"attempted": 4, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "score": {"value": wall, "unit": "1"}}}

    pairs = [(11, "parent", {"parent": result(2.0), "change": result(1.5)}),
             (12, "change", {"parent": result(2.2), "change": result(2.2, failed=1)}),
             (13, "parent", {"parent": result(1.9), "change": result(2.0)})]
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "score", "better": "higher"}]
    entry = bench_pairs.summarise(pairs, metrics)
    assert entry["seeds"] == [11, 12, 13]
    assert entry["first_in_pair"] == ["parent", "change", "parent"]
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 12, "change": 12}
    wall, score = entry["metrics"]["wall_s"], entry["metrics"]["score"]
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (1, 1, 3)
    assert (score["change_wins"], score["ties"]) == (1, 1)
    assert wall["parent"]["median"] == 2.0 and wall["change"]["median"] == 2.0
    assert wall["parent"]["runs"] == [2.0, 2.2, 1.9]


def test_stage_copies_tracked_and_untracked_but_not_ignored(bench_pairs, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "change"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "tracked.py").write_text("old\n")
    (repo / "gone.txt").write_text("deleted in the working tree\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "pkg" / "tracked.py").write_text("modified\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("build output\n")
    (repo / "gone.txt").unlink()
    bench_pairs.stage(dest, repo)
    assert (dest / "pkg" / "tracked.py").read_text() == "modified\n"
    assert (dest / "pkg" / "new.py").read_text() == "untracked\n"
    assert (dest / ".gitignore").exists()
    assert not (dest / "ignored.txt").exists()
    assert not (dest / "gone.txt").exists()
