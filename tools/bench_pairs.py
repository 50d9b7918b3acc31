#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written as ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --number 9 --parent HEAD --change "what changed" \\
        --workload compute --workload cli_presets --pairs 6 --first-seed 901

Run from the repository root.  The parent is a ``git archive`` of
``--parent`` unpacked into a temporary directory; the change is a copy of
the working tree's tracked files and its untracked files that are not
ignored, staged into a sibling directory of the same name length, so that
the two sides differ only in code, not in where they run from.  Pair k
runs the parent first when k is even and second when it is odd, both
sides with the same fresh seed, so that host drift falls on both sides
alike.  Seeds count up from ``--first-seed`` across all pairs of all
workloads.

For each workload and end-to-end metric of ``BENCHMARK.json`` the file
holds both sides' median, quartiles and runs, the pairs the change wins
(its value is better by the metric's ``better`` direction), ties, the
relative change of the median and the parent's interquartile range, plus
the seeds, which side ran first in each pair, and the failed/attempted
command counts.  ``--trace-seed S`` adds one ``--trace 1`` run per side and
workload, stored as ``trace_<workload>_seed<S>`` with each per-layer
metric's parent and change value.

The file is rewritten after every pair, so an interrupted session keeps
the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"


def archive(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into ``dest``; return the short commit id."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(tar), commit], cwd=ROOT, check=True)
    with tarfile.open(tar) as t:
        t.extractall(dest, filter="data")
    tar.unlink()
    return commit


def stage(dest: Path, root: Path = ROOT) -> None:
    """Copy ``root``'s tracked files and its untracked, not ignored, files into ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, check=True,
                            capture_output=True).stdout.split(b"\0")
    for name in filter(None, listed):
        src = root / os.fsdecode(name)
        if not os.path.lexists(src):   # tracked, but deleted in the working tree
            continue
        target = dest / os.fsdecode(name)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, target, follow_symlinks=False)


def run_bench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``perfbench/run.py`` run in ``tree`` at its default length; its result object."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def side_stats(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in runs]}


def compare(parent: list, change: list, better: str) -> dict:
    """Both sides' statistics and the pairwise verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    out = {"parent": side_stats(parent), "change": side_stats(change),
           "change_wins": wins, "ties": ties, "pairs": len(parent)}
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out["median_change_rel"] = round((cm - pm) / pm, 4) if pm else None
    out["parent_iqr"] = round(out["parent"]["q3"] - out["parent"]["q1"], 6)
    return out


def summarise(results: list, metrics: list) -> dict:
    """One workload's entry from its ``(seed, first, {side: result})`` pairs."""
    entry = {"pairs": len(results), "seeds": [s for s, _, _ in results],
             "first_in_pair": [f for _, f, _ in results],
             "failed": {side: sum(r[side]["failed"] for _, _, r in results) for side in SIDES},
             "attempted": {side: sum(r[side]["attempted"] for _, _, r in results)
                           for side in SIDES},
             "metrics": {}}
    if len(results) >= 2:
        for m in metrics:
            runs = {side: [r[side]["metrics"][m["name"]]["value"] for _, _, r in results]
                    for side in SIDES}
            entry["metrics"][m["name"]] = compare(runs["parent"], runs["change"], m["better"])
    return entry


def host() -> str:
    return (f"{os.cpu_count()} vCPU, Python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}, each child pinned to 1 BLAS thread "
            "by the harness")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--change", required=True, help="one line: what the change is")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    out = ROOT / f"BENCH_{args.number}.json"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    # on SIGTERM, unwind: the running child is killed and the temp tree removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commit = archive(args.parent, trees["parent"])
        stage(trees["change"])
        doc = {"change": args.change, "parent_commit": commit,
               "command": f"python3 {RUN} --workload W --seed S "
                          "(default --seconds, --trace 0)",
               "method": (f"parent from a git archive copy of {commit}, change from a copy "
                          "of the working tree's tracked and untracked, not ignored, "
                          "files, each in a sibling temporary directory; alternating "
                          "pairs, the parent runs first in even "
                          f"pairs and second in odd pairs; quartiles are {QUARTILES} over "
                          "the pairs; change_wins counts pairs where the change's value "
                          "is better"),
               "host": host(), "workloads": {}}
        seed = args.first_seed
        for workload in args.workload:
            results = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                res = {side: run_bench(trees[side], workload, seed, False)
                       for side in order}
                results.append((seed, order[0], res))
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} {res[side]['metrics']['wall_s']['value']:.3f} s"
                    for side in SIDES), flush=True)
                seed += 1
                doc["workloads"][workload] = summarise(results, metrics)
                out.write_text(json.dumps(doc, indent=1) + "\n")
        if args.trace_seed is not None:
            for workload in args.workload:
                res = {side: run_bench(trees[side], workload, args.trace_seed, True)
                       for side in SIDES}
                doc[f"trace_{workload}_seed{args.trace_seed}"] = {"metrics": {
                    name: {"parent": m["value"],
                           "change": res["change"]["metrics"][name]["value"],
                           "unit": m["unit"]}
                    for name, m in res["parent"]["metrics"].items()}}
                out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
