#!/usr/bin/env python3
"""Regenerate the reference tables the output check compares against.

    python3 perfbench/make_reference.py

Runs every workload command once (the oracle with seed 1) under the
benchmark's environment and stores each table as ``reference/<id>.csv``.
Only do this at a commit whose tables are known to be right: the check
exists to catch later changes to them.
"""

from __future__ import annotations

import shutil
import sys

from run import CLI_CODE, PY, WORK, WORKLOADS, child_env, spawn, workload_commands
from check import REFERENCE


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    env = child_env()
    for workload in WORKLOADS:
        for cmd in workload_commands(workload, seed=1):
            out = WORK / f"{cmd.id}.csv"
            _, _, code = spawn([PY, "-c", CLI_CODE, *cmd.argv, "--out", str(out)], env, 170)
            if code != 0:
                print(f"{cmd.id}: exit {code}", file=sys.stderr)
                return 1
            shutil.copyfile(out, REFERENCE / out.name)
            print(f"{cmd.id}: {REFERENCE / out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
