#!/usr/bin/env python3
"""Self-test of the benchmark's checker and tracer; runs offline.

    python3 perfbench/selftest.py

Each case feeds the checker a known-bad (or known-good) input and expects
its verdict: a table with one digit changed, a table with a ``nan`` cell,
an oracle table whose printed z-score ``C_mc`` does not give, one whose
``C_mc`` is 6.9 standard errors off, one whose ``C_mc`` differs from the
reference at the reference's seed, and a command that exits 2 must be
rejected; a flip of the last printed digit, a provenance key added later
and the same ``C_mc`` change at another seed must be accepted.  It also checks that a wrapped name missing
from the program is reported absent, and that ``BENCHMARK.json`` lists the
metrics ``run.py`` reports.  Exit code 0 when every case holds.
"""

from __future__ import annotations

import json
import os
import sys

import run
from check import REFERENCE, check_table

SCRATCH = run.WORK / "selftest"


def _edit(cmd_id: str, edit) -> str:
    """Copy a reference table through ``edit(lines) -> lines`` into scratch."""
    lines = (REFERENCE / f"{cmd_id}.csv").read_text().splitlines(keepends=True)
    path = SCRATCH / f"{cmd_id}.csv"
    path.write_text("".join(edit(lines)))
    return str(path)


def _set_cell(row: int, col: int, transform):
    def edit(lines):
        body = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        cells = lines[body + row].rstrip("\n").split(",")
        cells[col] = transform(cells[col])
        lines[body + row] = ",".join(cells) + "\n"
        return lines
    return edit


def _change_digit(position: int):
    """Change the ``position``-th significant digit of a cell."""
    def transform(cell: str) -> str:
        seen = 0
        for i, ch in enumerate(cell):
            if ch.isdigit() and (seen or ch != "0"):
                seen += 1
                if seen == position:
                    return cell[:i] + str((int(ch) + 1) % 10) + cell[i + 1:]
        raise ValueError(f"{cell!r} has fewer than {position} digits")
    return transform


def _shift_mc(row: int, sigmas: float, seed: int):
    """Move one oracle ``C_mc`` by ``sigmas`` standard errors, print a matching
    ``z_score`` and name ``seed`` in the header: a consistent table of other draws."""
    def edit(lines):
        lines = [f"# seed: {seed}\n" if line.startswith("# seed:") else line for line in lines]
        body = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        cells = lines[body + row].rstrip("\n").split(",")
        analytic, mc, se = (float(c) for c in cells[2:5])
        mc += sigmas * se
        cells[3], cells[5] = repr(mc), repr((mc - analytic) / se)
        lines[body + row] = ",".join(cells) + "\n"
        return lines
    return edit


def cases():
    """(title, whether every table must be rejected, [(command id, path, seed)])."""
    yield "every reference table passes", False, [
        (cid, str(REFERENCE / f"{cid}.csv"), 1 if cid.startswith("oracle") else None)
        for cid in sorted(p.stem for p in REFERENCE.glob("*.csv"))]
    yield "digit 8 of one pcf cell changed: rejected", True, [
        ("pcf-fig3", _edit("pcf-fig3", _set_cell(40, 5, _change_digit(8))), None)]
    yield "digit 5 of one contrast cell changed: rejected", True, [
        ("contrast-fig8", _edit("contrast-fig8", _set_cell(300, 3, _change_digit(5))), None)]
    yield "last printed digit flipped (reordered sums): accepted", False, [
        ("pcf-fig3", _edit("pcf-fig3", _set_cell(40, 5, _change_digit(12))), None)]
    yield "nan cell: rejected", True, [
        ("pcf-fig4", _edit("pcf-fig4", _set_cell(10, 3, lambda _: "nan")), None)]
    yield "front velocity changed: rejected", True, [
        ("front-fig3", _edit("front-fig3", lambda ls: [
            line.replace("velocity_mm_per_s: 3", "velocity_mm_per_s: 4") for line in ls]),
         None)]
    yield "recurrence strength changed: rejected", True, [
        ("recurrence-fig7", _edit("recurrence-fig7", lambda ls: [
            line.replace("strength=0.8", "strength=0.7") for line in ls]), None)]
    yield "provenance key added later: accepted", False, [
        ("pcf-fig3", _edit("pcf-fig3", lambda ls: ["# new_diagnostic: 42\n", *ls]), None)]
    yield "oracle z_score of 6 that C_mc does not give: rejected", True, [
        ("oracle-fig4", _edit("oracle-fig4", _set_cell(3, 5, lambda _: "6.0")), 1)]
    yield "oracle C_mc moved by 0.5 stderr at the reference seed: rejected", True, [
        ("oracle-fig3", _edit("oracle-fig3", _shift_mc(7, 0.5, 1)), 1)]
    yield "oracle C_mc moved by 0.5 stderr at another seed: accepted", False, [
        ("oracle-fig3", _edit("oracle-fig3", _shift_mc(7, 0.5, 2)), 2)]
    yield "oracle C_mc moved by 8 stderr (z = 6.9) at another seed: rejected", True, [
        ("oracle-fig4", _edit("oracle-fig4", _shift_mc(3, 8.0, 2)), 2)]


def _exit_2_is_failed() -> bool:
    bad = run.Command("params-fig4", ["params", "--preset", "fig9"])
    res = run.run_command(bad, run.child_env(), SCRATCH, 60, traced=False)
    return res.code == 2 and res.failed


def _missing_wrapped_name_is_absent() -> bool:
    import bootstrap

    bootstrap.WRAPPED += (("splitgas.trapped", "no_such_function"),
                          ("splitgas.no_such_module", "f"))
    wrapped, absent = bootstrap.install(bootstrap.Tracer())
    return (absent == ["trapped.no_such_function", "no_such_module.f"]
            and "trapped.legendre_f_table" in wrapped)


def _benchmark_json_matches() -> bool:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
            and [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
            and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))


def main() -> int:
    sys.path.insert(1, str(run.SRC))
    os.makedirs(SCRATCH, exist_ok=True)
    ok = True
    for title, reject, tables in cases():
        verdicts = [check_table(cid, path, seed) for cid, path, seed in tables]
        good = all(verdicts) if reject else not any(verdicts)
        detail = "" if good else f"  {verdicts}"
        print(f"{'PASS' if good else 'FAIL'}  {title}{detail}")
        ok &= good
    for title, test in (("command exiting 2 counts as failed", _exit_2_is_failed),
                        ("wrapped name missing from the program is absent",
                         _missing_wrapped_name_is_absent),
                        ("BENCHMARK.json lists the metrics run.py reports",
                         _benchmark_json_matches)):
        good = test()
        print(f"{'PASS' if good else 'FAIL'}  {title}")
        ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
