#!/usr/bin/env python3
"""Time-to-table benchmark for the splitgas command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, summary table

Run from the repository root; the package is imported from ``src/``.

Load model: a closed loop with one client.  A workload is a list of CLI
commands run back to back, each in a fresh interpreter pinned to one
BLAS/OpenMP thread, so interpreter start and package import are part of
every command, as they are for a user.  A run repeats the whole list (a
"pass") until ``--seconds`` have been spent, at least twice, and reports
the median pass.  Every table written is checked (``check.py``); a command that
exits non-zero, times out or fails the check counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: summed wall time from spawning each command's child to its exit;
- ``peak_rss_mb``: largest peak RSS of any single child (``os.wait4``);
- ``setup_s``: median time for a fresh interpreter to import splitgas and
  resolve every public name it exports.  About ``SETUP_PER_PASS`` such
  children run in each pass, spaced evenly between its commands, and more
  after the last pass up to ``SETUP_MIN``, so that the median samples the
  host over the whole run, as ``wall_s`` does.  Their time is not counted
  in ``--seconds``.

``--trace 1`` alternates untraced passes with passes started through
``bootstrap.py``, which records spans at each module's public functions,
and reports the per-layer metrics (see ``README.md``).  Layers a workload
never enters read 0 and are listed as absent.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PY = sys.executable
perf = time.perf_counter

THREADS = 1
PIN_VARS = ("SPLITGAS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PER_PASS = 4
SETUP_MIN = 9
IMPORT_CHILDREN = 3
START_CHILDREN = 5
MIN_PASSES = 2           # trace runs: one untraced and one traced
DEADLINE_S = 170.0       # a run ends before the 180 s limit even if a child hangs
CLI_CODE = "import sys; from splitgas.cli import main; sys.exit(main())"

# Names splitgas exported when the benchmark was written.  Setup resolves
# these as well as whatever it exports now, so a lazy ``__init__`` cannot
# move import cost out of ``setup_s`` and into the first command.
EXPORTED = (
    "ConfigError ConvergenceError DensityProfile DetectionError EnsembleSpec "
    "EnsembleStats LegendreModeSet PhysicalParams PlaneWaveModeSet RB87 Regime "
    "SpeciesPreset SplitGasError TrapConfig build_modes build_trapped_modes "
    "contrast_trace covariance_rate dephasing_times derive_params errors "
    "estimate_pcf extract_front fields fit_velocity homogeneous legendre_f "
    "mean_squared_contrast mode_amplitude_trace mode_frequency "
    "multimode_condition observables oracle params pcf "
    "peak_density_from_atom_number phase_covariance phase_variance "
    "prethermal_pcf prethermal_variance quasi1d_profile recurrence_scan "
    "recurrence_time sample_realization squeezing_limit squeezing_map "
    "tf_profile thermal_variance trapped trapped_phase_variance "
    "trapped_variance_field variance_field variance_rate"
).split()
SETUP_CODE = (
    "import splitgas\n"
    f"names = set({EXPORTED!r})\n"
    "names |= set(getattr(splitgas, '__all__', ()))\n"
    "names |= {n for n in dir(splitgas) if not n.startswith('_')}\n"
    "for n in sorted(names):\n"
    "    getattr(splitgas, n, None)\n"
)


@dataclass(frozen=True)
class Command:
    id: str
    argv: list
    seed: int | None = None          # oracle commands: checked statistically
    geometry: str | None = None      # oracle commands: trapped / homogeneous


def workload_commands(name: str, seed: int) -> list:
    """The commands of one workload; ``seed`` becomes the oracle ``--seed``."""
    if name == "cli_presets":
        # The commands users run most; import dominates, no contrast or oracle.
        specs = [("params", "fig4"), ("squeezing-map", "fig1"), ("pcf", "fig2"),
                 ("pcf", "fig3"), ("pcf", "fig4"), ("front", "fig3"),
                 ("front", "fig5"), ("front", "fig6")]
        return [Command(f"{c}-{p}", [c, "--preset", p]) for c, p in specs]
    if name == "compute":
        # The in-process heavy commands.  contrast fig8 makes bulk contrast calls
        # and sets the ~580 MB peak; recurrence fig7 adds single-time refinement
        # calls; the oracle runs the Legendre (fig4) and plane-wave (fig3)
        # samplers, 10k realizations each.  One workload rather than two: the
        # oracle alone drifted too much between runs on a shared host.
        s = seed % 2**63
        return [Command(f"{c}-{p}", [c, "--preset", p]) for c, p in
                (("contrast", "fig8"), ("recurrence", "fig7"))] + \
               [Command(f"oracle-{p}", ["oracle", "--preset", p, "--seed", str(s)], s, g)
                for p, g in (("fig4", "trapped"), ("fig3", "homogeneous"))]
    raise KeyError(name)


WORKLOADS = ("cli_presets", "compute")


@dataclass
class Result:
    cmd: Command
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    out: Path
    errors: list = field(default_factory=list)
    spans: dict | None = None         # traced runs: the bootstrap's record

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in PIN_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, timeout: float, stderr_path=None):
    """Run one child; return (wall seconds, its rusage, exit code or None on timeout)."""
    killed = threading.Event()
    with open(stderr_path or os.devnull, "w") as err:
        t0 = perf()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return wall, usage, None if killed.is_set() else proc.returncode


def run_command(cmd: Command, env, out_dir: Path, timeout: float, traced: bool) -> Result:
    out = out_dir / f"{cmd.id}.csv"
    spans_path = out_dir / f"{cmd.id}.spans.json"
    for stale in (out, spans_path):
        stale.unlink(missing_ok=True)
    argv = [*cmd.argv, "--out", str(out)]
    if traced:
        argv = [PY, str(HERE / "bootstrap.py"), str(spans_path), cmd.id, "--", *argv]
    else:
        argv = [PY, "-c", CLI_CODE, *argv]
    wall, usage, code = spawn(argv, env, timeout, out_dir / f"{cmd.id}.stderr")
    res = Result(cmd, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 -1 if code is None else code, out)
    if code is None:
        res.errors.append(f"timed out after {timeout:.0f} s")
    elif code != 0:
        res.errors.append(f"exit code {code}")
    else:
        res.errors.extend(check_table(cmd.id, out, cmd.seed))
    if traced and spans_path.exists():
        res.spans = json.loads(spans_path.read_text())
    return res


def median(values):
    return statistics.median(values) if values else 0.0


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(splitgas cumulative s, sum of scipy's top-level cumulative s) from -X importtime."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    splitgas_s, scipy_s, stack = 0.0, 0.0, []
    for depth, name, cum in reversed(entries):   # parents are printed after children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "splitgas":
            splitgas_s = cum
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for _, a in stack):
            scipy_s += cum
        stack.append((depth, name))
    return splitgas_s, scipy_s


# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
PER_LAYER = (
    ("process.start_s", "s"), ("import.splitgas_s", "s"), ("import.scipy_s", "s"),
    *((f"cli.{c}.main_s", "s") for c in ("params", "squeezing-map", "pcf", "front",
                                          "contrast", "recurrence", "oracle")),
    ("scenario.load_s", "s"), ("params.derive.calls", "count"), ("params.derive_s", "s"),
    ("trapped.profile_s", "s"), ("trapped.modes_s", "s"), ("trapped.field_s", "s"),
    ("trapped.convergence_s", "s"), ("trapped.legendre_table.calls", "count"),
    ("trapped.legendre_table_s", "s"),
    ("homogeneous.modes_s", "s"), ("homogeneous.field_s", "s"),
    ("homogeneous.convergence_s", "s"),
    ("observables.front.calls", "count"), ("observables.front_s", "s"),
    ("observables.contrast.calls", "count"), ("observables.contrast_bulk_s", "s"),
    ("observables.contrast_refine.calls", "count"), ("observables.contrast_refine_s", "s"),
    ("observables.recurrence_scan_self_s", "s"), ("observables.contrast.peak_alloc_mb", "MB"),
    ("oracle.estimate_s", "s"), ("oracle.sample.calls", "count"), ("oracle.sample_self_s", "s"),
    ("oracle.trapped_per_1k_s", "s"), ("oracle.homogeneous_per_1k_s", "s"),
    ("oracle.peak_rss_mb", "MB"),
    ("tables.write_s", "s"), ("tables.validate_s", "s"), ("tables.bytes", "B"),
    ("process.cpu_s", "s"), ("process.threads", "count"), ("trace.overhead_s", "s"),
)
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# span name -> [(metric, "calls" | "total" | "self")]; "self" excludes child spans.
SPAN_METRICS = {
    "scenario.load_scenario": [("scenario.load_s", "total")],
    "scenario.preset_scenario": [("scenario.load_s", "total")],
    "params.derive_params": [("params.derive.calls", "calls"), ("params.derive_s", "total")],
    "trapped.tf_profile": [("trapped.profile_s", "total")],
    "trapped.quasi1d_profile": [("trapped.profile_s", "total")],
    "trapped.build_trapped_modes": [("trapped.modes_s", "total")],
    "trapped.trapped_variance_field": [("trapped.field_s", "self")],
    "trapped.trapped_convergence_check": [("trapped.convergence_s", "total")],
    "trapped.legendre_f_table": [("trapped.legendre_table.calls", "calls"),
                                 ("trapped.legendre_table_s", "total")],
    "homogeneous.build_modes": [("homogeneous.modes_s", "total")],
    "homogeneous.variance_field": [("homogeneous.field_s", "self")],
    "homogeneous.convergence_check": [("homogeneous.convergence_s", "total")],
    "observables.extract_front": [("observables.front.calls", "calls"),
                                  ("observables.front_s", "total")],
    "observables.recurrence_scan": [("observables.recurrence_scan_self_s", "self")],
    "oracle.estimate_pcf": [("oracle.estimate_s", "total")],
    "oracle.sample_realization": [("oracle.sample.calls", "calls"),
                                  ("oracle.sample_self_s", "self")],
    "tables.write_table": [("tables.write_s", "self")],
    "tables.validate_table": [("tables.validate_s", "total")],
}


def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def _has_ancestor(spans: list, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def layer_metrics(results: list) -> dict:
    """Per-layer metrics of one traced pass; a layer never entered has no key."""
    from splitgas.tables import read_table

    m = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for res in results:
        if res.spans is None:
            continue
        spans = res.spans["spans"]
        own = self_times(spans)
        for i, (name, start, end, parent, meta) in enumerate(spans):
            dur = end - start
            for metric, how in SPAN_METRICS.get(name, ()):
                add(metric, {"calls": 1, "total": dur, "self": own[i]}[how])
            if name == "cli.main":
                add(f"cli.{meta['command']}.main_s", dur)
            elif name == "observables.contrast_trace":
                refine = meta["n_times"] == 1 and _has_ancestor(
                    spans, parent, "observables.recurrence_scan")
                if refine:
                    add("observables.contrast_refine.calls", 1)
                    add("observables.contrast_refine_s", dur)
                else:
                    add("observables.contrast.calls", 1)
                    add("observables.contrast_bulk_s", dur)
                m["observables.contrast.peak_alloc_mb"] = max(
                    m.get("observables.contrast.peak_alloc_mb", 0.0),
                    meta["peak_alloc_bytes"] / 2**20)
            elif name == "oracle.estimate_pcf" and res.cmd.geometry and res.out.exists():
                realizations = float(dict(read_table(str(res.out))[0]).get("realizations", "nan"))
                add(f"oracle.{res.cmd.geometry}_per_1k_s", dur * 1000.0 / realizations)
        m["process.threads"] = max(m.get("process.threads", 0), res.spans["threads"])
    return m


def import_metrics(env) -> dict:
    """``process.start_s`` (bare interpreter) and the ``-X importtime`` breakdown."""
    start = [spawn([PY, "-c", "pass"], env, 60)[0] for _ in range(START_CHILDREN)]
    splitgas_s, scipy_s = [], []
    for _ in range(IMPORT_CHILDREN):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import splitgas"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: cannot import splitgas:\n{proc.stderr[-2000:]}")
        a, b = parse_importtime(proc.stderr)
        splitgas_s.append(a)
        scipy_s.append(b)
    return {"process.start_s": median(start), "import.splitgas_s": median(splitgas_s),
            "import.scipy_s": median(scipy_s)}


def setup_walls(env, n: int) -> list:
    """Wall times of ``n`` fresh interpreters that import splitgas and resolve its names."""
    walls = []
    for _ in range(n):
        wall, _, code = spawn([PY, "-c", SETUP_CODE], env, 60)
        if code != 0:
            raise SystemExit(f"perfbench: importing splitgas failed (exit {code})")
        walls.append(wall)
    return walls


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: report it and return the result object."""
    cmds = workload_commands(workload, seed)
    env = child_env()
    began = perf()
    out_dir = WORK / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    values = import_metrics(env) if trace else {}
    import splitgas.tables  # noqa: F401  (the checker's import, paid before timing starts)

    passes = []          # (traced, [Result])
    setups = []          # setup_s samples, taken between commands
    setup_every = max(1, len(cmds) // SETUP_PER_PASS)
    spent = 0.0          # time in commands only, against --seconds
    while len(passes) < MIN_PASSES or spent < seconds:
        p0 = perf()
        traced = trace and len(passes) % 2 == 1
        results = []
        for i, c in enumerate(cmds):
            if not trace and i % setup_every == 0:
                setups += setup_walls(env, 1)
            results.append(run_command(c, env, out_dir,
                                       max(1.0, DEADLINE_S - (perf() - began)), traced))
            spent += results[-1].wall_s
        passes.append((traced, results))
        if perf() - began + (perf() - p0) > DEADLINE_S:
            break
    else:                # not cut by the deadline: top setup_s up to SETUP_MIN samples
        if not trace:
            setups += setup_walls(env, max(0, SETUP_MIN - len(setups)))

    plain = [rs for t, rs in passes if not t]
    traced_passes = [rs for t, rs in passes if t]
    wall = median([sum(r.wall_s for r in rs) for rs in plain])
    if trace:
        layers = [layer_metrics(rs) for rs in traced_passes]
        for key in {k for lm in layers for k in lm}:
            values[key] = median([lm.get(key, 0.0) for lm in layers])
        values["process.cpu_s"] = median([sum(r.cpu_s for r in rs) for rs in plain])
        values["tables.bytes"] = median([sum(r.out.stat().st_size for r in rs if r.out.exists())
                                         for rs in plain])
        values["trace.overhead_s"] = median([sum(r.wall_s for r in rs)
                                             for rs in traced_passes]) - wall
        if any(c.geometry for c in cmds):
            values["oracle.peak_rss_mb"] = median([max(r.rss_mb for r in rs if r.cmd.geometry)
                                                   for rs in plain])
    else:
        values["wall_s"] = wall
        values["peak_rss_mb"] = median([max(r.rss_mb for r in rs) for rs in plain])
        values["setup_s"] = median(setups)
    result = report(workload, seed, passes, values, PER_LAYER if trace else END_TO_END)
    if trace:
        write_trace(workload, seed, traced_passes, values)
    return result


def write_trace(workload: str, seed: int, traced_passes: list, values: dict) -> None:
    """Print the wrapped names and store every span of the traced passes."""
    records = [r.spans for rs in traced_passes for r in rs if r.spans]
    wrapped = sorted({n for rec in records for n in rec["wrapped"]})
    missing = sorted({n for rec in records for n in rec["absent"]})
    path = WORK / f"{workload}.trace.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "wrapped": wrapped,
                                "missing": missing, "metrics": values, "commands": records}))
    print(f"wrapped: {' '.join(wrapped)}")
    print(f"wrapped names missing from the program: {' '.join(missing) or '-'}")
    print(f"threads: pinned to {THREADS}, process.threads "
          f"{values.get('process.threads', 0):g}; spans in {path}")


def report(workload: str, seed: int, passes: list, values: dict, metric_units) -> dict:
    """Print one run's commands and metrics; return the result object."""
    every = [r for _, rs in passes for r in rs]
    failed = sum(r.failed for r in every)
    print(f"workload {workload}: seed {seed}, {len(passes)} passes, each child pinned to "
          f"{THREADS} thread via {', '.join(PIN_VARS)}")
    for traced, rs in passes:
        for r in rs:
            status = "FAILED: " + "; ".join(r.errors[:3]) if r.failed else "ok"
            print(f"  {'traced ' if traced else ''}{r.cmd.id:18s} {r.wall_s:8.3f} s "
                  f"{r.rss_mb:8.1f} MB  {status}")
    for name, unit in metric_units:
        note = "" if name in values else "  (absent: layer not entered)"
        print(f"  {name:38s} {values.get(name, 0.0):14.6g} {unit}{note}")
    print(f"  {'failed_frac':38s} {failed / len(every):14.6g} ratio ({failed}/{len(every)})")
    return {"correct": failed == 0, "attempted": len(every), "failed": failed,
            "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                        for name, unit in metric_units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "splitgas" / "__init__.py").is_file():
        print(f"perfbench: no splitgas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    for var in PIN_VARS:      # the checker imports numpy in this process too
        os.environ[var] = str(THREADS)
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
    print(f"\n{'workload':15s}" + "".join(f"{n + ' (' + u + ')':>20s}"
                                          for n, u in END_TO_END if not args.trace)
          + f"{'failed_frac (ratio)':>22s}")
    for w, res in results.items():
        cells = "".join(f"{res['metrics'][n]['value']:20.4f}"
                        for n, _ in END_TO_END if not args.trace)
        print(f"{w:15s}{cells}{res['failed'] / res['attempted']:22.4f}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
