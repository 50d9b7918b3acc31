"""Traced child: one splitgas CLI command with timing wrappers on its layers.

    python perfbench/bootstrap.py SPANS_JSON COMMAND_ID -- ARGV...

Imports splitgas, replaces the public functions listed in ``WRAPPED`` with
wrappers that record a span per call, then runs ``splitgas.cli.main(ARGV)``
and exits with its code.  Every module attribute that is bound to a wrapped
function is replaced, so by-name imports (``from .trapped import
legendre_f_table``) and the CLI's call-time imports both reach the wrapper.

Spans stay in memory and are written to SPANS_JSON when the command ends:
``[name, start, end, parent, meta]`` with ``parent`` the index of the
enclosing span (-1 at the top).  A listed function that no longer exists is
reported under ``absent`` instead of failing, so refactors do not break the
trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

perf = time.perf_counter

# (module, function) pairs; the span name is the module's last component
# plus the function name, e.g. "trapped.legendre_f_table".
WRAPPED = (
    ("splitgas.scenario", "load_scenario"),
    ("splitgas.scenario", "preset_scenario"),
    ("splitgas.params", "derive_params"),
    ("splitgas.trapped", "tf_profile"),
    ("splitgas.trapped", "quasi1d_profile"),
    ("splitgas.trapped", "build_trapped_modes"),
    ("splitgas.trapped", "trapped_variance_field"),
    ("splitgas.trapped", "trapped_convergence_check"),
    ("splitgas.trapped", "legendre_f_table"),
    ("splitgas.homogeneous", "build_modes"),
    ("splitgas.homogeneous", "variance_field"),
    ("splitgas.homogeneous", "convergence_check"),
    ("splitgas.observables", "extract_front"),
    ("splitgas.observables", "contrast_trace"),
    ("splitgas.observables", "recurrence_scan"),
    ("splitgas.oracle", "estimate_pcf"),
    ("splitgas.oracle", "sample_realization"),
    ("splitgas.tables", "write_table"),
    ("splitgas.tables", "validate_table"),
)

CONTRAST = "observables.contrast_trace"


class Tracer:
    """In-memory span recorder; one per traced command."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name, meta=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1, meta])
        self.stack.append(idx)
        return idx

    def close(self, idx) -> None:
        self.spans[idx][2] = perf()
        self.stack.pop()

    def wrap(self, name, fn):
        if name == CONTRAST:
            return self._wrap_contrast(fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return timed

    def _wrap_contrast(self, fn):
        """Contrast calls also record their time-sample count and, for bulk
        calls (more than one time sample), the tracemalloc peak.  Single-time
        refinement calls skip tracemalloc: its start-up cost would dominate."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            times = args[2] if len(args) > 2 else kwargs.get("times")
            try:
                n_times = len(times)
            except TypeError:
                n_times = 1
            meta = {"n_times": n_times, "peak_alloc_bytes": 0}
            idx = self.open(CONTRAST, meta)
            bulk = n_times > 1 and not tracemalloc.is_tracing()
            if bulk:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if bulk:
                    meta["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.close(idx)

        return timed


def install(tracer: Tracer) -> tuple[list, list]:
    """Replace every listed function by its wrapper; return (wrapped, absent)."""
    wrapped, absent = [], []
    for mod_name, func in WRAPPED:
        name = f"{mod_name.rsplit('.', 1)[-1]}.{func}"
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            absent.append(name)
            continue
        original = getattr(module, func, None)
        if not callable(original):
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == "splitgas" or key.startswith("splitgas.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
        wrapped.append(name)
    return wrapped, absent


def thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main() -> int:
    out_path, cmd_id = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: bootstrap.py SPANS_JSON COMMAND_ID -- ARGV...")
    argv = sys.argv[4:]
    tracer = Tracer()
    idx = tracer.open("import.splitgas")
    import splitgas.cli

    tracer.close(idx)
    wrapped, absent = install(tracer)
    threads = thread_count()
    idx = tracer.open("cli.main", {"command": argv[0] if argv else ""})
    try:
        code = splitgas.cli.main(argv)
    finally:
        tracer.close(idx)
        threads = max(threads, thread_count())
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"command_id": cmd_id, "argv": argv, "wrapped": wrapped,
                       "absent": absent, "threads": threads,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
