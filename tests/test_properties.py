"""Property test: scenario documents through ``cli.main`` (Hypothesis; MacIver et
al., JOSS 4, 1891 (2019)).

Each example is a scenario file whose trap keys, in any of the three regimes, and
whose front analysis keys hold a valid value or one of the values that bit
before: NaN and +-inf, zero, negative numbers, bools, strings, 400-digit
integers, reversed fit windows, repeated atom numbers and cloud-only keys on a
box.  ``params`` and ``front`` must end in a documented exit code with a short
message; a table they write is finite and rewritten byte for byte.  Valid
values are capped (fit windows to 5 ms, N to 2e4, three scan entries, boxes to
200 um), so that no example computes for long.
"""

import atexit
import contextlib
import io
import math
import shutil
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from splitgas.cli import main
from splitgas.scenario import _TRAP
from splitgas.tables import read_table

# Hypothesis caches constants it reads from the source in its home directory, and
# they steer what a derandomized run draws: a warm .hypothesis draws other cases
# than a fresh checkout.  Each process gets an empty home of its own, so every tree
# draws what a fresh checkout draws.
_HOME = tempfile.mkdtemp(prefix="splitgas-hypothesis-")
set_hypothesis_home_dir(_HOME)
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)

BASES = {
    "homogeneous": {"species": "rb87", "nu_perp_hz": 1400.0, "regime": "homogeneous",
                    "peak_density_per_um": 46.0, "system_length_um": 100.0},
    "thomas_fermi": {"species": "rb87", "nu_perp_hz": 1400.0, "regime": "thomas_fermi",
                     "nu_long_hz": 7.0, "atom_number_total": 7000},
    "quasi_1d": {"species": "rb87", "nu_perp_hz": 1400.0, "regime": "quasi_1d",
                 "nu_long_hz": 7.0, "atom_number_total": 7000},
}

ATOM_NUMBERS = st.integers(1000, 20000)


def _valid(regime):
    """Valid values of every trap key in ``regime``, capped so that no example runs long."""
    box = regime == "homogeneous"
    return {
        "species": st.sampled_from(["rb87", "RB87"]),
        "mass_kg": st.floats(1.0e-25, 3.0e-25),
        "scattering_length_nm": st.floats(2.0, 10.0),
        "nu_perp_hz": st.floats(500.0, 3000.0),
        "nu_long_hz": st.just(0) if box else st.floats(3.0, 20.0),
        "regime": st.just(regime) if box else st.sampled_from(["thomas_fermi", "quasi_1d"]),
        "atom_number_total": st.none() if box else ATOM_NUMBERS,
        "peak_density_per_um": st.floats(10.0, 80.0) if box else st.none(),
        "system_length_um": st.floats(50.0, 200.0) if box else st.just(0),
        "squeezing": st.floats(0.1, 2.0),
    }


EDGE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -7.0, True, False,
                     "7000", "", "homogeneous", "thomas_fermi", None, 10 ** 400 - 1,
                     -(10 ** 400) + 1, [], [1.0], {"start": 1}]),
    st.floats(-1.0e3, -1.0e-3),
)

# the ends of the doubles: drawn for params only, since no guard yet bounds the time
# and position grids that they give a front (the mode count has a ceiling)
EXTREME = st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300, 1.7e308, 2 ** 70])


def _value(valid, edges=(EDGE,)):
    """A value of each of ``edges`` one time in four, else a valid value."""
    choices = [*edges, *[valid] * (4 - len(edges))]
    return st.integers(0, 3).flatmap(choices.__getitem__)


def _fit_window():
    lo, hi = st.floats(0.0, 2.0), st.floats(2.5, 5.0)
    return st.integers(0, 3).flatmap(lambda i: [
        st.one_of(EDGE, st.lists(_value(st.floats(0.0, 5.0)), max_size=3)),
        st.tuples(hi, lo).map(list),                           # a reversed window
        st.tuples(lo, hi).map(list),
        st.tuples(lo, hi).map(list)][i])


def _scan():
    entries = st.lists(_value(ATOM_NUMBERS), min_size=1, max_size=3)
    return st.one_of(
        entries,
        entries.map(lambda n: n + n[:1]),                      # a repeated atom number
        EDGE)


@st.composite
def cases(draw):
    """A command and a scenario document for it."""
    command = draw(st.sampled_from(["params", "front"]))
    edges = (EDGE, EXTREME) if command == "params" else (EDGE,)
    regime = draw(st.sampled_from(sorted(BASES)))
    trap, valid = dict(BASES[regime]), _valid(regime)
    # a set of strings iterates in the order of PYTHONHASHSEED; sorted, every process
    # draws the same values for the same keys
    for key in sorted(draw(st.sets(st.sampled_from(sorted(_TRAP)), max_size=3))):
        if draw(st.integers(0, 3)):
            trap[key] = draw(_value(valid[key], edges))
        else:
            trap.pop(key, None)
    doc = {"trap": trap}
    analysis = {}
    if draw(st.booleans()):
        analysis["fit_window_ms"] = draw(_fit_window())
    if draw(st.booleans()):
        analysis["scan_atom_numbers"] = draw(_scan())
    if draw(st.booleans()):
        analysis["compare_regimes"] = draw(_value(st.booleans()))
    if analysis:
        doc["analysis"] = analysis
    return command, doc


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _drawn(count):
    """The first ``count`` cases that a derandomized run draws."""
    seen = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None)
    @given(case=cases())
    def collect(case):
        seen.append(case)

    collect()
    return seen


def test_cases_are_drawn_alike_under_every_hash_seed(tmp_path):
    # a derandomized run must replay in every process, whatever its string hashes and
    # whatever an earlier run left in its directory: the third child runs where the
    # second ran
    import os
    import subprocess
    import sys

    import splitgas

    paths = [Path(splitgas.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), env.get("PYTHONPATH")]))
    child = "from test_properties import _drawn\nprint(repr(_drawn(30)))\n"
    drawn = []
    for seed in ("1", "2", "2"):
        cwd = tmp_path / seed
        cwd.mkdir(exist_ok=True)
        drawn.append(subprocess.run(
            [sys.executable, "-c", child], cwd=cwd, capture_output=True, text=True,
            env={**env, "PYTHONHASHSEED": seed}, timeout=300, check=True).stdout)
    assert drawn[0].count("{'trap'") == 30
    assert drawn[0] == drawn[1] == drawn[2]


def test_every_trap_key_is_drawn():
    for regime in BASES:
        assert set(_valid(regime)) == set(_TRAP)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=cases())
def test_scenario_documents_end_in_a_documented_exit(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        code, err = _run([command, "--config", str(cfg), "--out", str(out[0])])
        assert code in (0, 2, 3, 4), err
        assert len(err.encode()) <= 300, err
        if code != 0:
            return
        provenance, columns, rows = read_table(str(out[0]))
        box = dict(provenance)["regime"] == "homogeneous" if command == "params" else False
        for row in rows:
            for name, cell in zip(columns, row):
                assert math.isfinite(cell) or (box and name == "R_um"), (name, cell)
        for key, value in provenance:
            if key.startswith("velocity"):
                assert math.isfinite(float(value)), (key, value)
        assert _run([command, "--config", str(cfg), "--out", str(out[1])]) == (0, "")
        assert out[0].read_bytes() == out[1].read_bytes()
