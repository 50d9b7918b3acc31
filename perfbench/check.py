"""Output check behind ``failed_frac``.

A table passes when:

- ``splitgas.tables.validate_table`` accepts it;
- every reference column is present, the row count matches, and each cell
  is finite (or NaN exactly where the reference is NaN);
- numeric cells match the reference table of the same command within
  ``|out - ref| <= rtol * |ref| + COL_ATOL * max|ref column|``;
- the physics provenance values (front velocities, ranked recurrences,
  truncation doubling deviation) match the reference.  Other provenance
  keys, including ones added later, are ignored;
- for the oracle, whose Monte-Carlo columns depend on the seed: the grid
  and ``C_analytic`` match the reference, the header names the seed, each
  standard error is within a factor 2 of the reference's, and
  ``z = (C_mc - C_analytic) / stderr``, recomputed here, has ``|z| < 5``
  and agrees with the printed ``z_score``.  At the reference's own seed
  the draws are the same, so ``C_mc`` and ``stderr`` must also match the
  reference cells like any other column.

Tolerances.  Tables print 12 significant digits, and a reordered float sum
(GEMM against einsum) moves results by about 1e-13, so the 12th digit may
flip.  ``RTOL`` = 1e-9 accepts that and rejects any change at or before the
9th significant digit, far below what a wrong kernel produces.  Front
positions and velocities pass through a parabolic peak refinement that
divides by a second difference, so they get 1e-7.  Golden-section peak
times can move about 1e-9 relative (3e-7 ms at 300 ms); they are printed
to 1e-6 ms, so recurrence times get 2e-6 ms absolute.  The doubling
deviation is printed to 3 significant digits, so one unit of its last
digit (at most 1.1%) is accepted.  |z| < 5 rather than < 3: with 80 cells a
``< 3`` rule would fail by chance on about one seed in five.  The printed
``z_score`` may differ from the one recomputed from the printed cells by
their rounding, at most 5e-12 relative each; ``Z_RTOL`` = 1e-9 allows 200
times that.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

RTOL = 1e-9
COL_ATOL = 1e-9
COLUMN_RTOL = {
    "zc_um": 1e-7,
    "velocity_homogeneous_mm_per_s": 1e-7,
    "velocity_thomas_fermi_mm_per_s": 1e-7,
    "velocity_quasi_1d_mm_per_s": 1e-7,
}
VELOCITY_KEY = re.compile(r"velocity(_N\d+)?_mm_per_s$")
VELOCITY_RTOL = 1e-7
DOUBLING_KEY = "truncation_doubling_rel"
DOUBLING_RTOL = 0.011
RECURRENCE_KEY = re.compile(r"recurrence_\d+$")
RECURRENCE = re.compile(r"t_ms=(\S+) strength=(\S+)$")
RECURRENCE_T_ATOL_MS = 2e-6
RECURRENCE_STRENGTH_RTOL = 1e-8
ORACLE_COMPARED = ("t_ms", "C_analytic")   # plus the position column, first
ORACLE_SEEDED = ("C_mc", "stderr")         # compared only at the reference's seed
Z_SCORE_LIMIT = 5.0
STDERR_FACTOR = 2.0
Z_RTOL = 1e-9


def _close(out: float, ref: float, rtol: float, atol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(out)
    return math.isfinite(out) and abs(out - ref) <= rtol * abs(ref) + atol


def _compare_columns(out_cols, out_rows, ref_cols, ref_rows, names):
    errors = []
    for name in names:
        if name not in out_cols:
            errors.append(f"column {name} missing")
            continue
        i, j = out_cols.index(name), ref_cols.index(name)
        rtol = COLUMN_RTOL.get(name, RTOL)
        scale = max((abs(r[j]) for r in ref_rows if math.isfinite(r[j])), default=0.0)
        atol = COL_ATOL * scale
        for k, (o, r) in enumerate(zip(out_rows, ref_rows)):
            if not _close(o[i], r[j], rtol, atol):
                errors.append(f"row {k} {name}: {o[i]!r} vs reference {r[j]!r}")
                break
    return errors


def _recurrences(prov):
    found = []
    for key, value in prov.items():
        if RECURRENCE_KEY.match(key):
            m = RECURRENCE.match(value)
            found.append((float(m.group(1)), float(m.group(2))) if m else (math.nan, math.nan))
    return sorted(found)


def _compare_provenance(out, ref, seed):
    errors = []
    for key, value in ref.items():
        if VELOCITY_KEY.match(key) or key == DOUBLING_KEY:
            rtol = VELOCITY_RTOL if key != DOUBLING_KEY else DOUBLING_RTOL
            try:
                ok = _close(float(out[key]), float(value), rtol, 0.0)
            except (KeyError, ValueError):
                ok = False
            if not ok:
                errors.append(f"provenance {key}: {out.get(key)!r} vs reference {value!r}")
    ref_rec, out_rec = _recurrences(ref), _recurrences(out)
    if len(ref_rec) != len(out_rec):
        errors.append(f"{len(out_rec)} recurrences vs reference {len(ref_rec)}")
    else:
        for (t, s), (rt, rs) in zip(out_rec, ref_rec):
            if not (_close(t, rt, 0.0, RECURRENCE_T_ATOL_MS)
                    and _close(s, rs, RECURRENCE_STRENGTH_RTOL, 0.0)):
                errors.append(f"recurrence t={t} s={s} vs reference t={rt} s={rs}")
    if seed is not None and out.get("seed") != str(seed):
        errors.append(f"provenance seed {out.get('seed')!r}, expected {seed}")
    if "realizations" in ref and out.get("realizations") != ref["realizations"]:
        errors.append(f"realizations {out.get('realizations')!r} vs reference "
                      f"{ref['realizations']!r}")
    return errors


def _oracle_statistics(cols, rows, ref_cols, ref_rows):
    errors = []
    try:
        iz, ise, imc, ian = (cols.index(n) for n in ("z_score", "stderr", "C_mc", "C_analytic"))
        ref_se = ref_cols.index("stderr")
    except ValueError as exc:
        return [f"oracle column missing: {exc}"]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        mc, an, se, printed = row[imc], row[ian], row[ise], row[iz]
        if not (math.isfinite(mc) and math.isfinite(se)
                and ref[ref_se] / STDERR_FACTOR <= se <= ref[ref_se] * STDERR_FACTOR):
            errors.append(f"row {k}: stderr {se!r} vs reference {ref[ref_se]!r}")
            continue
        z = (mc - an) / se
        if not abs(z) < Z_SCORE_LIMIT:
            errors.append(f"row {k}: z = (C_mc - C_analytic)/stderr = {z!r} "
                          f"outside +-{Z_SCORE_LIMIT}")
        if not _close(printed, z, 0.0, Z_RTOL * ((abs(mc) + abs(an)) / se + abs(z))):
            errors.append(f"row {k}: z_score {printed!r}, recomputed {z!r}")
    return errors


def check_table(cmd_id: str, path, seed: int | None = None) -> list:
    """Return the reasons ``path`` fails the check for ``cmd_id`` (empty: pass).

    ``seed`` is given for oracle tables, whose Monte-Carlo columns are
    checked statistically, and against the reference cells as well when
    ``seed`` is the reference's.
    """
    from splitgas.tables import read_table, validate_table

    try:
        validate_table(str(path))
        prov, cols, rows = read_table(str(path))
    except Exception as exc:  # any failure of the program's own validator fails the table
        return [f"validate_table: {type(exc).__name__}: {exc}"]
    ref_prov, ref_cols, ref_rows = read_table(str(REFERENCE / f"{cmd_id}.csv"))
    prov, ref_prov = dict(prov), dict(ref_prov)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows vs reference {len(ref_rows)}"]
    oracle = seed is not None
    names = ref_cols
    if oracle:
        same_draws = ref_prov.get("seed") == str(seed)
        names = (ref_cols[0], *ORACLE_COMPARED, *(ORACLE_SEEDED if same_draws else ()))
    errors = _compare_columns(cols, rows, ref_cols, ref_rows, names)
    errors += _compare_provenance(prov, ref_prov, seed)
    if oracle:
        errors += _oracle_statistics(cols, rows, ref_cols, ref_rows)
    return errors
