"""Measurable quantities derived from variance fields.

The correlation front is located per time sample as the tallest peak of
the smoothed mixed derivative d2<dphi^2>/dt dz (the variance rate switches
between its inside- and outside-cone plateaus there).  The detector reads
the variance field's rows a block of times at a time, so the ``front``
command never holds the (time x position) grid.  An independent
half-plateau crossing detector is kept for the tests, which run it as a
cross-check of the default one.  The mean squared contrast
double-integrates C over an observation window, through one entry,
:func:`contrast_evaluator`, built once per window; recurrences are ranked
local maxima of its trace.  A detected front comes back as a
:class:`FrontTrace` and its least-squares slope as a :class:`VelocityFit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DetectionError
from .modes import VarianceField, _check_times, pcf, variance_field
from .params import _check_positive

__all__ = [
    "FrontTrace",
    "VelocityFit",
    "extract_front",
    "fit_velocity",
    "contrast_evaluator",
    "recurrence_scan",
    "prethermal_pcf",
]

DEFAULT_FIT_WINDOW = (0.0, 10e-3)
DEFAULT_PROMINENCE_REL = 0.25
EDGE_SEARCH_FRACTION = 0.9   # trapped fronts are searched for within 0.9 R
# The contrast kernel cuts the upper triangle of its m x m half grid
# into row panels of equal height, at most this many rows each.  More panels
# waste less of the diagonal squares but add per-call overhead, which the
# single-time calls of recurrence refinement feel.
_CONTRAST_PANEL_ROWS = 48
# time samples per kernel block: at most about this many float64 values
# (512 kB) in each of the three buffers that a kernel call allocates and
# every panel reuses (block x panel height x m), and in a panel's weighted
# rows (under block x panel height x rows), so the working set stays in L2.
# Fewer, larger blocks cut the per-block interpreter work.
_CONTRAST_PANEL_ELEMENTS = 2**16
# The front detector takes dV/dt, differentiates, smooths and searches the
# time x position grid a block of time rows at a time (dV/dt reads one halo
# row on each side), for both detectors, and reads the field's rows only as
# each block needs them.  A block has as many rows as fit one
# (rows x nz) float64 array in this many bytes.  At its peak, while
# smoothing, a block holds about five such arrays (0.3 MB on fig5's 318 x 636
# grid at N = 9000), so the detector's memory depends on nz only, never on
# the number of rows; more bytes buy fewer blocks and less per-block
# interpreter work.  Every row comes out bit-equal to the whole-grid
# computation.
_FRONT_BLOCK_BYTES = 2**16
# largest spacing of doubles at the window's largest point variance that the
# contrast kernel accepts: its exponent G - h_a - h_b cancels to order one from
# terms of that size, so C^2 then moves by about this much (relative) from rounding
_MAX_EXPONENT_ERROR = 1e-6
# Recurrence refinement stops once the bracket around a peak is this wide (s).
_REFINE_BRACKET_S = 1e-9
_GOLD = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass
class FrontTrace:
    """Detected correlation-front positions, one per usable time sample."""

    times: np.ndarray       # s
    positions: np.ndarray   # m, non-decreasing inside the fit window
    method: str             # "mixed_derivative" or "half_plateau"
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class VelocityFit:
    """Least-squares slope of front position versus time."""

    speed: float          # m/s
    intercept: float      # m
    residual_rms: float   # m
    n_points: int


def _gaussian_smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing along the last axis, edges extended by their end value.

    The kernel is truncated at radius int(4*sigma + 0.5) and normalised to
    unit sum.  Each output starts from the centre term and adds the
    symmetric pairs from the outermost inwards.  That summation order is
    part of the contract: it is the one of the standard symmetric
    correlation loop, and the tests require bit-equal results with it.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    n = a.shape[-1]
    p = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(r, r)], mode="edge")
    out = p[..., r:r + n] * w[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(p[..., r - j:r - j + n], p[..., r + j:r + j + n], out=pair)
        pair *= w[r - j]
        out += pair
    return out


def _peaks(x: np.ndarray):
    """Local maxima of every row of a 2-D array, as flat (row, index) arrays.

    A peak is a run of equal samples with a strictly lower sample on each
    side, reported at the middle index (start + end) // 2 of the run: the
    usual signal-processing definition, which the tests hold bit-equal to
    the reference peak finder.  The peaks come in row-major order.
    """
    nrow, n = x.shape
    start = np.ones((nrow, n), dtype=bool)
    start[:, 1:] = x[:, 1:] != x[:, :-1]
    flat = np.flatnonzero(start)               # run starts, row-major flat index
    v = x.ravel()[flat]
    first = flat % n == 0
    peak = ~first & ~np.roll(first, -1)        # neither the first nor the last run
    peak[1:] &= v[:-1] < v[1:]
    peak[:-1] &= v[1:] < v[:-1]
    head = np.flatnonzero(peak)
    mid = (flat[head] + flat[head + 1] - 1) // 2   # a peak run never ends its row
    return mid // n, mid % n


def _prominences(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The prominence of the peak at ``idx[i]`` of each row ``x[i]``.

    Its height above the higher of two minima: on each side, the lowest
    sample between the peak and the nearest strictly higher sample (or the
    end of the row).  Bit-equal to the reference prominences.
    """
    j = np.arange(x.shape[1])
    at = idx[:, None]
    h = x[np.arange(x.shape[0]), idx][:, None]
    higher = x > h
    left = np.where(higher & (j < at), j, -1).max(axis=1)[:, None]
    right = np.where(higher & (j > at), j, x.shape[1]).min(axis=1)[:, None]
    low_left = np.where((j > left) & (j <= at), x, np.inf).min(axis=1)
    low_right = np.where((j >= at) & (j < right), x, np.inf).min(axis=1)
    return h[:, 0] - np.maximum(low_left, low_right)


def _refine_peak(row: np.ndarray, idx: int, dz: float) -> float:
    if 1 <= idx < len(row) - 1:
        y0, y1, y2 = row[idx - 1], row[idx], row[idx + 1]
        den = y0 - 2.0 * y1 + y2
        if den != 0.0:
            return float(np.clip(0.5 * (y0 - y2) / den, -1.0, 1.0)) * dz
    return 0.0


def _time_derivative_blocks(field: VarianceField, rows: int):
    """Yield (first row, V, dV/dt) of ``field`` ``rows`` time rows at a time.

    Each block reads its rows and one halo row on each side through
    ``field.rows``, so the field is never held whole.  dV/dt is
    bit-equal to the same rows of ``np.gradient(values, ts, axis=0)``: it
    uses the whole grid's three-point stencil, and numpy's
    uniform-spacing formula only when the whole grid is exactly uniform, as
    ``np.gradient`` decides on the whole grid (a slice of it may be uniform
    where the grid is not).
    """
    ts = field.times
    dt = np.diff(ts)
    uniform = bool((dt == dt[0]).all())
    n = ts.size
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        first = max(lo - 1, 0)                  # the block's rows start at values[first]
        values = field.rows(first, min(hi + 1, n))
        i0, i1 = max(lo, 1), min(hi, n - 1)    # the block's interior rows
        m = i1 - i0                            # values[0] is the row before i0
        prev, mid, nxt = values[:m], values[1:m + 1], values[2:m + 2]
        out = np.empty((hi - lo, values.shape[1]))
        if uniform:
            np.subtract(nxt, prev, out=out[i0 - lo:i1 - lo])
            out[i0 - lo:i1 - lo] /= 2.0 * dt[0]
        else:
            dx1, dx2 = dt[i0 - 1:i1 - 1, None], dt[i0:i1, None]
            a = -(dx2) / (dx1 * (dx1 + dx2))
            b = (dx2 - dx1) / (dx1 * dx2)
            c = dx1 / (dx2 * (dx1 + dx2))
            out[i0 - lo:i1 - lo] = a * prev + b * mid + c * nxt
        if lo == 0:
            out[0] = (values[1] - values[0]) / dt[0]
        if hi == n:
            out[-1] = (values[-1] - values[-2]) / dt[-1]
        yield lo, values[lo - first:hi - first], out


def extract_front(field: VarianceField, method: str = "mixed_derivative") -> FrontTrace:
    """Locate the correlation front z_c(t) on a regular (position x time) grid.

    ``mixed_derivative`` (default): per time sample, the front is the
    tallest peak of |d2 V/dt dz| after Gaussian smoothing of width sigma_z
    along the position axis (always the healing length of the field's mode
    basis), the leftmost of equals, kept only if its prominence reaches
    ``DEFAULT_PROMINENCE_REL`` times the range of the searched row.
    ``half_plateau``: the position where |dV/dt| crosses midway between its
    inner and outer plateau levels.  Both ignore the outer edge of trapped
    clouds (beyond 0.9 R) where the vanishing density dominates the
    derivative; a box is searched to its last point.
    Undetectable rows are dropped; an entirely empty trace is returned with
    diagnostics rather than raised.  The field is read a block of times at a
    time and never held whole; its trace is bit-equal to that of the same
    rows read at once.
    """
    z = field.positions
    ts = field.times
    if z.size < 8 or ts.size < 3:
        raise ConfigError("front extraction needs a dense (position x time) grid")
    dz = float(z[1] - z[0])
    sigma_z = field.modes.xi_h
    radius = field.modes.radius   # the box has none
    search_max = float(z[-1]) if radius is None else EDGE_SEARCH_FRACTION * radius
    imax = int(np.searchsorted(z, search_max, side="right"))
    guard = max(3, int(round(3.0 * sigma_z / dz)))

    diagnostics = {"dropped": 0, "search_max": search_max, "guard": guard}
    # each row's detection and the level its row must lift above the floor
    positions = np.full(ts.size, np.nan)
    levels = np.full(ts.size, -np.inf)
    vmax = 0.0   # max |V| over the blocks read so far

    if method == "mixed_derivative":
        sigma = sigma_z / dz
        # smoothed outputs left of imax never reach the right-edge padding
        ncol = min(z.size, imax + int(4.0 * sigma + 0.5))
        searchable = imax - 2 * guard >= 4
    elif method == "half_plateau":
        n_dec = max(2, (imax - 2 * guard) // 10)
        # the width of each row's search slice [guard:imax - guard]
        searchable = len(range(z.size)[guard:imax - guard]) >= 4 * n_dec
    else:
        raise ConfigError(f"unknown front detection method: {method!r}")

    rows = max(1, _FRONT_BLOCK_BYTES // (8 * z.size))
    blocks = _time_derivative_blocks(field, rows) if searchable else ()
    for b, V, dVdt in blocks:
        vmax = np.max((vmax, V.max(), -V.min()))
        if method == "mixed_derivative":
            M = np.gradient(dVdt, z, axis=1)
            smooth = np.abs(_gaussian_smooth(M[:, :ncol], sigma)[:, :imax])
            seg = smooth[:, guard:-guard]
            rng = seg.max(axis=1) - seg.min(axis=1)
            row, idx = _peaks(seg)
            tall = np.full(seg.shape, -np.inf)   # each row's peaks, -inf elsewhere
            tall[row, idx] = seg[row, idx]
            row = np.flatnonzero(tall.max(axis=1) > -np.inf)   # the rows with a peak
            idx = tall[row].argmax(axis=1)       # the tallest peak, the leftmost of equals
            ok = _prominences(seg[row], idx) >= DEFAULT_PROMINENCE_REL * rng[row]
            for i, j in zip(row[ok], idx[ok] + guard):
                positions[b + i] = z[j] + _refine_peak(smooth[i], j, dz)
                levels[b + i] = rng[i]
        else:
            for i in range(dVdt.shape[0]):
                row = np.abs(dVdt[i, guard:imax - guard])
                inner = float(row[:n_dec].mean())
                outer = float(row[-n_dec:].mean())
                if abs(outer - inner) <= DEFAULT_PROMINENCE_REL * max(outer, inner, 1e-300):
                    continue
                thr = 0.5 * (inner + outer)
                side = row > thr if outer > inner else row < thr
                cross = np.nonzero(side)[0]
                if cross.size == 0 or cross[0] == 0:
                    continue
                j = cross[0]
                frac = (thr - row[j - 1]) / (row[j] - row[j - 1])
                positions[b + i] = z[guard + j - 1] + float(np.clip(frac, 0.0, 1.0)) * dz
                levels[b + i] = abs(outer - inner)
    # absolute floor, from the whole field's max |V| once the last block is
    # read: rounding dust of a featureless field must not register
    deriv_floor = 1e-9 * float(vmax or 1.0) / (float(ts[1] - ts[0]) * dz)
    found = levels > (deriv_floor if method == "mixed_derivative" else deriv_floor * dz)
    # every row without a detection is dropped, all of them when the search
    # segment is too narrow to search at all
    diagnostics["dropped"] = ts.size - int(found.sum())

    return FrontTrace(
        times=ts[found], positions=positions[found],
        method=method, diagnostics=diagnostics,
    )


def fit_velocity(trace: FrontTrace, window: tuple = DEFAULT_FIT_WINDOW) -> VelocityFit:
    """Least-squares front velocity over detections with t in (t0, t1].

    The closed-form centred line, slope = sum (t - tbar)(z - zbar) / sum (t - tbar)^2,
    so fitting needs no LAPACK.
    """
    t0, t1 = window
    sel = (trace.times > t0) & (trace.times <= t1)
    if int(sel.sum()) < 3:
        raise DetectionError(
            f"need at least 3 front detections in ({t0*1e3:g}, {t1*1e3:g}] ms, "
            f"got {int(sel.sum())}"
        )
    tt, zz = trace.times[sel], trace.positions[sel]
    dt = tt - tt.mean()
    spread = np.sum(dt * dt)
    if not spread > 0.0:
        raise DetectionError(f"the front detections in ({t0*1e3:g}, {t1*1e3:g}] ms "
                             "all share one time")
    slope = np.sum(dt * (zz - zz.mean())) / spread
    intercept = zz.mean() - slope * tt.mean()
    resid = zz - (slope * tt + intercept)
    return VelocityFit(
        speed=float(slope), intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(sel.sum()),
    )


def _contrast_kernel(modes, n: int, step: float):
    """C^2(t) over the symmetric n-point window grid of spacing ``step``, from
    the half grid x >= 0, for either geometry.

    ``modes.pair_functions`` gives rows g_r with the pair term of each mode
    the sum over its rows of (g_r(z) - g_r(z'))^2, each row even or odd in
    x.  With amplitudes a_r (those of the row's mode) the variance is V =
    D_a + D_b - 2 G_ab, D = sum_r a_r g_r^2 and G_ab = sum_r a_r g_r(a)
    g_r(b), so C_ab = exp(G_ab - h_a - h_b) with h = D/2.  Mirroring a point
    flips the sign of the odd rows only, so G between two points of the half
    grid is Ge + Go for equal signs and Ge - Go for opposite signs, with Ge
    and Go the sums over the even and odd rows.  Hence

        sum_ab w_a w_b C_ab = 2 sum_{a,b>=0} u_a u_b
                              [exp(Ge + Go - h_a - h_b) + exp(Ge - Go - h_a - h_b)]

    with u = w on the half grid and the centre weight halved when the grid
    has an odd number of points.  The summand is symmetric in (a, b), so
    only the upper triangle a <= b is evaluated, cut into row panels
    [a0, a1) x [a0, m) of equal height: the square [a0, a1)^2 on the
    diagonal carries the weights u_a u_b, the rectangle to its right
    2 u_a u_b.  Per block of times h comes from one batched matrix product,
    and per panel Ge and Go from one each, into buffers allocated once per
    call; h_b, then h_a, is subtracted from Ge by broadcasting.  Panels and
    time blocks depend on the grid and row counts only, so each time goes
    through the same operations whatever the other times of the call, and
    a single-time call is bit-equal to its entry in a bulk call.
    """
    m = (n + 1) // 2
    span = step * (n - 1)
    x = (np.arange(m) + (1 - n % 2) / 2.0) * step
    g, mode, even, odd = modes.pair_functions(x)                   # (rows, m)
    g2 = g * g
    # the point variance D = sum_r a_r g_r^2 peaks below its time-free bound sum_r w_r g_r^2
    variance = float(np.max(modes.weights()[mode] @ g2))
    gap = math.ulp(variance)
    if not gap <= _MAX_EXPONENT_ERROR:   # NaN and inf included
        raise ConfigError(f"C^2 over the {span / 1e-6:.6g} um window is beyond the resolution "
                          f"of doubles at squeezing {modes.params.squeezing:.6g}: the phase "
                          f"variance at a point reaches up to {variance:.3g}, where doubles lie "
                          f"{gap:.3g} apart, more than {_MAX_EXPONENT_ERROR:g}")
    u = np.full(m, step)
    u[-1] = step / 2.0
    if n % 2:
        u[0] = step / 2.0
    count = -(-m // _CONTRAST_PANEL_ROWS)
    height = -(-m // count)
    block = max(1, _CONTRAST_PANEL_ELEMENTS // (height * max(m, g.shape[0])))
    panels = []   # (a0, a1, weights)
    for a0 in range(0, m, height):
        a1 = min(a0 + height, m)
        w = u[a0:a1, None] * u[a0:]
        w[:, a1 - a0:] *= 2.0
        panels.append((a0, a1, w.ravel()))

    def values(times) -> np.ndarray:
        times = _check_times(np.atleast_1d(times))
        out = np.empty(times.size)
        bufs = np.empty((3, min(block, times.size) * height * m))
        for start in range(0, times.size, block):
            tt = times[start:start + block]
            k = tt.size
            amp = np.take(modes.time_factors(tt), mode, axis=1)   # per row, C-ordered
            h = np.matmul(amp[:, None, :], g2)[:, 0] / 2.0                # (k, m)
            acc = np.zeros(k)
            for a0, a1, w in panels:
                e, o, s = (b[:k * (a1 - a0) * (m - a0)].reshape(k, a1 - a0, -1) for b in bufs)
                np.matmul(amp[:, None, even] * g[even, a0:a1].T, g[even, a0:], out=e)
                np.matmul(amp[:, None, odd] * g[odd, a0:a1].T, g[odd, a0:], out=o)
                e -= h[:, None, a0:]
                e -= h[:, a0:a1, None]                              # Ge - h_a - h_b
                np.exp(np.add(e, o, out=s), out=s)
                e -= o
                s += np.exp(e, out=e)
                acc += np.matmul(s.reshape(k, 1, -1), w)[:, 0]
            out[start:start + k] = 2.0 * acc / span**2
        return out

    return values


def contrast_evaluator(modes, length: float, dz: float | None = None):
    """Evaluator of C^2(t) for an observation window of size L.

    Built once per (modes, window); calling it with times (finite and
    non-negative, else ConfigError) returns C^2 at each of them, and a
    single-time call is bit-equal to its entry in a bulk call: both
    geometries run :func:`_contrast_kernel`.

    The position grid step defaults to half the healing length (at the
    cloud centre for trapped gases), below which the integral is converged
    at the 0.2% level.  The grid has n = round(L/dz) + 1 points and spans
    exactly L, with step L/(n - 1).  The window must fit inside the
    periodic box or the cloud, and its point phase variances must stay
    where doubles lie at most ``_MAX_EXPONENT_ERROR`` apart; else ConfigError.
    """
    _check_positive(length, "integration length")
    if dz is not None:
        _check_positive(dz, "grid step dz")
    # the box bounds the separations in the window, the cloud its points
    modes.check_points(np.array([length if modes.radius is None else length / 2.0]))
    n = int(round(length / (modes.xi_h / 2.0 if dz is None else dz))) + 1
    if n < 2:
        raise ConfigError("integration window contains fewer than 2 grid points")
    step = length / (n - 1)
    return _contrast_kernel(modes, n, step)


def _brent_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximise ``f`` on [lo, hi] by Brent's parabolic interpolation.

    Golden-section steps guard the parabolic ones (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5).  The search stops
    once |x - m| <= 2 tol - (b - a)/2, so with tol a quarter of
    ``_REFINE_BRACKET_S`` the final bracket is at most that wide.  Returns
    the best point evaluated and its value; a degenerate bracket
    (lo == hi) costs a single evaluation.
    """
    tol = 0.25 * _REFINE_BRACKET_S
    a, b = lo, hi
    x = w = v = a + _GOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:   # parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:              # golden section into the larger part
            e = (b if x < m else a) - x
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def recurrence_scan(times, values, refine_fn) -> list[tuple[float, float]]:
    """Ranked partial recurrences of coherence after the initial dephasing.

    ``values`` is C^2 sampled at ascending ``times``.  Local maxima past
    the first local minimum with a prominence of at least 1e-3, sorted by
    strength (the C^2 value at the maximum) rounded to 10 significant
    digits, strongest first, then by time.  Each sampled peak is polished
    by Brent's method on the continuous evaluator ``refine_fn(t) -> C^2``
    inside the bracket of its neighbouring samples, so exact rephasings
    report strength 1 rather than the nearest sample value; the refined
    point replaces the sample only if it is at least as strong.
    The final bracket is at most 1e-9 s wide: the CLI prints t to 1e-9 s,
    and at a quadratic peak C^2 cannot resolve t much below sqrt(eps) t
    (about 3e-9 s at 0.2 s), so a tighter bracket only buys kernel calls.
    """
    vals = np.asarray(values, dtype=float)
    ts = np.asarray(times, dtype=float)
    if vals.size < 5:
        raise ConfigError("contrast trace too short to scan")
    turn = np.nonzero(np.diff(vals) > 0)[0]
    if turn.size == 0:
        return []
    imin = int(turn[0])
    tail = vals[None, imin:]
    peaks = [p + imin for p in _peaks(tail)[1]
             if _prominences(tail, np.array([p]))[0] >= 1e-3]
    results = []
    for idx in peaks:
        t_pk, s_pk = float(ts[idx]), float(vals[idx])
        lo = ts[idx - 1] if idx > 0 else ts[idx]
        hi = ts[idx + 1] if idx + 1 < ts.size else ts[idx]
        t_ref, s_ref = _brent_max(refine_fn, float(lo), float(hi))
        if s_ref >= s_pk:
            t_pk, s_pk = t_ref, s_ref
        results.append((t_pk, s_pk))
    # rank on the strength as printed (10 digits), so that equal-looking
    # recurrences rank by time rather than by last-ulp refinement noise
    results.sort(key=lambda r: (-float(format(r[1], ".10g")), r[0]))
    return results


def prethermal_pcf(modes, zbar) -> np.ndarray:
    """Long-time-averaged correlation function of the dephased state.

    Averages C(zbar, t) at 64 times across 0.30-0.45 recurrence periods,
    inside the prethermal plateau: after the cone has passed the largest
    requested separation and before rephasing sets in.  Converges to
    exp(-|zbar| xi_n^2/l0) for separations above the phonon cutoff.
    A trapped cloud has no recurrence period to average over: ConfigError.
    """
    from .homogeneous import recurrence_time

    if modes.radius is not None:
        raise ConfigError("the prethermal average spans the box's recurrence period, "
                          "which a trapped cloud does not have")
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    t_rev = recurrence_time(modes.L, modes.params.c)
    lo, hi = 0.30, 0.45
    zmax = float(np.abs(zbar).max())
    if zmax / (2.0 * modes.params.c) >= lo * t_rev:
        raise ConfigError("window opens before the cone reaches the largest separation")
    ts = np.linspace(lo * t_rev, hi * t_rev, 64)
    return pcf(variance_field(modes, zbar, ts)).mean(axis=0)
