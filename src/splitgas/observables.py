"""Measurable quantities derived from variance fields.

The correlation function is the Gaussian exponential C = exp(-variance/2).
The correlation front is located per time sample as the peak of the
smoothed mixed derivative d2<dphi^2>/dt dz (the variance rate switches
between its inside- and outside-cone plateaus there); an independent
half-plateau crossing detector guards against ringing artefacts of the
truncated mode sums.  The mean squared contrast double-integrates C over
an observation window, and recurrences are ranked local maxima of that
trace.  A detected front comes back as a :class:`FrontTrace` and its
least-squares slope as a :class:`VelocityFit`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DetectionError
from .homogeneous import PlaneWaveModeSet, recurrence_time
from .modes import VarianceField, variance_field
from .trapped import legendre_f_table

__all__ = [
    "FrontTrace",
    "VelocityFit",
    "pcf",
    "extract_front",
    "fit_velocity",
    "contrast_evaluator",
    "contrast_trace",
    "recurrence_scan",
    "prethermal_pcf",
]

DEFAULT_FIT_WINDOW = (0.0, 10e-3)
DEFAULT_PROMINENCE_REL = 0.25
EDGE_SEARCH_FRACTION = 0.9   # trapped fronts are searched for within 0.9 R
# The trapped contrast kernel cuts the upper triangle of its m x m half grid
# into row panels of equal height, at most this many rows each.  More panels
# waste less of the diagonal squares but add per-call overhead, which the
# single-time calls of recurrence refinement feel.
_CONTRAST_PANEL_ROWS = 48
# time samples per kernel block: at most about this many float64 values
# (512 kB) per even-j operand (block x (J/2 + 2) x m) and per panel
# temporary (block x panel height x m), so a panel's working set stays in
# L2.  Fewer, larger blocks cut the per-block interpreter work.
_CONTRAST_PANEL_ELEMENTS = 2**16
# The front detector differentiates, smooths and searches the time x position
# grid this many time rows at a time, so its temporaries stay a few MB on the
# largest preset grids; every row is processed exactly as on the whole grid.
_FRONT_BLOCK_ROWS = 64
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


def pcf(variance: VarianceField) -> np.ndarray:
    """Correlation C = exp(-variance/2), element-wise on the field's grid."""
    if not np.all(variance.values >= 0):   # NaN included
        raise ConfigError("variance must be non-negative")
    return np.exp(-variance.values / 2.0)


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
    for j in range(r, 0, -1):
        out += (p[..., r - j:r - j + n] + p[..., r + j:r + j + n]) * w[r - j]
    return out


def _peak_prominences(x: np.ndarray):
    """Local maxima of every row of a 2-D array, with their prominences.

    A peak is a run of equal samples with a strictly lower sample on each
    side, reported at the middle index (start + end) // 2 of the run.  Its
    prominence is its height above the higher of two minima: on each side,
    the lowest sample between the peak and the nearest strictly higher
    sample (or the end of the row).  These are the usual signal-processing
    definitions, and the tests require bit-equal results with the
    reference peak finder.

    Each row is compressed to its turning points: the runs that are peaks or
    valleys, plus the first and last run.  Samples in between lie on a
    monotone stretch, so they can be neither the nearest higher sample nor
    a minimum.  The turning points of all rows form one sequence, with +inf
    before, between and after the rows, so every search stops at the ends
    of its row.  Windowed maxima and minima of that sequence over lengths
    2**j (a sparse table) then give every peak's two stops by binary
    lifting and its two minima by two overlapping windows, for all peaks
    at once.  Returns flat arrays (row, index, prominence) in row-major
    order.
    """
    nrow, n = x.shape
    start = np.ones((nrow, n), dtype=bool)
    start[:, 1:] = x[:, 1:] != x[:, :-1]
    flat = np.flatnonzero(start)               # run starts, row-major flat index
    v = x.ravel()[flat]
    first = flat % n == 0
    last = np.roll(first, -1)
    lower_before = np.zeros(v.size, dtype=bool)
    lower_before[1:] = v[:-1] < v[1:]
    lower_after = np.zeros(v.size, dtype=bool)
    lower_after[:-1] = v[1:] < v[:-1]
    inner = ~first & ~last
    peak = inner & lower_before & lower_after
    keep = first | last | peak | (inner & ~lower_before & ~lower_after)

    row = flat[keep] // n
    pos = np.arange(1, row.size + 1) + row     # one sentinel per row boundary
    seq = np.full(pos.size + nrow + 1, np.inf)
    seq[pos] = v[keep]
    levels = max(int(np.bincount(row).max(initial=1)).bit_length(), 1)
    top = np.full((levels, seq.size), np.inf)   # top[j, i] = max(seq[i:i + 2**j])
    bottom = top.copy()                         # bottom[j, i] = min(seq[i:i + 2**j])
    top[0] = bottom[0] = seq
    for j in range(1, levels):
        w = 1 << (j - 1)
        top[j, :-w] = np.maximum(top[j - 1, :-w], top[j - 1, w:])
        bottom[j, :-w] = np.minimum(bottom[j - 1, :-w], bottom[j - 1, w:])

    q = pos[peak[keep]]
    h = seq[q]
    left, right = q.copy(), q + 1               # seq[left:right] <= h
    for j in reversed(range(levels)):
        w = 1 << j
        left -= w * (top[j, np.maximum(left - w, 0)] <= h)
        right += w * (top[j, right] <= h)

    def window_min(a, b):
        j = np.frexp(b - a)[1] - 1              # floor(log2(b - a))
        return np.minimum(bottom[j, a], bottom[j, b - (1 << j)])

    prom = h - np.maximum(window_min(left, q + 1), window_min(q, right))
    head = np.flatnonzero(peak)
    mid = (flat[head] + flat[head + 1] - 1) // 2   # a peak run never ends its row
    return mid // n, mid % n, prom


def _refine_peak(row: np.ndarray, idx: int, dz: float) -> float:
    if 1 <= idx < len(row) - 1:
        y0, y1, y2 = row[idx - 1], row[idx], row[idx + 1]
        den = y0 - 2.0 * y1 + y2
        if den != 0.0:
            return float(np.clip(0.5 * (y0 - y2) / den, -1.0, 1.0)) * dz
    return 0.0


def extract_front(
    field: VarianceField,
    smoothing_sigma: float | None = None,
    method: str = "mixed_derivative",
) -> FrontTrace:
    """Locate the correlation front z_c(t) on a regular (position x time) grid.

    ``mixed_derivative`` (default): per time sample, the front is the most
    prominent peak of |d2 V/dt dz| after Gaussian smoothing of width
    sigma_z along the position axis (default: the healing length of the
    field's mode basis, 4 grid steps for a field without one).
    ``half_plateau``: the position where |dV/dt| crosses midway between its
    inner and outer plateau levels.  Both ignore the outer edge of trapped
    clouds (beyond 0.9 R) where the vanishing density dominates the
    derivative; a field without a basis is searched to its last point.
    Undetectable rows are dropped; an entirely empty trace is returned with
    diagnostics rather than raised.
    """
    z = field.positions
    ts = field.times
    if z.size < 8 or ts.size < 3:
        raise ConfigError("front extraction needs a dense (position x time) grid")
    dz = float(z[1] - z[0])
    if smoothing_sigma is None:
        smoothing_sigma = getattr(field.modes, "xi_h", 4.0 * dz)
    if not 0.0 < smoothing_sigma < math.inf:
        raise ConfigError(f"smoothing_sigma must be finite and strictly positive, "
                          f"got {smoothing_sigma!r}")
    radius = getattr(field.modes, "radius", None)   # the box has none
    search_max = float(z[-1]) if radius is None else EDGE_SEARCH_FRACTION * radius
    imax = int(np.searchsorted(z, search_max, side="right"))
    guard = max(3, int(round(3.0 * smoothing_sigma / dz)))

    dVdt = np.gradient(field.values, ts, axis=0)
    diagnostics = {"dropped": 0, "search_max": search_max, "guard": guard}
    positions, times = [], []
    # absolute floor: rounding dust of a featureless field must not register
    dt_grid = float(ts[1] - ts[0])
    deriv_floor = 1e-9 * float(np.abs(field.values).max() or 1.0) / (dt_grid * dz)

    if method == "mixed_derivative":
        sigma = smoothing_sigma / dz
        # smoothed outputs left of imax never reach the right-edge padding
        ncol = min(z.size, imax + int(4.0 * sigma + 0.5))
        if imax - 2 * guard >= 4:
            for b in range(0, ts.size, _FRONT_BLOCK_ROWS):
                M = np.gradient(dVdt[b:b + _FRONT_BLOCK_ROWS], z, axis=1)
                rows = np.abs(_gaussian_smooth(M[:, :ncol], sigma)[:, :imax])
                seg = rows[:, guard:-guard]
                rng = seg.max(axis=1) - seg.min(axis=1)
                row, idx, prom = _peak_prominences(seg)
                ok = (prom >= DEFAULT_PROMINENCE_REL * rng[row]) & (rng[row] > deriv_floor)
                row, idx, prom = row[ok], idx[ok], prom[ok]
                # per row the most prominent peak, the leftmost of equals
                order = np.lexsort((idx, -prom, row))
                lead = np.ones(order.size, dtype=bool)
                lead[1:] = row[order[1:]] != row[order[:-1]]
                for i, j in zip(row[order[lead]], idx[order[lead]] + guard):
                    positions.append(z[j] + _refine_peak(rows[i], j, dz))
                    times.append(ts[b + i])
    elif method == "half_plateau":
        n_dec = max(2, (imax - 2 * guard) // 10)
        for i in range(ts.size):
            row = np.abs(dVdt[i, guard:imax - guard])
            if row.size < 4 * n_dec:
                break
            inner = float(row[:n_dec].mean())
            outer = float(row[-n_dec:].mean())
            if (abs(outer - inner) <= DEFAULT_PROMINENCE_REL * max(outer, inner, 1e-300)
                    or abs(outer - inner) <= deriv_floor * dz):
                continue
            thr = 0.5 * (inner + outer)
            side = row > thr if outer > inner else row < thr
            cross = np.nonzero(side)[0]
            if cross.size == 0 or cross[0] == 0:
                continue
            j = cross[0]
            frac = (thr - row[j - 1]) / (row[j] - row[j - 1])
            positions.append(z[guard + j - 1] + float(np.clip(frac, 0.0, 1.0)) * dz)
            times.append(ts[i])
    else:
        raise ConfigError(f"unknown front detection method: {method!r}")
    # every row without a detection is dropped, all of them when the search
    # segment is too narrow to search at all
    diagnostics["dropped"] = ts.size - len(times)

    return FrontTrace(
        times=np.asarray(times), positions=np.asarray(positions),
        method=method, diagnostics=diagnostics,
    )


def fit_velocity(trace: FrontTrace, window: tuple = DEFAULT_FIT_WINDOW) -> VelocityFit:
    """Least-squares front velocity over detections with t in (t0, t1]."""
    t0, t1 = window
    sel = (trace.times > t0) & (trace.times <= t1)
    if int(sel.sum()) < 3:
        raise DetectionError(
            f"need at least 3 front detections in ({t0*1e3:g}, {t1*1e3:g}] ms, "
            f"got {int(sel.sum())}"
        )
    tt, zz = trace.times[sel], trace.positions[sel]
    slope, intercept = np.polyfit(tt, zz, 1)
    resid = zz - (slope * tt + intercept)
    return VelocityFit(
        speed=float(slope), intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(sel.sum()),
    )


def _homog_pair_weights(n: int, dz: float) -> np.ndarray:
    """Collapse the 2D trapezoid over equal uniform grids to separation lags."""
    w = np.full(n, dz)
    w[0] = w[-1] = dz / 2.0
    c = np.correlate(w, w, mode="full")[n - 1:]
    c[1:] *= 2.0
    return c


def _homog_contrast_kernel(modes: PlaneWaveModeSet, n: int, step: float):
    seps = step * np.arange(n)
    lag_w = _homog_pair_weights(n, step)
    span = step * (n - 1)

    def values(times: np.ndarray) -> np.ndarray:
        var = modes.coefficient * (modes.time_factors(times) @ modes.pair_terms(seps, 0.0))
        return (np.exp(-var / 2.0) @ lag_w) / span**2

    return values


def _trapped_contrast_kernel(modes, n: int, step: float):
    """C^2(t) over the symmetric n-point window grid of spacing ``step``, from
    the half grid x >= 0.

    With V = D_a + D_b - 2 G_ab, C_ab = exp(G_ab - h_a - h_b) where h = D/2.
    Since f_j(-x) = (-1)^j f_j(x), G between two points of the half grid is
    Ge + Go for equal signs and Ge - Go for opposite signs, with Ge and Go
    the even- and odd-j parts of the mode sum.  Hence

        sum_ab w_a w_b C_ab = 2 sum_{a,b>=0} u_a u_b
                              [exp(Ge + Go - h_a - h_b) + exp(Ge - Go - h_a - h_b)]

    with u = w on the half grid and the centre weight halved when the grid
    has an odd number of points.  The summand is symmetric in (a, b), so
    only the upper triangle a <= b is evaluated, cut into row panels
    [a0, a1) x [a0, m) of equal height: the square [a0, a1)^2 on the
    diagonal carries the weights u_a u_b, the rectangle to its right
    2 u_a u_b.  Per panel and block of times, Ge - h_a - h_b comes from one
    batched matrix product whose operands carry two extra rows,
    [amp f_e(a), 1, -h_a] . [f_e(b), -h_b, 1], and Go from a second; h is
    half the mode sum of amp f^2.  The panel split and the time block
    depend on the grid and mode counts only, never on the number of times,
    so every time goes through the same per-time operations whatever the
    other times of the call, and a single-time call is bit-equal to its
    entry in a bulk call.
    """
    m = (n + 1) // 2
    span = step * (n - 1)
    x = (np.arange(m) + (1 - n % 2) / 2.0) * step
    f = legendre_f_table(modes.j_max, x / modes.radius)   # (J, m), rows j = 1..J
    f_odd, f_even = f[0::2], f[1::2]
    f2 = f * f
    je = f_even.shape[0]
    u = np.full(m, step)
    u[-1] = step / 2.0
    if n % 2:
        u[0] = step / 2.0
    omega = modes.omega
    count = -(-m // _CONTRAST_PANEL_ROWS)
    height = -(-m // count)
    block = max(1, _CONTRAST_PANEL_ELEMENTS // (max(height, je + 2) * m))
    panels = []   # (a0, a1, even rows, odd rows, odd columns, weights)
    for a0 in range(0, m, height):
        a1 = min(a0 + height, m)
        w = u[a0:a1, None] * u[a0:]
        w[:, a1 - a0:] *= 2.0
        panels.append((a0, a1, f_even[:, a0:a1].T, f_odd[:, a0:a1].T, f_odd[:, a0:],
                       w.ravel()))

    def values(times: np.ndarray) -> np.ndarray:
        out = np.empty(times.size)
        nb = min(block, times.size)
        left = np.empty((nb, height, je + 2))
        left[..., je] = 1.0
        right = np.empty((nb, je + 2, m))
        right[:, :je] = f_even
        right[:, je + 1] = 1.0
        for start in range(0, times.size, block):
            tt = times[start:start + block]
            k = tt.size
            amp = modes.coefficient * np.sin(omega[None, :] * tt[:, None]) ** 2 / omega**2
            mh = np.matmul(amp[:, None, :], f2)[:, 0] / -2.0            # -h, (k, m)
            right[:k, je] = mh
            amp_e, amp_o = amp[:, None, 1::2], amp[:, None, 0::2]
            acc = np.zeros(k)
            for a0, a1, fe_rows, fo_rows, fo_cols, w in panels:
                lt = left[:k, :a1 - a0]
                np.multiply(amp_e, fe_rows, out=lt[..., :je])
                lt[..., je + 1] = mh[:, a0:a1]
                e = np.matmul(lt, right[:k, :, a0:])                    # Ge - h_a - h_b
                go = np.matmul(amp_o * fo_rows, fo_cols)
                s = np.add(e, go)
                np.exp(s, out=s)
                e -= go
                s += np.exp(e, out=e)
                acc += np.matmul(s.reshape(k, 1, -1), w)[:, 0]
            out[start:start + k] = 2.0 * acc / span**2
        return out

    return values


@dataclass(frozen=True)
class ContrastEvaluator:
    """Mean squared contrast C^2(t) of one observation window.

    Built once per (modes, window) by :func:`contrast_evaluator`; calling it
    with an array of times returns C^2 at each of them.
    """

    length: float   # m
    dz: float       # m, step of the window grid
    kernel: Callable[[np.ndarray], np.ndarray]

    def __call__(self, times) -> np.ndarray:
        return self.kernel(np.atleast_1d(np.asarray(times, dtype=float)))


def contrast_evaluator(modes, length: float, dz: float | None = None) -> ContrastEvaluator:
    """Evaluator of C^2(t) for an observation window of size L.

    The position grid step defaults to half the healing length (at the
    cloud centre for trapped gases), below which the integral is converged
    at the 0.2% level.  The grid has n = round(L/dz) + 1 points and spans
    exactly L, with step L/(n - 1).  The window must fit inside the
    periodic box or the cloud.
    """
    if not length > 0:   # NaN included
        raise ConfigError(f"integration length must be strictly positive, got {length!r}")
    if dz is not None and not dz > 0:
        raise ConfigError(f"grid step dz must be strictly positive, got {dz!r}")
    homogeneous = isinstance(modes, PlaneWaveModeSet)
    # the box bounds the separations in the window, the cloud its points
    modes.check_points(np.array([length if homogeneous else length / 2.0]))
    n = int(round(length / (modes.xi_h / 2.0 if dz is None else dz))) + 1
    if n < 2:
        raise ConfigError("integration window contains fewer than 2 grid points")
    step = length / (n - 1)
    kernel = _homog_contrast_kernel if homogeneous else _trapped_contrast_kernel
    return ContrastEvaluator(length, step, kernel(modes, n, step))


def contrast_trace(modes, length: float, times, dz: float | None = None) -> np.ndarray:
    """Mean squared contrast C^2 at each of ``times`` for a window of size L.

    One-shot form of :func:`contrast_evaluator`; build the evaluator once
    instead when the same window is evaluated repeatedly.
    """
    return contrast_evaluator(modes, length, dz)(times)


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


def recurrence_scan(times, values, refine_fn=None) -> list[tuple[float, float]]:
    """Ranked partial recurrences of coherence after the initial dephasing.

    ``values`` is C^2 sampled at ascending ``times``.  Local maxima past
    the first local minimum with a prominence of at least 1e-3, sorted by
    strength (the C^2 value at the maximum) rounded to 10 significant
    digits, strongest first, then by time.  When a continuous evaluator
    ``refine_fn(t) -> C^2`` is supplied, each sampled peak is polished by
    Brent's method inside the bracket of its neighbouring samples, so exact
    rephasings report strength 1 rather than the nearest sample value; the
    refined point replaces the sample only if it is at least as strong.
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
    _, peaks, prom = _peak_prominences(vals[None, imin:])
    peaks = peaks[prom >= 1e-3] + imin
    results = []
    for idx in peaks:
        t_pk, s_pk = float(ts[idx]), float(vals[idx])
        if refine_fn is not None:
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


def prethermal_pcf(modes: PlaneWaveModeSet, zbar) -> np.ndarray:
    """Long-time-averaged correlation function of the dephased state.

    Averages C(zbar, t) at 64 times across 0.30-0.45 recurrence periods,
    inside the prethermal plateau: after the cone has passed the largest
    requested separation and before rephasing sets in.  Converges to
    exp(-|zbar| xi_n^2/l0) for separations above the phonon cutoff.
    """
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    t_rev = recurrence_time(modes.L, modes.params.c)
    lo, hi = 0.30, 0.45
    zmax = float(np.abs(zbar).max())
    if zmax / (2.0 * modes.params.c) >= lo * t_rev:
        raise ConfigError("window opens before the cone reaches the largest separation")
    ts = np.linspace(lo * t_rev, hi * t_rev, 64)
    return pcf(variance_field(modes, zbar, ts)).mean(axis=0)
