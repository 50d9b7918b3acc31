"""Measurable quantities derived from variance fields.

The correlation function is the Gaussian exponential C = exp(-variance/2).
The correlation front is located per time sample as the peak of the
smoothed mixed derivative d2<dphi^2>/dt dz (the variance rate switches
between its inside- and outside-cone plateaus there); an independent
half-plateau crossing detector guards against ringing artefacts of the
truncated mode sums.  The mean squared contrast double-integrates C over
an observation window, and recurrences are ranked local maxima of that
trace.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DetectionError
from .fields import (
    ContrastTrace,
    CorrelationField,
    FrontTrace,
    PairCorrelationField,
    PairVarianceField,
    VarianceField,
    VelocityFit,
)
from .homogeneous import PlaneWaveModeSet, recurrence_time
from .modes import variance_field
from .trapped import legendre_f_table

__all__ = [
    "pcf",
    "extract_front",
    "fit_velocity",
    "mean_squared_contrast",
    "contrast_evaluator",
    "contrast_trace",
    "recurrence_scan",
    "mode_amplitude_trace",
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


def pcf(variance):
    """Correlation field C = exp(-variance/2), element-wise.

    Accepts either a plain or a pair variance field and returns the
    matching correlation container.
    """
    if np.any(variance.values < 0):
        raise ConfigError("variance must be non-negative")
    vals = np.exp(-variance.values / 2.0)
    if isinstance(variance, PairVarianceField):
        return PairCorrelationField(
            z=variance.z, zprime=variance.zprime, times=variance.times,
            values=vals, regime=variance.regime, truncation=variance.truncation,
            meta=dict(variance.meta),
        )
    return CorrelationField(
        positions=variance.positions, times=variance.times, values=vals,
        regime=variance.regime, truncation=variance.truncation,
        zprime=variance.zprime, meta=dict(variance.meta),
    )


def _front_search_limit(field: VarianceField) -> float:
    if field.regime != "homogeneous" and "R_eff" in field.meta:
        return EDGE_SEARCH_FRACTION * field.meta["R_eff"]
    return float(field.positions[-1])


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
    prominence_rel: float = DEFAULT_PROMINENCE_REL,
    method: str = "mixed_derivative",
    search_max: float | None = None,
) -> FrontTrace:
    """Locate the correlation front z_c(t) on a regular (position x time) grid.

    ``mixed_derivative`` (default): per time sample, the front is the most
    prominent peak of |d2 V/dt dz| after Gaussian smoothing of width
    sigma_z (defaults to the healing length) along the position axis.
    ``half_plateau``: the position where |dV/dt| crosses midway between its
    inner and outer plateau levels.  Both ignore the outer edge of trapped
    clouds (beyond 0.9 R) where the vanishing density dominates the
    derivative.  Undetectable rows are dropped; an entirely empty trace is
    returned with diagnostics rather than raised.
    """
    z = field.positions
    ts = field.times
    if z.size < 8 or ts.size < 3:
        raise ConfigError("front extraction needs a dense (position x time) grid")
    dz = float(z[1] - z[0])
    if smoothing_sigma is None:
        smoothing_sigma = field.meta.get("xi_h", 4.0 * dz)
    if search_max is None:
        search_max = _front_search_limit(field)
    imax = int(np.searchsorted(z, search_max, side="right"))
    guard = max(3, int(round(3.0 * smoothing_sigma / dz)))

    dVdt = np.gradient(field.values, ts, axis=0)
    diagnostics = {"dropped": 0, "search_max": search_max, "guard": guard}
    positions, times = [], []
    # absolute floor: rounding dust of a featureless field must not register
    dt_grid = float(ts[1] - ts[0])
    deriv_floor = 1e-9 * float(np.abs(field.values).max() or 1.0) / (dt_grid * dz)

    if method == "mixed_derivative":
        M = np.gradient(dVdt, z, axis=1)
        rows = np.abs(_gaussian_smooth(M, smoothing_sigma / dz)[:, :imax])
        seg = rows[:, guard:-guard]
        if seg.shape[1] >= 4:
            rng = seg.max(axis=1) - seg.min(axis=1)
            row, idx, prom = _peak_prominences(seg)
            ok = (prom >= prominence_rel * rng[row]) & (rng[row] > deriv_floor)
            row, idx, prom = row[ok], idx[ok], prom[ok]
            # per row the most prominent peak, the leftmost of equals
            order = np.lexsort((idx, -prom, row))
            lead = np.ones(order.size, dtype=bool)
            lead[1:] = row[order[1:]] != row[order[:-1]]
            for i, j in zip(row[order[lead]], idx[order[lead]] + guard):
                positions.append(z[j] + _refine_peak(rows[i], j, dz))
                times.append(ts[i])
            diagnostics["dropped"] = ts.size - len(times)
    elif method == "half_plateau":
        n_dec = max(2, (imax - 2 * guard) // 10)
        for i in range(ts.size):
            row = np.abs(dVdt[i, guard:imax - guard])
            if row.size < 4 * n_dec:
                break
            inner = float(row[:n_dec].mean())
            outer = float(row[-n_dec:].mean())
            if (abs(outer - inner) <= prominence_rel * max(outer, inner, 1e-300)
                    or abs(outer - inner) <= deriv_floor * dz):
                diagnostics["dropped"] += 1
                continue
            thr = 0.5 * (inner + outer)
            side = row > thr if outer > inner else row < thr
            cross = np.nonzero(side)[0]
            if cross.size == 0 or cross[0] == 0:
                diagnostics["dropped"] += 1
                continue
            j = cross[0]
            frac = (thr - row[j - 1]) / (row[j] - row[j - 1])
            positions.append(z[guard + j - 1] + float(np.clip(frac, 0.0, 1.0)) * dz)
            times.append(ts[i])
    else:
        raise ConfigError(f"unknown front detection method: {method!r}")

    return FrontTrace(
        times=np.asarray(times), positions=np.asarray(positions),
        method=method, smoothing_sigma=float(smoothing_sigma),
        prominence_rel=prominence_rel, diagnostics=diagnostics,
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
        window=(t0, t1), n_points=int(sel.sum()),
    )


def _window_indices(grid: np.ndarray, length: float) -> np.ndarray:
    half = length / 2.0
    tol = 1e-9 * max(length, 1e-12)
    sel = np.nonzero((grid >= -half - tol) & (grid <= half + tol))[0]
    if sel.size < 2:
        raise ConfigError("integration window contains fewer than 2 grid points")
    return sel


def mean_squared_contrast(corr: PairCorrelationField, length: float, t: float) -> float:
    """Window-averaged squared contrast (1/L^2) * double integral of C.

    Trapezoidal quadrature over the grid points inside [-L/2, L/2]^2 at the
    time sample closest to ``t``; the normalisation uses the realised
    window span so slightly misaligned grids stay unbiased.
    """
    if length <= 0:
        raise ConfigError("integration length must be strictly positive")
    R = corr.meta.get("R_eff")
    if R is not None and length / 2.0 > R:
        raise ConfigError("integration region exceeds the cloud radius")
    it = int(np.argmin(np.abs(corr.times - t)))
    iz = _window_indices(corr.z, length)
    jz = _window_indices(corr.zprime, length)
    z, zp = corr.z[iz], corr.zprime[jz]
    block = corr.values[it][np.ix_(iz, jz)]
    inner = np.trapezoid(block, zp, axis=1)
    total = np.trapezoid(inner, z)
    return float(total / ((z[-1] - z[0]) * (zp[-1] - zp[0])))


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
    omega = modes.omega_j
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

    length: float
    regime: str
    meta: dict
    kernel: Callable[[np.ndarray], np.ndarray]

    def __call__(self, times) -> np.ndarray:
        return self.kernel(np.atleast_1d(np.asarray(times, dtype=float)))

    def trace(self, times) -> ContrastTrace:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return ContrastTrace(length=self.length, times=times, values=self.kernel(times),
                             regime=self.regime, meta=dict(self.meta))


def contrast_evaluator(modes, length: float, dz: float | None = None) -> ContrastEvaluator:
    """Evaluator of C^2(t) for an observation window of size L.

    The position grid step defaults to half the healing length (at the
    cloud centre for trapped gases), below which the integral is converged
    at the 0.2% level.  The grid has n = round(L/dz) + 1 points and spans
    exactly L, with step L/(n - 1).  The window must fit inside the
    periodic box or the cloud.
    """
    if length <= 0:
        raise ConfigError("integration length must be strictly positive")
    homogeneous = isinstance(modes, PlaneWaveModeSet)
    # the box bounds the separations in the window, the cloud its points
    modes.check_points(np.array([length if homogeneous else length / 2.0]))
    n = int(round(length / (modes.xi_h / 2.0 if dz is None else dz))) + 1
    if n < 2:
        raise ConfigError("integration window contains fewer than 2 grid points")
    step = length / (n - 1)
    kernel = _homog_contrast_kernel if homogeneous else _trapped_contrast_kernel
    return ContrastEvaluator(length, modes.regime,
                             {"dz": step, "truncation": modes.truncation, **modes.field_meta()},
                             kernel(modes, n, step))


def contrast_trace(modes, length: float, times, dz: float | None = None) -> ContrastTrace:
    """Mean squared contrast C^2(t) for an observation window of size L.

    One-shot form of :func:`contrast_evaluator`; build the evaluator once
    instead when the same window is evaluated repeatedly.
    """
    return contrast_evaluator(modes, length, dz).trace(times)


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        if b - a <= 1e-12 * max(abs(a), abs(b), 1.0):
            break
    xm = 0.5 * (a + b)
    return xm, f(xm)


def recurrence_scan(
    trace: ContrastTrace,
    min_prominence: float = 1e-3,
    refine_fn=None,
) -> list[tuple[float, float]]:
    """Ranked partial recurrences of coherence after the initial dephasing.

    Local maxima of C^2(t) past the first local minimum, sorted by
    strength (the C^2 value at the maximum), strongest first.  When a
    continuous evaluator ``refine_fn(t) -> C^2`` is supplied, each sampled
    peak is polished by golden-section search so exact rephasings report
    strength 1 rather than the nearest sample value.
    """
    vals = np.asarray(trace.values)
    ts = np.asarray(trace.times)
    if vals.size < 5:
        raise ConfigError("contrast trace too short to scan")
    turn = np.nonzero(np.diff(vals) > 0)[0]
    if turn.size == 0:
        return []
    imin = int(turn[0])
    _, peaks, prom = _peak_prominences(vals[None, imin:])
    peaks = peaks[prom >= min_prominence] + imin
    results = []
    dt = ts[1] - ts[0]
    for idx in peaks:
        t_pk, s_pk = float(ts[idx]), float(vals[idx])
        if refine_fn is not None:
            lo = ts[idx - 1] if idx > 0 else ts[idx]
            hi = ts[idx + 1] if idx + 1 < ts.size else ts[idx]
            t_ref, s_ref = _golden_max(refine_fn, float(lo), float(hi))
            if s_ref >= s_pk:
                t_pk, s_pk = t_ref, s_ref
        results.append((t_pk, s_pk))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


def mode_amplitude_trace(modes, t_grid) -> np.ndarray:
    """Per-mode amplitude factors (sin(omega_j t)/omega_j)^2, shape (modes, nt)."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    return (np.sin(modes.omega[:, None] * t[None, :]) / modes.omega[:, None]) ** 2


def prethermal_pcf(modes: PlaneWaveModeSet, zbar, window: tuple = (0.30, 0.45),
                   samples: int = 64) -> np.ndarray:
    """Long-time-averaged correlation function of the dephased state.

    Averages C(zbar, t) over a time window (given in units of the
    recurrence period) inside the prethermal plateau: after the cone has
    passed the largest requested separation and before rephasing sets in.
    Converges to exp(-|zbar| xi_n^2/l0) for separations above the phonon
    cutoff.
    """
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    t_rev = recurrence_time(modes.L, modes.params.c)
    lo, hi = window
    if not (0.0 < lo < hi < 1.0):
        raise ConfigError("window must satisfy 0 < lo < hi < 1 (units of t_rev)")
    zmax = float(np.abs(zbar).max())
    if zmax / (2.0 * modes.params.c) >= lo * t_rev:
        raise ConfigError("window opens before the cone reaches the largest separation")
    ts = np.linspace(lo * t_rev, hi * t_rev, samples)
    var = variance_field(modes, zbar, ts).values
    return np.exp(-var / 2.0).mean(axis=0)
