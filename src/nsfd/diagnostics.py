"""Scheme diagnostics: observed order, positivity audits, spurious fixed
points, and side-by-side scheme comparison."""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .integrators import (RK4, SchemeId, Trajectory, _WEIGHTED_KINDS, _checked_orbit,
                          _require_step, _require_t_end, _scheme_core, integrate, step_count)
from .equilibria import EquilibriumSet, _resolve_box, find_equilibria
from .systems import DomainError, SplitSystem, State

COMPARISON_HEADER = ("scheme,h,x0,y0,t_end,final_x,final_y,"
                     "dist_to_equilibrium,positivity_violation_step,nonfinite")
_COMPARISON_ROW = "{},{:.17g},{:.17g},{:.17g},{:.17g},{:.17g},{:.17g},{:.17g},{},{}"

GHOST_SEEDS_PER_AXIS = 60
# Most seeds one detect_ghosts call scans: tracemalloc measured at most
# 1500 B a seed at its peak (rk4 with per-element components, 100 x 100
# seeds on model2; 973 B for the family itself), 2.4 GB in all.
GHOST_MAX_SEEDS = 1_600_000
GHOST_MATCH_TOL = 1e-6
GHOST_DEDUP_TOL = 1e-6
# the rk4 reference is refined until its Richardson error estimate is at
# most REFERENCE_BUDGET times the smallest error it measures; where rounding
# stops the estimate falling, FLOOR_BUDGET times it will do
REFERENCE_BUDGET = 1e-7
FLOOR_BUDGET = 1e-2
MAX_REFINEMENT = 1024
# the grid every step nests in may be no finer than min(steps)/BASE_LIMIT
BASE_LIMIT = 100


class ReferenceUnavailable(RuntimeError):
    """The high-accuracy reference orbit could not be computed."""


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log(error) against log(h), with the step of
    the rk4 reference the errors were measured against and its estimated
    sup-norm error."""

    scheme: str
    steps: "tuple[float, ...]"
    errors: "tuple[float, ...]"
    slope: float
    intercept: float
    residual: float
    reference_step: float
    reference_error: float


def estimate_order(system: SplitSystem, scheme: SchemeId, s0: State, t_end: float,
                   steps) -> OrderEstimate:
    """Observed convergence order against an rk4 reference orbit.

    steps must be at least four step sizes, each positive and finite,
    strictly descending, and t_end finite and above t0.  Each step must
    divide t_end - t0 evenly (its step_count within 1e-9 relative of
    (t_end - t0)/h), with grids that all nest in one grid no finer than
    min(steps)/100.  ValueError otherwise.  Errors are sup-norm over each
    run's grid.

    The reference runs at h_base/r for r = 1, 2, 4, ..., where h_base is
    the largest step whose grid contains every run's grid.  Run r's error
    is estimated by Richardson, sup |ref_r - ref_(r/2)| / 15, and the first
    run within 1e-7 of the smallest error is accepted.  Refinement stops
    at the rounding floor, where the estimate no longer falls at least 4x
    over one doubling, or after r = 1024; that run is accepted if within
    1e-2 of the smallest error.  A reference run that leaves the finite
    range has an infinite estimate and refinement goes on.
    ReferenceUnavailable is raised where the run refinement stops at
    misses its budget, where the run at r = 1024 leaves the finite range,
    or where a run of the studied scheme does.
    """
    steps = tuple(steps)
    if len(steps) < 4:
        raise ValueError(f"need at least 4 step sizes, got {len(steps)}")
    steps = tuple(map(_require_step, steps))
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"step sizes must be strictly descending, got {steps}")
    _require_t_end(s0.t, t_end)
    horizon = t_end - s0.t
    counts = []
    for h in steps:
        # integrate's own count, so a run that stops short of t_end is refused
        n = step_count(s0.t, t_end, h)
        ratio = horizon / h
        if abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"step {h!r} does not divide the horizon {horizon!r} evenly")
        counts.append(n)
    base = math.lcm(*counts)
    if base > BASE_LIMIT * counts[-1]:
        raise ValueError(f"the grids of steps {steps} nest only in a grid of {base} steps, "
                         f"finer than min(steps)/{BASE_LIMIT}")

    runs = []
    for h in steps:
        traj = integrate(system, scheme, s0, h, t_end)
        if traj.truncated:
            raise ReferenceUnavailable(
                f"{scheme.kind} at h={h!r} left the finite range at step {traj.halt_step}")
        runs.append(traj)

    # a run that leaves the finite range is not usable yet: its estimate,
    # and the next run's, is inf and refinement goes on
    coarse, coarse_est = integrate(system, RK4, s0, horizon / base, t_end), math.inf
    r = 1
    while True:
        r *= 2
        ref = integrate(system, RK4, s0, horizon / (base * r), t_end)
        if ref.truncated:
            if r >= MAX_REFINEMENT:
                raise ReferenceUnavailable(
                    f"rk4 reference at h={ref.h!r} left the finite range at step "
                    f"{ref.halt_step}")
            coarse, coarse_est = ref, math.inf
            continue
        est = math.inf if coarse.truncated else _sup_distance(coarse, ref, 2) / 15.0
        errors = [_sup_distance(traj, ref, base // n * r) for traj, n in zip(runs, counts)]
        for h, err in zip(steps, errors):
            if err <= 0.0:
                raise ValueError(f"zero error at h={h!r}; orbit coincides with the reference")
        smallest = min(errors)
        if est <= REFERENCE_BUDGET * smallest:
            break
        if est > coarse_est / 4.0 or r >= MAX_REFINEMENT:
            if est > FLOOR_BUDGET * smallest:
                raise ReferenceUnavailable(
                    f"rk4 reference at h={ref.h!r} has estimated error {est:.3g}, above the "
                    f"budget {FLOOR_BUDGET * smallest:.3g} ({FLOOR_BUDGET:g} of the smallest "
                    f"error {smallest:.3g}) where refinement stops")
            break
        coarse, coarse_est = ref, est

    log_h = np.log(np.array(steps))
    log_e = np.log(np.array(errors))
    slope, intercept = np.polyfit(log_h, log_e, 1)
    fit = slope * log_h + intercept
    residual = float(np.sqrt(np.mean((log_e - fit) ** 2)))
    return OrderEstimate(scheme.kind, steps, tuple(errors),
                         float(slope), float(intercept), residual, ref.h, est)


def _sup_distance(coarse: Trajectory, fine: Trajectory, stride: int) -> float:
    """Sup-norm distance of coarse from fine over coarse's grid, whose step k
    is fine's step k*stride (ValueError where the grids do not align)."""
    n = len(coarse)
    ts = fine.ts[::stride][:n]
    at = coarse.ts[:len(ts)]
    off = np.flatnonzero(np.abs(at - ts) > 1e-9 * np.maximum(1.0, np.abs(at)))
    if len(ts) < n or off.size:
        k = int(off[0]) if off.size else len(ts)
        raise ValueError(f"grids for h={coarse.h!r} and the reference do not align at k={k}")
    return float(max(np.max(np.abs(coarse.xs - fine.xs[::stride][:n])),
                     np.max(np.abs(coarse.ys - fine.ys[::stride][:n]))))


@dataclass(frozen=True)
class PositivityAudit:
    """First exit from the closed positive quadrant, if any."""

    violation_step: "int | None"
    state: "State | None"

    @property
    def clean(self) -> bool:
        return self.violation_step is None


def audit_positivity(traj: Trajectory) -> PositivityAudit:
    bad = (traj.xs < 0.0) | (traj.ys < 0.0)
    if not bool(bad.any()):
        return PositivityAudit(None, None)
    k = int(np.argmax(bad))
    return PositivityAudit(k, traj.state(k))


# ---------------------------------------------------------------------------
# fixed points of the update maps


@dataclass(frozen=True)
class MapFixedPoint:
    x: float
    y: float
    residual: float
    genuine: bool


@dataclass(frozen=True)
class GhostReport:
    """Fixed points of one scheme's update map inside a search box.

    genuine points coincide (within 1e-6) with equilibria of the flow;
    everything else is a spurious artefact of the discretisation.
    """

    scheme: str
    h: float
    box: "tuple[float, float]"
    fixed_points: "tuple[MapFixedPoint, ...]"

    @property
    def ghosts(self) -> "tuple[MapFixedPoint, ...]":
        return tuple(fp for fp in self.fixed_points if not fp.genuine)

    @property
    def genuine(self) -> "tuple[MapFixedPoint, ...]":
        return tuple(fp for fp in self.fixed_points if fp.genuine)


def detect_ghosts(system: SplitSystem, scheme: SchemeId, h: float,
                  box: "tuple[float, float] | None" = None,
                  seeds_per_axis: int = GHOST_SEEDS_PER_AXIS) -> GhostReport:
    """Newton scan for fixed points of one step of the scheme.

    Seeds a uniform grid over the box ([0,bx] x [0,by]); for the classical
    schemes the grid and the acceptance region extend 10% beyond each side,
    since their spurious points can sit just outside the quadrant.  Found
    points are deduplicated at 1e-6 and labelled genuine when they match a
    flow equilibrium to 1e-6: the converged seeds are filtered, sorted and
    clustered on arrays, in one pass per fixed point rather than per seed,
    with the result of the seed-by-seed loop (_cluster_hits).  The box
    must be a pair of real numbers with positive finite extent, also once
    extended for a classical scheme, and seeds_per_axis an int of at least
    1 whose square is at most GHOST_MAX_SEEDS (ValueError otherwise,
    before any seed is allocated).
    """
    bx, by = _resolve_box(system, box)
    if (not isinstance(seeds_per_axis, (int, np.integer)) or isinstance(seeds_per_axis, bool)
            or seeds_per_axis < 1):
        raise ValueError(f"seeds_per_axis must be an int of at least 1, got {seeds_per_axis!r}")
    if int(seeds_per_axis) ** 2 > GHOST_MAX_SEEDS:
        raise ValueError(f"seeds_per_axis = {seeds_per_axis} gives {int(seeds_per_axis) ** 2} "
                         f"seeds, more than GHOST_MAX_SEEDS = {GHOST_MAX_SEEDS}")
    classical = scheme.kind not in _WEIGHTED_KINDS
    lox, hix = (-0.1 * bx, 1.1 * bx) if classical else (0.0, bx)
    loy, hiy = (-0.1 * by, 1.1 * by) if classical else (0.0, by)
    if not (math.isfinite(hix - lox) and math.isfinite(hiy - loy)):
        raise ValueError(f"search box {(bx, by)!r} is too large for {scheme.kind}: its seed "
                         f"grid, 10% beyond each side, overflows")
    gx = np.linspace(lox, hix, seeds_per_axis)
    gy = np.linspace(loy, hiy, seeds_per_axis)
    sx, sy = [g.ravel() for g in np.meshgrid(gx, gy, indexing="ij")]

    make, e = _scheme_core(scheme, h)
    rows = _kernels.scan_fixed_points(system, make, e, sx, sy)

    tol_in = 1e-9 * (1.0 + max(bx, by))
    found = _cluster_hits(rows, (lox - tol_in, hix + tol_in), (loy - tol_in, hiy + tol_in))

    eqs = find_equilibria(system, (bx, by))
    points = []
    for x, y, res in found:
        dist = _nearest_equilibrium_distance(eqs, x, y)
        points.append(MapFixedPoint(x, y, res, dist < GHOST_MATCH_TOL))
    points.sort(key=lambda p: (p.x, p.y))
    return GhostReport(scheme.kind, float(h), (bx, by), tuple(points))


def _cluster_hits(rows, xlim, ylim):
    """One (x, y, residual) row of python floats per cluster of the hits
    among the scan rows: those with residual below NEWTON_TOL and x, y in
    the closed ranges xlim, ylim.

    In (x, y, residual) order, each hit joins the first cluster whose
    first hit lies within GHOST_DEDUP_TOL of it (math.hypot), or starts
    one; a cluster gives its hit that is least in (residual, x, y), the
    first of them on a tie.  The loop runs once per cluster, on arrays: a
    cluster's first hit is the first hit no earlier cluster took, and it
    takes every later hit within reach.  np.hypot decides, but for the
    hits within 1e-12 relative of the tolerance, where it can differ from
    math.hypot by an ulp: math.hypot decides those.
    """
    x, y, res = rows.T
    hit = ((res < _kernels.NEWTON_TOL) & (xlim[0] <= x) & (x <= xlim[1])
           & (ylim[0] <= y) & (y <= ylim[1]))
    x, y, res = x[hit], y[hit], res[hit]
    order = np.lexsort((res, y, x))  # stable, as list.sort of the (x, y, res) rows
    x, y, res = x[order], y[order], res[order]
    found = []
    while x.size:
        ax, ay = x[0], y[0]
        dx, dy = x - ax, y - ay
        dist = np.hypot(dx, dy)
        near = dist <= GHOST_DEDUP_TOL
        for i in np.flatnonzero(np.abs(dist - GHOST_DEDUP_TOL) <= 1e-12 * GHOST_DEDUP_TOL):
            near[i] = math.hypot(dx[i], dy[i]) <= GHOST_DEDUP_TOL
        # in (x, y, residual) order, the first least residual is least in (residual, x, y)
        cx, cy, cres = x[near], y[near], res[near]
        k = np.argmin(cres)
        found.append((cx[k].item(), cy[k].item(), cres[k].item()))
        x, y, res = x[~near], y[~near], res[~near]
    return found


# ---------------------------------------------------------------------------
# scheme comparison


@dataclass(frozen=True)
class ComparisonRow:
    scheme: str
    h: float
    x0: float
    y0: float
    t_end: float
    final_x: float
    final_y: float
    dist_to_equilibrium: float
    positivity_violation_step: "int | None"
    nonfinite: bool


@dataclass(frozen=True)
class ComparisonTable:
    rows: "tuple[ComparisonRow, ...]"

    def to_csv(self) -> str:
        rows = (_COMPARISON_ROW.format(
            r.scheme, r.h, r.x0, r.y0, r.t_end, r.final_x, r.final_y,
            r.dist_to_equilibrium,
            "" if r.positivity_violation_step is None else r.positivity_violation_step,
            "true" if r.nonfinite else "false",
        ) for r in self.rows)
        return "\n".join([COMPARISON_HEADER, *rows]) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())


def compare_schemes(system: SplitSystem, schemes, s0: State, h_values,
                    t_end: float) -> ComparisonTable:
    """Run every scheme at every step size from one initial state.

    One row per (scheme, h) pair, in the given order.  A run that halts on
    a non-finite state reports its last finite state and nonfinite=true; a
    run the scheme refuses with DomainError (for the weighted schemes, a
    negative initial state) records nan finals instead of aborting the rest
    of the grid.  Any other error propagates, at the pair that raises it:
    each h is read as `integrate` reads it, so a step size that is not a
    positive finite real number (a bool, a str, an int beyond the float
    range) is refused with its ValueError.

    Each distinct orbit runs once, to its end, in the end-of-orbit form of
    nsfd._kernels (`orbit_end`), which stores nothing: it gives the last
    state, the first index of a state outside the closed quadrant and
    whether the run halted, the row fields `integrate`, `Trajectory.final`
    and `audit_positivity` would give.  All runs share one evaluator of
    the system's callables.  Pairs whose scheme runs the same step map,
    the same `_Step` and effective step of `_scheme_core`, at the same h
    share one run's final state, distance, violation step and nonfinite
    flag under their own scheme label: nsfd and ensfd at the identity
    weight, or a scheme or step listed twice.
    """
    eqs = find_equilibria(system)
    calls = _kernels._Evaluator(system)
    runs = {}  # (step, effective step, h) -> the row fields after the labels
    rows = []
    for scheme in schemes:
        for h in h_values:
            h = _require_step(h)
            try:
                make, e, n = _checked_orbit(scheme, s0, h, t_end)
            except DomainError:
                fields = (math.nan, math.nan, math.nan, None, True)
            else:
                fields = runs.get((make, e, h))
                if fields is None:
                    fields = runs[make, e, h] = _comparison_fields(calls, make, e, n, s0, eqs)
            rows.append(ComparisonRow(scheme.kind, h, s0.x, s0.y, t_end, *fields))
    return ComparisonTable(tuple(rows))


def _comparison_fields(calls, make, e, n, s0, eqs):
    """final_x, final_y, dist_to_equilibrium, positivity_violation_step and
    nonfinite of one compare_schemes run of n steps."""
    m, x, y, neg = _kernels.orbit_end(calls, make, s0.x, s0.y, e, n)
    return (x, y, _nearest_equilibrium_distance(eqs, x, y), None if neg < 0 else neg, m <= n)


def _nearest_equilibrium_distance(eqs: EquilibriumSet, x: float, y: float) -> float:
    return min((math.hypot(x - p.x, y - p.y) for p in eqs), default=math.inf)


# ---------------------------------------------------------------------------
# long-run behaviour summaries


@dataclass(frozen=True)
class OscillationStats:
    """Tail behaviour of an orbit relative to a reference point.

    Sustained oscillation means: the orbit stayed finite and positive, its
    tail keeps a minimum distance from the reference point, and the tail
    distances swing by more than the same tolerance (it neither settles
    onto the point nor parks somewhere else).
    """

    bounded: bool
    positive: bool
    min_tail_distance: float
    amplitude: float

    def sustained(self, tol: float = 1e-3) -> bool:
        return (self.bounded and self.positive
                and self.min_tail_distance > tol and self.amplitude > tol)


def oscillation_stats(traj: Trajectory, center: "tuple[float, float]",
                      tail_fraction: float = 0.25) -> OscillationStats:
    """Tail statistics of traj around center, over the last tail_fraction
    of its states (at least two).  Raises ValueError unless tail_fraction
    is finite and in (0, 1]."""
    if not (math.isfinite(tail_fraction) and 0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must be finite and in (0, 1], got {tail_fraction!r}")
    cx, cy = center
    n_tail = max(2, int(math.ceil(tail_fraction * len(traj))))
    xs = traj.xs[-n_tail:]
    ys = traj.ys[-n_tail:]
    d = np.hypot(xs - cx, ys - cy)
    positive = bool(traj.xs.min() > 0.0 and traj.ys.min() > 0.0)
    return OscillationStats(
        bounded=not traj.truncated,
        positive=positive,
        min_tail_distance=float(d.min()),
        amplitude=float(d.max() - d.min()),
    )
