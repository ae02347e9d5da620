"""Equilibrium location and stability analysis, continuous and discrete.

Split systems admit four equilibrium families: the origin, prey-only
points (x#, 0), predator-only points (0, y#), and coexistence points
(x*, y*) where both balance equations f+ = f- and g+ = g- hold.  The
block structure of the Jacobian on the axes gives every family closed-form
eigenvalues, and the same structure survives in the Jacobian of the
denominator-weighted update map, so discrete multipliers are closed-form
too.  Verdicts use a 1e-9 margin: anything closer than that to the
stability boundary is reported as marginal rather than guessed.
"""

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._kernels import (_component_fields, _each_of, _each_point, _on_arrays, _plain_arithmetic,
                       _raising)
from .integrators import NSFD, StepWeight, effective_step, ensfd
from .systems import (AXIS_ZERO_TOL, PartialValues, SplitSystem, State, _fd_on_arrays,
                      _partials_each, partials_at)

ASYMPTOTICALLY_STABLE = "asymptotically_stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

MARGIN = 1e-9

FAMILIES = ("O", "E1", "E2", "E3")

AXIS_GRID_N = 200
AXIS_BISECT_TOL = 1e-12
INTERIOR_SEED_N = 40
BALANCE_TOL = 1e-10
DEDUP_TOL = 1e-7


class FamilyMismatch(ValueError):
    """Operation applied to an equilibrium of the wrong family."""


class NotStableError(ValueError):
    """The continuous equilibrium is not asymptotically stable."""


@dataclass(frozen=True)
class EquilibriumPoint:
    x: float
    y: float
    family: str

    @property
    def state(self) -> State:
        return State(self.x, self.y)


@dataclass(frozen=True)
class EquilibriumSet:
    """Equilibria found in a box, sorted lexicographically by (x, y).

    degenerate lists axis families ("E1", "E2") that form a continuum
    (gain identically equal to loss along the axis); their individual
    points are deliberately not enumerated.
    """

    points: "tuple[EquilibriumPoint, ...]"
    degenerate: "tuple[str, ...]" = ()

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]


@dataclass(frozen=True)
class ContinuousStability:
    lambda1: complex
    lambda2: complex
    T: float
    D: float
    verdict: str


@dataclass(frozen=True)
class DiscreteStability:
    h: float
    gamma1: complex
    gamma2: complex
    jury: "tuple[bool, bool, bool]"
    verdict: str


@dataclass(frozen=True)
class CriticalStep:
    """Largest step below which the update map keeps a coexistence point stable.

    bound is math.inf when no finite step destabilises the point.  bound_a
    and bound_c are the per-condition thresholds (first and third Jury
    conditions; the second holds automatically for a stable point), and
    binding_condition names which one produced the overall bound.
    """

    bound: float
    binding_condition: str
    bound_a: float
    bound_c: float
    T: float
    D: float
    C: float


def classify_point(x: float, y: float) -> str:
    """Family by position: coordinates within 1e-9 of zero sit on an axis."""
    on_x_axis = abs(y) < AXIS_ZERO_TOL
    on_y_axis = abs(x) < AXIS_ZERO_TOL
    if on_x_axis and on_y_axis:
        return "O"
    if on_x_axis:
        return "E1"
    if on_y_axis:
        return "E2"
    return "E3"


def jury_check(alpha: float, beta: float) -> "tuple[bool, bool, bool]":
    """Jury conditions for both roots of g^2 - alpha*g + beta inside the unit circle."""
    return (1.0 + alpha + beta > 0.0, 1.0 - alpha + beta > 0.0, beta < 1.0)


def _quadratic_roots(alpha: float, beta: float) -> "tuple[complex, complex]":
    # roots of z^2 - alpha z + beta, real pair ordered ascending,
    # complex pair with negative imaginary part first
    disc = alpha * alpha - 4.0 * beta
    if disc >= 0.0:
        rt = math.sqrt(disc)
        return complex((alpha - rt) / 2.0, 0.0), complex((alpha + rt) / 2.0, 0.0)
    w = math.sqrt(-disc) / 2.0
    return complex(alpha / 2.0, -w), complex(alpha / 2.0, w)


def _continuous_verdict(l1: complex, l2: complex) -> str:
    r1, r2 = l1.real, l2.real
    if abs(r1) < MARGIN or abs(r2) < MARGIN:
        return MARGINAL
    if r1 < 0.0 and r2 < 0.0:
        return ASYMPTOTICALLY_STABLE
    return UNSTABLE


def _discrete_verdict(g1: complex, g2: complex) -> str:
    m1, m2 = abs(g1), abs(g2)
    if abs(m1 - 1.0) < MARGIN or abs(m2 - 1.0) < MARGIN:
        return MARGINAL
    if m1 < 1.0 and m2 < 1.0:
        return ASYMPTOTICALLY_STABLE
    return UNSTABLE


# ---------------------------------------------------------------------------
# equilibrium location


def _axis_family(system: SplitSystem, along_x: bool, hi: float):
    """Roots in s of the balance f+ - f- at (s, 0) (along_x) or g+ - g- at
    (0, s), for s in (0, hi].

    Returns (roots, degenerate).  Bracketing on a uniform grid, bisection
    to 1e-12, then a short Newton polish so the balance residual reaches
    machine precision.  degenerate means the balance vanishes along the
    whole grid and the family is a continuum.
    """
    plus, minus = (system.f_plus, system.f_minus) if along_x else (system.g_plus, system.g_minus)
    at = (lambda s: (s, 0.0)) if along_x else (lambda s: (0.0, s))
    nodes = np.linspace(0.0, hi, AXIS_GRID_N + 1)
    xs, ys = (nodes, 0.0 * nodes) if along_x else (0.0 * nodes, nodes)
    # on the arrays where the rule holds, else per node, where a raise propagates
    pv, mv = [np.broadcast_to(v, nodes.shape) if (v := _on_arrays(fn, xs, ys)) is not None
              else np.array([fn(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
              for fn in (plus, minus)]
    r = pv - mv
    scale = max(1.0, float(np.max(np.abs(pv))), float(np.max(np.abs(mv))))
    if float(np.max(np.abs(r))) <= 1e-10 * scale:
        return [], True

    balance = lambda s: plus(*at(s)) - minus(*at(s))

    def d_balance(s):
        p = partials_at(system, *at(s))
        return p.fpx - p.fmx if along_x else p.gpy - p.gmy

    roots = []
    for i in range(AXIS_GRID_N):
        lo, hi_ = float(nodes[i]), float(nodes[i + 1])
        rlo, rhi = float(r[i]), float(r[i + 1])
        root = None
        if rhi == 0.0:
            root = hi_
        elif rlo == 0.0:
            if i == 0 and lo == 0.0:
                continue  # the origin is handled as its own family
            root = lo
        elif rlo * rhi < 0.0:
            while hi_ - lo > AXIS_BISECT_TOL:
                mid = 0.5 * (lo + hi_)
                rm = balance(mid)
                if rm == 0.0:
                    lo = hi_ = mid
                    break
                if rlo * rm < 0.0:
                    hi_ = mid
                else:
                    lo, rlo = mid, rm
            root = 0.5 * (lo + hi_)
        if root is None:
            continue
        for _ in range(8):  # polish to machine precision
            g = d_balance(root)
            if not math.isfinite(g) or g == 0.0:
                break
            delta = balance(root) / g
            if not math.isfinite(delta):
                break
            root -= delta
            if abs(delta) < 1e-16 * max(1.0, abs(root)):
                break
        if root > AXIS_ZERO_TOL:
            roots.append(float(root))
    return roots, False


def _balance_residual(system: SplitSystem, x: float, y: float):
    fp, fm, gp, gm = system.components(x, y)
    return fp - fm, gp - gm


def _interior_points(system: SplitSystem, box):
    """Newton search for coexistence points from a uniform seed grid.

    Iterates past the acceptance tolerance down to the floating-point fixed
    point (tracking the best iterate) so returned points zero the vector
    field to machine precision, not merely to the bracketing tolerance.
    All seeds iterate at once on arrays (_balance_newton).
    """
    bx, by = box
    xs = np.linspace(0.0, bx, INTERIOR_SEED_N + 2)[1:-1]
    ys = np.linspace(0.0, by, INTERIOR_SEED_N + 2)[1:-1]
    return _balance_newton(system, xs, ys, 10.0 * (bx + by))


def _balance_newton(system: SplitSystem, xs, ys, escape):
    # Newton on both balances from every seed (x, y) of the grid xs x ys at
    # once; returns the best iterate of every seed whose best residual is
    # below BALANCE_TOL.  idx holds the seeds still iterating, and all
    # share one iteration counter.  residual and jacobian evaluate on
    # arrays and also return a mask of the seeds they drop, where a scalar
    # call raises or turns complex (a fractional power of a negative
    # coordinate): a dropped seed loses its best iterate, its best residual
    # set to inf.  Where every component and analytic partial passes the
    # array rule, both run on whole arrays under _raising and drop no seed;
    # a call that trips a flag, and every call where one fails the rule,
    # goes through _each_of (and _partials_each).  A class that overrides
    # components fails the rule, and its residual calls the override once
    # per seed (_each_point).  A balance of two constant components is a
    # python float, so it is broadcast.
    comps = _component_fields(system)
    if system.partials is None:
        analytic, at = (), partial(_fd_on_arrays, system.components)
    else:
        analytic = tuple(getattr(system.partials, f) for f in PartialValues._fields)
        at = system.partials.at
    whole = comps is not None and all(map(_plain_arithmetic, comps + analytic))

    def residual(x, y):
        r = _raising(_balance_residual, system, x, y) if whole else None
        if r is None:
            if comps is None:  # an override of components, called per seed
                (rx, ry), dropped = _each_point(partial(_balance_residual, system), 2, x, y)
                return rx, ry, dropped
            (fp, fm, gp, gm), dropped = _each_of(comps, x, y)
            return fp - fm, gp - gm, dropped
        rx, ry = (v if type(v) is np.ndarray else np.full(x.shape, v) for v in r)
        return rx, ry, np.zeros(x.shape, dtype=bool)

    def jacobian(x, y):
        p = _raising(at, x, y) if whole else None
        return _partials_each(system, x, y) if p is None else (p, np.zeros(x.shape, dtype=bool))

    x = np.repeat(xs, ys.size)
    y = np.tile(ys, xs.size)
    best_res = np.full(x.shape[0], np.inf)
    best_x = np.zeros(x.shape[0])
    best_y = np.zeros(x.shape[0])
    idx = np.arange(x.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(60):
            if idx.size == 0:
                break
            ax = x[idx]
            ay = y[idx]
            rx, ry, dropped = residual(ax, ay)
            best_res[idx[dropped]] = np.inf
            go = ~dropped & np.isfinite(rx) & np.isfinite(ry)
            idx, ax, ay, rx, ry = idx[go], ax[go], ay[go], rx[go], ry[go]
            res = np.maximum(np.abs(rx), np.abs(ry))
            better = res < best_res[idx]
            best_res[idx[better]] = res[better]
            best_x[idx[better]] = ax[better]
            best_y[idx[better]] = ay[better]
            go = res >= 1e-15
            idx, ax, ay, rx, ry = idx[go], ax[go], ay[go], rx[go], ry[go]
            p, dropped = jacobian(ax, ay)
            best_res[idx[dropped]] = np.inf
            j11 = p.fpx - p.fmx
            j12 = p.fpy - p.fmy
            j21 = p.gpx - p.gmx
            j22 = p.gpy - p.gmy
            det = j11 * j22 - j12 * j21
            go = ~dropped & np.isfinite(det) & (np.abs(det) >= 1e-14)
            ddx = (-rx * j22 + ry * j12) / det
            ddy = (-j11 * ry + j21 * rx) / det
            idx, ax, ay, ddx, ddy = idx[go], ax[go], ay[go], ddx[go], ddy[go]
            nx = ax + ddx
            ny = ay + ddy
            x[idx] = nx
            y[idx] = ny
            go = (np.isfinite(nx) & np.isfinite(ny)
                  & (np.abs(nx) <= escape) & (np.abs(ny) <= escape))
            idx, nx, ny, ddx, ddy = idx[go], nx[go], ny[go], ddx[go], ddy[go]
            tiny = (np.maximum(np.abs(ddx), np.abs(ddy))
                    <= 1e-15 * np.maximum(np.maximum(1.0, np.abs(nx)), np.abs(ny)))
            if not tiny.any():  # the usual case: no seed to retire on its step
                continue
            last, lx, ly = idx[tiny], nx[tiny], ny[tiny]
            idx = idx[~tiny]
            rx, ry, dropped = residual(lx, ly)
            best_res[last[dropped]] = np.inf
            res = np.maximum(np.abs(rx), np.abs(ry))
            better = ~dropped & np.isfinite(rx) & np.isfinite(ry) & (res < best_res[last])
            best_res[last[better]] = res[better]
            best_x[last[better]] = lx[better]
            best_y[last[better]] = ly[better]
    keep = best_res < BALANCE_TOL
    return list(zip(best_x[keep].tolist(), best_y[keep].tolist()))


def _resolve_box(system: SplitSystem, box: "tuple[float, float] | None") -> "tuple[float, float]":
    """The search box (bx, by) as floats; None means the system's own box.

    Raises ValueError unless box is a pair of real numbers (not bools, not
    strings) and both extents are positive and finite.
    """
    if box is None:
        box = (system.x_max, system.x_max)
    try:
        bx, by = box
    except (TypeError, ValueError):
        bx = by = None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (bx, by)):
        raise ValueError(f"search box must be a pair of real numbers (bx, by), got {box!r}")
    bx, by = float(bx), float(by)
    if not (0.0 < bx < math.inf and 0.0 < by < math.inf):
        raise ValueError(f"search box must have positive finite extent, got {box!r}")
    return bx, by


def find_equilibria(system: SplitSystem, box: "tuple[float, float] | None" = None) -> EquilibriumSet:
    """All equilibria of the flow inside [0, bx] x [0, by].

    The origin is always an equilibrium of a split system and is always
    included.  Axis families come from bracketing the scalar balance
    equations, coexistence points from a 40x40-seeded Newton iteration on
    both balances; everything is deduplicated at 1e-7 and sorted.

    The Newton iteration runs over all 1600 seeds at once, and the axis
    brackets over their 201 nodes at once.  The callables (components,
    and analytic partials or else finite-difference stencils) run on
    whole arrays where the array rule of nsfd._kernels proves them
    bit-equal, and per seed, node and point otherwise or where a
    whole-array call meets a pole or an overflow.  A seed is dropped
    where a call raises ZeroDivisionError, OverflowError or ValueError
    or returns a complex value; an axis node's raise propagates.  The
    1600 seeds end on a few distinct points, and the snapping, sorting and
    deduplication run once per distinct candidate: exact duplicates are
    collapsed first, which changes no bit of the result.

    The box defaults to the system's own and must be a pair of real
    numbers with positive finite extent (ValueError otherwise).  Each
    search is run once per system and box: the result is kept in a
    private store on the system, and a later call with the same (bx, by)
    returns that same EquilibriumSet object.
    This is sound because the system is frozen and its components, like
    everywhere else in the package, are assumed pure: the same (x, y)
    always gives the same value.  Components that read mutable state must
    go into a fresh SplitSystem after that state changes.
    """
    bx, by = _resolve_box(system, box)
    found = system._equilibria.get((bx, by))
    if found is None:
        found = system._equilibria[(bx, by)] = _search(system, bx, by)
    return found


def _search(system: SplitSystem, bx: float, by: float) -> EquilibriumSet:
    candidates = [(0.0, 0.0)]
    degenerate = []

    for along_x, hi, family in ((True, bx, "E1"), (False, by, "E2")):
        roots, degen = _axis_family(system, along_x, hi)
        if degen:
            degenerate.append(family)
        candidates += [(r, 0.0) if along_x else (0.0, r) for r in roots]

    candidates += _interior_points(system, (bx, by))

    points = tuple(EquilibriumPoint(x, y, classify_point(x, y))
                   for x, y in _distinct_points(candidates, bx, by))
    return EquilibriumSet(points, tuple(degenerate))


def _distinct_points(candidates, bx: float, by: float):
    """The candidate points (x, y), snapped onto the axes within
    AXIS_ZERO_TOL, inside the box up to 1e-9 * (1 + max(bx, by)), sorted
    and deduplicated at DEDUP_TOL against the last point kept.

    Exact duplicates go first, in one dict.fromkeys: the 1600 Newton seeds
    of a search end on a handful of distinct points.  Dropping them
    changes nothing, since a copy sorts next to its twin and so is always
    dropped; a -0.0 merges with 0.0, and both snap to 0.0.
    """
    tol_in = 1e-9 * (1.0 + max(bx, by))
    cleaned = []
    for x, y in dict.fromkeys(candidates):
        if abs(x) < AXIS_ZERO_TOL:
            x = 0.0
        if abs(y) < AXIS_ZERO_TOL:
            y = 0.0
        if x < 0.0 or y < 0.0 or x > bx + tol_in or y > by + tol_in:
            continue
        cleaned.append((x, y))
    cleaned.sort()

    deduped = []
    for x, y in cleaned:
        if deduped and math.hypot(x - deduped[-1][0], y - deduped[-1][1]) <= DEDUP_TOL:
            continue
        deduped.append((x, y))
    return deduped


# ---------------------------------------------------------------------------
# continuous stability


def continuous_eigs(system: SplitSystem, point: EquilibriumPoint) -> ContinuousStability:
    """Eigenvalues of the flow linearisation, by family-specific closed form.

    On the axes the Jacobian is triangular, so the eigenvalues are its
    diagonal entries; at a coexistence point they are the roots of
    z^2 - T z + D with T, D the Jacobian trace and determinant.
    """
    x, y = point.x, point.y
    fp, fm, gp, gm = system.components(x, y)
    p = partials_at(system, x, y)
    if point.family == "O":
        l1 = complex(fp - fm, 0.0)
        l2 = complex(gp - gm, 0.0)
    elif point.family == "E1":
        l1 = complex(x * (p.fpx - p.fmx), 0.0)
        l2 = complex(gp - gm, 0.0)
    elif point.family == "E2":
        l1 = complex(fp - fm, 0.0)
        l2 = complex(y * (p.gpy - p.gmy), 0.0)
    elif point.family == "E3":
        T = x * (p.fpx - p.fmx) + y * (p.gpy - p.gmy)
        D = x * y * ((p.fpx - p.fmx) * (p.gpy - p.gmy) - (p.fpy - p.fmy) * (p.gpx - p.gmx))
        l1, l2 = _quadratic_roots(T, D)
        return ContinuousStability(l1, l2, T, D, _continuous_verdict(l1, l2))
    else:
        raise FamilyMismatch(f"unknown family {point.family!r}")
    T = l1.real + l2.real
    D = l1.real * l2.real
    return ContinuousStability(l1, l2, T, D, _continuous_verdict(l1, l2))


# ---------------------------------------------------------------------------
# discrete stability of the update map


def nsfd_map_jacobian(system: SplitSystem, state: State, h: float,
                      weight: "StepWeight | None" = None) -> np.ndarray:
    """Jacobian of the denominator-weighted update map at any state."""
    e = effective_step(NSFD if weight is None else ensfd(weight), h)
    x, y = state.x, state.y
    fp, fm, gp, gm = system.components(x, y)
    p = partials_at(system, x, y)
    dfm = 1.0 + e * fm
    dgm = 1.0 + e * gm
    j11 = (1.0 + e * fp) / dfm + e * x * (dfm * p.fpx - (1.0 + e * fp) * p.fmx) / (dfm * dfm)
    j12 = e * x * (dfm * p.fpy - (1.0 + e * fp) * p.fmy) / (dfm * dfm)
    j21 = e * y * (dgm * p.gpx - (1.0 + e * gp) * p.gmx) / (dgm * dgm)
    j22 = (1.0 + e * gp) / dgm + e * y * (dgm * p.gpy - (1.0 + e * gp) * p.gmy) / (dgm * dgm)
    return np.array([[j11, j12], [j21, j22]])


def discrete_eigs(system: SplitSystem, point: EquilibriumPoint, h: float,
                  weight: "StepWeight | None" = None) -> DiscreteStability:
    """Multipliers of the update map at an equilibrium, in closed form.

    At equilibria the map Jacobian inherits the triangular/2x2 structure of
    the flow Jacobian, with every derivative damped by its own denominator:
    axis multipliers are either ratios (1 + e*gain)/(1 + e*loss) or
    1 + e*slope/(1 + e*gain).  Coexistence points use the trace/determinant
    pair (T_phi, D_phi) of that damped Jacobian.
    """
    e = effective_step(NSFD if weight is None else ensfd(weight), h)
    x, y = point.x, point.y
    fp, fm, gp, gm = system.components(x, y)
    p = partials_at(system, x, y)
    if point.family == "O":
        g1 = complex((1.0 + e * fp) / (1.0 + e * fm), 0.0)
        g2 = complex((1.0 + e * gp) / (1.0 + e * gm), 0.0)
    elif point.family == "E1":
        g1 = complex(1.0 + e * x * (p.fpx - p.fmx) / (1.0 + e * fp), 0.0)
        g2 = complex((1.0 + e * gp) / (1.0 + e * gm), 0.0)
    elif point.family == "E2":
        g1 = complex((1.0 + e * fp) / (1.0 + e * fm), 0.0)
        g2 = complex(1.0 + e * y * (p.gpy - p.gmy) / (1.0 + e * gp), 0.0)
    elif point.family == "E3":
        t_phi, d_phi = _e3_map_trace_det(system, point, e)
        g1, g2 = _quadratic_roots(t_phi, d_phi)
        return DiscreteStability(float(h), g1, g2, jury_check(t_phi, d_phi),
                                 _discrete_verdict(g1, g2))
    else:
        raise FamilyMismatch(f"unknown family {point.family!r}")
    alpha = g1.real + g2.real
    beta = g1.real * g2.real
    return DiscreteStability(float(h), g1, g2, jury_check(alpha, beta),
                             _discrete_verdict(g1, g2))


def _e3_map_trace_det(system: SplitSystem, point: EquilibriumPoint, e: float):
    x, y = point.x, point.y
    fp, fm, gp, gm = system.components(x, y)
    p = partials_at(system, x, y)
    sx = x * (p.fpx - p.fmx) / (1.0 + e * fp)
    sy = y * (p.gpy - p.gmy) / (1.0 + e * gp)
    D = x * y * ((p.fpx - p.fmx) * (p.gpy - p.gmy) - (p.fpy - p.fmy) * (p.gpx - p.gmx))
    t_phi = 2.0 + e * (sx + sy)
    d_phi = 1.0 + e * (sx + sy) + e * e * D / ((1.0 + e * fp) * (1.0 + e * gp))
    return t_phi, d_phi


def critical_step_E3(system: SplitSystem, point: EquilibriumPoint) -> CriticalStep:
    """Threshold step size below which the map preserves coexistence stability.

    Requires an asymptotically stable coexistence point (T < 0, D > 0).
    The middle Jury condition equals e^2 D / ((1+e f+)(1+e g+)) > 0 and can
    never fail; the other two give explicit thresholds.  Condition three
    fails beyond -T/(D+C) when D+C > 0 (never, otherwise); condition one
    reduces to a quadratic in the step with constant term 4, positive near
    zero, whose first positive root (if any) is the threshold.
    """
    if point.family != "E3":
        raise FamilyMismatch(f"critical step is defined for coexistence points, got {point.family}")
    cont = continuous_eigs(system, point)
    if cont.verdict != ASYMPTOTICALLY_STABLE:
        raise NotStableError(
            f"continuous verdict at ({point.x:g}, {point.y:g}) is {cont.verdict}")
    x, y = point.x, point.y
    fp, fm, gp, gm = system.components(x, y)
    p = partials_at(system, x, y)
    T = cont.T
    D = cont.D
    C = x * (p.fpx - p.fmx) * gp + y * (p.gpy - p.gmy) * fp

    bound_c = math.inf if (D + C) <= 0.0 else -T / (D + C)
    bound_a = _first_positive_root(4.0 * fp * gp + 2.0 * C + D, 4.0 * (fp + gp) + 2.0 * T, 4.0)
    bound = min(bound_a, bound_c)
    if math.isinf(bound):
        binding = "none"
    elif bound_a < bound_c:
        binding = "a"
    else:
        binding = "c"
    return CriticalStep(bound, binding, bound_a, bound_c, T, D, C)


def _first_positive_root(a2: float, a1: float, a0: float) -> float:
    """Smallest positive root of a2 h^2 + a1 h + a0, or inf if none (a0 > 0)."""
    if a2 == 0.0:
        return math.inf if a1 >= 0.0 else -a0 / a1
    disc = a1 * a1 - 4.0 * a2 * a0
    if a2 > 0.0:
        if disc <= 0.0 or a1 >= 0.0:
            return math.inf
        rt = math.sqrt(disc)
        return (-a1 - rt) / (2.0 * a2)
    # opens downward with a positive constant term: exactly one positive root
    rt = math.sqrt(disc)
    r1 = (-a1 + rt) / (2.0 * a2)
    r2 = (-a1 - rt) / (2.0 * a2)
    return r1 if r1 > 0.0 else r2


# ---------------------------------------------------------------------------
# report assembly


def _cnum(z: complex):
    return {"re": z.real, "im": z.imag}


def _bound_json(v: float):
    return "unbounded" if math.isinf(v) else v


def stability_report(system: SplitSystem, point: EquilibriumPoint,
                     hs: "tuple[float, ...]" = (),
                     weight: "StepWeight | None" = None) -> dict:
    """JSON-ready stability summary for one equilibrium.

    Includes the continuous verdict, a discrete verdict per requested step
    size, and (for an asymptotically stable coexistence point) the critical
    step record; critical_step is null for every other case.
    """
    cont = continuous_eigs(system, point)
    discrete = []
    for h in hs:
        d = discrete_eigs(system, point, h, weight)
        discrete.append({
            "h": d.h,
            "gamma1": _cnum(d.gamma1),
            "gamma2": _cnum(d.gamma2),
            "jury": list(d.jury),
            "verdict": d.verdict,
        })
    crit = None
    if point.family == "E3" and cont.verdict == ASYMPTOTICALLY_STABLE:
        cs = critical_step_E3(system, point)
        crit = {
            "bound": _bound_json(cs.bound),
            "binding_condition": cs.binding_condition,
            "bound_a": _bound_json(cs.bound_a),
            "bound_c": _bound_json(cs.bound_c),
            "T": cs.T,
            "D": cs.D,
            "C": cs.C,
        }
    return {
        "point": {"x": point.x, "y": point.y},
        "family": point.family,
        "continuous": {
            "lambda1": _cnum(cont.lambda1),
            "lambda2": _cnum(cont.lambda2),
            "T": cont.T,
            "D": cont.D,
            "verdict": cont.verdict,
        },
        "discrete": discrete,
        "critical_step": crit,
    }
