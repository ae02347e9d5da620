"""Equilibrium location and stability analysis, continuous and discrete.

Split systems admit four equilibrium families: the origin, prey-only
points (x#, 0), predator-only points (0, y#), and coexistence points
(x*, y*) where both balance equations f+ = f- and g+ = g- hold.  The
block structure of the Jacobian on the axes gives every family closed-form
eigenvalues, and the same structure survives in the Jacobian of the
denominator-weighted update map, so discrete multipliers are closed-form
too.  Verdicts use a 1e-9 margin: anything closer than that to the
stability boundary is reported as marginal rather than guessed.

Every closed form at a point (eigenvalues, multipliers, map Jacobian,
critical step) reads one evaluation of the point's four components and
partials, systems._point_values, and a stability report evaluates each
point once for all of its verdicts.  That evaluation refuses a point
outside the closed quadrant with DomainError, and a call that gives a
value that is not a real number with ValueError.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._kernels import _Evaluator, _finite, _NotReal, _raising, _Step
from .integrators import NSFD, StepWeight, effective_step, ensfd
from .systems import (AXIS_ZERO_TOL, SplitSystem, State, _fd_x, _fd_y, _partials_on,
                      _point_values, _real_value)

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


def _axis_family(system: SplitSystem, along_x: bool, hi: float, calls=None):
    """Roots in s of the balance f+ - f- at (s, 0) (along_x) or g+ - g- at
    (0, s), for s in (0, hi].

    Returns (roots, degenerate).  Bracketing on a uniform grid, bisection
    to 1e-12, then a short Newton polish so the balance residual reaches
    machine precision.  degenerate means the balance vanishes along the
    whole grid and the family is a continuum.  The nodes are evaluated by
    calls, the search's `_kernels._Evaluator` (a new one if None): a raise
    at a node propagates, and a node where a component is not a real
    number brackets no root.  So does a bisection midpoint where a
    component gives a value that is not a real number (a complex, None, a
    str; `_Evaluator.real` checks only the callables that fail the array
    rule), and a polish step where a component or one of the two partials
    the slope reads (fpx - fmx along x, gpy - gmy along y: the analytic
    pair, or the finite differences of the two components) gives one ends
    the polish.
    """
    calls = _Evaluator(system) if calls is None else calls
    plus, minus = (system.f_plus, system.f_minus) if along_x else (system.g_plus, system.g_minus)
    at = (lambda s: (s, 0.0)) if along_x else (lambda s: (0.0, s))
    nodes = np.linspace(0.0, hi, AXIS_GRID_N + 1)
    xs, ys = (nodes, 0.0 * nodes) if along_x else (0.0 * nodes, nodes)
    (pv, mv), _ = calls.each((plus, minus), xs, ys, catch=())
    r = pv - mv
    scale = max(1.0, float(np.max(np.abs(pv))), float(np.max(np.abs(mv))))
    if float(np.max(np.abs(r))) <= 1e-10 * scale:
        return [], True

    real_plus, real_minus = calls.real(plus), calls.real(minus)
    balance = lambda s: real_plus(*at(s)) - real_minus(*at(s))
    if system.partials is None:
        fd = _fd_x if along_x else _fd_y
        d_plus, d_minus = partial(fd, real_plus), partial(fd, real_minus)
    else:
        d_plus, d_minus = (calls.real(getattr(system.partials, name))
                           for name in (("fpx", "fmx") if along_x else ("gpy", "gmy")))
    slope = lambda s: d_plus(*at(s)) - d_minus(*at(s))

    # the intervals that bracket a root, as the python test below reads them:
    # a zero at the upper node or a sign change (a product of python floats
    # overflows and underflows as numpy's float64 does, with no error).  A
    # zero at a lower node is the upper node of the interval before, or the
    # origin, which is its own family.
    with np.errstate(over="ignore", invalid="ignore"):
        bracketed = np.flatnonzero((r[1:] == 0.0) | (r[:-1] * r[1:] < 0.0)).tolist()
    roots = []
    for i in bracketed:
        lo, hi_ = float(nodes[i]), float(nodes[i + 1])
        rlo, rhi = float(r[i]), float(r[i + 1])
        root = hi_ if rhi == 0.0 else _bisect(balance, lo, hi_, rlo)
        if root is None:
            continue
        for _ in range(8):  # polish to machine precision
            try:
                g = slope(root)
                if not math.isfinite(g) or g == 0.0:
                    break
                delta = balance(root) / g
            except _NotReal:
                break
            if not math.isfinite(delta):
                break
            root -= delta
            if abs(delta) < 1e-16 * max(1.0, abs(root)):
                break
        if root > AXIS_ZERO_TOL:
            roots.append(float(root))
    return roots, False


def _bisect(balance, lo, hi, rlo):
    # a root of balance in the bracket [lo, hi], whose balance at lo is
    # rlo, to AXIS_BISECT_TOL; None where a midpoint's balance is not real
    while hi - lo > AXIS_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        try:
            rm = balance(mid)
        except _NotReal:
            return None
        if rm == 0.0:
            return mid
        if rlo * rm < 0.0:
            hi = mid
        else:
            lo, rlo = mid, rm
    return 0.5 * (lo + hi)


# the balances (x, y) -> (f+ - f-, g+ - g-), as a step's text: the search
# evaluates them as the scans do a scheme's step, with the fields written in
_BALANCES = _Step("""\
fp, fm, gp, gm = components(x, y)
x, y = fp - fm, gp - gm
""")
# the balances and their Jacobian at (x, y), in the operand order of
# _BALANCES and of the search's two-call iteration, as one text over the
# fields and the analytic partials: (x, y) -> ((rx, ry), (j11, j12, j21, j22))
_NEWTON = _Step("""\
fp, fm, gp, gm = components(x, y)
fpx, fpy, fmx, fmy, gpx, gpy, gmx, gmy = partials(x, y)
rx, ry = fp - fm, gp - gm
j11 = fpx - fmx
j12 = fpy - fmy
j21 = gpx - gmx
j22 = gpy - gmy
x, y = (rx, ry), (j11, j12, j21, j22)
""")


def _balance_newton(system: SplitSystem, xs, ys, escape, calls=None):
    """Newton search for coexistence points from every seed (x, y) of the
    grid xs x ys at once: the best iterate of every seed whose best
    residual is below BALANCE_TOL.

    Iterates past the acceptance tolerance down to the floating-point fixed
    point (tracking the best iterate) so returned points zero the vector
    field to machine precision, not merely to the bracketing tolerance.
    idx holds the seeds still iterating, ax and ay their iterates, and all
    share one iteration counter.  calls, the search's _Evaluator (a new
    one if None), makes every call.

    Where the four fields and the eight analytic partials all pass the
    array rule, an iteration at finite seeds makes one guarded call of
    `_NEWTON`, compiled with all twelve written in: the balances and the
    Jacobian at every seed, those of a seed that retires on its residual
    computed and ignored, and one compaction retires the seeds that stop.
    Everywhere else, and in an iteration where that call trips a numpy
    flag (a pole), an iteration makes the two calls of the seed-by-seed
    loop: the balances (`_BALANCES`, through `_Evaluator.map`), then the
    partials (`_partials_on`, analytic or finite differences) only at the
    seeds that go on.  Each also returns a mask of the seeds it drops,
    where a scalar call raises or gives a value that is not a real number
    (a fractional power of a negative coordinate): a dropped seed loses
    its best iterate, its best residual set to inf, a balances drop before
    the best iterate is updated and a partials drop after.  Both kinds of
    iteration run the same operations in the same order, and give the
    same bits.
    """
    calls = _Evaluator(system) if calls is None else calls
    residual = calls.map(_BALANCES, None)
    jacobian = partial(_partials_on, system, calls)
    terms = (calls.step(_NEWTON, None) if calls.whole and calls.partials
             and calls.plain(calls.partials) else None)

    n = xs.size * ys.size
    ax = np.repeat(xs, ys.size)
    ay = np.tile(ys, xs.size)
    best_res = np.full(n, np.inf)
    best_x = np.zeros(n)
    best_y = np.zeros(n)
    idx = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(60):
            if idx.size == 0:
                break
            out = _raising(terms, ax, ay) if terms is not None and _finite(ax, ay) else None
            if out is not None:
                (rx, ry), jac = out
                # a balance of two constant fields is a python number, as in
                # map; an entry of two int constant partials an int, which
                # rounds to float as the difference of their floats does
                rx, ry = (r if type(r) is np.ndarray else np.full(ax.shape, r) for r in (rx, ry))
                jac = [float(j) if type(j) is int else j for j in jac]
            else:
                (rx, ry), dropped = residual(ax, ay)
                best_res[idx[dropped]] = np.inf
            res = np.maximum(np.abs(rx), np.abs(ry))  # nan where dropped
            better = res < best_res[idx]
            best_res[idx[better]] = res[better]
            best_x[idx[better]] = ax[better]
            best_y[idx[better]] = ay[better]
            go = np.isfinite(res) & (res >= 1e-15)
            if out is None:  # the partials only at the seeds that go on
                idx, ax, ay, rx, ry = idx[go], ax[go], ay[go], rx[go], ry[go]
                p, dropped = jacobian(ax, ay)
                best_res[idx[dropped]] = np.inf
                go = ~dropped
                jac = p.fpx - p.fmx, p.fpy - p.fmy, p.gpx - p.gmx, p.gpy - p.gmy
            j11, j12, j21, j22 = jac
            det = j11 * j22 - j12 * j21
            go &= np.isfinite(det) & (np.abs(det) >= 1e-14)
            ddx = (-rx * j22 + ry * j12) / det
            ddy = (-j11 * ry + j21 * rx) / det
            nx = ax + ddx
            ny = ay + ddy
            go &= (np.isfinite(nx) & np.isfinite(ny)
                   & (np.abs(nx) <= escape) & (np.abs(ny) <= escape))
            tiny = go & (np.maximum(np.abs(ddx), np.abs(ddy))
                         <= 1e-15 * np.maximum(np.maximum(1.0, np.abs(nx)), np.abs(ny)))
            if tiny.any():  # retire on the step: one last residual
                last, lx, ly = idx[tiny], nx[tiny], ny[tiny]
                go &= ~tiny
                (rx, ry), dropped = residual(lx, ly)
                best_res[last[dropped]] = np.inf
                res = np.maximum(np.abs(rx), np.abs(ry))
                better = res < best_res[last]
                best_res[last[better]] = res[better]
                best_x[last[better]] = lx[better]
                best_y[last[better]] = ly[better]
            idx, ax, ay = idx[go], nx[go], ny[go]
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
    bx, by = _real_value(bx), _real_value(by)
    if bx is None or by is None:
        raise ValueError(f"search box must be a pair of real numbers (bx, by), got {box!r}")
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
    brackets over their 201 nodes at once.  One evaluator of
    nsfd._kernels makes the search's calls of the callables (components,
    and analytic partials or else finite-difference stencils), taking
    each one's verdict under the array rule once: on whole arrays where
    the rule proves them bit-equal, and per seed, node and point otherwise
    or where a whole-array call meets a pole or an overflow.  Where the
    components and the analytic partials all pass the rule, each Newton
    iteration is one compiled call of the balances and their Jacobian,
    with all twelve written in (`_balance_newton`).  A seed is
    dropped where a call raises ZeroDivisionError, OverflowError or
    ValueError or returns a value that is not a real number.  An axis
    node's raise propagates, and a node where a component is complex
    brackets no root; so does a bisection midpoint where a component is
    not a real number, and such a Newton polish step ends the polish,
    keeping the root bisected.  The 1600 seeds end on a few distinct
    points, and the snapping, sorting and deduplication run once per
    distinct candidate: exact duplicates are collapsed first, which
    changes no bit of the result.

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
    calls = _Evaluator(system)  # one verdict per callable for the whole search

    for along_x, hi, family in ((True, bx, "E1"), (False, by, "E2")):
        roots, degen = _axis_family(system, along_x, hi, calls)
        if degen:
            degenerate.append(family)
        candidates += [(r, 0.0) if along_x else (0.0, r) for r in roots]

    xs = np.linspace(0.0, bx, INTERIOR_SEED_N + 2)[1:-1]
    ys = np.linspace(0.0, by, INTERIOR_SEED_N + 2)[1:-1]
    candidates += _balance_newton(system, xs, ys, 10.0 * (bx + by), calls)

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
#
# Every closed form reads one evaluation of its point, v, the tuple of
# systems._point_values: the public functions make it, and stability_report
# makes it once for all of them.


def continuous_eigs(system: SplitSystem, point: EquilibriumPoint) -> ContinuousStability:
    """Eigenvalues of the flow linearisation, by family-specific closed form.

    On the axes the Jacobian is triangular, so the eigenvalues are its
    diagonal entries; at a coexistence point they are the roots of
    z^2 - T z + D with T, D the Jacobian trace and determinant.
    """
    return _continuous(point, _point_values(system, point.x, point.y))


def _continuous(point: EquilibriumPoint, v) -> ContinuousStability:
    x, y = point.x, point.y
    fp, fm, gp, gm, _, fx, fy, gx, gy = v
    if point.family == "O":
        l1 = complex(fp - fm, 0.0)
        l2 = complex(gp - gm, 0.0)
    elif point.family == "E1":
        l1 = complex(x * fx, 0.0)
        l2 = complex(gp - gm, 0.0)
    elif point.family == "E2":
        l1 = complex(fp - fm, 0.0)
        l2 = complex(y * gy, 0.0)
    elif point.family == "E3":
        T = x * fx + y * gy
        D = x * y * (fx * gy - fy * gx)
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
    """Jacobian of the denominator-weighted update map at any state.

    Raises ValueError for a step size that is not positive and finite,
    then DomainError if the state leaves the closed positive quadrant.
    """
    e = effective_step(NSFD if weight is None else ensfd(weight), h)
    x, y = state.x, state.y
    fp, fm, gp, gm, p, *_ = _point_values(system, x, y)
    dfm = 1.0 + e * fm
    dgm = 1.0 + e * gm
    j11 = (1.0 + e * fp) / dfm + e * x * (dfm * p.fpx - (1.0 + e * fp) * p.fmx) / (dfm * dfm)
    j12 = e * x * (dfm * p.fpy - (1.0 + e * fp) * p.fmy) / (dfm * dfm)
    j21 = e * y * (dgm * p.gpx - (1.0 + e * gp) * p.gmx) / (dgm * dgm)
    j22 = (1.0 + e * gp) / dgm + e * y * (dgm * p.gpy - (1.0 + e * gp) * p.gmy) / (dgm * dgm)
    if not all(map(math.isfinite, (dfm * dfm, dgm * dgm, j11, j12, j21, j22))):
        # a product of e overflowed: the same entries, each fraction's
        # numerator and denominator divided by e
        u = 1.0 / e
        rf, wf = (u + fp) / (u + fm), 1.0 / (u + fm)
        rg, wg = (u + gp) / (u + gm), 1.0 / (u + gm)
        j11 = rf + x * wf * (p.fpx - rf * p.fmx)
        j12 = x * wf * (p.fpy - rf * p.fmy)
        j21 = y * wg * (p.gpx - rg * p.gmx)
        j22 = rg + y * wg * (p.gpy - rg * p.gmy)
    return np.array([[j11, j12], [j21, j22]])


def discrete_eigs(system: SplitSystem, point: EquilibriumPoint, h: float,
                  weight: "StepWeight | None" = None) -> DiscreteStability:
    """Multipliers of the update map at an equilibrium, in closed form.

    At equilibria the map Jacobian inherits the triangular/2x2 structure of
    the flow Jacobian, with every derivative damped by its own denominator:
    axis multipliers are either ratios (1 + e*gain)/(1 + e*loss) or
    1 + e*slope/(1 + e*gain).  Coexistence points use the trace/determinant
    pair (T_phi, D_phi) of that damped Jacobian, whose determinant reads
    the flow's, D.
    """
    e = effective_step(NSFD if weight is None else ensfd(weight), h)
    v = _point_values(system, point.x, point.y)
    return _discrete(point, v, h, e, _continuous(point, v).D)


def _discrete(point: EquilibriumPoint, v, h: float, e: float, D: float) -> DiscreteStability:
    # the multipliers at step size h, whose effective step is e; D is the
    # determinant of the flow Jacobian (ContinuousStability.D)
    x, y = point.x, point.y
    fp, fm, gp, gm, _, fx, _, _, gy = v
    if point.family == "O":
        g1 = complex(_ratio(e, fp, fm), 0.0)
        g2 = complex(_ratio(e, gp, gm), 0.0)
    elif point.family == "E1":
        g1 = complex(_axis_multiplier(e, x, fx, fp), 0.0)
        g2 = complex(_ratio(e, gp, gm), 0.0)
    elif point.family == "E2":
        g1 = complex(_ratio(e, fp, fm), 0.0)
        g2 = complex(_axis_multiplier(e, y, gy, gp), 0.0)
    elif point.family == "E3":
        nf, ng = 1.0 + e * fp, 1.0 + e * gp
        sx = x * fx / nf
        sy = y * gy / ng
        t_phi = 2.0 + e * (sx + sy)
        q, den = e * e * D, nf * ng
        if math.isfinite(q) and math.isfinite(den):
            d_phi = 1.0 + e * (sx + sy) + q / den
        else:
            # divided by e: the damped steps e / (1 + e f+) and e / (1 + e g+)
            u = 1.0 / e
            wf, wg = 1.0 / (u + fp), 1.0 / (u + gp)
            s = x * fx * wf + y * gy * wg
            t_phi, d_phi = 2.0 + s, 1.0 + s + wf * wg * D
        g1, g2 = _quadratic_roots(t_phi, d_phi)
        return DiscreteStability(float(h), g1, g2, jury_check(t_phi, d_phi),
                                 _discrete_verdict(g1, g2))
    else:
        raise FamilyMismatch(f"unknown family {point.family!r}")
    alpha = g1.real + g2.real
    beta = g1.real * g2.real
    return DiscreteStability(float(h), g1, g2, jury_check(alpha, beta),
                             _discrete_verdict(g1, g2))


def _ratio(e: float, gain: float, loss: float) -> float:
    # (1 + e gain) / (1 + e loss); where a product overflows, numerator and
    # denominator divided by e
    num, den = 1.0 + e * gain, 1.0 + e * loss
    if math.isfinite(num) and math.isfinite(den):
        return num / den
    u = 1.0 / e
    return (u + gain) / (u + loss)


def _axis_multiplier(e: float, z: float, slope: float, gain: float) -> float:
    # 1 + e z slope / (1 + e gain), an axis point's multiplier along its own
    # axis; where a product overflows, the fraction divided by e
    num, den = e * z * slope, 1.0 + e * gain
    if math.isfinite(num) and math.isfinite(den):
        return 1.0 + num / den
    return 1.0 + z * slope / (1.0 / e + gain)


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
    v = _point_values(system, point.x, point.y)
    return _critical_step(point, v, _continuous(point, v))


def _critical_step(point: EquilibriumPoint, v, cont: ContinuousStability) -> CriticalStep:
    # cont is _continuous(point, v)
    if cont.verdict != ASYMPTOTICALLY_STABLE:
        raise NotStableError(
            f"continuous verdict at ({point.x:g}, {point.y:g}) is {cont.verdict}")
    fp, _, gp, _, _, fx, _, _, gy = v
    T = cont.T
    D = cont.D
    C = point.x * fx * gp + point.y * gy * fp

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
    step record; critical_step is null for every other case.  All of them
    read one evaluation of the point's components and partials, so each
    field equals what continuous_eigs, discrete_eigs or critical_step_E3
    gives on its own.
    """
    v = _point_values(system, point.x, point.y)
    cont = _continuous(point, v)
    scheme = NSFD if weight is None else ensfd(weight)
    discrete = []
    for h in hs:
        d = _discrete(point, v, h, effective_step(scheme, h), cont.D)
        discrete.append({
            "h": d.h,
            "gamma1": _cnum(d.gamma1),
            "gamma2": _cnum(d.gamma2),
            "jury": list(d.jury),
            "verdict": d.verdict,
        })
    crit = None
    if point.family == "E3" and cont.verdict == ASYMPTOTICALLY_STABLE:
        cs = _critical_step(point, v, cont)
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
