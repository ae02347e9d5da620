"""Seed-by-seed python forms of the two Newton searches, a row-by-row
stepping loop, the built-in family's step written out by hand, and a
fixed-refinement convergence study.

The package runs both searches over all seeds at once on numpy arrays
(`nsfd._kernels._scan_batched`, `nsfd.equilibria._balance_newton`).  These
plain loops, one seed at a time on python floats, are the references the
tests hold those drivers to, byte for byte.  `step_loop` checks every
state of an orbit the plain way, complex values included, over the raw
components, where `nsfd._kernels._step_loop` tests finiteness alone over
the evaluator's checked components; `integrate` is held to it.
`rma_step` is one step of each scheme for the Rosenzweig-MacArthur family,
written from its formulas rather than through the scheme step factories;
fed through `step_loop` and `scalar_scan` it is the reference the family's
orbits and ghost scans are held to.  `equality_settings` gives the
hypothesis properties that hold array code to such references their
example counts, `point_bits` the bits of an equilibrium search, and
`per_element` and `per_element_clone` put callables behind a call, which
the array rule refuses, so they run per element.
`fixed_refinement_errors` measures a scheme's errors
against one rk4 orbit at min(steps)/100, point by point, the reference
`nsfd.estimate_order` refines only as far as its error budget needs.
`distinct_points` and `cluster_hits` are the bookkeeping of the two
searches point by point on python floats: every candidate of an
equilibrium search, every hit of a ghost scan, the references for
`nsfd.equilibria._distinct_points` and `nsfd.diagnostics._cluster_hits`.
`axis_family` brackets the axis roots by testing every grid interval, the
reference for `nsfd.equilibria._axis_family`, which tests only the
intervals its arrays mark.  `compare_rows` integrates every (scheme, h)
pair of a comparison on its own, the reference for
`nsfd.compare_schemes`, which integrates each distinct orbit once.
"""

import math

import numpy as np
from hypothesis import settings

from nsfd import (RK4, ComparisonRow, ComparisonTable, Partials, PartialValues, SplitSystem,
                  audit_positivity, find_equilibria, integrate)
from nsfd._kernels import NEWTON_ESCAPE, NEWTON_MAX_ITER, NEWTON_TOL
from nsfd.diagnostics import GHOST_DEDUP_TOL
from nsfd.equilibria import AXIS_BISECT_TOL, AXIS_GRID_N, BALANCE_TOL, DEDUP_TOL, _balance
from nsfd.systems import AXIS_ZERO_TOL, DomainError, partials_at


def equality_settings(max_examples):
    """Settings of a byte-equality property: max_examples examples, or the
    ci profile's count (conftest.py) when that profile is loaded."""
    if settings.default is settings.get_profile("ci"):
        return settings(deadline=None)
    return settings(max_examples=max_examples, deadline=None)


def point_bits(eqs):
    """The exact points, families and degenerate families of an EquilibriumSet."""
    return [(p.x.hex(), p.y.hex(), p.family) for p in eqs], eqs.degenerate


def per_element(fn):
    """fn behind a call, which the array rule refuses: per element always."""
    return lambda x, y: fn(x, y)


def per_element_clone(system):
    """system with each of its callables behind a call: per element always."""
    comps = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
    partials = None if system.partials is None else Partials(
        *(per_element(getattr(system.partials, f)) for f in PartialValues._fields))
    return SplitSystem(*map(per_element, comps), partials=partials, name=system.name,
                       x_max=system.x_max)


def rma_step(kind, params, e):
    """One step (x, y) -> (x', y') of scheme `kind` for the family
    f+ = b, f- = b*x + a*y/(c + x), g+ = x/(c + x), g- = d of params, at
    e: the denominator weight for nsfd/ensfd, h for the classical schemes.

    A zero denominator gives nan where the scheme steps raise
    ZeroDivisionError; both end an orbit or a Newton seed at the same
    point.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    h = e

    def field(u, v):
        den = c + u
        if den == 0.0:
            return math.nan, math.nan
        fp = b
        fm = b * u + a * v / den
        gp = u / den
        gm = d
        return u * (fp - fm), v * (gp - gm)

    def nsfd(x, y):
        den = c + x
        if den == 0.0:
            return math.nan, math.nan
        fp = b
        fm = b * x + a * y / den
        gp = x / den
        gm = d
        dfm = 1.0 + e * fm
        dgm = 1.0 + e * gm
        if dfm == 0.0 or dgm == 0.0:
            return math.nan, math.nan
        return x * (1.0 + e * fp) / dfm, y * (1.0 + e * gp) / dgm

    def euler(x, y):
        ux, uy = field(x, y)
        return x + h * ux, y + h * uy

    def rk2(x, y):
        k1x, k1y = field(x, y)
        k2x, k2y = field(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        return x + h * k2x, y + h * k2y

    def rk4(x, y):
        k1x, k1y = field(x, y)
        k2x, k2y = field(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = field(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = field(x + h * k3x, y + h * k3y)
        return (
            x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        )

    return {"nsfd": nsfd, "ensfd": nsfd, "euler": euler, "rk2": rk2, "rk4": rk4}[kind]


def step_loop(step, x0, y0, n):
    """n steps of step(x, y) from (x0, y0), as (xs, ys, stored_count).

    Stops just before the first state that is complex or non-finite, or
    whose step raised ZeroDivisionError, OverflowError or ValueError; any
    other exception propagates.  numpy scalar overflow on the way there
    does not warn.
    """
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    x = float(x0)
    y = float(y0)
    xs[0] = x
    ys[0] = y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n):
            try:
                xn, yn = step(x, y)
            except (ZeroDivisionError, OverflowError, ValueError):
                return xs[:k + 1], ys[:k + 1], k + 1
            if (isinstance(xn, complex) or isinstance(yn, complex)
                    or not (math.isfinite(xn) and math.isfinite(yn))):
                return xs[:k + 1], ys[:k + 1], k + 1
            xs[k + 1] = xn
            ys[k + 1] = yn
            x = xn
            y = yn
    return xs, ys, n + 1


def scalar_scan(map_fn, seeds_x, seeds_y, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                escape=NEWTON_ESCAPE):
    """Newton scan for fixed points of map_fn, (x, y) -> (x', y'), seed by seed.

    Newton iteration on map_fn(s) - s = 0 from every seed, with a
    central-difference Jacobian.  Returns an (n, 3) array of (x, y,
    residual) rows: a seed that breaks down reports residual inf, one that
    runs out of iterations its last residual, always the sup-norm of the
    map defect at the stored point.  A seed fails where the map raises
    ZeroDivisionError, OverflowError or ValueError or returns a complex
    number.
    """

    def step(x, y):
        try:
            mx, my = map_fn(x, y)
        except (ZeroDivisionError, OverflowError, ValueError):
            return math.nan, math.nan
        if isinstance(mx, complex) or isinstance(my, complex):
            return math.nan, math.nan
        return mx, my

    out = np.empty((len(seeds_x), 3))
    for i, (x, y) in enumerate(zip(np.asarray(seeds_x, dtype=np.float64).tolist(),
                                   np.asarray(seeds_y, dtype=np.float64).tolist())):
        res = math.inf
        for _ in range(max_iter):
            mx, my = step(x, y)
            rx = mx - x
            ry = my - y
            if not (math.isfinite(rx) and math.isfinite(ry)):
                res = math.inf
                break
            res = abs(rx)
            if abs(ry) > res:
                res = abs(ry)
            if res < tol:
                break
            dx = 1e-6 * max(1.0, abs(x))
            dy = 1e-6 * max(1.0, abs(y))
            px1, py1 = step(x + dx, y)
            px0, py0 = step(x - dx, y)
            qx1, qy1 = step(x, y + dy)
            qx0, qy0 = step(x, y - dy)
            j11 = (px1 - px0) / (2.0 * dx) - 1.0
            j21 = (py1 - py0) / (2.0 * dx)
            j12 = (qx1 - qx0) / (2.0 * dy)
            j22 = (qy1 - qy0) / (2.0 * dy) - 1.0
            det = j11 * j22 - j12 * j21
            if not math.isfinite(det) or abs(det) < 1e-14:
                res = math.inf
                break
            x = x + (-rx * j22 + ry * j12) / det
            y = y + (-j11 * ry + j21 * rx) / det
            if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > escape or abs(y) > escape:
                res = math.inf
                break
        out[i] = x, y, res
    return out


def scalar_balance_newton(system, xs, ys, escape):
    """Newton on both balances from each seed (x, y) of the grid xs x ys in
    turn; the best iterate of every seed whose best residual is below
    BALANCE_TOL.  A seed is dropped, best iterate and all, where a
    component or partial raises or turns complex."""
    balance = _balance(system.components)
    found = []
    for sx in xs:
        for sy in ys:
            x, y = float(sx), float(sy)
            best = None
            try:
                for _ in range(60):
                    rx, ry = balance(x, y)
                    if isinstance(rx, complex) or isinstance(ry, complex):
                        best = None
                        break
                    if not (math.isfinite(rx) and math.isfinite(ry)):
                        break
                    res = max(abs(rx), abs(ry))
                    if best is None or res < best[0]:
                        best = (res, x, y)
                    if res < 1e-15:
                        break
                    p = partials_at(system, x, y)
                    if any(isinstance(v, complex) for v in p):
                        best = None
                        break
                    j11 = p.fpx - p.fmx
                    j12 = p.fpy - p.fmy
                    j21 = p.gpx - p.gmx
                    j22 = p.gpy - p.gmy
                    det = j11 * j22 - j12 * j21
                    if not math.isfinite(det) or abs(det) < 1e-14:
                        break
                    ddx = (-rx * j22 + ry * j12) / det
                    ddy = (-j11 * ry + j21 * rx) / det
                    x += ddx
                    y += ddy
                    if not (math.isfinite(x) and math.isfinite(y)):
                        break
                    if abs(x) > escape or abs(y) > escape:
                        break
                    if max(abs(ddx), abs(ddy)) <= 1e-15 * max(1.0, abs(x), abs(y)):
                        rx, ry = balance(x, y)
                        if isinstance(rx, complex) or isinstance(ry, complex):
                            best = None
                        elif math.isfinite(rx) and math.isfinite(ry):
                            res = max(abs(rx), abs(ry))
                            if res < best[0]:
                                best = (res, x, y)
                        break
            except (ZeroDivisionError, OverflowError, ValueError):
                continue
            if best is not None and best[0] < BALANCE_TOL:
                found.append((best[1], best[2]))
    return found


def axis_family(system, along_x, hi):
    """Roots in s of the balance f+ - f- at (s, 0) (along_x) or g+ - g- at
    (0, s) for s in (0, hi], and the degenerate flag, as
    `nsfd.equilibria._axis_family` finds them: the balance at each of the
    AXIS_GRID_N + 1 nodes on python floats, then every interval tested in
    turn for a zero at its upper node or a sign change, bisected and
    polished, so a root on a node is found once."""
    plus, minus = (system.f_plus, system.f_minus) if along_x else (system.g_plus, system.g_minus)
    at = (lambda s: (s, 0.0)) if along_x else (lambda s: (0.0, s))
    nodes = np.linspace(0.0, hi, AXIS_GRID_N + 1)
    pv, mv = [np.array([fn(*at(s)) for s in nodes.tolist()]) for fn in (plus, minus)]
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
        for _ in range(8):
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


def distinct_points(candidates, bx, by):
    """The candidates (x, y) of an equilibrium search, one by one: each
    snapped onto the axes within AXIS_ZERO_TOL and kept inside the box up
    to 1e-9 * (1 + max(bx, by)); then sorted, and each dropped within
    DEDUP_TOL of the last point kept."""
    tol_in = 1e-9 * (1.0 + max(bx, by))
    cleaned = []
    for x, y in candidates:
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


def cluster_hits(rows, xlim, ylim):
    """The (x, y, residual) rows of a ghost scan, hit by hit: the rows with
    residual below NEWTON_TOL and x, y in the closed ranges xlim, ylim,
    sorted; each joins the first cluster whose first hit lies within
    GHOST_DEDUP_TOL of it, or starts one.  One row per cluster, its least
    in (residual, x, y)."""
    hits = [(x, y, res) for x, y, res in rows.tolist()
            if res < NEWTON_TOL and xlim[0] <= x <= xlim[1] and ylim[0] <= y <= ylim[1]]
    hits.sort()

    clusters = []
    for x, y, res in hits:
        placed = False
        for cl in clusters:
            if math.hypot(x - cl[0][0], y - cl[0][1]) <= GHOST_DEDUP_TOL:
                cl.append((x, y, res))
                placed = True
                break
        if not placed:
            clusters.append([(x, y, res)])
    return [min(cl, key=lambda row: (row[2], row[0], row[1])) for cl in clusters]


def compare_rows(system, schemes, s0, h_values, t_end):
    """The ComparisonTable of `nsfd.compare_schemes`, one integrate call
    per (scheme, h) pair, in order: a DomainError start gives a row of nan
    finals and nonfinite=true, any other error propagates."""
    eqs = find_equilibria(system)
    rows = []
    for scheme in schemes:
        for h in h_values:
            h = float(h)
            try:
                traj = integrate(system, scheme, s0, h, t_end)
            except DomainError:
                rows.append(ComparisonRow(scheme.kind, h, s0.x, s0.y, t_end,
                                          math.nan, math.nan, math.nan, None, True))
                continue
            fin = traj.final()
            dist = min((math.hypot(fin.x - p.x, fin.y - p.y) for p in eqs), default=math.inf)
            rows.append(ComparisonRow(scheme.kind, h, s0.x, s0.y, t_end, fin.x, fin.y, dist,
                                      audit_positivity(traj).violation_step, traj.truncated))
    return ComparisonTable(tuple(rows))


def fixed_refinement_errors(system, scheme, s0, t_end, steps, refinement=100):
    """Sup-norm errors of scheme at each step against one rk4 orbit at
    min(steps)/refinement, over the grid points each run shares with it."""
    h_ref = steps[-1] / refinement
    ref = integrate(system, RK4, s0, h_ref, t_end)
    assert not ref.truncated
    errors = []
    for h in steps:
        traj = integrate(system, scheme, s0, h, t_end)
        assert not traj.truncated
        ratio = h / h_ref
        err = 0.0
        for k in range(len(traj)):
            j = int(round(k * ratio))
            assert abs(traj.ts[k] - ref.ts[j]) <= 1e-9 * max(1.0, abs(traj.ts[k]))
            err = max(err, abs(traj.xs[k] - ref.xs[j]), abs(traj.ys[k] - ref.ys[j]))
        errors.append(err)
    return errors
