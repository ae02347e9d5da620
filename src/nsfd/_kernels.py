"""The stepping loop and the Newton scan.

`run_trajectory` and `scan_fixed_points` are the entry points for every
system.  `run_trajectory` runs `_step_loop` over the scheme's step, and
`scan_fixed_points` runs `_scan_batched`, Newton over all seeds at once as
numpy arrays, with the same step evaluated on arrays.  The steps come from
the factories of nsfd.integrators: make(components, e) binds a system's
components and the scheme's e (or h) once per run or scan and returns
step(x, y), so one step costs one python call plus its arithmetic and its
component calls (per-step rates in the README, Backends).  The built-in
predator-prey family (systems with rma_params) evaluates its components
on whole arrays too; any other system goes through
`scan_fixed_points_generic`, where only its four component callables are
called once per element (`_each_of`), in the order of the seed-by-seed
scan, and everything derived from them runs on the arrays.

Both scans give the bits of the seed-by-seed scan.  numpy's elementwise
+ - * / and python's float arithmetic are the same correctly rounded IEEE
operations, so the same expression order gives the same bits; do not
"optimise" the expression order in this file or in the steps.
"""

import math

import numpy as np

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
NEWTON_ESCAPE = 1e12

# what a python component may raise off the quadrant: the orbit or seed ends
_DROPS = (ZeroDivisionError, OverflowError, ValueError)


def resolve_backend(requested: "str | None" = None) -> str:
    """The backend that runs: "python", the only one.  Any other request
    raises ValueError."""
    if requested is not None and requested.strip().lower() != "python":
        raise ValueError(f"unknown backend {requested!r}; expected 'python'")
    return "python"


def _step_loop(step, x0, y0, n):
    # The stepping loop: n steps of step(x, y), stopping just before the
    # first state that is non-finite or complex (a fractional power of a
    # negative coordinate), or whose step raised ZeroDivisionError,
    # OverflowError or ValueError (a math domain error off the quadrant).
    # A pair of python floats takes the fast check; anything else, numpy
    # scalars included, first has complex ruled out, since math.isfinite
    # of an np.complex128 only warns and tests its real part.  numpy
    # scalar arithmetic that overflows on the way to such a state only
    # warns, so its warnings are off for the run: the orbit halts silently,
    # as with python floats.
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    x = float(x0)
    y = float(y0)
    xs[0] = x
    ys[0] = y
    isfinite = math.isfinite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, n + 1):
            try:
                x, y = step(x, y)
            except _DROPS:
                return xs[:k], ys[:k], k
            if type(x) is float and type(y) is float:
                if not (isfinite(x) and isfinite(y)):
                    return xs[:k], ys[:k], k
            elif (isinstance(x, complex) or isinstance(y, complex)
                  or not (isfinite(x) and isfinite(y))):
                return xs[:k], ys[:k], k
            xs[k] = x
            ys[k] = y
    return xs, ys, n + 1


def run_trajectory(system, make, x0, y0, e, n):
    """n steps of the step make(system.components, e) from (x0, y0).
    Returns (xs, ys, stored_count).

    make is a scheme's step factory, e the denominator weight for
    nsfd/ensfd and h for the classical schemes.  A stored count m <= n
    means the orbit stopped just before grid index m.
    """
    return _step_loop(make(system.components, e), x0, y0, n)


def scan_fixed_points(system, make, e, seeds_x, seeds_y, tol=NEWTON_TOL,
                      max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """Newton scan for fixed points of the step make(system.components, e).

    Returns an (n, 3) array of (x, y, residual) rows, one per seed, in seed
    order; a seed whose residual is not below tol failed.
    """
    if system.rma_params is None:
        return scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol, max_iter, escape)
    return _scan_batched(make(system.components, e), seeds_x, seeds_y, tol, max_iter, escape)


def scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol=NEWTON_TOL,
                              max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """The python Newton scan of the step make(components, e) for any system.

    `_scan_batched` over the step evaluated on arrays, with the system's
    four component callables called once per element on python floats
    (`_ElementView`), and only where the seed-by-seed scan calls them.  A
    seed fails, rather than aborting the scan, where a component raises
    ZeroDivisionError, OverflowError or ValueError or returns a complex
    number (a fractional power of a negative coordinate).
    """
    comps = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
    return _scan_batched(lambda x, y: make(_ElementView(comps).components, e)(x, y),
                         seeds_x, seeds_y, tol, max_iter, escape, probes_apart=True)


def _each(fn, xs, ys):
    """fn(x, y), one real, called once for each pair of the lists of python
    floats xs, ys (the tolist() of arrays).

    Returns a float array and a mask of the elements dropped because fn
    raised one of _DROPS or returned a complex value; they hold nan.  Any
    other exception propagates.
    """
    vals, drops, calls = [], [], map(fn, xs, ys)
    while True:
        try:  # extend keeps the values before a raise, and calls goes on after it
            vals.extend(calls)
            break
        except _DROPS:
            drops.append(len(vals))
            vals.append(math.nan)
    dropped = np.zeros(len(vals), dtype=bool)
    dropped[drops] = True
    out = np.array(vals)
    if out.dtype != np.float64:  # a complex value or an odd type somewhere
        odd = [isinstance(v, complex) for v in vals]
        dropped |= odd
        out = np.array([math.nan if c else v for v, c in zip(vals, odd)], dtype=np.float64)
    return out, dropped


def _each_of(fns, xs, ys, dropped=None):
    """Each fn of fns in turn at every element of the arrays xs, ys (`_each`).

    As the scalar calls fn(x, y) for fn in fns stop at the first drop, a
    fn is called only at the elements that no earlier fn dropped and that
    are not already set in the mask `dropped`.  Returns a (len(fns), n)
    array, nan in every row of a dropped element, and the mask of the
    dropped elements.
    """
    dropped = np.zeros(xs.shape, dtype=bool) if dropped is None else dropped.copy()
    vals = np.full((len(fns), xs.size), np.nan)
    live = np.flatnonzero(~dropped)
    lx, ly = xs[live].tolist(), ys[live].tolist()
    for row, fn in zip(vals, fns):
        v, drop = _each(fn, lx, ly)
        row[live] = v
        if drop.any():
            dropped[live[drop]] = True
            live = live[~drop]
            lx, ly = xs[live].tolist(), ys[live].tolist()
    vals[:, dropped] = np.nan
    return vals, dropped


class _ElementView:
    """A system's components as the scheme steps see them on arrays, for
    one map call.

    components(xs, ys) calls the four component callables per element
    (`_each_of`) and returns their four arrays, nan where one dropped.  The
    steps pass the same elements in the same order to every stage, and an
    element dropped in one stage is not called in a later one, as the
    scalar map stops at the raise; so make one view per map call.
    """

    def __init__(self, comps):
        self._comps = comps
        self._dropped = None

    def components(self, xs, ys):
        vals, self._dropped = _each_of(self._comps, xs, ys, self._dropped)
        return vals


def _scan_batched(map_fn, seeds_x, seeds_y, tol, max_iter, escape, probes_apart=False):
    # Newton iteration on map_fn(s) - s = 0 from every seed at once, with a
    # central-difference Jacobian; the seed-by-seed form is
    # tests/oracles.scalar_scan.  map_fn takes and returns arrays, nan where
    # the scalar map fails a seed.  Rows are (x, y, residual): a seed that
    # breaks down (non-finite map, singular Jacobian, escape) reports
    # residual inf, one that runs out of iterations its last residual,
    # always the sup-norm of the map defect at the stored point.  idx holds
    # the seeds still iterating; each one retires where the scalar loop
    # breaks, with the same stored point and residual, and all share one
    # iteration counter.  A map on whole arrays takes each seed's point and
    # its four Jacobian probes in one call, and the probes of a seed that
    # retires on its residual are computed and then ignored: a second call
    # per iteration would cost the built-in family's scan workload about
    # 10% (BENCH_9.json).  Where each element costs calls (probes_apart), a
    # second call takes the probes only of the seeds that go on, as the
    # scalar loop does.  A zero denominator gives a non-finite map value
    # here where the scalar steps raise, and both retire the seed with
    # residual inf at the same point.
    x = np.array(seeds_x, dtype=np.float64)
    y = np.array(seeds_y, dtype=np.float64)
    res = np.full(x.shape[0], np.inf)
    idx = np.arange(x.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if idx.size == 0:
                break
            ax = x[idx]
            ay = y[idx]
            dx = 1e-6 * np.maximum(1.0, np.abs(ax))
            dy = 1e-6 * np.maximum(1.0, np.abs(ay))
            probe_x = (ax + dx, ax - dx, ax, ax)
            probe_y = (ay, ay, ay + dy, ay - dy)
            if probes_apart:
                mx, my = map_fn(ax, ay)
            else:
                mx, my = map_fn(np.concatenate((ax, *probe_x)), np.concatenate((ay, *probe_y)))
                mx, px1, px0, qx1, qx0 = mx.reshape(5, -1)
                my, py1, py0, qy1, qy0 = my.reshape(5, -1)
            rx = mx - ax
            ry = my - ay
            finite = np.isfinite(rx) & np.isfinite(ry)
            r = np.maximum(np.abs(rx), np.abs(ry))
            res[idx] = np.where(finite, r, np.inf)
            go = finite & (r >= tol)
            if probes_apart:
                px, py = np.full((2, 4, ax.size), np.nan)
                vx, vy = map_fn(np.concatenate([p[go] for p in probe_x]),
                                np.concatenate([p[go] for p in probe_y]))
                px[:, go] = vx.reshape(4, -1)
                py[:, go] = vy.reshape(4, -1)
                px1, px0, qx1, qx0 = px
                py1, py0, qy1, qy0 = py
            j11 = (px1 - px0) / (2.0 * dx) - 1.0
            j21 = (py1 - py0) / (2.0 * dx)
            j12 = (qx1 - qx0) / (2.0 * dy)
            j22 = (qy1 - qy0) / (2.0 * dy) - 1.0
            det = j11 * j22 - j12 * j21
            singular = go & ~(np.isfinite(det) & (np.abs(det) >= 1e-14))
            res[idx[singular]] = np.inf
            go &= ~singular
            nx = ax + (-rx * j22 + ry * j12) / det
            ny = ay + (-j11 * ry + j21 * rx) / det
            idx, nx, ny = idx[go], nx[go], ny[go]
            x[idx] = nx
            y[idx] = ny
            out = (~(np.isfinite(nx) & np.isfinite(ny))
                   | (np.abs(nx) > escape) | (np.abs(ny) > escape))
            res[idx[out]] = np.inf
            idx = idx[~out]
    return np.column_stack((x, y, res))
