"""The stepping loop and the Newton scan, and numba kernels for them.

`run_trajectory` and `scan_fixed_points` are the entry points for every
system.  Which code runs behind them depends on the system and on the
backend:

* the python backend, and any system built from arbitrary callables:
  `run_trajectory` runs `_step_loop` over the scheme's step, and
  `scan_fixed_points` runs `_scan_batched`, Newton over all seeds at once
  as numpy arrays, with the same step evaluated on arrays.  The steps
  come from the factories of nsfd.integrators: make(components, e)
  binds a system's components and the scheme's e (or h) once per run
  or scan and returns step(x, y), so one step costs one python call
  plus its arithmetic and its component calls (per-step rates in the
  README, Backends).  The built-in
  predator-prey family (systems with
  rma_params) evaluates its components on whole arrays too; any other
  system goes through `scan_fixed_points_generic`, where only its four
  component callables are called once per element (`_each_of`), in the
  order of the seed-by-seed scan, and everything derived from them runs
  on the arrays;
* the built-in family on the numba backend: compiled kernels, made by
  numba from `_rma_step` (one step of that family, written like the
  scheme steps) and the loop drivers below.

Both give bit-identical outputs.  numpy's elementwise + - * / and
python's float arithmetic are the same correctly rounded IEEE operations,
and fastmath stays off, so the same expression order gives the same bits;
do not "optimise" the expression order in this file or in the steps.

The one switch is NSFD_BACKEND ("numba" or "python"; unset means numba
when importable).
"""

import math
import os
import warnings

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False
    njit = None

ENV_VAR = "NSFD_BACKEND"

# the scheme tag _rma_step dispatches on; ensfd is nsfd at a weighted e
SCHEME_TAGS = {"nsfd": 0, "ensfd": 0, "euler": 1, "rk2": 2, "rk4": 3}

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
NEWTON_ESCAPE = 1e12

# what a python component may raise off the quadrant: the orbit or seed ends
_DROPS = (ZeroDivisionError, OverflowError, ValueError)


def resolve_backend(requested: "str | None" = None) -> str:
    """Pick "numba" or "python" from an explicit request or the environment."""
    choice = requested if requested is not None else os.environ.get(ENV_VAR, "")
    choice = choice.strip().lower()
    if not choice:
        choice = "numba" if HAVE_NUMBA else "python"
    if choice not in ("numba", "python"):
        raise ValueError(f"unknown backend {choice!r}; expected 'numba' or 'python'")
    if choice == "numba" and not HAVE_NUMBA:
        warnings.warn("numba not importable, using the python backend", RuntimeWarning)
        return "python"
    return choice


def _rma_step(tag, a, b, c, d, x, y, e, h):
    # One step of the selected scheme for f+ = b, f- = b*x + a*y/(c+x),
    # g+ = x/(c+x), g- = d.  e is the denominator weight (nsfd only), h the
    # grid step.  A zero denominator yields nan where the python scheme
    # steps raise ZeroDivisionError; both end an orbit or a Newton seed at
    # the same point, so the two paths stay bit-equal.
    def field(u, v):
        den = c + u
        if den == 0.0:
            return np.nan, np.nan
        fp = b
        fm = b * u + a * v / den
        gp = u / den
        gm = d
        return u * (fp - fm), v * (gp - gm)

    if tag == 0:
        den = c + x
        if den == 0.0:
            return np.nan, np.nan
        fp = b
        fm = b * x + a * y / den
        gp = x / den
        gm = d
        dfm = 1.0 + e * fm
        dgm = 1.0 + e * gm
        if dfm == 0.0 or dgm == 0.0:
            return np.nan, np.nan
        return x * (1.0 + e * fp) / dfm, y * (1.0 + e * gp) / dgm
    if tag == 1:
        ux, uy = field(x, y)
        return x + h * ux, y + h * uy
    if tag == 2:
        k1x, k1y = field(x, y)
        k2x, k2y = field(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        return x + h * k2x, y + h * k2y
    k1x, k1y = field(x, y)
    k2x, k2y = field(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
    k3x, k3y = field(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
    k4x, k4y = field(x + h * k3x, y + h * k3y)
    return (
        x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
    )


def _make_trajectory_driver(step):
    def drive(tag, a, b, c, d, x0, y0, e, h, n, xs, ys):
        # Fills xs/ys (length n+1) and returns the number of stored states.
        # A return value m <= n means the state at grid index m went
        # non-finite and the orbit is truncated just before it.
        x = x0
        y = y0
        xs[0] = x
        ys[0] = y
        for k in range(n):
            xn, yn = step(tag, a, b, c, d, x, y, e, h)
            if not (math.isfinite(xn) and math.isfinite(yn)):
                return k + 1
            xs[k + 1] = xn
            ys[k + 1] = yn
            x = xn
            y = yn
        return n + 1

    return drive


def _make_fixed_point_driver(step):
    def drive(tag, a, b, c, d, e, h, seeds_x, seeds_y, max_iter, tol, escape, out):
        # Newton iteration on step(s) - s = 0 from every seed, with a
        # central-difference Jacobian.  out[i] = (x, y, residual); a seed
        # that breaks down reports residual inf, one that runs out of
        # iterations its last residual.  The stored residual is always the
        # sup-norm of the map defect measured at the stored point.  Seeds
        # start as floats, not numpy scalars: faster in python, and a zero
        # denominator raises there instead of warning.
        n = seeds_x.shape[0]
        for i in range(n):
            x = float(seeds_x[i])
            y = float(seeds_y[i])
            res = np.inf
            for _ in range(max_iter):
                mx, my = step(tag, a, b, c, d, x, y, e, h)
                rx = mx - x
                ry = my - y
                if not (math.isfinite(rx) and math.isfinite(ry)):
                    res = np.inf
                    break
                res = abs(rx)
                if abs(ry) > res:
                    res = abs(ry)
                if res < tol:
                    break
                dx = 1e-6 * max(1.0, abs(x))
                dy = 1e-6 * max(1.0, abs(y))
                px1, py1 = step(tag, a, b, c, d, x + dx, y, e, h)
                px0, py0 = step(tag, a, b, c, d, x - dx, y, e, h)
                qx1, qy1 = step(tag, a, b, c, d, x, y + dy, e, h)
                qx0, qy0 = step(tag, a, b, c, d, x, y - dy, e, h)
                j11 = (px1 - px0) / (2.0 * dx) - 1.0
                j21 = (py1 - py0) / (2.0 * dx)
                j12 = (qx1 - qx0) / (2.0 * dy)
                j22 = (qy1 - qy0) / (2.0 * dy) - 1.0
                det = j11 * j22 - j12 * j21
                if not math.isfinite(det) or abs(det) < 1e-14:
                    res = np.inf
                    break
                x = x + (-rx * j22 + ry * j12) / det
                y = y + (-j11 * ry + j21 * rx) / det
                if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > escape or abs(y) > escape:
                    res = np.inf
                    break
            out[i, 0] = x
            out[i, 1] = y
            out[i, 2] = res

    return drive


if HAVE_NUMBA:
    _rma_step_jit = njit(cache=True, fastmath=False)(_rma_step)
    _trajectory_jit = njit(cache=True, fastmath=False)(_make_trajectory_driver(_rma_step_jit))
    _fixed_points_jit = njit(cache=True, fastmath=False)(_make_fixed_point_driver(_rma_step_jit))


def warmup() -> None:
    """Force jit compilation so later calls run at steady-state speed."""
    if not HAVE_NUMBA:
        return
    xs = np.empty(2)
    ys = np.empty(2)
    out = np.empty((1, 3))
    sx = np.array([0.5])
    sy = np.array([0.5])
    for tag in sorted(set(SCHEME_TAGS.values())):
        _trajectory_jit(tag, 2.0, 1.0, 0.5, 6.0, 0.5, 0.5, 0.01, 0.01, 1, xs, ys)
        _fixed_points_jit(tag, 2.0, 1.0, 0.5, 6.0, 0.01, 0.01, sx, sy, 2, NEWTON_TOL, NEWTON_ESCAPE, out)


def _step_loop(step, x0, y0, n):
    # The python stepping loop: n steps of step(x, y), stopping just before
    # the first state that is non-finite or complex (a fractional power of
    # a negative coordinate), or whose step raised ZeroDivisionError,
    # OverflowError or ValueError (a math domain error off the quadrant).
    # A pair of python floats takes the fast check; anything else, numpy
    # scalars included, first has complex ruled out, since math.isfinite
    # of an np.complex128 only warns and tests its real part.
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    x = float(x0)
    y = float(y0)
    xs[0] = x
    ys[0] = y
    isfinite = math.isfinite
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


def run_trajectory(system, kind, make, x0, y0, e, h, n):
    """n steps of scheme `kind` from (x0, y0). Returns (xs, ys, stored_count).

    make(system.components, e) is the scheme's step (x, y) -> (x', y'), e
    being the denominator weight for nsfd/ensfd and h for the classical
    schemes.  A stored count m <= n means the orbit stopped just before
    grid index m.
    """
    if system.rma_params is None or resolve_backend() != "numba":
        return _step_loop(make(system.components, e), x0, y0, n)
    p = system.rma_params
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    m = int(_trajectory_jit(SCHEME_TAGS[kind], p.a, p.b, p.c, p.d,
                            float(x0), float(y0), float(e), float(h), int(n), xs, ys))
    return xs[:m], ys[:m], m


def scan_fixed_points(system, kind, make, e, h, seeds_x, seeds_y, tol=NEWTON_TOL,
                      max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """Newton scan for fixed points of the step make(system.components, e).

    Returns an (n, 3) array of (x, y, residual) rows, one per seed, in seed
    order; a seed whose residual is not below tol failed.
    """
    if system.rma_params is None:
        return scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol, max_iter, escape)
    if resolve_backend() != "numba":
        return _scan_batched(make(system.components, e), seeds_x, seeds_y, tol, max_iter, escape)
    seeds_x = np.ascontiguousarray(seeds_x, dtype=np.float64)
    seeds_y = np.ascontiguousarray(seeds_y, dtype=np.float64)
    p = system.rma_params
    out = np.empty((seeds_x.shape[0], 3))
    _fixed_points_jit(SCHEME_TAGS[kind], p.a, p.b, p.c, p.d, float(e), float(h),
                      seeds_x, seeds_y, int(max_iter), float(tol), float(escape), out)
    return out


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
    # _make_fixed_point_driver over all seeds at once: map_fn takes and
    # returns arrays, nan where the scalar map fails a seed.  idx holds the
    # seeds still iterating; each one retires where the scalar loop breaks,
    # with the same stored point and residual, and all share one iteration
    # counter.  A map on whole arrays takes each seed's point and its four
    # Jacobian probes in one call, and the probes of a seed that retires on
    # its residual are computed and then ignored: a second call per
    # iteration would cost the built-in family's scan workload about 10%
    # (BENCH_9.json).  Where each element costs calls (probes_apart), a
    # second call takes the probes only of the seeds that go on, as the
    # scalar loop does.  A zero denominator gives a
    # non-finite map value here where the scalar steps raise, and both
    # retire the seed with residual inf at the same point.
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
