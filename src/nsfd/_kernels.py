"""The stepping loop and the Newton scan.

`run_trajectory` and `scan_fixed_points` are the entry points for every
system.  `run_trajectory` runs `_step_loop` over the scheme's step, and
`scan_fixed_points` runs `_scan_batched`, Newton over all seeds at once as
numpy arrays, with the same step evaluated on arrays, until at most
`_SCALAR_SEEDS` seeds go on; each of those then finishes alone on python
floats (`_newton_seed`), where a numpy iteration would cost more than its
seeds' python iterations.  Both phases share the Jacobian and the Newton
update (`_jacobian`, `_newton_update`).  The steps come from
the factories of nsfd.integrators: make(components, e) binds a system's
components and the scheme's e (or h) once per run or scan and returns
step(x, y), so one step costs one python call plus its arithmetic and its
component calls (per-step rates in the README, Backends).

Every system takes one path, and `_Evaluator` makes every call of its
callables, on arrays and on python floats: the orbits and the ghost scan
here, the equilibrium search, the closed forms and the finite differences
in nsfd.equilibria and nsfd.systems, and the construction checks.  One
evaluator serves one orbit, scan, search, check or point and takes each
callable's verdict under the array rule (`_plain_arithmetic`: plain
+ - * / in x and y) once.  A callable that passes runs on whole arrays
under `_raising`, and is called as it is on python floats; one that fails
it, or whose call trips a numpy flag, runs once per element on python
floats, in the order of the scalar calls, and on python floats it raises
_NotReal in place of a value that is not a real number.  A class that
overrides SplitSystem.components fails the rule, and its components run
once per point.

All these forms give the bits of the seed-by-seed scan.  numpy's elementwise
+ - * / and python's float arithmetic are the same correctly rounded IEEE
operations, so the same expression order gives the same bits; do not
"optimise" the expression order in this file or in the steps.
"""

import dis
import inspect
import math
import numbers
import sys
import types
from functools import lru_cache

import numpy as np

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
NEWTON_ESCAPE = 1e12

# what a python component may raise off the quadrant: the orbit or seed ends
_DROPS = (ZeroDivisionError, OverflowError, ValueError)


class _NotReal(ValueError):
    """A callable gave a value that is not a real number (None, a str, a
    complex): a search drops the point, as for the ValueError it is."""


def _real(v) -> bool:
    return type(v) is float or isinstance(v, numbers.Real)


def resolve_backend(requested: "str | None" = None) -> str:
    """The backend that runs: "python", the only one.  Any other request
    raises ValueError."""
    if requested is not None and requested.strip().lower() != "python":
        raise ValueError(f"unknown backend {requested!r}; expected 'python'")
    return "python"


def _step_loop(step, x0, y0, n):
    # The stepping loop: n steps of step(x, y), stopping just before the
    # first state that is non-finite, or whose step raised ZeroDivisionError,
    # OverflowError or ValueError (a math domain error off the quadrant, or
    # _NotReal from a component whose value is not a real number).  numpy
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
            if not (isfinite(x) and isfinite(y)):
                return xs[:k], ys[:k], k
            xs[k] = x
            ys[k] = y
    return xs, ys, n + 1


def run_trajectory(system, make, x0, y0, e, n):
    """n steps of the step make(components, e) from (x0, y0), over the
    checked components of `_Evaluator.point_components`.  Returns (xs, ys,
    stored_count).

    make is a scheme's step factory, e the denominator weight for
    nsfd/ensfd and h for the classical schemes.  A stored count m <= n
    means the orbit stopped just before grid index m.
    """
    return _step_loop(make(_Evaluator(system).point_components(), e), x0, y0, n)


def scan_fixed_points(system, make, e, seeds_x, seeds_y, tol=NEWTON_TOL,
                      max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """Newton scan for fixed points of the step make(system.components, e).

    Returns an (n, 3) array of (x, y, residual) rows, one per seed, in seed
    order; a seed whose residual is not below tol failed.  Every system
    runs `scan_fixed_points_generic`.
    """
    return scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol, max_iter, escape)


def scan_fixed_points_generic(system, make, e, seeds_x, seeds_y, tol=NEWTON_TOL,
                              max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE):
    """The Newton scan of the step make(components, e) for any system:
    `_scan_batched` over the step on arrays, by an `_Evaluator`, and on
    python floats for the last few seeds.

    Where the four components pass the array rule, each seed's point and
    its Jacobian probes go to the evaluator in one call; otherwise a second
    call takes the probes only of the seeds that go on, as seed by seed.  A
    seed fails, rather than aborting the scan, where a component raises
    ZeroDivisionError, OverflowError or ValueError or returns a value that
    is not a real number (a fractional power of a negative coordinate).
    """
    calls = _Evaluator(system)
    seeds = np.array([seeds_x, seeds_y], dtype=np.float64)
    build = lambda components: make(components, e)
    return _scan_batched(lambda x, y: calls.map(build, x, y)[0], *seeds, tol, max_iter, escape,
                         probes_apart=not calls.whole, step=make(calls.point_components(), e))


# The array rule.  A callable written as one + - * / expression in x and y
# (through locals, unary minus, closure cells, globals and constants that
# hold python floats or small ints) performs, called on float arrays,
# numpy's elementwise form of the operations its scalar call performs on
# python floats, in the same order: the same correctly rounded IEEE
# operations.  The bits can differ only where a scalar call would raise
# or meet a non-finite value: python raises ZeroDivisionError for any
# divisor 0, where numpy gives inf or nan, silently for a non-finite
# numerator.  So the rule asks for finite inputs and finite scalars, lets
# no operation combine two scalars (a python float that overflows to inf
# sets no numpy flag), and makes numpy raise on divide, overflow and
# invalid: with none raised, every divisor was non-zero and every value
# finite, and each scalar call gives the bits and raises nothing.  An
# instruction outside the list costs speed, never bits.

_EXACT_INT = 2 ** 53  # every int up to this is a float, exactly
_REFUSED_FLAGS = (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS | inspect.CO_GENERATOR
                  | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
                  | inspect.CO_ITERABLE_COROUTINE)
_ARITH_OPS = ("+", "-", "*", "/")  # BINARY_OP's argrepr, python 3.11 and later
_ARITH_OPNAMES = ("BINARY_ADD", "BINARY_SUBTRACT", "BINARY_MULTIPLY", "BINARY_TRUE_DIVIDE")
_NULL_BIT = sys.version_info >= (3, 11)  # LOAD_GLOBAL's low bit pushes NULL for a call


def _plain_number(v) -> bool:
    """A finite python float, or an int that a float holds exactly."""
    return ((type(v) is float and math.isfinite(v))
            or (type(v) is int and -_EXACT_INT <= v <= _EXACT_INT))


@lru_cache(maxsize=512)
def _arithmetic_loads(code):
    """The static half of the rule, once per code object: None unless code
    is a plain + - * / expression in its two parameters, else the indices
    of the closure cells and the names of the globals it loads.

    Tracks whether each stack value is computed from a parameter (an
    array when the function is called on arrays) and refuses a binary
    operation of two other values, so every scalar that meets an array is
    a cell, global or constant, or one negated.
    """
    if code.co_argcount != 2 or code.co_kwonlyargcount or code.co_flags & _REFUSED_FLAGS:
        return None
    local = dict.fromkeys(code.co_varnames[:2], True)  # name -> computed from x or y
    stack, cells, names = [], set(), set()
    try:
        for ins in dis.get_instructions(code):
            op = ins.opname
            if op in ("RESUME", "NOP", "CACHE", "COPY_FREE_VARS"):
                continue
            if op in ("LOAD_FAST", "LOAD_FAST_CHECK"):
                stack.append(local[ins.argval])
            elif op == "LOAD_FAST_LOAD_FAST":
                stack += [local[n] for n in ins.argval]
            elif op == "STORE_FAST":
                local[ins.argval] = stack.pop()
            elif op == "STORE_FAST_LOAD_FAST":
                local[ins.argval[0]] = stack.pop()
                stack.append(local[ins.argval[1]])
            elif op == "STORE_FAST_STORE_FAST":
                for n in ins.argval:
                    local[n] = stack.pop()
            elif op == "LOAD_DEREF":
                cells.add(code.co_freevars.index(ins.argval))
                stack.append(False)
            elif op == "LOAD_GLOBAL" and not (_NULL_BIT and ins.arg & 1):
                names.add(ins.argval)
                stack.append(False)
            elif op == "LOAD_CONST" and _plain_number(ins.argval):
                stack.append(False)
            elif op == "UNARY_NEGATIVE":
                stack.append(stack.pop())
            elif ((op == "BINARY_OP" and ins.argrepr in _ARITH_OPS)
                  or op in _ARITH_OPNAMES):
                if not (stack.pop() | stack.pop()):
                    return None
                stack.append(True)
            elif op == "RETURN_VALUE":
                stack.pop()
                return tuple(sorted(cells)), tuple(sorted(names))
            elif op == "RETURN_CONST" and _plain_number(ins.argval):
                return tuple(sorted(cells)), tuple(sorted(names))
            else:
                return None
    except (IndexError, KeyError, ValueError):  # an unbound local, a cell var, a short stack
        return None


def _plain_arithmetic(fn) -> bool:
    """The whole rule but for the inputs: fn is a plain function whose
    code passes `_arithmetic_loads` and whose cells and globals hold plain
    numbers now (a builtin, a numpy scalar or an array refuses it)."""
    if type(fn) is not types.FunctionType or fn.__defaults__ or fn.__kwdefaults__:
        return False
    loads = _arithmetic_loads(fn.__code__)
    if loads is None:
        return False
    cells, names = loads
    try:
        for i in cells:
            if not _plain_number(fn.__closure__[i].cell_contents):
                return False
    except ValueError:  # an empty cell
        return False
    g = fn.__globals__
    for n in names:
        if not (n in g and _plain_number(g[n])):
            return False
    return True


@np.errstate(divide="raise", over="raise", invalid="raise", under="ignore")
def _raising(fn, *args):
    """fn(*args), or None where numpy raised a divide, overflow or invalid
    flag.  Unguarded, a zero divisor can give a finite value (1 / (y / 0)
    is 0) where the scalar call raises ZeroDivisionError."""
    try:
        return fn(*args)
    except FloatingPointError:
        return None


def _guarded(fns, x, y):
    # [fn(x, y) for fn in fns] under _raising, or None where a flag trips or
    # a result is neither an array nor a python float: an int result reads
    # as an int per element
    out = _raising(lambda x, y: [fn(x, y) for fn in fns], x, y)
    if out is None or not all(type(v) is float or isinstance(v, np.ndarray) for v in out):
        return None
    return out


def _finite(*arrays):
    # a dot product of finite values is finite unless it overflows, which
    # takes values past 1e154; the exact test settles those
    return all(math.isfinite(np.vdot(a, a)) or np.isfinite(a).all() for a in arrays)


class _Evaluator:
    """The calls of one scan, search or construction check to a system's
    callables: the one place that chooses between a call on whole arrays
    and calls per element, which give the same bits.

    Each callable's verdict under the array rule is taken once, at its
    first use; as it reads closure cells and globals, which may change, an
    evaluator serves one operation.  A callable that passes the rule runs
    in one call on finite arrays under `_raising`; one that fails it, or
    whose call trips a flag, runs once per element on python floats, in
    the order of the scalar calls.  whole says whether the four fields
    pass, and so the fused components run on arrays: construction binds
    components on the instance (a closure over the fields, or the family's
    fused closure with their bits) exactly where the class keeps
    SplitSystem.components.  An override may compute anything, so the rule
    refuses it, and it runs once per point.
    """

    def __init__(self, system):
        self.components = system.components
        self.fields = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
        self.fused = "components" in vars(system)
        self._verdicts = {}
        self.whole = self.fused and all(map(self._plain, self.fields))

    def _plain(self, fn):
        got = self._verdicts.get(id(fn))
        if got is None:  # the entry holds fn, so its id stays its own
            got = self._verdicts[id(fn)] = fn, _plain_arithmetic(fn)
        return got[1]

    def real(self, fn):
        """fn for calls on python floats: fn itself where it passes the
        rule, and so gives a real number or raises; else fn raising _NotReal
        in place of a value that is not a real number."""
        if self._plain(fn):
            return fn

        def call(x, y):
            v = fn(x, y)
            if _real(v):
                return v
            raise _NotReal(f"{v!r} is not a real number")

        return call

    def point_components(self):
        """components for calls on python floats, one point at a time: the
        system's own where whole; else components that raise _NotReal at
        the first value that is not a real number, calling no later field
        there, as `each` drops the point."""
        if self.whole:
            return self.components
        if self.fused:
            fp, fm, gp, gm = map(self.real, self.fields)
            return lambda x, y: (fp(x, y), fm(x, y), gp(x, y), gm(x, y))
        override = self.components

        def components(x, y):
            v = override(x, y)
            if all(map(_real, v)):
                return v
            raise _NotReal(f"components({x!r}, {y!r}) = {v!r} holds a value that is not real")

        return components

    def on_arrays(self, fns, x, y):
        """[fn(x, y) for fn in fns] in one guarded call on the float arrays
        x, y where every fn passes the rule and every input is finite, each
        an array or the python float of every scalar call, with the bits of
        fn(x, y) at every element; None where one must go per element.  An
        array may be an input itself."""
        if all(map(self._plain, fns)) and _finite(x, y):
            return _guarded(fns, x, y)
        return None

    def each(self, fns, x, y, dropped=None, skip=None, catch=_DROPS):
        """Each fn of fns in turn at every point of the float arrays x, y,
        broadcast together: the values, (len(fns),) + their shape, and the
        mask of the elements dropped.

        The points are the elements, or, where dropped (the mask of those
        dropped already) gives the elements' shape, rows of points of them.
        In the order fn, row, element, a fn is called at a point not set in
        skip only if no call before it dropped the element, by raising one
        of catch (any other exception propagates) or by returning a value
        that is not a real number (where every fn passes the rule, they run
        on the arrays at the skipped points too, which no one can tell).  A
        point skipped or not called holds nan; a value called before its
        element dropped is kept, for the construction checks, which read the
        first failing call in fn order.
        """
        shape = np.broadcast(x, y).shape
        fresh = dropped is None or not dropped.any()
        dropped = np.zeros(shape, dtype=bool) if dropped is None else dropped.copy()
        # the usual case: every fn on the arrays as given, the skipped points
        # too, which no one can tell from plain arithmetic, then set to nan
        out = self.on_arrays(fns, x, y) if fresh else None
        if out is not None:
            vals = np.empty((len(fns),) + shape)
            for row, v in zip(vals, out):
                row[...] = v
            if skip is not None:
                np.copyto(vals, np.nan, where=skip)
            return vals, dropped
        vals = np.full((len(fns),) + shape, np.nan)
        flat = dropped.reshape(-1)  # a view: what it drops lands in dropped
        rows = (math.prod(shape[:len(shape) - dropped.ndim]), flat.size)
        px, py = _as_rows(x, shape, rows), _as_rows(y, shape, rows)
        want = np.ones(rows, dtype=bool) if skip is None else ~_as_rows(skip, shape, rows)
        ax, lists = None, {}  # the points to call, made again after a drop
        for row, fn in zip(vals.reshape((len(fns),) + rows), fns):
            if self._plain(fn):
                if ax is None:
                    at = want & ~flat
                    ax, ay = px[at], py[at]
                    finite = _finite(ax, ay)
                v = _guarded([fn], ax, ay) if finite else None
                if v is not None:
                    row[at] = v[0]
                    continue
            for r in range(rows[0]):  # per element, row by row
                if r not in lists:
                    idx = np.flatnonzero(want[r] & ~flat)
                    lists[r] = idx, px[r, idx].tolist(), py[r, idx].tolist()
                idx, lx, ly = lists[r]
                v, drop = _each(fn, lx, ly, catch)
                row[r, idx] = v
                if drop.any():
                    flat[idx[drop]] = True
                    ax, lists = None, {}
        return vals, dropped

    def map(self, build, x, y):
        """The map build(components) from a point (x, y) to a pair, at every
        element of the float arrays x, y: the pair's two arrays, nan where
        dropped, and the mask of the elements dropped.  The fused components
        run on the arrays where whole; else, or where that call trips a
        flag, each call of components evaluates the fields by `each`, an
        element dropped in one stage called in no later one; an override of
        components is called once per element.
        """
        if self.whole and _finite(x, y):
            v = _raising(build(self.components), x, y)
            if v is not None:  # a balance of two constant components is a python float
                return ([c if type(c) is np.ndarray else np.full(x.shape, c) for c in v],
                        np.zeros(x.shape, dtype=bool))
        if self.fused:
            dropped = None

            def components(xs, ys):
                nonlocal dropped
                vals, dropped = self.each(self.fields, xs, ys, dropped)
                return vals

            out = build(components)(x, y)
            return [np.where(dropped, np.nan, c) for c in out] if dropped.any() else out, dropped
        point = _dropping(build(self.point_components()))
        vals = [point(a, b) for a, b in zip(x.tolist(), y.tolist())]
        out = np.array([(math.nan, math.nan) if v is None else v for v in vals], dtype=np.float64)
        return out.reshape(-1, 2).T, np.array([v is None for v in vals], dtype=bool)


def _as_rows(v, shape, rows):
    # v broadcast to shape, as rows of the elements; np.broadcast_to costs
    # more than a small call, so only where the shape differs
    return (v if np.shape(v) == shape else np.broadcast_to(v, shape)).reshape(rows)


def _each(fn, xs, ys, catch):
    """fn(x, y) called once for each pair of the lists of python floats xs,
    ys: a float array, and the mask of the calls that raised one of catch
    or returned a value that is not a real number (a complex one, say),
    which hold nan.  Any other exception propagates."""
    vals, drops, calls = [], [], map(fn, xs, ys)
    while True:
        try:  # extend keeps the values before a raise, and calls goes on after it
            vals.extend(calls)
            break
        except catch:
            drops.append(len(vals))
            vals.append(math.nan)
    dropped = np.zeros(len(vals), dtype=bool)
    dropped[drops] = True
    out = np.array(vals)
    if out.dtype != np.float64:  # a value of another type somewhere
        odd = [not _real(v) for v in vals]
        dropped |= odd
        out = np.array([math.nan if o else v for v, o in zip(vals, odd)], dtype=np.float64)
    return out, dropped


def _dropping(fn, dropped=None):
    """fn on python floats, returning `dropped` in place of a raise of one
    of _DROPS.  A step of `_Evaluator.point_components` raises _NotReal, a
    ValueError, where a component is not a real number, so it never
    returns a complex value."""

    def point(x, y):
        try:
            return fn(x, y)
        except _DROPS:
            return dropped

    return point


# Once at most this many seeds iterate, _scan_batched finishes each on
# python floats.  The break-even: up to ~16 seeds, a numpy iteration costs
# about the same whatever their count, ~95 us for rk2 and ~69 us for nsfd
# on model2, and a python iteration ~7.7 us and ~4.8 us a seed; that is
# 12 and 14 seeds.  Any value from 8 to 24 gave the scan workload's ghost
# scans the same time, within noise, about 25% below all-numpy.
_SCALAR_SEEDS = 12


def _jacobian(dx, dy, px1, px0, py1, py0, qx1, qx0, qy1, qy0):
    # the central-difference Jacobian of map - identity from the four
    # probes, and its determinant; on arrays or python floats alike
    j11 = (px1 - px0) / (2.0 * dx) - 1.0
    j21 = (py1 - py0) / (2.0 * dx)
    j12 = (qx1 - qx0) / (2.0 * dy)
    j22 = (qy1 - qy0) / (2.0 * dy) - 1.0
    return j11, j12, j21, j22, j11 * j22 - j12 * j21


def _newton_update(x, y, rx, ry, j11, j12, j21, j22, det):
    # the Newton step from (x, y) for the defect (rx, ry); det must be
    # non-zero for python floats, which raise where numpy gives inf
    return x + (-rx * j22 + ry * j12) / det, y + (-j11 * ry + j21 * rx) / det


def _scan_batched(map_fn, seeds_x, seeds_y, tol, max_iter, escape, probes_apart=False,
                  step=None):
    # Newton iteration on map_fn(s) - s = 0 from every seed at once, with a
    # central-difference Jacobian; the seed-by-seed form is
    # tests/oracles.scalar_scan.  map_fn takes and returns arrays, nan where
    # the scalar map fails a seed; step is the same map on python floats
    # (map_fn itself if None).  Rows are (x, y, residual): a seed that
    # breaks down (non-finite map, singular Jacobian, escape) reports
    # residual inf, one that runs out of iterations its last residual,
    # always the sup-norm of the map defect at the stored point.  idx holds
    # the seeds still iterating; each one retires where the scalar loop
    # breaks, with the same stored point and residual.  The seeds iterate
    # together, one numpy iteration at a time, while more than
    # _SCALAR_SEEDS of them go on; then each of the rest finishes alone on
    # python floats (_newton_seed), with the iterations left of max_iter.
    # A map on whole arrays takes each seed's point and its four Jacobian
    # probes in one call, and the probes of a seed that retires on its
    # residual are computed and then ignored: a second call per iteration
    # would cost the scan workload about 10% (BENCH_9.json).  Where each
    # element costs calls (probes_apart), a second call takes the probes
    # only of the seeds that go on, as the scalar loop does.
    x = np.array(seeds_x, dtype=np.float64)
    y = np.array(seeds_y, dtype=np.float64)
    res = np.full(x.shape[0], np.inf)
    idx = np.arange(x.shape[0])
    done = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while idx.size > _SCALAR_SEEDS and done < max_iter:
            done += 1
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
            j11, j12, j21, j22, det = _jacobian(dx, dy, px1, px0, py1, py0, qx1, qx0, qy1, qy0)
            singular = go & ~(np.isfinite(det) & (np.abs(det) >= 1e-14))
            res[idx[singular]] = np.inf
            go &= ~singular
            nx, ny = _newton_update(ax, ay, rx, ry, j11, j12, j21, j22, det)
            idx, nx, ny = idx[go], nx[go], ny[go]
            x[idx] = nx
            y[idx] = ny
            out = (~(np.isfinite(nx) & np.isfinite(ny))
                   | (np.abs(nx) > escape) | (np.abs(ny) > escape))
            res[idx[out]] = np.inf
            idx = idx[~out]
        point = _dropping(map_fn if step is None else step, (math.nan, math.nan))
        for i in idx.tolist():
            # python floats: an np.float64 divides by zero without raising
            x[i], y[i], res[i] = _newton_seed(point, float(x[i]), float(y[i]), float(res[i]),
                                              tol, max_iter - done, escape)
    return np.column_stack((x, y, res))


def _newton_seed(point, x, y, res, tol, n, escape):
    # at most n more iterations of one seed of _scan_batched on python
    # floats, from (x, y) with last residual res: the loop of
    # tests/oracles.scalar_scan, over point, the map with nan where it
    # fails.  Returns the stored (x, y, residual).
    isfinite = math.isfinite
    for _ in range(n):
        mx, my = point(x, y)
        rx = mx - x
        ry = my - y
        if not (isfinite(rx) and isfinite(ry)):
            return x, y, math.inf
        res = max(abs(rx), abs(ry))
        if res < tol:
            break
        dx = 1e-6 * max(1.0, abs(x))
        dy = 1e-6 * max(1.0, abs(y))
        px1, py1 = point(x + dx, y)
        px0, py0 = point(x - dx, y)
        qx1, qy1 = point(x, y + dy)
        qx0, qy0 = point(x, y - dy)
        j11, j12, j21, j22, det = _jacobian(dx, dy, px1, px0, py1, py0, qx1, qx0, qy1, qy0)
        if not isfinite(det) or abs(det) < 1e-14:
            return x, y, math.inf
        x, y = _newton_update(x, y, rx, ry, j11, j12, j21, j22, det)
        if not (isfinite(x) and isfinite(y)) or abs(x) > escape or abs(y) > escape:
            return x, y, math.inf
    return x, y, res
