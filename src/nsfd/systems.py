"""Planar split systems on the closed positive quadrant.

A split system separates each per-capita rate into a gain part and a loss
part,

    x' = x * (f_plus(x, y) - f_minus(x, y))
    y' = y * (g_plus(x, y) - g_minus(x, y))

with all four components finite, non-negative on the axes and strictly
positive inside the quadrant.  Keeping gains and losses apart is what makes
the denominator-weighted difference schemes in :mod:`nsfd.integrators`
positivity preserving and the closed-form equilibrium analysis in
:mod:`nsfd.equilibria` possible, so construction checks the sign structure
eagerly on a sample grid instead of trusting the caller.  The checks
evaluate a system's callables on whole numpy grids where they pass the
array rule of nsfd._kernels and once per grid node otherwise, with the
same verdict and message either way.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._kernels import _each_of, _on_arrays, _plain_arithmetic, _raising

Component = Callable[[float, float], float]

X_MAX_DEFAULT = 20.0
VALIDATION_GRID_N = 50
AXIS_ZERO_TOL = 1e-9

# cube root of machine epsilon, the usual central-difference step scale
_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _float_tag(v: float) -> str:
    """Text that reads back as exactly v: the 6-digit "%g" form where that
    round-trips, repr otherwise, so names built from it (model and weight
    names, output file names) never merge two values."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


class DomainError(ValueError):
    """State outside the closed positive quadrant."""


class ConstructionError(ValueError):
    """System definition violates the split-form sign requirements."""


@dataclass(frozen=True)
class State:
    x: float
    y: float
    t: float = 0.0


@dataclass(frozen=True)
class ModelParams:
    """Parameters (a, b, c, d) of the built-in predator-prey family."""

    a: float
    b: float
    c: float
    d: float


class PartialValues(NamedTuple):
    """First partial derivatives of the four components at one point.

    Field order is fixed: gain/loss of the x equation first, then the y
    equation, each as (d/dx, d/dy).
    """

    fpx: float
    fpy: float
    fmx: float
    fmy: float
    gpx: float
    gpy: float
    gmx: float
    gmy: float


@dataclass(frozen=True)
class Partials:
    """Analytic partial derivatives, one callable per entry of PartialValues."""

    fpx: Component
    fpy: Component
    fmx: Component
    fmy: Component
    gpx: Component
    gpy: Component
    gmx: Component
    gmy: Component

    def at(self, x: float, y: float) -> PartialValues:
        return PartialValues(
            self.fpx(x, y), self.fpy(x, y),
            self.fmx(x, y), self.fmy(x, y),
            self.gpx(x, y), self.gpy(x, y),
            self.gmx(x, y), self.gmy(x, y),
        )


@dataclass(frozen=True)
class SplitSystem:
    """A planar split system plus optional analytic derivative information.

    Parameters
    ----------
    f_plus, f_minus, g_plus, g_minus
        The four component callables, each mapping (x, y) to a float.
        A plain python function whose body is one + - * / expression,
        each operation taking x, y or a value computed from them, over
        closure cells, globals and constants that hold finite python
        floats or ints up to 2**53 (as Lotka-Volterra, Holling II and
        Beddington-DeAngelis terms are usually written), is evaluated on
        whole numpy arrays in the construction checks and the Newton
        searches, with the bits of its scalar calls (the array rule,
        README Backends); any other callable is called once per point on
        python floats.
    partials
        Analytic partial derivatives.  Optional; code that needs
        derivatives falls back to finite differences when absent.
    name
        Short identifier used in file names and reports.
    x_max
        Half-width of the square validation/search box [0, x_max]^2.

    The read-only attribute ``rma_params`` holds the parameters of a
    system built by :func:`make_rosenzweig_macarthur`, the only code that
    sets it, and is None for every other system.  It is a label that no
    code path reads, and no constructor argument: ``dataclasses.replace``
    of a system of the family gives a system without it, with the same
    bits on the same path.

    The instance also holds a private store of equilibrium searches,
    filled by :func:`nsfd.equilibria.find_equilibria`.  It takes no part
    in ``==``, ``hash`` or ``repr``, and ``dataclasses.replace`` starts
    the new system with an empty one.

    Raises
    ------
    ConstructionError
        If a component is non-finite, negative on the quadrant boundary,
        or not strictly positive at an interior node of the 50 x 50
        validation grid; if an analytic partial or its finite difference
        is non-finite, or the two disagree, at a node of a coarser subgrid;
        or if a component or partial raises ZeroDivisionError,
        OverflowError or ValueError, or returns a complex value, at a
        node.  The message names the first failing node: components in
        field order, then x, then y for the sign check; x, then y, then
        PartialValues order for the partials.
    """

    f_plus: Component
    f_minus: Component
    g_plus: Component
    g_minus: Component
    partials: "Partials | None" = None
    name: str = "custom"
    x_max: float = X_MAX_DEFAULT
    # __init__ leaves an init=False field with a plain default unassigned,
    # so only make_rosenzweig_macarthur, which sets it before __init__, can
    # give it a value; replace() refuses it
    rma_params: "ModelParams | None" = field(default=None, init=False, compare=False)
    _equilibria: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.x_max > 0.0 and math.isfinite(self.x_max)):
            raise ConstructionError(f"x_max must be positive and finite, got {self.x_max!r}")
        _bind_components(self)
        _check_sign_structure(self)
        if self.partials is not None:
            _check_partials_consistency(self)

    def components(self, x: float, y: float):
        """Evaluate (f_plus, f_minus, g_plus, g_minus) without domain checks.

        Scheme internals call this once per stage, for states that may sit
        outside the quadrant (classical schemes wander there); use
        vector_field for validated evaluation.  Construction binds it once
        per instance, as a closure over the four callables that calls each
        once, in field order, without the attribute lookups of this method;
        the built-in family binds one fused closure with the bits (or
        exception) of the four single calls instead.  A subclass that
        overrides this method keeps its own.
        """
        return (
            self.f_plus(x, y),
            self.f_minus(x, y),
            self.g_plus(x, y),
            self.g_minus(x, y),
        )

    def __getstate__(self):
        # copy and pickle without the bound closure, which is local and so
        # not picklable; __setstate__ binds it anew
        state = dict(vars(self))
        if getattr(state.get("components"), "__code__", None) is _BOUND_CODE:
            del state["components"]
        return state

    def __setstate__(self, state):
        vars(self).update(state)
        _bind_components(self)


def _bound_components(f_plus, f_minus, g_plus, g_minus):
    # SplitSystem.components closed over the four callables
    def components(x, y):
        return f_plus(x, y), f_minus(x, y), g_plus(x, y), g_minus(x, y)

    return components


_BOUND_CODE = _bound_components(None, None, None, None).__code__


def _bind_components(system: SplitSystem) -> None:
    # an instance attribute shadows the method: bound once, unless the
    # family's fused closure is already on or a subclass overrides it
    if "components" not in vars(system) and type(system).components is SplitSystem.components:
        object.__setattr__(system, "components", _bound_components(
            system.f_plus, system.f_minus, system.g_plus, system.g_minus))


def _rma_components(p: ModelParams):
    # make_rosenzweig_macarthur's four closures in one: the same bits
    a, b, c, d = p.a, p.b, p.c, p.d

    def components(x, y):
        return b, b * x + a * y / (c + x), x / (c + x), d

    return components


def _check_sign_structure(sys: SplitSystem) -> None:
    nodes = np.linspace(0.0, sys.x_max, VALIDATION_GRID_N).tolist()
    labels = ("f_plus", "f_minus", "g_plus", "g_minus")
    comps = (sys.f_plus, sys.f_minus, sys.g_plus, sys.g_minus)
    vals, odd = _grid_values(comps, nodes)
    inside = np.array(nodes) > 0.0
    inside = inside[:, None] & inside[None, :]
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(vals) | np.where(inside, ~(vals > 0.0), vals < 0.0)
    if not bad.any():
        return
    # first failure in label-major, then x, then y order: C order of vals
    k, i, j = np.unravel_index(np.argmax(bad), bad.shape)
    x, y = nodes[i], nodes[j]
    v = odd.get((k, i, j), float(vals[k, i, j]))
    where = f"{labels[k]}({x:g}, {y:g})"
    _refuse_odd(where, v)
    if not math.isfinite(v):
        raise ConstructionError(f"{where} is not finite: {v!r}")
    if x > 0.0 and y > 0.0:
        raise ConstructionError(f"{where} = {v!r} must be strictly positive inside the quadrant")
    raise ConstructionError(f"{where} = {v!r} must be non-negative on the quadrant boundary")


def _check_partials_consistency(sys: SplitSystem, rtol: float = 1e-5) -> None:
    # spot check on a coarse subgrid; the full-grid property lives in the tests
    nodes = np.linspace(0.0, sys.x_max, VALIDATION_GRID_N)[::7].tolist()
    analytic = tuple(getattr(sys.partials, f) for f in PartialValues._fields)
    comps = (sys.f_plus, sys.f_minus, sys.g_plus, sys.g_minus)
    ana, ana_odd = _grid_values(analytic, nodes)
    # the differences on the grid where every component passes the array
    # rule, else per node, where the refusal messages read them
    line = np.array(nodes)
    num = (_raising(_fd_on_arrays, sys.components, line[:, None], line[None, :])
           if all(map(_plain_arithmetic, comps)) else None)
    num, num_odd = (np.array(num), {}) if num is not None else _grid_values(
        [fd for comp in comps for fd in (partial(_fd_x, comp), partial(_fd_y, comp))], nodes)
    with np.errstate(invalid="ignore", over="ignore"):
        mismatch = np.abs(ana - num) > rtol * np.maximum(1.0, np.maximum(np.abs(ana), np.abs(num)))
    bad = ~np.isfinite(ana) | ~np.isfinite(num) | mismatch
    if not bad.any():
        return
    # first failure in x, then y, then field order
    i, j, k = np.unravel_index(np.argmax(bad.transpose(1, 2, 0)), bad.shape[1:] + bad.shape[:1])
    name = PartialValues._fields[k]
    at = f"{name}({nodes[i]:g}, {nodes[j]:g})"
    a = ana_odd.get((k, i, j), float(ana[k, i, j]))
    n = num_odd.get((k, i, j), float(num[k, i, j]))
    _refuse_odd(f"analytic partial {at}", a)
    if not math.isfinite(a):
        raise ConstructionError(f"analytic partial {at} is not finite: {a!r}")
    _refuse_odd(f"finite difference {at}", n)
    if not math.isfinite(n):
        raise ConstructionError(f"finite difference {at} is not finite: {n!r}")
    raise ConstructionError(
        f"analytic partial {at} = {a!r} disagrees with finite difference {n!r}"
    )


def _grid_values(fns, nodes):
    """Each of fns at every node (x, y) of nodes x nodes.

    Returns a (len(fns), n, n) float array indexed [fn, x, y], and a dict
    that holds, under the same index, whatever a call returned that was not
    a python float (an int, a complex) or any exception it raised.  The
    array holds such a value as a float, or nan if it is none.  Exceptions
    are kept rather than raised because only the first failing node, in
    each checker's own order, decides the verdict.

    Each fn that passes the array rule (`_kernels._on_arrays`) is called
    once on the whole grid, where every scalar call would return a python
    float with the same bits; every other fn is called once per node.
    """
    shape = (len(fns), len(nodes), len(nodes))
    vals = np.empty(shape)
    todo = []
    x, y = np.meshgrid(nodes, nodes, indexing="ij", sparse=True)
    for k, fn in enumerate(fns):
        v = _on_arrays(fn, x, y)
        if v is None:
            todo += itertools.product((k,), range(shape[1]), range(shape[2]))
        else:
            vals[k] = v  # broadcasts a constant, or a function of x alone
    odd = {}
    got = []
    for k, i, j in todo:
        try:
            v = fns[k](nodes[i], nodes[j])
        except Exception as exc:
            v = exc
        if type(v) is not float:
            odd[k, i, j] = v
            v = float(v) if isinstance(v, numbers.Real) else math.nan
        got.append(v)
    if got:
        vals[tuple(np.array(todo).T)] = got
    return vals, odd


def _refuse_odd(where: str, v) -> None:
    """Refuse what a call at a validation node gave instead of a real value.

    Any other exception (a TypeError from a malformed callable, say) is
    re-raised unchanged.
    """
    if isinstance(v, (ZeroDivisionError, OverflowError, ValueError)):
        raise ConstructionError(f"{where} raised {type(v).__name__}: {v}") from v
    if isinstance(v, Exception):
        raise v
    if isinstance(v, complex):
        raise ConstructionError(f"{where} = {v!r} is complex")


def _require_quadrant(state: State) -> None:
    if state.x < 0.0 or state.y < 0.0:
        raise DomainError(f"state ({state.x!r}, {state.y!r}) outside the closed quadrant")


def vector_field(system: SplitSystem, state: State):
    """Right-hand side (x*(f_plus - f_minus), y*(g_plus - g_minus)).

    Raises DomainError if the state leaves the closed positive quadrant.
    """
    _require_quadrant(state)
    fp, fm, gp, gm = system.components(state.x, state.y)
    return state.x * (fp - fm), state.y * (gp - gm)


def field_jacobian(system: SplitSystem, state: State) -> np.ndarray:
    """Jacobian of the vector field, using analytic partials when available."""
    x, y = state.x, state.y
    fp, fm, gp, gm = system.components(x, y)
    p = partials_at(system, x, y)
    return np.array(
        [
            [(fp - fm) + x * (p.fpx - p.fmx), x * (p.fpy - p.fmy)],
            [y * (p.gpx - p.gmx), (gp - gm) + y * (p.gpy - p.gmy)],
        ]
    )


# The two stencils, on python floats or numpy arrays alike.

def _central(hi, lo, step):
    return (hi - lo) / (2.0 * step)


def _one_sided(at, one, two, step):
    # second-order one-sided stencil; a forward difference is too crude for
    # steeply curved components near the axis
    return (-3.0 * at + 4.0 * one - two) / (2.0 * step)


def _fd_x(comp: Component, x: float, y: float) -> float:
    step = _FD_EPS * max(1.0, abs(x))
    if x >= step:
        return _central(comp(x + step, y), comp(x - step, y), step)
    return _one_sided(comp(x, y), comp(x + step, y), comp(x + 2.0 * step, y), step)


def _fd_y(comp: Component, x: float, y: float) -> float:
    step = _FD_EPS * max(1.0, abs(y))
    if y >= step:
        return _central(comp(x, y + step), comp(x, y - step), step)
    return _one_sided(comp(x, y), comp(x, y + step), comp(x, y + 2.0 * step), step)


def _fd_each(comp: Component, x, y, along_x: bool, dropped):
    """_fd_x (along_x) or _fd_y of comp at every element of the arrays x, y.

    comp is evaluated by `_kernels._each_of` (on the arrays where it
    passes the array rule, else once per point on python floats), and
    only at the points the scalar stencil of each element samples, in
    its order: never at x - step < 0, not after a call for that element
    has dropped, and not at the elements set in the mask dropped.  Returns
    the differences and that mask updated with the elements dropped here.
    """
    v = x if along_x else y
    # python's max(1.0, nan) is 1.0; np.maximum would give nan
    step = _FD_EPS * np.fmax(1.0, np.abs(v))
    central = v >= step

    def at(w, skip):  # comp at the elements not in skip, with v moved to w
        (vals,), drop = _each_of((comp,), w, y, skip) if along_x else _each_of((comp,), x, w, skip)
        return vals, drop

    # central: v + step, v - step; one-sided: v, v + step, v + 2 step
    one, dropped = at(np.where(central, v + step, v), dropped)
    two, dropped = at(np.where(central, v - step, v + step), dropped)
    three, drop = at(v + 2.0 * step, dropped | central)
    dropped |= drop & ~central
    out = np.where(central, _central(one, two, step), _one_sided(one, two, three, step))
    return out, dropped


def _fd_on_arrays(components, x, y) -> PartialValues:
    """_fd_x and _fd_y of the four components(x, y) at every element of
    the arrays x, y, broadcast together, in the bits of the scalar
    stencils: two calls, at all the x and at all the y stencil points,
    those a scalar stencil skips included.  Where every element takes the
    central stencil (every interior Newton seed), the calls take its two
    rows only.  So call it only for components that pass the array rule,
    under `_kernels._raising`."""
    diffs = []
    for along_x, v in ((True, x), (False, y)):
        step = _FD_EPS * np.fmax(1.0, np.abs(v))
        central = v >= step
        # central: v + step, v - step; one-sided: v, v + step, v + 2 step
        all_central = central.all()
        if all_central:
            at = np.stack((v + step, v - step))
        else:
            at = np.stack((np.where(central, v + step, v), np.where(central, v - step, v + step),
                           v + 2.0 * step))
        vals = components(at, y) if along_x else components(x, at)
        shape = np.broadcast_shapes(at.shape, np.shape(y if along_x else x))
        rows = (np.broadcast_to(c, shape) for c in vals)
        diffs.append([_central(one, two, step) for one, two in rows] if all_central else
                     [np.where(central, _central(one, two, step), _one_sided(one, two, three, step))
                      for one, two, three in rows])
    return PartialValues(*(d for pair in zip(*diffs) for d in pair))


def _numeric_partial_values(system: SplitSystem, x: float, y: float) -> PartialValues:
    return PartialValues(
        _fd_x(system.f_plus, x, y), _fd_y(system.f_plus, x, y),
        _fd_x(system.f_minus, x, y), _fd_y(system.f_minus, x, y),
        _fd_x(system.g_plus, x, y), _fd_y(system.g_plus, x, y),
        _fd_x(system.g_minus, x, y), _fd_y(system.g_minus, x, y),
    )


def numeric_partials(system: SplitSystem, state: State) -> PartialValues:
    """Finite-difference partials of all four components at a state.

    Central differences with step eps^(1/3) * max(1, |coordinate|); points
    closer to an axis than one step use a one-sided three-point stencil so
    the components are never sampled at negative coordinates.
    """
    _require_quadrant(state)
    return _numeric_partial_values(system, state.x, state.y)


def partials_at(system: SplitSystem, x: float, y: float) -> PartialValues:
    """Analytic partials when the system carries them, finite differences otherwise.

    At one point, on python floats.  The interior equilibrium search
    takes the same partials at all its seeds at once, in the same bits:
    on whole arrays where the callables pass the array rule (analytic, or
    `_fd_on_arrays`), else by `_partials_each`.
    """
    if system.partials is not None:
        return system.partials.at(x, y)
    return _numeric_partial_values(system, x, y)


def _partials_each(system: SplitSystem, xs, ys):
    """partials_at at each element of the arrays xs, ys.

    Every callable is evaluated by `_kernels._each_of`, in the order of
    the scalar calls, and not again at an element after one of them
    dropped it.  Returns PartialValues of arrays and the mask of
    elements dropped where a call raised ZeroDivisionError,
    OverflowError or ValueError or returned a complex value; those are
    nan throughout.
    """
    if system.partials is not None:
        analytic = [getattr(system.partials, f) for f in PartialValues._fields]
        vals, dropped = _each_of(analytic, xs, ys)
    else:
        vals, dropped = [], np.zeros(xs.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for comp in (system.f_plus, system.f_minus, system.g_plus, system.g_minus):
                for along_x in (True, False):
                    d, dropped = _fd_each(comp, xs, ys, along_x, dropped)
                    vals.append(d)
        vals = np.array(vals)
        vals[:, dropped] = np.nan
    return PartialValues(*vals), dropped


def make_rosenzweig_macarthur(
    a: float, b: float, c: float, d: float, name: "str | None" = None,
    x_max: float = X_MAX_DEFAULT,
) -> SplitSystem:
    """Predator-prey system with logistic prey growth and saturating predation.

    Split form:

        f_plus = b                    f_minus = b*x + a*y/(c + x)
        g_plus = x/(c + x)            g_minus = d

    All four parameters must be strictly positive.  The returned system
    carries analytic partials, evaluates its four components in one call
    (``components``), and is labelled with ``rma_params``, which only this
    sets.  Its twelve closures pass the array rule, so it runs on whole
    arrays, as a ``dataclasses.replace`` of it does, in the same bits.  The
    default name writes each parameter exactly (see _float_tag).
    """
    for label, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not (math.isfinite(v) and v > 0.0):
            raise ConstructionError(f"parameter {label} must be positive and finite, got {v!r}")
    a, b, c, d = float(a), float(b), float(c), float(d)

    def f_plus(x, y):
        return b

    def f_minus(x, y):
        return b * x + a * y / (c + x)

    def g_plus(x, y):
        return x / (c + x)

    def g_minus(x, y):
        return d

    zero = lambda x, y: 0.0
    partials = Partials(
        fpx=zero,
        fpy=zero,
        fmx=lambda x, y: b - a * y / ((c + x) * (c + x)),
        fmy=lambda x, y: a / (c + x),
        gpx=lambda x, y: c / ((c + x) * (c + x)),
        gpy=zero,
        gmx=zero,
        gmy=zero,
    )
    if name is None:
        name = "rma-" + "-".join(_float_tag(v) for v in (a, b, c, d))
    # the label and the fused closure go on before __init__, whose checks
    # then call the fused closure; "components" is an instance attribute,
    # so it shadows the method
    p = ModelParams(a, b, c, d)
    system = SplitSystem.__new__(SplitSystem)
    object.__setattr__(system, "rma_params", p)
    object.__setattr__(system, "components", _rma_components(p))
    system.__init__(f_plus, f_minus, g_plus, g_minus, partials=partials, name=name, x_max=x_max)
    return system


MODEL1_PARAMS = ModelParams(a=2.0, b=1.0, c=0.5, d=6.0)
MODEL2_PARAMS = ModelParams(a=2.0, b=1.0, c=1.0, d=0.2)


def model1() -> SplitSystem:
    """Strong-predation parameterisation: prey-only equilibrium attracts."""
    p = MODEL1_PARAMS
    return make_rosenzweig_macarthur(p.a, p.b, p.c, p.d, name="model1")


def model2() -> SplitSystem:
    """Weak-predation parameterisation with a stable coexistence point."""
    p = MODEL2_PARAMS
    return make_rosenzweig_macarthur(p.a, p.b, p.c, p.d, name="model2")


def from_selector(text: str) -> SplitSystem:
    """Build a system from a CLI-style selector.

    Accepted forms: "model1", "model2", or "rma:A,B,C,D" with four
    comma-separated parameter values.  Raises ValueError for a malformed
    selector and ConstructionError for valid syntax with bad parameters.
    """
    sel = text.strip().lower()
    if sel == "model1":
        return model1()
    if sel == "model2":
        return model2()
    if sel.startswith("rma:"):
        parts = sel[len("rma:"):].split(",")
        if len(parts) != 4:
            raise ValueError(f"expected rma:A,B,C,D, got {text!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"non-numeric parameter in {text!r}") from None
        return make_rosenzweig_macarthur(*vals)
    raise ValueError(f"unknown model selector {text!r}")
