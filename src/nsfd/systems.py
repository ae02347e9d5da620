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
eagerly on a sample grid instead of trusting the caller.  The checks,
like the finite differences on arrays (`_fd_on_arrays`, `_partials_on`),
evaluate a system's callables through an evaluator of nsfd._kernels: on
whole numpy grids where they pass its array rule and once per grid node
otherwise, with the same verdict and message either way.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._kernels import _DROPS, _Evaluator, _real

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
        OverflowError or ValueError, or returns a value that is not a real
        number (a complex, None, a str), at a node.  The message names the
        first failing node: components in field order, then x, then y for
        the sign check; x, then y, then PartialValues order for the
        partials.  Any other exception a call raises at that node
        propagates unchanged.
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
        overrides this method keeps its own, and the searches, orbits and
        closed forms call it once per point on python floats, its values
        checked: the array rule refuses it.
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
    # every call's raise is kept, not propagated: only the first failing
    # node, in field, then x, then y order, decides, with the value or
    # exception of its call, made again there
    calls = _Evaluator(sys)
    nodes = np.linspace(0.0, sys.x_max, VALIDATION_GRID_N)
    labels = ("f_plus", "f_minus", "g_plus", "g_minus")
    vals, _ = calls.each(calls.fields, nodes[:, None], nodes[None, :], catch=Exception)
    inside = nodes > 0.0
    inside = inside[:, None] & inside[None, :]
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(vals) | np.where(inside, ~(vals > 0.0), vals < 0.0)
    if not bad.any():
        return
    # first failure in label-major, then x, then y order: C order of vals
    k, i, j = np.unravel_index(np.argmax(bad), bad.shape)
    x, y = float(nodes[i]), float(nodes[j])
    where = f"{labels[k]}({x:g}, {y:g})"
    v = _node_value(where, calls.fields[k], x, y)
    if x > 0.0 and y > 0.0:
        raise ConstructionError(f"{where} = {v!r} must be strictly positive inside the quadrant")
    raise ConstructionError(f"{where} = {v!r} must be non-negative on the quadrant boundary")


def _check_partials_consistency(sys: SplitSystem, rtol: float = 1e-5) -> None:
    # spot check on a coarse subgrid; the full-grid property lives in the tests
    calls = _Evaluator(sys)
    nodes = np.linspace(0.0, sys.x_max, VALIDATION_GRID_N)[::7]
    analytic = tuple(getattr(sys.partials, f) for f in PartialValues._fields)
    ana, _ = calls.each(analytic, nodes[:, None], nodes[None, :], catch=Exception)
    num, _ = _fd_on_arrays(calls, nodes[:, None], nodes[None, :], catch=Exception)
    num = np.array(num)
    with np.errstate(invalid="ignore", over="ignore"):
        mismatch = np.abs(ana - num) > rtol * np.maximum(1.0, np.maximum(np.abs(ana), np.abs(num)))
    bad = ~np.isfinite(ana) | ~np.isfinite(num) | mismatch
    if not bad.any():
        return
    # the first failing node in x, then y order; there the calls run again,
    # in field order, analytic first, for the first failure and its message
    i, j = np.unravel_index(np.argmax(bad.any(axis=0)), bad.shape[1:])
    x, y = float(nodes[i]), float(nodes[j])
    # the stencils over the checked components, so a value that is not a
    # real number at a stencil point is refused as a ValueError
    numeric = [partial(fd, comp) for comp in map(calls.real, calls.fields)
               for fd in (_fd_x, _fd_y)]
    for name, ana_fn, num_fn in zip(PartialValues._fields, analytic, numeric):
        at = f"{name}({x:g}, {y:g})"
        a = _node_value(f"analytic partial {at}", ana_fn, x, y)
        n = _node_value(f"finite difference {at}", num_fn, x, y)
        if abs(a - n) > rtol * max(1.0, abs(a), abs(n)):
            raise ConstructionError(
                f"analytic partial {at} = {a!r} disagrees with finite difference {n!r}"
            )


def _node_value(where: str, fn, x: float, y: float):
    """fn(x, y) at a validation node, named where in the messages: refused
    with ConstructionError where the call raises ZeroDivisionError,
    OverflowError or ValueError or gives a value that is not a finite real
    number.  Any other exception (a TypeError from a malformed callable,
    say) propagates unchanged.
    """
    try:
        v = fn(x, y)
    except _DROPS as exc:
        raise ConstructionError(f"{where} raised {type(exc).__name__}: {exc}") from exc
    if not _real(v):
        kind = "complex" if isinstance(v, complex) else "not a real number"
        raise ConstructionError(f"{where} = {v!r} is {kind}")
    if not math.isfinite(v):
        raise ConstructionError(f"{where} is not finite: {v!r}")
    return v


def _require_quadrant(x: float, y: float) -> None:
    if x < 0.0 or y < 0.0:
        raise DomainError(f"state ({x!r}, {y!r}) outside the closed quadrant")


def vector_field(system: SplitSystem, state: State):
    """Right-hand side (x*(f_plus - f_minus), y*(g_plus - g_minus)).

    Raises DomainError if the state leaves the closed positive quadrant,
    and ValueError where a component gives a value that is not a real
    number.
    """
    _require_quadrant(state.x, state.y)
    fp, fm, gp, gm = _Evaluator(system).point_components()(state.x, state.y)
    return state.x * (fp - fm), state.y * (gp - gm)


def field_jacobian(system: SplitSystem, state: State) -> np.ndarray:
    """Jacobian of the vector field, using analytic partials when available.

    Raises DomainError if the state leaves the closed positive quadrant.
    """
    x, y = state.x, state.y
    fp, fm, gp, gm, _, fx, fy, gx, gy = _point_values(system, x, y)
    return np.array([[(fp - fm) + x * fx, x * fy], [y * gx, (gp - gm) + y * gy]])


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


def _fd_on_arrays(calls, x, y, catch=_DROPS):
    """_numeric_partial_values at every element of the float arrays x, y,
    broadcast together, in the bits of the scalar stencils, and the mask
    of the elements dropped, nan throughout, where a call raised one of
    catch or returned a value that is not a real number.

    calls, the operation's `_kernels._Evaluator`, evaluates each component
    in turn at its stencil points along x, then along y, as _fd_x and _fd_y
    do, and only at the points they sample: two rows per axis where every
    element takes the central stencil (every interior Newton seed), else
    three, the third at the one-sided elements only.
    """
    shape = np.broadcast(x, y).shape
    stencils, px, py = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for along_x, v in ((True, x), (False, y)):
            # python's max(1.0, nan) is 1.0; np.maximum would give nan
            step = _FD_EPS * np.fmax(1.0, np.abs(v))
            central = v >= step
            # central: v + step, v - step; one-sided: v, v + step, v + 2 step
            rows = [v + step, v - step] if central.all() else [
                np.where(central, v + step, v), np.where(central, v - step, v + step),
                v + 2.0 * step]
            stencils.append((step, central, len(rows)))
            px += rows if along_x else [x] * len(rows)
            py += [y] * len(rows) if along_x else rows
    # the third row of an axis is called at its one-sided elements only
    skip = np.zeros((len(px),) + shape, dtype=bool)
    end = 0
    for step, central, n in stencils:
        end += n
        if n == 3:
            skip[end - 1] = central
    vals, dropped = calls.each(calls.fields, np.stack(px), np.stack(py),
                               np.zeros(shape, dtype=bool), skip, catch)
    if dropped.any():
        vals[:, :, dropped] = np.nan
    diffs = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for comp in vals:
            i = 0
            for step, central, n in stencils:
                one, two, *three = comp[i:i + n]
                i += n
                diffs.append(np.where(central, _central(one, two, step),
                                      _one_sided(one, two, *three, step))
                             if three else _central(one, two, step))
    return PartialValues(*diffs), dropped


def _numeric_partial_values(system: SplitSystem, x: float, y: float) -> PartialValues:
    # the stencils of each component in turn, along x, then along y, over
    # its checked form on python floats
    calls = _Evaluator(system)
    return PartialValues(*(fd(comp, x, y) for comp in map(calls.real, calls.fields)
                           for fd in (_fd_x, _fd_y)))


def numeric_partials(system: SplitSystem, state: State) -> PartialValues:
    """Finite-difference partials of all four components at a state.

    Central differences with step eps^(1/3) * max(1, |coordinate|); points
    closer to an axis than one step use a one-sided three-point stencil so
    the components are never sampled at negative coordinates.  Raises
    DomainError outside the closed quadrant, and ValueError where a
    component gives a value that is not a real number.
    """
    _require_quadrant(state.x, state.y)
    return _numeric_partial_values(system, state.x, state.y)


def partials_at(system: SplitSystem, x: float, y: float) -> PartialValues:
    """Analytic partials when the system carries them, finite differences otherwise.

    At one point, on python floats, raising ValueError where a call gives
    a value that is not a real number.  The interior equilibrium search
    takes the same partials at all its seeds at once, in the same bits
    (`_partials_on`).
    """
    if system.partials is None:
        return _numeric_partial_values(system, x, y)
    real = _Evaluator(system).real
    return PartialValues(*(real(getattr(system.partials, f))(x, y) for f in PartialValues._fields))


def _point_values(system: SplitSystem, x: float, y: float):
    """Everything a closed form at the point (x, y) reads, from one
    evaluation: (fp, fm, gp, gm, p, fx, fy, gx, gy), the four components,
    their partials p (partials_at) and the balance slopes fx = fpx - fmx,
    fy = fpy - fmy, gx = gpx - gmx and gy = gpy - gmy.

    field_jacobian and every closed form of nsfd.equilibria (eigenvalues,
    multipliers, map Jacobian, critical step) read it, and a stability
    report evaluates each point once for all of them.  Raises DomainError
    for a point outside the closed quadrant, and ValueError (the
    evaluator's _NotReal) where a call gives a value that is not a real
    number.
    """
    _require_quadrant(x, y)
    fp, fm, gp, gm = _Evaluator(system).point_components()(x, y)
    p = partials_at(system, x, y)
    return fp, fm, gp, gm, p, p.fpx - p.fmx, p.fpy - p.fmy, p.gpx - p.gmx, p.gpy - p.gmy


def _partials_on(system: SplitSystem, calls, x, y):
    """partials_at at every element of the float arrays x, y, in its bits,
    evaluated by calls, the operation's `_kernels._Evaluator`.  Returns
    PartialValues of arrays and the mask of the elements dropped, nan
    throughout, where a call raised ZeroDivisionError, OverflowError or
    ValueError or returned a value that is not a real number.
    """
    if system.partials is None:
        return _fd_on_arrays(calls, x, y)
    analytic = [getattr(system.partials, f) for f in PartialValues._fields]
    vals, dropped = calls.each(analytic, x, y)
    if dropped.any():
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
