"""Integrators for split systems: `integrate` for orbits, `step` for one step.

The denominator-weighted schemes (nsfd, ensfd) update each coordinate
through

    x_next = x * (1 + e * f_plus) / (1 + e * f_minus)

with e = h for the plain scheme and e = phi(h) for a weighted one.  From a
state in the closed positive quadrant the update can never leave it, for
any step size, and its fixed points are exactly the equilibria of the flow.
Euler, explicit midpoint (rk2) and classical rk4 are provided as references
and deliberately do nothing to protect the quadrant: negative excursions
are data, not errors, and only a non-finite state stops integration early.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .systems import SplitSystem, State, _float_tag, _require_quadrant

# the denominator-weighted kinds, which keep the quadrant; the rest are classical
_WEIGHTED_KINDS = ("nsfd", "ensfd")
SCHEME_KINDS = (*_WEIGHTED_KINDS, "euler", "rk2", "rk4")

# Most steps one integrate call takes: 24 bytes of arrays each, 2.4 GB in all.
MAX_STEPS = 100_000_000

CSV_HEADER = "k,t,x,y"


class NonFiniteError(ArithmeticError):
    """A step that `integrate` would halt on: a stage raised, or the result
    is non-finite or complex."""


@dataclass(frozen=True)
class StepWeight:
    """Denominator weight phi with phi(h) = h + O(h^2) and phi(h) > 0 for h > 0."""

    name: str
    phi: Callable[[float], float]


IDENTITY = StepWeight("identity", lambda h: h)


def exponential_weight(lam: float) -> StepWeight:
    """phi(h) = (1 - exp(-lam*h)) / lam.

    Behaves like h for small steps but saturates at 1/lam, which damps the
    effective step of the weighted scheme for large h.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"weight rate must be positive and finite, got {lam!r}")
    lam = float(lam)
    # expm1 avoids the 1 - exp(-x) cancellation for tiny steps
    return StepWeight(f"exp:{_float_tag(lam)}", lambda h: -math.expm1(-lam * h) / lam)


def weight_from_name(text: str) -> StepWeight:
    """Parse "identity" or "exp:LAMBDA" (CLI --weight syntax)."""
    sel = text.strip().lower()
    if sel == "identity":
        return IDENTITY
    if sel.startswith("exp:"):
        try:
            lam = float(sel[len("exp:"):])
        except ValueError:
            raise ValueError(f"bad weight rate in {text!r}") from None
        return exponential_weight(lam)
    raise ValueError(f"unknown weight {text!r}; expected identity or exp:LAMBDA")


@dataclass(frozen=True)
class SchemeId:
    """Scheme selector: kind plus, for "ensfd", the step weight."""

    kind: str
    weight: "StepWeight | None" = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "ensfd" and self.weight is None:
            raise ValueError("ensfd needs a StepWeight")
        if self.kind != "ensfd" and self.weight is not None:
            raise ValueError(f"scheme {self.kind!r} does not take a weight")


NSFD = SchemeId("nsfd")
EULER = SchemeId("euler")
RK2 = SchemeId("rk2")
RK4 = SchemeId("rk4")


def ensfd(weight: StepWeight) -> SchemeId:
    return SchemeId("ensfd", weight)


def scheme_from_name(name: str, weight: "StepWeight | None" = None) -> SchemeId:
    sel = name.strip().lower()
    if sel == "ensfd":
        return ensfd(weight if weight is not None else IDENTITY)
    if weight is not None and weight is not IDENTITY:
        raise ValueError(f"--weight only applies to the ensfd scheme, not {name!r}")
    return SchemeId(sel)


def _require_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size must be positive and finite, got {h!r}")


def _require_t_end(t0: float, t_end: float) -> None:
    if not (math.isfinite(t_end) and t_end > t0):
        raise ValueError(f"t_end {t_end!r} must exceed the initial time {t0!r}")


def effective_step(scheme: SchemeId, h: float) -> float:
    """The step a scheme's update takes at step size h: e = phi(h) for ensfd,
    h for the rest.  Refuses a step size that is not positive and finite."""
    _require_step(h)
    if scheme.weight is None:
        return float(h)
    e = float(scheme.weight.phi(h))
    if not (math.isfinite(e) and e > 0.0):
        raise ValueError(f"weight {scheme.weight.name} gave non-positive phi({h!r}) = {e!r}")
    return e


# The scheme steps.  Each factory binds a system's `components` and the
# scheme's last argument once and returns step(x, y), which makes one
# components call per stage: one per step for nsfd/ensfd and euler, two for
# rk2 and four for rk4.  The same steps run on python floats in the
# stepping loop and on numpy arrays in the Newton scans; this is the one
# place each scheme's arithmetic is written.

def _nsfd_step(components, e: float):
    def step(x, y):
        fp, fm, gp, gm = components(x, y)
        return x * (1.0 + e * fp) / (1.0 + e * fm), y * (1.0 + e * gp) / (1.0 + e * gm)
    return step


def _euler_step(components, h: float):
    def step(x, y):
        fp, fm, gp, gm = components(x, y)
        return x + h * (x * (fp - fm)), y + h * (y * (gp - gm))
    return step


def _rk2_step(components, h: float):
    def step(x, y):
        fp, fm, gp, gm = components(x, y)
        u, v = x + 0.5 * h * (x * (fp - fm)), y + 0.5 * h * (y * (gp - gm))
        fp, fm, gp, gm = components(u, v)
        return x + h * (u * (fp - fm)), y + h * (v * (gp - gm))
    return step


def _rk4_step(components, h: float):
    def step(x, y):
        fp, fm, gp, gm = components(x, y)
        k1x, k1y = x * (fp - fm), y * (gp - gm)
        u, v = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        fp, fm, gp, gm = components(u, v)
        k2x, k2y = u * (fp - fm), v * (gp - gm)
        u, v = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        fp, fm, gp, gm = components(u, v)
        k3x, k3y = u * (fp - fm), v * (gp - gm)
        u, v = x + h * k3x, y + h * k3y
        fp, fm, gp, gm = components(u, v)
        k4x, k4y = u * (fp - fm), v * (gp - gm)
        return (
            x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        )
    return step


_CLASSICAL_STEPS = {"euler": _euler_step, "rk2": _rk2_step, "rk4": _rk4_step}


def _scheme_core(scheme: SchemeId, h: float):
    """The scheme's step factory and its last argument, effective_step(scheme, h):
    make(components, e) is the step (x, y) -> (x', y') of a system with
    those components."""
    make = _nsfd_step if scheme.kind in _WEIGHTED_KINDS else _CLASSICAL_STEPS[scheme.kind]
    return make, effective_step(scheme, h)


def step(system: SplitSystem, scheme: SchemeId, state: State, h: float) -> State:
    """One step of size h of any scheme: `integrate`'s first step, in its
    bits, as python floats.

    Raises ValueError for a step size that is not positive and finite,
    DomainError for nsfd/ensfd from outside the closed quadrant, and
    NonFiniteError wherever `integrate` would halt.
    """
    make, e = _scheme_core(scheme, h)
    if scheme.kind in _WEIGHTED_KINDS:
        _require_quadrant(state)
    xs, ys, m = _kernels._step_loop(make(system.components, e), state.x, state.y, 1)
    if m == 1:
        raise NonFiniteError(f"{scheme.kind} step of h={h!r} from ({state.x!r}, {state.y!r}) "
                             f"at t={state.t!r} gives no finite real state")
    return State(float(xs[1]), float(ys[1]), state.t + h)


def step_count(t0: float, t_end: float, h: float) -> int:
    """Number of whole steps covering [t0, t_end]; no partial final step.

    Ratios within 1e-9 of the next integer round up, so t_end = 5, h = 0.1
    gives exactly 50 steps despite 5/0.1 rounding below 50 in floats.  A
    ratio that overflows to inf is refused with the MAX_STEPS ValueError.
    """
    r = (t_end - t0) / h
    if math.isinf(r):  # math.floor would raise OverflowError
        raise ValueError(f"{r} steps of h={h!r} to t_end={t_end!r} exceed MAX_STEPS = {MAX_STEPS}")
    n = math.floor(r)
    if r - n > 1.0 - 1e-9:
        n += 1
    return n


# one CSV row; 17 significant digits read back as exactly the same float
_CSV_ROW = "%d,%.17g,%.17g,%.17g\n"
# rows formatted by one % on a repeated template
_CSV_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A computed orbit on the uniform grid t_k = t0 + k*h.

    xs/ys/ts hold only finite states.  If the scheme left the finite range,
    halt_step is the grid index of the first non-finite state (which is not
    stored) and halt_reason says why integration stopped.
    """

    scheme: SchemeId
    h: float
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    requested_steps: int
    halt_step: "int | None" = None
    halt_reason: "str | None" = None

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def truncated(self) -> bool:
        return self.halt_step is not None

    @property
    def states(self) -> "list[State]":
        return [State(float(x), float(y), float(t))
                for x, y, t in zip(self.xs, self.ys, self.ts)]

    def state(self, k: int) -> State:
        return State(float(self.xs[k]), float(self.ys[k]), float(self.ts[k]))

    def final(self) -> State:
        return self.state(len(self.ts) - 1)

    def _csv_blocks(self):
        # the header, then the rows in blocks of _CSV_BLOCK, each block one
        # % on a repeated template with the row fields interleaved
        yield CSV_HEADER + "\n"
        n = len(self.ts)
        for a in range(0, n, _CSV_BLOCK):
            b = min(a + _CSV_BLOCK, n)
            fields = [None] * (4 * (b - a))
            fields[0::4] = range(a, b)
            fields[1::4] = self.ts[a:b].tolist()
            fields[2::4] = self.xs[a:b].tolist()
            fields[3::4] = self.ys[a:b].tolist()
            yield _CSV_ROW * (b - a) % tuple(fields)

    def to_csv(self) -> str:
        return "".join(self._csv_blocks())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(self._csv_blocks())


def integrate(system: SplitSystem, scheme: SchemeId, s0: State, h: float,
              t_end: float) -> Trajectory:
    """Run a scheme from s0 to t_end with fixed step h.

    The step count is floor((t_end - t0)/h); a trailing fraction of a step
    is never taken.  Every system runs the one stepping loop of
    nsfd._kernels over the scheme's step, bound once per run to the
    system's components and to e (or h), so a step costs one python call
    plus its arithmetic and component calls (per-step rates in the README,
    Backends).

    Raises ValueError for a non-finite initial state and for a step count
    above MAX_STEPS, before allocating anything.  A step that raises
    ZeroDivisionError, OverflowError or ValueError (a math domain error in
    a component evaluated off the quadrant) or yields a non-finite or
    complex state halts the run with halt_reason "nonfinite".
    """
    make, e = _scheme_core(scheme, h)
    if not (math.isfinite(s0.x) and math.isfinite(s0.y) and math.isfinite(s0.t)):
        raise ValueError(f"initial state ({s0.x!r}, {s0.y!r}) at t={s0.t!r} is not finite")
    _require_t_end(s0.t, t_end)
    if scheme.kind in _WEIGHTED_KINDS:
        _require_quadrant(s0)
    n = step_count(s0.t, t_end, h)
    if n > MAX_STEPS:
        raise ValueError(f"{n} steps of h={h!r} to t_end={t_end!r} exceed MAX_STEPS = {MAX_STEPS}")
    xs, ys, m = _kernels.run_trajectory(system, make, s0.x, s0.y, e, n)
    ts = s0.t + h * np.arange(m)
    halt_step = None if m == n + 1 else m
    halt_reason = None if halt_step is None else "nonfinite"
    return Trajectory(scheme, float(h), ts, xs, ys, requested_steps=n,
                      halt_step=halt_step, halt_reason=halt_reason)
