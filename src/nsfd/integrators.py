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
    """A step that `integrate` would halt on: a stage raised, a component
    gave a value that is not a real number, or the result is non-finite."""


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
    NonFiniteError wherever `integrate` would halt: a stage raised, a
    component gave a value that is not a real number, or the state is
    non-finite.
    """
    make, e = _scheme_core(scheme, h)
    if scheme.kind in _WEIGHTED_KINDS:
        _require_quadrant(state.x, state.y)
    xs, ys, m = _kernels.run_trajectory(system, make, state.x, state.y, e, 1)
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
# rows formatted by one pass of whole-array work; larger blocks are no
# faster and hold more memory at once
_CSV_BLOCK = 512

# The text of the rows is made with numpy.  A row whose t, x and y all have
# magnitudes in [_TEXT_LO, 1e17), _TEXT_LO the least double not below
# 1e-11, is laid out in uint32 words of four ASCII bytes, at fixed places
# padded with NUL bytes, which one bytes.translate deletes.  Every other row
# (one with a tiny, a huge or a non-finite value) is formatted by _CSV_ROW.
#
# %.17g writes D, the 17 significant digits of |v| rounded half to even, and
# K, the decimal exponent of the rounded value: in fixed notation for
# -4 <= K < 17, else as d.ddd...e-XX, with trailing zeros dropped, and the
# point too when nothing follows it.  With |v| = M * 2**(e - 53), M < 2**53,
# and p = 16 - K <= 27, D = round(M * 5**p / 2**(53 - e - p)); 5**p < 2**63,
# so the product is exact in two uint64 halves.
_K_MIN = -11


def _decade_start(k):
    # the least double not below 10**k: |v| >= 10**k exactly when |v| >= it
    t = float(f"1e{k}")
    num, den = t.as_integer_ratio()
    return math.nextafter(t, math.inf) if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0) else t


# _DECADES[i] starts the decade K = _K_MIN + i
_DECADES = np.array([_decade_start(k) for k in range(_K_MIN, 18)])
_TEXT_LO, _TEXT_HI = _DECADES[0], _DECADES[-1]
_POW5 = np.array([5 ** p for p in range(28)], dtype=np.uint64)
_ONE, _HALF_BITS, _LOW_BITS = np.uint64(1), np.uint64(32), np.uint64(0xFFFFFFFF)


def _words(text):
    # bytes, four to a word, as native uint32
    return np.frombuffer(text, np.uint8).view(np.uint32)


def _chunk_tables():
    # the digits of 0000 .. 9999 as words, then the leading digits 0 .. 9 as
    # NUL NUL NUL d; and the trailing zero digits of 0000 .. 9999
    digits = np.arange(48, 58, dtype=np.uint8)
    text = np.zeros((10010, 4), np.uint8)
    grid = text[:10000].reshape(10, 10, 10, 10, 4)
    grid[..., 0] = digits[:, None, None, None]
    grid[..., 1] = digits[:, None, None]
    grid[..., 2] = digits[:, None]
    grid[..., 3] = digits
    text[10000:, 3] = digits
    zeros = np.zeros((10, 10, 10, 10), np.int64)
    zeros[:, :, :, 0] = 1
    zeros[:, :, 0, 0] = 2
    zeros[:, 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    return text.view(np.uint32).ravel(), zeros.ravel()


_CHUNK, _CHUNK_ZEROS = _chunk_tables()
# _FIRST_DIGITS[j] masks the first j of D's 17 digits in its five words: the
# lead word, whose digit is its last byte, and four chunks of four
_FIRST_DIGITS = _words(b"".join(b"\xff" * (j + 3) + b"\0" * (17 - j) for j in range(18))).reshape(18, 5)
# _FIRST_BYTES[j] masks the first j bytes of three words
_FIRST_BYTES = _words(b"".join(b"\xff" * j + b"\0" * (12 - j) for j in range(12))).reshape(12, 3)


def _exponent_words():
    # words of the layout that depend on K alone, one row per K: the head
    # (the comma, and "0." below 1 in fixed notation), the zeros after that
    # point, the point of every other layout and the exponent suffix; and
    # the number of D's digits before the point
    words, before = [], []
    for k in range(_K_MIN, 17):
        small = -4 <= k < 0
        words.append((b",\0" + (b"0." if small else b"\0\0"))
                     + (b"0" * (-k - 1) if small else b"").ljust(4, b"\0")
                     + (b"\0" if small else b".").ljust(4, b"\0")
                     + (b"e-%02d" % -k if k < -4 else b"\0" * 4))
        before.append(0 if small else 1 if k < -4 else k + 1)
    return _words(b"".join(words)).reshape(-1, 4), np.array(before)


_BY_EXPONENT, _BEFORE_POINT = _exponent_words()
_MINUS, _NEWLINE = _words(b"\0-\0\0\n\0\0\0")
_VALUE_WORDS = 11


def _product(M, q):
    # M * q, for M < 2**58 and q < 2**63, as hi * 2**64 + lo in uint64s
    mh, ml, qh, ql = M >> _HALF_BITS, M & _LOW_BITS, q >> _HALF_BITS, q & _LOW_BITS
    low = ml * ql
    mid = mh * ql + ml * qh
    hi = mh * qh + (mid >> _HALF_BITS) + (((low >> _HALF_BITS) + (mid & _LOW_BITS)) >> _HALF_BITS)
    return hi, low + (mid << _HALF_BITS)


def _digits(a):
    """D and K of each a in [_TEXT_LO, _TEXT_HI): a's 17 significant digits
    rounded half to even, D in [10**16, 10**17), and a's decimal exponent."""
    m, e = np.frexp(a)
    # a lies in [2**(e-1), 2**e), which spans at most two decades
    k = np.floor((e - 1) * math.log10(2.0)).astype(np.int64)
    k = np.where(a >= _DECADES.take(k + (1 - _K_MIN)), k + 1, k)
    # D = round(M * 5**p / 2**s); where s < 1 (K >= 15), M is shifted left
    # instead, which leaves the quotient exact
    s = 53 - e - (16 - k)
    M = (m * 2.0 ** 53).astype(np.uint64) << np.maximum(1 - s, 0).astype(np.uint64)
    s = np.maximum(s, 1).astype(np.uint64)
    hi, lo = _product(M, _POW5.take(16 - k))
    d = (hi << (np.uint64(64) - s)) | (lo >> s)
    # round half to even: up when the rest is above half, or half and d odd
    lo &= (_ONE << s) - _ONE
    lo += d & _ONE
    d += lo > (_ONE << (s - _ONE))
    # D < 10**17: the double below each power of ten in the range differs
    # from it in 17 digits, so rounding never carries into the next decade
    return d.astype(np.int64), k


def _digit_words(d):
    """The five words of D's digits, and the number of D's digits through
    its last nonzero one."""
    # indices into _CHUNK: D's leading digit, then four chunks of four
    idx = np.empty(d.shape + (5,), np.int64)
    lead, rest = np.divmod(d, 10 ** 16)
    idx[..., 0] = lead + 10000
    high, low = np.divmod(rest, 10 ** 8)
    idx[..., 1], idx[..., 2] = np.divmod(high, 10 ** 4)
    idx[..., 3], idx[..., 4] = np.divmod(low, 10 ** 4)
    # trailing zeros of D: the chunks' own, read from the last chunk back
    zeros = _CHUNK_ZEROS.take(idx[..., 1:])
    tz = zeros[..., 3]
    for j in (2, 1, 0):
        tz = np.where(tz == 12 - 4 * j, tz + zeros[..., j], tz)
    return _CHUNK.take(idx), 17 - tz


def _value_words(v, out):
    """Write the text ",%.17g" % x of each x of v, whose magnitudes lie in
    [_TEXT_LO, _TEXT_HI), to out[..., :_VALUE_WORDS] as NUL-padded words."""
    d, k = _digits(np.abs(v))
    digits, nonzero = _digit_words(d)
    k -= _K_MIN
    # keep the digits through the last nonzero one, and all before the point
    before = _BEFORE_POINT.take(k)
    keep = np.maximum(nonzero, before)
    digits &= _FIRST_DIGITS.take(keep, axis=0)
    whole = digits & _FIRST_DIGITS.take(before, axis=0)
    digits ^= whole
    fixed = _BY_EXPONENT.take(k, axis=0)
    out[..., 0] = fixed[..., 0] | whole[..., 0] | _MINUS * np.signbit(v)
    out[..., 1:5] = whole[..., 1:]
    out[..., 5] = fixed[..., 1] | digits[..., 0] | fixed[..., 2] * (keep > before)
    out[..., 6:10] = digits[..., 1:]
    out[..., 10] = fixed[..., 3]


def _csv_text(start, ts, xs, ys):
    """The _CSV_ROW text of rows start, start + 1, ..., as bytes."""
    n = len(ts)
    vals = np.stack((ts, xs, ys), axis=1)
    fast = ((np.abs(vals) >= _TEXT_LO) & (np.abs(vals) < _TEXT_HI)).all(axis=1)
    vals[~fast] = 1.0  # a stand-in, overwritten below
    words = np.empty((n, 4 + 3 * _VALUE_WORDS), np.uint32)
    # the row index as twelve digits, less its leading zeros
    ks = np.arange(start, start + n)
    lead = (ks[:, None] < 10 ** np.arange(1, 12)).sum(axis=1)
    words[:, :3] = (_CHUNK.take(ks[:, None] // np.array([10 ** 8, 10 ** 4, 1]) % 10 ** 4)
                    & ~_FIRST_BYTES.take(lead, axis=0))
    _value_words(vals, words[:, 3:-1].reshape(n, 3, _VALUE_WORDS))
    words[:, -1] = _NEWLINE
    text = words.view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        row = np.frombuffer((_CSV_ROW % (start + i, ts[i], xs[i], ys[i])).encode(), np.uint8)
        text[i, :len(row)] = row
        text[i, len(row):] = 0
    return text.tobytes().translate(None, b"\0")


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
        # the header, then the rows in blocks of _CSV_BLOCK, as bytes
        yield (CSV_HEADER + "\n").encode()
        n = len(self.ts)
        for a in range(0, n, _CSV_BLOCK):
            b = min(a + _CSV_BLOCK, n)
            yield _csv_text(a, self.ts[a:b], self.xs[a:b], self.ys[a:b])

    def to_csv(self) -> str:
        """The orbit as CSV text: the header "k,t,x,y", then one row
        "%d,%.17g,%.17g,%.17g\\n" % (k, t, x, y) per state, whose 17
        significant digits read back as the same floats.

        The rows are made with numpy, a block at a time.  A row whose
        t, x or y is non-finite or has a magnitude below 1e-11 (zero and
        the subnormals among them) or of 1e17 or more is formatted by that
        % template itself; every row has the template's exact text.
        """
        return b"".join(self._csv_blocks()).decode("ascii")

    def write_csv(self, path) -> None:
        """Write `to_csv`'s text to path, block by block, so a long orbit's
        text is never held whole."""
        with open(path, "wb") as fh:
            fh.writelines(self._csv_blocks())


def integrate(system: SplitSystem, scheme: SchemeId, s0: State, h: float,
              t_end: float) -> Trajectory:
    """Run a scheme from s0 to t_end with fixed step h.

    The step count is floor((t_end - t0)/h); a trailing fraction of a step
    is never taken.  Every system runs the one stepping loop of
    nsfd._kernels over the scheme's step, bound once per run to the
    system's components, as its evaluator checks them, and to e (or h), so
    a step costs one python call plus its arithmetic and component calls
    (per-step rates in the README, Backends).

    Raises ValueError for a non-finite initial state and for a step count
    above MAX_STEPS, before allocating anything.  A step that raises
    ZeroDivisionError, OverflowError or ValueError (a math domain error in
    a component evaluated off the quadrant), where a component gives a
    value that is not a real number (a complex, None, a str, a numpy
    array), or that yields a non-finite state halts the run with
    halt_reason "nonfinite".
    """
    make, e = _scheme_core(scheme, h)
    if not (math.isfinite(s0.x) and math.isfinite(s0.y) and math.isfinite(s0.t)):
        raise ValueError(f"initial state ({s0.x!r}, {s0.y!r}) at t={s0.t!r} is not finite")
    _require_t_end(s0.t, t_end)
    if scheme.kind in _WEIGHTED_KINDS:
        _require_quadrant(s0.x, s0.y)
    n = step_count(s0.t, t_end, h)
    if n > MAX_STEPS:
        raise ValueError(f"{n} steps of h={h!r} to t_end={t_end!r} exceed MAX_STEPS = {MAX_STEPS}")
    xs, ys, m = _kernels.run_trajectory(system, make, s0.x, s0.y, e, n)
    ts = s0.t + h * np.arange(m)
    halt_step = None if m == n + 1 else m
    halt_reason = None if halt_step is None else "nonfinite"
    return Trajectory(scheme, float(h), ts, xs, ys, requested_steps=n,
                      halt_step=halt_step, halt_reason=halt_reason)
