"""Integrators for split systems: `integrate` for orbits, `step` for one step.

The denominator-weighted schemes (nsfd, ensfd) update each coordinate
through

    x_next = x * (1 + e * f_plus) / (1 + e * f_minus)

with e = h for the plain scheme and e = phi(h) for a weighted one.  From a
state in the closed positive quadrant the update can never leave it, for
any step size, and its fixed points are exactly the equilibria of the flow.
A stable equilibrium on an axis keeps its stability for every step where
s + 2 f_plus >= 0 there, with s = x * (d f_plus/dx - d f_minus/dx) at a
prey-only point (g and y in place of f and x at a predator-only point),
as in the Rosenzweig-MacArthur family, whose f_plus is constant; where
s + 2 f_plus < 0 its multiplier 1 + e s / (1 + e f_plus) passes -1 at
e = -2 / (s + 2 f_plus), and the point is unstable beyond it.
Euler, explicit midpoint (rk2) and classical rk4 are provided as references
and deliberately do nothing to protect the quadrant: negative excursions
are data, not errors, and only a non-finite state stops integration early.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .systems import (SplitSystem, State, _float_tag, _positive_finite, _real_value,
                      _require_quadrant)

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
    rate = _positive_finite(lam)
    if rate is None:
        raise ValueError(f"weight rate must be positive and finite, got {lam!r}")
    # expm1 avoids the 1 - exp(-x) cancellation for tiny steps
    return StepWeight(f"exp:{_float_tag(rate)}", lambda h: -math.expm1(-rate * h) / rate)


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


def _require_step(h: float) -> float:
    # h as a float: a real number, not a bool, positive and finite
    step = _positive_finite(h)
    if step is None:
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    return step


def _require_t_end(t0: float, t_end: float) -> None:
    end = _real_value(t_end)
    if end is None or not (math.isfinite(end) and end > t0):
        raise ValueError(f"t_end {t_end!r} must exceed the initial time {t0!r}")


def effective_step(scheme: SchemeId, h: float) -> float:
    """The step a scheme's update takes at step size h: e = phi(h) for ensfd,
    h for the rest.  Refuses a step size that is not positive and finite."""
    h = _require_step(h)
    if scheme.weight is None:
        return h
    e = float(scheme.weight.phi(h))
    if not (math.isfinite(e) and e > 0.0):
        raise ValueError(f"weight {scheme.weight.name} gave non-positive phi({h!r}) = {e!r}")
    return e


# The scheme steps, each scheme's arithmetic written once: statements that
# take the state (x, y) to the next one, over e (h for the classical
# schemes), with one line "fp, fm, gp, gm = components(u, v)" per stage:
# one per step for nsfd/ensfd and euler, two for rk2 and four for rk4.
# nsfd._kernels compiles a text into the stepping loop of the orbits and
# into the step the ghost scans run on numpy arrays and python floats, each
# stage's components written inline where they pass the array rule and
# called where they do not; make(components, e) runs it over the given
# components.  nsfd and ensfd share one step.

_NSFD_STEP = _kernels._Step("""\
fp, fm, gp, gm = components(x, y)
x, y = x * (1.0 + e * fp) / (1.0 + e * fm), y * (1.0 + e * gp) / (1.0 + e * gm)
""")

_STEPS = {
    "nsfd": _NSFD_STEP,
    "ensfd": _NSFD_STEP,
    "euler": _kernels._Step("""\
fp, fm, gp, gm = components(x, y)
x, y = x + e * (x * (fp - fm)), y + e * (y * (gp - gm))
"""),
    "rk2": _kernels._Step("""\
fp, fm, gp, gm = components(x, y)
u, v = x + 0.5 * e * (x * (fp - fm)), y + 0.5 * e * (y * (gp - gm))
fp, fm, gp, gm = components(u, v)
x, y = x + e * (u * (fp - fm)), y + e * (v * (gp - gm))
"""),
    "rk4": _kernels._Step("""\
fp, fm, gp, gm = components(x, y)
k1x, k1y = x * (fp - fm), y * (gp - gm)
u, v = x + 0.5 * e * k1x, y + 0.5 * e * k1y
fp, fm, gp, gm = components(u, v)
k2x, k2y = u * (fp - fm), v * (gp - gm)
u, v = x + 0.5 * e * k2x, y + 0.5 * e * k2y
fp, fm, gp, gm = components(u, v)
k3x, k3y = u * (fp - fm), v * (gp - gm)
u, v = x + e * k3x, y + e * k3y
fp, fm, gp, gm = components(u, v)
k4x, k4y = u * (fp - fm), v * (gp - gm)
x, y = (x + e / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        y + e / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y))
"""),
}


def _scheme_core(scheme: SchemeId, h: float):
    """The scheme's step and its last argument, effective_step(scheme, h):
    make(components, e) is the step (x, y) -> (x', y') of a system with
    those components."""
    return _STEPS[scheme.kind], effective_step(scheme, h)


# the t_end of `step`'s orbit: one step, from any time
_ONE_STEP = object()


def _checked_orbit(scheme: SchemeId, s0: State, h: float, t_end=_ONE_STEP):
    """The checks of an orbit, before anything is allocated: the step size
    and weight (`_scheme_core`), a finite real start, a t_end past its
    time, the closed quadrant for nsfd/ensfd (DomainError) and at most
    MAX_STEPS steps.  Returns (make, e, n), the scheme's step, its last
    argument and the step count; without a t_end, the one step of `step`,
    n = 1.  `integrate`, `step` and `compare_schemes` all run it, so they
    refuse the same inputs with the same messages."""
    make, e = _scheme_core(scheme, h)
    if not all(v is not None and math.isfinite(v) for v in map(_real_value, (s0.x, s0.y, s0.t))):
        raise ValueError(f"initial state ({s0.x!r}, {s0.y!r}) at t={s0.t!r} is not finite")
    if t_end is not _ONE_STEP:
        _require_t_end(s0.t, t_end)
    if scheme.kind in _WEIGHTED_KINDS:
        _require_quadrant(s0.x, s0.y)
    if t_end is _ONE_STEP:
        return make, e, 1
    n = step_count(s0.t, t_end, h)
    if n > MAX_STEPS:
        raise ValueError(f"{n} steps of h={h!r} to t_end={t_end!r} exceed MAX_STEPS = {MAX_STEPS}")
    return make, e, n


def step(system: SplitSystem, scheme: SchemeId, state: State, h: float) -> State:
    """One step of size h of any scheme: `integrate`'s first step, in its
    bits, as python floats, run in the end-of-orbit form of nsfd._kernels
    (`orbit_end`), which stores nothing.

    Raises ValueError for a step size that is not positive and finite or
    a state that is not finite, DomainError for nsfd/ensfd from outside
    the closed quadrant, as `integrate` does, and NonFiniteError wherever
    `integrate` would halt: a stage raised, a component gave a value that
    is not a real number, or the state is non-finite.
    """
    make, e, n = _checked_orbit(scheme, state, h)
    m, x, y, _ = _kernels.orbit_end(_kernels._Evaluator(system), make, state.x, state.y, e, n)
    if m == 1:
        raise NonFiniteError(f"{scheme.kind} step of h={h!r} from ({state.x!r}, {state.y!r}) "
                             f"at t={state.t!r} gives no finite real state")
    return State(x, y, state.t + h)


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
# rows formatted by one pass of whole-array work: on 1501-row orbits blocks
# of 1024 or 1536 rows are ~10% slower, on 6001-row orbits 1536-row blocks
# ~20% faster (2-vCPU Xeon VM)
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
# point too when nothing follows it.  D rounds |v| * 10**p, p = 16 - K.
# Where p <= _EXACT_P (|v| >= 1e-6), 10**p is a double, and Dekker's
# error-free product gives |v| * 10**p exactly as P + E, P = fl(|v| * 10**p)
# and E its rounding error, from each factor's halves; it needs every
# float64 product and sum rounded to nearest on its own, never fused, as
# numpy's separate ufunc calls are.  P >= 10**16 is an even integer, so
# D = P + rint(E) rounds a tie to even.  Below 1e-6, with |v| = M * 2**(e - 53), M < 2**53 and p <= 27,
# D = round(M * 5**p / 2**(53 - e - p)); 5**p < 2**63, so that product is
# exact in two uint64 halves.
_K_MIN = -11
_EXACT_P = 22


def _decade_start(k):
    # the least double not below 10**k: |v| >= 10**k exactly when |v| >= it
    t = float(f"1e{k}")
    num, den = t.as_integer_ratio()
    return math.nextafter(t, math.inf) if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0) else t


def _halves(v):
    # Veltkamp's split of doubles v into a high part of 26 significant bits
    # and the rest, whose products with another split's parts are exact
    hi = v * 134217729.0  # 2**27 + 1
    hi -= hi - v
    return hi, v - hi


# _DECADES[i] starts the decade K = _K_MIN + i
_DECADES = np.array([_decade_start(k) for k in range(_K_MIN, 18)])
_TEXT_LO, _TEXT_HI = _DECADES[0], _DECADES[-1]
# _DECADE_ABOVE[B] indexes in _DECADES the decade above that of 2**(B - 1023),
# B a double's biased exponent; the double lies in that decade or the one below
_DECADE_ABOVE = np.floor((np.arange(2048) - 1023) * math.log10(2.0)).astype(np.int64) + 1 - _K_MIN
# 10**p for K = _K_MIN + i, and its halves; a double only for p <= _EXACT_P
_SCALE = np.array([float(10 ** (16 - k)) for k in range(_K_MIN, 17)])
_SCALE_HI, _SCALE_LO = _halves(_SCALE)
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
# _AFTER_BYTES[j] masks all but the first j bytes of three words
_AFTER_BYTES = _words(b"".join(b"\0" * j + b"\xff" * (12 - j) for j in range(12))).reshape(12, 3)
# a row index k that j of _ROW_TENS do not exceed has j + 1 digits: its
# twelve-digit text has 11 - j leading zeros
_ROW_TENS = 10 ** np.arange(1, 12)


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


def _wide_digits(a, i):
    # D of each a below 1e-6, whose p = 16 - K exceeds _EXACT_P, from the
    # product of its significand and 5**p in uint64s
    m, e = np.frexp(a)
    p = (16 - _K_MIN) - i
    M = (m * 2.0 ** 53).astype(np.uint64)
    s = (53 - e - p).astype(np.uint64)
    hi, lo = _product(M, _POW5.take(p))
    d = (hi << (np.uint64(64) - s)) | (lo >> s)
    # round half to even: up when the rest is above half, or half and d odd
    lo &= (_ONE << s) - _ONE
    lo += d & _ONE
    d += lo > (_ONE << (s - _ONE))
    return d.astype(np.int64)


def _digits(a):
    """D and K - _K_MIN of each a of a 1-d array in [_TEXT_LO, _TEXT_HI):
    a's 17 significant digits rounded half to even, D in [10**16, 10**17),
    and the index of a's decimal exponent K in _K_MIN, ..., 16."""
    i = _DECADE_ABOVE.take(a.view(np.int64) >> 52)
    i -= a < _DECADES.take(i)
    # Dekker's product: a * 10**p = P + E, P the rounded product and E its
    # error, summed exactly from the products of the halves
    P = a * _SCALE.take(i)
    ah, al = _halves(a)
    ch, cl = _SCALE_HI.take(i), _SCALE_LO.take(i)
    E = ah * ch
    E -= P
    E += ah * cl
    E += al * ch
    E += al * cl
    d = P.astype(np.int64)
    d += np.rint(E).astype(np.int64)
    # below 1e-6, 10**p is no double
    wide = i < (16 - _K_MIN) - _EXACT_P
    if wide.any():
        d[wide] = _wide_digits(a[wide], i[wide])
    # D < 10**17: the double below each power of ten in the range differs
    # from it in 17 digits, so rounding never carries into the next decade
    return d, i


def _digit_words(d):
    """The five words of D's digits, and the number of D's digits through
    its last nonzero one, of a 1-d D."""
    # indices into _CHUNK: D's leading digit, then four chunks of four, one
    # row each
    idx = np.empty((5, len(d)), np.int64)
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    np.floor_divide(low, 10 ** 4, out=idx[3])
    np.subtract(low, idx[3] * 10 ** 4, out=idx[4])
    lead = high // 10 ** 4
    np.subtract(high, lead * 10 ** 4, out=idx[2])
    np.floor_divide(lead, 10 ** 4, out=idx[0])
    np.subtract(lead, idx[0] * 10 ** 4, out=idx[1])
    idx[0] += 10000
    # trailing zeros of D: the last chunk's, and where that chunk is 0000,
    # the other chunks' read from the last back
    tz = _CHUNK_ZEROS.take(idx[4])
    blank = np.flatnonzero(idx[4] == 0)
    if blank.size:
        zeros = _CHUNK_ZEROS.take(idx[1:4, blank])
        t = tz[blank]
        for j in (2, 1, 0):
            t = np.where(t == 12 - 4 * j, t + zeros[j], t)
        tz[blank] = t
    return _CHUNK.take(idx.T), 17 - tz


def _value_words(v, a, out):
    """Write the text ",%.17g" % x of each x of v, whose magnitudes a lie in
    [_TEXT_LO, _TEXT_HI), to out[..., :_VALUE_WORDS] as NUL-padded words."""
    d, i = _digits(a.ravel())
    digits, nonzero = _digit_words(d)
    # keep the digits through the last nonzero one, and all before the point
    before = _BEFORE_POINT.take(i)
    keep = np.maximum(nonzero, before)
    digits &= _FIRST_DIGITS.take(keep, axis=0)
    whole = digits & _FIRST_DIGITS.take(before, axis=0)
    digits ^= whole
    fixed = _BY_EXPONENT.take(i, axis=0)
    # the word after the head: the zeros after "0.", the lead digit where it
    # follows the point, and the point where digits follow it
    fixed[:, 1] |= digits[:, 0] | fixed[:, 2] * (keep > before)
    digits, whole, fixed = (w.reshape(v.shape + (-1,)) for w in (digits, whole, fixed))
    out[..., 0] = fixed[..., 0] | whole[..., 0] | _MINUS * np.signbit(v)
    out[..., 1:5] = whole[..., 1:]
    out[..., 5] = fixed[..., 1]
    out[..., 6:10] = digits[..., 1:]
    out[..., 10] = fixed[..., 3]


def _csv_text(start, ts, xs, ys):
    """The _CSV_ROW text of rows start, start + 1, ..., as bytes."""
    n = len(ts)
    vals = np.stack((ts, xs, ys), axis=1)
    mags = np.abs(vals)
    fast = (mags >= _TEXT_LO) & (mags < _TEXT_HI)
    slow = [] if fast.all() else np.flatnonzero(~fast.all(axis=1)).tolist()
    mags[slow] = 1.0  # a stand-in, overwritten below
    words = np.empty((n, 4 + 3 * _VALUE_WORDS), np.uint32)
    # the row index as twelve digits, less its leading zeros
    ks = np.arange(start, start + n)
    mid = ks // 10 ** 4
    high = mid // 10 ** 4
    index = _AFTER_BYTES.take(11 - np.searchsorted(_ROW_TENS, ks, side="right"), axis=0)
    index[:, 0] &= _CHUNK.take(high)
    index[:, 1] &= _CHUNK.take(mid - high * 10 ** 4)
    index[:, 2] &= _CHUNK.take(ks - mid * 10 ** 4)
    words[:, :3] = index
    _value_words(vals, mags, words[:, 3:-1].reshape(n, 3, _VALUE_WORDS))
    words[:, -1] = _NEWLINE
    text = words.view(np.uint8)
    for i in slow:
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
    is never taken.  Every system runs the stepping loop of nsfd._kernels,
    compiled from the scheme's text once per process for each tuple of
    the fields' code objects: the components that pass the array rule are
    written into it, their cells, globals and constants bound on each run,
    and the rest, checked by the run's evaluator, are called from it.  A
    step costs its arithmetic and the calls of those other components,
    with no call of its own (per-step rates in the README, Backends); the
    first orbit of each loop in a process also compiles it, about 0.2 to
    0.4 ms.

    Raises ValueError for a non-finite initial state and for a step count
    above MAX_STEPS, before allocating anything.  A step that raises
    ZeroDivisionError, OverflowError or ValueError (a math domain error in
    a component evaluated off the quadrant), where a component gives a
    value that is not a real number (a complex, None, a str, a numpy
    array), or that yields a non-finite state halts the run with
    halt_reason "nonfinite".
    """
    make, e, n = _checked_orbit(scheme, s0, h, t_end)
    xs, ys, m = _kernels.run_trajectory(system, make, s0.x, s0.y, e, n)
    ts = s0.t + h * np.arange(m)
    halt_step = None if m == n + 1 else m
    halt_reason = None if halt_step is None else "nonfinite"
    return Trajectory(scheme, float(h), ts, xs, ys, requested_steps=n,
                      halt_step=halt_step, halt_reason=halt_reason)
