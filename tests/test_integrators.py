"""Update maps, step weights, trajectories, and the integrate driver."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsfd import (
    EULER,
    IDENTITY,
    NSFD,
    RK2,
    RK4,
    ConstructionError,
    DomainError,
    NonFiniteError,
    SchemeId,
    SplitSystem,
    State,
    StepWeight,
    compare_schemes,
    detect_ghosts,
    ensfd,
    estimate_order,
    exponential_weight,
    integrate,
    make_rosenzweig_macarthur,
    model1,
    model2,
    scheme_from_name,
    step,
    step_count,
    weight_from_name,
)
from nsfd import cli, integrators
from nsfd.integrators import _scheme_core, effective_step
from oracles import equality_settings, step_loop


def test_nsfd_step_frozen_value():
    s = step(model1(), NSFD, State(15.0, 0.1), 0.1)
    assert s.x == pytest.approx(6.596595305648697, abs=1e-14)
    assert s.y == pytest.approx(0.06854838709677419, abs=1e-16)
    assert s.t == 0.1


def test_euler_step_frozen_value():
    s = step(model1(), EULER, State(15.0, 0.1), 0.1)
    assert s.x == pytest.approx(-6.019354838709681, abs=1e-13)
    assert s.y == pytest.approx(0.04967741935483871, abs=1e-16)


def test_rk4_step_matches_independent_reimplementation():
    m1 = model1()

    def vf(x, y):
        fp, fm, gp, gm = m1.components(x, y)
        return x * (fp - fm), y * (gp - gm)

    x, y, h = 0.7, 1.3, 0.05
    k1 = vf(x, y)
    k2 = vf(x + h / 2 * k1[0], y + h / 2 * k1[1])
    k3 = vf(x + h / 2 * k2[0], y + h / 2 * k2[1])
    k4 = vf(x + h * k3[0], y + h * k3[1])
    ref_x = x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    ref_y = y + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])

    s = step(m1, RK4, State(x, y), h)
    assert s.x == pytest.approx(ref_x, rel=1e-15)
    assert s.y == pytest.approx(ref_y, rel=1e-15)


def test_rk2_step_matches_independent_reimplementation():
    # midpoint rule
    m2 = model2()

    def vf(x, y):
        fp, fm, gp, gm = m2.components(x, y)
        return x * (fp - fm), y * (gp - gm)

    x, y, h = 0.4, 0.4, 0.2
    k1 = vf(x, y)
    k2 = vf(x + h / 2 * k1[0], y + h / 2 * k1[1])
    s = step(m2, RK2, State(x, y), h)
    assert s.x == pytest.approx(x + h * k2[0], rel=1e-15)
    assert s.y == pytest.approx(y + h * k2[1], rel=1e-15)


@given(
    x=st.floats(1e-8, 50.0),
    y=st.floats(1e-8, 50.0),
    h=st.floats(1e-6, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_nsfd_step_preserves_positivity(x, y, h):
    # The defining property of the scheme: positive states stay positive
    # for every step size, with no stability restriction.
    for system in (model1(), model2()):
        s = step(system, NSFD, State(x, y), h)
        assert s.x > 0.0
        assert s.y > 0.0
        assert math.isfinite(s.x) and math.isfinite(s.y)


def test_nsfd_step_rejects_points_outside_quadrant():
    with pytest.raises(DomainError):
        step(model1(), NSFD, State(-1.0, 1.0), 0.1)


def test_consistency_defect_shrinks_quadratically():
    # nsfd and euler share the O(h) term, so their one-step difference
    # must drop by about 4x when h halves.
    m1 = model1()
    s0 = State(0.5, 0.5)

    def defect(h):
        a = step(m1, NSFD, s0, h)
        b = step(m1, EULER, s0, h)
        return math.hypot(a.x - b.x, a.y - b.y)

    for h in (1e-2, 1e-3):
        ratio = defect(h) / defect(h / 2)
        assert 3.5 <= ratio <= 4.5


def test_ensfd_with_identity_weight_is_plain_nsfd():
    m2 = model2()
    s0 = State(0.7, 0.9)
    for h in (0.01, 0.5, 3.0):
        a = step(m2, NSFD, s0, h)
        b = step(m2, ensfd(IDENTITY), s0, h)
        assert (a.x, a.y, a.t) == (b.x, b.y, b.t)


def test_ensfd_equals_nsfd_at_the_transformed_step():
    # Substituting e = phi(h) into the denominators is all the weighted
    # variant does; physical time still advances by h.
    m1 = model1()
    w = exponential_weight(2.0)
    s0 = State(1.4, 0.2)
    h = 0.5
    e = w.phi(h)
    assert e == pytest.approx(0.31606027941427883, abs=1e-17)
    a = step(m1, ensfd(w), s0, h)
    b = step(m1, NSFD, s0, e)
    assert (a.x, a.y) == (b.x, b.y)
    assert a.t == h


@given(h=st.floats(1e-8, 1e-2), lam=st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_exponential_weight_is_consistent(h, lam):
    # phi(h) = h - lam*h^2/2 + O(h^3), and phi never exceeds h.
    phi = exponential_weight(lam).phi(h)
    assert 0.0 < phi <= h
    assert abs(phi / h - 1.0) <= lam * h + 1e-14


def test_weight_parsing():
    assert weight_from_name("identity").phi(0.25) == 0.25
    w = weight_from_name("exp:2")
    assert w.phi(0.5) == pytest.approx((1 - math.exp(-1.0)) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        weight_from_name("exp:-1")
    with pytest.raises(ValueError):
        weight_from_name("gauss")


def test_scheme_identity_validation():
    assert scheme_from_name("rk4").kind == "rk4"
    e = scheme_from_name("ensfd", exponential_weight(1.0))
    assert e.kind == "ensfd"
    with pytest.raises(ValueError):
        SchemeId("ensfd", None)  # weighted scheme needs a weight
    with pytest.raises(ValueError):
        SchemeId("euler", IDENTITY)  # classical schemes take none
    with pytest.raises(ValueError):
        scheme_from_name("leapfrog")


def test_effective_step():
    assert effective_step(NSFD, 0.7) == 0.7
    assert effective_step(ensfd(exponential_weight(2.0)), 0.5) == pytest.approx(
        0.31606027941427883, abs=1e-17)


SCHEMES = (NSFD, ensfd(exponential_weight(0.5)), EULER, RK2, RK4)
SQRT_LOSS = SplitSystem(lambda x, y: 1.0, lambda x, y: math.sqrt(x),
                        lambda x, y: 0.5, lambda x, y: 1.0, name="sqrt_loss")
MODELS = {"model1": model1(), "model2": model2()}


def _first_step(system, scheme, s0, h):
    """integrate's first step from s0 as (x, y, t), or the error type it raises or
    NonFiniteError where the orbit halts at step 1."""
    try:
        traj = integrate(system, scheme, s0, h, h)
    except DomainError:
        return DomainError
    if traj.halt_step == 1:
        return NonFiniteError
    return (traj.xs[1], traj.ys[1], traj.ts[1])


@given(kind=st.sampled_from(["model1", "model2", "rma", "sqrt_loss", "root_loss"]),
       clone=st.booleans(), params=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0),
                                             st.floats(0.05, 2.0), st.floats(0.02, 0.9)),
       scheme=st.sampled_from(SCHEMES),
       x=st.one_of(st.floats(-8.0, 25.0), st.just(1e308)),
       y=st.one_of(st.floats(-8.0, 25.0), st.just(1e308)),
       h=st.one_of(st.floats(1e-4, 20.0), st.just(1e10)))
@example(kind="sqrt_loss", clone=False, params=(1.0, 1.0, 1.0, 0.5), scheme=EULER,
         x=-4.0, y=1.0, h=2.0).via("math.sqrt raises off the quadrant")
@example(kind="root_loss", clone=False, params=(1.0, 1.0, 1.0, 0.5), scheme=RK2,
         x=-4.0, y=1.0, h=2.0).via("x ** 0.5 turns complex off the quadrant")
@example(kind="model1", clone=False, params=(1.0, 1.0, 1.0, 0.5), scheme=NSFD,
         x=1e308, y=1e308, h=1e10).via("an overflowing nsfd step")
@equality_settings(150)
def test_step_is_the_first_step_of_integrate(root_loss_system, kind, clone, params, scheme,
                                             x, y, h):
    # one stepping loop: step has integrate's bits, as python floats, and
    # raises NonFiniteError wherever integrate halts at step 1
    if kind == "rma":
        system = make_rosenzweig_macarthur(*params)
    else:
        system = {**MODELS, "sqrt_loss": SQRT_LOSS, "root_loss": root_loss_system}[kind]
    if clone and system.rma_params is not None:
        system = dataclasses.replace(system)  # its callables run
    s0 = State(x, y)
    want = _first_step(system, scheme, s0, h)
    if isinstance(want, type):
        with pytest.raises(want):
            step(system, scheme, s0, h)
        return
    got = step(system, scheme, s0, h)
    assert all(type(v) is float for v in (got.x, got.y, got.t))
    assert np.array([got.x, got.y, got.t]).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.kind for s in SCHEMES])
@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_step_refuses_a_bad_step_size(scheme, bad):
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        step(model1(), scheme, State(0.4, 0.4), bad)


def test_step_count_rounding():
    assert step_count(0.0, 20.0, 0.1) == 200
    assert step_count(0.0, 0.3, 0.1) == 3  # 0.3/0.1 is 2.999... in floats
    assert step_count(0.0, 1.0, 0.3) == 3  # genuine partial step truncates
    assert step_count(5.0, 6.0, 0.25) == 4


def test_integrate_validates_inputs():
    m1 = model1()
    with pytest.raises(ValueError):
        integrate(m1, NSFD, State(1.0, 1.0), -0.1, 5.0)
    with pytest.raises(ValueError):
        integrate(m1, NSFD, State(1.0, 1.0), 0.0, 5.0)
    with pytest.raises(ValueError):
        integrate(m1, NSFD, State(1.0, 1.0, t=5.0), 0.1, 5.0)
    with pytest.raises(DomainError):
        integrate(m1, NSFD, State(-1.0, 1.0), 0.1, 5.0)


def test_integrate_refuses_more_than_max_steps_before_allocating(monkeypatch):
    # 1e13 steps would need 240 TB of arrays
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate(model1(), NSFD, State(0.4, 0.4), 1e-13, 1.0)
    monkeypatch.setattr(integrators, "MAX_STEPS", 10)
    assert len(integrate(model1(), RK4, State(0.4, 0.4), 0.1, 1.0)) == 11
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate(model1(), RK4, State(0.4, 0.4), 0.1, 1.1)


@pytest.mark.parametrize("h,t_end", [(1e-300, 1e10), (5e-324, 1.0)])
def test_a_step_count_that_overflows_is_refused(h, t_end, capsys):
    # (t_end - t0)/h is inf here, and math.floor(inf) raises OverflowError
    assert (t_end - 0.0) / h == math.inf
    with pytest.raises(ValueError, match="MAX_STEPS"):
        step_count(0.0, t_end, h)
    for scheme in (NSFD, RK4):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate(model1(), scheme, State(0.4, 0.4), h, t_end)
    assert cli.main(["simulate", "--model", "model1", "--scheme", "nsfd", "--h", repr(h),
                     "--x0", "0.4", "--y0", "0.4", "--t-end", repr(t_end)]) == 1
    assert capsys.readouterr().err == (f"error: inf steps of h={h!r} to t_end={t_end!r} "
                                       "exceed MAX_STEPS = 100000000\n")


@pytest.mark.parametrize("scheme", [NSFD, EULER])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_a_nonfinite_start(scheme, bad):
    # and so does step, which ran from it and raised NonFiniteError
    for start in (State(bad, 0.4), State(0.4, bad)):
        with pytest.raises(ValueError, match="not finite"):
            integrate(model1(), scheme, start, 0.1, 5.0)
        with pytest.raises(ValueError, match="not finite"):
            step(model1(), scheme, start, 0.1)


@pytest.mark.parametrize("bad", [10 ** 400, True, "0.5", None],
                         ids=["int-beyond-floats", "bool", "numeric-str", "None"])
def test_numbers_at_the_api_boundary_are_real_numbers_in_the_float_range(bad):
    # as an x_max and a search box are: an int beyond the float range raised
    # OverflowError from math.isfinite, and a bool was read as 0 or 1; a
    # compare_schemes step read through float() gave rows at True and "0.5"
    s0 = State(0.4, 0.4)
    with pytest.raises(ValueError, match=r"^weight rate must be positive and finite, got "):
        exponential_weight(bad)
    for run in (lambda: integrate(model2(), NSFD, s0, bad, 3.0),
                lambda: step(model2(), RK4, s0, bad),
                lambda: compare_schemes(model2(), [NSFD, RK4], s0, [0.5, bad], 3.0),
                lambda: detect_ghosts(model2(), NSFD, bad),
                lambda: estimate_order(model1(), NSFD, s0, 1.0, [0.5, 0.25, 0.125, bad])):
        with pytest.raises(ValueError, match=r"^step size must be positive and finite, got "):
            run()
    with pytest.raises(ConstructionError, match=r"^parameter a must be positive and finite, got "):
        make_rosenzweig_macarthur(bad, 1, 1, 1)
    with pytest.raises(ValueError, match=r"must exceed the initial time 0\.0$"):
        integrate(model2(), NSFD, s0, 0.5, bad)
    for start in (State(bad, 0.4), State(0.4, bad), State(0.4, 0.4, bad)):
        with pytest.raises(ValueError, match=r"^initial state .* is not finite$"):
            integrate(model2(), NSFD, start, 0.5, 3.0)
        with pytest.raises(ValueError, match=r"^initial state .* is not finite$"):
            step(model2(), EULER, start, 0.5)


def test_integrate_grid_and_final_state():
    m1 = model1()
    traj = integrate(m1, NSFD, State(0.5, 0.5, t=2.0), 0.1, 4.0)
    assert len(traj) == 21
    assert traj.ts[0] == 2.0
    assert traj.ts[-1] == pytest.approx(4.0, abs=1e-12)
    assert not traj.truncated
    # driving the public one-step map must reproduce the stored orbit
    s = State(0.5, 0.5, t=2.0)
    for k in range(len(traj)):
        stored = traj.state(k)
        assert stored.x == pytest.approx(s.x, rel=1e-15, abs=1e-300)
        assert stored.y == pytest.approx(s.y, rel=1e-15, abs=1e-300)
        s = step(m1, NSFD, s, 0.1)


def test_integrate_truncates_on_nonfinite_states():
    # Euler from a steep start blows up; the trajectory must keep every
    # finite state, record the halt index, and not raise.
    traj = integrate(model1(), EULER, State(15.0, 0.1), 0.1, 5.0)
    assert traj.truncated
    assert traj.halt_reason == "nonfinite"
    assert traj.halt_step == len(traj)
    assert np.isfinite(traj.xs).all()
    assert np.isfinite(traj.ys).all()


def test_integrate_halts_on_a_math_domain_error():
    # Euler overshoots to x = -4, where the loss sqrt(x) has no value; the
    # generic loop halts there as it does on any non-finite step.
    traj = integrate(SQRT_LOSS, EULER, State(4.0, 1.0), 2.0, 10.0)
    assert traj.halt_reason == "nonfinite"
    assert traj.halt_step == 2
    assert list(traj.xs) == [4.0, -4.0]


def test_integrate_halts_where_a_component_turns_complex(root_loss_system):
    # Euler overshoots to x = -6.4, where x ** 0.5 is complex
    traj = integrate(root_loss_system, EULER, State(4.0, 1.0), 2.0, 10.0)
    assert traj.halt_reason == "nonfinite"
    assert traj.halt_step == 2
    assert traj.xs[1] < 0.0


def test_integrate_keeps_negative_classical_states():
    # Negative coordinates are a diagnostic signal, not an error, for the
    # classical schemes.
    traj = integrate(model1(), EULER, State(15.0, 0.1), 0.1, 0.3)
    assert traj.xs.min() < 0.0
    assert not traj.truncated


# what a twisted component gives at its armed call: a numpy float (and
# from then on), a complex of either kind, a non-finite value, or a raise
TWISTS = ("float64", "complex", "complex128", "inf", "-inf", "nan",
          ZeroDivisionError, OverflowError, ValueError, TypeError)


class _Twist:
    """One component, passed through until `arm(kind, at)`; then its at-th
    call gives the twist `kind` instead of its value."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = None

    def arm(self, kind, at):
        self.kind, self.at, self.calls = kind, at, 0

    def __call__(self, x, y):
        v = self.fn(x, y)
        if self.calls is None:
            return v
        self.calls += 1
        if self.calls < self.at:
            return v
        if self.kind == "float64":
            return np.float64(v)
        if self.calls > self.at:
            return v
        if isinstance(self.kind, type):
            raise self.kind("twisted component")
        if self.kind == "complex":
            return complex(v)
        if self.kind == "complex128":
            return np.complex128(v)
        return float(self.kind)


def _outcome(run):
    """run()'s (xs, ys, stored count) as bytes, or the type of what it raised."""
    try:
        xs, ys, m = run()
    except Exception as exc:
        return type(exc)
    return xs.tobytes(), ys.tobytes(), m


@given(kind=st.sampled_from(["model1", "model2", "rma"]),
       params=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.05, 2.0),
                        st.floats(0.02, 0.9)),
       form=st.sampled_from(["family", "clone", "twisted"]),
       twist=st.sampled_from(TWISTS), which=st.integers(0, 3), at=st.integers(1, 60),
       scheme=st.sampled_from(SCHEMES),
       x=st.floats(-2.0, 25.0), y=st.floats(-2.0, 25.0),
       h=st.one_of(st.floats(1e-3, 20.0), st.just(1e10)), n=st.integers(1, 30))
@example(kind="model1", params=(1.0, 1.0, 1.0, 0.5), form="twisted", twist="complex128",
         which=1, at=5, scheme=EULER, x=0.4, y=0.4, h=0.1, n=30).via(
    "an np.complex128 component, which math.isfinite only warns about")
@example(kind="model1", params=(1.0, 1.0, 1.0, 0.5), form="twisted", twist=TypeError,
         which=2, at=3, scheme=RK2, x=0.4, y=0.4, h=0.1, n=10).via(
    "a component error that is not a drop")
@equality_settings(150)
def test_integrate_is_the_row_by_row_loop(kind, params, form, twist, which, at, scheme,
                                          x, y, h, n):
    # the stepping loop's one finiteness test, over the checked components,
    # changes no orbit: integrate stores and halts where the plain check of
    # every state does, with numpy scalars, complex values of either kind
    # (the checked component refuses them), non-finite values and drops,
    # and lets any other exception through
    system = make_rosenzweig_macarthur(*params) if kind == "rma" else MODELS[kind]
    twisted = None
    if form == "clone":
        system = dataclasses.replace(system)
    elif form == "twisted":
        comps = [system.f_plus, system.f_minus, system.g_plus, system.g_minus]
        comps[which] = twisted = _Twist(comps[which])
        system = SplitSystem(*comps, x_max=system.x_max, name="twisted")
    if scheme.kind in ("nsfd", "ensfd"):
        x, y = abs(x), abs(y)
    t_end = n * h
    make, e = _scheme_core(scheme, h)

    def run(go):
        if twisted is not None:
            twisted.arm(twist, at)
        return _outcome(go)

    def by_integrate():
        traj = integrate(system, scheme, State(x, y), h, t_end)
        return traj.xs, traj.ys, len(traj)

    got = run(by_integrate)
    want = run(lambda: step_loop(make(system.components, e), x, y, step_count(0.0, t_end, h)))
    assert got == want
    if twist in (ZeroDivisionError, OverflowError, ValueError):
        assert not isinstance(got, type)


def test_an_orbit_halts_where_a_component_turns_np_complex128():
    # at call 5 f_minus is an np.complex128 with no imaginary part, which
    # math.isfinite passes with a ComplexWarning; the orbit halts there
    m1 = model1()
    f_minus = _Twist(m1.f_minus)
    system = SplitSystem(m1.f_plus, f_minus, m1.g_plus, m1.g_minus, name="complex_loss")
    f_minus.arm("complex128", 5)
    traj = integrate(system, EULER, State(0.4, 0.4), 0.1, 3.0)
    assert traj.halt_step == 5 and traj.halt_reason == "nonfinite"
    assert traj.xs.dtype == np.float64 and len(traj) == 5


def test_an_np_float64_orbit_halts_without_a_warning():
    # with f_plus an np.float64 the Euler state overflows in numpy scalar
    # arithmetic, which warns; the orbit halts at step 8 as with python
    # floats, and nothing reaches the user
    m1 = model1()
    system = SplitSystem(lambda x, y: np.float64(m1.f_plus(x, y)), m1.f_minus, m1.g_plus,
                         m1.g_minus, name="float64_growth")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(system, EULER, State(15.0, 0.1), 10.0, 1000.0)
    assert traj.halt_step == 8 and traj.halt_reason == "nonfinite"
    assert traj.xs.tobytes() == integrate(m1, EULER, State(15.0, 0.1), 10.0, 1000.0).xs.tobytes()


def _loss_beyond_the_box(odd):
    # f_minus gives odd beyond the validation box, x > 3, where the orbits
    # from (0.5, 0.5) at h = 0.5 go: the nsfd state itself, rk4's stages
    def f_minus(x, y):
        return odd if x > 3.0 else 0.1 * x + 0.1 * y

    return SplitSystem(lambda x, y: 1.0, f_minus, lambda x, y: 0.2 * x, lambda x, y: 0.1,
                       x_max=3.0, name="odd_loss")


@pytest.mark.parametrize("scheme", [NSFD, RK4], ids=["nsfd", "rk4"])
@pytest.mark.parametrize("odd", [None, "odd", np.array(0.25)], ids=["None", "str", "0-d array"])
def test_a_value_that_is_not_real_ends_an_orbit(odd, scheme):
    # the orbit halts where its complex twin halts, with the same stored
    # states; step refuses the step it halts on, and compare_schemes
    # reports the halt
    s0 = State(0.5, 0.5)
    system = _loss_beyond_the_box(odd)
    traj = integrate(system, scheme, s0, 0.5, 50.0)
    twin = integrate(_loss_beyond_the_box(1j), scheme, s0, 0.5, 50.0)
    assert traj.halt_reason == "nonfinite" and traj.halt_step == twin.halt_step
    assert (traj.xs.tobytes(), traj.ys.tobytes()) == (twin.xs.tobytes(), twin.ys.tobytes())
    with pytest.raises(NonFiniteError):
        step(system, scheme, traj.final(), 0.5)
    (row,) = compare_schemes(system, [scheme], s0, [0.5], 50.0).rows
    assert row.nonfinite


def test_classical_step_raises_on_nonfinite_result():
    huge = State(1e308, 1.0)
    with pytest.raises(NonFiniteError):
        step(model1(), EULER, huge, 10.0)


def test_csv_round_trip_is_exact():
    traj = integrate(model2(), NSFD, State(0.4, 0.4), 0.5, 10.0)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "k,t,x,y"
    assert len(lines) == len(traj) + 1
    for k, line in enumerate(lines[1:]):
        ks, ts, xs, ys = line.split(",")
        assert int(ks) == k
        # 17 significant digits round-trip binary doubles exactly
        assert float(ts) == traj.ts[k]
        assert float(xs) == traj.xs[k]
        assert float(ys) == traj.ys[k]


def _csv_row_by_row(traj):
    lines = ["k,t,x,y"]
    for k in range(len(traj.ts)):
        lines.append(f"{k},{traj.ts[k]:.17g},{traj.xs[k]:.17g},{traj.ys[k]:.17g}")
    return "\n".join(lines) + "\n"


def test_csv_is_the_row_by_row_text():
    full = [integrate(model2(), scheme, State(0.4, 0.4), 0.1, 150.0)
            for scheme in (NSFD, ensfd(exponential_weight(2.0)), EULER, RK2, RK4)]
    # classical orbits of model2 at large steps go negative and halt
    wild = [integrate(model2(), EULER, State(0.4, 0.4), 2.5, 1000.0),
            integrate(model2(), RK4, State(3.0, 0.01), 2.5, 1000.0),
            integrate(model2(), RK4, State(0.05, 3.0), 4.0, 1000.0)]
    assert all(traj.truncated and traj.xs.min() < 0.0 for traj in wild)
    assert wild[2].ys.min() < 0.0
    # grids from a negative and from huge initial times
    shifted = [integrate(model2(), RK2, State(0.4, 0.4, t0), 0.5, t0 + 100.0)
               for t0 in (-37.0, 1e16, 1e18)]
    truncated = integrate(model1(), EULER, State(15.0, 0.1), 10.0, 1000.0)
    assert truncated.truncated and len(truncated) < truncated.requested_steps
    odd_values = dataclasses.replace(
        truncated,
        xs=np.array([math.nan, -0.0, math.inf, 5e-324][:len(truncated)]),
        ys=np.array([-math.inf, 1e308, 0.1, -2.5][:len(truncated)]),
        ts=truncated.ts[:4],
    )
    # rows with a zero, a subnormal, a huge or a non-finite value, which
    # _CSV_ROW formats, between rows of the array formatting: order holds
    base = full[0]
    xs = base.xs.copy()
    xs[[3, 4, 700, 1200, 1500]] = [0.0, 1e-320, -2e17, math.nan, -math.inf]
    ys = base.ys.copy()
    ys[[5, 701, 1499]] = [-1e-12, 3e300, -0.0]
    mixed = dataclasses.replace(base, xs=xs, ys=ys)
    for traj in (*full, *wild, *shifted, truncated, odd_values, mixed):
        # line by line, so a failure reports its first row without diffing
        # two whole files
        assert traj.to_csv().split("\n") == _csv_row_by_row(traj).split("\n")
    assert "nan" in odd_values.to_csv()


def _bits_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every power of ten from 1e-12 to 1e17, and the doubles on either side
_DECADE_EDGES = [v for k in range(-12, 18) for p in [float(f"1e{k}")]
                 for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]


@given(values=st.lists(st.one_of(
           st.floats(),
           st.integers(0, 2 ** 64 - 1).map(_bits_float),
           st.tuples(st.floats(-12.5, 17.5), st.booleans()).map(
               lambda p: (-1.0) ** p[1] * 10.0 ** p[0]),
       ), min_size=1, max_size=30),
       start=st.integers(0, 10 ** 11))
@example(values=[0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                 math.nan, math.inf, -math.inf, 1.7976931348623157e308,
                 math.nextafter(1e-11, 0.0), 1e-11, math.nextafter(1e-11, 1.0),
                 math.nextafter(1e17, 0.0), 1e17, math.nextafter(1e17, math.inf)],
         start=0).via("zeros, subnormals, non-finite values and the ends of the fast range")
@example(values=_DECADE_EDGES + [-v for v in _DECADE_EDGES],
         start=10 ** 11 - 40).via("decade edges, row indices of 11 and 12 digits")
@example(values=[1 + 2 ** -17, 1e12 + 2 ** -5, -(1 + 2 ** -17), 9.9999999999999995e-08,
                 9.9999999999999995e-05, 0.1, 1200.0, 99999999999999984.0],
         start=99_999_990).via("ties to even, and values just below a decade")
@equality_settings(200)
def test_csv_text_is_the_printf_text(values, start):
    # each value as t, as x and as y of a row whose other two are 1.0
    n = len(values)
    cols = [np.ones(3 * n) for _ in range(3)]
    for j, col in enumerate(cols):
        col[j * n:(j + 1) * n] = values
    want = "".join("%d,%.17g,%.17g,%.17g\n" % (start + i, t, x, y)
                   for i, (t, x, y) in enumerate(zip(*(c.tolist() for c in cols))))
    assert integrators._csv_text(start, *cols).decode() == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7])
def test_csv_blocks_join_at_every_boundary(monkeypatch, tmp_path, n):
    # rows are formatted in blocks of _CSV_BLOCK; with blocks of 3, orbits
    # of 1 to 7 rows end inside a block, on its edge, and one row past it
    monkeypatch.setattr(integrators, "_CSV_BLOCK", 3)
    traj = integrate(model2(), RK4, State(0.4, 0.4), 0.5, 0.5 * (n - 1) + 0.25)
    assert len(traj) == n
    assert traj.to_csv() == _csv_row_by_row(traj)
    traj.write_csv(tmp_path / "orbit.csv")
    assert (tmp_path / "orbit.csv").read_bytes() == _csv_row_by_row(traj).encode()


def test_integration_is_deterministic(tmp_path):
    a = integrate(model2(), RK4, State(0.4, 0.4), 0.25, 50.0)
    b = integrate(model2(), RK4, State(0.4, 0.4), 0.25, 50.0)
    assert a.to_csv() == b.to_csv()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(p1)
    b.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ensfd_trajectory_stays_positive_at_large_steps():
    w = exponential_weight(2.0)
    traj = integrate(model2(), ensfd(w), State(0.4, 0.4), 10.0, 500.0)
    assert not traj.truncated
    assert traj.xs.min() > 0.0
    assert traj.ys.min() > 0.0
