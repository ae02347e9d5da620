"""System construction, validation, and derivative plumbing."""

import contextlib
import copy
import dataclasses
import math
import numbers
import pickle
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nsfd import (
    NSFD,
    RK4,
    ConstructionError,
    DomainError,
    EquilibriumPoint,
    SplitSystem,
    State,
    continuous_eigs,
    critical_step_E3,
    discrete_eigs,
    field_jacobian,
    find_equilibria,
    from_selector,
    integrate,
    make_rosenzweig_macarthur,
    model1,
    model2,
    nsfd_map_jacobian,
    numeric_partials,
    stability_report,
    vector_field,
)
from nsfd import _kernels, systems
from nsfd.equilibria import _BALANCES
from nsfd.integrators import _scheme_core
from nsfd.systems import (_FD_EPS, MODEL2_PARAMS, VALIDATION_GRID_N, Partials, PartialValues,
                          _fd_x, _fd_y, _numeric_partial_values, _partials_on, partials_at)
from oracles import equality_settings, per_element_clone
from test_kernels import _loop_scalars, _rule_field, _rule_fields


def test_model1_components_at_interior_point():
    m1 = model1()
    fp, fm, gp, gm = m1.components(15.0, 0.1)
    assert fp == 1.0
    assert fm == pytest.approx(15.0 + 0.2 / 15.5, rel=1e-15)
    assert gp == pytest.approx(15.0 / 15.5, rel=1e-15)
    assert gm == 6.0


def test_vector_field_frozen_value():
    # x*(f+ - f-), y*(g+ - g-) for model1 at (15, 0.1).
    vx, vy = vector_field(model1(), State(15.0, 0.1))
    assert vx == pytest.approx(-210.1935483870968, abs=1e-12)
    assert vy == pytest.approx(-0.503225806451613, abs=1e-15)


def test_vector_field_vanishes_at_coexistence_point():
    m2 = model2()
    vx, vy = vector_field(m2, State(0.25, 0.46875))
    assert abs(vx) < 1e-14
    assert abs(vy) < 1e-14


def test_vector_field_rejects_negative_coordinates():
    with pytest.raises(DomainError):
        vector_field(model1(), State(-0.1, 1.0))
    with pytest.raises(DomainError):
        vector_field(model1(), State(1.0, -1e-9))
    # at x = -c the family divides by zero: the quadrant check comes first,
    # for the Jacobians and for every closed form at an equilibrium point;
    # at x = -0.5 there is no pole, and no verdict either
    with pytest.raises(DomainError):
        field_jacobian(model2(), State(-1.0, 0.5))
    with pytest.raises(DomainError):
        nsfd_map_jacobian(model2(), State(-1.0, 0.5), 0.5)
    for x in (-1.0, -0.5):
        point = EquilibriumPoint(x, 0.5, "E3")
        with pytest.raises(DomainError):
            continuous_eigs(model2(), point)
        with pytest.raises(DomainError):
            discrete_eigs(model2(), point, 0.5)
        with pytest.raises(DomainError):
            critical_step_E3(model2(), point)
        with pytest.raises(DomainError):
            stability_report(model2(), point, (0.5,))


def test_analytic_partials_match_finite_differences():
    # 1000 random quadrant points, both models.  The analytic closures and
    # the numeric stencil must agree to 1e-5 in every slot.
    rng = np.random.default_rng(42)
    for system in (model1(), model2()):
        xs = rng.uniform(0.0, 20.0, size=500)
        ys = rng.uniform(0.0, 20.0, size=500)
        for x, y in zip(xs, ys):
            exact = system.partials.at(x, y)
            approx = numeric_partials(system, State(x, y))
            for a, n in zip(exact, approx):
                assert abs(a - n) <= 1e-5 * max(1.0, abs(a)), (x, y, exact, approx)


def test_numeric_partials_handle_points_on_the_axes():
    # One-sided stencil near the boundary: must not sample negative
    # coordinates and must still be second order.
    m2 = model2()
    for x, y in [(0.0, 0.0), (0.0, 3.0), (5.0, 0.0), (1e-12, 1e-12)]:
        exact = m2.partials.at(x, y)
        approx = numeric_partials(m2, State(x, y))
        for a, n in zip(exact, approx):
            assert abs(a - n) <= 1e-5 * max(1.0, abs(a))


def test_field_jacobian_matches_hand_rolled_differences():
    m1 = model1()
    x, y = 2.0, 3.0
    jac = field_jacobian(m1, State(x, y))
    eps = 1e-6

    def vf(u, v):
        return np.array(vector_field(m1, State(u, v)))

    fd = np.column_stack([
        (vf(x + eps, y) - vf(x - eps, y)) / (2 * eps),
        (vf(x, y + eps) - vf(x, y - eps)) / (2 * eps),
    ])
    assert np.allclose(jac, fd, atol=1e-6)


def test_partials_at_falls_back_without_analytic_partials():
    bare = SplitSystem(
        lambda x, y: 1.0,
        lambda x, y: x + 2.0 * y / (0.5 + x),
        lambda x, y: x / (0.5 + x),
        lambda x, y: 6.0,
        name="bare",
    )
    vals = partials_at(bare, 3.0, 1.5)
    ref = model1().partials.at(3.0, 1.5)
    for a, n in zip(ref, vals):
        assert abs(a - n) <= 1e-5 * max(1.0, abs(a))


# prey losses for the property below, each failing a stencil point in its
# own way off the quadrant
_FD_LOSSES = {
    "smooth": lambda x, y: x * x + 0.5 * y,
    "pole": lambda x, y: 0.1 * y / (0.7 + x),      # ZeroDivisionError at x = -0.7
    "power": lambda x, y: 1e-3 * x ** 2 + y,       # OverflowError beyond |x| ~ 1e154
    "sqrt": lambda x, y: math.sqrt(x) + 0.5 * y,   # ValueError for x < 0
    "root": lambda x, y: x ** 0.5 + 0.5 * y,       # complex for x < 0
}

_fd_coords = st.one_of(st.floats(-3.0, 3.0), st.floats(-2.0 * _FD_EPS, 2.0 * _FD_EPS),
                       st.floats(), st.sampled_from([0.0, -0.0, -0.7, _FD_EPS, 1e160, -1e160]))


@given(loss=st.sampled_from(sorted(_FD_LOSSES)),
       points=st.lists(st.tuples(_fd_coords, _fd_coords), min_size=1, max_size=10))
@example(loss="sqrt", points=[(0.0, 0.0), (0.5 * _FD_EPS, 1.0), (2.0 * _FD_EPS, 1e-7)])
@example(loss="pole", points=[(-0.7, 1.0), (-0.7 - _FD_EPS, 0.5), (2.0, 1.0)])
@example(loss="power", points=[(1e160, 1.0), (1.0, 1e160), (1.0, 1.0)])
@example(loss="root", points=[(-1.0, 1.0), (-1e-7, 0.5), (1e-7, 0.5)])
@equality_settings(200)
def test_numeric_partials_on_arrays_are_the_scalar_partials(loss, points):
    # the array stencils of _partials_on give _numeric_partial_values'
    # bits at every point, one-sided near an axis and central elsewhere, and
    # drop exactly the points where a scalar call raises or turns complex;
    # no component is called at a point where the scalar stencils do not
    # call it, which they stop doing for a point at its first raise
    calls = set()

    def recorded(k, fn):
        def call(x, y):
            calls.add((k, float(x).hex(), float(y).hex()))
            return fn(x, y)
        return call

    with _unchecked():
        system = SplitSystem(*(recorded(k, fn) for k, fn in enumerate((
            lambda x, y: 1.0 + 0.1 * y, _FD_LOSSES[loss],
            lambda x, y: 0.8 * x / (1.0 + x), lambda x, y: 0.2 + 0.1 * x * y))))
    xs, ys = (np.array(v, dtype=float) for v in zip(*points))
    calls.clear()
    got, dropped = _partials_on(system, _kernels._Evaluator(system), xs, ys)
    on_arrays = set(calls)
    calls.clear()
    got = np.array(got)
    for i, (x, y) in enumerate(points):
        try:
            want = _numeric_partial_values(system, x, y)
        except (ZeroDivisionError, OverflowError, ValueError):
            want = None
        if want is None or any(isinstance(v, complex) for v in want):
            assert dropped[i] and np.isnan(got[:, i]).all()
        else:
            assert not dropped[i]
            assert got[:, i].tobytes() == np.array(want, dtype=float).tobytes()
    assert on_arrays <= calls


@given(points=st.lists(st.tuples(_fd_coords, _fd_coords), min_size=1, max_size=10),
       grid=st.booleans())
@example(points=[(0.0, 0.0), (0.5 * _FD_EPS, 1.0), (-0.5, 2.0), (1e160, 1.0)], grid=False)
@example(points=[(-0.7, 1.0), (1.0, 1.0)], grid=False)
@example(points=[(0.0, 0.0), (0.5 * _FD_EPS, 1.0), (3.0, 2.0 * _FD_EPS)], grid=True)
@equality_settings(200)
def test_whole_array_stencils_are_the_scalar_partials(points, grid):
    # _fd_on_arrays gives the scalar stencils' bits at every point, or at
    # every node of a grid, on whole arrays where no flag trips; where one
    # does, the evaluator goes per point, and drops the points where the
    # scalar stencils raise.  The family and a pole at x = -c are the case
    # it serves.
    system = make_rosenzweig_macarthur(2.0, 1.0, 0.7, 0.3)
    xs, ys = (np.array(v, dtype=float) for v in zip(*points))
    if grid:
        xs, ys = xs[:, None], ys[None, :]
    got, dropped = systems._fd_on_arrays(_kernels._Evaluator(system), xs, ys)
    got = np.broadcast_arrays(*got)
    for idx in np.ndindex(got[0].shape):
        x, y = float(np.broadcast_to(xs, got[0].shape)[idx]), float(
            np.broadcast_to(ys, got[0].shape)[idx])
        if dropped[idx]:
            with pytest.raises((ZeroDivisionError, OverflowError, ValueError)):
                _numeric_partial_values(system, x, y)
            continue
        want = _numeric_partial_values(system, x, y)
        assert np.array([g[idx] for g in got]).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("xs,ys,rows", [
    # every element central on both axes: the interior Newton seeds
    ([0.5, 1.0, 3.0, 19.5], [0.25, 2.0, 7.0, 1e3], (2, 2)),
    # one element one-sided in x, another in y
    ([0.5, 0.5 * _FD_EPS, 3.0, 19.5], [0.25, 2.0, 0.0, 1e3], (3, 3)),
    ([0.5, 1.0, 3.0, 19.5], [0.25, 2.0, -0.0, 1e3], (2, 3)),
])
def test_an_all_central_input_takes_two_stencil_rows(xs, ys, rows, monkeypatch):
    # _fd_on_arrays calls the components in one guarded call, on as many
    # stencil rows per axis as the stencils need, stacked, and every
    # element keeps the bits of _fd_x and _fd_y
    comps = (lambda x, y: 1.5 - 0.1 * y, lambda x, y: 0.7 * x + 0.3 * y / (1.0 + x),
             lambda x, y: 0.8 * x / (1.0 + x), lambda x, y: 0.2 + 0.1 * x * y)
    calls = _kernels._Evaluator(SplitSystem(*comps, x_max=4.0))
    shapes = []
    raising = _kernels._raising

    def recorded(fn, x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return raising(fn, x, y)

    monkeypatch.setattr(_kernels, "_raising", recorded)
    x, y = np.array(xs), np.array(ys)
    got, dropped = systems._fd_on_arrays(calls, x, y)
    n = x.size
    assert shapes == [((sum(rows), n), (sum(rows), n))]
    assert not dropped.any()
    want = [[fd(fn, a, b) for fn in comps for fd in (_fd_x, _fd_y)]
            for a, b in zip(xs, ys)]
    assert np.array(got).T.tobytes() == np.array(want).tobytes()


def _counted(calls, label, fn):
    def call(x, y):
        calls.append(label)
        return fn(x, y)
    return call


def test_a_generic_system_calls_each_field_once_per_stage():
    # the fields make the components: construction binds nothing on the
    # instance, and an orbit's loop calls each field once per stage, in
    # field order, with no call of components
    calls = []
    labels = ("f_plus", "f_minus", "g_plus", "g_minus")
    fns = (lambda x, y: 1.5, lambda x, y: 0.7 * x + 0.3 * y, lambda x, y: 0.9,
           lambda x, y: 0.2 * x + 0.6 * y)
    system = SplitSystem(*(_counted(calls, k, fn) for k, fn in zip(labels, fns)), name="lv")
    assert "components" not in vars(system)
    assert system.components(0.3, 0.4) == tuple(fn(0.3, 0.4) for fn in fns)

    calls.clear()
    integrate(system, RK4, State(0.4, 0.5), 0.1, 0.3)
    assert calls == list(labels) * 4 * 3


def _lv_gain(x, y):
    return 1.5


def _lv_loss(x, y):
    return 0.7 * x + 0.3 * y


def test_a_system_survives_pickle_and_copy():
    # pickle, copy and deepcopy give an equal system that holds nothing
    # bound, and its orbits have the same bits; a copy of a family system
    # keeps its label
    system = SplitSystem(_lv_gain, _lv_loss, _lv_gain, _lv_loss, name="lv")
    m2 = model2()
    pairs = [(system, pickle.loads(pickle.dumps(system)))]
    pairs += [(s, dup(s)) for s in (system, m2) for dup in (copy.copy, copy.deepcopy)]
    for original, twin in pairs:
        assert twin == original and twin is not original
        assert "components" not in vars(twin)
        assert twin.rma_params == original.rma_params
        for scheme in (NSFD, RK4):
            want = integrate(original, scheme, State(0.4, 0.5), 0.1, 5.0)
            got = integrate(twin, scheme, State(0.4, 0.5), 0.1, 5.0)
            assert (got.xs.tobytes(), got.ys.tobytes()) == (want.xs.tobytes(), want.ys.tobytes())
    assert copy.copy(m2).rma_params == MODEL2_PARAMS


def test_a_subclass_that_overrides_components_keeps_its_own():
    calls = []

    class Scaled(SplitSystem):
        def components(self, x, y):
            calls.append((x, y))
            return self.f_plus(x, y), self.f_minus(x, y), self.g_plus(x, y), 2.0 * self.g_minus(x, y)

    class Plain(SplitSystem):
        pass

    fns = (lambda x, y: 1.5, lambda x, y: 0.7 * x + 0.3 * y, lambda x, y: 0.9,
           lambda x, y: 0.2 * x + 0.6 * y)
    scaled, plain = Scaled(*fns, name="scaled"), Plain(*fns, name="plain")
    assert "components" not in vars(scaled)
    assert scaled.components.__func__ is Scaled.components
    assert vector_field(scaled, State(1.0, 1.0)) == (1.0 * (1.5 - 1.0), 1.0 * (0.9 - 1.6))
    assert calls == [(1.0, 1.0)]
    # the evaluator reads the class: the fields make a subclass's
    # components unless it overrides the method
    assert _kernels._Evaluator(plain).fused and not _kernels._Evaluator(scaled).fused
    assert "components" not in vars(plain)
    assert vector_field(plain, State(1.0, 1.0)) == (1.0 * (1.5 - 1.0), 1.0 * (0.9 - 0.8))


def test_constructor_rejects_nonpositive_parameters():
    for bad in [(0.0, 1, 1, 1), (1, -2, 1, 1), (1, 1, math.nan, 1), (1, 1, 1, math.inf)]:
        with pytest.raises(ConstructionError):
            make_rosenzweig_macarthur(*bad)
    # x_max, with the test of a search box: a real number, not a bool,
    # positive and finite
    for bad in (True, False, "5", None, 1j):
        with pytest.raises(ConstructionError, match=r"^x_max must be a real number, got "):
            make_rosenzweig_macarthur(1, 1, 1, 1, x_max=bad)
    for bad in (0, -1.0, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ConstructionError, match=r"^x_max must be positive and finite, got "):
            SplitSystem(*(lambda x, y: 1.0,) * 4, x_max=bad)
    # an int is kept as given, and the system's own box is searched
    system = make_rosenzweig_macarthur(2, 1, 1, 0.2, x_max=5)
    assert type(system.x_max) is int
    assert [p.family for p in find_equilibria(system)] == ["O", "E3", "E1"]


def test_constructor_rejects_interior_sign_violations():
    # f_minus goes negative inside the box, which breaks the split form.
    with pytest.raises(ConstructionError):
        SplitSystem(
            lambda x, y: 1.0,
            lambda x, y: x - 5.0,
            lambda x, y: 1.0,
            lambda x, y: 2.0,
        )


def test_constructor_rejects_wrong_analytic_partials():
    good = model1()
    wrong = good.partials.__class__(
        fpx=lambda x, y: 1.0,  # true value is 0
        fpy=good.partials.fpy,
        fmx=good.partials.fmx,
        fmy=good.partials.fmy,
        gpx=good.partials.gpx,
        gpy=good.partials.gpy,
        gmx=good.partials.gmx,
        gmy=good.partials.gmy,
    )
    with pytest.raises(ConstructionError):
        SplitSystem(good.f_plus, good.f_minus, good.g_plus, good.g_minus,
                    partials=wrong)
    # partials that are neither None nor a Partials, named by their type
    for bad, kind in ((dataclasses.asdict(good.partials), "dict"), ("fpx", "str"), (0, "int")):
        with pytest.raises(ConstructionError,
                           match=rf"^partials must be a Partials or None, got {kind}$"):
            SplitSystem(good.f_plus, good.f_minus, good.g_plus, good.g_minus, partials=bad)


def test_components_vanishing_on_axis_are_accepted(stable_e1_system):
    # f_minus = x is zero along the y axis.  Boundary zeros are legal;
    # only interior zeros reject.
    fp, fm, gp, gm = stable_e1_system.components(0.0, 2.0)
    assert fm == 0.0


def test_from_selector_aliases():
    assert from_selector("model1").rma_params == model1().rma_params
    assert from_selector("model2").rma_params == model2().rma_params
    custom = from_selector("rma:2,1,1,0.2")
    assert custom.rma_params == model2().rma_params


def test_model_names_keep_every_parameter():
    # names feed CLI output file names, so two systems must never share one
    assert from_selector("rma:2,1,1,0.2").name == "rma-2-1-1-0.2"
    assert from_selector("rma:2,1,1,0.2000001").name == "rma-2-1-1-0.2000001"
    assert make_rosenzweig_macarthur(2.0, 1.0, 1.0, 0.2).name == "rma-2-1-1-0.2"
    assert make_rosenzweig_macarthur(2.0, 1.0, 1.0000001, 0.2).name == "rma-2-1-1.0000001-0.2"
    assert make_rosenzweig_macarthur(2.0, 1.0, 1.0, 0.2, name="m").name == "m"


def test_from_selector_error_modes():
    with pytest.raises(ValueError):
        from_selector("rma:1,2,3")  # arity
    with pytest.raises(ValueError):
        from_selector("rma:a,b,c,d")  # parse
    with pytest.raises(ConstructionError):
        from_selector("rma:2,-1,1,0.2")  # sign
    with pytest.raises(ValueError):
        from_selector("lotka")  # unknown name


def test_underflowing_partial_denominator_is_refused():
    # (c + x) * (c + x) underflows to 0 at x = 0, so the analytic fmx divides by zero
    with pytest.raises(ConstructionError,
                       match=r"^analytic partial fmx\(0, 0\) raised ZeroDivisionError: "):
        make_rosenzweig_macarthur(2.0, 1.0, 1e-170, 0.3)
    with pytest.raises(ConstructionError,
                       match=r"^analytic partial gpx\(0, 0\) = 1e\+150 disagrees"):
        make_rosenzweig_macarthur(2.0, 1.0, 1e-150, 0.3)


def test_component_that_raises_is_refused():
    with pytest.raises(ConstructionError,
                       match=r"^f_minus\(0, 0\) raised ZeroDivisionError: float division by zero$"):
        SplitSystem(lambda x, y: 1.0, lambda x, y: 1.0 / x,
                    lambda x, y: 1.0, lambda x, y: 1.0)


def test_component_that_turns_complex_is_refused():
    with pytest.raises(ConstructionError, match=r"^g_minus\(0, 0\) = \(.*j\) is complex$"):
        SplitSystem(lambda x, y: 1.0, lambda x, y: 1.0,
                    lambda x, y: 1.0, lambda x, y: (x - 1.0) ** 0.5)


def test_rma_params_promise_is_enforced():
    # the tag labels a system built by the factory from the family's
    # formulas, so only make_rosenzweig_macarthur may set it: it cannot be
    # passed or replaced in
    m2 = model2()
    with pytest.raises(TypeError, match="rma_params"):
        SplitSystem(m2.f_plus, m2.f_minus, m2.g_plus, m2.g_minus, partials=m2.partials,
                    rma_params=MODEL2_PARAMS)
    with pytest.raises(ValueError, match="rma_params"):
        dataclasses.replace(m2, rma_params=MODEL2_PARAMS)
    assert dataclasses.replace(m2, x_max=5.0).rma_params is None
    # other components construct without the tag: their own f_minus steps
    # the orbit, and the equilibrium search runs
    free = dataclasses.replace(m2, f_minus=lambda x, y: 1.0 * x + 0.5 * y, partials=None)
    assert free.rma_params is None
    x1 = integrate(free, NSFD, State(0.4, 0.4), 0.5, 0.5).xs[1]
    assert x1 == 0.4 * 1.5 / (1.0 + 0.5 * (0.4 + 0.2))
    assert [p.family for p in find_equilibria(free)] == ["O", "E3", "E1"]


# The scalar validation loops that construction ran before it checked whole
# arrays, plus the refusals added since: a call that raises
# ZeroDivisionError, OverflowError or ValueError, a complex value, and a
# partial that is not finite.  The array checkers must accept exactly the
# systems these accept and refuse the others with the same message.


def _oracle_call(where, fn, x, y):
    try:
        v = fn(x, y)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise ConstructionError(f"{where} raised {type(exc).__name__}: {exc}") from exc
    if not isinstance(v, numbers.Real):
        kind = "complex" if isinstance(v, complex) else "not a real number"
        raise ConstructionError(f"{where} = {v!r} is {kind}")
    return v


def _oracle_finite(v):
    # math.isfinite, for which an int beyond the float range is not finite
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _oracle_real(fn):
    # fn raising ValueError, as the evaluator's checked form on python
    # floats does, in place of a value that is not a real number
    def call(x, y):
        v = fn(x, y)
        if not isinstance(v, numbers.Real):
            raise ValueError(f"{v!r} is not a real number")
        return v
    return call


def _oracle_sign_structure(sys):
    nodes = np.linspace(0.0, sys.x_max, VALIDATION_GRID_N)
    labels = ("f_plus", "f_minus", "g_plus", "g_minus")
    comps = (sys.f_plus, sys.f_minus, sys.g_plus, sys.g_minus)
    for label, comp in zip(labels, comps):
        for x in nodes:
            for y in nodes:
                where = f"{label}({x:g}, {y:g})"
                v = _oracle_call(where, comp, float(x), float(y))
                if not _oracle_finite(v):
                    raise ConstructionError(f"{where} is not finite: {v!r}")
                if x > 0.0 and y > 0.0:
                    if not v > 0.0:
                        raise ConstructionError(
                            f"{where} = {v!r} must be strictly positive inside the quadrant"
                        )
                elif v < 0.0:
                    raise ConstructionError(
                        f"{where} = {v!r} must be non-negative on the quadrant boundary"
                    )


def _oracle_partials_consistency(sys, rtol=1e-5):
    nodes = np.linspace(0.0, sys.x_max, VALIDATION_GRID_N)[::7]
    analytic = [getattr(sys.partials, f) for f in PartialValues._fields]
    comps = (sys.f_plus, sys.f_minus, sys.g_plus, sys.g_minus)
    numeric = [fd for comp in map(_oracle_real, comps)
               for fd in (partial(_fd_x, comp), partial(_fd_y, comp))]
    for x in nodes:
        for y in nodes:
            for name, ana_fn, num_fn in zip(PartialValues._fields, analytic, numeric):
                at = f"{name}({x:g}, {y:g})"
                a = _oracle_call(f"analytic partial {at}", ana_fn, float(x), float(y))
                if not _oracle_finite(a):
                    raise ConstructionError(f"analytic partial {at} is not finite: {a!r}")
                n = _oracle_call(f"finite difference {at}", num_fn, float(x), float(y))
                if not _oracle_finite(n):
                    raise ConstructionError(f"finite difference {at} is not finite: {n!r}")
                if abs(a - n) > rtol * max(1.0, abs(a), abs(n)):
                    raise ConstructionError(
                        f"analytic partial {at} = {a!r} disagrees with finite difference {n!r}"
                    )


def _oracle_checks(system):
    _oracle_sign_structure(system)
    if system.partials is not None:
        _oracle_partials_consistency(system)


def _array_checks(system):
    calls = _kernels._Evaluator(system)
    nodes = np.linspace(0.0, system.x_max, VALIDATION_GRID_N)
    systems._check_sign_structure(calls, nodes)
    if system.partials is not None:
        systems._check_partials_consistency(calls, nodes[::7])


def _outcome(check, system):
    try:
        check(system)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@contextlib.contextmanager
def _unchecked():
    # build systems without validating them, so both checkers see the same one
    with mock.patch.object(SplitSystem, "__post_init__", lambda self: None):
        yield


def _assert_same_verdicts(system):
    # the system itself, its replace clone, and a clone with each callable
    # behind a call, which takes the per-node path
    with _unchecked():
        clone = dataclasses.replace(system)
        elem = per_element_clone(system)
    for s in (system, clone, elem):
        assert _outcome(_array_checks, s) == _outcome(_oracle_checks, s)


def _log10_uniform(lo, hi):
    # 10 ** u for u in [lo, hi]; the integer part spreads the draws over
    # every decade instead of clustering at simple values of u
    return st.tuples(st.integers(lo, hi - 1), st.floats(0.0, 1.0)).map(
        lambda t: 10.0 ** (t[0] + t[1]))


# (a, b, c, d, x_max): draws from ranges that construction accepts, and
# log-uniform draws over ranges that reach overflow, underflow and finite
# differences too coarse for the partials
_rma_draws = st.one_of(
    st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
              st.floats(0.01, 0.99), st.floats(1.0, 50.0)),
    st.tuples(_log10_uniform(-3, 308), _log10_uniform(-3, 3),
              _log10_uniform(-200, 1), _log10_uniform(-3, 1),
              _log10_uniform(-3, 4)),
)


@given(params=_rma_draws)
@example(params=(2.0, 1.0, 1e-170, 0.3, 20.0))
@example(params=(2.0, 1.0, 1e-150, 0.3, 20.0))
@example(params=(2.0, 1.0, 1.0, 0.2, 20.0))
@example(params=(1e308, 1.0, 1.0, 0.2, 20.0))
@equality_settings(60)
def test_array_checks_give_the_scalar_verdicts_for_the_builtin_family(params):
    *abcd, x_max = params
    with _unchecked():
        system = make_rosenzweig_macarthur(*abcd, x_max=x_max)
    _assert_same_verdicts(system)


# Construction through SplitSystem, whose checks run the compiled
# components and partials where all pass the array rule, against the
# scalar loops above.  Each field is a sum of positive terms, each term
# with its exact partials, over a coefficient k and a saturation constant
# s (closure cells c0, c1, globals G0, G1 or constants), so that most draws
# pass both checks; a drawn body of _rule_fields may replace one callable.
_TERMS = (
    ("{k}", "0.0", "0.0"),
    ("({k} * x)", "{k}", "0.0"),
    ("({k} * y)", "0.0", "{k}"),
    ("(({k} * x) * y)", "({k} * y)", "({k} * x)"),
    ("(({k} * x) / ({s} + x))", "({k} * ({s} / (({s} + x) * ({s} + x))))", "0.0"),
    ("(({k} * y) / ({s} + x))", "((-({k} * y)) / (({s} + x) * ({s} + x)))", "({k} / ({s} + x))"),
)
_COEFFICIENTS = st.sampled_from(["c0", "c1", "G0", "G1", "0.5", "2", "3.75"])


def _sum(texts):
    # the sum of the texts that are not the constant 0.0, in order
    texts = [t for t in texts if t != "0.0"] or ["0.0"]
    return texts[0] if len(texts) == 1 else f"({texts[0]} + {_sum(texts[1:])})"


@st.composite
def _split_bodies(draw):
    """Twelve bodies, the four fields and then their exact partials in
    PartialValues order, each of distinct terms, so that no sum adds two
    numbers (which the array rule refuses)."""
    fields, partials = [], []
    for _ in range(4):
        kinds = draw(st.lists(st.sampled_from(range(len(_TERMS))), min_size=1, max_size=3,
                              unique=True))
        terms = [[text.format(k=k, s=s) for text in _TERMS[i]]
                 for i, k, s in ((i, draw(_COEFFICIENTS), draw(_COEFFICIENTS)) for i in kinds)]
        fields.append(((), _sum([t[0] for t in terms])))
        partials += [((), _sum([t[1] for t in terms])), ((), _sum([t[2] for t in terms]))]
    return tuple(fields + partials)


_POSITIVE = st.one_of(st.floats(0.05, 4.0), st.integers(1, 4))


@given(bodies=_split_bodies(), cells=st.tuples(_POSITIVE, _POSITIVE),
       globs=st.tuples(_POSITIVE, _POSITIVE), with_partials=st.booleans(),
       swap=st.one_of(st.none(), st.tuples(st.integers(0, 11), _rule_fields(), _loop_scalars)),
       x_max=st.one_of(st.floats(0.5, 50.0), _log10_uniform(-320, 308)))
@example(bodies=(((), "c0"), ((), "(c1 * x)"), ((), "(x / (c0 + x))"), ((), "G0"),
                 ((), "(1e300 / (x + 1e-10))"), ((), "0.0"), ((), "c1"), ((), "0.0"),
                 ((), "(c0 / ((c0 + x) * (c0 + x)))"), ((), "0.0"), ((), "0.0"), ((), "0.0")),
         cells=(1.0, 2.0), globs=(0.5, 1.0), with_partials=True, swap=None, x_max=49.0).via(
    "an infinite analytic partial at the axis nodes, the first failing node")
@example(bodies=(((), "((x - c0) * (x - c0))"), ((), "c1"), ((), "G0"), ((), "G1"))
         + (((), "0.0"),) * 8,
         cells=(3, 1.0), globs=(0.5, 1.0), with_partials=False, swap=None, x_max=49.0).via(
    "a zero interior value")
@example(bodies=(((), "c0"), ((), "(x - c1)"), ((), "G0"), ((), "G1")) + (((), "0.0"),) * 8,
         cells=(1.0, 0.1), globs=(0.5, 1.0), with_partials=False, swap=None, x_max=20.0).via(
    "a value negative on an axis only")
@example(bodies=(((), "c0"), ((), "(1 / ((x - c1) * (x - c1)))"), ((), "G0"), ((), "G1"))
         + (((), "0.0"),) * 8,
         cells=(1.0, 3), globs=(0.5, 1.0), with_partials=False, swap=None, x_max=49.0).via(
    "a pole on a grid node")
@example(bodies=(((), "c0"), ((), "(c1 * x)"), ((), "(x / (c0 + x))"), ((), "G0"), ((), "0.0"),
                 ((), "0.0"), ((), "c1"), ((), "0.0"), ((), "(c0 / ((c0 + x) * (c0 + x)))"),
                 ((), "0.0"), ((), "0.0"), ((), "0.0")),
         cells=(1.0, 2.0), globs=(0.5, 1.0), with_partials=True, swap=None, x_max=5e-324).via(
    "an x_max whose second node underflows to 0")
@example(bodies=(((), "c0"), ((), "((c1 * x) * y)"), ((), "(x / (c0 + x))"), ((), "G0"),
                 ((), "0.0"), ((), "0.0"), ((), "(c1 * y)"), ((), "(c1 * x)"),
                 ((), "(c0 / ((c0 + x) * (c0 + x)))"), ((), "0.0"), ((), "0.0"), ((), "0.0")),
         cells=(1.0, 2.0), globs=(0.5, 1.0), with_partials=True, swap=None, x_max=1e200).via(
    "an x_max whose products overflow")
@example(bodies=(((), "(10 ** 400)"), ((), "(c1 * x)"), ((), "(x / (c0 + x))"), ((), "G0"))
         + (((), "0.0"),) * 8,
         cells=(1.0, 2.0), globs=(0.5, 1.0), with_partials=False, swap=None, x_max=5.0).via(
    "a field that gives an int beyond the float range")
@example(bodies=(((), "c0"), ((), "(c1 * x)"), ((), "(x / (c0 + x))"), ((), "G0"), ((), "0.0"),
                 ((), "(10 ** 400)"), ((), "c1"), ((), "0.0"),
                 ((), "(c0 / ((c0 + x) * (c0 + x)))"), ((), "0.0"), ((), "0.0"), ((), "0.0")),
         cells=(1.0, 2.0), globs=(0.5, 1.0), with_partials=True, swap=None, x_max=5.0).via(
    "an analytic partial that gives an int beyond the float range")
@equality_settings(60)
def test_construction_is_the_scalar_checks(bodies, cells, globs, with_partials, swap, x_max):
    # accepted, refused with the same message, or the same exception
    # propagated, whichever way the checks went
    space = dict(zip(("G0", "G1"), globs))
    fns = [_rule_field(body, cells, space) for body in bodies]
    if swap is not None:
        i, body, cell = swap
        fns[i] = _rule_field(body, (cell, cells[1]), dict(space))
    partials = Partials(*fns[4:]) if with_partials else None
    with _unchecked():
        unchecked = SplitSystem(*fns[:4], partials=partials, x_max=x_max)
    built = _outcome(lambda _: SplitSystem(*fns[:4], partials=partials, x_max=x_max), None)
    assert built == _outcome(_oracle_checks, unchecked)


@contextlib.contextmanager
def _unvalidated():
    # construct systems without the checks that refuse many wide draws
    with mock.patch.object(systems, "_check_sign_structure", lambda *args: None), \
            mock.patch.object(systems, "_check_partials_consistency", lambda *args: None):
        yield


def _bits(v):
    return type(v), np.asarray(v, dtype=float).tobytes()


_wide_floats = st.one_of(st.floats(), _log10_uniform(-300, 308), _log10_uniform(-300, 308).map(
    lambda v: -v))


@given(params=_rma_draws, points=st.lists(st.tuples(_wide_floats, _wide_floats),
                                          min_size=1, max_size=8))
@example(params=(2.0, 1.0, 1e-170, 0.3, 20.0), points=[(0.0, 0.0), (-1e-170, 1.0)])
@example(params=(1e308, 1.0, 1e-200, 0.3, 20.0), points=[(1e-200, 1e308), (-1e-200, 0.0)])
@equality_settings(80)
def test_the_compiled_step_is_the_step_of_the_single_closures(params, points):
    # a system of the built-in family has its four closures written into
    # the steps it compiles: the balances and the nsfd and rk4 steps give,
    # on floats and on arrays, the bits of the same text run over the
    # single closures, and on floats their exception where c + x == 0
    *abcd, x_max = params
    with _unvalidated():
        system = make_rosenzweig_macarthur(*abcd, x_max=x_max)
    calls = _kernels._Evaluator(system)
    assert calls.whole
    c = system.rma_params.c
    points = points + [(-c, y) for _, y in points] + [(-c, 0.0)]
    xs, ys = (np.array(v) for v in zip(*points))
    assert (c + xs == 0.0).any()
    for make, e in ((_BALANCES, None), _scheme_core(NSFD, 0.7), _scheme_core(RK4, 0.7)):
        compiled, single = calls.step(make, e), make(system.components, e)
        for x, y in points:
            try:
                got = tuple(map(_bits, compiled(x, y)))
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    single(x, y)
                continue
            assert got == tuple(map(_bits, single(x, y)))
        with np.errstate(all="ignore"):
            got, want = compiled(xs, ys), single(xs, ys)
        assert ([np.broadcast_to(v, xs.shape).tobytes() for v in got]
                == [np.broadcast_to(v, xs.shape).tobytes() for v in want])


def _fake_partials(**wrong):
    # model2's partials with some entries replaced
    return dataclasses.replace(model2().partials, **wrong)


# model2 with a component or partial replaced so that validation fails
_REFUSED = {
    "interior-negative f_minus": dict(
        f_minus=lambda x, y: y * ((x - 5.0) * (x - 5.0) - 1.0),
        match=r"^f_minus\(4\.08163, 0\.408163\) = -0\.0639\d* must be strictly positive inside"),
    "boundary-negative g_plus": dict(
        g_plus=lambda x, y: x - 1.0,
        match=r"^g_plus\(0, 0\) = -1\.0 must be non-negative on the quadrant boundary$"),
    "inf f_plus": dict(
        f_plus=lambda x, y: 1e308 * (x + 2.0),
        match=r"^f_plus\(0, 0\) is not finite: inf$"),
    "f_minus divides by zero": dict(
        f_minus=lambda x, y: 1.0 / x,
        match=r"^f_minus\(0, 0\) raised ZeroDivisionError"),
    "complex g_minus": dict(
        g_minus=lambda x, y: (x - 1.0) ** 0.5,
        match=r"^g_minus\(0, 0\) = .* is complex$"),
    "None f_minus": dict(
        f_minus=lambda x, y: None if x > 5.0 else x + 2.0 * y / (1.0 + x),
        match=r"^f_minus\(5\.30612, 0\) = None is not a real number$"),
    "str g_plus": dict(
        g_plus=lambda x, y: "odd" if y > 5.0 else x / (1.0 + x),
        match=r"^g_plus\(0, 5\.30612\) = 'odd' is not a real number$"),
    "str gpx": dict(
        partials=_fake_partials(
            gpx=lambda x, y: "odd" if y > 5.0 else 1.0 / ((1.0 + x) * (1.0 + x))),
        match=r"^analytic partial gpx\(0, 5\.71429\) = 'odd' is not a real number$"),
    # beyond the box, where only a finite difference at x = 20 samples it
    "None f_minus at a stencil point": dict(
        f_minus=lambda x, y: None if x > 20.0 else x + 2.0 * y / (1.0 + x),
        match=r"^finite difference fmx\(20, 0\) raised ValueError: None is not a real number$"),
    "str g_plus at a stencil point": dict(
        g_plus=lambda x, y: "odd" if y > 20.0 else x / (1.0 + x),
        match=r"^finite difference gpy\(0, 20\) raised ValueError: 'odd' is not a real number$"),
    "wrong fpx": dict(
        partials=_fake_partials(fpx=lambda x, y: 1.0),
        match=r"^analytic partial fpx\(0, 0\) = 1\.0 disagrees with finite difference 0\.0$"),
    "nan gmy": dict(
        partials=_fake_partials(gmy=lambda x, y: math.nan),
        match=r"^analytic partial gmy\(0, 0\) is not finite: nan$"),
    "gpx divides by zero": dict(
        partials=_fake_partials(gpx=lambda x, y: 1.0 / y),
        match=r"^analytic partial gpx\(0, 0\) raised ZeroDivisionError"),
    "g_minus raises ValueError": dict(
        g_minus=lambda x, y: math.sqrt(x - 1.0),
        match=r"^g_minus\(0, 0\) raised ValueError: math domain error$"),
    "f_plus raises OverflowError": dict(
        f_plus=lambda x, y: math.exp(1000.0 * (x + 1.0)),
        match=r"^f_plus\(0, 0\) raised OverflowError: math range error$"),
    # any other exception escapes as it is, from the first failing node
    "f_minus raises KeyError": dict(
        f_minus=lambda x, y: {}[x] if x > 1.0 else 1.0,
        error=KeyError, match=r"^1\.22448"),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_array_checks_give_the_scalar_verdicts_for_refused_systems(case):
    changes = dict(_REFUSED[case])
    match = changes.pop("match")
    error = changes.pop("error", ConstructionError)
    with _unchecked():
        system = dataclasses.replace(model2(), **changes)
    assert _outcome(_array_checks, system) == _outcome(_oracle_checks, system)
    with pytest.raises(error, match=match):
        _array_checks(system)
