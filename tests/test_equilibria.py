"""Equilibrium location, classification, and the two stability theories."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nsfd.equilibria
from nsfd import (
    ASYMPTOTICALLY_STABLE,
    EULER,
    MARGINAL,
    NSFD,
    RK2,
    RK4,
    UNSTABLE,
    EquilibriumPoint,
    FamilyMismatch,
    NotStableError,
    SplitSystem,
    State,
    classify_point,
    compare_schemes,
    continuous_eigs,
    critical_step_E3,
    detect_ghosts,
    discrete_eigs,
    ensfd,
    exponential_weight,
    field_jacobian,
    find_equilibria,
    jury_check,
    make_rosenzweig_macarthur,
    model1,
    model2,
    nsfd_map_jacobian,
    stability_report,
    step,
    vector_field,
)
from nsfd import _kernels
from nsfd.equilibria import AXIS_GRID_N, DEDUP_TOL, _axis_family, _first_positive_root
from nsfd.integrators import _scheme_core
from nsfd.systems import _FD_EPS, AXIS_ZERO_TOL, Partials
from oracles import (axis_family, distinct_points, equality_settings, per_element_clone,
                     point_bits, scalar_balance_newton, scalar_scan)

SQRT47_OVER_20 = math.sqrt(47.0) / 20.0


def test_classify_point_families():
    assert classify_point(0.0, 0.0) == "O"
    assert classify_point(3.0, 0.0) == "E1"
    assert classify_point(0.0, 0.25) == "E2"
    assert classify_point(0.25, 0.46875) == "E3"
    # coordinates below the axis threshold count as zero
    assert classify_point(5e-10, 3.0) == "E2"
    assert classify_point(1.0, 5e-10) == "E1"


def test_model1_equilibria():
    eqs = find_equilibria(model1())
    assert [(p.x, p.y, p.family) for p in eqs] == [(0.0, 0.0, "O"), (1.0, 0.0, "E1")]
    assert eqs.degenerate == ()


def test_model2_equilibria():
    eqs = find_equilibria(model2())
    assert len(eqs) == 3
    assert [p.family for p in eqs] == ["O", "E3", "E1"]
    p3 = eqs[1]
    assert p3.x == pytest.approx(0.25, abs=1e-12)
    assert p3.y == pytest.approx(0.46875, abs=1e-12)


def test_reported_equilibria_null_the_vector_field():
    for system in (model1(), model2()):
        for p in find_equilibria(system):
            vx, vy = vector_field(system, p.state)
            assert abs(vx) < 1e-12 and abs(vy) < 1e-12, (p, vx, vy)


def _axis_system(roots, form, hi):
    """A system whose balances on both axes are -c * (s - r0)...(s - r3),
    in s = x on the x axis and s = y on the y axis; unused roots sit at -1.
    Its validation grid is [0, 1e-3], where c keeps both losses above 1/2."""
    r0, r1, r2, r3 = (*roots, -1.0, -1.0, -1.0, -1.0)[:4]
    c = 0.0 if form == "flat" else 0.5 / math.prod(abs(r) + 1.0 for r in (r0, r1, r2, r3))
    if form in ("arrays", "flat"):  # plain arithmetic: the array rule holds
        on_x = lambda x, y: 1.0 + c * (x - r0) * (x - r1) * (x - r2) * (x - r3)
        on_y = lambda x, y: 1.0 + c * (y - r0) * (y - r1) * (y - r2) * (y - r3)
    else:  # a compare and a call: per element, nan above 0.6 hi or at one node
        cut = 0.6 * hi
        node = float(np.linspace(0.0, hi, AXIS_GRID_N + 1)[round(0.4 * AXIS_GRID_N)])

        def loss(s):
            if form == "nan_above" and s > cut or form == "nan_at_node" and s == node:
                return math.nan
            return 1.0 + c * (s - r0) * (s - r1) * (s - r2) * (s - r3)

        on_x, on_y = (lambda x, y: loss(x)), (lambda x, y: loss(y))
    return SplitSystem(lambda x, y: 1.0, on_x, lambda x, y: 1.0, on_y, name="axis",
                       x_max=1e-3)


_node_roots = st.integers(0, AXIS_GRID_N).map(lambda k: ("node", k))
_edge_roots = st.floats(0.97, 1.03).map(lambda f: ("frac", f))
_free_roots = st.floats(0.0, 1.2).map(lambda f: ("frac", f))


@given(picks=st.lists(st.one_of(_node_roots, _edge_roots, _free_roots), max_size=4),
       form=st.sampled_from(["arrays", "per_element", "nan_above", "nan_at_node", "flat"]),
       hi=st.one_of(st.sampled_from([1.0, 20.0]), st.floats(0.01, 50.0)),
       along_x=st.booleans())
@example(picks=[("node", 0), ("node", 37), ("node", AXIS_GRID_N)], form="arrays", hi=20.0,
         along_x=True).via("zeros at the origin, an inner node and the box edge")
@example(picks=[("frac", 0.999), ("frac", 0.25)], form="per_element", hi=7.3,
         along_x=False).via("a sign change in the last interval")
@example(picks=[("frac", 0.3), ("frac", 0.7), ("node", 81)], form="nan_at_node", hi=20.0,
         along_x=True).via("a nan node next to a zero node")
@example(picks=[("frac", 0.3), ("frac", 0.7), ("frac", 0.5)], form="nan_above", hi=20.0,
         along_x=False).via("nan nodes above a sign change")
@example(picks=[("frac", 0.3)], form="flat", hi=20.0, along_x=True).via("a degenerate axis")
@equality_settings(100)
def test_axis_brackets_give_the_every_interval_roots(picks, form, hi, along_x):
    nodes = np.linspace(0.0, hi, AXIS_GRID_N + 1)
    roots = [float(nodes[v]) if kind == "node" else v * hi for kind, v in picks]
    system = _axis_system(roots, form, hi)
    found, degenerate = _axis_family(system, along_x, hi)
    want, want_degenerate = axis_family(system, along_x, hi)
    assert ([r.hex() for r in found], degenerate) == ([r.hex() for r in want], want_degenerate)


@pytest.mark.parametrize("coef, families", [(0.02, ["O", "E3"]), (0.05, ["O", "E3", "E1"])])
def test_a_complex_axis_node_brackets_no_root(coef, families):
    # beyond x = 20.5 the loss, and so the balance on the x axis, is
    # complex: those nodes bracket no root, with no warning, and a box that
    # reaches past them finds the equilibria of one that stops short
    system = SplitSystem(lambda x, y: 1.0,
                         lambda x, y: coef * x + 0.1 * y + 0.01 * (20.5 - x) ** 0.5,
                         lambda x, y: 0.3 * x / (1.0 + x), lambda x, y: 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = find_equilibria(system, (60.0, 30.0))
    near = find_equilibria(system, (20.0, 30.0))
    assert [p.family for p in wide] == [p.family for p in near] == families
    for p, q in zip(wide, near):
        assert abs(p.x - q.x) <= 1e-12 and abs(p.y - q.y) <= 1e-12


def test_a_complex_midpoint_ends_its_bracket():
    # the balance 0.55 - x changes sign in the interval [0.54, 0.56] of a
    # 4-wide axis, but is complex within 1e-6 of its root, where the
    # bisection goes: the bracket ends without a root
    system = SplitSystem(lambda x, y: 1.0,
                         lambda x, y: 0.45 + x + 0.0 * (abs(x - 0.55) - 1e-6) ** 0.5,
                         lambda x, y: 1.0, lambda x, y: 0.5, x_max=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _axis_family(system, True, 4.0) == ([], False)


def test_a_value_that_is_not_real_at_a_midpoint_ends_its_bracket():
    # f_minus gives None on (2.045, 2.055), where the bisection of the E1
    # root 2.05 goes, and at no node that the construction checks or the
    # searches sample: None ends that bracket as a complex value does, and
    # the search gives the equilibria of the complex twin, O and (2, 1/20.5)
    def with_odd(odd):
        def f_minus(x, y):
            return odd if 2.045 < x < 2.055 else x / 2.05 + 0.5 * y

        return SplitSystem(lambda x, y: 1.0, f_minus, lambda x, y: 0.3 * x, lambda x, y: 0.6)

    eqs = find_equilibria(with_odd(None), (20.0, 20.0))
    assert point_bits(eqs) == point_bits(find_equilibria(with_odd(1j), (20.0, 20.0)))
    assert [p.family for p in eqs] == ["O", "E3"]
    assert eqs[1].x == pytest.approx(2.0) and eqs[1].y == pytest.approx(1.0 / 20.5)


def test_a_value_that_is_not_real_at_a_stencil_point_ends_the_polish():
    # f_minus gives None only within 1e-12 of 2.05 + _FD_EPS * 2.05, the
    # upper stencil point of the E1 root 2.05, where the polish takes its
    # slope by finite differences: the polish ends there, keeping the
    # bisected root, and the search gives O, E3 and E1
    stencil = 2.05 + _FD_EPS * 2.05

    def f_minus(x, y):
        return None if abs(x - stencil) < 1e-12 else 0.5 * x + 0.5 * y

    system = SplitSystem(lambda x, y: 1.025, f_minus, lambda x, y: 0.3 * x, lambda x, y: 0.6)
    eqs = find_equilibria(system, (20.0, 20.0))
    assert [p.family for p in eqs] == ["O", "E3", "E1"]
    assert (eqs[1].x, eqs[1].y) == (pytest.approx(2.0), pytest.approx(0.05))
    assert (eqs[2].x, eqs[2].y) == (pytest.approx(2.05, abs=1e-11), 0.0)


def test_a_root_on_a_grid_node_is_found_once():
    # the node ends one interval and starts the next; only the first takes it
    nodes = np.linspace(0.0, 20.0, AXIS_GRID_N + 1)
    system = _axis_system([float(nodes[37]), float(nodes[AXIS_GRID_N])], "arrays", 20.0)
    roots, degenerate = _axis_family(system, True, 20.0)
    assert not degenerate
    assert roots == [3.7, 20.0]


def test_axis_brackets_take_every_interval_of_an_int_balance():
    # a balance of python ints, 5e9 - 1 up to x = 5 and -2e9 above: its
    # product across the sign change wraps positive in int64
    system = SplitSystem(lambda x, y: 5 * 10 ** 9, lambda x, y: 7 * 10 ** 9 if x > 5.0 else 1,
                         lambda x, y: 1.0, lambda x, y: 2.0, name="int_balance")
    found = _axis_family(system, True, 20.0)
    assert found == axis_family(system, True, 20.0)
    assert len(found[0]) == 1 and abs(found[0][0] - 5.0) < 1e-4


def test_degenerate_axis_family_is_flagged_not_enumerated():
    # f_plus = f_minus everywhere on the x axis, so the whole axis is
    # equilibria.  The finder must flag the family instead of returning
    # grid-dependent points.
    system = SplitSystem(
        lambda x, y: 1.0,
        lambda x, y: 1.0 + y,
        lambda x, y: 0.5,
        lambda x, y: 1.0,
        name="degenerate_e1",
    )
    eqs = find_equilibria(system)
    assert "E1" in eqs.degenerate
    assert [p.family for p in eqs] == ["O"]
    # a point of the continuum is marginal: the balance has no slope there
    at = continuous_eigs(system, EquilibriumPoint(3.0, 0.0, "E1"))
    assert at.lambda1 == 0.0 and at.verdict == MARGINAL


def test_continuous_eigs_model1():
    m1 = model1()
    eqs = find_equilibria(m1)
    origin = continuous_eigs(m1, eqs[0])
    assert origin.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert origin.lambda2 == pytest.approx(-6.0, abs=1e-12)
    assert origin.verdict == UNSTABLE
    prey = continuous_eigs(m1, eqs[1])
    assert prey.lambda1 == pytest.approx(-1.0, abs=1e-12)
    assert prey.lambda2 == pytest.approx(-16.0 / 3.0, abs=1e-12)
    assert prey.verdict == ASYMPTOTICALLY_STABLE


def test_continuous_eigs_model2():
    m2 = model2()
    eqs = find_equilibria(m2)
    origin = continuous_eigs(m2, eqs[0])
    assert (origin.lambda1, origin.lambda2) == (pytest.approx(1.0), pytest.approx(-0.2))
    prey = continuous_eigs(m2, eqs[2])
    assert (prey.lambda1, prey.lambda2) == (pytest.approx(-1.0), pytest.approx(0.3))
    assert prey.verdict == UNSTABLE
    coex = continuous_eigs(m2, eqs[1])
    assert coex.lambda1 == pytest.approx(complex(-0.05, -SQRT47_OVER_20), abs=1e-9)
    assert coex.lambda2 == pytest.approx(complex(-0.05, +SQRT47_OVER_20), abs=1e-9)
    assert coex.verdict == ASYMPTOTICALLY_STABLE
    assert coex.T == pytest.approx(-0.1, abs=1e-12)
    assert coex.D == pytest.approx(0.12, abs=1e-12)


def test_continuous_eigs_agree_with_dense_eigensolver():
    # the closed forms must match numpy on the full Jacobian
    for system in (model1(), model2()):
        for p in find_equilibria(system):
            res = continuous_eigs(system, p)
            ref = sorted(np.linalg.eigvals(field_jacobian(system, p.state)),
                         key=lambda z: (z.real, z.imag))
            got = sorted([complex(res.lambda1), complex(res.lambda2)],
                         key=lambda z: (z.real, z.imag))
            for g, r in zip(got, ref):
                assert abs(g - r) < 1e-9


@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_jury_conditions_match_root_moduli(alpha, beta):
    # z^2 + alpha z + beta is Schur stable iff all three conditions hold.
    # Near-boundary draws are discarded: the two sides legitimately
    # disagree inside floating-point slack.
    margin = min(abs(1 + alpha + beta), abs(1 - alpha + beta), abs(1 - beta))
    assume(margin > 1e-6)
    roots = np.roots([1.0, alpha, beta])
    stable = bool(np.all(np.abs(roots) < 1.0))
    assert all(jury_check(alpha, beta)) == stable


def test_discrete_eigs_model1_frozen_values():
    m1 = model1()
    eqs = find_equilibria(m1)
    origin = discrete_eigs(m1, eqs[0], 0.1)
    assert origin.gamma1 == pytest.approx(1.1, rel=1e-14)
    assert origin.gamma2 == pytest.approx(0.625, rel=1e-14)
    assert origin.verdict == UNSTABLE
    prey = discrete_eigs(m1, eqs[1], 0.1)
    assert prey.gamma1 == pytest.approx(0.9090909090909091, rel=1e-13)
    assert prey.gamma2 == pytest.approx(0.6666666666666666, rel=1e-13)
    assert prey.jury == (True, True, True)
    assert prey.verdict == ASYMPTOTICALLY_STABLE


def test_discrete_multipliers_are_map_jacobian_eigenvalues():
    # the family formulas must agree with the spectrum of the actual
    # update-map Jacobian at the same point
    for system in (model1(), model2()):
        for p in find_equilibria(system):
            for h in (0.1, 0.5, 2.0):
                d = discrete_eigs(system, p, h)
                jac = nsfd_map_jacobian(system, p.state, h)
                ref = sorted(np.linalg.eigvals(jac), key=lambda z: (z.real, z.imag))
                got = sorted([complex(d.gamma1), complex(d.gamma2)],
                             key=lambda z: (z.real, z.imag))
                for g, r in zip(got, ref):
                    assert abs(g - r) < 1e-8, (system.name, p, h)


def test_map_jacobian_matches_finite_differences():
    m2 = model2()
    s = State(0.7, 0.9)
    h = 0.5
    jac = nsfd_map_jacobian(m2, s, h)
    eps = 1e-6

    def map_xy(x, y):
        nxt = step(m2, NSFD, State(x, y), h)
        return np.array([nxt.x, nxt.y])

    fd = np.column_stack([
        (map_xy(s.x + eps, s.y) - map_xy(s.x - eps, s.y)) / (2 * eps),
        (map_xy(s.x, s.y + eps) - map_xy(s.x, s.y - eps)) / (2 * eps),
    ])
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_map_jacobian_consistent_with_flow_linearisation():
    # (J(h) - I)/h converges to the vector-field Jacobian
    m1 = model1()
    s = State(0.7, 0.9)
    a = field_jacobian(m1, s)
    h = 1e-7
    approx = (nsfd_map_jacobian(m1, s, h) - np.eye(2)) / h
    assert np.allclose(approx, a, rtol=0, atol=1e-5)


def test_weighted_map_jacobian_is_substitution():
    m2 = model2()
    s = State(0.4, 0.8)
    w = exponential_weight(2.0)
    jw = nsfd_map_jacobian(m2, s, 0.5, weight=w)
    jp = nsfd_map_jacobian(m2, s, w.phi(0.5))
    assert np.allclose(jw, jp, rtol=1e-15, atol=0)


def test_trace_det_identity_at_coexistence_point():
    # 1 - T + D of the map equals e^2 det(A) / ((1+e f+)(1+e g+)); this is
    # what makes the discrete stability boundary land exactly where the
    # quadratic says it does.
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    cont = continuous_eigs(m2, p3)
    fp, _, gp, _ = m2.components(p3.x, p3.y)
    for h in (0.1, 0.5, 1.0, 2.0):
        jac = nsfd_map_jacobian(m2, p3.state, h)
        t_phi = float(np.trace(jac))
        d_phi = float(np.linalg.det(jac))
        lhs = 1.0 - t_phi + d_phi
        rhs = h * h * cont.D / ((1.0 + h * fp) * (1.0 + h * gp))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_critical_step_frozen_value():
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    crit = critical_step_E3(m2, p3)
    assert crit.bound == pytest.approx(1.0, abs=1e-9)
    assert crit.binding_condition == "c"
    assert math.isinf(crit.bound_a)
    assert crit.bound_c == pytest.approx(1.0, abs=1e-9)


def test_critical_step_is_sharp():
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    below = discrete_eigs(m2, p3, 0.99)
    at = discrete_eigs(m2, p3, 1.0)
    above = discrete_eigs(m2, p3, 1.01)
    assert below.verdict == ASYMPTOTICALLY_STABLE
    assert max(abs(below.gamma1), abs(below.gamma2)) < 1.0
    assert at.verdict == MARGINAL
    assert above.verdict == UNSTABLE
    assert max(abs(above.gamma1), abs(above.gamma2)) > 1.0


@given(a2=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), a1=st.floats(-10.0, 10.0),
       a0=st.floats(0.1, 10.0))
@example(a2=0.0, a1=-2.0, a0=4.0).via("a falling line, root 2")
@example(a2=1.0, a1=-5.0, a0=4.0).via("two positive roots, 1 and 4")
@example(a2=-1.0, a1=0.0, a0=4.0).via("opening downward, roots -2 and 2")
@example(a2=1.0, a1=1.0, a0=4.0).via("no real root")
@settings(max_examples=300, deadline=None)
def test_first_positive_root_is_the_least_positive_real_root(a2, a1, a0):
    # condition "a" never binds for the family (at a stable E3, a2 and a1
    # are positive), so only this property runs the finite branches.  A
    # near-double root is real or not by rounding, and is discarded.
    assume(all(v == 0.0 or abs(v) > 1e-3 for v in (a2, a1)))
    assume(a2 == 0.0 or abs(a1 * a1 - 4.0 * a2 * a0) > 1e-6 * (a1 * a1 + abs(4.0 * a2 * a0)))
    roots = np.roots([a2, a1, a0])
    want = min((r.real for r in roots if r.imag == 0.0 and r.real > 0.0), default=math.inf)
    assert _first_positive_root(a2, a1, a0) == pytest.approx(want, rel=1e-8)


def test_critical_step_requires_interior_family():
    m1 = model1()
    prey = find_equilibria(m1)[1]
    with pytest.raises(FamilyMismatch):
        critical_step_E3(m1, prey)


def test_critical_step_requires_continuous_stability():
    # small half-saturation pushes the coexistence point into the unstable
    # range, where no step bound is defined; the search box is sized to the
    # scale the dynamics actually live at
    system = make_rosenzweig_macarthur(2.0, 1.0, 0.2, 1.0 / 3.0, x_max=2.0)
    eqs = find_equilibria(system)
    coex = [p for p in eqs if p.family == "E3"]
    assert len(coex) == 1
    assert continuous_eigs(system, coex[0]).verdict == UNSTABLE
    with pytest.raises(NotStableError):
        critical_step_E3(system, coex[0])


def test_synthetic_boundary_points_are_found(stable_e1_system, stable_e2_system,
                                             sink_origin_system):
    e1 = find_equilibria(stable_e1_system)
    assert [(p.x, p.y, p.family) for p in e1] == [(0.0, 0.0, "O"), (1.0, 0.0, "E1")]
    e2 = find_equilibria(stable_e2_system)
    assert [(p.x, p.y, p.family) for p in e2] == [(0.0, 0.0, "O"), (0.0, 1.0, "E2")]
    o = find_equilibria(sink_origin_system)
    assert [(p.x, p.y, p.family) for p in o] == [(0.0, 0.0, "O")]
    assert continuous_eigs(stable_e1_system, e1[1]).verdict == ASYMPTOTICALLY_STABLE
    assert continuous_eigs(stable_e2_system, e2[1]).verdict == ASYMPTOTICALLY_STABLE
    assert continuous_eigs(sink_origin_system, o[0]).verdict == ASYMPTOTICALLY_STABLE


def test_boundary_multipliers_have_closed_forms(stable_e1_system):
    # E1 at (1, 0): gamma1 = 1 - e/(1+e), gamma2 = (1 + e/2)/(1 + e)
    p = find_equilibria(stable_e1_system)[1]
    for h in (0.01, 1.0, 50.0):
        d = discrete_eigs(stable_e1_system, p, h)
        assert d.gamma1 == pytest.approx(1.0 - h / (1.0 + h), rel=1e-9)
        assert d.gamma2 == pytest.approx((1.0 + 0.5 * h) / (1.0 + h), rel=1e-9)
        assert d.verdict == ASYMPTOTICALLY_STABLE


def test_stability_report_payload():
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    rep = stability_report(m2, p3, hs=(0.5, 2.0))
    assert rep["family"] == "E3"
    assert rep["continuous"]["verdict"] == ASYMPTOTICALLY_STABLE
    assert rep["continuous"]["lambda1"] == {
        "re": pytest.approx(-0.05), "im": pytest.approx(-SQRT47_OVER_20)}
    assert [d["h"] for d in rep["discrete"]] == [0.5, 2.0]
    assert rep["discrete"][0]["verdict"] == ASYMPTOTICALLY_STABLE
    assert rep["discrete"][1]["verdict"] == UNSTABLE
    assert rep["critical_step"]["bound"] == pytest.approx(1.0, abs=1e-9)
    assert rep["critical_step"]["bound_a"] == "unbounded"
    assert rep["critical_step"]["binding_condition"] == "c"


def test_stability_report_skips_critical_step_off_family():
    m1 = model1()
    prey = find_equilibria(m1)[1]
    rep = stability_report(m1, prey, hs=(0.1,))
    assert rep["critical_step"] is None
    assert rep["discrete"][0]["verdict"] == ASYMPTOTICALLY_STABLE


def test_weighted_discrete_eigs_use_the_effective_step():
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    w = exponential_weight(2.0)
    dw = discrete_eigs(m2, p3, 4.0, weight=w)
    dp = discrete_eigs(m2, p3, w.phi(4.0))
    assert dw.gamma1 == pytest.approx(dp.gamma1, rel=1e-14)
    assert dw.gamma2 == pytest.approx(dp.gamma2, rel=1e-14)
    # phi caps at 1/lambda = 0.5 < 1 = critical step, so the weighted
    # scheme keeps the coexistence point stable at any h
    for h in (1.0, 10.0, 1e3):
        assert discrete_eigs(m2, p3, h, weight=w).verdict == ASYMPTOTICALLY_STABLE


def _recording_clone(system):
    """system without analytic partials, its four components recording
    each call (component, x, y) in a list, which is returned too."""
    calls = []

    def recorded(k, fn):
        def call(x, y):
            calls.append((k, x, y))
            return fn(x, y)
        return call

    fields = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
    return SplitSystem(*(recorded(k, fn) for k, fn in enumerate(fields)), name=system.name,
                       x_max=system.x_max), calls


def test_a_stability_report_evaluates_each_point_once():
    # the continuous verdict, every discrete verdict and the critical step
    # of a report read one evaluation of the point: the calls of one
    # continuous_eigs, four components and the finite differences, central
    # or one-sided on the axes
    system, calls = _recording_clone(model2())
    counts = {}
    for p in find_equilibria(system):
        calls.clear()
        continuous_eigs(system, p)
        one = list(calls)
        for weight in (None, exponential_weight(2.0)):
            calls.clear()
            stability_report(system, p, (0.1, 1.0, 5.0), weight)
            assert calls == one, (p, weight)
        counts[p.family] = len(one)
    assert counts == {"O": 28, "E3": 20, "E1": 24}


def _z(c):
    return complex(c["re"], c["im"])


def _bound(v):
    return math.inf if v == "unbounded" else v


_report_hs = st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0]) | st.floats(0.01, 20.0),
                      max_size=3)


@given(p=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 2.0),
                   st.floats(0.02, 0.9)), hs=_report_hs)
@example(p=(2.0, 1.0, 1.0, 0.2), hs=[0.5, 2.0]).via("model2, stable E3 with a critical step")
@example(p=(2.0, 1.0, 0.5, 6.0), hs=[0.1]).via("model1, no coexistence point")
@equality_settings(30)
def test_a_stability_report_holds_the_closed_forms(p, hs):
    # every field of a report is, by ==, the field of continuous_eigs,
    # discrete_eigs at its h (with and without a weight) or critical_step_E3,
    # on the family and on a per-element clone with the same bits
    base = make_rosenzweig_macarthur(*p, x_max=5.0)
    for system in (base, per_element_clone(base)):
        for point in find_equilibria(base):
            cont = continuous_eigs(system, point)
            try:
                crit = dataclasses.astuple(critical_step_E3(system, point))
            except (FamilyMismatch, NotStableError):
                crit = None
            for weight in (None, exponential_weight(2.0)):
                rep = stability_report(system, point, tuple(hs), weight)
                assert rep["point"] == {"x": point.x, "y": point.y}
                assert rep["family"] == point.family
                c = rep["continuous"]
                assert (_z(c["lambda1"]), _z(c["lambda2"]), c["T"], c["D"],
                        c["verdict"]) == dataclasses.astuple(cont)
                assert [(d["h"], _z(d["gamma1"]), _z(d["gamma2"]), tuple(d["jury"]), d["verdict"])
                        for d in rep["discrete"]] == [
                    dataclasses.astuple(discrete_eigs(system, point, h, weight)) for h in hs]
                cs = rep["critical_step"]
                assert crit == (cs and (_bound(cs["bound"]), cs["binding_condition"],
                                        _bound(cs["bound_a"]), _bound(cs["bound_c"]),
                                        cs["T"], cs["D"], cs["C"]))


@pytest.mark.parametrize("weight", [None, exponential_weight(2.0)], ids=["plain", "weighted"])
@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_discrete_analysis_refuses_a_bad_step(weight, bad):
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    match = "step size must be positive and finite"
    with pytest.raises(ValueError, match=match):
        discrete_eigs(m2, p3, bad, weight)
    with pytest.raises(ValueError, match=match):
        nsfd_map_jacobian(m2, p3.state, bad, weight)
    with pytest.raises(ValueError, match=match):
        stability_report(m2, p3, (0.5, bad), weight)


# ---------------------------------------------------------------------------
# the per-system store of equilibrium searches


@pytest.fixture
def search_count(monkeypatch):
    """Count the searches that find_equilibria actually runs."""
    calls = []
    search = nsfd.equilibria._search

    def counted(system, bx, by):
        calls.append((system.name, bx, by))
        return search(system, bx, by)

    monkeypatch.setattr(nsfd.equilibria, "_search", counted)
    return calls


def test_one_search_serves_every_analysis_of_a_system(search_count):
    m2 = model2()
    eqs = find_equilibria(m2)
    detect_ghosts(m2, NSFD, 2.0, seeds_per_axis=12)
    compare_schemes(m2, [NSFD, RK4], State(0.4, 0.4), [0.5], 5.0)
    assert find_equilibria(m2, (20, 20.0)) is eqs
    assert search_count == [("model2", 20.0, 20.0)]

    # another box is another search, remembered in its turn
    small = find_equilibria(m2, (5.0, 5.0))
    assert find_equilibria(m2, (5.0, 5.0)) is small
    assert search_count == [("model2", 20.0, 20.0), ("model2", 5.0, 5.0)]


def test_stored_result_is_bitwise_a_fresh_search():
    m2 = model2()
    first = find_equilibria(m2)
    assert find_equilibria(m2) is first
    assert point_bits(find_equilibria(model2())) == point_bits(first)


def test_store_is_invisible_to_equality_hash_and_repr(search_count):
    m2 = model2()
    twin = dataclasses.replace(m2)
    before = (hash(m2), repr(m2))
    find_equilibria(m2)
    assert (hash(m2), repr(m2)) == before
    assert m2 == twin and hash(twin) == hash(m2)
    # the replaced system starts with an empty store of its own
    find_equilibria(twin)
    assert len(search_count) == 2


# ---------------------------------------------------------------------------
# the batched Newton searches against the seed-by-seed oracles


def _oracle_search(system, box):
    """find_equilibria's search with the seed-by-seed interior Newton."""
    def oracle(system, xs, ys, escape, calls):
        return scalar_balance_newton(system, xs, ys, escape)

    with mock.patch.object(nsfd.equilibria, "_balance_newton", oracle):
        return nsfd.equilibria._search(system, *box)


@given(a=st.floats(0.2, 4.0), b=st.floats(0.2, 3.0), c=st.floats(0.2, 3.0),
       d=st.floats(0.02, 0.95), bx=st.floats(0.3, 30.0), by=st.floats(0.3, 30.0))
@equality_settings(30)
def test_batched_interior_search_is_the_scalar_search(a, b, c, d, bx, by):
    system = make_rosenzweig_macarthur(a, b, c, d)
    clone = dataclasses.replace(system)
    oracle = point_bits(_oracle_search(system, (bx, by)))
    assert point_bits(find_equilibria(system, (bx, by))) == oracle
    assert point_bits(find_equilibria(clone, (bx, by))) == oracle

    # off-quadrant seeds too, with a column on x = -c, the zero of c + x
    xs = np.append(np.linspace(-2.0 * c, bx, 7), -c)
    ys = np.linspace(-1.0, by, 7)
    escape = 10.0 * (bx + by)
    scalar = _hex(scalar_balance_newton(system, xs, ys, escape))
    assert _hex(nsfd.equilibria._balance_newton(system, xs, ys, escape)) == scalar
    assert _hex(nsfd.equilibria._balance_newton(clone, xs, ys, escape)) == scalar


def _hex(points):
    return [(x.hex(), y.hex()) for x, y in points]


# candidate coordinates: zeros of both signs, values on, within and just
# past AXIS_ZERO_TOL of an axis, and a spread that reaches past the box
_CANDIDATE_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-10, -5e-10, AXIS_ZERO_TOL, -AXIS_ZERO_TOL,
                     math.nextafter(AXIS_ZERO_TOL, 0.0), 1.0, 2.5]),
    st.floats(-1.0, 6.0))
# steps along a chain a-b-c: at 0.6 DEDUP_TOL, |a - b| and |b - c| are
# within the tolerance and |a - c| is not
_CHAIN_STEPS = st.sampled_from([0.0, 0.3 * DEDUP_TOL, 0.6 * DEDUP_TOL, -0.6 * DEDUP_TOL,
                                DEDUP_TOL, 2.0 * DEDUP_TOL])


@st.composite
def _search_candidates(draw):
    bx, by = draw(st.sampled_from([1.0, 2.5, 5.0]) | st.floats(0.5, 6.0)), draw(
        st.sampled_from([1.0, 2.5, 5.0]) | st.floats(0.5, 6.0))
    edge = 1e-9 * (1.0 + max(bx, by))
    coords = _CANDIDATE_COORDS | st.sampled_from([bx, bx + 0.5 * edge, bx + 2.0 * edge, by,
                                                  by + edge])
    candidates = []
    for _ in range(draw(st.integers(1, 10))):
        x, y = draw(coords), draw(coords)
        candidates.append((x, y))
        shape = draw(st.sampled_from(["one", "twins", "flipped zeros", "chain"]))
        if shape == "twins":
            candidates += [(x, y)] * draw(st.integers(1, 3))
        elif shape == "flipped zeros":
            candidates.append((-x if x == 0.0 else x, -y if y == 0.0 else y))
        elif shape == "chain":
            dx, dy = draw(_CHAIN_STEPS), draw(_CHAIN_STEPS)
            candidates += [(x + dx, y + dy), (x + 2.0 * dx, y + 2.0 * dy)]
    return draw(st.permutations(candidates)), bx, by


@given(case=_search_candidates())
@example(case=([(1.0, 1.0), (1.0 + 0.6e-7, 1.0), (1.0 + 1.2e-7, 1.0), (1.0, 1.0),
                (0.0, 2.0), (-0.0, 2.0), (5e-10, 3.0), (-5e-10, -0.0), (0.0, 0.0)], 5.0, 5.0))
@example(case=([(-0.0, 0.5), (0.0, 0.5), (2.5, 1e-9), (2.5, -1e-9)], 2.5, 2.5))
@equality_settings(300)
def test_distinct_points_are_the_candidate_by_candidate_loop(case):
    # collapsing exact duplicates first keeps every bit of the loop over
    # all candidates: snapping, box filter, sort, dedup against the last
    # point kept
    candidates, bx, by = case
    got = nsfd.equilibria._distinct_points(candidates, bx, by)
    assert all(type(v) is float for point in got for v in point)
    assert _hex(got) == _hex(distinct_points(candidates, bx, by))


# extra loss terms of the callable systems below, each failing a seed off
# the quadrant in its own way
_TWISTS = {
    "none": lambda x, y: 0.0,
    "pole": lambda x, y: 0.1 * y / (0.7 + x),      # ZeroDivisionError at x = -0.7
    "power": lambda x, y: 1e-3 * x ** 2,           # OverflowError beyond |x| ~ 1e154
    "sqrt": lambda x, y: 0.1 * math.sqrt(x),       # ValueError for x < 0
    "root": lambda x, y: 0.1 * x ** 0.5,           # complex for x < 0
}


def _callable_system(kind, p, twist):
    """A callable clone of the RMA draw p, or a competitive Lotka-Volterra
    system (r1, r2 from a, b; a11, a12, a21, a22 from c, d), with the
    twist added to its prey loss.  The "rma-partials" clone keeps the
    family's analytic partials and adds 0.0 times the twist to fmx, so its
    components are the family's and only that partial fails off the
    quadrant."""
    a, b, c, d = p
    extra = _TWISTS[twist]
    if kind == "rma-partials":
        base = make_rosenzweig_macarthur(a, b, c, d, x_max=5.0)
        fmx = lambda x, y: base.partials.fmx(x, y) + 0.0 * extra(x, y)
        partials = dataclasses.replace(base.partials, fmx=fmx)
        return dataclasses.replace(base, partials=partials)
    if kind == "rma":
        base = make_rosenzweig_macarthur(a, b, c, d, x_max=5.0)
        f_minus = lambda x, y: base.f_minus(x, y) + extra(x, y)
        return SplitSystem(base.f_plus, f_minus, base.g_plus, base.g_minus, x_max=5.0)
    f_minus = lambda x, y: c * x + d * y + extra(x, y)
    return SplitSystem(lambda x, y: a, f_minus, lambda x, y: b,
                       lambda x, y: d * x + c * y, x_max=5.0)


@given(kind=st.sampled_from(["rma", "rma-partials", "lv"]), twist=st.sampled_from(sorted(_TWISTS)),
       p=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 2.0),
                   st.floats(0.05, 0.9)),
       scheme=st.sampled_from([NSFD, EULER, RK2, RK4]), h=st.floats(0.05, 4.0),
       gx=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=4),
       gy=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=4),
       box=st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 8.0)))
@example(kind="lv", twist="pole", p=(1.0, 0.8, 1.0, 0.5), scheme=EULER, h=0.5,
         gx=[1.0], gy=[0.5, 2.0], box=(5.0, 5.0)).via("ZeroDivisionError")
@example(kind="rma", twist="power", p=(2.0, 1.0, 1.0, 0.2), scheme=NSFD, h=0.5,
         gx=[1.0], gy=[0.5], box=(5.0, 5.0)).via("OverflowError")
@example(kind="lv", twist="sqrt", p=(1.0, 0.8, 1.0, 0.5), scheme=RK2, h=0.5,
         gx=[-1.0, 1.0], gy=[0.5], box=(2.0, 7.0)).via("ValueError")
@example(kind="rma", twist="root", p=(2.0, 1.0, 1.0, 0.2), scheme=EULER, h=1.0,
         gx=[-1.0, 0.5], gy=[0.5], box=(2.0, 7.0)).via("complex")
@example(kind="lv", twist="sqrt", p=(1.0, 0.8, 1.0, 0.5), scheme=RK4, h=0.5,
         gx=[-1.0, 1.0], gy=[0.5], box=(2.0, 7.0)).via("a stage-1 raise in rk4")
@example(kind="rma", twist="root", p=(2.0, 1.0, 1.0, 0.2), scheme=RK2, h=0.5,
         gx=[-1.0, 0.5], gy=[0.5], box=(2.0, 7.0)).via("a stage-1 complex value in rk2")
@example(kind="rma-partials", twist="sqrt", p=(2.0, 1.0, 1.0, 0.2), scheme=NSFD, h=0.5,
         gx=[-1.0, 0.5], gy=[0.5], box=(2.0, 7.0)).via("a raise in an analytic partial")
@example(kind="rma-partials", twist="root", p=(2.0, 1.0, 1.0, 0.2), scheme=NSFD, h=0.5,
         gx=[-1.0, 0.5], gy=[0.5], box=(2.0, 7.0)).via("a complex analytic partial")
@equality_settings(30)
def test_callable_searches_are_the_seed_by_seed_searches(kind, twist, p, scheme, h, gx, gy,
                                                         box):
    # seeds off the quadrant, on both poles x = -c and x = -0.7, and where
    # x ** 2 overflows; in rk2 and rk4 a stage can drop a seed that an
    # earlier stage kept, and the later stages skip a dropped seed
    system = _callable_system(kind, p, twist)
    xs = np.array(gx + [-p[2], -0.7, 1e160])
    ys = np.array(gy)
    assert point_bits(find_equilibria(system, box)) == point_bits(_oracle_search(system, box))
    escape = 10.0 * (box[0] + box[1])
    assert (_hex(nsfd.equilibria._balance_newton(system, xs, ys, escape))
            == _hex(scalar_balance_newton(system, xs, ys, escape)))
    sx, sy = [g.ravel() for g in np.meshgrid(xs, ys, indexing="ij")]
    make, e = _scheme_core(scheme, h)
    rows = _kernels.scan_fixed_points(system, make, e, sx, sy)
    assert rows.tobytes() == scalar_scan(make(system.components, e), sx, sy).tobytes()


def test_a_zero_divisor_under_a_whole_array_balance_drops_the_seed():
    # at x = -c, y / (1 + y / (c + x)) is y / inf = 0 on arrays, so the
    # balances are finite there, while the scalar call raises
    # ZeroDivisionError; the divide flag sends that call per seed, and the
    # seeds on x = -c are dropped, as in the seed-by-seed search, rather
    # than run on to the coexistence point
    c = 0.5
    comps = (lambda x, y: 1.0, lambda x, y: 0.2 * x + 2.0 * y / (1.0 + y / (c + x)),
             lambda x, y: 0.6, lambda x, y: 0.2 + 0.4 * x + 0.1 * y)
    system = SplitSystem(*comps, x_max=4.0)
    assert all(map(_kernels._plain_arithmetic, comps))
    with np.errstate(divide="ignore"):
        rx, ry = nsfd.equilibria._balance(system.components)(np.array([-c]), np.array([1.0]))
    assert np.isfinite(rx).all() and np.isfinite(ry).all()
    with pytest.raises(ZeroDivisionError):
        nsfd.equilibria._balance(system.components)(-c, 1.0)
    xs, ys = np.array([-c, 0.5, 2.0]), np.array([0.5, 1.0, 3.0])
    found = _hex(nsfd.equilibria._balance_newton(system, xs, ys, 60.0))
    assert found and found == _hex(scalar_balance_newton(system, xs, ys, 60.0))


def test_a_guard_behind_a_dropping_component_is_never_reached():
    # f_plus raises ValueError off the quadrant, and g_minus, called after
    # it, guards the same points with a KeyError that no search drops: the
    # seed-by-seed searches stop at the ValueError and never reach the
    # guard, nor do the searches on arrays, in any stage, at any point of a
    # stencil or probe, or in a later residual.  Both make the same calls.
    calls = []

    def recorded(k, fn):
        def call(x, y):
            calls.append((k, float(x).hex(), float(y).hex()))
            return fn(x, y)
        return call

    def g_minus(x, y):
        if x < 0.0:
            raise KeyError(x)
        return 0.4 * x + y

    def run(search):  # what search() returns, and the calls it made
        calls.clear()
        return search(), sorted(calls)

    system = SplitSystem(*(recorded(k, fn) for k, fn in enumerate((
        lambda x, y: 1.0 + 0.1 * math.sqrt(x), lambda x, y: x * x + 0.5 * y,
        lambda x, y: 0.8, g_minus))), x_max=3.0)
    assert point_bits(find_equilibria(system)) == point_bits(_oracle_search(system, (3.0, 3.0)))
    xs = np.array([-1.0, -1e-7, 0.0, 1e-7, 0.5, 2.0, 3.0])
    ys = np.array([0.0, 0.5, 2.0])
    on_arrays = run(lambda: _hex(nsfd.equilibria._balance_newton(system, xs, ys, 60.0)))
    assert on_arrays == run(lambda: _hex(scalar_balance_newton(system, xs, ys, 60.0)))
    sx, sy = [g.ravel() for g in np.meshgrid(xs, ys, indexing="ij")]
    for scheme in (NSFD, EULER, RK2, RK4):
        for h in (0.1, 1.0, 3.0):
            make, e = _scheme_core(scheme, h)
            rows, on_arrays = run(
                lambda: _kernels.scan_fixed_points(system, make, e, sx, sy).tobytes())
            oracle, seed_by_seed = run(lambda: scalar_scan(
                make(system.components, e), sx, sy).tobytes())
            assert rows == oracle and on_arrays == seed_by_seed


@pytest.mark.parametrize("twist,exc", [("pole", ZeroDivisionError), ("power", OverflowError),
                                       ("sqrt", ValueError), ("root", None)])
def test_each_twist_fails_a_seed_in_its_own_way(twist, exc):
    # the explicit examples above meet the drop they are named after
    x = {"pole": -0.7, "power": 1e160, "sqrt": -1.0, "root": -1.0}[twist]
    if exc is None:
        assert isinstance(_TWISTS[twist](x, 0.5), complex)
    else:
        with pytest.raises(exc):
            _TWISTS[twist](x, 0.5)


def _quadratic_system(f_minus=lambda x, y: x * x + 0.5 * y, fmx=lambda x, y: 2.0 * x):
    """f+ = 1, f- = x^2 + y/2, g+ = 0.8, g- = 0.4 x + y, with analytic
    partials; its coexistence point is x = 0.1 + sqrt(0.61), y = 0.8 - 0.4 x."""
    one = lambda x, y: 1.0
    zero = lambda x, y: 0.0
    partials = Partials(fpx=zero, fpy=zero, fmx=fmx, fmy=lambda x, y: 0.5,
                        gpx=zero, gpy=zero, gmx=lambda x, y: 0.4, gmy=one)
    return SplitSystem(one, f_minus, lambda x, y: 0.8, lambda x, y: 0.4 * x + y,
                       partials=partials, x_max=3.0)


@pytest.mark.parametrize("site", ["balance", "partial"])
def test_a_raise_drops_the_best_iterate(site):
    # the component or partial raises only where the balance residual is
    # tiny but not zero, after the seed has recorded a best iterate below
    # BALANCE_TOL; the seed-by-seed rule drops that iterate with the seed
    traps = []

    def trapped(value):
        def fn(x, y):
            res = max(abs(1.0 - (x * x + 0.5 * y)), abs(0.8 - (0.4 * x + y)))
            if 0.0 < res < (1e-13 if site == "balance" else 1e-11):
                traps.append((x, y))
                raise ValueError("trap")
            return value(x, y)
        return fn

    plain = _quadratic_system()
    if site == "balance":
        system = _quadratic_system(f_minus=trapped(plain.f_minus))
    else:
        system = _quadratic_system(fmx=trapped(plain.partials.fmx))
    xs = np.linspace(0.0, 3.0, 42)[1:-1]
    batched = nsfd.equilibria._balance_newton(system, xs, xs, 60.0)
    assert traps
    assert _hex(batched) == _hex(scalar_balance_newton(system, xs, xs, 60.0))
    assert point_bits(find_equilibria(system)) == point_bits(_oracle_search(system, (3.0, 3.0)))


def test_a_complex_partial_drops_the_seed():
    # an analytic partial that turns complex off the quadrant fails only
    # that seed; the seed-by-seed loop raised TypeError from math.isfinite
    system = _quadratic_system(fmx=lambda x, y: 2.0 * x if x >= -1.0 else complex(2.0 * x))
    found = nsfd.equilibria._balance_newton(system, np.array([-2.0, 1.0]), np.array([0.5]), 60.0)
    assert found == nsfd.equilibria._balance_newton(system, np.array([1.0]), np.array([0.5]), 60.0)
    x = 0.1 + math.sqrt(0.61)
    assert found[0] == pytest.approx((x, 0.8 - 0.4 * x))


def test_other_exceptions_propagate_from_both_searches():
    # a KeyError is a bug in the component, not a failed seed; the
    # component raises only inside the open quadrant once armed, which only
    # the searches (not the axis bracketing, with analytic partials) reach
    armed = []

    def f_minus(x, y):
        if armed and x > 0.0 and y > 0.0:
            raise KeyError("component bug")
        return x * x + 0.5 * y

    system = _quadratic_system(f_minus=f_minus)
    armed.append(True)
    with pytest.raises(KeyError, match="component bug"):
        find_equilibria(system)
    with pytest.raises(KeyError, match="component bug"):
        detect_ghosts(system, NSFD, 0.5, seeds_per_axis=5)
    xs = np.array([1.0, 2.0])
    with pytest.raises(KeyError, match="component bug"):
        nsfd.equilibria._balance_newton(system, xs, xs, 100.0)
    make, e = _scheme_core(RK2, 0.5)
    with pytest.raises(KeyError, match="component bug"):
        _kernels.scan_fixed_points(system, make, e, xs, xs)


def test_interior_search_drops_seeds_where_a_component_turns_complex(root_loss_system):
    eqs = find_equilibria(root_loss_system, (3.0, 3.0))
    assert [p.family for p in eqs] == ["O", "E3", "E1"]
    assert eqs[1].x == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert eqs[1].y == pytest.approx((1.0 - math.sqrt(1.0 / 3.0)) / 0.3, abs=1e-12)
