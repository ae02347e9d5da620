"""Convergence measurement, positivity audit, ghost scan, scheme comparison."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nsfd import (
    EULER,
    IDENTITY,
    NSFD,
    RK2,
    RK4,
    ComparisonTable,
    ReferenceUnavailable,
    SplitSystem,
    State,
    StepWeight,
    audit_positivity,
    compare_schemes,
    detect_ghosts,
    ensfd,
    estimate_order,
    exponential_weight,
    find_equilibria,
    from_selector,
    integrate,
    model1,
    model2,
    oscillation_stats,
)
from nsfd import _kernels, cli
from nsfd._kernels import NEWTON_TOL
from nsfd.diagnostics import GHOST_DEDUP_TOL, GHOST_MAX_SEEDS, _cluster_hits
from nsfd.integrators import _scheme_core
from oracles import (cluster_hits, compare_rows, equality_settings, fixed_refinement_errors,
                     per_element_clone)

ORDER_STEPS = (0.1, 0.05, 0.025, 0.0125)


def test_estimate_order_nsfd_frozen_slope():
    est = estimate_order(model1(), NSFD, State(0.4, 0.4), 5.0, ORDER_STEPS)
    assert est.slope == pytest.approx(0.9838679926564307, abs=1e-9)
    assert len(est.errors) == 4
    # errors must shrink monotonically with h for a convergent scheme
    assert all(a > b for a, b in zip(est.errors, est.errors[1:]))


def test_estimate_order_classical_slopes():
    m1 = model1()
    s0 = State(0.4, 0.4)
    assert 0.9 <= estimate_order(m1, EULER, s0, 5.0, ORDER_STEPS).slope <= 1.3
    assert 1.8 <= estimate_order(m1, RK2, s0, 5.0, ORDER_STEPS).slope <= 2.4
    assert estimate_order(m1, RK4, s0, 5.0, ORDER_STEPS).slope >= 3.8


def test_estimate_order_slope_is_stable_under_step_removal():
    m1 = model1()
    s0 = State(0.4, 0.4)
    full = estimate_order(m1, NSFD, s0, 5.0, (0.2,) + ORDER_STEPS)
    trimmed = estimate_order(m1, NSFD, s0, 5.0, ORDER_STEPS)
    assert abs(full.slope - trimmed.slope) < 0.1


def test_estimate_order_input_validation():
    m1 = model1()
    s0 = State(0.4, 0.4)
    with pytest.raises(ValueError):
        estimate_order(m1, NSFD, s0, 5.0, (0.1, 0.05, 0.025))  # too few
    with pytest.raises(ValueError):
        estimate_order(m1, NSFD, s0, 5.0, (0.05, 0.1, 0.025, 0.0125))  # not descending
    with pytest.raises(ValueError):
        estimate_order(m1, NSFD, s0, 5.0, (0.1, 0.05, 0.03, 0.0125))  # 0.03 not a divisor
    with pytest.raises(ValueError, match="nest only in a grid of 3003 steps"):
        estimate_order(m1, NSFD, s0, 1.0, (1 / 3, 1 / 7, 1 / 11, 1 / 13))


def test_estimate_order_refuses_a_step_whose_run_stops_short_of_the_horizon():
    # 1000 / h is within 1e-9 relative of 8000, but integrate rounds only
    # within 1e-9 absolute, so its run would stop one step short of t_end
    m1, s0, h = model1(), State(0.4, 0.4), 0.125 * (1 + 4e-10)
    short = integrate(m1, NSFD, s0, h, 1000.0)
    assert short.requested_steps == 7999 and short.ts[-1] < 999.9
    with pytest.raises(ValueError, match=r"^step 0\.12500000005 does not divide the horizon"):
        estimate_order(m1, NSFD, s0, 1000.0, (1.0, 0.5, 0.25, h))


def _richardson(system, s0, t_end, h):
    """sup |ref(h) - ref(2h)| / 15 over the grid of the rk4 run at 2h."""
    fine = integrate(system, RK4, s0, h, t_end)
    coarse = integrate(system, RK4, s0, 2.0 * h, t_end)
    return max(np.max(np.abs(coarse.xs - fine.xs[::2])),
               np.max(np.abs(coarse.ys - fine.ys[::2]))) / 15.0


ALL_SCHEMES = [NSFD, ensfd(exponential_weight(1.0)), EULER, RK2, RK4]
ALL_SCHEME_IDS = ["nsfd", "ensfd-exp1", "euler", "rk2", "rk4"]


@pytest.mark.parametrize("model", [model1, model2])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=ALL_SCHEME_IDS)
def test_estimate_order_reference_meets_its_budget(model, scheme):
    system, s0 = model(), State(0.4, 0.4)
    est = estimate_order(system, scheme, s0, 5.0, ORDER_STEPS)
    # the reference runs at h_base / r, h_base = min(ORDER_STEPS) here
    r = ORDER_STEPS[-1] / est.reference_step
    assert r == pytest.approx(2 ** round(math.log2(r)), rel=1e-12) and 2 <= r <= 1024
    assert est.reference_error == _richardson(system, s0, 5.0, est.reference_step)
    smallest = min(est.errors)
    if est.reference_error > 1e-7 * smallest:
        # accepted at the rounding floor: one more doubling did not cut the
        # estimate 4x, and it is still within 1e-2 of the smallest error
        assert est.reference_error <= 1e-2 * smallest
        previous = _richardson(system, s0, 5.0, 2.0 * est.reference_step)
        assert est.reference_error > previous / 4.0 or r == 1024


@pytest.mark.parametrize("model", [model1, model2])
@pytest.mark.parametrize("scheme", [NSFD, EULER], ids=["nsfd", "euler"])
def test_estimate_order_errors_match_a_fixed_refinement_reference(model, scheme):
    s0 = State(0.4, 0.4)
    est = estimate_order(model(), scheme, s0, 5.0, ORDER_STEPS)
    oracle = fixed_refinement_errors(model(), scheme, s0, 5.0, ORDER_STEPS)
    assert est.errors == pytest.approx(oracle, rel=1e-6, abs=0.0)


def test_estimate_order_refines_past_a_reference_that_blows_up():
    # from this stiff start rk4 at h_base = 0.125 overshoots to x < 0 and
    # runs off to -inf; the nsfd runs stay positive and finer rk4 runs
    # stay finite, so refinement goes on past the truncated run
    steps = (1.0, 0.5, 0.25, 0.125)
    s0 = State(15.0, 0.1)
    assert integrate(model1(), RK4, s0, 0.125, 5.0).truncated
    est = estimate_order(model1(), NSFD, s0, 5.0, steps)
    oracle = fixed_refinement_errors(model1(), NSFD, s0, 5.0, steps)
    assert est.errors == pytest.approx(oracle, rel=1e-6, abs=0.0)
    assert est.reference_error <= 1e-7 * min(est.errors)


def test_estimate_order_takes_steps_whose_grids_nest_only_below_the_smallest():
    # 0.5, 0.3, 0.2 and 0.125 all divide 3 but no power-of-two refinement
    # of 0.125 contains the 0.3 and 0.2 grids; they all nest at 3/120
    steps = (0.5, 0.3, 0.2, 0.125)
    s0 = State(0.4, 0.4)
    est = estimate_order(model1(), NSFD, s0, 3.0, steps)
    oracle = fixed_refinement_errors(model1(), NSFD, s0, 3.0, steps)
    assert est.errors == pytest.approx(oracle, rel=1e-6, abs=0.0)
    assert est.slope == pytest.approx(0.886, abs=1e-3)
    assert (0.025 / est.reference_step) in (2.0, 4.0, 8.0, 16.0, 32.0)


def test_estimate_order_refuses_a_reference_below_the_rounding_floor(tmp_path, capsys):
    # rk4 errors at these steps are within a few hundred ulps of the
    # orbit, where no rk4 reference is accurate enough to measure them
    steps = (0.001, 0.0005, 0.00025, 0.000125)
    with pytest.raises(ReferenceUnavailable, match="estimated error") as info:
        estimate_order(model1(), RK4, State(0.4, 0.4), 1.0, steps)
    found = re.search(r"estimated error (\S+), above the budget (\S+) ", str(info.value))
    assert float(found[1]) > float(found[2]) > 0.0
    assert cli.main(["convergence", "--model", "model1", "--scheme", "rk4",
                     "--h", ",".join(map(repr, steps)), "--x0", "0.4", "--y0", "0.4",
                     "--t-end", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", [(0.04, 0.02, 0.01, 0.005), (0.004, 0.002, 0.001, 0.0005)])
def test_estimate_order_keeps_rk4_studies_above_the_floor(steps):
    est = estimate_order(model1(), RK4, State(0.4, 0.4), 1.0, steps)
    assert 3.9 <= est.slope <= 4.1


def test_estimate_order_refuses_a_step_count_that_overflows(tmp_path, capsys):
    # t_end / h is inf for each of these steps, and round(inf) raises
    # OverflowError; the refusal is step_count's MAX_STEPS ValueError
    steps = [4e-323, 3e-323, 2e-323, 1e-323]
    assert all(1.0 / h == math.inf for h in steps)
    message = "inf steps of h=4e-323 to t_end=1.0 exceed MAX_STEPS = 100000000"
    with pytest.raises(ValueError, match=message):
        estimate_order(model1(), NSFD, State(0.4, 0.4), 1.0, steps)
    assert cli.main(["convergence", "--model", "model1", "--scheme", "nsfd",
                     "--h", ",".join(map(repr, steps)), "--x0", "0.4", "--y0", "0.4",
                     "--t-end", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_end", [-1.0, 0.0, math.nan, math.inf])
def test_estimate_order_refuses_a_horizon_that_does_not_lie_ahead(tmp_path, capsys, t_end):
    # refused with integrate's message before any step is counted: at
    # t_end = -1 the negative counts passed the divisibility check, and
    # math.lcm made them positive, so the refusal named a nesting grid
    steps = [1.0, 0.5, 0.25, 0.125]
    message = f"t_end {t_end!r} must exceed the initial time 0.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        estimate_order(model1(), NSFD, State(0.4, 0.4), t_end, steps)
    assert cli.main(["convergence", "--model", "model1", "--scheme", "nsfd",
                     "--h", ",".join(map(repr, steps)), "--x0", "0.4", "--y0", "0.4",
                     f"--t-end={t_end!r}", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [0.0, math.nan, -0.0625])
def test_estimate_order_refuses_a_bad_step_by_its_value(tmp_path, capsys, bad):
    # each step is checked before any division by it: zero was a bare
    # ZeroDivisionError, nan failed in math.floor, and a negative step was
    # refused under the name of the reference step, bad / 100
    steps = [0.5, 0.25, 0.125, bad]
    message = f"step size must be positive and finite, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate_order(model1(), NSFD, State(0.4, 0.4), 1.0, steps)
    assert cli.main(["convergence", "--model", "model1", "--scheme", "nsfd",
                     "--h", ",".join(map(repr, steps)), "--x0", "0.4", "--y0", "0.4",
                     "--t-end", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_estimate_order_rejects_stationary_start():
    # from an equilibrium every run reproduces the reference exactly and
    # no order can be measured
    with pytest.raises(ValueError):
        estimate_order(model1(), NSFD, State(1.0, 0.0), 5.0, ORDER_STEPS)


def test_estimate_order_reports_blown_up_runs():
    with pytest.raises(ReferenceUnavailable):
        estimate_order(model1(), EULER, State(15.0, 0.1), 5.0,
                       (0.5, 0.25, 0.125, 0.0625))


def test_audit_positivity_flags_euler_and_clears_nsfd():
    m1 = model1()
    bad = audit_positivity(integrate(m1, EULER, State(15.0, 0.1), 0.1, 0.3))
    assert not bad.clean
    assert bad.violation_step == 1
    assert bad.state.x < 0.0
    for h in (0.01, 0.1, 1.0, 10.0):
        good = audit_positivity(integrate(m1, NSFD, State(15.0, 0.1), h, 100 * h))
        assert good.clean
        assert good.violation_step is None


def test_rk2_update_map_has_spurious_fixed_points():
    # One step of rk2 on the prey axis solves a polynomial with extra
    # roots far outside the biologically meaningful range; those must be
    # reported as non-genuine.
    report = detect_ghosts(model1(), RK2, 0.1)
    assert len(report.ghosts) >= 1
    ghost_xs = sorted(p.x for p in report.ghosts if abs(p.y) < 1e-6 and p.x > 2.0)
    # analytic spurious axis roots at x = 20 and x = 21 for this h
    assert any(abs(x - 20.0) < 1e-6 for x in ghost_xs)
    assert any(abs(x - 21.0) < 1e-6 for x in ghost_xs)
    genuine = sorted((round(p.x, 9), round(p.y, 9)) for p in report.genuine)
    assert genuine == [(0.0, 0.0), (1.0, 0.0)]


def test_nsfd_map_fixed_points_are_exactly_the_equilibria():
    # both inclusions, over a wide range of step sizes
    for system in (model1(), model2()):
        eqs = find_equilibria(system)
        for h in (0.01, 1.0, 100.0):
            report = detect_ghosts(system, NSFD, h)
            assert report.ghosts == (), (system.name, h, report.ghosts)
            found = sorted((p.x, p.y) for p in report.fixed_points)
            expected = sorted((p.x, p.y) for p in eqs)
            assert len(found) == len(expected)
            for f, e in zip(found, expected):
                assert abs(f[0] - e[0]) < 1e-9 and abs(f[1] - e[1]) < 1e-9


def test_reported_fixed_points_are_sound():
    # every reported point must actually be fixed under the public
    # one-step map, ghost or not
    from nsfd import step

    report = detect_ghosts(model1(), RK2, 0.1)
    for p in report.fixed_points:
        nxt = step(model1(), RK2, State(p.x, p.y), 0.1)
        assert abs(nxt.x - p.x) < 1e-9 and abs(nxt.y - p.y) < 1e-9


@pytest.mark.parametrize("box", [(math.inf, 20.0), (20.0, math.nan), (0.0, 5.0), (10 ** 400, 1)])
def test_search_boxes_must_be_positive_and_finite(box):
    with pytest.raises(ValueError, match="positive finite extent"):
        find_equilibria(model2(), box)
    with pytest.raises(ValueError, match="positive finite extent"):
        detect_ghosts(model2(), NSFD, 0.5, box=box)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", [EULER, RK2, RK4], ids=["euler", "rk2", "rk4"])
@pytest.mark.parametrize("box", [(1.7e308, 1.0), (1.0, 1.7e308), (1.55e308, 1.0)])
def test_detect_ghosts_refuses_a_box_whose_extension_overflows(scheme, box):
    # a classical scheme's seed grid reaches 10% beyond each side: 1.1 *
    # 1.7e308 overflows, and so does the width 1.2 * 1.55e308 of the grid.
    # np.linspace would warn and lay nan seeds, which find no point, not even O
    with pytest.raises(ValueError, match="too large for"):
        detect_ghosts(model2(), scheme, 1.0, box=box)
    # a box whose extended grid is finite is scanned, without a warning
    bx, by = (1.4e308, 1.0) if box[0] > box[1] else (1.0, 1.4e308)
    assert detect_ghosts(model2(), scheme, 1.0, box=(bx, by), seeds_per_axis=3).box == (bx, by)


@pytest.mark.parametrize("box", ["55", (5.0, 5.0, 5.0), (5.0,), 5.0, (True, 5.0), ("5", 5.0),
                                 {"bx": 5.0}])
def test_search_boxes_must_be_pairs_of_real_numbers(box):
    # a string of two digits was a box of its digits, a triple was cut to a
    # pair, and a single number raised IndexError or TypeError
    with pytest.raises(ValueError, match="pair of real numbers"):
        find_equilibria(model2(), box)
    with pytest.raises(ValueError, match="pair of real numbers"):
        detect_ghosts(model2(), NSFD, 0.5, box=box)


def test_search_boxes_take_numpy_and_integer_pairs():
    want = find_equilibria(model2(), (5.0, 4.0))
    for box in ([5, 4], np.array([5.0, 4.0]), (np.float64(5.0), np.int64(4))):
        assert find_equilibria(model2(), box) == want
        assert detect_ghosts(model2(), NSFD, 0.5, box=box).box == (5.0, 4.0)


def test_ghost_report_respects_requested_box():
    report = detect_ghosts(model1(), NSFD, 0.5, box=(5.0, 5.0))
    assert report.box == (5.0, 5.0)
    for p in report.fixed_points:
        assert p.x <= 5.0 + 1e-9 and p.y <= 5.0 + 1e-9


def test_ghost_seeds_fail_where_a_component_turns_complex():
    # rk2 seeds reach 10% below the quadrant, where x ** 0.5 of a python
    # float is complex; those seeds fail instead of aborting the scan.
    system = SplitSystem(lambda x, y: 1.0, lambda x, y: x ** 0.5,
                         lambda x, y: 0.5, lambda x, y: 1.0, name="root_loss")
    report = detect_ghosts(system, RK2, 0.1, box=(2.0, 2.0), seeds_per_axis=9)
    assert [(round(p.x, 9), abs(round(p.y, 9))) for p in report.genuine] == [(1.0, 0.0)]


# the acceptance ranges of a ghost scan, and scan rows around them: zeros
# of both signs, points on and just past the range edges, residuals on
# both sides of NEWTON_TOL, and failed seeds
_XLIM, _YLIM = (-0.2, 2.2), (0.0, 2.0)
_ROW_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, -0.2, math.nextafter(-0.2, -1.0), 2.2, 2.0,
                     math.nextafter(2.0, 3.0), 1.0]),
    st.floats(-0.5, 2.5))
_RESIDUALS = st.sampled_from([0.0, 1e-13, 5e-11, math.nextafter(NEWTON_TOL, 0.0), NEWTON_TOL,
                              1e-3, math.inf])
# offsets from a hit: exactly GHOST_DEDUP_TOL apart along an axis, a pair
# that math.hypot puts at exactly the tolerance and glibc's hypot just
# past it, and chain steps a-b-c with |a - b|, |b - c| <= tol < |a - c|
_ROW_STEPS = st.sampled_from([
    (GHOST_DEDUP_TOL, 0.0), (0.0, GHOST_DEDUP_TOL), (5.11518922132633e-07, 8.592720129855676e-07),
    (0.6 * GHOST_DEDUP_TOL, 0.0), (0.0, -0.6 * GHOST_DEDUP_TOL),
    (0.5 * GHOST_DEDUP_TOL, 0.5 * GHOST_DEDUP_TOL), (2.0 * GHOST_DEDUP_TOL, 0.0)])


@st.composite
def _scan_rows(draw):
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        x, y, res = draw(_ROW_COORDS), draw(_ROW_COORDS), draw(_RESIDUALS)
        rows.append((x, y, res))
        shape = draw(st.sampled_from(["one", "twins", "flipped zeros", "chain", "failed"]))
        if shape == "twins":  # the same point, its residual the same or not
            rows += [(x, y, draw(_RESIDUALS)) for _ in range(draw(st.integers(1, 3)))]
        elif shape == "flipped zeros":
            rows.append((-x if x == 0.0 else x, -y if y == 0.0 else y, draw(_RESIDUALS)))
        elif shape == "chain":
            dx, dy = draw(_ROW_STEPS)
            rows += [(x + dx, y + dy, draw(_RESIDUALS)),
                     (x + 2.0 * dx, y + 2.0 * dy, draw(_RESIDUALS))]
        elif shape == "failed":
            rows.append((draw(st.sampled_from([math.nan, math.inf, x])), y, math.inf))
    return np.array(draw(st.permutations(rows)), dtype=float).reshape(-1, 3)


@given(rows=_scan_rows())
@example(rows=np.array([[0.5, 0.5, 1e-12], [0.5 + 5.11518922132633e-07,
                                            0.5 + 8.592720129855676e-07, 0.0]]))
@example(rows=np.array([[0.0, 1.0, 1e-13], [GHOST_DEDUP_TOL, 1.0, 0.0],
                        [2.0 * GHOST_DEDUP_TOL, 1.0, 0.0]]))
@example(rows=np.array([[1.0, 1.0, 0.0], [1.0 + 0.6e-6, 1.0, 0.0], [1.0 + 1.2e-6, 1.0, 0.0],
                        [-0.0, 0.5, 1e-13], [0.0, 0.5, 1e-13], [0.0, 0.5 + 1e-6, 0.0]]))
@equality_settings(300)
def test_hit_clusters_are_the_hit_by_hit_loop(rows):
    # clustering on arrays, one loop per cluster, keeps every bit of the
    # loop over hits: filter, sort, first cluster within reach, and each
    # cluster's least (residual, x, y)
    got = _cluster_hits(rows, _XLIM, _YLIM)
    assert all(type(v) is float for row in got for v in row)
    assert [tuple(map(float.hex, row)) for row in got] == [
        tuple(map(float.hex, row)) for row in cluster_hits(rows, _XLIM, _YLIM)]


def test_math_hypot_decides_a_hit_at_the_tolerance():
    # math.hypot puts the pair at exactly GHOST_DEDUP_TOL, so it is one
    # fixed point, whatever np.hypot makes of it
    dx, dy = 5.11518922132633e-07, 8.592720129855676e-07
    assert math.hypot(dx, dy) == GHOST_DEDUP_TOL
    rows = np.array([[0.0, 0.0, 1e-12], [dx, dy, 0.0]])
    assert _cluster_hits(rows, _XLIM, _YLIM) == [(dx, dy, 0.0)]


@pytest.mark.parametrize("bad", [0, -3, 2.0, True, None])
def test_detect_ghosts_refuses_a_bad_seed_count(bad):
    with pytest.raises(ValueError, match="seeds_per_axis"):
        detect_ghosts(model1(), NSFD, 0.1, seeds_per_axis=bad)


def test_detect_ghosts_refuses_more_seeds_than_its_cap():
    # one seed per axis past the cap is refused before the seed grid, or
    # anything else of its size, is allocated
    n = math.isqrt(GHOST_MAX_SEEDS) + 1
    system = model1()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"seeds_per_axis = {n} gives {n * n} seeds"):
            detect_ghosts(system, NSFD, 0.1, seeds_per_axis=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("scheme", [NSFD, ensfd(exponential_weight(0.5)), EULER, RK2, RK4],
                         ids=["nsfd", "ensfd", "euler", "rk2", "rk4"])
@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_detect_ghosts_refuses_a_bad_step(scheme, bad):
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        detect_ghosts(model1(), scheme, bad, seeds_per_axis=4)


def test_compare_schemes_table():
    m1 = model1()
    table = compare_schemes(m1, [NSFD, EULER], State(15.0, 0.1), [0.1, 1.0], 5.0)
    assert len(table.rows) == 4
    by_key = {(r.scheme, r.h): r for r in table.rows}
    clean = by_key[("nsfd", 0.1)]
    assert clean.positivity_violation_step is None
    assert not clean.nonfinite
    assert clean.dist_to_equilibrium < 0.05
    broken = by_key[("euler", 0.1)]
    assert broken.positivity_violation_step == 1
    assert broken.nonfinite


def test_compare_schemes_records_refused_runs_and_raises_on_bugs():
    m1 = model1()
    table = compare_schemes(m1, [NSFD, EULER], State(-1.0, 0.5), [0.1], 1.0)
    refused, ran = table.rows
    assert refused.scheme == "nsfd" and refused.nonfinite
    assert math.isnan(refused.final_x) and math.isnan(refused.dist_to_equilibrium)
    assert ran.scheme == "euler" and math.isfinite(ran.final_x)

    # a component that breaks off the validation grid is a bug, not a row
    def broken_loss(x, y):
        if x > 100.0:
            raise TypeError("broken component")
        return x

    system = SplitSystem(lambda x, y: 1.0, broken_loss,
                         lambda x, y: 0.5, lambda x, y: 1.0, name="broken")
    with pytest.raises(TypeError, match="broken component"):
        compare_schemes(system, [NSFD], State(150.0, 1.0), [0.1], 1.0)


def test_compare_schemes_csv_shape():
    m1 = model1()
    table = compare_schemes(m1, [NSFD], State(0.5, 0.5), [0.5], 5.0)
    lines = table.to_csv().splitlines()
    assert lines[0] == ("scheme,h,x0,y0,t_end,final_x,final_y,"
                        "dist_to_equilibrium,positivity_violation_step,nonfinite")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "nsfd"
    assert float(fields[1]) == 0.5
    assert fields[9] == "false"


def _comparison_csv_row_by_row(table):
    lines = [("scheme,h,x0,y0,t_end,final_x,final_y,"
              "dist_to_equilibrium,positivity_violation_step,nonfinite")]
    for r in table.rows:
        step_field = "" if r.positivity_violation_step is None else str(r.positivity_violation_step)
        lines.append(",".join([
            r.scheme,
            f"{r.h:.17g}",
            f"{r.x0:.17g}",
            f"{r.y0:.17g}",
            f"{r.t_end:.17g}",
            f"{r.final_x:.17g}",
            f"{r.final_y:.17g}",
            f"{r.dist_to_equilibrium:.17g}",
            step_field,
            "true" if r.nonfinite else "false",
        ]))
    return "\n".join(lines) + "\n"


def test_comparison_csv_is_the_row_by_row_text():
    # euler blows up (nonfinite, a violation step), nsfd stays finite, and
    # a negative start makes the weighted scheme record a nan row
    table = compare_schemes(model1(), [NSFD, EULER, RK4], State(15.0, 0.1), [0.1, 1.0, 10.0], 50.0)
    refused = compare_schemes(model1(), [ensfd(exponential_weight(2.0))], State(-1.0, 0.1), [0.5], 5.0)
    assert refused.rows[0].nonfinite and math.isnan(refused.rows[0].final_x)
    both = ComparisonTable(table.rows + refused.rows)
    assert {r.nonfinite for r in both.rows} == {True, False}
    assert both.to_csv() == _comparison_csv_row_by_row(both)
    assert ComparisonTable(()).to_csv() == _comparison_csv_row_by_row(ComparisonTable(()))


def test_compare_schemes_is_deterministic(tmp_path):
    m1 = model1()
    args = (m1, [NSFD, RK4], State(0.7, 0.2), [0.25, 0.5], 10.0)
    a, b = compare_schemes(*args), compare_schemes(*args)
    assert a.to_csv() == b.to_csv()


# compare_schemes integrates each distinct orbit once: the systems it is
# held to its row-by-row oracle on, built once so their searches are stored
_COMPARED_SYSTEMS = (model1(), model2(), from_selector("rma:2,1,1,0.3"),
                     per_element_clone(from_selector("rma:1.5,0.7,0.4,0.25")))
# nsfd and ensfd at the identity run one map; the weight that refuses
# steps above 1 raises ValueError at exactly those pairs
_COMPARED_SCHEMES = (NSFD, ensfd(IDENTITY), EULER, RK2, RK4, ensfd(exponential_weight(2.0)),
                     ensfd(exponential_weight(0.5)),
                     ensfd(StepWeight("zero above 1", lambda h: h if h <= 1.0 else 0.0)))
_SWEEP_SCHEMES = [NSFD, ensfd(IDENTITY), EULER, RK2, RK4]
_SWEEP_HS = [0.05, 0.5, 4.0]


def _comparison_outcome(compare, *args):
    """Each row's fields, floats as hex, and the CSV; or the ValueError raised."""
    try:
        table = compare(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return ([tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
             for r in table.rows], table.to_csv())


@given(system=st.sampled_from(_COMPARED_SYSTEMS),
       schemes=st.lists(st.sampled_from(_COMPARED_SCHEMES), min_size=1, max_size=6),
       hs=st.lists(st.one_of(st.sampled_from([0.05, 0.5, 1.0, 4.0, 10.0]),
                             st.floats(0.05, 12.0)), min_size=1, max_size=4),
       x0=st.sampled_from([0.4, 1.0, 3.0, 15.0, -1.0, 0.0]),
       y0=st.sampled_from([0.1, 0.4, 2.0, -0.5, 0.0]),
       t_end=st.sampled_from([0.5, 5.0, 20.0]))
@example(system=_COMPARED_SYSTEMS[2], schemes=_SWEEP_SCHEMES, hs=_SWEEP_HS, x0=3.0, y0=0.4,
         t_end=40.0).via("the sweep shape, where euler, rk2 and rk4 halt at h = 4")
@example(system=_COMPARED_SYSTEMS[0], schemes=[NSFD, NSFD, ensfd(IDENTITY), EULER, EULER],
         hs=[0.5, 0.5, 1.0], x0=-1.0, y0=0.4, t_end=5.0).via(
    "a repeated scheme and step from a negative start: DomainError rows")
@example(system=_COMPARED_SYSTEMS[1], schemes=[RK4, NSFD, _COMPARED_SCHEMES[-1]],
         hs=[0.5, 4.0], x0=1.0, y0=1.0, t_end=5.0).via("a ValueError after two runs")
@example(system=_COMPARED_SYSTEMS[1], schemes=[_COMPARED_SCHEMES[5], NSFD],
         hs=[1.0, exponential_weight(2.0).phi(1.0)], x0=1.0, y0=1.0, t_end=5.0).via(
    "ensfd at h = 1 steps by the e of nsfd at h = phi(1), in fewer steps")
@equality_settings(60)
def test_compare_schemes_gives_the_row_by_row_rows(system, schemes, hs, x0, y0, t_end):
    args = (system, schemes, State(x0, y0), hs, t_end)
    assert (_comparison_outcome(compare_schemes, *args)
            == _comparison_outcome(compare_rows, *args))


def _counting_runs(monkeypatch):
    # each run of an orbit to its end, as (step, effective step, steps)
    calls = []
    real = _kernels.orbit_end

    def counted(evaluator, make, x0, y0, e, n):
        calls.append((make, e, n))
        return real(evaluator, make, x0, y0, e, n)

    monkeypatch.setattr(_kernels, "orbit_end", counted)
    return calls


def test_compare_schemes_integrates_each_distinct_orbit_once(monkeypatch):
    system, s0 = _COMPARED_SYSTEMS[2], State(1.0, 0.4)
    calls = _counting_runs(monkeypatch)
    table = compare_schemes(system, _SWEEP_SCHEMES, s0, _SWEEP_HS, 40.0)
    # 5 schemes x 3 steps, of which ensfd at the identity reuses the nsfd runs
    assert len(table.rows) == 15 and len(calls) == 12
    assert len(set(calls)) == 12
    rows = {(r.scheme, r.h): dataclasses.astuple(r)[2:] for r in table.rows}
    assert all(rows[("ensfd", h)] == rows[("nsfd", h)] for h in _SWEEP_HS)

    # a weighted ensfd runs a map of its own
    calls.clear()
    compare_schemes(system, [NSFD, ensfd(exponential_weight(2.0))], s0, _SWEEP_HS, 40.0)
    assert len(calls) == 6
    # a scheme or a step listed twice runs once, and a refused start not at all
    calls.clear()
    table = compare_schemes(system, [NSFD, NSFD, ensfd(IDENTITY), EULER], State(1.0, 0.4),
                            [0.5, 0.5], 5.0)
    assert len(table.rows) == 8 and calls == [(*_scheme_core(s, 0.5), 10) for s in (NSFD, EULER)]
    calls.clear()
    table = compare_schemes(system, [NSFD, NSFD, ensfd(IDENTITY)], State(-1.0, 0.4),
                            [0.5, 0.5], 5.0)
    assert len(table.rows) == 6 and calls == []
    assert all(r.nonfinite and math.isnan(r.final_x) for r in table.rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 0.0, 5.0, 1.0 + 1e-15])
def test_oscillation_stats_refuses_a_bad_tail_fraction(bad):
    traj = integrate(model2(), NSFD, State(0.4, 0.4), 0.5, 10.0)
    with pytest.raises(ValueError, match="tail_fraction"):
        oscillation_stats(traj, (1.0, 1.0), tail_fraction=bad)
    whole = oscillation_stats(traj, (1.0, 1.0), tail_fraction=1.0)
    assert whole.min_tail_distance == float(np.hypot(traj.xs - 1.0, traj.ys - 1.0).min())


def test_oscillation_stats_detect_the_two_regimes():
    m2 = model2()
    p3 = find_equilibria(m2)[1]
    center = (p3.x, p3.y)
    # large step: the discrete dynamics orbit the coexistence point
    ringing = oscillation_stats(
        integrate(m2, NSFD, State(0.4, 0.4), 2.0, 400.0), center)
    assert ringing.bounded and ringing.positive
    assert ringing.min_tail_distance > 1e-3
    assert ringing.amplitude > 1e-3
    assert ringing.sustained()
    # small step: the orbit spirals in, so the tail hugs the point
    settling = oscillation_stats(
        integrate(m2, NSFD, State(0.4, 0.4), 0.5, 1000.0), center)
    assert settling.min_tail_distance < 1e-3
    assert not settling.sustained()
