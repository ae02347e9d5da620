"""Top-level behavioural guarantees, one test per numbered criterion.

Every test prints a single "[criterion N] ...: PASS/FAIL" line; the
conftest terminal-summary hook repeats the collected lines at the end of
the run so they are visible without -s.  Timed criteria assert a
wall-clock budget.
"""

import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from nsfd import (
    EULER,
    NSFD,
    RK2,
    State,
    audit_positivity,
    continuous_eigs,
    critical_step_E3,
    detect_ghosts,
    discrete_eigs,
    estimate_order,
    find_equilibria,
    integrate,
    jury_check,
    model1,
    model2,
    oscillation_stats,
    step,
)

RESULTS = []

SQRT47_OVER_20 = math.sqrt(47.0) / 20.0
EIG_TOL = 1e-9


@contextmanager
def criterion(num, label):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
        RESULTS.append(line)
        print(line)


def eig_pair(stability):
    return sorted([complex(stability.lambda1), complex(stability.lambda2)],
                  key=lambda z: (z.real, z.imag))


def assert_eigs(stability, expected):
    got = eig_pair(stability)
    want = sorted([complex(e) for e in expected], key=lambda z: (z.real, z.imag))
    for g, w in zip(got, want):
        assert abs(g - w) <= EIG_TOL, (got, want)


def test_criterion_1_continuous_spectra():
    with criterion(1, "continuous eigenvalues at all reported equilibria"):
        m1 = model1()
        eqs1 = find_equilibria(m1)
        assert [(p.x, p.y) for p in eqs1] == [(0.0, 0.0), (1.0, 0.0)]
        assert_eigs(continuous_eigs(m1, eqs1[0]), [1.0, -6.0])
        assert_eigs(continuous_eigs(m1, eqs1[1]), [-1.0, -16.0 / 3.0])

        m2 = model2()
        eqs2 = find_equilibria(m2)
        assert [p.family for p in eqs2] == ["O", "E3", "E1"]
        assert abs(eqs2[1].x - 0.25) <= EIG_TOL
        assert abs(eqs2[1].y - 0.46875) <= EIG_TOL
        assert_eigs(continuous_eigs(m2, eqs2[0]), [1.0, -0.2])
        assert_eigs(continuous_eigs(m2, eqs2[2]), [-1.0, 0.3])
        assert_eigs(continuous_eigs(m2, eqs2[1]),
                    [complex(-0.05, -SQRT47_OVER_20), complex(-0.05, SQRT47_OVER_20)])


def test_criterion_2_critical_step_is_one_and_sharp():
    with criterion(2, "coexistence stability bound h* = 1, sharp on both sides"):
        m2 = model2()
        p3 = find_equilibria(m2)[1]
        crit = critical_step_E3(m2, p3)
        assert abs(crit.bound - 1.0) <= 1e-9
        assert crit.binding_condition == "c"
        below = discrete_eigs(m2, p3, 0.99)
        assert max(abs(below.gamma1), abs(below.gamma2)) < 1.0
        at = discrete_eigs(m2, p3, 1.0)
        assert max(abs(at.gamma1), abs(at.gamma2)) >= 1.0 - 1e-8


def test_criterion_3_equilibria_are_fixed_points_at_every_step_size():
    with criterion(3, "flow equilibria fixed for all h, no spurious map roots"):
        start = perf_counter()
        for system in (model1(), model2()):
            eqs = find_equilibria(system)
            for h in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):
                for p in eqs:
                    nxt = step(system, NSFD, p.state, h)
                    assert abs(nxt.x - p.x) <= 1e-12 * (1.0 + abs(p.x)), (p, h)
                    assert abs(nxt.y - p.y) <= 1e-12 * (1.0 + abs(p.y)), (p, h)
                report = detect_ghosts(system, NSFD, h)
                assert report.ghosts == (), (system.name, h)
                assert len(report.fixed_points) == len(eqs)
        assert perf_counter() - start < 10.0


def test_criterion_4_positivity_for_every_step_size():
    with criterion(4, "positive orbits stay positive at any h (500 random starts)"):
        start = perf_counter()
        rng = np.random.default_rng(20260817)
        starts = rng.uniform(1e-6, 20.0, size=(500, 2))
        for system in (model1(), model2()):
            for h in (0.01, 0.1, 1.0, 10.0):
                for x0, y0 in starts:
                    traj = integrate(system, NSFD, State(x0, y0), h, 200.0 * h)
                    assert not traj.truncated
                    assert audit_positivity(traj).clean, (system.name, h, x0, y0)
        # the classical scheme loses the quadrant immediately from a steep start
        bad = audit_positivity(integrate(model1(), EULER, State(15.0, 0.1), 0.1, 0.3))
        assert bad.violation_step == 1
        assert perf_counter() - start < 30.0


def test_criterion_5_first_order_convergence():
    with criterion(5, "observed order of the positivity scheme is 1"):
        start = perf_counter()
        est = estimate_order(model1(), NSFD, State(0.4, 0.4), 5.0,
                             (0.1, 0.05, 0.025, 0.0125))
        assert 0.85 <= est.slope <= 1.15, est
        assert perf_counter() - start < 10.0


def test_criterion_6_boundary_stability_is_step_size_free(
        sink_origin_system, stable_e1_system, stable_e2_system):
    with criterion(6, "stable axis equilibria stay stable for every h"):
        start = perf_counter()
        cases = [
            (sink_origin_system, 0, "O"),
            (stable_e1_system, 1, "E1"),
            (stable_e2_system, 1, "E2"),
            (model1(), 1, "E1"),
        ]
        for system, idx, family in cases:
            p = find_equilibria(system)[idx]
            assert p.family == family
            assert continuous_eigs(system, p).verdict == "asymptotically_stable"
            for h in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
                d = discrete_eigs(system, p, h)
                assert max(abs(d.gamma1), abs(d.gamma2)) < 1.0, (system.name, h)
                assert d.verdict == "asymptotically_stable"
        assert perf_counter() - start < 5.0


def test_criterion_7_jury_test_matches_root_moduli():
    with criterion(7, "quadratic stability test agrees with companion roots"):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            alpha, beta = rng.uniform(-3.0, 3.0, size=2)
            margin = min(abs(1.0 + alpha + beta), abs(1.0 - alpha + beta),
                         abs(1.0 - beta))
            if margin <= 1e-6:
                continue
            roots = np.roots([1.0, alpha, beta])
            stable = bool(np.all(np.abs(roots) < 1.0))
            assert all(jury_check(alpha, beta)) == stable, (alpha, beta)
            checked += 1


def test_criterion_8_map_trace_det_identity():
    with criterion(8, "1 - T + D identity for the coexistence multipliers"):
        m2 = model2()
        p3 = find_equilibria(m2)[1]
        cont = continuous_eigs(m2, p3)
        fp, _, gp, _ = m2.components(p3.x, p3.y)
        for h in (0.1, 0.5, 1.0, 2.0):
            d = discrete_eigs(m2, p3, h)
            g1, g2 = complex(d.gamma1), complex(d.gamma2)
            lhs = (1.0 - (g1 + g2) + g1 * g2).real
            rhs = h * h * cont.D / ((1.0 + h * fp) * (1.0 + h * gp))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs), h


def test_criterion_9_qualitative_dynamics():
    with criterion(9, "ghosts for rk2, convergence and cycling for the map"):
        start = perf_counter()
        m1, m2 = model1(), model2()
        p3 = find_equilibria(m2)[1]

        # (i) one rk2 step admits spurious fixed points at a modest h
        assert len(detect_ghosts(m1, RK2, 0.1).ghosts) >= 1

        # (ii) below the critical step the orbit settles onto the
        # coexistence point
        fin = integrate(m2, NSFD, State(0.4, 0.4), 0.5, 4000.0).final()
        assert math.hypot(fin.x - p3.x, fin.y - p3.y) <= 1e-6

        # (iii) above it the orbit keeps circling instead of converging
        stats = oscillation_stats(
            integrate(m2, NSFD, State(0.4, 0.4), 2.0, 400.0), (p3.x, p3.y))
        assert stats.bounded and stats.positive and stats.sustained()

        assert perf_counter() - start < 60.0
