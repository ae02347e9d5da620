"""One stepping loop and one Newton scan for every system, bit-equal to the
family's hand-written step and to seed-by-seed oracles."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import nsfd
from nsfd import (EULER, NSFD, RK2, RK4, ConstructionError, SplitSystem, State, detect_ghosts,
                  ensfd, exponential_weight, find_equilibria, integrate,
                  make_rosenzweig_macarthur, model1, model2)
from nsfd import _kernels
from nsfd._kernels import (NEWTON_ESCAPE, NEWTON_MAX_ITER, NEWTON_TOL, _Evaluator,
                           _plain_arithmetic, resolve_backend, scan_fixed_points,
                           scan_fixed_points_generic)
from nsfd.integrators import _scheme_core
from nsfd.systems import MODEL2_PARAMS, PartialValues
from oracles import (equality_settings, per_element, per_element_clone, point_bits, rma_step,
                     scalar_scan, step_loop)

SCHEMES = (NSFD, ensfd(exponential_weight(0.5)), EULER, RK2, RK4)
SCHEME_IDS = [s.kind for s in SCHEMES]


def _plain_step(system, scheme, h):
    """The family's hand-written step (oracles.rma_step) of scheme at h."""
    return rma_step(scheme.kind, system.rma_params, _scheme_core(scheme, h)[1])


def _oracle_generic_scan(system, make, e, *args):
    """scan_fixed_points_generic run by the seed-by-seed oracle."""
    return scalar_scan(make(system.components, e), *args)


def _ghost_seeds(system, scheme, n):
    """The n x n seed grid detect_ghosts lays over the system's own box."""
    b = system.x_max
    lo, hi = (-0.1 * b, 1.1 * b) if scheme.kind in ("euler", "rk2", "rk4") else (0.0, b)
    g = np.linspace(lo, hi, n)
    return [a.ravel() for a in np.meshgrid(g, g, indexing="ij")]


def _scan(system, scheme, h, sx, sy):
    make, e = _scheme_core(scheme, h)
    return scan_fixed_points(system, make, e, sx, sy)


def test_resolve_backend_explicit_choice():
    assert resolve_backend() == "python"
    assert resolve_backend("python") == "python"
    with pytest.raises(ValueError):
        resolve_backend("fortran")


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
def test_python_backend_runs_the_builtin_family_as_callables(monkeypatch, scheme):
    # integrate runs one loop for every system, and every ghost scan one
    # path: a system of the built-in family, its replace clone and a clone
    # with each callable behind a call (per element everywhere) give the
    # same rows, seeds on the pole x = -c included, and the report of the
    # seed-by-seed oracle.  Seeded random draws join the two models: their
    # orbits at a small and a large step must be the clone's bits too.
    rng = np.random.default_rng(20)
    draws = [make_rosenzweig_macarthur(*rng.uniform((0.2, 0.2, 0.05, 0.02), (3, 3, 2, 0.9)))
             for _ in range(6)]
    loops = []
    original = _kernels._step_loop

    def recording(step, x0, y0, n):
        # the components the step was bound to name the system it runs
        cells = dict(zip(step.__code__.co_freevars, step.__closure__))
        loops.append((cells["components"].cell_contents, n))
        return original(step, x0, y0, n)

    monkeypatch.setattr(_kernels, "_step_loop", recording)
    reports = []
    runs = []
    for system in (model1(), model2()):
        clone = dataclasses.replace(system)
        runs += [(system.components, 50), (clone.components, 50)]
        traj = integrate(system, scheme, State(0.4, 0.4), 0.1, 5.0)
        assert len(traj) == 51
        twin = integrate(clone, scheme, State(0.4, 0.4), 0.1, 5.0)
        assert np.array_equal(traj.xs, twin.xs) and np.array_equal(traj.ys, twin.ys)
        report = detect_ghosts(system, scheme, 0.1, seeds_per_axis=8)
        assert report.genuine
        for other in (clone, per_element_clone(system)):
            assert report == detect_ghosts(other, scheme, 0.1, seeds_per_axis=8)
        sx, sy = _ghost_seeds(system, scheme, 8)
        sx = np.append(sx, -system.rma_params.c)
        sy = np.append(sy, 1.0)
        rows = _scan(system, scheme, 0.1, sx, sy).tobytes()
        assert rows == _scan(clone, scheme, 0.1, sx, sy).tobytes()
        assert rows == _scan(per_element_clone(system), scheme, 0.1, sx, sy).tobytes()
        reports.append(report)
    # the family system and then its clone, of model1 and then of model2
    assert loops == runs
    monkeypatch.setattr(_kernels, "scan_fixed_points_generic", _oracle_generic_scan)
    for system, report in zip((model1(), model2()), reports):
        assert detect_ghosts(system, scheme, 0.1, seeds_per_axis=8) == report
        assert detect_ghosts(dataclasses.replace(system), scheme, 0.1, seeds_per_axis=8) == report
    for system in draws:
        clone = dataclasses.replace(system)
        for h, t_end in ((0.1, 20.0), (1.5, 300.0)):
            traj = integrate(system, scheme, State(0.4, 0.4), h, t_end)
            twin = integrate(clone, scheme, State(0.4, 0.4), h, t_end)
            assert traj.xs.tobytes() == twin.xs.tobytes()
            assert traj.ys.tobytes() == twin.ys.tobytes()
            assert traj.halt_step == twin.halt_step


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("system,s0,h,t_end,truncates", [
    (model1(), State(0.5, 0.5), 0.1, 50.0, False),
    (model2(), State(0.4, 0.4), 0.5, 100.0, False),
    (model1(), State(15.0, 0.1), 0.1, 5.0, None),
], ids=["model1", "model2", "model1-far"])
def test_plain_rma_step_matches_integrate(scheme, system, s0, h, t_end, truncates):
    traj = integrate(system, scheme, s0, h, t_end)
    xs, ys, _ = step_loop(_plain_step(system, scheme, h), s0.x, s0.y, traj.requested_steps)
    assert np.array_equal(traj.xs, xs)
    assert np.array_equal(traj.ys, ys)
    if truncates is None:
        # only Euler leaves the finite range from this start
        truncates = scheme is EULER
    assert traj.truncated is truncates


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("system,h,seeds", [(model1(), 0.1, 17), (model2(), 2.0, 15)],
                         ids=["model1", "model2"])
def test_plain_rma_step_matches_the_ghost_scan(scheme, system, h, seeds):
    sx, sy = _ghost_seeds(system, scheme, seeds)
    rows = _scan(system, scheme, h, sx, sy)
    assert rows.tobytes() == scalar_scan(_plain_step(system, scheme, h), sx, sy).tobytes()
    assert rows.tobytes() == _scan(dataclasses.replace(system), scheme, h, sx, sy).tobytes()
    res = rows[:, 2]
    assert (res < NEWTON_TOL).any()
    if system.name == "model1" and scheme.kind in ("euler", "rk2", "rk4"):
        # 17 seeds over [-2, 22] put a column on x = -c, the zero of c + x
        assert (sx == -system.rma_params.c).any()
        assert np.isinf(res[sx == -system.rma_params.c]).all()
    if system.name == "model2" and scheme is RK4:
        # at h = 2 rk4 runs seeds into the iteration cap
        assert (np.isfinite(res) & (res >= NEWTON_TOL)).any()


@given(a=st.floats(0.2, 4.0), b=st.floats(0.2, 3.0), c=st.floats(0.2, 3.0),
       d=st.floats(0.02, 0.95), scheme=st.sampled_from(SCHEMES), h=st.floats(0.01, 8.0),
       gx=st.lists(st.floats(-4.0, 12.0), min_size=1, max_size=6),
       gy=st.lists(st.floats(-4.0, 12.0), min_size=1, max_size=6))
@example(a=0.2916194159139722, b=1.5819797555783301, c=2.5476019872707703,
         d=0.671914759870175, scheme=NSFD, h=0.05,
         gx=[-2.5714029809061554], gy=[2.0714285714285716]).via("a seed that escapes")
@example(a=2.0, b=1.0, c=0.5, d=0.3, scheme=EULER, h=0.1, gx=[1.0], gy=[0.5, 2.0]).via(
    "a Jacobian probe on x = -c")
@equality_settings(60)
def test_batched_scan_rows_are_the_generic_rows(a, b, c, d, scheme, h, gx, gy):
    # off-quadrant seeds, with columns on x = -c, the zero of c + x, and
    # where a Jacobian probe x -/+ 1e-6 lands on it; the step on whole
    # arrays and the step with each component called per element both
    # give the oracle's rows
    system = make_rosenzweig_macarthur(a, b, c, d)
    gx = np.array(gx + [-c, -c + 1e-6, -c - 1e-6])
    sx, sy = [g.ravel() for g in np.meshgrid(gx, np.array(gy), indexing="ij")]
    make, e = _scheme_core(scheme, h)
    map_fn = make(system.components, e)
    args = (NEWTON_TOL, NEWTON_MAX_ITER, NEWTON_ESCAPE)
    oracle = scalar_scan(map_fn, sx, sy, *args).tobytes()
    assert _kernels._scan_batched(map_fn, sx, sy, *args).tobytes() == oracle
    assert scan_fixed_points_generic(system, make, e, sx, sy, *args).tobytes() == oracle


@pytest.mark.parametrize("scheme", [RK2, RK4], ids=["rk2", "rk4"])
def test_a_stage_one_drop_is_not_called_again(scheme):
    # math.sqrt raises at the seed x = -1, in the first stage, and the
    # seed-by-seed map stops there; on arrays the seed is nan after that
    # stage, and no later call, in this stage or the next, is made for it
    seen_f, seen_g = [], []

    def f_minus(x, y):
        seen_f.append(x)
        return math.sqrt(x) + 0.5 * y

    def g_plus(x, y):
        seen_g.append(x)
        return 0.8

    system = SplitSystem(lambda x, y: 1.0, f_minus, g_plus, lambda x, y: 0.4 * x + y, x_max=3.0)
    sx, sy = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    make, e = _scheme_core(scheme, 0.5)
    seen_f.clear()
    seen_g.clear()
    rows = _scan(system, scheme, 0.5, sx, sy)
    assert -1.0 in seen_f and -1.0 not in seen_g
    assert not any(math.isnan(x) for x in seen_f + seen_g)
    assert rows[0, 2] == math.inf
    assert rows.tobytes() == scalar_scan(make(system.components, e), sx, sy).tobytes()


# ---------------------------------------------------------------------------
# the last few seeds of a scan, each on python floats

_ALL_SCALAR = 10 ** 6  # a threshold above every seed count: no numpy iteration


class _Rooted(SplitSystem):
    """An override of components that is not plain arithmetic, with its
    fields' bits at every finite point."""

    def components(self, x, y):
        fp, fm, gp, gm = SplitSystem.components(self, x, y)
        return fp + 0.0 * math.sqrt(abs(x)), fm, gp, gm


def _dropping_system(kind, a, b, c, d):
    """The family of (a, b, c, d), or a system of its fields that the array
    rule refuses: one whose f_minus is complex off the quadrant, one whose
    f_minus raises ValueError there, or one that overrides components."""
    if kind == "family":
        return make_rosenzweig_macarthur(a, b, c, d)
    fields = [lambda x, y: b, lambda x, y: b * x + a * y / (c + x),
              lambda x, y: x / (c + x), lambda x, y: d]
    if kind == "complex":
        fields[1] = lambda x, y: x ** 0.5 + a * y / (c + x)
    elif kind == "raise":
        fields[1] = lambda x, y: math.sqrt(x) + a * y / (c + x)
    return (_Rooted if kind == "override" else SplitSystem)(*fields)


_thresholds = st.one_of(st.just(0), st.just(_ALL_SCALAR), st.integers(1, 30))


@given(kind=st.sampled_from(["family", "complex", "raise", "override"]),
       a=st.floats(0.2, 4.0), b=st.floats(0.2, 3.0), c=st.floats(0.2, 3.0),
       d=st.floats(0.02, 0.95), scheme=st.sampled_from(SCHEMES), h=st.floats(0.01, 8.0),
       gx=st.lists(st.floats(-4.0, 12.0), min_size=1, max_size=5),
       gy=st.lists(st.floats(-4.0, 12.0), min_size=1, max_size=4),
       big=st.booleans(), max_iter=st.integers(0, NEWTON_MAX_ITER),
       escape=st.sampled_from([NEWTON_ESCAPE, 30.0]), threshold=_thresholds)
@example(kind="complex", a=2.0, b=1.0, c=0.5, d=0.3, scheme=RK2, h=0.5, gx=[-1.0, 1.0],
         gy=[0.5], big=False, max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE,
         threshold=_ALL_SCALAR).via("a complex value on python floats")
@example(kind="raise", a=2.0, b=1.0, c=0.5, d=0.3, scheme=RK4, h=0.5, gx=[-1.0, 1.0],
         gy=[0.5], big=True, max_iter=NEWTON_MAX_ITER, escape=NEWTON_ESCAPE,
         threshold=_ALL_SCALAR).via("a raise on python floats, and seeds above 1e300")
@example(kind="family", a=2.0, b=1.0, c=1.0, d=0.2, scheme=RK4, h=2.0, gx=[0.5, 3.0, 7.0],
         gy=[0.5, 4.0], big=False, max_iter=6, escape=NEWTON_ESCAPE,
         threshold=8).via("seeds that hit max_iter on python floats, after one numpy iteration")
@equality_settings(60)
def test_the_last_seeds_on_python_floats_give_the_oracle_rows(kind, a, b, c, d, scheme, h, gx,
                                                               gy, big, max_iter, escape,
                                                               threshold):
    # every seed batched (threshold 0), every seed on python floats, or a
    # switch after some numpy iterations: the rows of the seed-by-seed scan,
    # with seeds on and beside the pole x = -c, seeds that drop off the
    # quadrant, and seeds above 1e300, which take the probes apart
    system = _dropping_system(kind, a, b, c, d)
    gx = np.array(gx + [-c, -c + 1e-6, -c - 1e-6])
    sx, sy = [g.ravel() for g in np.meshgrid(gx, np.array(gy), indexing="ij")]
    if big:
        sx, sy = np.append(sx, [1e301, 2.0]), np.append(sy, [1.0, -1e302])
    make, e = _scheme_core(scheme, h)
    step = make(system.components, e)
    args = (NEWTON_TOL, max_iter, escape)
    oracle = scalar_scan(step, sx, sy, *args).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCALAR_SEEDS", threshold)
        assert scan_fixed_points_generic(system, make, e, sx, sy, *args).tobytes() == oracle
        if kind == "family":
            for apart in (False, True):
                rows = _kernels._scan_batched(step, sx, sy, *args, probes_apart=apart)
                assert rows.tobytes() == oracle


# maps on python floats and numpy arrays alike: one whose Jacobian is
# singular, in exact arithmetic wherever x +- dx rounds exactly (at x = 0,
# say), a triple root that Newton nears by 2/3 an iteration (so it runs
# into max_iter), and a fixed point at (20, 0), beyond an escape bound of 5
_HAND_MAPS = {
    "singular": lambda x, y: (x, 0.5 + 0.0 * y),
    "triple": lambda x, y: (x - x * x * x, 0.5 * y),
    "far": lambda x, y: (0.5 * x + 10.0, 0.5 * y),
}


@given(name=st.sampled_from(sorted(_HAND_MAPS)),
       gx=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       gy=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
       max_iter=st.integers(0, 30), escape=st.sampled_from([NEWTON_ESCAPE, 5.0]),
       threshold=_thresholds, apart=st.booleans())
@example(name="triple", gx=[1.0, 2.0], gy=[1.0], max_iter=12, escape=NEWTON_ESCAPE,
         threshold=_ALL_SCALAR, apart=False).via("max_iter on python floats")
@example(name="singular", gx=[0.0, 1.0], gy=[0.0, 2.0], max_iter=30, escape=NEWTON_ESCAPE,
         threshold=_ALL_SCALAR, apart=False).via("a singular determinant on python floats")
@example(name="far", gx=[1.0, 2.0], gy=[1.0], max_iter=30, escape=5.0,
         threshold=_ALL_SCALAR, apart=True).via("an escape on python floats")
@equality_settings(60)
def test_the_scalar_phase_retires_seeds_where_the_oracle_does(name, gx, gy, max_iter, escape,
                                                               threshold, apart):
    fn = _HAND_MAPS[name]
    sx, sy = [g.ravel() for g in np.meshgrid(np.array(gx), np.array(gy), indexing="ij")]
    args = (NEWTON_TOL, max_iter, escape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCALAR_SEEDS", threshold)
        rows = _kernels._scan_batched(fn, sx, sy, *args, probes_apart=apart)
    assert rows.tobytes() == scalar_scan(fn, sx, sy, *args).tobytes()


@pytest.mark.parametrize("scheme", [NSFD, RK2], ids=["nsfd", "rk2"])
def test_the_last_seeds_finish_on_python_floats(monkeypatch, scheme):
    # a 12 x 12 scan of model2 iterates on arrays until at most
    # _SCALAR_SEEDS seeds go on; each of those finishes on python floats,
    # not numpy scalars, with the iterations left, in the oracle's rows
    calls = []
    original = _kernels._newton_seed

    def recording(point, x, y, res, tol, n, escape):
        calls.append((type(x), type(y), type(res), n))
        return original(point, x, y, res, tol, n, escape)

    monkeypatch.setattr(_kernels, "_newton_seed", recording)
    system = model2()
    sx, sy = _ghost_seeds(system, scheme, 12)
    make, e = _scheme_core(scheme, 2.0 if scheme is NSFD else 0.3)
    rows = scan_fixed_points(system, make, e, sx, sy)
    assert rows.tobytes() == scalar_scan(make(system.components, e), sx, sy).tobytes()
    assert 0 < len(calls) <= _kernels._SCALAR_SEEDS
    assert {c[:3] for c in calls} == {(float, float, float)}
    assert len({c[3] for c in calls}) == 1 and 0 < calls[0][3] < NEWTON_MAX_ITER


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
def test_a_subclass_that_overrides_components_searches_like_its_fields(scheme):
    # an override that is not plain arithmetic fails the array rule in the
    # scan, the balance Newton and the partials check, so each calls it per
    # point (math.sqrt of an array raises TypeError).  Its bits are the
    # fields', so are the equilibria and ghost reports
    lv = (lambda x, y: 1.0, lambda x, y: 0.5 * x + 0.3 * y, lambda x, y: 0.6 * x,
          lambda x, y: 0.2 + 0.1 * y)
    m2 = model2()
    for fields, partials in ((lv, None), ((m2.f_plus, m2.f_minus, m2.g_plus, m2.g_minus),
                                          m2.partials)):
        plain = SplitSystem(*fields, partials=partials, x_max=4.0)
        rooted = _Rooted(*fields, partials=partials, x_max=4.0)
        assert not _Evaluator(rooted).fused
        assert _Evaluator(plain).fused and _Evaluator(plain).fields == fields
        assert point_bits(find_equilibria(rooted)) == point_bits(find_equilibria(plain))
        for h in (0.5, 2.5):
            got = detect_ghosts(rooted, scheme, h, seeds_per_axis=12)
            assert repr(got) == repr(detect_ghosts(plain, scheme, h, seeds_per_axis=12))


def _none_off_the_quadrant(x, y):
    return 0.1 if x >= 0.0 else None


@pytest.mark.parametrize("cls", [SplitSystem, _Rooted], ids=["fields", "override"])
def test_a_value_that_is_not_real_drops_its_seed_in_every_phase(cls):
    # g_minus gives None off the quadrant, where rk2 seeds and iterates go:
    # a seed that meets it is dropped, not raised, whether it iterates on
    # arrays or among the last seeds on python floats, so the rows with
    # every seed on arrays and with every seed on python floats are the same
    system = cls(lambda x, y: 1.0, lambda x, y: 0.5 * x + 0.5 * y, lambda x, y: 0.3 * x,
                 _none_off_the_quadrant)
    sx, sy = _ghost_seeds(system, RK2, 12)
    make, e = _scheme_core(RK2, 0.5)
    report = repr(detect_ghosts(system, RK2, 0.5, seeds_per_axis=12))
    rows = scan_fixed_points(system, make, e, sx, sy)
    assert np.isinf(rows[rows[:, 0] < 0.0, 2]).all()
    for threshold in (0, _ALL_SCALAR):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_SCALAR_SEEDS", threshold)
            assert scan_fixed_points(system, make, e, sx, sy).tobytes() == rows.tobytes()
            assert repr(detect_ghosts(system, RK2, 0.5, seeds_per_axis=12)) == report


def test_generic_loop_matches_kernel_path():
    # A replace of a system of the family calls its four callables where
    # the family calls its fused components; the orbits are the same bits.
    m1 = model1()
    clone = dataclasses.replace(m1)
    assert clone.rma_params is None
    for scheme in (NSFD, RK4):
        fast = integrate(m1, scheme, State(0.5, 0.5), 0.25, 50.0)
        slow = integrate(clone, scheme, State(0.5, 0.5), 0.25, 50.0)
        assert np.array_equal(fast.xs, slow.xs)
        assert np.array_equal(fast.ys, slow.ys)


def test_only_the_factory_tags_a_system():
    # replace gives a system without the tag, on the one path every system
    # takes: the bits of the family built by the factory in the same box,
    # and of a clone with each callable behind a call, per element
    box = dataclasses.replace(model2(), x_max=5.0, name="box")
    family = make_rosenzweig_macarthur(2.0, 1.0, 1.0, 0.2, name="box", x_max=5.0)
    elem = per_element_clone(family)
    assert box.rma_params is None and family.rma_params == MODEL2_PARAMS
    assert elem.rma_params is None
    trio = (box, family, elem)
    sx, sy = _ghost_seeds(family, RK4, 8)
    for scheme in (NSFD, RK4):
        got, want, slow = (detect_ghosts(s, scheme, 0.5, seeds_per_axis=8) for s in trio)
        assert repr(got) == repr(want) == repr(slow)
        rows = [_scan(s, scheme, 0.5, np.append(sx, -1.0), np.append(sy, 2.0)).tobytes()
                for s in trio]
        assert rows[0] == rows[1] == rows[2]
    assert point_bits(find_equilibria(box)) == point_bits(find_equilibria(family))
    assert point_bits(find_equilibria(elem)) == point_bits(find_equilibria(family))
    runs = [integrate(s, RK4, State(0.4, 0.4), 0.5, 50.0) for s in trio]
    assert len({(t.xs.tobytes(), t.ys.tobytes()) for t in runs}) == 1

    # a float-only partial constructs, and its search runs per seed, with
    # the family's bits (fsum of two floats is their rounded sum); a
    # non-family loss and forging the tag are in test_systems
    fmy = lambda x, y: 2.0 / math.fsum([1.0, x])
    float_only = dataclasses.replace(model2(), partials=dataclasses.replace(model2().partials,
                                                                            fmy=fmy))
    assert float_only.rma_params is None and not _plain_arithmetic(fmy)
    assert detect_ghosts(float_only, NSFD, 0.5, seeds_per_axis=8) == detect_ghosts(
        model2(), NSFD, 0.5, seeds_per_axis=8)
    assert [p.family for p in find_equilibria(float_only)] == ["O", "E3", "E1"]
    assert point_bits(find_equilibria(float_only)) == point_bits(find_equilibria(model2()))


def test_generic_loop_truncates_like_the_kernel():
    m1 = model1()
    clone = SplitSystem(m1.f_plus, m1.f_minus, m1.g_plus, m1.g_minus, name="clone")
    fast = integrate(m1, nsfd.EULER, State(15.0, 0.1), 0.1, 5.0)
    slow = integrate(clone, nsfd.EULER, State(15.0, 0.1), 0.1, 5.0)
    assert fast.truncated and slow.truncated
    assert fast.halt_step == slow.halt_step
    assert np.array_equal(fast.xs, slow.xs)


# ---------------------------------------------------------------------------
# the array rule: plain + - * / callables on whole arrays, in the same bits


# Evaluator.each and on_arrays call only the callables they are given, so
# any system will do; a new evaluator per call takes its verdicts anew
_M2 = model2()


def _each_of_outcome(fns, xs, ys, dropped=None):
    """The bytes of Evaluator.each's values, with every NaN made the one
    NaN of numpy, and of its mask; or the type it raised.

    The sign of a NaN that python float arithmetic makes is not fixed: in
    CPython 3.11, (110 - y) + (-c0) at y = c0 = nan gives +nan on a
    lambda's first seven calls and -nan once its float addition is
    specialised.  The array rule
    never gives a NaN from finite inputs, so NaN positions are compared,
    not NaN bits; every other bit of the values is compared exactly.
    """
    try:
        vals, mask = _Evaluator(_M2).each(fns, xs, ys, dropped)
    except Exception as exc:  # int results too large for a float, say
        return type(exc)
    return np.where(np.isnan(vals), np.nan, vals).tobytes(), mask.tobytes()


def _expression_fn(expr, c0, c1, g0):
    """lambda x, y: expr, with c0 and c1 closure cells and g0 a global."""
    ns = {"g0": g0}
    exec(f"def make(c0, c1):\n    return lambda x, y: {expr}\n", ns)
    return ns["make"](c0, c1)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0,
                1e154, 1e300, 1e308, -1e308, 1.7976931348623157e308]
_plain_floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
_plain_ints = st.one_of(st.sampled_from([0, 1, 2, -3, 2 ** 53, -2 ** 53]),
                        st.integers(-2 ** 53, 2 ** 53))
_expressions = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "c0", "c1", "g0"]), _plain_floats.map(repr),
              _plain_ints.map(repr)),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        kids.map(lambda a: f"(-{a})")),
    max_leaves=10)


@given(exprs=st.lists(_expressions, min_size=1, max_size=3),
       cells=st.tuples(*[st.one_of(_plain_floats, _plain_ints,
                                   st.sampled_from([math.inf, -math.inf, math.nan]))] * 3),
       px=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), max_size=6),
       py=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), max_size=6),
       skip=st.integers(0, 4))
@example(exprs=["(c0 / (x - c1))", "(y * g0)"], cells=(1.0, 2.0, 1e308), px=[3.0], py=[2.0],
         skip=0).via("a pole and an overflow")
@example(exprs=["((x * 1e+308) / 1e+308)"], cells=(0.0, 0.0, 0.0), px=[-0.0, 5e-324],
         py=[1.0], skip=0).via("an overflow that a later division would hide")
@example(exprs=["(x / y)", "(-x)"], cells=(0.0, 0.0, 0.0), px=[0.0, 1.0, math.nan],
         py=[0.0, -0.0, 1.0], skip=2).via("0/0, a zero divisor and a non-finite input")
@example(exprs=["(-(-0.0))", "(-(-1.899192943468184e+16 + 506))",
                "(-(((110 - y) + (-c0)) - (-0)))"], cells=(math.nan, 1e300, -659855), px=[],
         py=[], skip=1).via("a nan closure cell: a NaN whose sign changes between calls")
@equality_settings(150)
def test_the_array_rule_gives_the_per_element_bits(exprs, cells, px, py, skip):
    # every point is taken against every other, and the scalars themselves
    # join the points, so x - c1 and the like meet their zeros
    extra = [float(c) for c in cells]
    gx = np.array(px + extra + [-v for v in extra] + [0.0, 1.0])
    gy = np.array(py + extra + [0.0, 2.0])
    xs, ys = [g.ravel() for g in np.meshgrid(gx, gy, indexing="ij")]
    fns = [_expression_fn(e, *cells) for e in exprs]
    dropped = (np.arange(xs.size) % 5 == 1) if skip else None
    assert (_each_of_outcome(fns, xs, ys, dropped)
            == _each_of_outcome([per_element(f) for f in fns], xs, ys, dropped))


def test_the_array_rule_takes_population_forms():
    # the forms population models are written in pass the rule, at
    # positive points with no zero divisor, and a scalar result is broadcast
    r, k, a, b, c = 1.5, 4.0, 2.0, 0.5, 0.3
    forms = [lambda x, y: r * x * (1 - x / k), lambda x, y: a * x / (1.0 + b * x),
             lambda x, y: a * y / (1.0 + b * x + c * y), lambda x, y: a * x + b * y - c,
             lambda x, y: -x + 2 * y, lambda x, y: r, lambda x, y: x]

    def local(x, y):
        t = x + c
        return t * t - x / t

    def unpacked(x, y):  # python 3.13 stores both names in one instruction
        t, u = x, c
        return u * t

    xs, ys = np.linspace(0.1, 5.0, 9), np.linspace(0.2, 3.0, 9)
    for fn in forms + [local, unpacked]:
        assert _plain_arithmetic(fn)
        assert _Evaluator(_M2).on_arrays([fn], xs, ys) is not None
        assert _each_of_outcome([fn], xs, ys) == _each_of_outcome([per_element(fn)], xs, ys)


def test_a_non_finite_input_is_called_per_element():
    # nan / 0 and inf / 0 raise no numpy flag, but the scalar calls raise
    # ZeroDivisionError and drop the elements
    fn = lambda x, y: y / x
    xs, ys = np.array([0.0, 1.0, 0.0]), np.array([math.nan, 1.0, math.inf])
    vals, dropped = _Evaluator(_M2).each([fn], xs, ys)
    assert dropped.tolist() == [True, False, True]
    assert _each_of_outcome([fn], xs, ys) == _each_of_outcome([per_element(fn)], xs, ys)


class _Rates:
    def rate(self, x, y):
        return 0.5 * x + y


def _cell(v):
    return lambda x, y: v * x + y


def _scalar_local(c):
    def fn(x, y):  # t * c multiplies two scalars
        t, u = c, x
        return t * c + u
    return fn


def _population_system(form, p, x_max, wrap=lambda fn: fn):
    """A Lotka-Volterra, Holling II or Beddington-DeAngelis system of the
    parameters p, each component passed through wrap."""
    r, a, b, c, d, e = p
    if form == "lv":
        comps = (lambda x, y: r, lambda x, y: a * x + b * y,
                 lambda x, y: e, lambda x, y: c * x + d * y)
    elif form == "holling":
        comps = (lambda x, y: r, lambda x, y: r * x + a * y / (c + x),
                 lambda x, y: x / (c + x), lambda x, y: d)
    else:
        comps = (lambda x, y: r, lambda x, y: r * x / e + a * y / (1.0 + b * x + c * y),
                 lambda x, y: a * x * 0.6 / (1.0 + b * x + c * y), lambda x, y: d)
    return SplitSystem(*map(wrap, comps), x_max=x_max)


_GLOBALS = {"G": 2.0}
_REBOUND = eval("lambda x, y: G * x + y", _GLOBALS)


@pytest.mark.parametrize("fn", [
    lambda x, y: math.exp(x) + y,
    lambda x, y: x ** 2 + y,
    lambda x, y: x // 2 + y,
    lambda x, y: x % 2 + y,
    lambda x, y: abs(x) + y,
    lambda x, y: x if x > y else y,
    pytest.param(None, id="in-place"),
    lambda x, y=1.0: x + y,
    lambda *args: args[0] * args[1],
    functools.partial(lambda a, x, y: a * x + y, 2.0),
    _Rates().rate,
    np.add,
    _cell(np.float64(2.0)),
    _cell(np.array(2.0)),
    _cell(2 ** 53 + 1),
    lambda x, y: 1e400 / x + y,  # an inf constant
    (lambda v: lambda x, y: v / x + y)(math.inf),
    (lambda a, b: lambda x, y: a / b * x + y)(1.0, 3.0),
    _scalar_local(3.0),
    lambda x, y: 1,
], ids=["exp", "pow", "floordiv", "mod", "abs", "branch", "in-place", "default", "args",
        "partial", "bound-method", "ufunc", "np-float64-cell", "array-cell", "big-int-cell",
        "inf-const", "inf-cell", "scalar-op", "scalar-local", "int-result"])
def test_the_array_rule_refuses_what_it_cannot_prove(fn):
    if fn is None:
        def fn(x, y):
            t = x
            t += y
            return t
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 3.0, 800.0])
    ys = np.array([0.25, 1.0, 2.0, 0.0, -1.0, 3.0])
    assert _Evaluator(_M2).on_arrays([fn], xs, ys) is None
    assert _each_of_outcome([fn], xs, ys) == _each_of_outcome([per_element(fn)], xs, ys)


def test_a_global_rebound_to_an_array_is_refused_after_construction():
    comps = (lambda x, y: 1.0, _REBOUND, lambda x, y: 0.5, lambda x, y: 0.2 + 0.1 * x)
    system = SplitSystem(*comps, x_max=4.0)
    twin = SplitSystem(*map(per_element, comps), x_max=4.0)
    xs, ys = np.linspace(0.0, 4.0, 7), np.linspace(0.0, 4.0, 7)
    assert _plain_arithmetic(_REBOUND)
    try:
        _GLOBALS["G"] = np.array(0.5)
        assert not _plain_arithmetic(_REBOUND)
        assert _Evaluator(_M2).on_arrays([_REBOUND], xs, ys) is None
        assert (_each_of_outcome(comps, xs, ys)
                == _each_of_outcome(list(map(per_element, comps)), xs, ys))
        assert point_bits(find_equilibria(system)) == point_bits(find_equilibria(twin))
    finally:
        _GLOBALS["G"] = 2.0


@given(form=st.sampled_from(["lv", "holling", "bd"]),
       p=st.tuples(*[st.floats(-0.3, 3.0)] * 6), x_max=st.floats(1.0, 8.0),
       h=st.floats(0.05, 4.0),
       gx=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=4),
       gy=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=3))
@example(form="holling", p=(1.0, 2.0, 0.5, 1.0, 0.2, 1.0), x_max=5.0, h=0.5, gx=[1.0],
         gy=[0.5]).via("a coexistence point, and a pole on x = -c")
@example(form="lv", p=(1.0, 1.0, 0.5, 0.4, 1.1, -0.2), x_max=5.0, h=0.5, gx=[1.0],
         gy=[0.5]).via("a refused construction")
@equality_settings(15)
def test_population_systems_take_the_array_rule_in_the_same_bits(form, p, x_max, h, gx, gy):
    # the same system with each component behind a call, so per element
    # everywhere: the same construction verdict and message, equilibria
    # and ghost-scan rows of every scheme, seeds off the quadrant included
    def build(wrap=lambda fn: fn):
        try:
            return _population_system(form, p, x_max, wrap), None
        except ConstructionError as exc:
            return None, str(exc)

    system, refusal = build()
    twin, twin_refusal = build(per_element)
    assert refusal == twin_refusal
    if system is None:
        return
    comps = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
    assert all(map(_plain_arithmetic, comps))
    assert point_bits(find_equilibria(system)) == point_bits(find_equilibria(twin))
    xs = np.array(gx + [-p[3], 0.0])
    sx, sy = [g.ravel() for g in np.meshgrid(xs, np.array(gy + [0.0]), indexing="ij")]
    for scheme in (NSFD, EULER, RK2, RK4):
        assert _scan(system, scheme, h, sx, sy).tobytes() == _scan(twin, scheme, h, sx, sy).tobytes()


def test_the_verdict_is_taken_once_per_operation(monkeypatch):
    # one search, and then one ghost scan, each take the array rule's
    # verdict at most once per distinct callable, though f_minus fails the
    # rule and its calls go per element: the four components here
    system = SplitSystem(lambda x, y: 1.0,
                         lambda x, y: 0.2 * x + 0.5 * y + 0.0 * math.sqrt(1.0 + x * x),
                         lambda x, y: 0.6 * x / (1.0 + x), lambda x, y: 0.2, x_max=4.0)
    comps = (system.f_plus, system.f_minus, system.g_plus, system.g_minus)
    assert [_plain_arithmetic(fn) for fn in comps] == [True, False, True, True]
    verdicts = []

    def counted(fn):
        verdicts.append(fn)
        return _plain_arithmetic(fn)

    monkeypatch.setattr(_kernels, "_plain_arithmetic", counted)
    find_equilibria(system)
    assert len(verdicts) == len({id(fn) for fn in verdicts}) <= len(comps)
    verdicts.clear()
    detect_ghosts(system, RK4, 0.5, seeds_per_axis=20)
    assert len(verdicts) == len({id(fn) for fn in verdicts}) <= len(comps)


def test_every_family_closure_passes_the_array_rule():
    # the four components and eight partials of the family are plain
    # + - * / expressions; if a python version compiled one otherwise, the
    # family would go per element, in the same bits but slowly
    system = make_rosenzweig_macarthur(2.0, 1.0, 0.5, 0.3)
    closures = [system.f_plus, system.f_minus, system.g_plus, system.g_minus,
                *(getattr(system.partials, f) for f in PartialValues._fields)]
    assert len(closures) == 12
    assert all(map(_plain_arithmetic, closures))


@pytest.mark.parametrize("scheme", [NSFD, ensfd(exponential_weight(0.5))],
                         ids=["nsfd", "ensfd"])
def test_a_zero_divisor_under_the_array_call_goes_per_element(scheme):
    # at x = -c, f_minus divides by zero: the scalar step raises, but on
    # arrays a * y / 0 is inf and x * (1 + e b) / inf a finite 0, and the
    # constant g+- leave y finite, so the map has a finite value there.
    # The divide flag sends that call per element, and the seed fails
    # with residual inf, as in the seed-by-seed scan.
    a, b, c = 2.0, 1.0, 0.5
    comps = (lambda x, y: b, lambda x, y: b * x + a * y / (c + x),
             lambda x, y: 0.6, lambda x, y: 0.2)
    system = SplitSystem(*comps, x_max=4.0)
    assert all(map(_plain_arithmetic, comps))
    make, e = _scheme_core(scheme, 0.5)
    step = make(system.components, e)
    sx, sy = np.array([-c, 1.0, -c, 2.0]), np.array([1.0, 1.0, 2.0, 0.5])
    with np.errstate(divide="ignore"):
        mx, my = step(sx, sy)
    assert np.isfinite(mx).all() and np.isfinite(my).all()
    with pytest.raises(ZeroDivisionError):
        step(-c, 1.0)
    rows = _scan(system, scheme, 0.5, sx, sy)
    assert rows.tobytes() == scalar_scan(step, sx, sy).tobytes()
    assert np.isinf(rows[sx == -c, 2]).all() and np.isfinite(rows[sx != -c, 2]).all()
