"""System construction, validation, and derivative plumbing."""

import math

import numpy as np
import pytest

from nsfd import (
    ConstructionError,
    DomainError,
    SplitSystem,
    State,
    field_jacobian,
    from_selector,
    make_rosenzweig_macarthur,
    model1,
    model2,
    numeric_partials,
    vector_field,
)
from nsfd.systems import partials_at


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


def test_constructor_rejects_nonpositive_parameters():
    for bad in [(0.0, 1, 1, 1), (1, -2, 1, 1), (1, 1, math.nan, 1), (1, 1, 1, math.inf)]:
        with pytest.raises(ConstructionError):
            make_rosenzweig_macarthur(*bad)


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
