"""Composition, working intervals, orbits and cycle enumeration."""

import dataclasses

import numpy as np
import pytest

from envcert import (
    Interval,
    PeriodicSystem,
    compose_array,
    composition_derivative,
    find_fixed_points,
    find_geometric_cycles,
    iterate_orbit,
    make_model,
    make_system,
)
from envcert.numerics import fd_derivative


def ricker_system(*rs, x_max=None):
    return make_system([make_model("ricker", {"r": r}, x_max=x_max) for r in rs])


def test_minimal_period_enforced():
    with pytest.raises(ValueError, match="minimal period"):
        ricker_system(1.5, 1.5)
    with pytest.raises(ValueError, match="minimal period"):
        ricker_system(1.5, 1.2, 1.5, 1.2)
    with pytest.raises(ValueError):
        make_system([])


def test_shared_fixed_point_composes_to_itself():
    sys2 = ricker_system(1.5, 1.2)
    one = np.asarray([1.0])
    assert compose_array(sys2, one, 2, 0)[0] == pytest.approx(1.0, abs=1e-12)
    assert compose_array(sys2, one, 2, 1)[0] == pytest.approx(1.0, abs=1e-12)


def test_empty_composition_is_identity():
    sys2 = ricker_system(1.5, 1.2)
    assert compose_array(sys2, np.asarray([0.37]), 0)[0] == 0.37


def test_compose_matches_manual_chain():
    sys2 = ricker_system(1.5, 1.2)
    f0, f1 = sys2.maps
    x = 0.42
    pt = np.asarray([x])
    assert compose_array(sys2, pt, 2, 0)[0] == pytest.approx(f1.eval(f0.eval(x)), rel=1e-14)
    assert compose_array(sys2, pt, 2, 1)[0] == pytest.approx(f0.eval(f1.eval(x)), rel=1e-14)
    xs = np.linspace(0.05, 2.5, 17)
    np.testing.assert_allclose(
        compose_array(sys2, xs, 2, 0), f1.eval_array(f0.eval_array(xs)), rtol=1e-14
    )


def test_multiplier_is_product_of_slopes():
    mix = make_system([
        make_model("ricker", {"r": 1.5}),
        make_model("beverton-holt", {"mu": 3.0, "c": 1.0}),
    ])
    # (1 - 1.5) * (1 - 2/3) = -1/6
    assert composition_derivative(mix, 1.0) == pytest.approx(-1.0 / 6.0, abs=1e-14)


def test_composition_derivative_matches_fd():
    sys3 = ricker_system(1.8, 1.2, 0.5)
    for x in (0.3, 0.9, 1.4):
        an = composition_derivative(sys3, x)
        fd = fd_derivative(lambda t: compose_array(sys3, np.asarray([t]))[0], x, 1)
        assert fd == pytest.approx(an, rel=1e-7)


def test_working_interval_caps_at_image_for_humped_maps():
    pair = make_system([
        make_model("quadratic", {"mu": 2.0}),
        make_model("quadratic", {"mu": 1.0}),
    ])
    assert pair.working_interval.lo == 0.0
    assert pair.working_interval.hi == pytest.approx(1.0)

    harv = make_system([
        make_model("beverton-holt-harvest", {"r": 2.0, "c": 0.5}),
        make_model("beverton-holt-harvest", {"r": 3.0, "c": 0.3}),
    ])
    assert harv.working_interval.hi >= 1.0 - 1e-9


def test_working_interval_unbounded_families_use_domain():
    sys3 = ricker_system(1.8, 1.2, 0.5)
    assert sys3.working_interval.hi == pytest.approx(20.0)


def test_orbit_constant_at_fixed_point():
    sys2 = ricker_system(1.5, 1.2)
    orbit = iterate_orbit(sys2, 1.0, 5)
    assert orbit.shape == (11,)
    np.testing.assert_allclose(orbit, 1.0, atol=1e-12)


def test_orbit_rejects_start_outside_interval():
    pair = make_system([
        make_model("quadratic", {"mu": 2.0}),
        make_model("quadratic", {"mu": 1.0}),
    ])
    with pytest.raises(ValueError):
        iterate_orbit(pair, 1.4, 3)


def test_orbit_escape_reports_step():
    # hand-built interval that is not forward invariant
    f = make_model("custom", pieces=[(0.0, "x*exp(3*(1 - x))")], x_max=2.0)
    broken = PeriodicSystem(maps=(f,), period=1, working_interval=Interval(0.0, 2.0))
    with pytest.raises(ValueError, match="escape"):
        iterate_orbit(broken, 0.3, 4)


def test_cycles_skip_an_orbit_that_escapes():
    # the 2-cycle (0.1414, 1.8586) leaves the domain [0, 1.8] at its
    # second point, so only the fixed point at 1 is reported
    f = make_model("custom", pieces=[(0.0, "x*exp(3*(1 - x))")], x_max=1.8)
    broken = PeriodicSystem(maps=(f,), period=1, working_interval=Interval(0.0, 1.8))
    cycles = find_geometric_cycles(broken, 2)
    assert [c.points for c in cycles] == [pytest.approx((1.0,), abs=1e-9)]


def test_fixed_points_ricker_triple():
    sys3 = ricker_system(1.8, 1.2, 0.5)
    fps = find_fixed_points(sys3)
    np.testing.assert_allclose(fps, [0.0, 1.0], atol=1e-9)


def test_fixed_point_injection_at_tangency():
    # mu = 2 makes the composition tangent to the diagonal at 1
    pair = make_system([
        make_model("quadratic", {"mu": 2.0}),
        make_model("quadratic", {"mu": 1.0}),
    ])
    fps = find_fixed_points(pair)
    assert np.any(np.abs(fps - 1.0) < 1e-9)
    assert np.any(np.abs(fps) < 1e-12)


def test_cycle_enumeration_common_fixed_point():
    sys2 = ricker_system(1.5, 1.2)
    cycles = find_geometric_cycles(sys2, 1)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.period_count == 1
    assert c.points == pytest.approx((1.0,), abs=1e-9)
    assert c.complete_length == 2
    phases = [ph for ph, _ in c.complete]
    assert phases == [0, 1]


def test_period_doubled_ricker_two_cycle():
    single = ricker_system(2.3)
    cycles = find_geometric_cycles(single, 2)
    two = [c for c in cycles if c.period_count == 2]
    assert len(two) == 1
    pts = sorted(two[0].points)
    assert pts[0] == pytest.approx(0.40784502975888715, abs=1e-9)
    assert pts[1] == pytest.approx(1.5921549702411129, abs=1e-9)
    assert pts[0] < 1.0 < pts[1]
    assert two[0].complete_length == 2


def test_stable_ricker_has_no_two_cycle():
    single = ricker_system(1.8)
    cycles = find_geometric_cycles(single, 2)
    assert all(c.period_count == 1 for c in cycles)


def test_system_label_and_immutability():
    sys2 = ricker_system(1.5, 1.2)
    assert sys2.period == 2
    assert "ricker" in sys2.label
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys2.period = 3


def test_orbit_requires_positive_period_count():
    sys2 = ricker_system(1.5, 1.2)
    with pytest.raises(ValueError):
        iterate_orbit(sys2, 0.5, 0)
