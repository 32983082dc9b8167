"""Composition, working intervals, orbits and cycle enumeration."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envcert import (
    GeometricCycle,
    Interval,
    PeriodicSystem,
    compose_array,
    find_geometric_cycles,
    iterate_orbit,
    make_model,
    make_system,
)
from envcert import certify, numerics, periodic
from envcert.certify import two_cycle_oracle
from envcert.cli import _bundled_names, _load_config, run_command
from envcert.config import config_to_system
from envcert.numerics import GridConfig, scan_roots
from envcert.periodic import _checked_walk, _proper_divisors, _seq_minimal_period, cycle_grid
from references import fd_derivative


BUNDLED = _bundled_names()


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
    assert mix.period_map.deriv(1.0, 1) == pytest.approx(-1.0 / 6.0, abs=1e-14)


def test_composition_derivative_matches_fd():
    sys3 = ricker_system(1.8, 1.2, 0.5)
    for x in (0.3, 0.9, 1.4):
        an = sys3.period_map.deriv(x, 1)
        fd = fd_derivative(lambda t: compose_array(sys3, np.asarray([t]))[0], x, 1)
        assert fd == pytest.approx(an, rel=1e-7)


def _composition_derivative(system, x):
    """(Phi_p)'(x) by the chain rule over one period from phase 0, one
    scalar step at a time: how the multiplier was taken before the period
    map became a model.  The reference for period_map.deriv."""
    prod = 1.0
    val = float(x)
    for f in system.maps:
        prod *= f.deriv(val, 1)
        val = f.eval(val)
    return prod


@pytest.mark.parametrize("name", BUNDLED)
def test_period_map_multiplier_equals_the_scalar_chain_rule(name):
    system = config_to_system(_load_config(name))
    phi = system.period_map
    if name == "piecewise_pair":  # 1 is a breakpoint of both maps
        for slope in (phi.deriv, lambda x: _composition_derivative(system, x)):
            with pytest.raises(ValueError, match="undefined at breakpoint x=1"):
                slope(1.0)
        return
    assert phi.deriv(1.0) == _composition_derivative(system, 1.0)


_FD_TOL = {1: 1e-8, 2: 1e-6, 3: 1e-3}


@pytest.mark.parametrize("name", BUNDLED)
def test_period_map_jets_match_fd(name):
    system = config_to_system(_load_config(name))
    phi = system.period_map
    assert phi.label == "composition"
    assert phi.domain == system.working_interval
    hi = min(system.working_interval.hi, 3.0)
    g = lambda t: float(phi.eval_array(np.asarray([t]))[0])
    kinks = np.asarray(phi.breakpoints)
    checked = 0
    for x in np.linspace(0.1, hi - 0.05, 23):
        # the widest stencil, for order 3, reaches 2 * 7e-3 * max(1, x)
        if np.any(np.abs(kinks - x) <= 0.05 * max(1.0, x)):
            continue
        checked += 1
        for order in (1, 2, 3):
            an = float(phi.deriv_array(np.asarray([x]), order)[0])
            fd = fd_derivative(g, float(x), order)
            # the stencils' truncation error grows with the order: the worst
            # bundled case, order 3 at x = 0.1 on ricker_triple, is 2.6e-4
            assert abs(fd - an) <= _FD_TOL[order] * max(1.0, abs(an)), (x, order)
    assert checked >= 10


def test_period_map_breakpoints_follow_the_orbits():
    system = config_to_system(_load_config("piecewise_pair"))
    kinks = system.period_map.breakpoints
    assert list(kinks) == sorted(kinks)
    # 4 x = 0.5 meets the second map's breakpoint; 1 is both maps'
    assert any(x == pytest.approx(0.125, abs=1e-12) for x in kinks)
    assert any(x == pytest.approx(1.0, abs=1e-9) for x in kinks)
    assert not system.period_map.is_c1
    smooth = ricker_system(1.5, 1.2).period_map
    assert smooth.is_c1 and smooth.smooth


def test_certify_builds_the_period_map_once(monkeypatch):
    # the axiom gate and the multiplier share one Phi, so each breakpoint
    # of the second map is scanned for once
    system = config_to_system(_load_config("piecewise_pair"))
    calls = []
    real = periodic.scan_roots
    monkeypatch.setattr(periodic, "scan_roots", lambda *a, **k: calls.append(a) or real(*a, **k))
    certify.certify_global_stability(system)
    assert len(calls) == len(system.maps[1].breakpoints) == 2
    assert system.period_map is system.period_map


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


def _grid_max(g, lo, hi):
    """(argmax, max) of g on [lo, hi] from 8193 grid points and a ternary
    polish around the best one: how make_system took each map's maximum
    before it scanned f' for sign changes.  The reference for that scan."""
    xs = np.linspace(lo, hi, 8193)
    with np.errstate(all="ignore"):
        vs = np.asarray(g(xs), dtype=float)
    i = int(np.nanargmax(vs))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    for _ in range(120):
        if b - a <= 1e-13 * max(1.0, abs(b)):
            break
        m1, m2 = a + (b - a) / 3, b - (b - a) / 3
        if float(g(np.asarray([m1]))[0]) < float(g(np.asarray([m2]))[0]):
            a = m1
        else:
            b = m2
    xstar = 0.5 * (a + b)
    return xstar, float(g(np.asarray([xstar]))[0])


def test_grid_max_parabola():
    # y = -(x-2)^2 + 1, peak at (2, 1)
    x, v = _grid_max(lambda t: -((t - 2.0) ** 2) + 1.0, 0.0, 4.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert v == pytest.approx(1.0, abs=1e-10)


def test_grid_max_at_boundary():
    x, v = _grid_max(lambda t: np.asarray(t, dtype=float), 0.0, 3.0)
    assert x == pytest.approx(3.0)
    assert v == pytest.approx(3.0)


def _reference_working_interval(maps):
    """make_system's working interval with each maximum from _grid_max, or
    the ValueError message it raises."""
    with mock.patch.object(periodic, "_max_on", lambda f, m: _grid_max(f.eval_array, 0.0, m)[1]):
        try:
            return make_system(maps).working_interval
        except ValueError as exc:
            return str(exc)


@pytest.mark.parametrize("name", BUNDLED)
def test_working_interval_equals_the_grid_max_reference_on_bundled_configs(name):
    maps = _load_config(name).models
    assert make_system(maps).working_interval == _reference_working_interval(maps)


_HUMPED_MAP = st.one_of(
    st.builds(lambda mu: ("quadratic", {"mu": mu}), st.floats(0.05, 3.5)),
    st.builds(lambda r, c: ("beverton-holt-harvest", {"r": r, "c": c}),
              st.floats(1.01, 6.0), st.floats(0.01, 0.99)),
)
_OTHER_MAP = st.one_of(
    st.builds(lambda r: ("ricker", {"r": r}), st.floats(0.3, 3.0)),
    st.builds(lambda mu, c: ("beverton-holt", {"mu": mu, "c": c}),
              st.floats(1.1, 5.0), st.floats(0.3, 4.0)),
    st.builds(lambda a, b: ("exponential-rational", {"a": a, "b": b}),
              st.floats(0.1, 1.0), st.floats(0.5, 3.0)),
)


@settings(deadline=None, max_examples=60)
@given(first=_HUMPED_MAP, rest=st.lists(st.one_of(_HUMPED_MAP, _OTHER_MAP), max_size=2))
@example(first=("quadratic", {"mu": 2.0}), rest=[("quadratic", {"mu": 1.0})])
@example(first=("beverton-holt-harvest", {"r": 2.0, "c": 0.5}),
         rest=[("beverton-holt-harvest", {"r": 3.0, "c": 0.3})])
def test_working_interval_matches_the_grid_max_reference(first, rest):
    # Both maxima are f evaluated within about 1e-8 of the peak, where the
    # formula's rounding decides the last bit: they agree bit for bit on
    # the bundled configs, here to a few ulps.  A working interval that
    # the chain check's bisection sets inherits those ulps in its start
    # and ends up to ~1e-13 apart.
    maps = [make_model(fam, params) for fam, params in [first, *rest]]
    ref = _reference_working_interval(maps)
    try:
        got = make_system(maps).working_interval
    except ValueError as exc:
        assert str(exc) == ref
        return
    assert isinstance(ref, Interval), ref
    assert got.lo == ref.lo == 0.0
    assert got.hi == pytest.approx(ref.hi, rel=1e-12, abs=0.0)


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


def cycles_fixed_points(name, capsys):
    """The fixed points of the period map in a bundled config's cycles report."""
    assert run_command(["cycles", name, "--r-max", "1"]) == 0
    return np.asarray(json.loads(capsys.readouterr().out)["result"]["fixed_points"])


def test_fixed_points_ricker_triple(capsys):
    # ricker r = 1.8, 1.2, 0.5
    fps = cycles_fixed_points("ricker_triple", capsys)
    np.testing.assert_allclose(fps, [0.0, 1.0], atol=1e-9)


def test_fixed_point_injection_at_tangency(capsys):
    # quadratic mu = 2.0, 1.0: mu = 2 makes the composition tangent to
    # the diagonal at 1
    fps = cycles_fixed_points("quadratic_pair", capsys)
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


def _reference_cycles(system, r_max):
    """The cycle search without known states: every bracket is refined and
    orbits are deduplicated by 7-digit state sets, which can list one
    chaotic orbit twice.  Returns each cycle's complete tuple."""
    cfg = GridConfig()
    p = system.period
    hi = system.working_interval.hi
    found = []
    seen = set()
    for r in range(1, r_max + 1):
        n = r * p
        for i in range(p):
            g = lambda t: compose_array(system, t, n, i) - t
            roots = [float(x) for x in scan_roots(g, (1e-9, hi), cfg.seed_cells)]
            anchor_res = abs(float(compose_array(system, np.asarray([1.0]), n, i)[0]) - 1.0)
            if anchor_res <= 1e-9:
                roots = [x for x in roots if abs(x - 1.0) > cfg.exclusion_radius]
                roots.append(1.0)
            for x0 in sorted(roots):
                if x0 <= 1e-8:
                    continue
                lower = False
                for q in _proper_divisors(r):
                    img = float(compose_array(system, np.asarray([x0]), q * p, i)[0])
                    if abs(img - x0) <= 1e-8 * max(1.0, x0):
                        lower = True
                        break
                if lower:
                    continue
                try:
                    seq = _checked_walk(system, x0, n, i)
                except ValueError:
                    continue
                if abs(seq[-1] - x0) > 1e-7 * max(1.0, x0):
                    continue
                orbit = seq[:n]
                key = tuple(sorted(set(round(float(x), 7) for x in orbit)))
                if key in seen:
                    continue
                seen.add(key)
                r_geom = _seq_minimal_period(orbit, 1e-8 * max(1.0, max(orbit)))
                s = math.lcm(r_geom, p)
                found.append(tuple(((i + t) % p, orbit[t % n]) for t in range(s)))
    return found


def _same_orbit(c1, c2, tol=1e-6):
    """Two complete cycles visit the same (phase, state) pairs within tol."""
    def covered(a, b):
        return all(any(pa == pb and abs(xa - xb) <= tol for pb, xb in b) for pa, xa in a)
    return covered(c1, c2) and covered(c2, c1)


def test_each_orbit_is_listed_once():
    # walked from different points, the 5-cycle and a 6-cycle of this
    # chaotic map round differently at 7 digits, and were listed twice
    cycles = find_geometric_cycles(ricker_system(3.0), 6)
    assert [c.period_count for c in cycles] == [1, 2, 4, 5, 5, 6, 6]
    mins = [min(c.points) for c in cycles]
    assert sum(abs(m - 0.041146) < 1e-6 for m in mins) == 1
    assert sum(abs(m - 0.064808) < 1e-6 for m in mins) == 1


_OSC_MAP = st.one_of(
    st.builds(lambda r: ("ricker", {"r": r}), st.floats(2.3, 3.3)),
    # f'(1) < -1 needs mu > c/(c - 2)
    st.builds(
        lambda c, t: ("beverton-holt", {"mu": c / (c - 2.0) + 1.0 + t * 6.0, "c": c}),
        st.floats(2.5, 4.0), st.floats(0.0, 1.0),
    ),
)
_MILD_RICKER = st.builds(lambda r: ("ricker", {"r": r}), st.floats(0.5, 1.0))


@settings(deadline=None, max_examples=40)
@given(osc=_OSC_MAP, mild=st.lists(_MILD_RICKER, max_size=2), r_max=st.integers(1, 5))
@example(osc=("ricker", {"r": 3.0}), mild=[], r_max=5)
def test_cycles_match_the_reference_search(osc, mild, r_max):
    system = make_system([make_model(f, p) for f, p in [osc, *mild]])
    cycles = [c.complete for c in find_geometric_cycles(system, r_max)]
    reference = []
    for c in _reference_cycles(system, r_max):
        if not any(_same_orbit(c, d) for d in reference):
            reference.append(c)
    assert not any(
        _same_orbit(a, b) for k, a in enumerate(cycles) for b in cycles[:k]
    ), "an orbit is listed twice"
    assert len(cycles) == len(reference)
    assert all(any(_same_orbit(c, d) for d in cycles) for c in reference)


def _refine_all_cycles(system, r_max, cfg):
    """The cycle search that refines every bracket of a scan before it
    walks any root: the scan's roots are visited in sorted order, and a
    root within 1e-7 of a phase-i state of a cycle already found, with a
    period count dividing r, is an orbit already listed."""
    p = system.period
    hi = system.working_interval.hi
    found = []
    for r in range(1, r_max + 1):
        n = r * p
        for i in range(p):
            known = [
                x for c in found if r % c.period_count == 0
                for ph, x in c.complete if ph == i
            ]
            g = lambda t: compose_array(system, t, n, i) - t
            roots = [float(x) for x in scan_roots(g, (1e-9, hi), cfg.seed_cells)]
            anchor_res = abs(float(compose_array(system, np.asarray([1.0]), n, i)[0]) - 1.0)
            if anchor_res <= 1e-9:
                roots = [x for x in roots if abs(x - 1.0) > cfg.exclusion_radius]
                roots.append(1.0)
            for x0 in sorted(roots):
                if x0 <= 1e-8:
                    continue
                if any(abs(x0 - x) <= 1e-7 * max(1.0, x0) for x in known):
                    continue
                if any(
                    abs(float(compose_array(system, np.asarray([x0]), q * p, i)[0]) - x0)
                    <= 1e-8 * max(1.0, x0)
                    for q in _proper_divisors(r)
                ):
                    continue
                try:
                    seq = _checked_walk(system, x0, n, i)
                except ValueError:
                    continue
                if abs(seq[-1] - x0) > 1e-7 * max(1.0, x0):
                    continue
                orbit = seq[:n]
                r_geom = _seq_minimal_period(orbit, 1e-8 * max(1.0, max(orbit)))
                s = math.lcm(r_geom, p)
                complete = tuple(((i + t) % p, orbit[t % n]) for t in range(s))
                found.append(GeometricCycle(
                    start_phase=i,
                    points=tuple(orbit[q * p] for q in range(r)),
                    period_count=r,
                    complete=complete,
                ))
                known.extend(x for ph, x in complete if ph == i)
    found.sort(key=lambda c: (len(c.points), min(c.points), c.start_phase))
    return tuple(found)


@pytest.mark.parametrize("name", BUNDLED)
def test_cycles_equal_the_refine_all_search_on_bundled_configs(name):
    cfg = _load_config(name)
    system = config_to_system(cfg)
    assert find_geometric_cycles(system, 6, cfg.grid) == _refine_all_cycles(system, 6, cfg.grid)


@settings(deadline=None, max_examples=40)
@given(osc=_OSC_MAP, mild=st.lists(_MILD_RICKER, max_size=2), r_max=st.integers(1, 5))
@example(osc=("ricker", {"r": 3.0}), mild=[], r_max=5)
def test_cycles_equal_the_refine_all_search(osc, mild, r_max):
    # equal floats, not within a tolerance: skipping a bracket may only
    # skip a root that would have been dropped as an orbit already listed
    system = make_system([make_model(f, p) for f, p in [osc, *mild]])
    assert find_geometric_cycles(system, r_max) == _refine_all_cycles(system, r_max, GridConfig())


def test_cycles_refine_one_bracket_per_orbit(monkeypatch):
    # one refinement for each of the 6 orbits listed besides the fixed
    # point 1, which is checked before the scan and never bracketed; a
    # known state walked along a chaotic orbit may sit 6e-9 off its root,
    # inside the skip test's probes, so its bracket is not refined;
    # without walking each new cycle before the scan's other brackets
    # are refined, its other states cost 22 more
    calls = []
    real = numerics.bracketed_root

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "bracketed_root", counted)
    cycles = find_geometric_cycles(ricker_system(3.0), 6)
    assert len(cycles) == 7
    assert len(calls) == 6


# one system per period p = 1, 2, 3, each with an oscillating map
_CHAIN_SYSTEMS = {
    1: ricker_system(3.0),
    2: make_system([make_model("ricker", {"r": 2.8}),
                    make_model("beverton-holt", {"mu": 5.0, "c": 3.0})]),
    3: ricker_system(2.6, 0.8, 3.1),
}


@pytest.mark.parametrize("p", sorted(_CHAIN_SYSTEMS))
def test_period_map_chain_is_bit_identical(p):
    system = _CHAIN_SYSTEMS[p]
    xs = cycle_grid(system, GridConfig())
    for i in range(p):
        image = xs
        for r in range(1, 7):
            image = compose_array(system, image, p, i)
            assert np.array_equal(image, compose_array(system, xs, r * p, i), equal_nan=True)


def _recompose_from_scratch(monkeypatch, module):
    """Make module's phase_cycles compose Phi^r from the scan grid in one
    call, check that the carried image equals it bit for bit, and scan
    the fresh one."""
    real = periodic.phase_cycles
    used = []

    def scratch(system, r, i, known, cfg, image):
        fresh = compose_array(system, cycle_grid(system, cfg), r * system.period, i)
        used.append(np.array_equal(image, fresh))
        return real(system, r, i, known, cfg, fresh)

    monkeypatch.setattr(module, "phase_cycles", scratch)
    return used


@pytest.mark.parametrize("p", sorted(_CHAIN_SYSTEMS))
def test_carried_images_give_the_cycles_and_oracle_of_a_fresh_composition(monkeypatch, p):
    system = _CHAIN_SYSTEMS[p]
    cycles = find_geometric_cycles(system, 6)
    oracle = two_cycle_oracle(system)
    assert oracle.verdict == "fails" and cycles
    with monkeypatch.context() as m:
        used = _recompose_from_scratch(m, periodic)
        assert find_geometric_cycles(system, 6) == cycles
        assert used == [True] * 6 * p
    with monkeypatch.context() as m:
        used = _recompose_from_scratch(m, certify)
        assert two_cycle_oracle(system) == oracle
        assert used == [True, True]
