"""Envelope construction, structural checks and enveloping verdicts."""

import math
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from envcert import (
    envelops,
    fit_mobius,
    make_custom_envelope,
    make_mobius,
    make_model,
    make_piecewise_bh,
    make_reciprocal,
    make_system,
    structural_check,
)
from envcert import envelopes as envelopes_mod
from envcert.cli import _bundled_names, _load_config
from envcert.config import config_to_system
from envcert.numerics import GridConfig


def test_mobius_half_is_affine():
    h = make_mobius(0.5)
    rng = np.random.default_rng(7)
    xs = rng.uniform(1e-6, 2.0 - 1e-6, size=2000)
    np.testing.assert_allclose(h.eval_array(xs), 2.0 - xs, atol=1e-12)
    assert h.x_h == pytest.approx(2.0)


def test_mobius_zero_is_reciprocal():
    h = make_mobius(0.0)
    rng = np.random.default_rng(8)
    xs = rng.uniform(1e-3, 50.0, size=2000)
    np.testing.assert_allclose(h.eval_array(xs), 1.0 / xs, rtol=1e-12)
    assert h.x_h == np.inf


def test_mobius_alpha_range_checked():
    with pytest.raises(ValueError):
        make_mobius(1.0)
    with pytest.raises(ValueError):
        make_mobius(-0.1)


def test_reciprocal_envelope():
    h = make_reciprocal()
    assert h.eval(2.0) == pytest.approx(0.5)
    assert h.eval(1.0) == pytest.approx(1.0)
    rep = structural_check(h)
    assert rep.involution_passed
    assert rep.involution_residual <= 1e-12


def test_affine_involution_is_near_exact():
    # the line through (1, 1) with slope -1 composes to x up to one
    # rounding step of the rational evaluation, not bit-exactly
    rep = structural_check(make_mobius(0.5))
    assert rep.involution_passed
    assert rep.involution_residual <= 1e-12


def test_piecewise_bh_envelope_matches_mobius_form():
    # for c > 2 the map-specific envelope is the mobius with (c-2)/(c-1)
    c = 7.5
    h = make_piecewise_bh(c)
    m = make_mobius((c - 2.0) / (c - 1.0))
    xs = np.linspace(1e-3, h.x_h - 1e-3, 500)
    np.testing.assert_allclose(h.eval_array(xs), m.eval_array(xs), rtol=1e-12)
    assert structural_check(h).passed


def test_piecewise_bh_requires_steep_exponent():
    with pytest.raises(ValueError):
        make_piecewise_bh(2.0)


def test_custom_envelope_expression():
    h = make_custom_envelope("(4 - 3*x)/(3 - 2*x)")
    m = make_mobius(0.75)
    xs = np.linspace(0.01, 1.3, 300)
    np.testing.assert_allclose(h.eval_array(xs), m.eval_array(xs), rtol=1e-10)
    assert h.x_h == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert structural_check(h).passed


@pytest.mark.parametrize("expr, x_h", [
    ("1/x", 0.5), ("2 - x", 1.0),  # not past 1
    ("1/x", 2.0), ("2 - x", 1.5),  # not a root
    ("2 - x", 3.0),  # past the root at 2
    ("2*(1.5 - x)*(2 - x)", 2.0),  # a root, but not the first one past 1
])
def test_custom_envelope_rejects_x_h_off_its_first_root(expr, x_h):
    with pytest.raises(ValueError, match="is not the first root of h past 1"):
        make_custom_envelope(expr, x_h)
    assert make_custom_envelope(expr, math.inf).x_h == math.inf


def test_non_involution_candidate_rejected():
    # a humped map is not a decreasing involution; with no root past 1 the
    # gate spans (1e-6, 1000)
    g = make_custom_envelope("x*exp(2*(1 - x))")
    assert g.x_h == math.inf
    rep = structural_check(g)
    assert (rep.passed, rep.involution_passed, rep.decreasing) == (False, False, False)
    assert rep.involution_residual > 1.0


def test_decreasing_check_catches_rise():
    # h' = -1 + 0.8 (x - 1) turns positive past x = 2.25
    g = make_custom_envelope("2 - x + 0.4*(x - 1)**2")
    assert g.x_h == math.inf
    rep = structural_check(g)
    assert (rep.passed, rep.involution_passed, rep.decreasing) == (False, False, False)


def _custom_mobius(alpha, x_h=None):
    return make_custom_envelope(f"(1 - {alpha!r}*x)/({alpha!r} - {2.0 * alpha - 1.0!r}*x)", x_h)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_steep_custom_mobius_x_h_is_its_root(k):
    # the root 1/alpha and the pole alpha/(2 alpha - 1) share one cell of
    # the (1, 50) scan; an involution maps 0 to its root, so x_h = h(0).
    # At k = 4, h(x_h) is 1.1e-8, the rounding of x_h times |h'| ~ 1e8.
    # The outside leg then stops at x_h instead of running past the pole
    alpha = 1.0 - 10.0 ** -k
    h = _custom_mobius(alpha)
    assert h.x_h == 1.0 / alpha
    v = envelops(h, make_model("ricker", {"r": 1.5}))
    assert v.outside is None or v.outside.interval[1] == h.x_h


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_steep_custom_mobius_passes_the_structural_gate(k):
    # h(h(x)) loses about 2k digits near the pole, which the involution
    # tolerance allows for, both on (0, x_h) and, with x_h = inf given,
    # past the pole to 1000
    alpha = 1.0 - 10.0 ** -k
    for h in (_custom_mobius(alpha), _custom_mobius(alpha, math.inf)):
        rep = structural_check(h)
        assert (rep.passed, rep.involution_passed, rep.decreasing) == (True, True, True)


def test_steepest_custom_mobius_fails_decreasing():
    # at alpha = 1 - 1e-7, h' = -(1 - alpha)^2/(alpha - (2 alpha - 1) x)^2
    # past the pole is about -1e-14/x^2, below the rounding of the
    # quotient rule's numerator, so the computed slope takes both signs.
    # The gate runs past the pole only when x_h = inf is given
    rep = structural_check(_custom_mobius(1.0 - 1e-7, math.inf))
    assert (rep.passed, rep.involution_passed, rep.decreasing) == (False, True, False)
    assert structural_check(_custom_mobius(1.0 - 1e-7)).passed


def test_ricker_enveloped_by_affine():
    f = make_model("ricker", {"r": 1.8})
    v = envelops(make_mobius(0.5), f)
    assert v.passed
    assert not v.has_violation
    assert v.inside.ok
    assert v.outside is not None


def test_steep_ricker_not_enveloped():
    f = make_model("ricker", {"r": 2.5})
    v = envelops(make_mobius(0.5), f)
    assert not v.passed
    assert v.has_violation


def test_bh_enveloped_by_its_own_envelope():
    f = make_model("beverton-holt", {"mu": 7.0, "c": 2.3})
    assert envelops(make_piecewise_bh(2.3), f).passed
    # the generic reciprocal fails for this steep exponent
    assert not envelops(make_reciprocal(), f).passed


def test_bh_moderate_exponent_takes_reciprocal():
    f = make_model("beverton-holt", {"mu": 3.0, "c": 2.0})
    assert envelops(make_reciprocal(), f).passed


def test_common_envelope_over_mixed_system():
    mix = make_system([
        make_model("ricker", {"r": 1.5}),
        make_model("beverton-holt", {"mu": 3.0, "c": 1.0}),
    ])
    verdicts = [envelops(make_mobius(0.5), f) for f in mix.maps]
    assert all(v.passed for v in verdicts)
    assert len(verdicts) == 2


def test_fit_interval_contains_known_alpha():
    f = make_model("ricker", {"r": 1.8})
    rep = fit_mobius((f,), alpha_cells=200)
    assert not rep.empty
    assert any(lo <= 0.5 <= hi for lo, hi in rep.feasible)
    assert rep.alpha_step == pytest.approx(1.0 / 200.0)


def test_fit_bh_contains_map_specific_alpha():
    f = make_model("beverton-holt", {"mu": 7.0, "c": 2.3})
    rep = fit_mobius((f,), alpha_cells=200)
    target = (2.3 - 2.0) / (2.3 - 1.0)
    assert any(lo <= target <= hi for lo, hi in rep.feasible)


def _scan_fit(system, cfg=None, alpha_cells=1000):
    """Reference: the linear scan that probes every grid alpha in full at
    one exclusion radius; (feasible, alpha_step) of its fit."""
    if cfg is None:
        cfg = GridConfig()
    alphas = np.arange(alpha_cells) / alpha_cells

    def feasible_at(alpha):
        h = make_mobius(float(alpha))
        return all(envelopes_mod.envelops(h, f, cfg).passed for f in system.maps)

    mask = np.array([feasible_at(a) for a in alphas], dtype=bool)
    runs = []
    i = 0
    while i < alpha_cells:
        if mask[i]:
            j = i
            while j + 1 < alpha_cells and mask[j + 1]:
                j += 1
            lo, hi = float(alphas[i]), float(alphas[j])
            if i > 0:
                mid = 0.5 * (alphas[i - 1] + alphas[i])
                if feasible_at(mid):
                    lo = float(mid)
            if j + 1 < alpha_cells:
                mid = 0.5 * (alphas[j] + alphas[j + 1])
                if feasible_at(mid):
                    hi = float(mid)
            runs.append((lo, hi))
            i = j + 1
        else:
            i += 1
    return tuple(runs), 1.0 / alpha_cells


def _matches_scan(rep, system, cfg=None, alpha_cells=1000):
    """rep is the linear scan's fit at the exclusion radius rep used."""
    cfg = replace(cfg or GridConfig(), exclusion_radius=rep.delta_used)
    scan = _scan_fit(system, cfg, alpha_cells)
    return (rep.feasible, rep.alpha_step) == scan and (rep.failure is None) == bool(scan[0])


@pytest.mark.parametrize("name", _bundled_names())
def test_fit_matches_linear_scan_on_bundled_configs(name):
    cfg = _load_config(name)
    system = config_to_system(cfg)
    assert _matches_scan(fit_mobius(system.maps, cfg.grid, 200), system, cfg.grid, 200)


_FAMILIES = {
    "ricker": st.fixed_dictionaries({"r": st.floats(0.3, 3.0)}),
    "beverton-holt": st.fixed_dictionaries(
        {"mu": st.floats(1.2, 10.0), "c": st.floats(0.5, 4.0)}),
    "exponential-rational": st.fixed_dictionaries(
        {"a": st.floats(0.05, 1.5), "b": st.floats(0.5, 6.0)}),
}
_MAPS = st.one_of(*(
    params.map(lambda p, fam=fam: make_model(fam, p))
    for fam, params in _FAMILIES.items()
))


# an exclusion radius of 0.2 makes the outside leg vacuous for alpha >= 5/7
@settings(deadline=None, max_examples=25)
@given(st.lists(_MAPS, min_size=1, max_size=2, unique_by=lambda f: f.label),
       st.sampled_from([1e-4, 0.2]))
def test_fit_matches_linear_scan_on_family_systems(maps, delta):
    try:
        system = make_system(maps)
    except ValueError:  # e.g. a steep map whose image leaves its domain
        assume(False)
    cfg = GridConfig(seed_cells=256, exclusion_radius=delta)
    assert _matches_scan(fit_mobius(system.maps, cfg, 100), system, cfg, 100)


@pytest.mark.parametrize("maps, cfg", [
    ([make_model("ricker", {"r": 1.8})], None),
    ([make_model("beverton-holt", {"mu": 7.0, "c": 2.3})], None),
    ([make_model("exponential-rational", {"a": 0.32, "b": 2.48})], None),
    ([make_model("ricker", {"r": 1.5}),
      make_model("beverton-holt", {"mu": 3.0, "c": 1.0})], None),
    ([make_model("exponential-rational", {"a": 0.5, "b": 2.0}),
      make_model("ricker", {"r": 1.2})], None),
    # the outside span (1.2, 1.3) is shorter than 2*delta: vacuous for all alpha
    ([make_model("ricker", {"r": 0.5}, x_max=1.3)], GridConfig(exclusion_radius=0.2)),
], ids=["ricker", "beverton-holt", "exponential-rational", "ricker+bh",
        "exprat+ricker", "ricker-vacuous-outside"])
def test_fit_matches_linear_scan_on_family_examples(maps, cfg):
    system = make_system(maps)
    rep = fit_mobius(system.maps, cfg, 200)
    assert _matches_scan(rep, system, cfg, 200)
    assert not rep.empty


def _count_sign_checks(monkeypatch):
    """The intervals of the envelope module's sign checks, in call order."""
    checks = []
    real = envelopes_mod.adaptive_sign_check

    def counted(g, interval, *args):
        checks.append(interval)
        return real(g, interval, *args)

    monkeypatch.setattr(envelopes_mod, "adaptive_sign_check", counted)
    return checks


def test_empty_fit_costs_one_bisection(monkeypatch):
    # the bisection checks the inside leg for the prefix, then one step of
    # the walk checks the outside leg
    cfg = _load_config("bh_counterexample")
    system = config_to_system(cfg)
    calls = _count_sign_checks(monkeypatch)
    rep = fit_mobius(system.maps, cfg.grid, 1000)
    assert rep.empty
    assert rep.failure == "violation"
    assert len(calls) <= (math.ceil(math.log2(1000 + 1)) + 1) * system.period


def test_rescued_fit_probes_only_its_window(monkeypatch):
    # no default candidate envelops this map; a narrow alpha band does.
    # The bisection checks only inside legs, the walk down from the top
    # of the band only outside legs, and only the two midpoints that
    # refine the band's ends check both
    f = make_model("exponential-rational", {"a": 0.32, "b": 2.48})
    calls = _count_sign_checks(monkeypatch)
    n = 1000
    rep = fit_mobius((f,), alpha_cells=n)
    assert len(rep.feasible) == 1
    lo, hi = rep.feasible[0]
    assert lo > 0.5
    alphas = np.arange(n) / n
    band = np.flatnonzero((alphas >= lo) & (alphas <= hi))
    i, j = int(band[0]), int(band[-1])
    window = j - i + 1
    assert 0 < window < n // 5
    bisection = []
    bisect_left(range(n), True, key=lambda k: bisection.append(k) or k > j)
    walk = alphas[i - 1 : j + 1][::-1]  # the band, then the violation under it
    mids = (0.5 * (alphas[i - 1] + alphas[i]), 0.5 * (alphas[j] + alphas[j + 1]))

    inside = (1e-4, 1.0 - 1e-4)

    def outside(alpha):
        return (1.0 + 1e-4, min(1.0 / float(alpha), f.domain.hi))

    assert calls == ([inside] * len(bisection) + [outside(a) for a in walk]
                     + [c for m in mids for c in (inside, outside(m))])
    # probes of (alpha, map): the bisection, the window, the violation
    # under it, two midpoints
    assert len(bisection) + len(walk) + len(mids) <= math.ceil(math.log2(n + 1)) + window + 3


def test_fit_checks_down_past_an_unresolved_outside_leg(monkeypatch):
    # past 1, f - h_0.3 = (x - 2)^4 (x - 1): the flat tangency at 2 leaves
    # the outside check at alpha = 0.3 unresolved, and below 0.3 it fails
    # with a violation, which rules out every smaller alpha
    f = make_model("custom", pieces=[
        (0.0, "x**0.5"),
        (1.0, "(1 - 0.3*x)/(0.3 + 0.4*x) + (x - 2)**4*(x - 1)"),
    ])
    assert envelops(make_mobius(0.3), f).outside.status == "unresolved"
    assert envelops(make_mobius(0.275), f).outside.status == "violation"
    system = make_system([f])
    expected = _scan_fit(system, alpha_cells=40)
    calls = _count_sign_checks(monkeypatch)
    rep = fit_mobius(system.maps, alpha_cells=40)
    assert (rep.feasible, rep.alpha_step) == expected
    assert (rep.delta_used, rep.failure) == (1e-4, None)
    assert rep.feasible[0][0] > 0.3
    # the walk checks the outside leg at the 27 alphas in (0.3, 1), then
    # at 0.3 and at the violation at 0.275, the midpoint that refines the
    # run's low end checks both legs, and the bisection over 40 cells
    # that all pass checks the inside leg 5 times
    assert len(calls) <= math.ceil(math.log2(40 + 1)) + 27 + 2 + 1


def test_fit_keeps_feasible_alphas_below_an_unresolved_probe(monkeypatch):
    # every alpha envelops this map; the outside check at alpha = 0.5 is
    # made to come back unresolved, which proves nothing about smaller
    # alpha, so the walk goes on past it
    f = make_model("beverton-holt", {"mu": 3.0, "c": 1.0})
    real = envelopes_mod._outside_leg

    def unresolved_at_half(h, model, cfg):
        out = real(h, model, cfg)
        if h.param != 0.5:
            return out
        return replace(out, status="unresolved", unresolved=((1.5, 1.6),))

    monkeypatch.setattr(envelopes_mod, "_outside_leg", unresolved_at_half)
    system = make_system([f])
    rep = fit_mobius(system.maps, alpha_cells=40)
    assert rep.feasible == ((0.0, 0.4875), (0.5125, 0.975))
    assert _matches_scan(rep, system, alpha_cells=40)


def test_fit_stops_at_the_first_outside_violation(monkeypatch):
    # every alpha envelops this map; the outside check at alpha = 0.6 is
    # made to fail with a violation, whose witness refutes every smaller
    # alpha, so the walk down stops there
    f = make_model("beverton-holt", {"mu": 3.0, "c": 1.0})
    real = envelopes_mod._outside_leg

    def violation_at(h, model, cfg):
        out = real(h, model, cfg)
        if h.param != 0.6:
            return out
        return replace(out, status="violation", witness=1.5, witness_value=-0.1)

    monkeypatch.setattr(envelopes_mod, "_outside_leg", violation_at)
    rep = fit_mobius((f,), alpha_cells=40)
    assert rep.feasible == ((0.6125, 0.975),)
    assert (rep.delta_used, rep.failure) == (1e-4, None)


def test_fit_on_the_period_map():
    # no common envelope exists for r = 2.3 and 1.0, but Phi itself is
    # enveloped: the fit takes the period map like any other model
    system = make_system([make_model("ricker", {"r": 2.3}), make_model("ricker", {"r": 1.0})])
    assert fit_mobius(system.maps).empty
    rep = fit_mobius((system.period_map,))
    assert rep.feasible == ((0.299, 0.999),)
    assert rep.failure is None


def test_fit_rejects_empty_grid():
    f = make_model("ricker", {"r": 1.8})
    for cells in (0, -5):
        with pytest.raises(ValueError, match="alpha_cells must be at least 1"):
            fit_mobius((f,), alpha_cells=cells)


def test_envelope_labels():
    for h, label, alpha, x_h in [
        (make_mobius(0.5), "mobius(alpha=0.5)", 0.5, 2.0),
        (make_reciprocal(), "reciprocal(1/x)", 0.0, np.inf),
        (make_piecewise_bh(3.0), "piecewise-bh(c=3)", 0.5, 2.0),
    ]:
        assert (h.label, h.param, h.x_h) == (label, alpha, x_h)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.75, 8.0 / 11.0, 11.0 / 13.0])
def test_compiled_mobius_matches_closed_form_bit_for_bit(alpha):
    # the compiled formula against the closed-form expression it replaced,
    # at 0, 1, x_h and past x_h, where h is negative and may have a pole
    h = make_mobius(alpha)
    x_h = 1.0 / alpha if alpha else 50.0
    xs = np.concatenate([
        [0.0, 1.0, x_h, np.nextafter(x_h, 0.0), np.nextafter(x_h, np.inf)],
        np.linspace(0.0, 4.0 * x_h, 20_001),
    ])
    with np.errstate(all="ignore"):
        expected = (1.0 - alpha * xs) / (alpha - (2.0 * alpha - 1.0) * xs)
    np.testing.assert_array_equal(h.eval_array(xs), expected)
    assert h.eval(1.0) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0 - 1e-6))
@example(0.9999)
@example(1.0 - 1e-6)
def test_sampled_gate_agrees_with_mobius_constant(alpha):
    # the sampled structural check is the reference for MOBIUS_STRUCTURE,
    # also at tiny alpha, whose x_h is beyond 1e6, and at alpha near 1,
    # where h(h(x)) near x_h loses about 2 log10(1/(1 - alpha)) digits
    # that the involution tolerance allows for through |h'(h(x)) h(x)|
    rep = structural_check(make_mobius(alpha), GridConfig(seed_cells=1024))
    const = envelopes_mod.MOBIUS_STRUCTURE
    assert (rep.passed, rep.involution_passed, rep.decreasing) == (
        const.passed, const.involution_passed, const.decreasing) == (True, True, True)
